"""Independent units of work shared over every CPU the process may use.

A unit is a callable that takes no arguments and whose result depends on
nothing another unit does, so the units may run in any order and on any
process.  _run_units(units, what) returns [unit() for unit in units]: one
worker is forked per further CPU in the process's affinity set, and the
parent and the workers each take the next unit index from one shared
counter until none is left, so a caller lists its units largest first.
Each worker sends back {unit: result}, and the parent puts the results in
unit order, so they are the serial ones bit for bit.  With one CPU, with no
fork, or with another thread running (which makes fork unsafe), the parent
runs every unit itself through the same loop.  Workers are forked, not
spawned: a unit is a closure over live arrays, and a spawned worker would
import numpy and smile again on every call.

The callers check their settings before the call, so a bad one is refused
before any fork.  stdio is flushed before the fork, else a worker would
write buffered output a second time.  A unit's exception in a worker is
raised by the parent with its type and message; a worker that exits
without sending its results is a WorkerLost that names the work (`what`)
and the worker's exit code.  No worker outlives the call: the workers are
joined, and terminated first if the call fails.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from functools import partial

from .errors import WorkerLost


def _worker_count(units: int) -> int:
    """Workers to fork beside this process: one per further CPU it may use,
    none without fork or while another thread runs."""
    import multiprocessing   # here: only a call that shares units needs it

    if (not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 0
    return min(len(os.sched_getaffinity(0)), units) - 1


def _take_shared(counter) -> int:
    with counter.get_lock():
        counter.value += 1
        return counter.value - 1


def _take_all(units: list, take) -> dict:
    """{i: units[i]()} for every index take() hands out below len(units)."""
    done = {}
    while (i := take()) < len(units):
        done[i] = units[i]()
    return done


def _worker(units: list, take, conn):
    try:
        done = _take_all(units, take)
    except Exception as e:   # the parent raises it as its own
        done = e
    conn.send(done)
    conn.close()


def _run_units(units: list, what: str) -> list:
    """[unit() for unit in units], shared with one forked worker per
    further CPU, or fewer if a fork fails.  A unit's exception in a worker
    is raised here; a worker that exits without sending its results is a
    WorkerLost whose message starts with what.  No worker outlives the
    call: they are joined, and terminated first if the call fails."""
    workers = _worker_count(len(units))
    if workers:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        take = partial(_take_shared, ctx.Value("q", 0))
        sys.stdout.flush()   # else a worker writes buffered output again
        sys.stderr.flush()
    else:
        take = itertools.count().__next__
    procs = []
    try:
        for _ in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(units, take, send),
                               daemon=True)
            try:
                proc.start()
            except OSError:   # no process to spare: the rest do the units
                recv.close()
                break
            finally:
                send.close()   # so recv() sees the end if the worker dies
            procs.append((proc, recv))
        done = _take_all(units, take)
        for proc, recv in procs:
            try:
                got = recv.recv()
            except EOFError:
                proc.join()
                raise WorkerLost(f"{what}: worker {proc.pid} exited with "
                                 f"code {proc.exitcode} before sending its "
                                 f"results") from None
            if isinstance(got, Exception):
                raise got
            done.update(got)
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            proc.join()
            recv.close()
    return [done[i] for i in range(len(units))]
