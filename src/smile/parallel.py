"""Independent units of work shared over every CPU the process may use.

A unit is a callable that takes no arguments and whose result depends on
nothing another unit does, so the units may run in any order and on any
process.  _run_units(units, what) returns [unit() for unit in units] from a
pool of one forked worker per CPU in the process's affinity set, which
takes the units in order, so a caller lists them largest first; the caller
waits, and the results come back in unit order, the serial ones bit for
bit.  With one CPU, with no fork, with another thread running (which makes
fork unsafe) or when a worker cannot be forked, the caller runs every unit
itself.  Workers are forked, not spawned: a unit is a closure over live
arrays, which a worker inherits and never pickles, and a spawned worker
would import numpy and smile again on every call.

The callers check their settings before the call, so a bad one is refused
before any fork.  A unit's exception is raised by the caller with its type
and message, and the units not yet started are cancelled; a worker that
dies is a WorkerLost that names the work (`what`).  No worker outlives the
call: it waits for the units already running, then joins the workers.
"""

from __future__ import annotations

import os
import threading

from .errors import WorkerLost

_units: list = []   # a worker's units, set by the pool's initializer


def _worker_count(units: int) -> int:
    """CPUs beyond the first that the process may use, at most units - 1;
    0, which means serial, without fork or while another thread runs."""
    import multiprocessing   # here: only a call that shares units needs it

    if (not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 0
    return min(len(os.sched_getaffinity(0)), units) - 1


def _keep(units: list):
    _units[:] = units   # replaced, not extended: a worker may run a pool


def _run(i: int):
    return _units[i]()


def _run_units(units: list, what: str) -> list:
    """[unit() for unit in units] on one forked worker per CPU; a unit's
    exception is raised here, a dead worker as a WorkerLost naming what."""
    workers = _worker_count(len(units))
    if not workers:
        return [unit() for unit in units]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(workers + 1,
                             multiprocessing.get_context("fork"),
                             initializer=_keep, initargs=(units,)) as pool:
        try:   # the first submit forks every worker
            results = pool.map(_run, range(len(units)))
        except OSError:   # no process to spare: this process does the units
            for proc in pool._processes.values():   # those forked before
                proc.terminate()
                proc.join()
            return [unit() for unit in units]
        try:
            return list(results)
        except BrokenProcessPool:
            raise WorkerLost(f"{what}: a worker exited before sending its "
                             f"results") from None
