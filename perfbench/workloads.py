"""The four benchmark workloads, their set-up, output checks and metrics.

Every workload builds the glyph12 corpora from the benchmark seed, saves
and loads them, and then runs one kind of unit of work over and over for
the requested number of seconds:

- base-train:  a slice of base-mode optimizer steps from fresh parameters;
- smile-adapt: a slice of smile-mode steps from a 500-step base checkpoint;
- eval-decode: one ``evaluate`` pass over target_test plus source_val;
- gradcheck:   one ``checks.run_all`` pass.

Training slices are chained through ``train_with_corpora(resume=True)``,
which continues the uninterrupted run bit for bit, so the time of a slice
is taken on the public API.  Each unit's time is scaled by the machine
speed sampled while it ran (see SpeedProbe), and the reported unit time is
the median over units.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import signal
import statistics
import time
from dataclasses import replace

import numpy as np

import smile
from smile import checks, data, metrics, trainer
from smile.errors import ContractError, FormatError, NumericalAbort

from tracer import LAYERS, OPS, Tracer

PROGRAM_ERRORS = (ContractError, FormatError, NumericalAbort)

SETUP_REPEATS = 3            # corpus set-ups per run; setup_s is their median
BASE_CKPT_STEPS = 500        # the start checkpoint of smile-adapt and eval-decode
BASE_CKPT_SLICES = 5
BASE_SLICE = 20              # optimizer steps per timed base-train unit
SMILE_SLICE = 10             # optimizer steps per timed smile-adapt unit
# outputs are checked at a fixed step so that they do not depend on speed
BASE_CHECK_STEP = 200
SMILE_CHECK_STEP = 100
NO_EVAL = 10 ** 9            # eval_every that leaves only the last-step log row
THREAD_PASSES = 3            # passes per thread count for metrics.thread_speedup

BASE_CFG = trainer.TrainConfig(mode="base", batch_source=32, optimizer="adam",
                               lr=1e-3, seed=1, eval_every=NO_EVAL)
# the A6 adaptation recipe
SMILE_CFG = trainer.TrainConfig(mode="smile", lam=1.0,
                                entropy_variant="shannon", p_init=0.0,
                                p_add=5e-5, batch_source=32, batch_target=64,
                                optimizer="adam", lr=3e-4, seed=2,
                                eval_every=NO_EVAL)

SRC_MODULES = ("tensor", "recognizer", "losses", "self_paced", "trainer",
               "metrics", "data", "checks", "cli")

WORKLOADS = ("base-train", "smile-adapt", "eval-decode", "gradcheck")


class Outcome:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


class _Cell:
    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = value
        self.grad = None


class SpeedProbe:
    """Samples the machine's speed while a measured call runs.

    The machine this benchmark runs on is shared.  For seconds at a time
    all code on it runs up to half again as slowly, and CPU time slows with
    wall time, so neither can be compared across runs as it is.  While a
    call runs, a timer signal every PERIOD_S seconds runs a short fixed
    loop of tiny numpy ops, object creation and Python calls, the same kind
    of work as a burst of tensor ops, and records how long it took.  The
    call's time, less the probes', is divided by the mean probe time and
    multiplied by PROBE_MS: milliseconds at the machine speed where the
    loop takes PROBE_MS.  The call itself is not changed.
    """

    PERIOD_S = 0.02
    ITERS = 60
    PROBE_MS = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((4, 4))
        self.x = rng.standard_normal((4, 4))
        self.samples: list[float] = []
        self.all_samples: list[float] = []
        self._busy = False

    def _loop_s(self) -> float:
        t0 = time.perf_counter()
        x, a = self.x, self.a
        for _ in range(self.ITERS):
            cell = _Cell(np.tanh(a) @ x + 1.0)
            cell = _Cell(np.where(cell.value > 0.0, cell.value, 0.0).T)
            parts = {"cell": cell, "sizes": [1, 2, 3]}
            x = parts["cell"].value
            x = x / (1.0 + float(np.abs(x).max()))
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            self.samples.append(self._loop_s())
            self._busy = False

    def time(self, fn, *args):
        """Returns (wall seconds, scaled seconds, fn's result)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        dt -= sum(self.samples)
        self.samples.append(self._loop_s())
        self.all_samples += self.samples
        probe_s = statistics.fmean(self.samples)
        return dt, dt * (self.PROBE_MS / 1e3) / probe_s, result


class SliceChain:
    """One training run cut into equal slices chained by resume."""

    def __init__(self, cfg, slice_steps: int, source, target=None,
                 start=None):
        self.cfg = cfg
        self.slice_steps = slice_steps
        self.source = source
        self.target = target
        self.ck = start
        self.resume = False
        self.steps = 0
        self.last_row = None

    def run_slice(self) -> int:
        cfg = replace(self.cfg, steps=self.steps + self.slice_steps)
        ck, log = trainer.train_with_corpora(cfg, self.source, self.target,
                                             None, start=self.ck,
                                             resume=self.resume)
        self.ck, self.resume, self.steps = ck, True, cfg.steps
        self.last_row = log.eval_rows[-1]
        return self.slice_steps


class Bench:
    """One benchmark run: set-up, timed units, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 root: str, work: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = work
        self.outcome = Outcome()
        self.setup: dict[str, float] = {}
        self.quality: dict[str, float] = {}
        self.probe = SpeedProbe()
        self.probing = True

    # -- set-up --------------------------------------------------------------

    def _corpus_setup(self):
        """Build, save and load the five corpora; returns the loaded ones."""
        t_build, built = _timed(data.build_glyph12, self.seed)
        paths = {n: os.path.join(self.work, f"{n}.smcp") for n in built}
        t_save = sum(_timed(data.save_corpus, c, paths[n])[0]
                     for n, c in built.items())
        loaded, t_load = {}, 0.0
        for n, path in paths.items():
            dt, loaded[n] = _timed(data.load_corpus, path)
            t_load += dt
        for n in built:
            self.outcome.expect(loaded[n] == built[n],
                                f"corpus {n} changed in a save/load round trip")
        return loaded, t_build, t_save / len(paths), t_load / len(paths)

    def _checkpoint_round_trip(self, ck, name: str):
        """Save, load and save again; returns (save s, load s, loaded)."""
        first = os.path.join(self.work, f"{name}.smck")
        second = os.path.join(self.work, f"{name}-again.smck")
        t_save, _ = _timed(trainer.save_checkpoint, ck, first)
        t_load, loaded = _timed(trainer.load_checkpoint, first)
        trainer.save_checkpoint(loaded, second)
        with open(first, "rb") as f1, open(second, "rb") as f2:
            same = f1.read() == f2.read()
        self.outcome.expect(same, f"checkpoint {name} save/load/save differs")
        return t_save, t_load, loaded

    def run_setup(self):
        totals, builds, saves, loads = [], [], [], []
        for _ in range(SETUP_REPEATS):
            _, scaled, parts = self.probe.time(self._corpus_setup)
            self.corpora, t_build, t_save, t_load = parts
            totals.append(scaled)
            builds.append(t_build)
            saves.append(t_save)
            loads.append(t_load)
        setup_s = statistics.median(totals)
        self.setup.update(build_s=statistics.median(builds),
                          save_corpus_ms=_ms(statistics.median(saves)),
                          load_corpus_ms=_ms(statistics.median(loads)))
        self.start_ck = None
        if self.workload in ("smile-adapt", "eval-decode"):
            setup_s += self._train_start_checkpoint()
        self.setup["setup_s"] = setup_s

    def _train_start_checkpoint(self) -> float:
        """Train the 500-step base checkpoint in slices, then round-trip it.

        Returns the set-up seconds it adds: the median scaled slice time
        times the slice count, plus the median save and load time."""
        chain = SliceChain(BASE_CFG, BASE_CKPT_STEPS // BASE_CKPT_SLICES,
                           self.corpora["source_train"])
        slice_s = []
        for _ in range(BASE_CKPT_SLICES):
            slice_s.append(self._guarded(chain.run_slice, "start checkpoint"))
        if any(s is None for s in slice_s):
            raise RuntimeError("the start checkpoint failed to train: "
                               + "; ".join(self.outcome.problems))
        saves, loads = [], []
        for _ in range(SETUP_REPEATS):
            t_save, t_load, self.start_ck = self._checkpoint_round_trip(
                chain.ck, "start")
            saves.append(t_save)
            loads.append(t_load)
        t_save, t_load = statistics.median(saves), statistics.median(loads)
        self.setup.update(save_checkpoint_ms=_ms(t_save),
                          load_checkpoint_ms=_ms(t_load))
        return (BASE_CKPT_SLICES * statistics.median(s[1] for s in slice_s)
                + t_save + t_load)

    def _guarded(self, fn, what: str):
        """(wall s, scaled s, result) of fn(), scaled by the speed probe
        unless probing is off; a program error counts as a failed operation
        and gives None."""
        try:
            if self.probing:
                return self.probe.time(fn)
            dt, result = _timed(fn)
            return dt, dt, result
        except PROGRAM_ERRORS as e:
            self.outcome.expect(False, f"{what}: {type(e).__name__}: {e}")
            return None

    # -- units of work --------------------------------------------------------

    def prepare(self):
        """Create the unit of work; returns a callable giving units done."""
        w = self.workload
        if w == "base-train":
            self.chain = SliceChain(BASE_CFG, BASE_SLICE,
                                    self.corpora["source_train"])
            self.check_step = BASE_CHECK_STEP
            self.check_ck = self.first_row = self.check_row = None
            return self._train_unit
        if w == "smile-adapt":
            self.chain = SliceChain(SMILE_CFG, SMILE_SLICE,
                                    self.corpora["source_train"],
                                    self.corpora["target_train"],
                                    start=self.start_ck)
            self.check_step = SMILE_CHECK_STEP
            self.check_ck = self.first_row = self.check_row = None
            return self._train_unit
        if w == "eval-decode":
            self.rec = self.start_ck.restore()
            self.eval_results = None
            return self._eval_unit
        self.check_results = None
        return self._gradcheck_unit

    def _train_unit(self) -> int:
        steps = self.chain.run_slice()
        row = self.chain.last_row
        self.outcome.expect(all(v is None or math.isfinite(v)
                                for v in (row[2], row[3])),
                            f"non-finite loss logged at step {row[0]}")
        if self.first_row is None:
            self.first_row = row
        if self.chain.steps == self.check_step:
            self.check_ck, self.check_row = self.chain.ck, row
        return steps

    def _eval_pass(self, threads=None):
        return (metrics.evaluate(self.rec, self.corpora["target_test"],
                                 threads=threads),
                metrics.evaluate(self.rec, self.corpora["source_val"],
                                 threads=threads))

    def _eval_unit(self) -> int:
        results = self._eval_pass()
        if self.eval_results is None:
            self.eval_results = results
        self.outcome.expect(results == self.eval_results,
                            "evaluate gave different results on a repeat")
        return 1

    def _gradcheck_unit(self) -> int:
        results = checks.run_all(seed=self.seed)
        for r in results:
            self.outcome.expect(r.ok, f"gradcheck {r.name}: max rel err "
                                      f"{r.max_rel_err:.3e}")
        if self.check_results is None:
            self.check_results = results
        self.outcome.expect(results == self.check_results,
                            "gradcheck gave different results on a repeat")
        return 1

    def measure(self, unit, seconds: float) -> tuple[list[float], list[float]]:
        """Run units for `seconds`; returns the wall and the scaled seconds
        of each unit.

        Training runs on past the deadline until the check step is
        reached, so the checked outputs never depend on machine speed."""
        wall, scaled = [], []
        deadline = time.perf_counter() + seconds
        while (not wall or time.perf_counter() < deadline
               or self._before_check_step()):
            timed = self._guarded(unit, self.workload)
            if timed is None:
                break
            dt, dt_scaled, n = timed
            wall.append(dt / n)
            scaled.append(dt_scaled / n)
        return wall, scaled

    def _before_check_step(self) -> bool:
        return (self.workload in ("base-train", "smile-adapt")
                and self.chain.steps < self.check_step)

    # -- output checks after the timed run ------------------------------------

    def _threads_agree(self, rec, corpus_name: str):
        corpus = self.corpora[corpus_name]
        one = metrics.evaluate(rec, corpus, threads=1)
        two = metrics.evaluate(rec, corpus, threads=2)
        self.outcome.expect(one == two, f"evaluate on {corpus_name} differs "
                                        "between 1 and 2 threads")
        return one

    def final_checks(self):
        w = self.workload
        if w in ("base-train", "smile-adapt"):
            if self.check_row is None:
                self.outcome.expect(False, "training stopped before step "
                                           f"{self.check_step}")
                return
            self.quality["final_loss"] = self.check_row[2]
            self._checkpoint_round_trip(self.chain.ck, "final")
        if w == "base-train":
            self.outcome.expect(self.check_row[2] < self.first_row[2],
                                "decoder loss did not fall during training")
        elif w == "smile-adapt":
            ent = self.check_row[3]
            self.outcome.expect(ent is not None and ent >= 0.0,
                                "no selected entropy term was logged")
            self.quality["selected_entropy"] = ent or 0.0
            result = self._threads_agree(self.check_ck.restore(),
                                         "target_test")
            self._record_eval(result)
        elif w == "eval-decode" and self.eval_results is not None:
            result = self._threads_agree(self.rec, "target_test")
            self._threads_agree(self.rec, "source_val")
            self.outcome.expect(result == self.eval_results[0],
                                "serial evaluate differs from the timed pass")
            self._record_eval(result)
        elif self.check_results is not None:
            self.quality["max_rel_err"] = max(
                r.max_rel_err for r in self.check_results)

    def _record_eval(self, result):
        self.outcome.expect(0.0 <= result.word_acc <= 1.0
                            and math.isfinite(result.mean_entropy)
                            and result.mean_entropy >= 0.0,
                            "evaluate returned out-of-range metrics")
        self.quality["word_acc"] = result.word_acc
        self.quality["mean_entropy"] = result.mean_entropy

    def thread_speedup(self) -> tuple[float, float]:
        """Median wall seconds of a pass at 1 and at 2 evaluation threads.

        The two alternate, so a slow spell of the machine hits both."""
        times: dict[int, list[float]] = {1: [], 2: []}
        for _ in range(THREAD_PASSES):
            for threads in (1, 2):
                times[threads].append(_timed(self._eval_pass, threads)[0])
        return statistics.median(times[1]), statistics.median(times[2])

    # -- reporting --------------------------------------------------------------

    def rates(self, unit_s: float) -> dict[str, float]:
        """The workload's throughput in its own terms."""
        if self.workload in ("base-train", "smile-adapt"):
            return {"steps_per_s": 1.0 / unit_s}
        if self.workload == "eval-decode":
            images = (len(self.corpora["target_test"])
                      + len(self.corpora["source_val"]))
            return {"images_per_s": images / unit_s}
        return {"gradcheck_s": unit_s}

    def src_lines(self) -> dict[str, int]:
        src = os.path.join(self.root, "src", "smile")
        counts = {}
        total = 0
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), "rb") as f:
                    n = f.read().count(b"\n")
                total += n
                module = name[:-3]
                if module in SRC_MODULES:
                    counts[f"{module}.src_lines"] = n
        counts["src_lines"] = total
        return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        out_dir: str) -> tuple[dict, dict, list[str]]:
    """Run one workload; returns (result object, metrics, report lines)."""
    work = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        bench = Bench(workload, seed, seconds, root, work)
        bench.run_setup()
        unit = bench.prepare()
        if trace:
            values, lines = _traced(bench, unit, out_dir)
        else:
            wall, scaled = bench.measure(unit, seconds)
            bench.final_checks()
            values, lines = _untraced(bench, wall, scaled)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    o = bench.outcome
    lines += [f"check: {p}" for p in o.problems]
    result = {"correct": o.failed == 0 and o.attempted > 0,
              "attempted": o.attempted, "failed": o.failed}
    return result, values, lines


def _untraced(bench: Bench, wall: list[float], scaled: list[float]):
    unit_s = statistics.median(scaled)
    values = {"unit_ms": (_ms(unit_s), "ms"),
              "setup_s": (bench.setup["setup_s"], "s"),
              "peak_rss_mb": (peak_rss_mb(), "MB")}
    rates = " ".join(f"{k}={v:.4g}" for k, v in bench.rates(unit_s).items())
    wall_s = statistics.median(wall)
    quality = " ".join(f"{k}={v:.6g}" for k, v in bench.quality.items())
    lines = [f"{bench.workload}: {len(scaled)} units, scaled unit_ms median "
             f"{_ms(unit_s):.4g} p90 {_ms(np.percentile(scaled, 90)):.4g}, "
             f"{rates}",
             f"{bench.workload}: wall unit_ms median {_ms(wall_s):.4g} p90 "
             f"{_ms(np.percentile(wall, 90)):.4g}; speed probe median "
             f"{_ms(statistics.median(bench.probe.all_samples)):.4g} ms "
             f"against {SpeedProbe.PROBE_MS} ms",
             f"{bench.workload}: outputs {quality}"]
    return values, lines


def _traced(bench: Bench, unit, out_dir: str):
    """Half the time untraced, half traced; per-layer metrics per unit.

    The speed probe is off in both halves: its signal handler would run
    inside whatever span is open."""
    bench.probing = False
    untraced = bench.measure(unit, bench.seconds / 2)[1]
    tracer = Tracer()
    tracer.install(smile)
    try:
        traced = bench.measure(unit, bench.seconds / 2)[1]
    finally:
        tracer.uninstall()
    bench.final_checks()
    speedup = bench.thread_speedup() if bench.workload == "eval-decode" \
        else None
    units = float(len(traced) if bench.workload in ("eval-decode",
                                                    "gradcheck")
                  else len(traced) * bench.chain.slice_steps)
    trace_path = os.path.join(out_dir,
                              f"trace-{bench.workload}-{bench.seed}.npz")
    tracer.write(trace_path)
    summary = tracer.summary()
    values = _layer_metrics(bench, summary, tracer.counters, units)
    u_ms = _ms(statistics.median(untraced))
    t_ms = _ms(statistics.median(traced))
    values.update({
        "trace.untraced_unit_ms": (u_ms, "ms"),
        "trace.traced_unit_ms": (t_ms, "ms"),
        "trace.overhead_ratio": (t_ms / u_ms, "ratio"),
        "trace.units": (units, "count"),
        "trace.spans": (float(summary["spans"]), "count"),
    })
    if speedup is not None:
        one, two = speedup
        values.update({"metrics.pass_ms_threads1": (_ms(one), "ms"),
                       "metrics.pass_ms_threads2": (_ms(two), "ms"),
                       "metrics.thread_speedup": (one / two, "ratio")})
    lines = [f"{bench.workload}: traced {len(traced)} units "
             f"({units:g} steps or passes), {summary['spans']} spans "
             f"written to {os.path.relpath(trace_path, bench.root)}",
             f"{bench.workload}: root {values['trace.root_ms'][0]:.4g} ms "
             f"per unit, layer self times sum to "
             f"{values['trace.self_sum_ms'][0]:.4g} ms"]
    return values, lines


def _layer_metrics(bench: Bench, summary: dict, counters, units: float):
    by_name = summary["by_name"]

    def ms(name: str, part: int = 1) -> float:
        entry = by_name.get(name)
        return entry[part] / 1e6 / units if entry else 0.0

    def calls(name: str) -> float:
        entry = by_name.get(name)
        return entry[0] / units if entry else 0.0

    def per_unit(key: str) -> float:
        return counters.get(key, 0) / units

    v: dict[str, tuple[float, str]] = {}
    v["tensor.tape_nodes"] = (per_unit("tensor.tape_nodes"), "count")
    v["tensor.backward_ms"] = (ms("tensor.backward"), "ms")
    for op in OPS:
        v[f"tensor.op.{op}.count"] = (calls(f"tensor.op.{op}"), "count")
        v[f"tensor.op.{op}.fwd_ms"] = (ms(f"tensor.op.{op}"), "ms")
        v[f"tensor.op.{op}.bwd_ms"] = (ms(f"tensor.op.{op}.bwd"), "ms")
    for fn in ("encode", "teacher_forced", "greedy"):
        v[f"recognizer.{fn}_ms"] = (ms(f"recognizer.{fn}"), "ms")
    v["recognizer.greedy_decode_steps"] = (
        per_unit("recognizer.greedy_decode_steps"), "count")
    v["recognizer.emitted_rows"] = (per_unit("recognizer.emitted_rows"),
                                    "count")
    for fn in ("decoder_loss", "smile_loss"):
        v[f"losses.{fn}_ms"] = (ms(f"losses.{fn}"), "ms")
    for fn in ("build_pool", "select", "selected_entropy_loss"):
        v[f"self_paced.{fn}_ms"] = (ms(f"self_paced.{fn}"), "ms")
    pool = counters.get("self_paced.pool_entries", 0)
    chosen = counters.get("self_paced.chosen", 0)
    v["self_paced.pool_entries"] = (pool / units, "count")
    v["self_paced.chosen"] = (chosen / units, "count")
    v["self_paced.chosen_ratio"] = (chosen / pool if pool else 0.0, "ratio")
    v["trainer.step_self_ms"] = (ms("trainer.train_with_corpora", 2), "ms")
    v["trainer.optimizer_ms"] = (ms("trainer.optimizer"), "ms")
    v["trainer.clip_ms"] = (ms("trainer.clip_gradients"), "ms")
    clip_calls = counters.get("trainer.clip_calls", 0)
    fired = counters.get("trainer.clip_fired", 0)
    v["trainer.clip_calls"] = (float(clip_calls), "count")
    v["trainer.clip_fired"] = (float(fired), "count")
    v["trainer.clip_fired_ratio"] = (fired / clip_calls if clip_calls
                                     else 0.0, "ratio")
    v["trainer.save_checkpoint_ms"] = (
        bench.setup.get("save_checkpoint_ms", 0.0), "ms")
    v["trainer.load_checkpoint_ms"] = (
        bench.setup.get("load_checkpoint_ms", 0.0), "ms")
    v["metrics.evaluate_ms"] = (ms("metrics.evaluate"), "ms")
    v["metrics.char_accuracy_ms"] = (ms("metrics.char_accuracy"), "ms")
    v["metrics.thread_speedup"] = (0.0, "ratio")
    v["metrics.pass_ms_threads1"] = (0.0, "ms")
    v["metrics.pass_ms_threads2"] = (0.0, "ms")
    v["data.build_glyph12_s"] = (bench.setup["build_s"], "s")
    v["data.save_corpus_ms"] = (bench.setup["save_corpus_ms"], "ms")
    v["data.load_corpus_ms"] = (bench.setup["load_corpus_ms"], "ms")
    v["checks.check_ops_s"] = (ms("checks.check_ops") / 1e3, "s")
    v["checks.check_model_s"] = (ms("checks.check_model") / 1e3, "s")
    for layer in LAYERS:
        v[f"{layer}.self_ms"] = (summary["layer_self_ns"][layer] / 1e6 / units,
                                 "ms")
    v["trace.root_ms"] = (summary["root_ns"] / 1e6 / units, "ms")
    v["trace.self_sum_ms"] = (sum(summary["layer_self_ns"].values())
                              / 1e6 / units, "ms")
    for key, (layer, unit) in QUALITY.items():
        v[f"{layer}.{key}"] = (float(bench.quality.get(key, 0.0)), unit)
    v.update({k: (float(n), "lines") for k, n in bench.src_lines().items()})
    return v


# checked outputs reported by the traced run: name -> (layer, unit)
QUALITY = {"final_loss": ("losses", "nat"),
           "selected_entropy": ("self_paced", "nat"),
           "word_acc": ("metrics", "ratio"),
           "mean_entropy": ("metrics", "nat"),
           "max_rel_err": ("checks", "ratio")}
