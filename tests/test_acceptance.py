"""End-to-end acceptance gate.

Ten criteria, one test and one printed verdict line each: gradient fidelity,
entropy properties, the selection oracle, the pacing schedule, source
training, the directional adaptation gain, prediction sharpening, the
selection-versus-no-selection ablation, bit-level reproducibility, and file
format round trips.  The glyph12 runs train real models, so this module
takes a few minutes; everything is seeded and deterministic.  A5-A8 run on
those models and carry the `slow` marker.  A6's three seeds and A8's two
cells train side by side, on one worker process per core (at most two).
"""

import math
import multiprocessing
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import smile.tensor as T
from smile import checks
from smile.data import (VocabSpec, build_glyph12, load_corpus, save_corpus)
from smile.errors import FormatError
from smile.losses import row_entropy
from smile.metrics import evaluate
from smile.recognizer import Recognizer
from smile.self_paced import PredictionPool, portion_at, select
from smile.tensor import Tape
from smile.trainer import (SWEEP_GRID, TrainConfig, load_checkpoint,
                           save_checkpoint, snapshot, sweep,
                           train_with_corpora)

# shared adaptation recipe for A6-A8: pinned values per the criteria
# (lambda 1, shannon, pacing 0.0/5e-5) plus desk-scale run choices
SMILE_RECIPE = dict(mode="smile", lam=1.0, entropy_variant="shannon",
                    p_init=0.0, p_add=5e-5, steps=3000, batch_source=32,
                    batch_target=64, optimizer="adam", lr=3e-4,
                    eval_every=3000)


def verdict(capfd, tag, ok, detail):
    with capfd.disabled():
        print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _raises(fn, needle):
    try:
        fn()
    except FormatError as e:
        return needle in str(e)
    except Exception:
        return False
    return False


# -- expensive shared artifacts ------------------------------------------------

@pytest.fixture(scope="module")
def glyph12():
    return build_glyph12(7)


@pytest.fixture(scope="module")
def base_runs(glyph12):
    """Source-only training: a 500-step early checkpoint, then the same run
    resumed to 3000 steps (resume equals uninterrupted, per A9)."""
    t0 = time.perf_counter()
    cfg500 = TrainConfig(mode="base", steps=500, batch_source=32, lr=1e-3,
                         seed=1, eval_every=500)
    ck500, _ = train_with_corpora(cfg500, source=glyph12["source_train"])
    cfg3000 = replace(cfg500, steps=3000, eval_every=3000)
    ck3000, _ = train_with_corpora(cfg3000, source=glyph12["source_train"],
                                   start=ck500, resume=True)
    seconds = time.perf_counter() - t0
    return {"ck500": ck500, "ck3000": ck3000, "seconds": seconds}


@pytest.fixture(scope="module")
def workers():
    """Worker processes for the independent training runs, one per core and
    at most two; None on one core, where the runs stay in this process.
    Each run is deterministic, so a worker returns what a serial run would.
    Spawned workers inherit the one-thread BLAS setting from the
    environment."""
    n = min(2, len(os.sched_getaffinity(0)))
    if n < 2:
        yield None
        return
    with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context(
            "spawn")) as pool:
        yield pool


def run_all(workers, fn, calls):
    """[fn(*args) for args in calls], on the workers when there are any."""
    if workers is None:
        return [fn(*args) for args in calls]
    return [f.result() for f in [workers.submit(fn, *args) for args in calls]]


def timed_smile_run(cfg, source, target, start):
    """A smile run's checkpoint and its wall time in the process running it."""
    t0 = time.perf_counter()
    ck, _ = train_with_corpora(cfg, source=source, target=target, start=start)
    return ck, time.perf_counter() - t0


@pytest.fixture(scope="module")
def smile_runs(glyph12, base_runs, workers):
    seeds = (2, 3, 4)
    runs = run_all(workers, timed_smile_run, [
        (TrainConfig(seed=seed, **SMILE_RECIPE), glyph12["source_train"],
         glyph12["target_train"], base_runs["ck3000"]) for seed in seeds])
    return dict(zip(seeds, runs))


@pytest.fixture(scope="module")
def uda_evals(glyph12, base_runs, smile_runs):
    test = glyph12["target_test"]
    return {
        "baseline": evaluate(base_runs["ck3000"].restore(), test),
        "adapted": {seed: evaluate(ck.restore(), test)
                    for seed, (ck, _) in smile_runs.items()},
    }


# -- A1 ------------------------------------------------------------------------

def test_a01_gradient_fidelity(capfd):
    t0 = time.perf_counter()
    results = checks.run_all()
    seconds = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.ok for r in results) and worst <= 1e-4 and seconds < 60
    verdict(capfd, "A1", ok,
            f"{len(results)} finite-difference checks (every op + combined "
            f"loss on a 2-sample batch), worst rel err {worst:.2e} "
            f"(tol 1e-4), {seconds:.1f}s (budget 60s)")


# -- A2 ------------------------------------------------------------------------

def test_a02_entropy_properties(capfd):
    rng = np.random.default_rng(20)
    sizes = (5, 15, 30)
    bounds_ok = True
    for i in range(10 ** 4):
        k = sizes[i % 3]
        row = rng.random(k) + 1e-9
        row /= row.sum()
        h = row_entropy(T.constant(row[None])).item()
        if not (0.0 <= h <= math.log(k)):
            bounds_ok = False
            break

    extremes_ok = True
    for k in sizes:
        uniform = np.full(k, 1.0 / k)
        h_u = row_entropy(T.constant(uniform[None])).item()
        one_hot = np.zeros(k)
        one_hot[k // 2] = 1.0
        h_o = row_entropy(T.constant(one_hot[None])).item()
        if abs(h_u - math.log(k)) > 1e-9 or abs(h_o) > 1e-9:
            extremes_ok = False

    decreased = 0
    for i in range(100):
        k = sizes[i % 3]
        logits = T.parameter(rng.normal(size=(1, k)))
        with Tape() as tape:
            h = row_entropy(T.softmax(logits))
            tape.backward(h)
        before = h.item()
        logits.data -= 1e-2 * logits.grad
        after = row_entropy(T.softmax(logits)).item()
        decreased += after < before

    ok = bounds_ok and extremes_ok and decreased == 100
    verdict(capfd, "A2", ok,
            f"10^4 rows within [0, ln K] exactly: {bounds_ok}; uniform/"
            f"one-hot extremes within 1e-9: {extremes_ok}; descent step "
            f"lowered H on {decreased}/100 rows")


# -- A3 ------------------------------------------------------------------------

def brute_force_select(pool, p_t):
    """Pool rows, by a pure-Python sort per class and ceiling prefix."""
    rows = [(float(pool.entropy[i]), int(pool.sample[i]),
             int(pool.timestep[i]), int(pool.pseudo_class[i]), i)
            for i in range(len(pool))]
    chosen = []
    for cls in sorted({row[3] for row in rows}):
        group = sorted((row for row in rows if row[3] == cls),
                       key=lambda row: (row[0], row[1], row[2]))
        chosen.extend(row[4] for row in group[:math.ceil(len(group) * p_t)])
    return chosen


def random_pool(rng):
    n = int(rng.integers(1, 41))
    n_classes = int(rng.integers(1, 7))
    values = rng.random(n)
    if rng.random() < 0.4:
        values = np.round(values, 1)  # force plenty of entropy ties
    sample, pseudo_class = [], []
    for _ in range(n):   # per-row draw order: sample, then class
        sample.append(int(rng.integers(0, 8)))
        pseudo_class.append(int(rng.integers(0, n_classes)))
    return PredictionPool(np.array(sample), np.arange(n) % 5,
                          np.array(pseudo_class), values)


def test_a03_selection_oracle(capfd):
    rng = np.random.default_rng(21)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        pool = random_pool(rng)
        p_t = float(rng.choice([0.0, 0.17, 1.0 / 3.0, 0.5, 0.75, 1.0]))
        sel = select(pool, p_t)
        again = select(pool, p_t)
        classes = pool.pseudo_class.tolist()
        quotas_ok = all(s.quota == math.ceil(s.pool_size * p_t)
                        and s.pool_size == classes.count(s.pseudo_class)
                        for s in sel.stats)
        if (sel.chosen.tolist() != brute_force_select(pool, p_t)
                or sel.chosen.tolist() != again.chosen.tolist()
                or not quotas_ok):
            mismatches += 1
    seconds = time.perf_counter() - t0
    ok = mismatches == 0 and seconds < 10
    verdict(capfd, "A3", ok,
            f"1000 random pools vs brute-force sort + ceiling prefix, "
            f"{mismatches} mismatches (quota and tie-break exact), "
            f"{seconds:.1f}s (budget 10s)")


# -- A4 ------------------------------------------------------------------------

def test_a04_pacing_schedule(capfd):
    probes = (0, 1, 10 ** 3, 2 * 10 ** 4, 10 ** 6)
    exact = all(portion_at(**cell, t=t)
                == min(cell["p_init"] + cell["p_add"] * t, 1.0)
                for cell in SWEEP_GRID for t in probes)

    rng = np.random.default_rng(22)
    full_ok = True
    for t in (0, 1, 777, 10 ** 6):
        pool = random_pool(rng)
        sel = select(pool, portion_at(1.0, 0.0, t))
        if sorted(sel.chosen.tolist()) != list(range(len(pool))):
            full_ok = False
    ok = exact and full_ok
    verdict(capfd, "A4", ok,
            f"portion exact at 5 probe steps x {len(SWEEP_GRID)} cells: "
            f"{exact}; cell (1.0, 0.0) selects every pool entry at every "
            f"step: {full_ok}")


# -- A5 ------------------------------------------------------------------------

@pytest.mark.slow
def test_a05_source_training(capfd, glyph12, base_runs):
    result = evaluate(base_runs["ck3000"].restore(), glyph12["source_val"])
    ok = result.word_acc >= 0.99 and base_runs["seconds"] < 600
    verdict(capfd, "A5", ok,
            f"base mode, 3000 steps (batch 32, adam 1e-3): source val word "
            f"accuracy {result.word_acc:.3f} (need >= 0.99) in "
            f"{base_runs['seconds']:.0f}s (budget 600s)")


# -- A6 ------------------------------------------------------------------------

@pytest.mark.slow
def test_a06_adaptation_gain(capfd, smile_runs, uda_evals):
    base = uda_evals["baseline"].word_acc
    accs = {seed: r.word_acc for seed, r in uda_evals["adapted"].items()}
    med = statistics.median(accs.values())
    slowest = max(seconds for _, seconds in smile_runs.values())
    ok = (med >= base + 0.02 and min(accs.values()) >= base - 0.005
          and slowest < 900)
    per_seed = ", ".join(f"seed {s}: {a:.3f}" for s, a in sorted(accs.items()))
    verdict(capfd, "A6", ok,
            f"target-test word accuracy baseline {base:.3f} -> median "
            f"{med:.3f} over 3 seeds ({per_seed}); need median >= "
            f"{base + 0.02:.3f} and min >= {base - 0.005:.3f}; slowest run "
            f"{slowest:.0f}s (budget 900s/seed)")


# -- A7 ------------------------------------------------------------------------

@pytest.mark.slow
def test_a07_sharpening(capfd, uda_evals):
    base_ent = uda_evals["baseline"].mean_entropy
    ents = {seed: r.mean_entropy for seed, r in uda_evals["adapted"].items()}
    drops = {seed: 1.0 - e / base_ent for seed, e in ents.items()}
    ok = all(d >= 0.30 for d in drops.values())
    per_seed = ", ".join(f"seed {s}: {ents[s]:.3f} (-{drops[s]:.0%})"
                         for s in sorted(ents))
    verdict(capfd, "A7", ok,
            f"mean per-step entropy on target test {base_ent:.3f} -> "
            f"{per_seed}; need >= 30% drop on each seed")


# -- A8 ------------------------------------------------------------------------

@pytest.mark.slow
def test_a08_selection_ablation(capfd, glyph12, base_runs, workers):
    # Both cells share the 500-step source checkpoint, the seed, and every
    # other knob; only (p_init, p_add) differs.  From this half-converged
    # start, unselective entropy minimization locks in early mistakes while
    # the paced run lets source training mature first.  Each cell is its
    # own one-cell sweep, so the two can train side by side.
    cfg = TrainConfig(seed=2, **SMILE_RECIPE)
    cells = [{"p_init": 0.0, "p_add": 5e-5}, {"p_init": 1.0, "p_add": 0.0}]
    rows = [row for rows in run_all(workers, sweep, [
        ([cell], cfg, glyph12["source_train"], glyph12["target_train"],
         glyph12["target_test"], base_runs["ck500"]) for cell in cells])
        for row in rows]
    paced = rows[0][1].word_acc
    full = rows[1][1].word_acc
    ok = paced >= full
    verdict(capfd, "A8", ok,
            f"equal seed and steps from a shared 500-step start: paced cell "
            f"(0.0, 5e-5) word accuracy {paced:.3f} vs full-pool cell "
            f"(1.0, 0.0) {full:.3f}; need paced >= full-pool")


# -- A9 ------------------------------------------------------------------------

def test_a09_reproducibility(capfd, tmp_path, small_source, small_target,
                             small_test):
    base_cfg = TrainConfig(mode="base", steps=30, batch_source=16, seed=6,
                           eval_every=30)
    base, _ = train_with_corpora(base_cfg, source=small_source)
    cfg = TrainConfig(mode="smile", steps=50, batch_source=8, batch_target=8,
                      p_init=0.3, seed=7, eval_every=25)

    outputs = []
    for name in ("first", "second"):
        ck, log = train_with_corpora(cfg, source=small_source,
                                     target=small_target, test=small_test,
                                     start=base)
        path = tmp_path / f"{name}.smck"
        save_checkpoint(ck, str(path))
        outputs.append((path.read_bytes(), log.eval_csv(),
                        log.selection_csv()))
    identical = outputs[0] == outputs[1]

    half_cfg = replace(cfg, steps=25)
    half, _ = train_with_corpora(half_cfg, source=small_source,
                                 target=small_target, start=base)
    resumed, _ = train_with_corpora(cfg, source=small_source,
                                    target=small_target, test=small_test,
                                    start=half, resume=True)
    resumed_path = tmp_path / "resumed.smck"
    save_checkpoint(resumed, str(resumed_path))
    resume_matches = resumed_path.read_bytes() == outputs[0][0]

    ok = identical and resume_matches
    verdict(capfd, "A9", ok,
            f"two identical 50-step runs byte-identical (checkpoint + both "
            f"CSVs): {identical}; resume at 25 equals uninterrupted 50: "
            f"{resume_matches}")


# -- A10 -----------------------------------------------------------------------

def test_a10_format_round_trips(capfd, tmp_path, small_source):
    c1, c2 = tmp_path / "c1.smcp", tmp_path / "c2.smcp"
    save_corpus(small_source, str(c1))
    save_corpus(load_corpus(str(c1)), str(c2))
    corpus_rt = c1.read_bytes() == c2.read_bytes()

    rec = Recognizer.fresh(VocabSpec("ABCD"), 3, seed=2)
    k1, k2 = tmp_path / "k1.smck", tmp_path / "k2.smck"
    save_checkpoint(snapshot(rec, None, 0, 0), str(k1))
    save_checkpoint(load_checkpoint(str(k1)), str(k2))
    ck_rt = k1.read_bytes() == k2.read_bytes()

    errors = []
    for src, loader in ((c1, load_corpus), (k1, load_checkpoint)):
        raw = src.read_bytes()
        bad = tmp_path / ("bad" + src.suffix)
        bad.write_bytes(b"WXYZ" + raw[4:])
        errors.append(_raises(lambda: loader(str(bad)), "bad magic"))
        cut = tmp_path / ("cut" + src.suffix)
        cut.write_bytes(raw[:-9])
        errors.append(_raises(lambda: loader(str(cut)), "truncated"))
    ok = corpus_rt and ck_rt and all(errors)
    verdict(capfd, "A10", ok,
            f"corpus save-load-save byte-identical: {corpus_rt}; checkpoint: "
            f"{ck_rt}; corrupted magic and truncation raise the named "
            f"format errors in both formats: {all(errors)}")
