"""Gate A1's harness: the finite-difference passes score an op case in
numpy with the bits of the taped weighted sum, so check_ops returns exactly
what a harness that builds the taped loss in every pass returns; the units
shared with a forked worker return the serial results, and no worker
outlives a call."""

import multiprocessing
import os
import time

import numpy as np
import pytest

import smile.tensor as T
from smile import checks, parallel
from smile.errors import ContractError, DimensionError, WorkerLost
from smile.tensor import Tape

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not hasattr(os, "sched_getaffinity"), reason="the runner forks only "
    "where fork and an affinity set exist")


@pytest.mark.parametrize("seed", [3, 11])
def test_numpy_score_equals_the_taped_weighted_sum(seed):
    rng = np.random.default_rng(seed)
    scored = 0
    for name, forward, weight, leaves, *_ in checks._op_cases(rng):
        if weight is None:
            continue
        leaf = next(iter(leaves.values()))
        flat = leaf.data.reshape(-1)
        flat[int(rng.integers(flat.size))] += checks.FD_STEP
        with Tape():
            taped = checks._weighted_sum(forward(), weight).item()
        assert checks._score(forward(), weight) == taped, name
        scored += 1
    assert scored == 24   # every case but reduce_sum_all and reduce_mean_all


def reference_grad_check(make_loss, leaves, coords_per_leaf=None, rng=None):
    # one coordinate at a time, each pass reading .item() of the whole loss
    # Tensor, mul and reduce_sum included, and errors folded in Python
    for leaf in leaves.values():
        leaf.zero_grad()
    with Tape() as tape:
        tape.backward(make_loss())
    analytic = {n: t.grad.copy() for n, t in leaves.items()}
    worst = 0.0
    for name, leaf in leaves.items():
        flat = leaf.data.reshape(-1)
        n = flat.size
        k = n if coords_per_leaf is None else min(coords_per_leaf[name], n)
        coords = sorted(rng.choice(n, k, replace=False)) if k < n else range(n)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + checks.FD_STEP
            f_plus = make_loss().item()
            flat[c] = orig - checks.FD_STEP
            f_minus = make_loss().item()
            flat[c] = orig
            num = (f_plus - f_minus) / (2.0 * checks.FD_STEP)
            ana = analytic[name].reshape(-1)[c]
            worst = max(worst, abs(num - ana) / max(1.0, abs(num), abs(ana)))
    return worst


def reference_check_ops(seed):
    worst = {}
    for i in range(checks.INSTANCES):
        rng = np.random.default_rng([seed, i])
        for name, forward, weight, leaves, *coords in checks._op_cases(rng):
            def make_loss(forward=forward, weight=weight):
                out = forward()
                return out if weight is None else \
                    checks._weighted_sum(out, weight)
            err = reference_grad_check(make_loss, leaves, *coords, rng=rng)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


@pytest.mark.parametrize("seed", [0, 11])
def test_check_ops_equals_the_taped_reference_bitwise(monkeypatch, seed):
    monkeypatch.setattr(checks, "INSTANCES", 4)
    results = checks.check_ops(seed)
    want = reference_check_ops(seed)
    assert [r.name for r in results] == [f"op/{n}" for n in want]
    assert len(results) == 26
    for r in results:
        assert type(r.max_rel_err) is float
        assert r.max_rel_err == want[r.name[3:]], r.name
        assert r.ok


def test_a_nan_in_the_comparison_fails_the_check():
    # max() over Python floats drops a NaN that comes second; the check
    # must not read a NaN gradient as zero error
    x = T.parameter(np.array([[1.0, 2.0]]))
    err = checks.grad_check(lambda: x, {"x": x}, weight=np.array([1.0, np.nan]))
    assert np.isnan(err)
    assert not checks.CheckResult("nan", err, checks.TOLERANCE).ok


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@needs_fork
@pytest.mark.parametrize("seed", [0, 11])
def test_forked_run_equals_the_one_cpu_run_bitwise(monkeypatch, seed):
    monkeypatch.setattr(checks, "INSTANCES", 6)
    cpus(monkeypatch, 1)
    assert parallel._worker_count(1 + checks.INSTANCES) == 0
    serial = checks.run_all(seed)
    cpus(monkeypatch, 2)
    assert parallel._worker_count(1 + checks.INSTANCES) == 1
    forked = checks.run_all(seed)
    assert multiprocessing.active_children() == []
    assert [r.name for r in forked] == [r.name for r in serial]
    assert len(forked) == 27 and forked[-1].name == "model/combined_loss"
    for f, s in zip(forked, serial):
        assert type(f.max_rel_err) is float
        assert f.max_rel_err == s.max_rel_err, f.name


@needs_fork
def test_a_failed_fork_leaves_the_units_to_the_parent(monkeypatch):
    def no_process(*args):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(checks, "INSTANCES", 3)
    want = checks.check_ops(5)
    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_process)
    assert checks.check_ops(5) == want
    assert multiprocessing.active_children() == []


def hold_parent_until_a_worker_runs(monkeypatch, tmp_path, in_worker):
    """Run check_ops on two CPUs and three instances, with _op_cases
    replaced: in a worker it marks a file and calls in_worker(); the
    parent's first unit waits for the mark, so a worker always runs one."""
    parent, mark, real = os.getpid(), tmp_path / "worker-ran", checks._op_cases

    def cases(rng):
        if os.getpid() != parent:
            mark.touch()
            in_worker()
        deadline = time.monotonic() + 30
        while not mark.exists():
            assert time.monotonic() < deadline, "no worker took a unit"
            time.sleep(0.005)
        return real(rng)

    cpus(monkeypatch, 2)
    monkeypatch.setattr(checks, "INSTANCES", 3)
    monkeypatch.setattr(checks, "_op_cases", cases)


@needs_fork
def test_a_units_error_in_a_worker_is_raised_by_the_parent(monkeypatch,
                                                           tmp_path):
    def fail():
        raise DimensionError("op case failed in a worker")

    hold_parent_until_a_worker_runs(monkeypatch, tmp_path, fail)
    with pytest.raises(DimensionError,
                       match="^op case failed in a worker$"):
        checks.check_ops(5)
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_worker_that_dies_is_a_worker_lost_with_its_exit_code(monkeypatch,
                                                                tmp_path):
    hold_parent_until_a_worker_runs(monkeypatch, tmp_path,
                                    lambda: os._exit(3))
    with pytest.raises(WorkerLost, match=r"exited with code 3 before "
                                         r"sending its results$"):
        checks.check_ops(5)
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_failing_parent_terminates_its_workers(monkeypatch, tmp_path):
    # the worker would sleep a minute; the parent's error ends it at once
    parent = os.getpid()
    hold_parent_until_a_worker_runs(monkeypatch, tmp_path,
                                    lambda: time.sleep(60))
    real_unit = checks._op_unit

    def unit(seed, i):
        errors = real_unit(seed, i)
        if os.getpid() == parent:
            raise ContractError("op case failed in the parent")
        return errors

    monkeypatch.setattr(checks, "_op_unit", unit)
    t0 = time.monotonic()
    with pytest.raises(ContractError, match="^op case failed in the parent$"):
        checks.check_ops(5)
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []
