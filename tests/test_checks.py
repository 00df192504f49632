"""Gate A1's harness: the finite-difference passes score an op case in
numpy with the bits of the taped weighted sum, so check_ops returns exactly
what a harness that builds the taped loss in every pass returns."""

import numpy as np
import pytest

import smile.tensor as T
from smile import checks
from smile.tensor import Tape


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
