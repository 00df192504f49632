"""Finite-difference verification of the differentiation engine.

Every operation is checked on batches of random instances, and the full
combined training loss is checked end to end through encoder, attention,
decoder, pooling, and selection.  Central differences with step FD_STEP
compare against the taped gradients under a relative error with absolute
floor 1: |num - ana| / max(1, |num|, |ana|).

An op case scores its output as sum(weight * output).  Only the one taped
pass per case builds that loss from mul and reduce_sum Tensors; the
finite-difference passes run the op untaped and score its output in numpy
with the same two array operations, so every error keeps its bits while the
passes skip three Tensors each.

The checks split into independent units: the model check, which builds its
own model, and the INSTANCES op instances, where instance i draws only from
default_rng([seed, i]) and builds its own leaves.  They run through
smile.parallel's runner, on every CPU the process may use, the model check,
the longest unit, first; the caller folds the op errors in instance order
and appends the model result last, so the results are the serial ones bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .data import VocabSpec, check_seed, make_templates, render_string
from .losses import smile_loss
from .parallel import _run_units
from .recognizer import Recognizer, split_gates
from .tensor import Tape, Tensor
from .trainer import TrainConfig, step_losses

TOLERANCE = 1e-4
FD_STEP = 1e-5
INSTANCES = 100         # random instances per op
MODEL_SEED = 3          # the model check's vocab templates, weights and batch
COORDS_PER_TENSOR = 8   # coordinates the model check samples per stored tensor


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _weighted_sum(out: Tensor, weight: np.ndarray) -> Tensor:
    # nonuniform weights so every output coordinate matters independently
    return T.reduce_sum(T.mul(out, T.constant(weight)))


def _score(out: Tensor, weight: np.ndarray | None) -> float:
    # _weighted_sum(out, weight).item() without building Tensors: mul's
    # product of two contiguous arrays, then reduce_sum's full .sum()
    return out.item() if weight is None else float((out.data * weight).sum())


def grad_check(forward, leaves: dict[str, Tensor],
               coords_per_leaf: dict[str, int] | None = None,
               rng: np.random.Generator | None = None,
               weight: np.ndarray | None = None) -> float:
    """Max relative error between taped and central-difference gradients.

    forward rebuilds the pass from the leaves' current data, so
    perturb-and-reevaluate sees the change; with coords_per_leaf set, each
    leaf gets that many sampled coordinates (by name) instead of a sweep.
    Without weight, forward returns the scalar loss.  With weight, it
    returns the op's output and the loss is sum(weight * output): the taped
    pass records it as mul and reduce_sum, and each finite-difference pass
    scores the output in numpy with the same IEEE operations in the same
    order, so both read the same bits.  A leaf's errors are one numpy
    expression; a NaN anywhere makes the result NaN, which fails.
    """
    for leaf in leaves.values():
        leaf.zero_grad()  # leaf grads accumulate across backward calls
    with Tape() as tape:
        out = forward()
        tape.backward(out if weight is None else _weighted_sum(out, weight))
    worst = 0.0
    for name, leaf in leaves.items():
        flat = leaf.data.reshape(-1)
        n = flat.size
        k = n if coords_per_leaf is None else min(coords_per_leaf[name], n)
        coords = np.sort(rng.choice(n, k, replace=False)) if k < n \
            else np.arange(n)
        ana = leaf.grad.reshape(-1)[coords]
        f = np.empty((2, k))
        for i, c in enumerate(coords):
            orig = flat[c]
            flat[c] = orig + FD_STEP
            f[0, i] = _score(forward(), weight)
            flat[c] = orig - FD_STEP
            f[1, i] = _score(forward(), weight)
            flat[c] = orig
        num = (f[0] - f[1]) / (2.0 * FD_STEP)
        rel = np.abs(num - ana) / np.maximum(
            np.maximum(1.0, np.abs(num)), np.abs(ana))
        worst = np.maximum(worst, rel.max(initial=0.0))
    return float(worst)


def _leaf(rng, *shape, lo=-1.5, hi=1.5) -> Tensor:
    return T.parameter(rng.uniform(lo, hi, shape))


def _op_cases(rng: np.random.Generator):
    """Yield (name, forward, weight, leaves[, coordinates to sample per
    leaf]) round-robin across all ops, as grad_check takes them."""
    w34 = rng.standard_normal((3, 4))

    a, b = _leaf(rng, 2, 2, 3), _leaf(rng, 3, 2)   # a rank-3 left operand
    w = rng.standard_normal((2, 2, 2))
    yield "matmul", (lambda: T.matmul(a, b)), w, {"a": a, "b": b}

    for name, op in (("add", T.add), ("sub", T.sub), ("mul", T.mul)):
        x, y = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
        yield name, (lambda op=op, x=x, y=y: op(x, y)), w34, {"x": x, "y": y}
        s = T.parameter(rng.uniform(0.5, 1.5))
        z = _leaf(rng, 3, 4)
        yield f"{name}_scalar", (lambda op=op, s=s, z=z: op(s, z)), w34, \
            {"s": s, "z": z}

    # a [1,d] row, an [n,1] column and a rank-3 [b,1,d] operand, each
    # stretched by add, sub or mul
    row, col, cube = _leaf(rng, 1, 4), _leaf(rng, 3, 1), _leaf(rng, 2, 1, 4)
    w234 = rng.standard_normal((2, 3, 4))
    yield "broadcast", (lambda row=row, col=col, cube=cube:
                        T.mul(T.sub(T.add(row, col), cube), col)), w234, \
        {"row": row, "col": col, "cube": cube}

    x = _leaf(rng, 3, 4)
    yield "neg", (lambda x=x: T.neg(x)), w34, {"x": x}

    for name, op, lo, hi in (("tanh", T.tanh, -2.0, 2.0),
                             ("sigmoid", T.sigmoid, -3.0, 3.0),
                             ("exp", T.exp, -2.0, 1.5),
                             ("log", T.log, 0.1, 3.0)):
        x = _leaf(rng, 3, 4, lo=lo, hi=hi)
        yield name, (lambda op=op, x=x: op(x)), w34, {"x": x}

    # keep relu inputs off the kink so central differences are valid
    raw = rng.uniform(0.1, 1.5, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    x = T.parameter(raw)
    yield "relu", (lambda x=x: T.relu(x)), w34, {"x": x}

    x = _leaf(rng, 4, 5, lo=-2.0, hi=2.0)
    w45 = rng.standard_normal((4, 5))
    yield "softmax", (lambda x=x: T.softmax(x)), w45, {"x": x}

    x = _leaf(rng, 3, 4)
    yield "reduce_sum_all", (lambda x=x: T.reduce_sum(x)), None, {"x": x}
    w14 = rng.standard_normal((1, 4))
    yield "reduce_sum_axis0", (lambda x=x: T.reduce_sum(x, axis=0)), w14, \
        {"x": x}
    w31 = rng.standard_normal((3, 1))
    yield "reduce_mean_axis1", (lambda x=x: T.reduce_mean(x, axis=1)), w31, \
        {"x": x}
    yield "reduce_mean_all", (lambda x=x: T.reduce_mean(x)), None, {"x": x}

    table = _leaf(rng, 6, 3)
    idx = [int(i) for i in rng.integers(0, 6, 5)]
    idx[1] = idx[0]  # force a duplicate so scatter accumulation is exercised
    w53 = rng.standard_normal((5, 3))
    yield "gather_rows", (lambda table=table, idx=idx:
                          T.gather_rows(table, idx)), w53, {"table": table}

    p1, p2 = _leaf(rng, 2, 3), _leaf(rng, 4, 3)
    w63 = rng.standard_normal((6, 3))
    yield "concat_axis0", (lambda p1=p1, p2=p2: T.concat([p1, p2], axis=0)), \
        w63, {"p1": p1, "p2": p2}
    q1, q2 = _leaf(rng, 3, 2), _leaf(rng, 3, 4)
    w36 = rng.standard_normal((3, 6))
    yield "concat_axis1", (lambda q1=q1, q2=q2: T.concat([q1, q2], axis=1)), \
        w36, {"q1": q1, "q2": q2}

    x = _leaf(rng, 3, 4)
    w26 = rng.standard_normal((2, 6))
    yield "reshape", (lambda x=x: T.reshape(x, (2, 6))), w26, {"x": x}

    # B=1, T=2, H=2: every gate block, both recurrent products and the
    # gradient carried between steps are reached
    xw, u = _leaf(rng, 1, 2, 6), _leaf(rng, 2, 6)
    w122 = w14.reshape(1, 2, 2)
    yield "gru_cell", (lambda xw=xw, u=u: T.gru_cell(xw, u)), w122, \
        {"xw": xw, "U": u}

    # B=2, T=2 steps over S=2 positions, a=f=H=2, K=3 tokens of width 1,
    # one fed twice; about half the instances leave h untracked, as the
    # decoder's zero start state is.  A leaf samples 2 coordinates if it
    # has more than 8, else 1: over INSTANCES = 100 every coordinate is
    # reached w.p. > 0.999 (the largest miss bound is W's 18 * (8/9)^100)
    ids = rng.integers(0, 3, (2, 2))
    ids[1, 1] = ids[0, 0]
    args = [_leaf(rng, *s) for s in ((2, 2, 2), (2, 2, 2), (3, 1), (2, 2),
                                     (2, 2), (2, 1), (3, 6), (1, 6), (2, 6))]
    leaves = dict(zip(("keys", "feats", "E", "h", "W_q", "v", "W", "b", "U"),
                      args))
    lengths, rows = (2, 2), [0, 1, 2, 3]
    if rng.integers(2):
        args[3] = T.constant(leaves.pop("h").data)
        # sample 0 stops after one step, a reorder: rows (0, 0), (1, 0), (1, 1)
        lengths, rows = (1, 2), [0, 2, 3]
    w, fed = rng.standard_normal((4, 2))[rows], ids.reshape(-1)[rows]
    yield "attn_gru", (lambda args=args, fed=fed, lengths=lengths:
                       T.attn_gru(*args[:3], fed, *args[3:], lengths)), w, \
        leaves, {n: 1 + (t.data.size > 8) for n, t in leaves.items()}

    # a deep chain so composition of backward rules is covered
    u, v = _leaf(rng, 3, 3), _leaf(rng, 3, 3)
    w33 = rng.standard_normal((3, 3))
    yield "chain", (lambda u=u, v=v:
                    T.log(T.softmax(T.tanh(T.matmul(u, v))))), w33, \
        {"u": u, "v": v}


def _op_unit(seed: int, i: int) -> list[tuple[str, float]]:
    """Op instance i: (op name, max rel err) for each of its cases."""
    rng = np.random.default_rng([seed, i])
    return [(name, grad_check(forward, leaves, *coords, rng=rng,
                              weight=weight))
            for name, forward, weight, leaves, *coords in _op_cases(rng)]


def check_ops(seed: int = 0) -> list[CheckResult]:
    """Sweep every op with INSTANCES random cases; one result per op."""
    return _checks(seed, model=False)


def check_model() -> CheckResult:
    """End-to-end check of the combined loss on a 2-sample batch.

    The losses come from trainer.step_losses with a full-portion selection,
    so the gradient flows through the forward-only greedy decode's replay, the
    pool and the chosen rows exactly as in adaptation training.
    """
    vocab = VocabSpec("ABCDE")
    l_max = 2
    templates = make_templates(vocab, MODEL_SEED)
    rng = np.random.default_rng([MODEL_SEED, 1])
    src_px = np.stack([
        render_string((0,), vocab, templates, l_max),
        render_string((1, 2), vocab, templates, l_max),
    ])
    src_labels = [(0,), (1, 2)]
    tgt_px = np.clip(np.stack([
        render_string((3,), vocab, templates, l_max),
        render_string((4, 0), vocab, templates, l_max),
    ]) * 0.8 + rng.uniform(0.0, 0.15, (2, 8, 16)), 0.0, 1.0)
    rec = Recognizer.fresh(vocab, l_max, MODEL_SEED)
    cfg = TrainConfig(mode="smile", lam=1.0, p_init=1.0, p_add=0.0)

    def make_loss():
        l_dec, l_ent, _, _ = step_losses(rec, cfg, 0, src_px, src_labels,
                                         tgt_px)
        return smile_loss(l_dec, l_ent, cfg.lam)

    # a fused GRU tensor gets its three stored per-gate tensors' share
    coords = {n: COORDS_PER_TENSOR * len(split_gates({n: p.data}))
              for n, p in rec.params.items()}
    err = grad_check(make_loss, rec.params, coords,
                     np.random.default_rng([MODEL_SEED, 2]))
    return CheckResult("model/combined_loss", err, TOLERANCE)


def run_all(seed: int = 0) -> list[CheckResult]:
    """check_ops(seed) followed by check_model(), from one pool of units."""
    return _checks(seed, model=True)


def _checks(seed: int, model: bool) -> list[CheckResult]:
    check_seed(seed, "gradcheck: seed")   # before any worker is forked
    first = [check_model] if model else []   # the longest unit
    done = _run_units(first + [partial(_op_unit, seed, i)
                               for i in range(INSTANCES)], "gradcheck")
    worst: dict[str, float] = {}
    for errors in done[len(first):]:
        for name, err in errors:
            worst[name] = float(np.maximum(worst.get(name, 0.0), err))
    return [CheckResult(f"op/{n}", e, TOLERANCE) for n, e in worst.items()] \
        + done[:len(first)]

