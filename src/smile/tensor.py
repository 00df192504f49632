"""Dense float64 tensors with a dynamic reverse-mode differentiation tape.

Every operation runs eagerly on numpy arrays and, when a Tape is active on
the current thread, records a backward rule onto it (untaped() suspends it
for a block).  The tape is rebuilt on every forward pass; one tape and its
tensors belong to a single thread.  add, sub and mul broadcast as numpy
does, at any rank; their backward rules sum the gradient over every
stretched axis; matmul takes a [B, n] or [B, T, n] left operand, and
gather_rows picks rows or entries of a rank-2 table.  gru_cell and attn_gru
are fused recurrent primitives with analytic backward rules, sharing one
GRU step: gru_cell runs a GRU over a whole [B, T, 3H] sequence, first to
last, and attn_gru runs T attention-fed decoder steps from token ids (with
lengths, each sample only for its own steps), each as one node whose
backward is BPTT, in place of the 12-20 elementary nodes a step takes.  A
run keeps its steps in time-major [T, B, .] buffers, so backward computes
the factors that do not depend on the incoming gradient once per run and
sums the weight gradients after its step loop.
"""

from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError, IndexRangeError

LOG_FLOOR = 1e-12   # log(x) evaluates log(max(x, LOG_FLOOR))
EXP_CEIL = 700.0    # exp(x) evaluates exp(min(x, EXP_CEIL)), just under overflow

_state = threading.local()


def _active_tape():
    return getattr(_state, "tape", None)


class Tensor:
    """A contiguous row-major float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item: tensor of shape {self.shape} is not scalar")
        return self.data.item()

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of one forward pass, walked once in reverse by backward().

    Use as a context manager; ops record onto the innermost active tape of
    the current thread.  With no tape active, ops run forward-only.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Tape":
        self._prev = _active_tape()
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = self._prev
        return False

    def record(self, out: Tensor, backward_fn):
        self._nodes.append((out, backward_fn))

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every tracked leaf's .grad.

        Interior gradients are reset at the start of each pass, so leaf
        gradients accumulate across repeated calls and a pass is bitwise
        reproducible after a reset.
        """
        if loss.data.size != 1:
            raise ContractError(
                f"backward: loss must be scalar, got shape {loss.shape}")
        for out, _ in self._nodes:
            out.grad[...] = 0.0
        if loss.grad is None:
            # loss built outside this tape and untracked: nothing to do
            raise ContractError("backward: loss does not require gradients")
        loss.grad[...] = 1.0
        for _, fn in reversed(self._nodes):
            fn()


@contextmanager
def untaped():
    """Run the enclosed ops forward-only, even inside an active tape."""
    prev = _active_tape()
    _state.tape = None
    try:
        yield
    finally:
        _state.tape = prev


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _track(out: Tensor, inputs: tuple[Tensor, ...], backward_fn):
    """Record the rule if a tape is active and any input is tracked.

    With no active tape the op is forward-only and the output is a plain
    constant, so evaluation passes carry no gradient bookkeeping.
    """
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.grad = np.zeros_like(out.data)
        tape.record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# binary elementwise ops: numpy broadcasting

def _binary_shapes(a: Tensor, b: Tensor, op: str):
    # trailing dims must agree or be 1; cheaper than np.broadcast_shapes
    if a.data.shape == b.data.shape:
        return
    for m, n in zip(reversed(a.data.shape), reversed(b.data.shape)):
        if m != n and m != 1 and n != 1:
            raise DimensionError(
                f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # sum a broadcast gradient over the axes its operand was stretched on
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape)
                                      if n == 1)
    return grad.sum(axis=axes, keepdims=True).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "add")
    out = Tensor(a.data + b.data)

    def back():
        g = out.grad
        if a.requires_grad:
            a.grad += _reduce_to(g, a.shape)
        if b.requires_grad:
            b.grad += _reduce_to(g, b.shape)

    return _track(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "sub")
    out = Tensor(a.data - b.data)

    def back():
        g = out.grad
        if a.requires_grad:
            a.grad += _reduce_to(g, a.shape)
        if b.requires_grad:
            b.grad -= _reduce_to(g, b.shape)

    return _track(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "mul")
    out = Tensor(a.data * b.data)

    def back():
        g = out.grad
        if a.requires_grad:
            a.grad += _reduce_to(g * b.data, a.shape)
        if b.requires_grad:
            b.grad += _reduce_to(g * a.data, b.shape)

    return _track(out, (a, b), back)


def neg(a) -> Tensor:
    a = _lift(a)
    out = Tensor(-a.data)

    def back():
        if a.requires_grad:
            a.grad -= out.grad

    return _track(out, (a,), back)


# ---------------------------------------------------------------------------
# unary elementwise ops

def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def back():
        if a.requires_grad:
            a.grad += out.grad * (1.0 - y * y)

    return _track(out, (a,), back)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1 / (1 + exp(-x)) in one buffer (out, if given); capping -x at
    # EXP_CEIL keeps exp finite
    y = np.maximum(x, -EXP_CEIL, out=out)
    np.negative(y, out=y)
    np.exp(y, out=y)
    y += 1.0
    return np.reciprocal(y, out=y)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y)

    def back():
        if a.requires_grad:
            a.grad += out.grad * y * (1.0 - y)

    return _track(out, (a,), back)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0))

    def back():
        if a.requires_grad:
            a.grad += out.grad * mask

    return _track(out, (a,), back)


def exp(a: Tensor) -> Tensor:
    y = np.exp(np.minimum(a.data, EXP_CEIL))
    mask = a.data <= EXP_CEIL
    out = Tensor(y)

    def back():
        if a.requires_grad:
            a.grad += out.grad * y * mask

    return _track(out, (a,), back)


def log(a: Tensor) -> Tensor:
    clamped = np.maximum(a.data, LOG_FLOOR)
    mask = a.data >= LOG_FLOOR
    out = Tensor(np.log(clamped))

    def back():
        if a.requires_grad:
            a.grad += out.grad / clamped * mask

    return _track(out, (a,), back)


# ---------------------------------------------------------------------------
# structural ops

def matmul(a, b) -> Tensor:
    """[.., n] @ [n, m] as one GEMM over the left operand's [-1, n] rows."""
    a, b = _lift(a), _lift(b)
    if a.data.ndim not in (2, 3) or b.data.ndim != 2:
        raise DimensionError(
            f"matmul: need ranks 2 or 3 and 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions disagree for {a.shape} x {b.shape}")
    flat = a.data.reshape(-1, b.shape[0])
    out = Tensor((flat @ b.data).reshape(*a.shape[:-1], b.shape[1]))

    def back():
        g = out.grad.reshape(-1, b.shape[1])
        if a.requires_grad:
            a.grad += (g @ b.data.T).reshape(a.shape)
        if b.requires_grad:
            b.grad += flat.T @ g

    return _track(out, (a, b), back)


def softmax(a: Tensor) -> Tensor:
    """Row softmax over the last axis, stabilized by max subtraction."""
    if a.data.ndim < 1 or a.shape[-1] < 2:
        raise DimensionError(f"softmax: need a last axis of K >= 2, got {a.shape}")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def back():
        if a.requires_grad:
            g = out.grad
            a.grad += y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _track(out, (a,), back)


def _check_axis(a: Tensor, axis: int, op: str):
    if not -a.data.ndim <= axis < a.data.ndim:
        raise DimensionError(f"{op}: axis {axis} invalid for shape {a.shape}")


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over one axis (kept as size 1) or over everything (scalar)."""
    if axis is None:
        out = Tensor(a.data.sum())

        def back():
            if a.requires_grad:
                a.grad += out.grad

    else:
        _check_axis(a, axis, "reduce_sum")
        out = Tensor(a.data.sum(axis=axis, keepdims=True))

        def back():
            if a.requires_grad:
                a.grad += out.grad  # broadcasts along the reduced axis

    return _track(out, (a,), back)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        n = a.data.size
        out = Tensor(a.data.mean())

        def back():
            if a.requires_grad:
                a.grad += out.grad / n

    else:
        _check_axis(a, axis, "reduce_mean")
        n = a.shape[axis]
        out = Tensor(a.data.mean(axis=axis, keepdims=True))

        def back():
            if a.requires_grad:
                a.grad += out.grad / n

    return _track(out, (a,), back)


def gather_rows(table: Tensor, rows, cols=None) -> Tensor:
    """Select rows of a rank-2 table or, with cols, its entries (rows[i],
    cols[i]) as an [N, 1] column.  Duplicates accumulate gradient."""
    if table.data.ndim != 2:
        raise DimensionError(
            f"gather_rows: need a rank-2 table, got {table.shape}")
    idx = tuple(np.asarray(i, dtype=np.intp)
                for i in ((rows,) if cols is None else (rows, cols)))
    for i, size, what in zip(idx, table.shape, ("row", "column")):
        if i.ndim != 1 or len(i) != len(idx[0]):
            raise ContractError("gather_rows: rows and cols must be flat "
                                f"and of one length, got {[j.shape for j in idx]}")
        bad = (i < 0) | (i >= size)
        if bad.any():
            raise IndexRangeError(
                f"gather_rows: {what} {int(i[bad][0])} out of range [0, {size})")
    picked = table.data[idx]
    out = Tensor(picked if cols is None else picked[:, None])

    def back():
        if table.requires_grad:
            np.add.at(table.grad, idx, out.grad.reshape(picked.shape))

    return _track(out, (table,), back)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ContractError("concat: need at least one tensor")
    if axis not in (0, 1):
        raise DimensionError(f"concat: axis must be 0 or 1, got {axis}")
    ranks = {p.data.ndim for p in parts}
    if ranks != {2}:
        raise DimensionError("concat: all parts must be rank 2")
    other = 1 - axis
    widths = {p.shape[other] for p in parts}
    if len(widths) != 1:
        raise DimensionError(
            f"concat: parts disagree on axis {other}: {sorted(widths)}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    offsets = list(itertools.accumulate([p.data.shape[axis] for p in parts],
                                        initial=0))

    def back():
        g = out.grad
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                if axis == 0:
                    p.grad += g[lo:hi, :]
                else:
                    p.grad += g[:, lo:hi]

    return _track(out, tuple(parts), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != a.data.size:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    out = Tensor(a.data.reshape(shape))

    def back():
        if a.requires_grad:
            a.grad += out.grad.reshape(a.shape)

    return _track(out, (a,), back)


# ---------------------------------------------------------------------------
# fused recurrent ops: one tape node for a whole GRU or attention decoder run

def _gru_step_back(g: np.ndarray, f, ut: np.ndarray, d: np.ndarray,
                   carry: bool):
    """Backward of one GRU step from the gradient g [m, H] at its output,
    given that step's rows f of _GruRun.factors and U's transpose ut
    [3H, H], contiguous so each product reads whole rows: writes the
    gradients at its pre-activations into d [m, 3H] and returns, with
    carry, the gradient at the state it read."""
    z, r, dn, dz, dr = f
    hid = g.shape[1]
    two = 2 * hid
    np.multiply(g, dn, out=d[:, two:])
    drh = d[:, two:] @ ut[two:]
    np.multiply(g, dz, out=d[:, :hid])
    np.multiply(drh, dr, out=d[:, hid:two])
    return (g * z + drh * r + d[:, :two] @ ut[:two]) if carry else None


class _GruRun:
    """A GRU run's time-major buffers: step t's gates z | r [T, B, 2H], r * h
    and candidate n [T, B, H], and the states [T + 1, B, H], the initial one
    first, so step t reads states[t] and writes states[t + 1].  A step runs
    the first m samples; the rest of its rows keep what alloc left there."""

    __slots__ = ("zr", "rh", "n", "states")

    def __init__(self, steps: int, h: np.ndarray, alloc):
        batch, hid = h.shape
        self.zr = alloc((steps, batch, 2 * hid))
        self.rh = alloc((steps, batch, hid))
        self.n = alloc((steps, batch, hid))
        self.states = alloc((steps + 1, batch, hid))
        self.states[0] = h

    def step(self, t: int, m: int, xw: np.ndarray, u: np.ndarray):
        """Step t of the first m samples from their input projections xw
        [m, 3H]: z, r = sigmoid(xw_zr + h @ U_zr), n = tanh(xw_n + (r * h)
        @ U_n) and h' = (1 - z) * n + z * h."""
        hid = self.n.shape[2]
        h, zr, rh, n = (self.states[t, :m], self.zr[t, :m], self.rh[t, :m],
                        self.n[t, :m])
        pre = h @ u[:, :2 * hid]
        pre += xw[:, :2 * hid]
        _sigmoid(pre, out=zr)
        np.multiply(zr[:, hid:], h, out=rh)
        pre = rh @ u[:, 2 * hid:]
        pre += xw[:, 2 * hid:]
        np.tanh(pre, out=n)
        out = self.states[t + 1, :m]
        np.subtract(h, n, out=out)
        out *= zr[:, :hid]
        out += n

    def factors(self) -> tuple[np.ndarray, ...]:
        """The backward factors of every step, computed once for the run:
        z, r, (1 - z)(1 - n^2), (h - n) z (1 - z) and h r (1 - r)."""
        hid = self.n.shape[2]
        z, r = self.zr[..., :hid], self.zr[..., hid:]
        h, n = self.states[:-1], self.n
        return (z, r, (1.0 - z) * (1.0 - n * n), (h - n) * (z * (1.0 - z)),
                h * (r * (1.0 - r)))

    def u_grad(self, U: Tensor, d: np.ndarray):
        """Add U's share of the run's pre-activation gradients d [T, B, 3H]."""
        if U.requires_grad:
            hid = self.n.shape[2]
            two = 2 * hid
            U.grad[:, :two] += (self.states[:-1].reshape(-1, hid).T
                                @ d[..., :two].reshape(-1, two))
            U.grad[:, two:] += (self.rh.reshape(-1, hid).T
                                @ d[..., two:].reshape(-1, hid))


def gru_cell(xw: Tensor, h: Tensor, U: Tensor) -> Tensor:
    """A GRU (Cho et al. 2014) over T steps, gates in blocks z | r | n.

    xw [B, T, 3H] holds the steps' input projections x_t @ W + b, h is the
    initial state [B, H] and U the recurrent weights [H, 3H].  A step
    computes z, r = sigmoid(xw_zr + h @ U_zr), n = tanh(xw_n + (r * h) @
    U_n) and h' = (1 - z) * n + z * h.  Steps run first to last; the
    [B, T, H] result holds every step's state, and backward is BPTT in this
    one node.
    """
    if (h.data.ndim != 2 or xw.data.ndim != 3 or 0 in xw.shape
            or xw.shape[0] != h.shape[0] or xw.shape[2] != 3 * h.shape[1]
            or U.shape != (h.shape[1], 3 * h.shape[1])):
        raise DimensionError(
            f"gru_cell: need xw [B, T, 3H] with T >= 1, h [B, H] and "
            f"U [H, 3H]; got {xw.shape}, {h.shape}, {U.shape}")
    batch, steps, three = xw.shape
    run = _GruRun(steps, h.data, np.empty)
    for t in range(steps):
        run.step(t, batch, xw.data[:, t], U.data)
    out = Tensor(run.states[1:].transpose(1, 0, 2))

    def back():
        f, ut = run.factors(), U.data.T.copy()
        d = np.empty((steps, batch, three))  # at the pre-activations
        dh = 0.0  # gradient reaching the state the later step read
        for t in reversed(range(steps)):
            dh = _gru_step_back(out.grad[:, t] + dh, [x[t] for x in f], ut,
                                d[t], t > 0 or h.requires_grad)
        if xw.requires_grad:
            xw.grad += d.transpose(1, 0, 2)
        if h.requires_grad:
            h.grad += dh
        run.u_grad(U, d)

    return _track(out, (xw, h, U), back)


def attn_gru(keys: Tensor, feats: Tensor, E: Tensor, ids, h: Tensor,
             W_q: Tensor, v: Tensor, W: Tensor, b: Tensor, U: Tensor,
             lengths=None) -> Tensor:
    """T steps of a GRU decoder fed additive attention (Bahdanau et al.
    2015) as one node, whose backward is BPTT through the attention reads.

    Step t reads c = sum over s of alpha_s * feats_s from S positions' keys
    [B, S, a] and feats [B, S, f], alpha = softmax over s of tanh(keys +
    h @ W_q) @ v, and runs a gru_cell step (U [H, 3H]) on [c ++ E[ids_t]]
    @ W + b from the last state h ([B, H] at first).  ids [B, T] are the
    fed tokens ([B] for one step); the states come sample-major, [B*T, H].

    lengths [B], each in [1, T], runs sample b only for its first
    lengths[b] steps: its later states are zero and take no gradient.  The
    node orders the samples longest first, so each step runs a leading
    slice of them, and returns states and gradients in the caller's order.
    """
    ids = np.asarray(ids, dtype=np.intp)
    shapes = [x.shape for x in (keys, feats, E, h, W_q, v, W, b, U)]
    ok = [len(s) for s in shapes[:4]] == [3, 3, 2, 2] and ids.ndim in (1, 2)
    if ok:
        (batch, src, attn), (_, _, f), (k, e), (_, hid) = shapes[:4]
        want = [(batch, src, f), (batch, hid), (hid, attn), (attn, 1),
                (f + e, 3 * hid), (1, 3 * hid), (hid, 3 * hid)]
        ok = (0 not in (*ids.shape, src) and ids.shape[0] == batch
              and [shapes[1], *shapes[3:]] == want)
    if not ok:
        raise DimensionError(
            "attn_gru: need keys [B, S, a], feats [B, S, f], E [K, e], h "
            "[B, H], W_q [H, a], v [a, 1], W [f + e, 3H], b [1, 3H], U "
            f"[H, 3H] and ids [B, T] or [B], none empty; got {shapes}, "
            f"{ids.shape}")
    bad = ids[(ids < 0) | (ids >= k)]
    if bad.size:
        raise IndexRangeError(
            f"attn_gru: token {bad[0]} out of range [0, {k})")
    grid = ids.reshape(batch, -1)
    steps = grid.shape[1]
    kd, fd, h0, order = keys.data, feats.data, h.data, None
    live = [batch] * steps  # samples each step runs, a leading slice
    if lengths is not None:
        lengths = np.asarray(lengths)
        if lengths.shape != (batch,):
            raise DimensionError(
                f"attn_gru: need lengths [B] = ({batch},), got "
                f"{lengths.shape}")
        if (lengths.dtype.kind not in "iu" or lengths.min() < 1
                or lengths.max() > steps):
            raise ContractError(f"attn_gru: lengths {lengths.tolist()} are "
                                f"not all integers in [1, {steps}]")
        order = np.argsort(-lengths, kind="stable")
        caller = np.argsort(order)  # caller[b]: where sample b sits in order
        kd, fd, h0, grid = kd[order], fd[order], h0[order], grid[order]
        live = (lengths[:, None] > np.arange(steps)).sum(axis=0).tolist()

    def unsort(x: np.ndarray) -> np.ndarray:
        return x if order is None else x[caller]

    # dead rows are zero, so the whole-run factors and sums stay finite
    alloc = np.empty if live[-1] == batch else np.zeros
    wc, we, wq, vd = W.data[:f], W.data[f:], W_q.data, v.data
    fed = (E.data @ we + b.data)[grid.T]  # [T, B, 3H]: E[ids] @ W[f:] + b
    run = _GruRun(steps, h0, alloc)
    energy = alloc((steps, batch, src, attn))
    alpha = alloc((steps, batch, src))
    ctx = alloc((steps, batch, f))
    for t, m in enumerate(live):
        hd, en, al, cx = (run.states[t, :m], energy[t, :m], alpha[t, :m],
                          ctx[t, :m])
        np.add(kd[:m], (hd @ wq)[:, None, :], out=en)
        np.tanh(en, out=en)
        scores = (en.reshape(-1, attn) @ vd).reshape(m, src)
        np.exp(scores - scores.max(axis=1, keepdims=True), out=al)
        al /= al.sum(axis=1, keepdims=True)
        np.matmul(al[:, None], fd[:m], out=cx[:, None])
        xw = cx @ wc
        xw += fed[t, :m]
        run.step(t, m, xw, U.data)
    out = Tensor(unsort(run.states[1:].transpose(1, 0, 2)).reshape(-1, hid))

    def back():
        gs = out.grad.reshape(batch, steps, hid)
        gs = (gs if order is None else gs[order]).transpose(1, 0, 2)
        f_gru, ut = run.factors(), U.data.T.copy()
        wct, wqt = wc.T.copy(), wq.T.copy()  # contiguous, as ut
        v_e = vd[:, 0] * (1.0 - energy * energy)  # d score / d (keys + q)
        d = alloc((steps, batch, 3 * hid))       # at the GRU pre-activations
        d_ctx = alloc((steps, batch, f))
        d_scores = alloc((steps, batch, src))
        dq = alloc((steps, batch, attn))         # at the attention queries
        dh = np.zeros((batch, hid))  # gradient at the state step t+1 read
        for t in reversed(range(steps)):
            m = live[t]
            carry = t > 0 or h.requires_grad
            dg = _gru_step_back(gs[t, :m] + dh[:m], [x[t, :m] for x in f_gru],
                                ut, d[t, :m], carry)
            dc, al, ds = d_ctx[t, :m], alpha[t, :m], d_scores[t, :m]
            np.matmul(d[t, :m], wct, out=dc)
            d_alpha = (fd[:m] @ dc[:, :, None])[:, :, 0]
            np.multiply(al, d_alpha - (d_alpha * al).sum(1, keepdims=True),
                        out=ds)
            dq[t, :m] = (ds[:, None] @ v_e[t, :m])[:, 0]
            if carry:
                dg += dq[t, :m] @ wqt
                dh[:m] = dg
        if h.requires_grad:
            h.grad += unsort(dh)
        if keys.requires_grad:
            keys.grad += unsort((d_scores[..., None] * v_e).sum(axis=0))
        if v.requires_grad:
            v.grad += energy.reshape(-1, attn).T @ d_scores.reshape(-1, 1)
        if feats.requires_grad:  # alpha [B, S, T] @ d_ctx [B, T, f]
            feats.grad += unsort(alpha.transpose(1, 2, 0)
                                 @ d_ctx.transpose(1, 0, 2))
        if W_q.requires_grad:
            W_q.grad += (run.states[:-1].reshape(-1, hid).T
                         @ dq.reshape(-1, attn))
        run.u_grad(U, d)
        d = d.reshape(-1, 3 * hid)
        d_fed = np.eye(k)[grid.T.reshape(-1)].T @ d  # scattered by a one-hot
        if W.requires_grad:
            W.grad[:f] += ctx.reshape(-1, f).T @ d
            W.grad[f:] += E.data.T @ d_fed
        if b.requires_grad:
            b.grad += d_fed.sum(axis=0, keepdims=True)
        if E.requires_grad:
            E.grad += d_fed @ we.T

    return _track(out, (keys, feats, E, h, W_q, v, W, b, U), back)


# ---------------------------------------------------------------------------
# constructors

def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)
