"""Dense float64 tensors with a dynamic reverse-mode differentiation tape.

Every operation runs eagerly on numpy arrays and, when a Tape is active on
the current thread, records a backward rule onto it.  The tape is rebuilt on
every forward pass; one tape and its tensors belong to a single thread.
add, sub and mul broadcast as numpy does, at any rank; their backward rules
sum the gradient over every stretched axis.  gru_cell and attend are fused
recurrent primitives: a whole GRU step or attention read is one node with an
analytic backward, in place of the 12-20 elementary nodes it would take.
"""

from __future__ import annotations

import math
import threading

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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item: tensor of shape {self.shape} is not scalar")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the module-level functions are the real surface
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)


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


def backward(loss: Tensor):
    """Run loss.backward on the innermost active tape."""
    tape = _active_tape()
    if tape is None:
        raise ContractError("backward: no tape is active on this thread")
    tape.backward(loss)


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
    for m, n in zip(reversed(a.shape), reversed(b.shape)):
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign to stay overflow-free on large |x|
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul: operands must be rank 2, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions disagree for {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def back():
        g = out.grad
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

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


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a rank-2 table; duplicate rows accumulate gradient."""
    if table.data.ndim != 2:
        raise DimensionError(f"gather_rows: table must be rank 2, got {table.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ContractError("gather_rows: indices must be a flat sequence")
    n_rows = table.shape[0]
    bad = (idx < 0) | (idx >= n_rows)
    if bad.any():
        offender = int(idx[bad][0])
        raise IndexRangeError(
            f"gather_rows: index {offender} out of range [0, {n_rows})")
    out = Tensor(table.data[idx])

    def back():
        if table.requires_grad:
            np.add.at(table.grad, idx, out.grad)

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
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

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
# fused recurrent ops: one tape node for a whole GRU step or attention read

def gru_cell(xw: Tensor, h: Tensor, U: Tensor) -> Tensor:
    """One GRU step (Cho et al. 2014) with its gates in blocks z | r | n.

    xw = x @ W + b is the step's input projection [B, 3H], h the previous
    state [B, H] and U the recurrent weights [H, 3H]:
    z, r = sigmoid(xw_zr + h @ U_zr), n = tanh(xw_n + (r * h) @ U_n) and
    h' = (1 - z) * n + z * h.
    """
    if xw.data.ndim != 2 or h.data.ndim != 2 or U.data.ndim != 2:
        raise DimensionError(
            f"gru_cell: operands must be rank 2, got {xw.shape}, {h.shape}, "
            f"{U.shape}")
    batch, hid = h.shape
    two = 2 * hid
    if xw.shape != (batch, 3 * hid) or U.shape != (hid, 3 * hid):
        raise DimensionError(
            f"gru_cell: need xw [B, 3H], h [B, H], U [H, 3H]; got {xw.shape}, "
            f"{h.shape}, {U.shape}")
    hd, ud = h.data, U.data
    zr = _sigmoid(xw.data[:, :two] + hd @ ud[:, :two])
    z, r = zr[:, :hid], zr[:, hid:]
    rh = r * hd
    n = np.tanh(xw.data[:, two:] + rh @ ud[:, two:])
    out = Tensor((1.0 - z) * n + z * hd)

    def back():
        g = out.grad
        d = np.empty((batch, 3 * hid))  # gradient at the pre-activations
        d[:, two:] = g * (1.0 - z) * (1.0 - n * n)
        drh = d[:, two:] @ ud[:, two:].T
        d[:, :hid] = g * (hd - n) * z * (1.0 - z)
        d[:, hid:two] = drh * hd * r * (1.0 - r)
        if xw.requires_grad:
            xw.grad += d
        if U.requires_grad:
            U.grad[:, :two] += hd.T @ d[:, :two]
            U.grad[:, two:] += rh.T @ d[:, two:]
        if h.requires_grad:
            h.grad += g * z + drh * r + d[:, :two] @ ud[:, :two].T

    return _track(out, (xw, h, U), back)


def attend(keys: Tensor, feats: Tensor, q: Tensor, v: Tensor) -> Tensor:
    """Additive attention: the [B, h] context read from [B, T, h] features.

    keys [B, T, a] are the positions' keys, q [B, a] the query and v [a, 1]
    the scoring vector: alpha = softmax over T of tanh(keys + q) @ v, and
    the context is the alpha-weighted sum of feats over T.
    """
    ranks = (keys.data.ndim, feats.data.ndim, q.data.ndim, v.data.ndim)
    if ranks != (3, 3, 2, 2):
        raise DimensionError(
            f"attend: need ranks 3, 3, 2, 2; got {keys.shape}, {feats.shape}, "
            f"{q.shape}, {v.shape}")
    batch, t_enc, attn = keys.shape
    if (feats.shape[:2] != (batch, t_enc) or q.shape != (batch, attn)
            or v.shape != (attn, 1)):
        raise DimensionError(
            f"attend: need keys [B, T, a], feats [B, T, h], q [B, a] and "
            f"v [a, 1]; got {keys.shape}, {feats.shape}, {q.shape}, {v.shape}")
    energy = np.tanh(keys.data + q.data[:, None, :])
    flat = energy.reshape(batch * t_enc, attn)
    scores = (flat @ v.data).reshape(batch, t_enc)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    out = Tensor((feats.data * alpha[:, :, None]).sum(axis=1))

    def back():
        g = out.grad[:, None, :]
        if feats.requires_grad:
            feats.grad += alpha[:, :, None] * g
        d_alpha = (feats.data * g).sum(axis=2)
        d_scores = alpha * (d_alpha
                            - (d_alpha * alpha).sum(axis=1, keepdims=True))
        if v.requires_grad:
            v.grad += flat.T @ d_scores.reshape(batch * t_enc, 1)
        d_energy = (d_scores[:, :, None] * v.data[:, 0]
                    * (1.0 - energy * energy))
        if keys.requires_grad:
            keys.grad += d_energy
        if q.requires_grad:
            q.grad += d_energy.sum(axis=1)

    return _track(out, (keys, feats, q, v), back)


# ---------------------------------------------------------------------------
# constructors

def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape))


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)
