"""Autodiff engine: forward values against numpy, gradients against
central finite differences, and the tape lifecycle rules."""

import warnings

import numpy as np
import pytest

from smile import tensor as T
from smile.errors import ContractError, DimensionError, IndexRangeError
from smile.tensor import EXP_CEIL, LOG_FLOOR, Tape, Tensor

FD_STEP = 1e-6


def fd_grad(make_loss, leaf: Tensor) -> np.ndarray:
    """Central finite differences of make_loss() w.r.t. every leaf entry."""
    grad = np.zeros_like(leaf.data)
    it = np.nditer(leaf.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = leaf.data[idx]
        leaf.data[idx] = keep + FD_STEP
        up = make_loss().item()
        leaf.data[idx] = keep - FD_STEP
        down = make_loss().item()
        leaf.data[idx] = keep
        grad[idx] = (up - down) / (2.0 * FD_STEP)
    return grad


def analytic_grad(make_loss, leaf: Tensor) -> np.ndarray:
    leaf.zero_grad()
    with Tape() as tape:
        tape.backward(make_loss())
    return leaf.grad.copy()


def assert_grads_close(make_loss, leaf, tol=1e-4):
    a = analytic_grad(make_loss, leaf)
    f = fd_grad(make_loss, leaf)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    assert np.max(np.abs(a - f) / denom) < tol


# -- forward values ----------------------------------------------------------

def test_matmul_matches_numpy(rng):
    for _ in range(20):
        m, k, n = rng.integers(1, 6, 3)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        out = T.matmul(T.constant(a), T.constant(b))
        assert np.allclose(out.data, a @ b)


def test_elementwise_forward(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    assert np.allclose(T.add(T.constant(a), T.constant(b)).data, a + b)
    assert np.allclose(T.sub(T.constant(a), T.constant(b)).data, a - b)
    assert np.allclose(T.mul(T.constant(a), T.constant(b)).data, a * b)
    assert np.allclose(T.neg(T.constant(a)).data, -a)
    assert np.allclose(T.tanh(T.constant(a)).data, np.tanh(a))
    assert np.allclose(T.sigmoid(T.constant(a)).data, 1 / (1 + np.exp(-a)))
    assert np.allclose(T.relu(T.constant(a)).data, np.maximum(a, 0))
    assert np.allclose(T.exp(T.constant(a)).data, np.exp(a))


def test_scalar_broadcast_forward():
    a = T.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(T.add(a, 10.0).data, [[11, 12], [13, 14]])
    assert np.allclose(T.sub(5.0, a).data, [[4, 3], [2, 1]])
    assert np.allclose(T.mul(a, 2.0).data, [[2, 4], [6, 8]])


def test_general_broadcast_rejected():
    a = T.constant(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        T.mul(a, T.constant(np.zeros((3, 2))))
    with pytest.raises(DimensionError):
        T.add(T.constant(np.zeros((4, 2, 3))), T.constant(np.zeros((3, 1, 3))))


@pytest.mark.parametrize("op,ref", [(T.add, np.add), (T.sub, np.subtract),
                                    (T.mul, np.multiply)])
def test_row_column_rank3_broadcast(rng, op, ref):
    # each pair stretches a different axis: row over rows, column over
    # columns, and a rank-3 operand over the middle axis and a new batch axis
    full = T.parameter(rng.normal(size=(3, 4)))
    pairs = [(full, T.parameter(rng.normal(size=(1, 4)))),
             (T.parameter(rng.normal(size=(3, 1))), full),
             (T.parameter(rng.normal(size=(2, 1, 4))), full)]
    for x, y in pairs:
        out = op(x, y)
        want = ref(x.data, y.data)
        assert out.shape == want.shape
        assert np.allclose(out.data, want)
        w = rng.normal(size=want.shape)

        def loss(x=x, y=y, w=w):
            return T.reduce_sum(T.mul(op(x, y), T.constant(w)))

        assert_grads_close(loss, x)
        assert_grads_close(loss, y)


def test_matmul_shape_rules():
    with pytest.raises(DimensionError):
        T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(T.constant(np.zeros(3)), T.constant(np.zeros((3, 2))))


def test_log_floor():
    out = T.log(T.constant([[0.0, 1.0]]))
    assert out.data[0, 0] == np.log(LOG_FLOOR)
    assert out.data[0, 1] == 0.0


def test_exp_ceiling():
    out = T.exp(T.constant([[800.0]]))
    assert out.data[0, 0] == np.exp(EXP_CEIL)
    assert np.isfinite(out.data).all()


def test_softmax_rows_sum_to_one(rng):
    x = rng.normal(size=(5, 7)) * 10
    out = T.softmax(T.constant(x))
    assert np.allclose(out.data.sum(axis=1), 1.0)
    assert (out.data > 0).all()
    # max subtraction keeps huge logits finite
    big = T.softmax(T.constant([[1000.0, 0.0]]))
    assert np.isfinite(big.data).all()


def test_reduce_shapes(rng):
    x = rng.normal(size=(3, 4))
    assert T.reduce_sum(T.constant(x)).shape == (1,)
    assert np.allclose(T.reduce_sum(T.constant(x)).item(), x.sum())
    assert T.reduce_sum(T.constant(x), axis=0).shape == (1, 4)
    assert T.reduce_sum(T.constant(x), axis=1).shape == (3, 1)
    assert np.allclose(T.reduce_mean(T.constant(x), axis=1).data,
                       x.mean(axis=1, keepdims=True))


def test_gather_rows_forward():
    table = T.constant(np.arange(12.0).reshape(4, 3))
    out = T.gather_rows(table, [2, 0, 2])
    assert np.allclose(out.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])
    with pytest.raises(IndexRangeError):
        T.gather_rows(table, [4])
    with pytest.raises(IndexRangeError):
        T.gather_rows(table, [-1])


def test_concat_forward(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    out = T.concat([T.constant(a), T.constant(b)], axis=0)
    assert np.allclose(out.data, np.concatenate([a, b], axis=0))
    c = rng.normal(size=(2, 5))
    out = T.concat([T.constant(a), T.constant(c)], axis=1)
    assert np.allclose(out.data, np.concatenate([a, c], axis=1))
    with pytest.raises(DimensionError):
        T.concat([T.constant(a), T.constant(c)], axis=0)


def test_reshape_round_trip(rng):
    x = rng.normal(size=(3, 4))
    out = T.reshape(T.reshape(T.constant(x), (12, 1)), (3, 4))
    assert np.allclose(out.data, x)
    with pytest.raises(DimensionError):
        T.reshape(T.constant(x), (5, 2))


# -- gradients against finite differences ------------------------------------

def test_matmul_grads(rng):
    a = T.parameter(rng.normal(size=(3, 4)))
    b = T.parameter(rng.normal(size=(4, 2)))
    w = rng.normal(size=(3, 2))

    def loss():
        return T.reduce_sum(T.mul(T.matmul(a, b), T.constant(w)))

    assert_grads_close(loss, a)
    assert_grads_close(loss, b)


@pytest.mark.parametrize("op", [T.tanh, T.sigmoid, T.exp, T.neg])
def test_unary_grads(rng, op):
    x = T.parameter(rng.normal(size=(2, 3)))
    w = rng.normal(size=(2, 3))

    def loss():
        return T.reduce_sum(T.mul(op(x), T.constant(w)))

    assert_grads_close(loss, x)


def test_log_grad_zero_below_floor(rng):
    x = T.parameter(np.array([[0.5, -1.0]]))

    def loss():
        return T.reduce_sum(T.log(x))

    g = analytic_grad(loss, x)
    assert np.isclose(g[0, 0], 2.0)
    # clamped region contributes nothing
    assert g[0, 1] == 0.0


def test_softmax_grad(rng):
    x = T.parameter(rng.normal(size=(3, 5)))
    w = rng.normal(size=(3, 5))

    def loss():
        return T.reduce_sum(T.mul(T.softmax(x), T.constant(w)))

    assert_grads_close(loss, x)


def test_gather_rows_scatter_grad():
    # duplicate indices must accumulate, not overwrite
    table = T.parameter(np.arange(6.0).reshape(3, 2))

    def loss():
        return T.reduce_sum(T.gather_rows(table, [1, 1, 0]))

    g = analytic_grad(loss, table)
    assert np.allclose(g, [[1, 1], [2, 2], [0, 0]])


def test_concat_grads(rng):
    a = T.parameter(rng.normal(size=(2, 3)))
    b = T.parameter(rng.normal(size=(1, 3)))
    w = rng.normal(size=(3, 3))

    def loss():
        return T.reduce_sum(T.mul(T.concat([a, b], axis=0), T.constant(w)))

    assert_grads_close(loss, a)
    assert_grads_close(loss, b)


def test_chained_grads(rng):
    x = T.parameter(rng.normal(size=(2, 4)))
    m = rng.normal(size=(4, 3))

    def loss():
        h = T.tanh(T.matmul(x, T.constant(m)))
        return T.reduce_mean(T.mul(T.softmax(h), T.log(T.softmax(h))))

    assert_grads_close(loss, x)


# -- fused recurrent ops against composite references -------------------------

def columns(t, lo, hi):
    """Columns lo:hi of a rank-2 tensor, as a matmul with a 0/1 selector."""
    return T.matmul(t, T.constant(np.eye(t.shape[1])[:, lo:hi]))


def gru_reference(xw, h, u):
    hid = h.shape[1]
    z = T.sigmoid(T.add(columns(xw, 0, hid), T.matmul(h, columns(u, 0, hid))))
    r = T.sigmoid(T.add(columns(xw, hid, 2 * hid),
                        T.matmul(h, columns(u, hid, 2 * hid))))
    n = T.tanh(T.add(columns(xw, 2 * hid, 3 * hid),
                     T.matmul(T.mul(r, h), columns(u, 2 * hid, 3 * hid))))
    return T.add(T.mul(T.sub(1.0, z), n), T.mul(z, h))


def attend_reference(keys, feats, q, v):
    batch, t_enc, attn = keys.shape
    energy = T.tanh(T.add(keys, T.reshape(q, (batch, 1, attn))))
    scores = T.matmul(T.reshape(energy, (batch * t_enc, attn)), v)
    alpha = T.softmax(T.reshape(scores, (batch, t_enc)))
    pooled = T.reduce_sum(T.mul(feats, T.reshape(alpha, (batch, t_enc, 1))),
                          axis=1)
    return T.reshape(pooled, (batch, feats.shape[2]))


def check_against_reference(rng, op, ref, leaves):
    out = op(*leaves)
    assert np.allclose(out.data, ref(*leaves).data, rtol=0, atol=1e-12)
    w = rng.normal(size=out.shape)

    def loss(fn):
        return lambda: T.reduce_sum(T.mul(fn(*leaves), T.constant(w)))

    for leaf in leaves:
        assert np.allclose(analytic_grad(loss(op), leaf),
                           analytic_grad(loss(ref), leaf), rtol=0, atol=1e-12)
        assert_grads_close(loss(op), leaf)


def test_gru_cell_matches_composite(rng):
    leaves = [T.parameter(rng.normal(size=s)) for s in ((3, 6), (3, 2), (2, 6))]
    check_against_reference(rng, T.gru_cell, gru_reference, leaves)


def test_attend_matches_composite(rng):
    leaves = [T.parameter(rng.normal(size=s))
              for s in ((2, 3, 4), (2, 3, 5), (2, 4), (4, 1))]
    check_against_reference(rng, T.attend, attend_reference, leaves)


def test_gru_cell_large_preactivations_finite(rng):
    # |pre-activation| ~ 1e3 on both signs must neither overflow nor warn
    xw = T.parameter(1e3 * rng.choice([-1.0, 1.0], (4, 6)))
    h = T.parameter(rng.uniform(-1.0, 1.0, (4, 2)))
    u = T.parameter(rng.normal(size=(2, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            out = T.gru_cell(xw, h, u)
            tape.backward(T.reduce_sum(out))
    assert np.isfinite(out.data).all()
    assert np.abs(out.data).max() <= 1.0
    for leaf in (xw, h, u):
        assert np.isfinite(leaf.grad).all()


def test_fused_ops_reject_mismatched_shapes():
    def z(*shape):
        return T.constant(np.zeros(shape))

    for xw, h, u in (((3, 5), (3, 2), (2, 6)),     # xw not 3H wide
                     ((3, 6), (3, 2), (3, 6)),     # U not [H, 3H]
                     ((4, 6), (3, 2), (2, 6)),     # batch disagrees
                     ((3, 6), (3, 2, 1), (2, 6))):  # wrong rank
        with pytest.raises(DimensionError):
            T.gru_cell(z(*xw), z(*h), z(*u))
    for keys, feats, q, v in (((2, 3, 4), (2, 2, 5), (2, 4), (4, 1)),
                              ((2, 3, 4), (2, 3, 5), (2, 3), (4, 1)),
                              ((2, 3, 4), (2, 3, 5), (2, 4), (4, 2)),
                              ((6, 4), (2, 3, 5), (2, 4), (4, 1))):
        with pytest.raises(DimensionError):
            T.attend(z(*keys), z(*feats), z(*q), z(*v))


# -- tape lifecycle -----------------------------------------------------------

def test_ops_outside_tape_are_constants():
    x = T.parameter(np.ones((2, 2)))
    out = T.tanh(x)
    assert not out.requires_grad
    assert out.grad is None


def test_backward_requires_scalar_tracked_node():
    x = T.parameter(np.ones((2, 2)))
    with Tape() as tape:
        y = T.tanh(x)
        with pytest.raises(ContractError):
            tape.backward(y)          # not scalar
    with pytest.raises(ContractError):
        T.backward(T.constant([[1.0]]))  # nothing recorded it


def test_leaf_grads_accumulate_across_backward():
    x = T.parameter(np.array([[2.0]]))
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
    assert np.allclose(x.grad, 2.0 * first)
    x.zero_grad()
    assert np.allclose(x.grad, 0.0)


def test_grad_flows_through_reused_node(rng):
    x = T.parameter(rng.normal(size=(2, 2)))

    def loss():
        h = T.tanh(x)
        return T.reduce_sum(T.add(T.mul(h, h), h))

    assert_grads_close(loss, x)


def test_tapes_nest_and_restore():
    x = T.parameter(np.array([[1.0]]))
    with Tape() as outer:
        T.tanh(x)
        with Tape() as inner:
            T.tanh(x)
            assert len(inner) == 1
        T.tanh(x)
    assert len(outer) == 2
    assert T._active_tape() is None
