"""Autodiff engine: forward values against numpy, gradients against
central finite differences, and the tape lifecycle rules."""

import inspect
import warnings

import numpy as np
import pytest

from smile import checks
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
    def z(*shape):
        return T.constant(np.zeros(shape))

    assert T.matmul(z(4, 2, 3), z(3, 5)).shape == (4, 2, 5)
    for a, b in (((2, 3), (2, 3)),            # inner dimensions disagree
                 ((4, 2, 3), (2, 5)),
                 ((3,), (3, 2)),              # left rank 1
                 ((1, 4, 2, 3), (3, 2)),      # left rank 4
                 ((2, 3), (2, 3, 2))):        # right rank 3
        with pytest.raises(DimensionError):
            T.matmul(z(*a), z(*b))


def test_log_floor():
    out = T.log(T.constant([[0.0, 1.0]]))
    assert out.data[0, 0] == np.log(LOG_FLOOR)
    assert out.data[0, 1] == 0.0


def test_exp_ceiling():
    out = T.exp(T.constant([[800.0]]))
    assert out.data[0, 0] == np.exp(EXP_CEIL)
    assert np.isfinite(out.data).all()


def test_sigmoid_extremes_stay_finite():
    # under= is left out: exp(-800) underflows to 0, harmlessly
    x = np.array([[-1e308, -800.0, 800.0, 1e308]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        y = T._sigmoid(x)
    assert np.isfinite(y).all()
    assert ((0.0 <= y) & (y <= 1.0)).all()
    assert y[0, 2] == y[0, 3] == 1.0


def test_sigmoid_matches_logistic_formula():
    x = np.linspace(-30.0, 30.0, 600).reshape(3, -1)
    ref = 1.0 / (1.0 + np.exp(-x))
    assert np.allclose(T._sigmoid(x), ref, rtol=1e-15, atol=0.0)


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
    # with cols: entry (rows[i], cols[i]) of each pair, as an [N, 1] column
    out = T.gather_rows(table, [2, 0, 3], [1, 0, 2])
    assert out.shape == (3, 1)
    assert np.array_equal(out.data, [[7], [0], [11]])
    assert T.gather_rows(table, [], []).shape == (0, 1)
    with pytest.raises(IndexRangeError, match="column 3"):
        T.gather_rows(table, [0], [3])
    with pytest.raises(IndexRangeError, match="column -1"):
        T.gather_rows(table, [0], [-1])
    with pytest.raises(IndexRangeError, match="row 4"):
        T.gather_rows(table, [4], [0])
    with pytest.raises(ContractError):
        T.gather_rows(table, [0, 1], [0])
    for shape in ((4, 1, 3), (2, 2, 2, 2)):   # rank 2 only
        with pytest.raises(DimensionError):
            T.gather_rows(T.constant(np.zeros(shape)), [0])


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
    # duplicate indices must accumulate, not overwrite; distinct and empty
    # index lists scatter to their own rows or nowhere
    table = T.parameter(np.arange(6.0).reshape(3, 2))
    for indices, want in [([1, 1, 0], [[1, 1], [2, 2], [0, 0]]),
                          ([2, 0], [[1, 1], [0, 0], [1, 1]]),
                          ([], [[0, 0], [0, 0], [0, 0]])]:
        def loss():
            return T.reduce_sum(T.gather_rows(table, indices))

        assert np.array_equal(analytic_grad(loss, table), want)
    # picked entries scatter to their own (row, col); the repeated pair
    # (1, 0) accumulates both of its weights
    w = T.constant([[0.5], [-1.5], [2.0], [0.25]])

    def picked():
        return T.reduce_sum(T.mul(
            T.gather_rows(table, [1, 1, 0, 2], [0, 0, 1, 1]), w))

    assert_grads_close(picked, table)
    assert np.array_equal(analytic_grad(picked, table),
                          [[0, 2.0], [-1.0, 0], [0, 0.25]])


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


def test_matmul_rank3_is_the_flat_product(rng):
    # [B, T, n] @ [n, m] must equal the [B*T, n] product bit for bit, in the
    # output and in both gradients
    a3 = T.parameter(rng.normal(size=(2, 3, 4)))
    a2 = T.parameter(a3.data.reshape(6, 4))
    b = T.parameter(rng.normal(size=(4, 5)))
    w = rng.normal(size=(6, 5))
    outs, b_grads = [], []
    for a in (a3, a2):
        b.zero_grad()
        with Tape() as tape:
            out = T.matmul(a, b)
            tape.backward(T.reduce_sum(
                T.mul(out, T.constant(w.reshape(out.shape)))))
        outs.append(out.data)
        b_grads.append(b.grad.copy())
    assert outs[0].shape == (2, 3, 5)
    assert np.array_equal(outs[0].reshape(6, 5), outs[1])
    assert np.array_equal(a3.grad.reshape(6, 4), a2.grad)
    assert np.array_equal(b_grads[0], b_grads[1])


def test_every_public_op_has_a_finite_difference_case():
    # gate A1 checks each op through checks._op_cases, whose case names are
    # the op's name or start with it; collecting them runs no check
    cases = [name for name, *_ in checks._op_cases(np.random.default_rng(0))]
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_")}
    ops -= {"constant", "zeros", "parameter", "untaped"}
    assert ops >= {"add", "matmul", "gru_cell", "attn_gru"}
    missing = [op for op in sorted(ops) if not any(
        case == op or case.startswith(op + "_") for case in cases)]
    assert missing == []


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


def gru_sequence_reference(xw, u):
    """gru_reference step by step over the T steps of xw [B, T, 3H], from
    the zero state."""
    batch, steps, three = xw.shape
    flat = T.reshape(xw, (batch, steps * three))
    h = T.zeros((batch, u.shape[0]))
    states = []
    for t in range(steps):
        h = gru_reference(columns(flat, t * three, (t + 1) * three), h, u)
        states.append(h)
    return T.reshape(T.concat(states, axis=1), (batch, steps, h.shape[1]))


def attend_reference(keys, feats, q, v):
    batch, t_enc, attn = keys.shape
    energy = T.tanh(T.add(keys, T.reshape(q, (batch, 1, attn))))
    scores = T.matmul(T.reshape(energy, (batch * t_enc, attn)), v)
    alpha = T.softmax(T.reshape(scores, (batch, t_enc)))
    pooled = T.reduce_sum(T.mul(feats, T.reshape(alpha, (batch, t_enc, 1))),
                          axis=1)
    return T.reshape(pooled, (batch, feats.shape[2]))


# keys, feats, E, h, W_q, v, W, b and U
ATTN_GRU_SHAPES = ((2, 3, 3), (2, 3, 2), (4, 2), (2, 2), (2, 3), (3, 1),
                   (4, 6), (1, 6), (2, 6))


def attn_gru_reference(ids):
    """attend_reference, a gather of E, the input projection and
    gru_reference, step by step; the states sample-major."""
    def ref(keys, feats, E, h, W_q, v, W, b, U):
        states = []
        for t in range(ids.shape[1]):
            ctx = attend_reference(keys, feats, T.matmul(h, W_q), v)
            x = T.concat([ctx, T.gather_rows(E, ids[:, t])], axis=1)
            h = gru_reference(T.add(T.matmul(x, W), b), h, U)
            states.append(h)
        batch, hid = h.shape
        return T.reshape(T.concat(states, axis=1), (batch * len(states), hid))
    return ref


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
    # T = 1 and T = 3 steps
    for steps in (1, 3):
        leaves = [T.parameter(rng.normal(size=s))
                  for s in ((3, steps, 6), (2, 6))]
        check_against_reference(rng, T.gru_cell, gru_sequence_reference,
                                leaves)


def emitted_ids(ids, lengths):
    """The first lengths[b] tokens of each row b of ids [B, T], sample-major:
    attn_gru's ids."""
    return np.concatenate([ids[b, :n] for b, n in enumerate(lengths)])


def attn_gru_of(ids):
    """attn_gru running every sample for all T steps of ids [B, T]."""
    lengths = np.full(len(ids), ids.shape[1])

    def op(keys, feats, E, h, W_q, v, W, b, U):
        return T.attn_gru(keys, feats, E, ids.reshape(-1), h, W_q, v, W, b,
                          U, lengths)
    return op


def test_attn_gru_matches_composite(rng):
    # T = 3 steps with token 1 fed twice, so its scatter sums
    ids = np.array([[1, 0, 3], [2, 1, 1]])
    leaves = [T.parameter(rng.normal(size=s)) for s in ATTN_GRU_SHAPES]
    check_against_reference(rng, attn_gru_of(ids), attn_gru_reference(ids),
                            leaves)


def sample_of(t, b):
    """Sample b of a rank-3 tensor, as a gather of its flattened rows."""
    batch, *rest = t.shape
    flat = T.reshape(t, (batch, int(np.prod(rest))))
    return T.reshape(T.gather_rows(flat, [b]), (1, *rest))


def test_attn_gru_lengths_run_each_sample_for_its_own_steps(rng):
    # unsorted lengths force a reorder; the [sum(lengths), H] states must
    # read as each sample's composite run on its own prefix alone
    ids = np.array([[1, 0, 3], [2, 1, 1], [3, 3, 0]])
    lengths = (2, 3, 1)
    shapes = [((3, *s[1:]) if i in (0, 1, 3) else s)
              for i, s in enumerate(ATTN_GRU_SHAPES)]
    leaves = [T.parameter(rng.normal(size=s)) for s in shapes]

    def op(*args):
        return T.attn_gru(*args[:3], emitted_ids(ids, lengths), *args[3:],
                          lengths)

    def ref(keys, feats, E, h, *rest):
        return T.concat([attn_gru_reference(ids[b:b + 1, :n])(
            sample_of(keys, b), sample_of(feats, b), E, T.gather_rows(h, [b]),
            *rest) for b, n in enumerate(lengths)], axis=0)

    assert op(*leaves).shape == (sum(lengths), 2)
    check_against_reference(rng, op, ref, leaves)


def test_attn_gru_rejects_bad_lengths():
    # B = 2 and 4 ids; T comes from the lengths, so (3, 1) is accepted
    args = [T.constant(np.zeros(s)) for s in ATTN_GRU_SHAPES]
    ids = np.array([1, 0, 2, 1])
    assert T.attn_gru(*args[:3], ids, *args[3:], (3, 1)).shape == (4, 2)
    shape, value = r"need lengths \[B\] = \(2,\)", "not all integers >= 1"
    count = r"need ids \[sum\(lengths\)\] = "
    for lengths, err, text in (((4,), DimensionError, shape),
                               (((2, 2),), DimensionError, shape),
                               (2, DimensionError, shape),
                               ((4, 0), ContractError, value),
                               ((5, -1), ContractError, value),
                               ((2.0, 2.0), ContractError, value),
                               ((True, True), ContractError, value),
                               ((2, 1), DimensionError,
                                count + r"\(3,\), got \(4,\)"),
                               ((2, 3), DimensionError,
                                count + r"\(5,\), got \(4,\)")):
        with pytest.raises(err, match=f"^attn_gru: .*{text}"):
            T.attn_gru(*args[:3], ids, *args[3:], lengths)


def test_gru_cell_large_preactivations_finite(rng):
    # |pre-activation| ~ 1e3 on both signs must neither overflow nor warn,
    # over T = 3 steps so saturated gates carry gradient between steps
    xw = T.parameter(1e3 * rng.choice([-1.0, 1.0], (4, 3, 6)))
    u = T.parameter(rng.normal(size=(2, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            out = T.gru_cell(xw, u)
            tape.backward(T.reduce_sum(out))
    assert np.isfinite(out.data).all()
    assert np.abs(out.data).max() <= 1.0
    for leaf in (xw, u):
        assert np.isfinite(leaf.grad).all()


def test_fused_ops_reject_mismatched_shapes():
    def z(*shape):
        return T.constant(np.zeros(shape))

    for xw, u in (((3, 2, 5), (2, 6)),  # xw not 3H wide
                  ((3, 6), (2, 6)),     # one step, unstacked
                  ((3, 0, 6), (2, 6)),  # no steps
                  ((3, 2, 6), (3, 6)),  # U not [H, 3H]
                  ((3, 2, 9), (3, 6)),  # U not [H, 3H], xw as wide
                  ((3, 1, 2, 6), (2, 6)),   # xw rank 4
                  ((3, 2, 6), (2, 6, 1))):  # U rank 3
        with pytest.raises(DimensionError):
            T.gru_cell(z(*xw), z(*u))
    ids = np.array([[1, 0], [2, 1]])
    for i, shape in enumerate(ATTN_GRU_SHAPES):
        for bad in ((*shape[:-1], shape[-1] + 1), shape[:-1]):
            args = [z(*s) for s in ATTN_GRU_SHAPES]
            args[i] = z(*bad)  # one operand a column too wide, or a rank short
            with pytest.raises(DimensionError):
                attn_gru_of(ids)(*args)
    args = [z(*s) for s in ATTN_GRU_SHAPES]
    # ids come flat, one per emitted row, never as a [B, T] grid
    for bad_ids in (np.zeros((2, 2)), np.zeros((4, 1)), np.zeros(0),
                    np.zeros(3), np.zeros(5)):
        with pytest.raises(DimensionError, match=r"ids \[sum\(lengths\)\]"):
            T.attn_gru(*args[:3], bad_ids, *args[3:], (2, 2))
    for token in (-1, 4):
        with pytest.raises(IndexRangeError, match=f"token {token} "):
            attn_gru_of(np.array([[0, token], [1, 2]]))(*args)


def test_decoder_run_steps_equal_attn_gru_bitwise(rng):
    # every sample runs every step, or the middle sample leaves after step
    # 0, as lengths (3, 1, 3) end it in the taped node
    ids = np.array([[1, 0, 3], [2, 1, 1], [3, 3, 0]])
    shapes = [((3, *s[1:]) if i in (0, 1, 3) else s)
              for i, s in enumerate(ATTN_GRU_SHAPES)]
    args = [T.parameter(rng.normal(size=s)) for s in shapes]
    for lengths, keeps in (((3, 3, 3), ([0, 1, 2],) * 3),
                           ((3, 1, 3), ([0, 1, 2], [0, 2], [0, 1]))):
        with Tape() as tape:
            node = T.attn_gru(*args[:3], emitted_ids(ids, lengths),
                              *args[3:], lengths)
            run = T.DecoderRun(*args)
            live = np.arange(3)
            states = [[] for _ in live]
            for t, keep in enumerate(keeps):
                live = live[keep]
                for b, row in zip(live, run.feed(ids[live, t], keep)):
                    states[b].append(row.copy())
            assert len(tape) == 1   # the node; the run records nothing
        assert np.array_equal(node.data, np.concatenate(states))


def test_decoder_run_rejects_mismatched_shapes():
    # attn_gru's operand checks, without the ids
    for i, shape in enumerate(ATTN_GRU_SHAPES):
        for bad in ((*shape[:-1], shape[-1] + 1), shape[:-1]):
            args = [T.constant(np.zeros(s)) for s in ATTN_GRU_SHAPES]
            args[i] = T.constant(np.zeros(bad))
            with pytest.raises(DimensionError,
                               match=r"^DecoderRun: need keys \[B, S, a\], "
                                     r".* U \[H, 3H\], none empty; got"):
                T.DecoderRun(*args)


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
        Tape().backward(T.constant([[1.0]]))  # nothing recorded it


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
