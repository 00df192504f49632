"""Objective functions against closed-form values and independent scalar
recomputations."""

import math

import numpy as np
import pytest

import smile.tensor as T
from smile.errors import ContractError
from smile.losses import decoder_loss, row_entropy, smile_loss
from smile.recognizer import Decoded
from smile.tensor import Tape, Tensor

from conftest import decoded_from


def random_stochastic(rng, t, k):
    raw = rng.random((t, k)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


# -- decoder_loss -------------------------------------------------------------

def test_decoder_loss_zero_on_certain_targets():
    # K=5 (2 characters): targets (0, 1) then EOS=3
    rows = np.zeros((3, 5))
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    rows[2, 3] = 1.0
    loss = decoder_loss(decoded_from(rows, labels=[(0, 1, 3)]))
    assert abs(loss.item()) < 1e-12


def test_decoder_loss_uniform_rows():
    k = 8
    rows = np.full((3, k), 1.0 / k)
    loss = decoder_loss(decoded_from(rows, labels=[(0, 4, k - 2)]))
    assert abs(loss.item() - 3 * math.log(k)) < 1e-12


def test_decoder_loss_matches_scalar_recomputation(rng):
    k = 6
    rows_a = random_stochastic(rng, 3, k)
    rows_b = random_stochastic(rng, 2, k)
    eos = k - 2
    labels = [(2, 0, eos), (1, eos)]
    loss = decoder_loss(decoded_from(rows_a, rows_b, labels=labels))
    want = -(math.log(rows_a[0, 2]) + math.log(rows_a[1, 0])
             + math.log(rows_a[2, eos])
             + math.log(rows_b[0, 1]) + math.log(rows_b[1, eos])) / 2.0
    assert abs(loss.item() - want) < 1e-12


def test_decoder_loss_batch_order_invariant(rng):
    k = 6
    samples = [random_stochastic(rng, t, k) for t in (2, 3, 4)]
    labels = [(0, 4), (1, 2, 4), (2, 0, 1, 4)]
    forward = decoder_loss(decoded_from(*samples, labels=labels)).item()
    backward = decoder_loss(decoded_from(*samples[::-1],
                                         labels=labels[::-1])).item()
    assert abs(forward - backward) < 1e-12


def test_decoder_loss_validation():
    with pytest.raises(ContractError, match="empty batch"):
        decoder_loss(decoded_from(np.zeros((0, 6)), labels=[]))


def test_decoder_loss_gradient_direction(rng):
    # pushing probability onto the target must lower the loss; the sample's
    # two rows lead the block, and row 2, past its tokens, is not read
    logits = T.parameter(rng.normal(size=(3, 5)))
    with Tape() as tape:
        probs = T.softmax(logits)
        loss = decoder_loss(Decoded(probs, [(1, 3)]))
        tape.backward(loss)
    # gradient w.r.t. the target logits is negative (increase helps)
    assert logits.grad[0, 1] < 0
    assert logits.grad[1, 3] < 0  # EOS target of the second row
    assert not logits.grad[2].any()


# -- row_entropy of one decoder step's [1, K] row ------------------------------

def test_step_entropy_uniform_is_log_k():
    row = T.constant(np.full((1, 15), 1.0 / 15))
    assert abs(row_entropy(row).item() - math.log(15)) < 1e-12


def test_step_entropy_one_hot_is_zero():
    row = np.zeros((1, 10))
    row[0, 4] = 1.0
    for variant in ("shannon", "pseudo_nll"):
        assert abs(row_entropy(T.constant(row), variant).item()) < 1e-10


def test_step_entropy_half_half():
    row = T.constant([[0.5, 0.5]])
    assert abs(row_entropy(row, "shannon").item() - math.log(2)) < 1e-12
    assert abs(row_entropy(row, "pseudo_nll").item() - math.log(2)) < 1e-12


def test_step_entropy_bounds_property(rng):
    for k in (5, 15, 30):
        for _ in range(50):
            row = random_stochastic(rng, 1, k)
            h = row_entropy(T.constant(row)).item()
            assert -1e-12 <= h <= math.log(k) + 1e-12
            nll = row_entropy(T.constant(row), "pseudo_nll").item()
            assert nll >= -1e-12


def test_row_entropy_rejects_unknown_variant():
    with pytest.raises(ContractError):
        row_entropy(T.constant([[0.5, 0.5]]), "nonsense")


def test_entropy_gradient_step_sharpens(rng):
    # one descent step on a row's entropy lowers it
    for trial in range(100):
        logits_np = rng.normal(size=(1, 8))
        if np.abs(logits_np - logits_np.max()).sum() < 1e-3:
            continue  # skip near-degenerate draws
        logits = T.parameter(logits_np.copy())
        with Tape() as tape:
            ent = row_entropy(T.softmax(logits))
            tape.backward(ent)
        before = ent.item()
        logits.data -= 1e-2 * logits.grad
        after = row_entropy(T.softmax(logits)).item()
        assert after < before


# -- smile_loss ---------------------------------------------------------------

def scalar(x):
    return T.constant(np.array([float(x)]))


def test_smile_loss_arithmetic():
    assert abs(smile_loss(scalar(2.0), scalar(0.5), 1.0).item() - 2.5) < 1e-15
    assert abs(smile_loss(scalar(2.0), scalar(0.5), 0.0).item() - 2.0) < 1e-15
    assert abs(smile_loss(scalar(1.0), scalar(3.0), 2.0).item() - 7.0) < 1e-15


def test_smile_loss_rejects_bad_inputs():
    with pytest.raises(ContractError):
        smile_loss(scalar(1.0), scalar(1.0), -0.5)
    with pytest.raises(ContractError):
        smile_loss(T.constant(np.ones((2, 2))), scalar(1.0), 1.0)
    with pytest.raises(ContractError):
        smile_loss(scalar(float("nan")), scalar(1.0), 1.0)


def test_smile_loss_gradient_scales_with_lambda(rng):
    logits_np = rng.normal(size=(1, 6))
    grads = {}
    for lam in (1.0, 2.0):
        logits = T.parameter(logits_np.copy())
        with Tape() as tape:
            ent = row_entropy(T.softmax(logits))
            total = smile_loss(scalar(5.0), ent, lam)
            tape.backward(total)
        grads[lam] = logits.grad.copy()
    assert np.allclose(grads[2.0], 2.0 * grads[1.0], atol=1e-12)
