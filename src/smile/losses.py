"""Objectives: supervised decoder loss, per-row prediction entropy, and
their weighted combination for the adaptation phase.
decoder_loss picks each emitted row's target by (row, column); row_entropy,
the one entropy formula, takes any [N, K] block, on the tape or off it.

Entropy comes in two flavors: "shannon" is the full-distribution entropy of
a predicted row; "pseudo_nll" is the negative log-probability of the row's
argmax, picked the same way.  Both are zero exactly at one-hot rows.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError
from .recognizer import Decoded
from .tensor import Tensor

VARIANTS = ("shannon", "pseudo_nll")


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ContractError(f"entropy variant {variant!r} not in {VARIANTS}")


def decoder_loss(decoded: Decoded) -> Tensor:
    """Mean over the batch of each sample's summed -log p(target_t).

    Each emitted row's target is the token that labels it: under teacher
    forcing, the sample's label characters followed by EOS.
    """
    if not decoded.labels:
        raise ContractError("decoder_loss: empty batch")
    targets = np.array([c for tokens in decoded.labels for c in tokens])
    picked = T.gather_rows(decoded.probs, decoded.rows, targets)
    return T.mul(T.reduce_sum(T.log(picked)), -1.0 / len(decoded.labels))


def row_entropy(probs: Tensor, variant: str = "shannon") -> Tensor:
    """Uncertainty of every row of an [N, K] block, as an [N, 1] column."""
    _check_variant(variant)
    if variant == "shannon":
        return T.mul(T.reduce_sum(T.mul(probs, T.log(probs)), axis=1), -1.0)
    tops = np.argmax(probs.data, axis=1)
    return T.mul(T.log(T.gather_rows(probs, np.arange(len(tops)), tops)), -1.0)


def smile_loss(l_dec: Tensor, l_ent: Tensor, lam: float) -> Tensor:
    """l_dec + lam * l_ent; lam = 0 degenerates to l_dec exactly."""
    if lam < 0:
        raise ContractError(f"smile_loss: negative weight {lam}")
    for name, t in (("l_dec", l_dec), ("l_ent", l_ent)):
        if t.data.size != 1:
            raise ContractError(f"smile_loss: {name} is not scalar")
        if not np.isfinite(t.data).all():
            raise ContractError(f"smile_loss: {name} is not finite")
    return T.add(l_dec, T.mul(l_ent, lam))
