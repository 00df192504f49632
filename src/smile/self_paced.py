"""Class-balanced self-paced selection of confident character predictions.

Every emitted row of a greedy-decoded target batch (its Decoded block)
becomes one pool row: sample, timestep, pseudo class and entropy in aligned
numpy arrays.  The decode runs off the tape, so the pool is plain data.  At
step t a portion P_t = min(p_init + p_add*t, 1) is taken from every class
independently: the ceil(n_c * P_t) lowest-entropy rows of class c.

The training term is the mean entropy of the chosen rows, rebuilt on the
tape by replay.  Greedy feeds back its own picks, so a teacher-forced
decode of a sample's whole pseudo-label sequence rebuilds every one of its
rows.  replay_plan gives the samples with a chosen row, their sequences and
where each chosen row lands in the replayed block, and
selected_entropy_loss reads just those rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .losses import row_entropy
from .recognizer import Decoded
from .tensor import Tensor


def portion_at(p_init: float, p_add: float, t: int) -> float:
    if t < 0:
        raise ContractError(f"portion_at: negative step {t}")
    return min(p_init + p_add * t, 1.0)


@dataclass
class PredictionPool:
    sample: np.ndarray        # [N] batch position of the originating sequence
    timestep: np.ndarray      # [N] row within that sequence
    pseudo_class: np.ndarray  # [N] the row's pseudo label
    entropy: np.ndarray       # [N] the row's entropy

    def __len__(self):
        return len(self.sample)


def build_pool(decoded: Decoded, variant: str = "shannon") -> PredictionPool:
    """One row per emitted row of a greedy decode, in (sample, timestep)
    order, as its block holds them."""
    lengths = np.array([len(labels) for labels in decoded.labels], dtype=int)
    sample = np.repeat(np.arange(len(lengths)), lengths)
    timestep = np.arange(len(sample)) - (np.cumsum(lengths) - lengths)[sample]
    pseudo_class = np.fromiter(itertools.chain.from_iterable(decoded.labels),
                               dtype=int, count=len(sample))
    entropy = row_entropy(decoded.probs, variant)
    return PredictionPool(sample, timestep, pseudo_class, entropy.data[:, 0])


@dataclass
class ClassStat:
    pseudo_class: int
    pool_size: int     # n_c
    quota: int         # k_c
    mean_chosen: float # mean entropy of what was taken, nan if nothing


@dataclass
class SelectionResult:
    portion: float
    chosen: np.ndarray  # pool rows by (class, entropy, sample, timestep)
    stats: list[ClassStat]


def select(pool: PredictionPool, p_t: float) -> SelectionResult:
    """Take the ceil(n_c * p_t) most confident rows of every class.

    One stable sort orders the pool by (class, entropy, sample, timestep),
    so ties resolve the same way on every run; each class is then one
    contiguous segment whose prefix is its quota.
    """
    if not len(pool):
        raise ContractError("select: empty pool")
    if not 0.0 <= p_t <= 1.0:
        raise ContractError(f"select: portion {p_t} not in [0, 1]")
    entropy = pool.entropy
    order = np.lexsort((pool.timestep, pool.sample, entropy, pool.pseudo_class))
    cls = pool.pseudo_class[order]
    # a class segment starts wherever the sorted class changes
    starts = (np.flatnonzero(cls[1:] != cls[:-1]) + 1).tolist()
    taken, stats = [], []
    for start, end in zip([0, *starts], [*starts, len(cls)]):
        size = end - start
        quota = math.ceil(size * p_t)
        rows = order[start:start + quota]
        mean = sum(entropy[rows].tolist()) / quota if quota else float("nan")
        taken.append(rows)
        stats.append(ClassStat(int(cls[start]), size, quota, mean))
    return SelectionResult(p_t, np.concatenate(taken), stats)


def replay_plan(pool: PredictionPool, sel: SelectionResult
                ) -> tuple[np.ndarray, list[tuple[int, ...]], np.ndarray]:
    """What a replay of the chosen rows decodes: the samples with a chosen
    row, ascending; each one's whole pseudo-label sequence; and every chosen
    row's rank among those samples' pool rows, in pool order.  A forced
    decode of those sequences emits those pool rows one for one,
    sample-major, so a chosen row's rank is its index in that decode."""
    chosen = np.sort(sel.chosen)
    counts = np.bincount(pool.sample)   # each sample's pool rows
    picked = np.zeros(len(counts), dtype=bool)
    picked[pool.sample[chosen]] = True
    samples = np.flatnonzero(picked)
    replayed = picked[pool.sample]
    ends = np.cumsum(counts[samples]).tolist()
    classes = pool.pseudo_class[replayed].tolist()
    sequences = [tuple(classes[lo:hi]) for lo, hi in zip([0, *ends], ends)]
    return samples, sequences, np.cumsum(replayed)[chosen] - 1


def selected_entropy_loss(probs: Tensor, rows: np.ndarray,
                          variant: str = "shannon") -> Tensor | None:
    """Mean entropy of the given rows of a replayed decode's [S, K] block;
    None (nothing chosen) tells the caller to drop the term this step."""
    if not len(rows):
        return None
    entropy = row_entropy(T.gather_rows(probs, rows), variant)
    return T.mul(T.reduce_sum(entropy), 1.0 / len(rows))
