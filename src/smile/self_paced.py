"""Class-balanced self-paced selection of confident character predictions.

Every emitted row of a greedy-decoded target batch (its Decoded block)
becomes one pool row: sample, timestep, pseudo class and entropy in aligned
numpy arrays.  The decode runs off the tape, so the pool is plain data.  At
step t a portion P_t = min(p_init + p_add*t, 1) is taken from every class
independently: the ceil(n_c * P_t) lowest-entropy rows of class c.

The training term is the mean entropy of the chosen rows, rebuilt on the
tape by replay.  Greedy feeds back its own picks, so a teacher-forced
decode fed a sample's pseudo labels up to its last chosen timestep rebuilds
the same states; unchosen rows after that are never decoded again.
replay_plan gives those prefixes and where each chosen row lands in the
replayed block, and selected_entropy_loss reads just those rows.
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


@dataclass(frozen=True)
class PacingSchedule:
    p_init: float = 0.0
    p_add: float = 5e-5

    def __post_init__(self):
        if not 0.0 <= self.p_init <= 1.0:
            raise ContractError(f"pacing: p_init {self.p_init} not in [0,1]")
        if not 0.0 <= self.p_add < math.inf:
            raise ContractError(f"pacing: p_add {self.p_add} not in [0, inf)")


def portion_at(schedule: PacingSchedule, t: int) -> float:
    if t < 0:
        raise ContractError(f"portion_at: negative step {t}")
    return min(schedule.p_init + schedule.p_add * t, 1.0)


@dataclass
class PredictionPool:
    sample: np.ndarray        # [N] batch position of the originating sequence
    timestep: np.ndarray      # [N] row within that sequence
    pseudo_class: np.ndarray  # [N] the row's pseudo label
    entropy: np.ndarray       # [N] the row's entropy

    def __len__(self):
        return len(self.sample)


def build_pool(decoded: Decoded, variant: str = "shannon") -> PredictionPool:
    """One row per emitted row of the decode, in (sample, timestep) order."""
    lengths = np.array([len(labels) for labels in decoded.labels], dtype=int)
    sample = np.repeat(np.arange(len(lengths)), lengths)
    timestep = np.arange(len(sample)) - (np.cumsum(lengths) - lengths)[sample]
    pseudo_class = np.fromiter(itertools.chain.from_iterable(decoded.labels),
                               dtype=int, count=len(sample))
    entropy = row_entropy(T.gather_rows(decoded.probs, decoded.rows), variant)
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


def select(pool: PredictionPool, schedule: PacingSchedule,
           t: int) -> SelectionResult:
    """Take the ceil(n_c * P_t) most confident rows of every class.

    One stable sort orders the pool by (class, entropy, sample, timestep),
    so ties resolve the same way on every run; each class is then one
    contiguous segment whose prefix is its quota.
    """
    if not len(pool):
        raise ContractError("select: empty pool")
    p_t = portion_at(schedule, t)
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
    row, ascending; each one's pseudo-label prefix up to its last chosen
    timestep (empty when that is t = 0); and every chosen row's index in
    the sample-major block a forced decode of those prefixes emits, in pool
    order.  sel must have chosen at least one row."""
    chosen = np.sort(sel.chosen)
    sample = pool.sample[chosen]
    step = pool.timestep[chosen]
    # in pool order a sample's chosen rows are one run ending at its last
    new_run = sample[1:] != sample[:-1]
    last = np.flatnonzero(np.append(new_run, True))
    ends = chosen[last]                 # pool row of each last chosen row
    lengths = step[last] + 1            # rows each replayed sample emits
    run = np.append(0, np.cumsum(new_run))
    rows = (np.cumsum(lengths) - lengths)[run] + step
    classes = pool.pseudo_class.tolist()
    prefixes = [tuple(classes[end - n + 1:end])
                for end, n in zip(ends.tolist(), lengths.tolist())]
    return sample[last], prefixes, rows


def selected_entropy_loss(probs: Tensor, rows: np.ndarray,
                          variant: str = "shannon") -> Tensor | None:
    """Mean entropy of the given rows of a replayed decode's [S, K] block;
    None (nothing chosen) tells the caller to drop the term this step."""
    if not len(rows):
        return None
    entropy = row_entropy(T.gather_rows(probs, rows), variant)
    return T.mul(T.reduce_sum(entropy), 1.0 / len(rows))
