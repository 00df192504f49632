"""Class-balanced self-paced selection of confident character predictions.

Every emitted row of a greedy-decoded target batch (its Decoded block)
becomes one pool entry carrying its pseudo class and a differentiable
entropy value.  At step t a portion P_t = min(p_init + p_add*t, 1) is taken
from every class independently: the ceil(n_c * P_t) lowest-entropy entries
of class c.  The training term is the mean entropy of everything chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if self.p_add < 0.0:
            raise ContractError(f"pacing: p_add {self.p_add} < 0")


def portion_at(schedule: PacingSchedule, t: int) -> float:
    if t < 0:
        raise ContractError(f"portion_at: negative step {t}")
    return min(schedule.p_init + schedule.p_add * t, 1.0)


@dataclass(frozen=True)
class PoolEntry:
    sample: int        # batch position of the originating sequence
    timestep: int      # row within that sequence
    pseudo_class: int  # the row's pseudo label
    entropy: float     # plain value, for ordering
    index: int         # row in the pool's entropy column


@dataclass
class PredictionPool:
    entries: list[PoolEntry]
    column: Tensor     # [len(entries), 1] differentiable entropies

    def __len__(self):
        return len(self.entries)

    def by_class(self) -> dict[int, list[PoolEntry]]:
        groups: dict[int, list[PoolEntry]] = {}
        for e in self.entries:
            groups.setdefault(e.pseudo_class, []).append(e)
        return groups


def build_pool(decoded: Decoded, variant: str = "shannon") -> PredictionPool:
    """One entry per emitted row of the decode, in (sample, timestep)
    order; entropies stay attached to the live tape."""
    column = row_entropy(decoded.probs, variant)
    values = column.data[:, 0].tolist()
    spots = [(sample, t, label) for sample, labels in enumerate(decoded.labels)
             for t, label in enumerate(labels)]
    entries = [PoolEntry(sample, t, label, values[i], i)
               for i, (sample, t, label) in enumerate(spots)]
    return PredictionPool(entries, column)


@dataclass
class ClassStat:
    pseudo_class: int
    pool_size: int     # n_c
    quota: int         # k_c
    mean_chosen: float # mean entropy of what was taken, nan if nothing


@dataclass
class SelectionResult:
    portion: float
    chosen: list[PoolEntry] = field(default_factory=list)
    stats: list[ClassStat] = field(default_factory=list)

    @property
    def realized_portion(self) -> float:
        total = sum(s.pool_size for s in self.stats)
        return len(self.chosen) / total if total else 0.0


def select(pool: PredictionPool, schedule: PacingSchedule,
           t: int) -> SelectionResult:
    """Take the ceil(n_c * P_t) most confident entries of every class.

    Ordering within a class is ascending (entropy, sample, timestep), so
    ties resolve the same way on every run.
    """
    if not pool.entries:
        raise ContractError("select: empty pool")
    p_t = portion_at(schedule, t)
    result = SelectionResult(portion=p_t)
    groups = pool.by_class()
    for cls in sorted(groups):
        group = sorted(groups[cls],
                       key=lambda e: (e.entropy, e.sample, e.timestep))
        quota = math.ceil(len(group) * p_t)
        taken = group[:quota]
        mean = sum(e.entropy for e in taken) / quota if quota else float("nan")
        result.chosen.extend(taken)
        result.stats.append(ClassStat(cls, len(group), quota, mean))
    return result


def selected_entropy_loss(pool: PredictionPool,
                          sel: SelectionResult) -> Tensor | None:
    """Mean of the chosen entropy tensors; None tells the caller to drop
    the term this step."""
    if not sel.chosen:
        return None
    mask = np.zeros((1, len(pool.entries)))
    for e in sel.chosen:
        mask[0, e.index] = 1.0
    picked_sum = T.matmul(T.constant(mask), pool.column)
    return T.mul(picked_sum, 1.0 / len(sel.chosen))
