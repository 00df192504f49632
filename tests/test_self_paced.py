"""Pacing schedule, pool construction, class-balanced selection against a
brute-force oracle, and the selected-mean loss."""

import math

import numpy as np
import pytest

import smile.tensor as T
from smile.errors import ContractError
from smile.losses import step_entropy
from smile.recognizer import Decoded
from smile.self_paced import (PacingSchedule, PoolEntry, PredictionPool,
                              build_pool, portion_at, select,
                              selected_entropy_loss)
from smile.tensor import Tape


def output_from(*samples) -> Decoded:
    """A decoded batch holding each sample's rows, in order."""
    probs = T.constant(np.concatenate(samples).astype(np.float64))
    return Decoded(probs, [tuple(int(np.argmax(r)) for r in rows)
                           for rows in samples])


def pool_from_entropies(values, classes=None):
    """A pool with given entropy values; column built from a leaf so the
    loss stays differentiable."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    leaf = T.parameter(values.copy())
    with Tape():
        column = T.mul(leaf, 1.0)
    entries = [PoolEntry(sample=i, timestep=0,
                         pseudo_class=0 if classes is None else classes[i],
                         entropy=float(values[i, 0]), index=i)
               for i in range(len(values))]
    return PredictionPool(entries, column), leaf


# -- schedule -----------------------------------------------------------------

def test_portion_at_exact_values():
    s = PacingSchedule(0.0, 5e-5)
    assert portion_at(s, 0) == 0.0
    assert portion_at(s, 1) == 5e-5
    assert portion_at(s, 20000) == 1.0
    assert portion_at(s, 10 ** 6) == 1.0
    assert portion_at(PacingSchedule(0.3, 1e-4), 7000) == 1.0
    assert portion_at(PacingSchedule(0.3, 1e-4), 1000) == pytest.approx(0.4)


def test_portion_at_nondecreasing():
    s = PacingSchedule(0.1, 3e-4)
    vals = [portion_at(s, t) for t in range(0, 5000, 50)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


def test_schedule_validation():
    with pytest.raises(ContractError):
        PacingSchedule(-0.1, 0.0)
    with pytest.raises(ContractError):
        PacingSchedule(1.1, 0.0)
    with pytest.raises(ContractError):
        PacingSchedule(0.0, -1e-6)
    with pytest.raises(ContractError):
        portion_at(PacingSchedule(0.0, 0.0), -1)


# -- pool construction --------------------------------------------------------

def test_build_pool_counts_every_emitted_row(rng):
    rows_a = rng.random((3, 6)) + 0.1
    rows_a /= rows_a.sum(axis=1, keepdims=True)
    rows_b = rng.random((2, 6)) + 0.1
    rows_b /= rows_b.sum(axis=1, keepdims=True)
    pool = build_pool(output_from(rows_a, rows_b))
    assert len(pool) == 5
    assert pool.column.shape == (5, 1)
    spots = [(e.sample, e.timestep) for e in pool.entries]
    assert spots == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert [e.index for e in pool.entries] == [0, 1, 2, 3, 4]


def test_build_pool_entropies_match_step_entropy(rng):
    rows = rng.random((4, 5)) + 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    for variant in ("shannon", "pseudo_nll"):
        pool = build_pool(output_from(rows), variant)
        for e in pool.entries:
            want = step_entropy(T.constant(rows[e.timestep:e.timestep + 1]),
                                variant).item()
            assert abs(e.entropy - want) < 1e-12
            assert abs(float(pool.column.data[e.index, 0]) - want) < 1e-12


def test_build_pool_one_hot_rows():
    rows = np.zeros((3, 9))
    rows[:, 7] = 1.0
    pool = build_pool(output_from(rows))
    groups = pool.by_class()
    assert set(groups) == {7}
    assert all(abs(e.entropy) < 1e-10 for e in pool.entries)


def test_build_pool_grouping_matches_recount(rng):
    samples = []
    for _ in range(6):
        t = int(rng.integers(1, 5))
        rows = rng.random((t, 7)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        samples.append(rows)
    pool = build_pool(output_from(*samples))
    groups = pool.by_class()
    flat = [e for group in groups.values() for e in group]
    assert sorted(e.index for e in flat) == list(range(len(pool)))
    for cls, group in groups.items():
        assert all(e.pseudo_class == cls for e in group)


# -- selection ----------------------------------------------------------------

def brute_force_select(entries, p_t):
    """Independent reimplementation: full sort per class, ceiling prefix."""
    chosen = []
    classes = sorted({e.pseudo_class for e in entries})
    for cls in classes:
        group = sorted((e for e in entries if e.pseudo_class == cls),
                       key=lambda e: (e.entropy, e.sample, e.timestep))
        k = math.ceil(len(group) * p_t)
        chosen.extend(group[:k])
    return chosen


def test_select_worked_example():
    pool, _ = pool_from_entropies([0.9, 0.1, 0.5])
    sel = select(pool, PacingSchedule(0.34, 0.0), t=0)
    assert sel.stats[0].quota == 2
    assert sorted(e.entropy for e in sel.chosen) == [0.1, 0.5]


def test_select_full_portion_takes_everything(rng):
    vals = rng.random(17)
    classes = list(rng.integers(0, 4, 17))
    pool, _ = pool_from_entropies(vals, classes)
    sel = select(pool, PacingSchedule(1.0, 0.0), t=0)
    assert len(sel.chosen) == 17
    assert sel.realized_portion == 1.0


def test_select_zero_portion_takes_nothing():
    pool, _ = pool_from_entropies([0.3, 0.2])
    sel = select(pool, PacingSchedule(0.0, 1e-4), t=0)
    assert sel.chosen == []
    assert all(s.quota == 0 for s in sel.stats)
    assert math.isnan(sel.stats[0].mean_chosen)


def test_select_ceiling_never_starves_classes():
    # tiny portion still takes one entry from every represented class
    pool, _ = pool_from_entropies([0.5, 0.4, 0.3, 0.2, 0.1],
                                  classes=[0, 0, 1, 1, 2])
    sel = select(pool, PacingSchedule(0.01, 0.0), t=0)
    assert {s.pseudo_class: s.quota for s in sel.stats} == {0: 1, 1: 1, 2: 1}
    assert sorted(e.entropy for e in sel.chosen) == [0.1, 0.2, 0.4]


def test_select_tie_break_is_deterministic():
    entries = [PoolEntry(sample=s, timestep=t, pseudo_class=0, entropy=0.5,
                         index=s * 2 + t)
               for s in (1, 0) for t in (1, 0)]
    column = T.constant(np.full((4, 1), 0.5))
    sel = select(PredictionPool(entries, column), PacingSchedule(0.5, 0.0), 0)
    assert [(e.sample, e.timestep) for e in sel.chosen] == [(0, 0), (0, 1)]


def test_select_matches_brute_force_oracle(rng):
    for trial in range(100):
        n_classes = int(rng.integers(1, 7))
        entries = []
        idx = 0
        for cls in range(n_classes):
            for _ in range(int(rng.integers(1, 12))):
                entries.append(PoolEntry(
                    sample=int(rng.integers(0, 6)),
                    timestep=int(rng.integers(0, 5)),
                    pseudo_class=cls,
                    entropy=float(rng.choice([0.1, 0.2, 0.3, 0.7,
                                              rng.random()])),
                    index=idx))
                idx += 1
        pool = PredictionPool(entries, T.constant(np.zeros((idx, 1))))
        schedule = PacingSchedule(float(rng.random()), float(rng.random() * 1e-3))
        t = int(rng.integers(0, 3000))
        sel = select(pool, schedule, t)
        want = brute_force_select(entries, portion_at(schedule, t))
        assert [e.index for e in sel.chosen] == [e.index for e in want]
        for s in sel.stats:
            assert s.quota == math.ceil(s.pool_size * sel.portion)


def test_select_rejects_empty_pool():
    pool = PredictionPool([], T.constant(np.zeros((0, 1))))
    with pytest.raises(ContractError):
        select(pool, PacingSchedule(0.5, 0.0), 0)


def test_selection_grows_monotonically():
    rng = np.random.default_rng(3)
    vals = rng.random(30)
    classes = list(rng.integers(0, 3, 30))
    pool, _ = pool_from_entropies(vals, classes)
    schedule = PacingSchedule(0.0, 1e-3)
    prev: set[int] = set()
    for t in (100, 300, 500, 900):
        chosen = {e.index for e in select(pool, schedule, t).chosen}
        assert prev <= chosen
        prev = chosen


# -- selected mean loss -------------------------------------------------------

def test_selected_entropy_loss_is_mean_of_chosen():
    pool, _ = pool_from_entropies([0.2, 0.4, 0.9])
    sel = select(pool, PacingSchedule(0.5, 0.0), t=0)
    loss = selected_entropy_loss(pool, sel)
    assert abs(loss.item() - 0.3) < 1e-12


def test_selected_entropy_loss_single_entry():
    pool, _ = pool_from_entropies([0.4])
    sel = select(pool, PacingSchedule(1.0, 0.0), t=0)
    assert abs(selected_entropy_loss(pool, sel).item() - 0.4) < 1e-12


def test_selected_entropy_loss_empty_selection_signals_skip():
    pool, _ = pool_from_entropies([0.4, 0.1])
    sel = select(pool, PacingSchedule(0.0, 1e-4), t=0)
    assert selected_entropy_loss(pool, sel) is None


def test_unchosen_entries_get_zero_gradient():
    values = [0.9, 0.1, 0.5, 0.7]
    leaf_values = np.asarray(values).reshape(-1, 1)
    leaf = T.parameter(leaf_values.copy())
    entries = [PoolEntry(i, 0, 0, values[i], i) for i in range(4)]
    with Tape() as tape:
        column = T.mul(leaf, 1.0)
        pool = PredictionPool(entries, column)
        sel = select(pool, PacingSchedule(0.5, 0.0), t=0)
        loss = selected_entropy_loss(pool, sel)
        tape.backward(loss)
    # quota = ceil(4*0.5) = 2 -> entries with entropies 0.1 and 0.5
    assert np.allclose(leaf.grad.reshape(-1), [0.0, 0.5, 0.5, 0.0])
