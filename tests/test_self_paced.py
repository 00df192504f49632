"""The pacing portion, pool construction, class-balanced selection against a
brute-force oracle, the replay plan, and the selected-mean loss."""

import math

import numpy as np
import pytest

import smile.tensor as T
from smile.errors import ContractError
from smile.losses import row_entropy
from smile.self_paced import (PredictionPool, build_pool, portion_at,
                              replay_plan, select, selected_entropy_loss)
from smile.tensor import Tape

from conftest import decoded_from


def pool_of(sample, timestep, classes, entropy) -> PredictionPool:
    return PredictionPool(np.asarray(sample, dtype=int),
                          np.asarray(timestep, dtype=int),
                          np.asarray(classes, dtype=int),
                          np.asarray(entropy, dtype=np.float64))


def pool_from_entropies(values, classes=None):
    """A pool with given entropy values, one sample per row."""
    n = len(values)
    classes = [0] * n if classes is None else classes
    return pool_of(range(n), [0] * n, classes, values)


def rows_with_nll(values, k=4) -> np.ndarray:
    """[N, k] rows whose pseudo_nll entropy (-log of the top probability,
    in column 0) is each value; needs values below log(k)."""
    top = np.exp(-np.asarray(values, dtype=np.float64))
    rows = np.repeat(((1.0 - top) / (k - 1))[:, None], k, axis=1)
    rows[:, 0] = top
    return rows


# -- pacing portion -----------------------------------------------------------

def test_portion_at_exact_values():
    assert portion_at(0.0, 5e-5, 0) == 0.0
    assert portion_at(0.0, 5e-5, 1) == 5e-5
    assert portion_at(0.0, 5e-5, 20000) == 1.0
    assert portion_at(0.0, 5e-5, 10 ** 6) == 1.0
    assert portion_at(0.3, 1e-4, 7000) == 1.0
    assert portion_at(0.3, 1e-4, 1000) == pytest.approx(0.4)


def test_portion_at_nondecreasing():
    vals = [portion_at(0.1, 3e-4, t) for t in range(0, 5000, 50)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


def test_schedule_validation():
    # TrainConfig checks p_init and p_add (test_trainer); a step is checked
    # here
    with pytest.raises(ContractError, match="portion_at: negative step -1"):
        portion_at(0.0, 0.0, -1)


# -- pool construction --------------------------------------------------------

def test_build_pool_counts_every_emitted_row(rng):
    rows_a = rng.random((3, 6)) + 0.1
    rows_a /= rows_a.sum(axis=1, keepdims=True)
    rows_b = rng.random((2, 6)) + 0.1
    rows_b /= rows_b.sum(axis=1, keepdims=True)
    pool = build_pool(decoded_from(rows_a, rows_b))
    assert len(pool) == 5
    assert pool.entropy.shape == (5,)
    spots = list(zip(pool.sample.tolist(), pool.timestep.tolist()))
    assert spots == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert pool.pseudo_class.tolist() == (list(np.argmax(rows_a, axis=1))
                                          + list(np.argmax(rows_b, axis=1)))


def test_build_pool_entropies_match_step_entropy(rng):
    rows = rng.random((4, 5)) + 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    for variant in ("shannon", "pseudo_nll"):
        pool = build_pool(decoded_from(rows), variant)
        for i, t in enumerate(pool.timestep.tolist()):
            want = row_entropy(T.constant(rows[t:t + 1]), variant).item()
            assert abs(float(pool.entropy[i]) - want) < 1e-12


def test_build_pool_one_hot_rows():
    rows = np.zeros((3, 9))
    rows[:, 7] = 1.0
    pool = build_pool(decoded_from(rows))
    assert pool.pseudo_class.tolist() == [7, 7, 7]
    assert np.all(np.abs(pool.entropy) < 1e-10)


def test_build_pool_grouping_matches_recount(rng):
    samples = []
    for _ in range(6):
        t = int(rng.integers(1, 5))
        rows = rng.random((t, 7)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        samples.append(rows)
    decoded = decoded_from(*samples)
    pool = build_pool(decoded)
    assert len(pool) == sum(len(rows) for rows in samples)
    assert pool.pseudo_class.tolist() == [label for labels in decoded.labels
                                          for label in labels]
    for b, rows in enumerate(samples):
        mine = [i for i in range(len(pool)) if pool.sample[i] == b]
        assert mine == list(range(mine[0], mine[0] + len(rows)))
        assert pool.timestep[mine].tolist() == list(range(len(rows)))


# -- selection ----------------------------------------------------------------

def brute_force_select(pool, p_t):
    """Independent reimplementation: full sort per class, ceiling prefix;
    returns pool rows."""
    entropy = pool.entropy.tolist()
    chosen = []
    classes = sorted(set(pool.pseudo_class.tolist()))
    for cls in classes:
        group = sorted((i for i in range(len(pool))
                        if pool.pseudo_class[i] == cls),
                       key=lambda i: (entropy[i], pool.sample[i],
                                      pool.timestep[i]))
        k = math.ceil(len(group) * p_t)
        chosen.extend(group[:k])
    return chosen


def test_select_worked_example():
    pool = pool_from_entropies([0.9, 0.1, 0.5])
    sel = select(pool, 0.34)
    assert sel.stats[0].quota == 2
    assert sel.chosen.tolist() == [1, 2]


def test_select_full_portion_takes_everything(rng):
    vals = rng.random(17)
    classes = list(rng.integers(0, 4, 17))
    pool = pool_from_entropies(vals, classes)
    sel = select(pool, 1.0)
    assert len(sel.chosen) == 17


def test_select_zero_portion_takes_nothing():
    pool = pool_from_entropies([0.3, 0.2])
    sel = select(pool, 0.0)
    assert len(sel.chosen) == 0
    assert all(s.quota == 0 for s in sel.stats)
    assert math.isnan(sel.stats[0].mean_chosen)


def test_select_ceiling_never_starves_classes():
    # tiny portion still takes one entry from every represented class
    pool = pool_from_entropies([0.5, 0.4, 0.3, 0.2, 0.1],
                                  classes=[0, 0, 1, 1, 2])
    sel = select(pool, 0.01)
    assert {s.pseudo_class: s.quota for s in sel.stats} == {0: 1, 1: 1, 2: 1}
    assert sel.chosen.tolist() == [1, 3, 4]


def test_select_tie_break_is_deterministic():
    pool = pool_of([1, 1, 0, 0], [1, 0, 1, 0], [0] * 4, np.full(4, 0.5))
    sel = select(pool, 0.5)
    assert sel.chosen.tolist() == [3, 2]   # (sample 0, t 0), (sample 0, t 1)


def test_select_matches_brute_force_oracle(rng):
    for trial in range(100):
        n_classes = int(rng.integers(1, 7))
        rows = []   # (sample, timestep, class, entropy), drawn in that order
        for cls in range(n_classes):
            for _ in range(int(rng.integers(1, 12))):
                rows.append((int(rng.integers(0, 6)), int(rng.integers(0, 5)),
                             cls, float(rng.choice([0.1, 0.2, 0.3, 0.7,
                                                    rng.random()]))))
        sample, timestep, classes, entropy = zip(*rows)
        pool = pool_of(sample, timestep, classes, entropy)
        p_t = portion_at(float(rng.random()), float(rng.random() * 1e-3),
                         int(rng.integers(0, 3000)))
        sel = select(pool, p_t)
        want = brute_force_select(pool, p_t)
        assert sel.chosen.tolist() == want
        for s in sel.stats:
            assert s.quota == math.ceil(s.pool_size * sel.portion)


def test_select_rejects_empty_pool():
    pool = pool_of([], [], [], [])
    with pytest.raises(ContractError):
        select(pool, 0.5)


@pytest.mark.parametrize("p_t", [-0.1, 1.5, math.nan])
def test_select_refuses_a_portion_outside_the_unit_interval(p_t):
    pool = pool_from_entropies([0.3, 0.2])
    with pytest.raises(ContractError, match=f"select: portion {p_t} not in "
                                            r"\[0, 1\]"):
        select(pool, p_t)


def test_selection_grows_monotonically():
    rng = np.random.default_rng(3)
    vals = rng.random(30)
    classes = list(rng.integers(0, 3, 30))
    pool = pool_from_entropies(vals, classes)
    prev: set[int] = set()
    for t in (100, 300, 500, 900):
        chosen = set(select(pool, portion_at(0.0, 1e-3, t)).chosen.tolist())
        assert prev <= chosen
        prev = chosen


# -- replay plan --------------------------------------------------------------

def test_replay_plan_worked_example():
    # sample 0: 3 rows, sample 1: 2 rows, sample 2: 4 rows, pool order
    pool = pool_of([0, 0, 0, 1, 1, 2, 2, 2, 2], [0, 1, 2, 0, 1, 0, 1, 2, 3],
                   [5, 6, 9, 7, 9, 4, 3, 2, 9],
                   [0.9, 0.8, 0.1, 0.7, 0.6, 0.5, 0.05, 0.4, 0.3])
    sel = select(pool, 0.4)
    # one row per class here: 5,6,7,4,3,2 are singletons, 9 takes 2 of 3
    assert sorted(sel.chosen.tolist()) == [0, 1, 2, 3, 5, 6, 7, 8]
    samples, sequences, rows = replay_plan(pool, sel)
    assert samples.tolist() == [0, 1, 2]
    # every replayed sample decodes its whole pseudo-label sequence
    assert sequences == [(5, 6, 9), (7, 9), (4, 3, 2, 9)]
    # blocks of 3, 2 and 4 rows, as in the pool: unchosen row 4 is decoded
    # but not read
    assert rows.tolist() == [0, 1, 2, 3, 5, 6, 7, 8]


def test_replay_plan_skips_unchosen_samples_and_tails():
    pool = pool_of([0, 0, 0, 1, 1, 2, 2], [0, 1, 2, 0, 1, 0, 1],
                   [0, 1, 3, 0, 3, 1, 3],
                   [0.9, 0.1, 0.2, 0.3, 0.9, 0.5, 0.9])
    sel = select(pool, 0.01)
    assert sorted(sel.chosen.tolist()) == [1, 2, 3]   # one per class
    samples, sequences, rows = replay_plan(pool, sel)
    # sample 2's rows were not chosen, so it is not replayed; sample 1's
    # unchosen t = 1 tail is decoded with it but not read
    assert samples.tolist() == [0, 1]
    assert sequences == [(0, 1, 3), (0, 3)]
    assert rows.tolist() == [1, 2, 3]


def test_unchosen_prefix_rows_get_zero_gradient():
    # only sample 0's t = 1 row is chosen: its replay decodes the whole
    # sequence, and the t = 0 and t = 2 rows carry no entropy loss
    pool = pool_of([0, 0, 0], [0, 1, 2], [0, 0, 0], [0.9, 0.1, 0.8])
    sel = select(pool, 0.2)
    _, sequences, rows = replay_plan(pool, sel)
    assert sequences == [(0, 0, 0)] and rows.tolist() == [1]
    leaf = T.parameter(rows_with_nll([0.9, 0.1, 0.8]))
    with Tape() as tape:
        loss = selected_entropy_loss(leaf, rows, "pseudo_nll")
        tape.backward(loss)
    assert np.all(leaf.grad[[0, 2]] == 0.0)
    assert leaf.grad[1, 0] == pytest.approx(-1.0 / np.exp(-0.1))


# -- selected mean loss -------------------------------------------------------

def test_selected_entropy_loss_is_mean_of_chosen():
    values = [0.2, 0.4, 0.9]
    pool = pool_from_entropies(values)
    sel = select(pool, 0.5)
    loss = selected_entropy_loss(T.constant(rows_with_nll(values)),
                                 sel.chosen, "pseudo_nll")
    assert abs(loss.item() - 0.3) < 1e-12


def test_selected_entropy_loss_single_entry():
    pool = pool_from_entropies([0.4])
    sel = select(pool, 1.0)
    loss = selected_entropy_loss(T.constant(rows_with_nll([0.4])),
                                 sel.chosen, "pseudo_nll")
    assert abs(loss.item() - 0.4) < 1e-12


def test_selected_entropy_loss_empty_selection_signals_skip():
    pool = pool_from_entropies([0.4, 0.1])
    sel = select(pool, 0.0)
    assert selected_entropy_loss(T.constant(rows_with_nll([0.4, 0.1])),
                                 sel.chosen) is None


def test_unchosen_entries_get_zero_gradient():
    values = [0.9, 0.1, 0.5, 0.7]
    pool = pool_from_entropies(values)
    sel = select(pool, 0.5)
    leaf = T.parameter(rows_with_nll(values))
    with Tape() as tape:
        loss = selected_entropy_loss(leaf, sel.chosen, "pseudo_nll")
        tape.backward(loss)
    # quota = ceil(4*0.5) = 2 -> entries with entropies 0.1 and 0.5; the
    # mean of -log p_top gives each chosen top probability -1 / (2 p_top)
    want = np.zeros_like(leaf.data)
    for i in (1, 2):
        want[i, 0] = -0.5 / np.exp(-values[i])
    assert np.allclose(leaf.grad, want, rtol=1e-12, atol=0.0)
