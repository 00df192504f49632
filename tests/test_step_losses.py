"""A training step's losses: the replay of the chosen samples' pseudo-label
sequences inside the labeled batch against a taped reference of greedy's
block built here from public ops, the EOS-only case, and the step's tape
size."""

import numpy as np
import pytest

import smile.tensor as T
from smile import checks
from smile.errors import ContractError
from smile.losses import decoder_loss, row_entropy, smile_loss
from smile.recognizer import DEC_HIDDEN, Decoded
from smile.self_paced import build_pool, portion_at, replay_plan, select
from smile.tensor import Tape
from smile.trainer import TrainConfig, step_losses, train_with_corpora

STEP = 40   # selection at t = 41: P = p_init + 41 * p_add


@pytest.fixture(scope="module")
def base(small_source):
    cfg = TrainConfig(mode="base", steps=60, batch_source=16, seed=3,
                      eval_every=10 ** 9)
    ck, _ = train_with_corpora(cfg, source=small_source)
    return ck


def batches(source, target, n_source=8, n_target=16, seed=0):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(source), n_source)
    tgt = rng.integers(0, len(target), n_target)
    return (source.images(idx), [source.labels[i] for i in idx],
            target.images(tgt))


def smile_cfg(variant="shannon", p_init=0.0, p_add=1e-3):
    return TrainConfig(mode="smile", entropy_variant=variant, p_init=p_init,
                       p_add=p_add)


def taped_greedy(rec, tgt_px):
    """greedy's block rebuilt on the tape: one attn_gru step over the whole
    batch per step, fed greedy's own tokens (GO first, PAD after a sample's
    EOS), a taped output head per step, and each sample's emitted rows
    picked sample-major."""
    p, vocab = rec.params, rec.vocab
    labels = rec.greedy(tgt_px).labels
    batch = len(labels)
    fed = np.full((batch, max(map(len, labels))), vocab.PAD)
    for b, seq in enumerate(labels):
        fed[b, :len(seq)] = (vocab.GO, *seq[:-1])
    feats, keys = rec.encode(tgt_px)
    h = T.zeros((batch, DEC_HIDDEN))
    heads = []
    for t in range(fed.shape[1]):
        h = T.attn_gru(keys, feats, p["embed/E"], fed[:, t], h,
                       p["attn/W_dec"], p["attn/v"], p["dec/W"], p["dec/b"],
                       p["dec/U"], lengths=np.ones(batch, int))
        heads.append(T.softmax(T.add(T.matmul(h, p["out/W"]), p["out/b"])))
    # step t of sample b is row t * batch + b of the stacked heads
    rows = [t * batch + b for b, seq in enumerate(labels)
            for t in range(len(seq))]
    block = T.gather_rows(T.concat(heads), rows)
    return Decoded(block, labels)


def reference(rec, cfg, src_px, src_labels, tgt_px):
    """The whole greedy block on the tape, every pool row's entropy, and
    the chosen ones summed by a 0/1 mask."""
    with Tape() as tape:
        l_dec = decoder_loss(rec.teacher_forced(src_px, src_labels))
        decoded = taped_greedy(rec, tgt_px)
        column = row_entropy(decoded.probs, cfg.entropy_variant)
        pool = build_pool(decoded, cfg.entropy_variant)
        sel = select(pool, portion_at(cfg.p_init, cfg.p_add, STEP + 1))
        mask = np.zeros((1, len(pool)))
        mask[0, sel.chosen] = 1.0
        l_ent = T.mul(T.matmul(T.constant(mask), column),
                      1.0 / len(sel.chosen))
        tape.backward(smile_loss(l_dec, l_ent, cfg.lam))
    return l_dec.item(), l_ent.item(), sel


def replayed(rec, cfg, src_px, src_labels, tgt_px):
    with Tape() as tape:
        l_dec, l_ent, _, sel = step_losses(rec, cfg, STEP, src_px,
                                           src_labels, tgt_px)
        tape.backward(smile_loss(l_dec, l_ent, cfg.lam))
    return l_dec.item(), l_ent.item(), sel


def grads(rec):
    out = {n: p.grad.copy() for n, p in rec.params.items()}
    for p in rec.params.values():
        p.zero_grad()
    return out


def assert_matches_reference(rec, cfg, src_px, src_labels, tgt_px):
    want_dec, want_ent, want_sel = reference(rec, cfg, src_px, src_labels,
                                             tgt_px)
    want = grads(rec)
    got_dec, got_ent, got_sel = replayed(rec, cfg, src_px, src_labels,
                                         tgt_px)
    got = grads(rec)
    assert got_sel.chosen.tolist() == want_sel.chosen.tolist()
    assert abs(got_dec - want_dec) < 1e-12
    assert abs(got_ent - want_ent) < 1e-12
    for name in want:
        assert np.abs(got[name] - want[name]).max() < 1e-12, name
    return got_sel


@pytest.mark.parametrize("variant", ["shannon", "pseudo_nll"])
@pytest.mark.parametrize("p_init", [0.0, 1.0])
def test_replay_matches_taped_greedy_reference(base, small_source,
                                               small_target, variant,
                                               p_init):
    rec = base.restore()
    cfg = smile_cfg(variant, p_init)
    sel = assert_matches_reference(rec, cfg,
                                   *batches(small_source, small_target))
    pool_rows = sum(s.pool_size for s in sel.stats)
    if p_init == 1.0:
        assert len(sel.chosen) == pool_rows
    else:
        assert 0 < len(sel.chosen) < pool_rows


def test_replay_rebuilds_each_chosen_sample_whole(base, small_source,
                                                  small_target):
    # a replayed sample decodes its whole greedy sequence, chosen rows or
    # not: every row equals greedy's, and its tokens are greedy's labels
    rec = base.restore()
    src_px, src_labels, tgt_px = batches(small_source, small_target)
    greedy = rec.greedy(tgt_px)
    pool = build_pool(greedy)
    sel = select(pool, portion_at(0.0, 1e-3, STEP + 1))
    samples, sequences, rows = replay_plan(pool, sel)
    # some replayed sample has an unchosen row after its last chosen one
    chosen = np.sort(sel.chosen)
    last = dict(zip(pool.sample[chosen].tolist(),
                    pool.timestep[chosen].tolist()))
    assert any(t + 1 < len(greedy.labels[s]) for s, t in last.items())
    decoded = rec.teacher_forced(src_px, src_labels,
                                 (tgt_px[samples], sequences))
    assert decoded.labels[len(src_labels):] == [greedy.labels[b]
                                                for b in samples.tolist()]
    # the replayed rows, sample-major, against the same samples' pool rows
    replay = decoded.probs.data[
        sum(map(len, decoded.head(len(src_labels)).labels)):]
    want = greedy.probs.data[np.isin(pool.sample, samples)]
    assert replay.shape == want.shape
    assert np.abs(replay - want).max() < 1e-12
    # and each chosen row is read from its own pool row's place
    assert np.abs(replay[rows] - greedy.probs.data[chosen]).max() < 1e-12


def test_empty_prefixes_replay_an_eos_first_decode(base, small_source,
                                                   small_target):
    # every replayed sequence is the lone EOS, unlike any label.  An EOS
    # bias of 50 saturates every row: l_ent is about 6e-20 and its
    # gradient about e^-50, so the 1e-12 comparison passes whatever the
    # entropy term does and checks only the decoder loss and the selection.
    # A bias of 5 still starts every decode with EOS, with an entropy
    # gradient of about 0.26 that the comparison does see.
    src_px, src_labels, tgt_px = batches(small_source, small_target)
    for bias in (50.0, 5.0):
        rec = base.restore()
        rec.params["out/b"].data[0, rec.vocab.EOS] = bias
        assert all(labels == (rec.vocab.EOS,)
                   for labels in rec.greedy(tgt_px).labels)
        assert_matches_reference(rec, smile_cfg(p_init=0.5), src_px,
                                 src_labels, tgt_px)
    with pytest.raises(ContractError):
        rec.teacher_forced(tgt_px[:1], [()])


def test_lambda_zero_replays_nothing(base, small_source, small_target):
    rec = base.restore()
    src_px, src_labels, tgt_px = batches(small_source, small_target)
    cfg = TrainConfig(mode="smile", lam=0.0, p_init=1.0)
    with Tape() as tape:
        l_dec, l_ent, pool, sel = step_losses(rec, cfg, 0, src_px,
                                              src_labels, tgt_px)
        smile_nodes = len(tape)
    with Tape() as tape:
        decoder_loss(rec.teacher_forced(src_px, src_labels))
        base_nodes = len(tape)
    assert l_ent is None and len(sel.chosen) == len(pool)
    assert smile_nodes == base_nodes


@pytest.mark.parametrize("variant, nodes", [("shannon", 24),
                                            ("pseudo_nll", 23)])
def test_smile_step_tape_size(base, small_source, small_target, variant,
                              nodes):
    rec = base.restore()
    src_px, src_labels, tgt_px = batches(small_source, small_target,
                                         n_source=32, n_target=64, seed=4)
    cfg = smile_cfg(variant, p_add=5e-5)
    with Tape() as tape:
        l_dec, l_ent, pool, sel = step_losses(rec, cfg, 0, src_px,
                                              src_labels, tgt_px)
        smile_loss(l_dec, l_ent, cfg.lam)
        ops = [fn.__qualname__.split(".")[0] for _, fn in tape._nodes]
    assert 0 < len(sel.chosen) < len(pool) // 4
    # one taped encode and decode; greedy, pool and selection stay off it,
    # and both losses pick from the decode's softmax block by (row, column)
    # with no reshape; pseudo_nll's entropy is one pick where shannon's is
    # a product and a row sum
    assert ops.count("tanh") == 1
    assert ops.count("reshape") == 0
    assert len(ops) == nodes


def test_check_model_samples_each_stored_tensor(monkeypatch):
    # A1 perturbs 8 coordinates of each of the 26 stored (per-gate) tensors:
    # a fused GRU tensor takes three tensors' share; each coordinate costs
    # two loss evaluations after the taped one
    calls = []

    def counted(*args):
        calls.append(args)
        return step_losses(*args)

    monkeypatch.setattr(checks, "step_losses", counted)
    assert checks.check_model().ok
    assert len(calls) == 1 + 2 * 8 * 26
