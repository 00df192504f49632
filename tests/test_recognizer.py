"""Recognizer forward passes: parameter layout, decoding shapes and
invariants, and batch-independence of the batched attention kernels."""

import numpy as np
import pytest

from smile.checks import grad_check
from smile.data import VocabSpec, build_glyph12
from smile.errors import ContractError, DimensionError
from smile.losses import decoder_loss
from smile import tensor as T
from smile.recognizer import (ATTN_DIM, D_FEAT, DEC_HIDDEN, EMBED_DIM,
                              ENC_HIDDEN, Recognizer, fuse_gates, init_params,
                              param_shapes, split_gates)
from smile.tensor import Tape

from conftest import decoded_from


@pytest.fixture(scope="module")
def rec():
    return Recognizer.fresh(VocabSpec("ABCD"), l_max=3, seed=9)


def some_pixels(n, l_max, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 8, 8 * l_max))


# -- parameters ---------------------------------------------------------------

def test_arch_conventions():
    assert (D_FEAT, ENC_HIDDEN, EMBED_DIM) == (32, 32, 16)
    assert DEC_HIDDEN == 2 * ENC_HIDDEN
    assert ATTN_DIM == D_FEAT


def per_gate_draws(K, seed):
    """The parameters drawn per gate from one stream in param_shapes order,
    as init_params draws them before fusing."""
    rng = np.random.default_rng(seed)
    return {name: np.zeros(shape) if name.rsplit("/", 1)[1].startswith("b")
            else rng.uniform(-1 / np.sqrt(shape[0]), 1 / np.sqrt(shape[0]),
                             shape)
            for name, shape in param_shapes(K).items()}


def check_fused_columns(p, K, seed):
    draws = per_gate_draws(K, seed)
    gru = [n for n in p if n.split("/")[0] in ("enc", "dec")]
    for name in gru:
        assert np.array_equal(p[name].data, np.hstack(
            [draws[f"{name}_{g}"] for g in "zrn"])), name
    for name in set(p) - set(gru):
        assert np.array_equal(p[name].data, draws[name]), name
    assert len(draws) == len(p) + 2 * len(gru)


def test_init_params_layout():
    p = init_params(7, seed=0)
    assert p["proj/W"].shape == (64, 32)
    assert p["enc/W"].shape == (32, 3 * 32)
    assert p["enc/U"].shape == (32, 3 * 32)
    assert p["enc/b"].shape == (1, 3 * 32)
    assert p["attn/W_enc"].shape == (32, 32)
    assert p["attn/W_dec"].shape == (64, 32)
    assert p["attn/v"].shape == (32, 1)
    assert p["embed/E"].shape == (7, 16)
    assert p["dec/W"].shape == (32 + 16, 3 * 64)
    assert p["dec/U"].shape == (64, 3 * 64)
    assert p["out/W"].shape == (64, 7)
    assert len(p) == 14
    for name, t in p.items():
        if name.endswith("/b"):
            assert (t.data == 0).all(), name
        else:
            bound = 1.0 / np.sqrt(t.shape[0])
            assert np.abs(t.data).max() <= bound, name
    check_fused_columns(p, 7, seed=0)


def test_fuse_and_split_gates_round_trip():
    rng = np.random.default_rng(1)
    stored = {n: rng.normal(size=shape)
              for n, shape in param_shapes(5).items()}
    # an optimizer slot's prefixed names convert the same way
    stored.update({f"opt/adam/m/{n}": a + 1.0 for n, a in stored.items()})
    stored["opt/seed"] = np.zeros(2)
    fused = fuse_gates(stored)
    assert fused["dec/W"].shape == (32 + 16, 3 * 64)
    assert np.array_equal(fused["opt/adam/m/enc/U"][:, 32:64],
                          stored["opt/adam/m/enc/U_r"])
    assert not any(n.endswith(("_z", "_r", "_n")) for n in fused)
    # 2 blocks x (W, U, b) x (params, slot): each triple becomes one tensor
    assert len(fused) == len(stored) - 2 * 2 * 3 * 2
    back = split_gates(fused)
    assert back.keys() == stored.keys()
    assert all(np.array_equal(back[n], stored[n]) for n in stored)


def test_init_params_refuses_negative_seed():
    with pytest.raises(ContractError, match="init_params: seed -1"):
        Recognizer.fresh(VocabSpec("ABCD"), l_max=3, seed=-1)


def test_init_params_deterministic():
    a = init_params(6, seed=4)
    b = init_params(6, seed=4)
    assert all(np.array_equal(a[n].data, b[n].data) for n in a)
    c = init_params(6, seed=5)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_arch_bounds_l_max_to_the_label_field():
    vocab = VocabSpec("ABCD")
    assert Recognizer(vocab, 255, {}).l_max == 255
    for bad in (0, 256, 2 ** 31 - 1):
        with pytest.raises(ContractError, match=f"l_max {bad} outside"):
            Recognizer(vocab, bad, {})


# -- encode -------------------------------------------------------------------

def test_encode_shapes(rec):
    feats, keys = rec.encode(some_pixels(3, 3))
    assert feats.shape == (3, 3, 32)
    assert keys.shape == (3, 3, 32)
    feats, keys = rec.encode(some_pixels(2, 1))
    assert feats.shape == (2, 1, 32) and keys.shape == (2, 1, 32)


def test_encode_refuses_integer_pixels(rec):
    # a corpus's raw 8-bit codes are not images; Corpus.images divides them
    with pytest.raises(ContractError, match="uint8"):
        rec.encode(np.zeros((2, 8, 16), dtype=np.uint8))
    with pytest.raises(ContractError, match="int64"):
        rec.greedy(np.zeros((2, 8, 16), dtype=np.int64))


def test_encode_rejects_bad_dimensions(rec):
    with pytest.raises(DimensionError):
        rec.encode(np.zeros((2, 7, 16)))
    with pytest.raises(DimensionError):
        rec.encode(np.zeros((2, 8, 20)))
    with pytest.raises(DimensionError):
        rec.encode(np.zeros((2, 8, 0)))
    with pytest.raises(DimensionError):
        rec.encode(np.zeros((8, 16)))
    with pytest.raises(DimensionError):
        rec.encode(np.zeros((1, 2, 8, 16)))


def test_encode_tape_is_the_same_for_any_strip_count():
    enc_rec = Recognizer.fresh(VocabSpec("ABCD"), l_max=4, seed=3)
    sizes = []
    for width in (16, 24, 32):
        with Tape() as tape:
            enc_rec.encode(some_pixels(2, width // 8))
            ops = [fn.__qualname__.split(".")[0] for _, fn in tape._nodes]
        # one strip projection, one input projection, one whole-sequence
        # gru_cell and the keys, whatever the strip count; every op takes
        # the [B, T, .] blocks as they are
        assert ops.count("tanh") == 1
        assert ops.count("matmul") == 3
        assert ops.count("gru_cell") == 1
        assert ops.count("gather_rows") == ops.count("reshape") == 0
        sizes.append(len(ops))
    assert sizes == [7] * 3


def numpy_gru(p, x, h):
    """Reference encoder GRU step on the fused parameters' z | r | n column
    slices."""
    def gate(g, hh):
        cols = slice("zrn".index(g) * h.shape[1],
                     ("zrn".index(g) + 1) * h.shape[1])
        return x @ p["enc/W"][:, cols] + hh @ p["enc/U"][:, cols] \
            + p["enc/b"][:, cols]
    z = 1.0 / (1.0 + np.exp(-gate("z", h)))
    r = 1.0 / (1.0 + np.exp(-gate("r", h)))
    n = np.tanh(gate("n", r * h))
    return (1.0 - z) * n + z * h


def test_encoder_teacher_forced_through_gru_cell():
    enc_rec = Recognizer.fresh(VocabSpec("ABCD"), l_max=3, seed=4)
    rng = np.random.default_rng(2)
    for name in ("enc/b", "dec/b"):
        # nonzero GRU biases so every gate term matters
        t = enc_rec.params[name]
        t.data[...] = rng.normal(scale=0.1, size=t.shape)
    px = some_pixels(2, 3, seed=3)
    # the features are the encoder GRU's states, first strip to last
    p = {n: t.data for n, t in enc_rec.params.items()}
    h, want = np.zeros((2, 32)), []
    for t in range(3):
        x = np.tanh(px[:, :, 8 * t:8 * t + 8].reshape(2, 64) @ p["proj/W"]
                    + p["proj/b"])
        h = numpy_gru(p, x, h)
        want.append(h)
    assert np.allclose(enc_rec.encode(px)[0].data, np.stack(want, axis=1),
                       rtol=0, atol=1e-12)

    labels = [(0, 1), (2,)]

    def make_loss():
        return decoder_loss(enc_rec.teacher_forced(px, labels))

    with Tape() as tape:
        make_loss()
        # one gru_cell for the encoder and one attn_gru for the decoder's 3
        # steps
        ops = [fn.__qualname__.split(".")[0] for _, fn in tape._nodes]
        assert ops.count("gru_cell") == 1
        assert ops.count("attn_gru") == 1
    leaves = {n: enc_rec.params[n] for n in ("enc/U", "enc/W", "dec/b")}
    err = grad_check(make_loss, leaves, dict.fromkeys(leaves, 18),
                     rng=np.random.default_rng(5))
    assert err < 1e-6
    assert all(np.any(t.grad != 0) for t in leaves.values())


# -- teacher forcing ----------------------------------------------------------

def test_teacher_forced_shapes(rec):
    px = some_pixels(3, 3)
    labels = [(0,), (1, 2), (3, 0, 1)]
    decoded = rec.teacher_forced(px, labels)
    # 3 samples of 2, 3 and 4 steps, sample-major: only the 9 emitted rows
    assert decoded.probs.shape == (9, 7)
    assert [o.probs.shape for o in decoded] == [(2, 7), (3, 7), (4, 7)]
    for o in decoded:
        assert np.allclose(o.probs.sum(axis=1), 1.0)
        assert len(o.pseudo_labels) == o.emitted_length


def test_teacher_forced_labels_are_its_tokens(rec):
    # teacher forcing takes no argmax: row t is labelled with the token it
    # was given, the label's characters and then EOS
    labels = [(0,), (1, 2), (3, 0, 1)]
    decoded = rec.teacher_forced(some_pixels(3, 3, seed=5), labels)
    assert decoded.labels == [(*lab, rec.vocab.EOS) for lab in labels]


def test_teacher_forced_validation(rec):
    px = some_pixels(2, 3)
    with pytest.raises(ContractError):
        rec.teacher_forced(px, [(0,)])
    with pytest.raises(ContractError):
        rec.teacher_forced(px, [(), (1,)])
    with pytest.raises(ContractError):
        rec.teacher_forced(px, [(0, 1, 2, 3), (1,)])
    with pytest.raises(ContractError):
        rec.teacher_forced(px, [(7,), (1,)])
    # a non-integer entry is no index, not a truncated one
    with pytest.raises(ContractError, match="1.5 is not a character index"):
        rec.teacher_forced(px, [(1.5,), (2,)])
    # a replay joins the batch's one decode, so it has the batch's size
    narrow = (some_pixels(1, 2), [(1, rec.vocab.EOS)])
    with pytest.raises(DimensionError,
                       match=r"replay images \(8, 16\) .* \(8, 24\)"):
        rec.teacher_forced(px, [(0,), (1,)], narrow)


def test_empty_batch_is_refused_by_name(rec):
    px = some_pixels(2, 3)[:0]
    with pytest.raises(DimensionError, match="^encode: no images$"):
        rec.greedy(px)
    with pytest.raises(DimensionError, match="^encode: no images$"):
        rec.teacher_forced(px, [])


def test_teacher_forced_batch_matches_single(rec):
    # padding rows and the batched bias/attention kernels must not leak
    # across samples
    px = some_pixels(3, 3, seed=1)
    labels = [(2,), (0, 1, 3), (1, 1)]
    batch = list(rec.teacher_forced(px, labels))
    for b, lab in enumerate(labels):
        [single] = rec.teacher_forced(px[b:b + 1], [lab])
        assert np.allclose(single.probs, batch[b].probs, atol=1e-12)
        assert single.pseudo_labels == batch[b].pseudo_labels


def test_teacher_forced_runs_only_live_rows(rec, monkeypatch):
    # a mixed-length batch runs each sample for its own steps and holds only
    # their rows; its loss and parameter gradients are those of decoding
    # every sample to the longest and gathering the emitted rows
    px = some_pixels(4, 3, seed=12)
    labels = [(1,), (0, 2, 3), (2, 1), (3,)]
    fused = T.attn_gru

    def losses_and_grads():
        for p in rec.params.values():
            p.zero_grad()
        with Tape() as tape:
            decoded = rec.teacher_forced(px, labels)
            loss = decoder_loss(decoded)
            tape.backward(loss)
        return decoded, loss.item(), {n: p.grad.copy()
                                      for n, p in rec.params.items()}

    def padded_node(*args):
        # every sample runs all 4 steps, fed PAD past its end; the emitted
        # ones are gathered
        *args, lengths = args
        lengths = np.asarray(lengths)
        emitted = np.arange(lengths.max()) < lengths[:, None]
        fed = np.full(emitted.shape, rec.vocab.PAD)
        fed[emitted] = args[3]
        args[3] = fed.reshape(-1)
        return T.gather_rows(fused(*args, np.full(len(fed), fed.shape[1])),
                             np.flatnonzero(emitted))

    decoded, live, live_grads = losses_and_grads()
    assert decoded.probs.shape[0] == 11   # of 16 padded rows
    monkeypatch.setattr(T, "attn_gru", padded_node)
    _, padded, padded_grads = losses_and_grads()
    assert live == pytest.approx(padded, rel=0, abs=1e-12)
    for name, grad in padded_grads.items():
        assert np.any(grad != 0), name
        assert np.allclose(live_grads[name], grad, rtol=0, atol=1e-12), name


def test_teacher_forced_records_one_decoder_node(rec):
    # every decoder step runs in one attn_gru node and the output head runs
    # once per decode, so the tape does not grow with the label length
    px = some_pixels(2, 3, seed=6)
    sizes = []
    for label in ((0,), (0, 1), (0, 1, 2)):
        with Tape() as tape:
            rec.teacher_forced(px, [label, label])
            ops = [fn.__qualname__.split(".")[0] for _, fn in tape._nodes]
        assert ops.count("softmax") == ops.count("attn_gru") == 1
        assert ops.count("gru_cell") == 1
        sizes.append(len(ops))
    assert sizes == [11] * 3


# -- greedy decoding ----------------------------------------------------------

def test_greedy_respects_output_alphabet(rec):
    outs = rec.greedy(some_pixels(6, 3, seed=2))
    for o in outs:
        assert 1 <= o.emitted_length <= rec.l_max + 1
        assert np.allclose(o.probs.sum(axis=1), 1.0)
        for i in o.pseudo_labels:
            assert i not in (rec.vocab.GO, rec.vocab.PAD)
        # EOS only ever terminates
        for i in o.pseudo_labels[:-1]:
            assert i != rec.vocab.EOS


def test_greedy_batch_matches_single(rec):
    px = some_pixels(5, 3, seed=3)
    batch = list(rec.greedy(px))
    for b in range(5):
        [single] = rec.greedy(px[b:b + 1])
        assert single.pseudo_labels == batch[b].pseudo_labels
        assert np.allclose(single.probs, batch[b].probs, atol=1e-12)


@pytest.fixture(scope="module")
def glyph():
    """A fresh l_max=4 model and 64 glyph12 target images whose greedy
    decodes end after 2, 3, 4 or 5 steps."""
    target = build_glyph12(7)["target_test"]
    return Recognizer.fresh(target.vocab, l_max=4, seed=4), target.images(slice(64))


def test_greedy_labels_are_restricted_argmax_of_probs(glyph):
    # the fed-back labels come from untaped per-step logits, the returned
    # probs from one output head after the loop; both must agree
    g_rec, px = glyph
    decoded = g_rec.greedy(px)
    masked = decoded.probs.data.copy()
    masked[:, [g_rec.vocab.GO, g_rec.vocab.PAD]] = -1.0
    flat = [i for labels in decoded.labels for i in labels]
    assert np.argmax(masked, axis=1).tolist() == flat


def test_greedy_block_holds_only_emitted_rows(glyph):
    # a sample leaves the batch once it emits EOS, so the block has no
    # padded step, and each sample still decodes as it would alone
    g_rec, px = glyph
    decoded = g_rec.greedy(px)
    lengths = [len(labels) for labels in decoded.labels]
    assert len(set(lengths)) >= 3   # the batch shrinks more than once
    assert decoded.probs.shape[0] == sum(lengths)
    for b, out in enumerate(decoded):
        [single] = g_rec.greedy(px[b:b + 1])
        assert single.pseudo_labels == out.pseudo_labels
        assert np.allclose(single.probs, out.probs, rtol=0, atol=1e-12)


def per_step_node_greedy(rec, pixels):
    """Greedy as one untaped attn_gru node per step, the state and the
    encoding compacted as Tensors when a sample emits EOS: (labels, the
    output head's softmax rows), sample-major."""
    p = rec.params
    allowed = np.ones(rec.vocab.K, dtype=bool)
    allowed[[rec.vocab.GO, rec.vocab.PAD]] = False
    ids = np.full(len(pixels), rec.vocab.GO)
    live = np.arange(len(pixels))
    rows = [[] for _ in pixels]
    with T.untaped():
        feats, keys = rec.encode(pixels)
        h = T.zeros((len(pixels), DEC_HIDDEN))
        for t in range(rec.l_max + 1):
            if t > 0:
                keep = np.flatnonzero(ids != rec.vocab.EOS)
                if len(keep) == 0:
                    break
                if len(keep) < len(live):
                    live, ids = live[keep], ids[keep]
                    h, feats, keys = (T.constant(x.data[keep])
                                      for x in (h, feats, keys))
            h = T.attn_gru(keys, feats, p["embed/E"], ids, h,
                           p["attn/W_dec"], p["attn/v"], p["dec/W"],
                           p["dec/b"], p["dec/U"],
                           lengths=np.ones(len(ids), int))
            logits = h.data @ p["out/W"].data + p["out/b"].data
            ids = np.argmax(np.where(allowed, logits, -np.inf), axis=1)
            for b, row, i in zip(live, logits, ids):
                rows[b].append((row, int(i)))
    labels = [tuple(i for _, i in r) for r in rows]
    block = np.array([row for r in rows for row, _ in r])
    return labels, T.softmax(T.constant(block)).data


def test_greedy_equals_per_step_node_reference_bitwise(glyph):
    # the glyph batch shrinks at least three times; B = 1 never shrinks
    g_rec, px = glyph
    for pixels in (px, px[5:6]):
        labels, probs = per_step_node_greedy(g_rec, pixels)
        decoded = g_rec.greedy(pixels)
        assert decoded.labels == labels
        assert np.array_equal(decoded.probs.data, probs)


def test_greedy_builds_one_decoder_run_and_no_attn_gru_node(glyph,
                                                            monkeypatch):
    g_rec, px = glyph
    runs = []

    class CountedRun(T.DecoderRun):
        def __init__(self, *args):
            runs.append(args)
            super().__init__(*args)

    def no_node(*args, **kwargs):
        raise AssertionError("greedy called attn_gru")

    monkeypatch.setattr(T, "DecoderRun", CountedRun)
    monkeypatch.setattr(T, "attn_gru", no_node)
    for pixels in (px, px[:1]):
        runs.clear()
        g_rec.greedy(pixels)
        assert len(runs) == 1


def test_greedy_deterministic(rec):
    px = some_pixels(4, 3, seed=4)
    a = rec.greedy(px)
    b = rec.greedy(px)
    assert all(x.pseudo_labels == y.pseudo_labels for x, y in zip(a, b))


# -- the decoded block --------------------------------------------------------

def test_decoded_iterates_sample_rows_in_order():
    rows = np.arange(6 * 4, dtype=np.float64).reshape(6, 4)
    labels = [(1, 2), (0,), (3, 3, 1)]
    outs = list(decoded_from(rows[0:2], rows[2:3], rows[3:6], labels=labels))
    assert [o.pseudo_labels for o in outs] == labels
    assert [o.emitted_length for o in outs] == [2, 1, 3]
    assert np.array_equal(outs[0].probs, rows[0:2])
    assert np.array_equal(outs[1].probs, rows[2:3])
    assert np.array_equal(outs[2].probs, rows[3:6])


def tape_length(decode) -> int:
    with Tape() as tape:
        decode()
        return len(tape._nodes)


def test_teacher_forced_tape_does_not_grow_with_batch(rec):
    px = some_pixels(5, 3, seed=8)
    labels = [(0, 1)] * 5
    one = tape_length(lambda: rec.teacher_forced(px[:1], labels[:1]))
    five = tape_length(lambda: rec.teacher_forced(px, labels))
    assert one == five


def test_greedy_records_nothing_inside_a_tape(glyph):
    # greedy is forward-only: inside an active tape its shrinking batch
    # records no node, and its untracked block is sample-major and holds
    # only emitted rows
    g_rec, px = glyph
    with Tape() as tape:
        decoded = g_rec.greedy(px)
        assert len(tape) == 0
    assert not decoded.probs.requires_grad
    assert decoded.probs.shape[0] == sum(map(len, decoded.labels))


# -- tape interaction ---------------------------------------------------------

def test_forward_outside_tape_tracks_nothing(rec):
    decoded = rec.greedy(some_pixels(2, 3, seed=6))
    assert not decoded.probs.requires_grad


def test_forward_inside_tape_is_differentiable(rec):
    px = some_pixels(2, 3, seed=7)
    with Tape() as tape:
        decoded = rec.teacher_forced(px, [(0, 1), (2,)])
        # the first sample's three rows, which lead the block
        loss = T.reduce_sum(T.gather_rows(decoded.probs, np.arange(3)))
        tape.backward(loss)
    assert np.any(rec.params["proj/W"].grad != 0)
    for p in rec.params.values():
        p.zero_grad()
