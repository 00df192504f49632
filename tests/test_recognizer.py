"""Recognizer forward passes: parameter layout, decoding shapes and
invariants, and batch-independence of the batched attention kernels."""

import numpy as np
import pytest

from smile.checks import grad_check
from smile.data import VocabSpec, build_glyph12
from smile.errors import ContractError, DimensionError
from smile.losses import decoder_loss
from smile import tensor as T
from smile.recognizer import (ArchSpec, Recognizer, fuse_gates, init_params,
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
    arch = ArchSpec(K=7, l_max=4)
    assert arch.d_feat == 32
    assert arch.enc_hidden == 32
    assert arch.dec_hidden == 64
    assert arch.attn_dim == 32
    assert arch.embed_dim == 16


def per_gate_draws(arch, seed):
    """The parameters drawn per gate from one stream in param_shapes order,
    as init_params draws them before fusing."""
    rng = np.random.default_rng(seed)
    return {name: np.zeros(shape) if name.rsplit("/", 1)[1].startswith("b")
            else rng.uniform(-1 / np.sqrt(shape[0]), 1 / np.sqrt(shape[0]),
                             shape)
            for name, shape in param_shapes(arch).items()}


def check_fused_columns(p, arch, seed):
    draws = per_gate_draws(arch, seed)
    gru = [n for n in p if n.split("/")[0] in ("enc", "dec")]
    for name in gru:
        assert np.array_equal(p[name].data, np.hstack(
            [draws[f"{name}_{g}"] for g in "zrn"])), name
    for name in set(p) - set(gru):
        assert np.array_equal(p[name].data, draws[name]), name
    assert len(draws) == len(p) + 2 * len(gru)


def test_init_params_layout():
    arch = ArchSpec(K=7, l_max=4)
    p = init_params(arch, seed=0)
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
    check_fused_columns(p, arch, seed=0)


def test_fuse_and_split_gates_round_trip():
    arch = ArchSpec(K=5, l_max=2, d_feat=3, enc_hidden=2, embed_dim=2)
    rng = np.random.default_rng(1)
    stored = {n: rng.normal(size=shape)
              for n, shape in param_shapes(arch).items()}
    # an optimizer slot's prefixed names convert the same way
    stored.update({f"opt/adam/m/{n}": a + 1.0 for n, a in stored.items()})
    stored["opt/seed"] = np.zeros(2)
    fused = fuse_gates(stored)
    assert fused["dec/W"].shape == (2 + 2, 3 * 4)
    assert np.array_equal(fused["opt/adam/m/enc/U"][:, 2:4],
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
    arch = ArchSpec(K=6, l_max=2)
    a = init_params(arch, seed=4)
    b = init_params(arch, seed=4)
    assert all(np.array_equal(a[n].data, b[n].data) for n in a)
    c = init_params(arch, seed=5)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_arch_bounds_l_max_to_the_label_field():
    assert ArchSpec(K=7, l_max=255).l_max == 255
    for bad in (0, 256, 2 ** 31 - 1):
        with pytest.raises(ContractError, match="l_max"):
            ArchSpec(K=7, l_max=bad)


def test_arch_refuses_sizes_below_one():
    for name in ("d_feat", "enc_hidden", "embed_dim"):
        with pytest.raises(ContractError, match=f"{name} 0 is below 1"):
            ArchSpec(K=7, l_max=4, **{name: 0})


def test_recognizer_rejects_vocab_arch_mismatch():
    with pytest.raises(ContractError):
        Recognizer(VocabSpec("AB"), ArchSpec(K=9, l_max=2), {})


# -- encode -------------------------------------------------------------------

def test_encode_shapes(rec):
    enc = rec.encode(some_pixels(3, 3))
    assert enc.feats.shape == (3, 3, 32)
    assert enc.keys.shape == (3, 3, 32)
    one = rec.encode(some_pixels(2, 1))
    assert one.feats.shape == (2, 1, 32) and one.keys.shape == (2, 1, 32)


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
    assert np.allclose(enc_rec.encode(px).feats.data, np.stack(want, axis=1),
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
    # 3 samples of 4 steps, sample-major, padded rows included; 9 of them
    # emitted
    assert decoded.probs.shape == (12, 7)
    assert decoded.rows.tolist() == [0, 1, 4, 5, 6, 8, 9, 10, 11]
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


def test_two_width_decode_equals_separate_decodes(rec):
    # replayed parts of another image width decode as a second block; the
    # joined Decoded must read exactly like the two decodes apart
    # a replayed part is given whole token sequences, EOS included
    px, labels = some_pixels(2, 3, seed=10), [(0, 1), (2,)]
    narrow, prefixes = some_pixels(3, 2, seed=11), [(1,), (3, 0), (2,)]
    joined = rec.teacher_forced(
        px, labels, [(narrow, [p + (rec.vocab.EOS,) for p in prefixes])])
    wide = rec.teacher_forced(px, labels)
    apart = [*wide, *rec.teacher_forced(narrow, prefixes)]
    assert joined.labels == [o.pseudo_labels for o in apart]
    for got, want in zip(joined, apart):
        assert np.array_equal(got.probs, want.probs)
    head = joined.head(len(labels))
    assert head.probs is joined.probs
    assert head.labels == wide.labels
    assert all(np.array_equal(got.probs, want.probs)
               for got, want in zip(head, wide))
    assert decoder_loss(head).item() == decoder_loss(wide).item()
    want = (2 * decoder_loss(wide).item() + 3 * decoder_loss(
        rec.teacher_forced(narrow, prefixes)).item()) / 5
    assert decoder_loss(joined).item() == pytest.approx(want, rel=1e-14)


def test_teacher_forced_runs_only_live_rows(rec, monkeypatch):
    # a mixed-length batch runs each sample for its own steps; its loss and
    # parameter gradients are those of decoding every sample to the longest
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

    decoded, live, live_grads = losses_and_grads()
    # a step past a sample's end leaves a zero state, read as softmax(out/b)
    past = np.setdiff1d(np.arange(16), decoded.rows)
    assert past.tolist() == [2, 3, 11, 14, 15]
    bias = np.exp(rec.params["out/b"].data)
    assert np.allclose(decoded.probs.data[past], bias / bias.sum(),
                       rtol=0, atol=1e-15)
    monkeypatch.setattr(T, "attn_gru",
                        lambda *args, lengths=None: fused(*args))
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
        assert 1 <= o.emitted_length <= rec.arch.l_max + 1
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
    masked = decoded.probs.data[decoded.rows]
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
    assert decoded.probs.shape[0] == len(decoded.rows) == sum(lengths)
    assert sorted(decoded.rows.tolist()) == list(range(sum(lengths)))
    for b, out in enumerate(decoded):
        [single] = g_rec.greedy(px[b:b + 1])
        assert single.pseudo_labels == out.pseudo_labels
        assert np.allclose(single.probs, out.probs, rtol=0, atol=1e-12)


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
    emitted = sum(len(labels) for labels in decoded.labels)
    assert np.array_equal(decoded.rows, np.arange(emitted))


# -- tape interaction ---------------------------------------------------------

def test_forward_outside_tape_tracks_nothing(rec):
    decoded = rec.greedy(some_pixels(2, 3, seed=6))
    assert not decoded.probs.requires_grad


def test_forward_inside_tape_is_differentiable(rec):
    px = some_pixels(2, 3, seed=7)
    with Tape() as tape:
        decoded = rec.teacher_forced(px, [(0, 1), (2,)])
        # the first sample's three rows, read through the row index
        loss = T.reduce_sum(T.gather_rows(decoded.probs, decoded.rows[:3]))
        tape.backward(loss)
    assert np.any(rec.params["proj/W"].grad != 0)
    for p in rec.params.values():
        p.zero_grad()
