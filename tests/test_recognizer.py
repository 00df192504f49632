"""Recognizer forward passes: parameter layout, decoding shapes and
invariants, and batch-independence of the batched attention kernels."""

import numpy as np
import pytest

from smile.data import VocabSpec
from smile.errors import ContractError, DimensionError
from smile.recognizer import ArchSpec, Recognizer, init_params
from smile.tensor import Tape


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


def test_init_params_layout():
    arch = ArchSpec(K=7, l_max=4)
    p = init_params(arch, seed=0)
    assert p["proj/W"].shape == (64, 32)
    assert p["enc/W_z"].shape == (32, 32)
    assert p["enc/U_n"].shape == (32, 32)
    assert p["attn/W_enc"].shape == (32, 32)
    assert p["attn/W_dec"].shape == (64, 32)
    assert p["attn/v"].shape == (32, 1)
    assert p["embed/E"].shape == (7, 16)
    assert p["dec/W_z"].shape == (32 + 16, 64)
    assert p["out/W"].shape == (64, 7)
    assert "enc_bwd/W_z" not in p
    for name, t in p.items():
        if name.endswith(("/b", "/b_z", "/b_r", "/b_n")):
            assert (t.data == 0).all(), name
        else:
            bound = 1.0 / np.sqrt(t.shape[0])
            assert np.abs(t.data).max() <= bound, name


def test_init_params_bidirectional_adds_backward_pass():
    arch = ArchSpec(K=7, l_max=4, bidirectional=True)
    p = init_params(arch, seed=0)
    assert p["enc_bwd/W_z"].shape == (32, 32)


def test_init_params_deterministic():
    arch = ArchSpec(K=6, l_max=2)
    a = init_params(arch, seed=4)
    b = init_params(arch, seed=4)
    assert all(np.array_equal(a[n].data, b[n].data) for n in a)
    c = init_params(arch, seed=5)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_recognizer_rejects_vocab_arch_mismatch():
    with pytest.raises(ContractError):
        Recognizer(VocabSpec("AB"), ArchSpec(K=9, l_max=2), {})


# -- encode -------------------------------------------------------------------

def test_encode_shapes(rec):
    enc = rec.encode(some_pixels(3, 3))
    assert enc.batch == 3
    assert enc.t_enc == 3
    assert enc.feats.shape == (3, 3, 32)
    assert enc.keys.shape == (3, 3, 32)


def test_encode_rejects_bad_dimensions(rec):
    with pytest.raises(DimensionError):
        rec.encode(np.zeros((2, 7, 16)))
    with pytest.raises(DimensionError):
        rec.encode(np.zeros((2, 8, 20)))


# -- teacher forcing ----------------------------------------------------------

def test_teacher_forced_shapes(rec):
    px = some_pixels(3, 3)
    labels = [(0,), (1, 2), (3, 0, 1)]
    outs = rec.teacher_forced(px, labels)
    assert [o.probs.shape for o in outs] == [(2, 7), (3, 7), (4, 7)]
    for o in outs:
        assert np.allclose(o.probs.data.sum(axis=1), 1.0)
        assert len(o.pseudo_labels) == o.emitted_length


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
    batch = rec.teacher_forced(px, labels)
    for b, lab in enumerate(labels):
        single = rec.teacher_forced(px[b:b + 1], [lab])[0]
        assert np.allclose(single.probs.data, batch[b].probs.data, atol=1e-12)
        assert single.pseudo_labels == batch[b].pseudo_labels


# -- greedy decoding ----------------------------------------------------------

def test_greedy_respects_output_alphabet(rec):
    outs = rec.greedy(some_pixels(6, 3, seed=2))
    for o in outs:
        assert 1 <= o.emitted_length <= rec.arch.l_max + 1
        assert np.allclose(o.probs.data.sum(axis=1), 1.0)
        for i in o.pseudo_labels:
            assert i not in (rec.vocab.GO, rec.vocab.PAD)
        # EOS only ever terminates
        for i in o.pseudo_labels[:-1]:
            assert i != rec.vocab.EOS


def test_greedy_batch_matches_single(rec):
    px = some_pixels(5, 3, seed=3)
    batch = rec.greedy(px)
    for b in range(5):
        single = rec.greedy(px[b:b + 1])[0]
        assert single.pseudo_labels == batch[b].pseudo_labels
        assert np.allclose(single.probs.data, batch[b].probs.data, atol=1e-12)


def test_greedy_deterministic(rec):
    px = some_pixels(4, 3, seed=4)
    a = rec.greedy(px)
    b = rec.greedy(px)
    assert all(x.pseudo_labels == y.pseudo_labels for x, y in zip(a, b))


def test_predict_decodes_strings(rec):
    texts = rec.predict(some_pixels(4, 3, seed=5))
    assert len(texts) == 4
    for s in texts:
        assert set(s) <= set("ABCD")
        assert len(s) <= rec.arch.l_max + 1


def test_single_image_predict(rec, vocab, templates):
    from smile.data import render_string
    img = render_string((0, 1), VocabSpec("ABCD"), templates, l_max=3)
    out = rec.predict_image(img)
    assert isinstance(out, str)


# -- tape interaction ---------------------------------------------------------

def test_forward_outside_tape_tracks_nothing(rec):
    outs = rec.greedy(some_pixels(2, 3, seed=6))
    assert not outs[0].probs.requires_grad


def test_forward_inside_tape_is_differentiable(rec):
    import smile.tensor as T
    px = some_pixels(2, 3, seed=7)
    with Tape() as tape:
        outs = rec.teacher_forced(px, [(0, 1), (2,)])
        loss = T.reduce_sum(outs[0].probs)
        tape.backward(loss)
    assert np.any(rec.params["proj/W"].grad != 0)
    for p in rec.params.values():
        p.zero_grad()
