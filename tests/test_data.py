"""Glyph rendering, domain shift, corpus generation, and the corpus file
format, checked against hand-computed oracles."""

import struct

import numpy as np
import pytest

from smile.data import (GLYPH12_CHARS, GLYPH12_LENGTHS, MAGIC, SOURCE,
                        TARGET, VERSION, Corpus, DomainConfig, VocabSpec,
                        apply_domain_shift, build_glyph12, generate_corpus,
                        load_corpus, make_templates, render_string,
                        save_corpus, vocab_block)
from smile.errors import ContractError, FormatError


# -- vocabulary ---------------------------------------------------------------

def test_vocab_layout():
    v = VocabSpec("ABC")
    assert v.n_chars == 3
    assert v.K == 6
    assert (v.GO, v.EOS, v.PAD) == (3, 4, 5)


def test_vocab_encode_decode_round_trip():
    v = VocabSpec("XYZ")
    assert v.encode("ZXY") == (2, 0, 1)
    assert v.decode((2, 0, 1)) == "ZXY"
    with pytest.raises(ContractError):
        v.encode("W")
    with pytest.raises(ContractError):
        v.decode((3,))


def test_vocab_rejects_bad_alphabets():
    with pytest.raises(ContractError):
        VocabSpec("")
    with pytest.raises(ContractError):
        VocabSpec("AAB")


def test_vocab_equality_is_by_characters():
    assert VocabSpec("AB") == VocabSpec("AB")
    assert VocabSpec("AB") != VocabSpec("BA")


# -- templates ----------------------------------------------------------------

def test_templates_meet_contract():
    v = VocabSpec(GLYPH12_CHARS)
    t = make_templates(v, seed=7)
    assert t.shape == (12, 8, 8)
    assert set(np.unique(t)) <= {0.0, 1.0}
    lit = t.reshape(12, -1).sum(axis=1)
    assert ((lit >= 8) & (lit <= 40)).all()
    flat = {t[i].tobytes() for i in range(12)}
    assert len(flat) == 12


def test_templates_deterministic():
    v = VocabSpec("ABCDE")
    assert np.array_equal(make_templates(v, 3), make_templates(v, 3))
    assert not np.array_equal(make_templates(v, 3), make_templates(v, 4))


def test_templates_share_base_band():
    v = VocabSpec("ABCDE")
    t = make_templates(v, 3)
    assert (t[:, 6:, :6] == 1.0).all()
    assert (t[:, :, 6:] == 0.0).all()


# -- rendering ----------------------------------------------------------------

def test_render_places_glyphs_left_to_right(vocab, templates):
    px = render_string((2, 0), vocab, templates, l_max=3)
    assert px.shape == (8, 24)
    assert np.array_equal(px[:, 0:8], templates[2])
    assert np.array_equal(px[:, 8:16], templates[0])
    assert (px[:, 16:] == 0).all()


def test_render_rejects_bad_labels(vocab, templates):
    with pytest.raises(ContractError):
        render_string((), vocab, templates, l_max=3)
    with pytest.raises(ContractError):
        render_string((0, 1, 2, 3), vocab, templates, l_max=3)
    with pytest.raises(ContractError):
        render_string((vocab.n_chars,), vocab, templates, l_max=3)


# -- domain shift -------------------------------------------------------------

def test_shear_shifts_lower_rows_right():
    px = np.zeros((8, 16))
    px[:, 0] = 1.0
    cfg = DomainConfig(horizontal_shear=1, seed=0)
    out = apply_domain_shift(px, cfg, sample_seed=0)
    for y in range(8):
        shift = round(y * 1 / 7)
        assert out[y, shift] == 1.0
        assert out[y, :shift].sum() == 0.0


def test_intensity_and_background_compose():
    px = np.full((8, 8), 0.5)
    cfg = DomainConfig(intensity_scale=0.6, background_level=0.2, seed=0)
    out = apply_domain_shift(px, cfg, sample_seed=1)
    want = 0.2 + 0.8 * (0.5 * 0.6)
    want = round(want * 255) / 255
    assert np.allclose(out, want)


def test_invert_flips_levels():
    px = np.zeros((8, 8))
    cfg = DomainConfig(invert=True, seed=0)
    out = apply_domain_shift(px, cfg, sample_seed=2)
    assert np.allclose(out, 1.0)


def test_salt_pepper_is_deterministic_and_bounded():
    px = np.full((8, 8), 0.5)
    cfg = DomainConfig(salt_pepper_prob=0.5, seed=9)
    a = apply_domain_shift(px, cfg, sample_seed=3)
    b = apply_domain_shift(px, cfg, sample_seed=3)
    c = apply_domain_shift(px, cfg, sample_seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) <= {0.0, 128.0 / 255.0, 1.0}


def test_shift_preserves_label_and_pixel_grid():
    rng = np.random.default_rng(4)
    px = rng.random((8, 16))
    before = px.copy()
    cfg = DomainConfig(salt_pepper_prob=0.2, intensity_scale=0.7,
                       background_level=0.1, horizontal_shear=2, seed=5)
    out = apply_domain_shift(px, cfg, sample_seed=6)
    assert out.shape == px.shape
    assert np.array_equal(px, before)  # input untouched
    scaled = out * 255.0
    assert np.allclose(scaled, np.round(scaled))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_domain_config_validation():
    with pytest.raises(ContractError):
        DomainConfig(salt_pepper_prob=1.5)
    with pytest.raises(ContractError):
        DomainConfig(intensity_scale=0.0)
    with pytest.raises(ContractError):
        DomainConfig(horizontal_shear=3)
    with pytest.raises(ContractError):
        DomainConfig(background_level=1.0)


# -- corpus generation --------------------------------------------------------

def test_generate_corpus_basics(vocab, templates):
    c = generate_corpus(vocab, templates, 50, (1, 3), seed=21)
    assert len(c) == 50
    assert c.labeled
    assert c.pixels.shape == (50, 8, 24)
    for label in c.labels:
        assert 1 <= len(label) <= 3
        assert all(0 <= i < vocab.n_chars for i in label)
    assert (c.domain == SOURCE).all()
    # each line is its label's glyphs rendered left to right
    assert np.array_equal(c.pixels[0],
                          render_string(c.labels[0], vocab, templates, 3))


def test_generate_corpus_deterministic(vocab, templates):
    a = generate_corpus(vocab, templates, 30, (1, 3), seed=22)
    b = generate_corpus(vocab, templates, 30, (1, 3), seed=22)
    assert a == b
    assert a != generate_corpus(vocab, templates, 30, (1, 3), seed=23)


def test_generate_corpus_prefix_stability(vocab, templates):
    # sample i depends only on (seed, i), so prefixes agree across sizes
    short = generate_corpus(vocab, templates, 10, (1, 3), seed=24)
    long = generate_corpus(vocab, templates, 25, (1, 3), seed=24)
    assert np.array_equal(short.pixels, long.pixels[:10])
    assert short.labels == long.labels[:10]


def test_generate_corpus_zipf_skews_counts(vocab, templates):
    c = generate_corpus(vocab, templates, 400, (2, 4), seed=25,
                        char_dist="zipf")
    counts = np.zeros(vocab.n_chars)
    for label in c.labels:
        for i in label:
            counts[i] += 1
    assert counts[0] > counts[-1] * 1.5
    with pytest.raises(ContractError):
        generate_corpus(vocab, templates, 5, (1, 2), seed=0, char_dist="flat")


def test_generate_corpus_domain_shift_tags(vocab, templates):
    cfg = DomainConfig(background_level=0.1, seed=31)
    c = generate_corpus(vocab, templates, 20, (1, 3), seed=26, domain_cfg=cfg)
    assert (c.domain == TARGET).all()
    assert c.labeled
    # the shift changes pixels only: same draws, same labels as unshifted
    clean = generate_corpus(vocab, templates, 20, (1, 3), seed=26)
    assert c.labels == clean.labels
    assert not np.array_equal(c.pixels, clean.pixels)


def test_without_labels(vocab, templates):
    c = generate_corpus(vocab, templates, 12, (1, 2), seed=27)
    labels = list(c.labels)
    bare = c.without_labels()
    assert not bare.labeled
    assert bare.labels == [None] * 12
    assert bare.pixels is c.pixels  # shared, not copied
    assert np.array_equal(bare.domain, c.domain)
    assert c.labeled and c.labels == labels  # original untouched


def test_pixel_array_shape_and_cache(vocab, templates):
    c = generate_corpus(vocab, templates, 8, (1, 2), seed=28)
    assert c.pixels.shape == (8, 8, 16)
    assert c.pixels.dtype == np.float64
    # the corpus holds the block it is given: a float64 array is not copied
    again = Corpus(vocab, c.pixels, c.labels, c.domain)
    assert again.pixels is c.pixels


def corpus_parts(n=3):
    """Valid Corpus fields: n blank 8x16 SOURCE images labeled (0,)."""
    return np.zeros((n, 8, 16)), [(0,)] * n, np.zeros(n, dtype=np.uint8)


@pytest.mark.parametrize("case", [
    "rank2", "rank4", "short_labels", "long_domain", "bad_tag", "zero_height",
    "zero_width"])
def test_corpus_constructor_contract(vocab, case):
    px, labels, domain = corpus_parts()
    if case == "rank2":
        px = px[0]
    elif case == "rank4":
        px = px[..., None]
    elif case == "short_labels":
        labels = labels[:2]
    elif case == "long_domain":
        domain = np.zeros(4, dtype=np.uint8)
    elif case == "bad_tag":
        domain[1] = 2
    elif case == "zero_height":
        px = px[:, :0]
    elif case == "zero_width":
        px = px[:, :, :0]
    with pytest.raises(ContractError):
        Corpus(vocab, px, labels, domain)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0, -1.0])
def test_corpus_refuses_pixels_outside_unit_range(vocab, value):
    # a NaN pixel would pass a save-time min/max test and cast to u8
    px, labels, domain = corpus_parts()
    px[1, 3, 5] = value
    with pytest.raises(ContractError, match="pixels must be finite and in"):
        Corpus(vocab, px, labels, domain)


def test_glyph12_preset():
    corpora = build_glyph12(seed=7)
    assert set(corpora) == {"source_train", "source_val", "target_train",
                            "target_labeled", "target_test"}
    assert corpora["source_train"].vocab == VocabSpec(GLYPH12_CHARS)
    assert len(corpora["source_train"]) == 5000
    assert len(corpora["source_val"]) == 1000
    assert len(corpora["target_train"]) == 5000
    assert len(corpora["target_test"]) == 1000
    assert not corpora["target_train"].labeled
    assert corpora["target_labeled"].labeled
    assert corpora["target_train"].pixels is corpora["target_labeled"].pixels
    assert GLYPH12_LENGTHS == (1, 4)
    assert corpora["source_train"].pixels.shape == (5000, 8, 32)


# -- file format --------------------------------------------------------------

def test_corpus_round_trip_bytes(tmp_path, vocab, templates):
    cfg = DomainConfig(salt_pepper_prob=0.2, intensity_scale=0.7,
                       background_level=0.1, horizontal_shear=1, seed=33)
    c = generate_corpus(vocab, templates, 25, (1, 3), seed=29, domain_cfg=cfg)
    p1, p2 = tmp_path / "a.smcp", tmp_path / "b.smcp"
    save_corpus(c, str(p1))
    loaded = load_corpus(str(p1))
    assert loaded == c
    save_corpus(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_corpus_file_layout_is_pinned(tmp_path):
    # two 2x3 records: a labeled SOURCE line and an unlabeled TARGET line
    levels = np.array([[[0, 1, 2], [128, 254, 255]],
                       [[255, 0, 17], [3, 200, 9]]], dtype=np.uint8)
    c = Corpus(VocabSpec("AB"), levels / 255.0, [(1, 0, 1), None],
               np.array([SOURCE, TARGET], dtype=np.uint8))
    want = (b"SMCP"
            + struct.pack("<IIII", 1, 2, 3, 2)          # version, h, w, N
            + struct.pack("<III", 2, ord("A"), ord("B"))  # vocab block
            + bytes([0, 3, 1, 0, 1]) + bytes([0, 1, 2, 128, 254, 255])
            + bytes([1, 0]) + bytes([255, 0, 17, 3, 200, 9]))
    path = tmp_path / "pinned.smcp"
    save_corpus(c, str(path))
    assert path.read_bytes() == want
    loaded = load_corpus(str(path))
    assert np.array_equal(loaded.pixels, c.pixels)
    assert loaded.labels == [(1, 0, 1), None]
    assert loaded.domain.tolist() == [SOURCE, TARGET]
    assert loaded == c


def test_corpus_mixed_labels_round_trip(tmp_path, vocab, templates):
    c = generate_corpus(vocab, templates, 6, (1, 2), seed=30)
    labels = list(c.labels)
    labels[2] = None
    domain = c.domain.copy()
    domain[2] = TARGET
    c = Corpus(vocab, c.pixels, labels, domain)
    path = tmp_path / "mixed.smcp"
    save_corpus(c, str(path))
    loaded = load_corpus(str(path))
    assert loaded.labels[2] is None
    assert loaded.domain[2] == TARGET
    assert loaded.labels[0] == c.labels[0]
    assert loaded == c


def test_load_rejects_bad_magic(tmp_path, vocab, templates):
    c = generate_corpus(vocab, templates, 3, (1, 2), seed=31)
    path = tmp_path / "bad.smcp"
    save_corpus(c, str(path))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad magic"):
        load_corpus(str(path))


def test_load_rejects_truncation(tmp_path, vocab, templates):
    c = generate_corpus(vocab, templates, 3, (1, 2), seed=32)
    path = tmp_path / "short.smcp"
    save_corpus(c, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 7])
    with pytest.raises(FormatError, match="truncated"):
        load_corpus(str(path))


def test_load_rejects_trailing_bytes(tmp_path, vocab, templates):
    c = generate_corpus(vocab, templates, 3, (1, 2), seed=33)
    path = tmp_path / "long.smcp"
    save_corpus(c, str(path))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        load_corpus(str(path))


def test_load_rejects_unknown_version(tmp_path, vocab, templates):
    c = generate_corpus(vocab, templates, 3, (1, 2), seed=34)
    path = tmp_path / "vers.smcp"
    save_corpus(c, str(path))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_corpus(str(path))


def test_save_rejects_empty_and_out_of_range(tmp_path, vocab):
    px, labels, domain = corpus_parts(n=0)
    with pytest.raises(ContractError, match="no images"):
        Corpus(vocab, px, labels, domain)  # so none reaches save or train
    px, labels, domain = corpus_parts(n=1)
    with pytest.raises(ContractError):
        save_corpus(Corpus(vocab, px + 1.5, labels, domain),
                    str(tmp_path / "r.smcp"))
    # a label outside the vocab, or outside the u8 field, writes nothing
    two = VocabSpec("AB")
    path = tmp_path / "bad_label.smcp"
    for bad in [(5,), (300,)]:
        with pytest.raises(ContractError, match="record 1 label"):
            save_corpus(Corpus(two, np.zeros((2, 8, 8)), [(0,), bad],
                               np.zeros(2, dtype=np.uint8)), str(path))
        assert not path.exists()


def test_zero_size_images_are_refused(tmp_path, vocab):
    path = tmp_path / "empty_images.smcp"
    with pytest.raises(ContractError, match="height and width"):
        save_corpus(Corpus(vocab, np.zeros((2, 8, 0)), [(0,), (1,)],
                           np.zeros(2, dtype=np.uint8)), str(path))
    assert not path.exists()
    # a hand-written file: two labeled records with no pixel bytes
    path.write_bytes(MAGIC + struct.pack("<IIII", VERSION, 8, 0, 2)
                     + vocab_block(vocab) + bytes([SOURCE, 1, 0, SOURCE, 1, 1]))
    with pytest.raises(ContractError, match="8x0 pixels"):
        load_corpus(str(path))


def test_save_rejects_vocab_wider_than_label_field(tmp_path):
    big = VocabSpec("".join(chr(0x4E00 + i) for i in range(300)))
    px, _, domain = corpus_parts(n=1)
    path = tmp_path / "big.smcp"
    with pytest.raises(ContractError, match="u8 label field"):
        save_corpus(Corpus(big, px, [(299,)], domain), str(path))
    assert not path.exists()
