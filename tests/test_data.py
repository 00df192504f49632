"""Glyph rendering, domain shift, corpus generation, and the corpus file
format, checked against hand-computed oracles."""

import hashlib
import multiprocessing
import os
import struct
import time

import numpy as np
import pytest

from smile import data, parallel
from smile.data import (BLOCK, GLYPH12_CHARS, GLYPH12_LENGTHS, GLYPH12_SHIFT,
                        MAGIC, SOURCE, TARGET, VERSION, Corpus, DomainConfig,
                        VocabSpec, _shift_codes, build_glyph12,
                        generate_corpus, load_corpus, make_templates,
                        render_string, save_corpus, vocab_block)
from smile.errors import ContractError, FormatError, WorkerLost

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not hasattr(os, "sched_getaffinity"), reason="the runner forks only "
    "where fork and an affinity set exist")


# -- vocabulary ---------------------------------------------------------------

def test_vocab_layout():
    v = VocabSpec("ABC")
    assert v.n_chars == 3
    assert v.K == 6
    assert (v.GO, v.EOS, v.PAD) == (3, 4, 5)


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


def test_make_templates_refuses_negative_seed(vocab):
    with pytest.raises(ContractError, match="templates: seed -1"):
        make_templates(vocab, -1)


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


TEMPLATE_SHAPES = {"narrow": lambda t: t[:, :, :6],
                   "too_few_rows": lambda t: t[:-1],
                   "extra_row": lambda t: np.concatenate([t, t[:1]])}


@pytest.mark.parametrize("shape", sorted(TEMPLATE_SHAPES))
def test_render_and_generate_refuse_misshapen_templates(vocab, templates,
                                                       shape):
    # an extra row would otherwise be drawn where the blank padding belongs
    bad = TEMPLATE_SHAPES[shape](templates)
    want = rf"templates must be \[{vocab.n_chars}, 8, 8\], got shape"
    with pytest.raises(ContractError, match="render: " + want):
        render_string((0,), vocab, bad, l_max=3)
    with pytest.raises(ContractError, match="generate_corpus: " + want):
        generate_corpus(vocab, bad, 5, (1, 2), seed=0)


# -- domain shift -------------------------------------------------------------

def shift_one(px: np.ndarray, cfg: DomainConfig, sample: int) -> np.ndarray:
    """The block shift of one on-grid [H, W] image, as a float image."""
    codes = np.round(px * 255.0).astype(np.uint8)
    return _shift_codes(codes[None], cfg, range(sample, sample + 1))[0] / 255.0


def shift_reference(px: np.ndarray, cfg: DomainConfig,
                    sample: int) -> np.ndarray:
    """The shift drawn one float image at a time: an oracle written apart
    from the block code, whose table and block-wide noise it must match."""
    rng = np.random.default_rng([cfg.seed, sample])
    h, w = px.shape
    if cfg.horizontal_shear > 0:
        sheared = np.zeros_like(px)
        for y in range(h):
            shift = round(y * cfg.horizontal_shear / (h - 1))
            if shift == 0:
                sheared[y] = px[y]
            else:
                sheared[y, shift:] = px[y, :w - shift]
        px = sheared
    px = px * cfg.intensity_scale
    bg = cfg.background_level
    px = bg + (1.0 - bg) * px
    if cfg.salt_pepper_prob > 0.0:
        hit = rng.random(px.shape) < cfg.salt_pepper_prob
        salt = rng.random(px.shape) < 0.5
        px = np.where(hit, np.where(salt, 1.0, 0.0), px)
    return np.round(np.clip(px, 0.0, 1.0) * 255.0).astype(np.uint8) / 255.0


def test_shear_shifts_lower_rows_right():
    px = np.zeros((8, 16))
    px[:, 0] = 1.0
    cfg = DomainConfig(horizontal_shear=1, seed=0)
    out = shift_one(px, cfg, sample=0)
    for y in range(8):
        shift = round(y * 1 / 7)
        assert out[y, shift] == 1.0
        assert out[y, :shift].sum() == 0.0


def test_intensity_and_background_compose():
    px = np.full((8, 8), 128 / 255)
    cfg = DomainConfig(intensity_scale=0.6, background_level=0.2, seed=0)
    out = shift_one(px, cfg, sample=1)
    want = 0.2 + 0.8 * (128 / 255 * 0.6)
    want = round(want * 255) / 255
    assert np.allclose(out, want)


def test_salt_pepper_is_deterministic_and_bounded():
    px = np.full((8, 8), 128 / 255)
    cfg = DomainConfig(salt_pepper_prob=0.5, seed=9)
    a = shift_one(px, cfg, sample=3)
    b = shift_one(px, cfg, sample=3)
    c = shift_one(px, cfg, sample=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) <= {0.0, 128.0 / 255.0, 1.0}


def test_shift_preserves_label_and_pixel_grid():
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 256, (1, 8, 16), dtype=np.uint8)
    before = codes.copy()
    cfg = DomainConfig(salt_pepper_prob=0.2, intensity_scale=0.7,
                       background_level=0.1, horizontal_shear=2, seed=5)
    out = _shift_codes(codes, cfg, range(6, 7)) / 255.0
    assert out.shape == codes.shape
    assert np.array_equal(codes, before)  # input untouched
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


def test_domain_config_refuses_negative_seed():
    with pytest.raises(ContractError, match="domain shift: seed -3"):
        DomainConfig(seed=-3)


# -- corpus generation --------------------------------------------------------

def test_generate_corpus_basics(vocab, templates):
    c = generate_corpus(vocab, templates, 50, (1, 3), seed=21)
    assert len(c) == 50
    assert c.labeled
    assert c.codes.shape == (50, 8, 24)
    for label in c.labels:
        assert 1 <= len(label) <= 3
        assert all(0 <= i < vocab.n_chars for i in label)
    assert (c.domain == SOURCE).all()
    # each line is its label's glyphs rendered left to right
    assert np.array_equal(c.images(0),
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
    assert np.array_equal(short.images(), long.images(slice(10)))
    assert short.labels == long.labels[:10]


@pytest.mark.parametrize("value", [np.nan, 1.5, -0.5])
def test_generate_corpus_refuses_templates_outside_unit_range(
        vocab, templates, value):
    bad = templates.copy()
    bad[1, 2, 3] = value
    with pytest.raises(ContractError, match="templates must be finite"):
        generate_corpus(vocab, bad, 5, (1, 2), seed=0)


def test_generate_corpus_refuses_negative_seed(vocab, templates):
    with pytest.raises(ContractError, match="generate_corpus: seed -1"):
        generate_corpus(vocab, templates, 5, (1, 2), seed=-1)


def test_generation_seeds_may_pass_two_to_the_64():
    # glyph12 offsets its seed, so the largest u64 seed generates past 2^64
    vocab = VocabSpec("AB")
    templates = make_templates(vocab, 2 ** 64 - 1)
    c = generate_corpus(vocab, templates, 2, (1, 2), seed=2 ** 64 + 3,
                        domain_cfg=DomainConfig(seed=2 ** 64 + 39))
    assert len(c) == 2


def test_generated_bytes_are_pinned(tmp_path):
    # any change to generation or to the file format moves this digest
    vocab = VocabSpec(GLYPH12_CHARS)
    c = generate_corpus(vocab, make_templates(vocab, 1), 40, GLYPH12_LENGTHS,
                        seed=1, domain_cfg=DomainConfig(seed=1,
                                                        **GLYPH12_SHIFT))
    path = tmp_path / "pinned.smcp"
    save_corpus(c, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "936c7d07ab2794843dd93bc301486f93775b28fe299ae605258f33bbb08686b6")


def test_generated_bytes_are_pinned_across_blocks(tmp_path):
    # 600 images end two whole shift blocks and part of a third
    assert 600 % BLOCK != 0 and 600 > 2 * BLOCK
    vocab = VocabSpec(GLYPH12_CHARS)
    c = generate_corpus(vocab, make_templates(vocab, 1), 600, GLYPH12_LENGTHS,
                        seed=1, domain_cfg=DomainConfig(seed=1,
                                                        **GLYPH12_SHIFT))
    path = tmp_path / "pinned600.smcp"
    save_corpus(c, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9e5ac87f6ab26e980482f5235f127a36ad9fb106767d3ed4167d7d5f525aa4ca")


def test_generate_corpus_domain_shift_tags(vocab, templates):
    cfg = DomainConfig(background_level=0.1, seed=31)
    c = generate_corpus(vocab, templates, 20, (1, 3), seed=26, domain_cfg=cfg)
    assert (c.domain == TARGET).all()
    assert c.labeled
    # the shift changes pixels only: same draws, same labels as unshifted
    clean = generate_corpus(vocab, templates, 20, (1, 3), seed=26)
    assert c.labels == clean.labels
    assert not np.array_equal(c.images(), clean.images())


def test_without_labels(vocab, templates):
    c = generate_corpus(vocab, templates, 12, (1, 2), seed=27)
    labels = list(c.labels)
    bare = c.without_labels()
    assert not bare.labeled
    assert bare.labels == [None] * 12
    assert bare.codes is c.codes  # shared, not copied
    assert bare.domain is c.domain
    assert bare == Corpus(vocab, c.codes, [None] * 12, c.domain)
    assert c.labeled and c.labels == labels  # original untouched


def test_pixel_array_shape_and_cache(vocab, templates):
    c = generate_corpus(vocab, templates, 8, (1, 2), seed=28)
    assert c.codes.shape == (8, 8, 16)
    assert c.codes.dtype == np.uint8
    # the corpus holds the code block it is given: a uint8 array is not
    # copied, and images are drawn from it as float64
    again = Corpus(vocab, c.codes, c.labels, c.domain)
    assert again.codes is c.codes
    assert again.images(slice(2)).dtype == np.float64


def test_codes_are_one_uint8_block(tmp_path, vocab, templates):
    c = generate_corpus(vocab, templates, 12, (1, 3), seed=35,
                        domain_cfg=DomainConfig(seed=36, **GLYPH12_SHIFT))
    path = tmp_path / "codes.smcp"
    save_corpus(c, str(path))
    for corpus in (c, load_corpus(str(path))):
        n, h, w = corpus.codes.shape
        assert corpus.codes.dtype == np.uint8
        assert corpus.codes.nbytes == n * h * w == 12 * 8 * 24


def test_images_are_bit_equal_to_rendering_and_loading(tmp_path, vocab,
                                                      templates):
    # image = code / 255: the drawn images equal what the per-image recipe
    # renders and shifts, across a block boundary, and what the saved file
    # loads back, bit for bit
    cfg = DomainConfig(seed=37, **GLYPH12_SHIFT)
    count = BLOCK + 10
    clean = generate_corpus(vocab, templates, count, (1, 3), seed=38)
    shifted = generate_corpus(vocab, templates, count, (1, 3), seed=38,
                              domain_cfg=cfg)
    for i, label in enumerate(clean.labels):
        line = render_string(label, vocab, templates, 3)
        assert clean.images(i).tobytes() == line.tobytes()
        assert shifted.images(i).tobytes() == shift_reference(
            line, cfg, i).tobytes()
    for c in (clean, shifted):
        path = tmp_path / "images.smcp"
        save_corpus(c, str(path))
        loaded = load_corpus(str(path))
        assert loaded.images().dtype == np.float64
        assert loaded.images().tobytes() == c.images().tobytes()
        assert c.images([4, 1]).tobytes() == np.stack(
            [c.images(4), c.images(1)]).tobytes()


def test_corpus_refuses_non_uint8_codes(vocab):
    # a corpus holds codes only: float images, even ones exactly on the
    # 8-bit grid, and wider integers are refused, never converted
    levels = np.arange(3 * 8 * 16).reshape(3, 8, 16) % 256
    _, labels, domain = corpus_parts()
    for block in (levels / 255.0, levels, levels.astype(np.uint16)):
        with pytest.raises(ContractError,
                           match=f"codes must be uint8, got {block.dtype}"):
            Corpus(vocab, block, labels, domain)


def corpus_parts(n=3):
    """Valid Corpus fields: n blank 8x16 SOURCE images labeled (0,)."""
    return (np.zeros((n, 8, 16), dtype=np.uint8), [(0,)] * n,
            np.zeros(n, dtype=np.uint8))


@pytest.mark.parametrize("case", [
    "rank2", "rank4", "short_labels", "long_domain", "bad_tag", "zero_height",
    "zero_width", "empty_label"])
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
    elif case == "empty_label":
        labels[1] = ()
    with pytest.raises(ContractError):
        Corpus(vocab, px, labels, domain)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0, -1.0])
def test_corpus_refuses_pixels_outside_unit_range(vocab, value):
    # a NaN or out-of-range pixel would cast to some u8 code; no float
    # block is ever cast
    px, labels, domain = corpus_parts()
    px = px.astype(np.float64)
    px[1, 3, 5] = value
    with pytest.raises(ContractError, match="codes must be uint8"):
        Corpus(vocab, px, labels, domain)


GLYPH12_SEED7_SHA256 = {
    "source_train":
        "6a22fce49b7a115d38b39cca02eb4e00a634b0bd2debb3eca6ab817936236f9a",
    "source_val":
        "bc953dfe9313c45c6c9b211720931f3a9608a0a5179a794a352b90e681798957",
    "target_train":
        "6d52bbe460c8aa44ad461d68b13724f664324c804200b421a9ba8b559aecf3e4",
    "target_labeled":
        "a0438c0cf803acc12898938ffba6b8382a142feec28855a472105fd838311117",
    "target_test":
        "8eed5a5e14cd0f6daa7c3a47ef7b63643b72df601ea92ca942b5119e660398a4",
}


def test_glyph12_preset(tmp_path):
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
    assert corpora["target_train"].codes is corpora["target_labeled"].codes
    assert GLYPH12_LENGTHS == (1, 4)
    assert corpora["source_train"].codes.shape == (5000, 8, 32)
    # any change to generation or to the file format moves these digests
    for name, corpus in corpora.items():
        path = tmp_path / f"{name}.smcp"
        save_corpus(corpus, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            GLYPH12_SEED7_SHA256[name]), name


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@needs_fork
@pytest.mark.parametrize("seed", [7, 11])
def test_glyph12_on_two_cpus_equals_the_one_cpu_build_bitwise(
        monkeypatch, tmp_path, seed):
    def forbidden():
        raise AssertionError("a worker was forked")

    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_cpu.setattr(os, "fork", forbidden)
        serial = build_glyph12(seed)
    cpus(monkeypatch, 2)
    assert parallel._worker_count(4) == 1
    shared = build_glyph12(seed)
    assert multiprocessing.active_children() == []
    assert list(shared) == list(serial)
    for name, corpus in shared.items():
        assert corpus == serial[name], name
        save_corpus(corpus, str(tmp_path / "shared.smcp"))
        save_corpus(serial[name], str(tmp_path / "serial.smcp"))
        assert (tmp_path / "shared.smcp").read_bytes() == (
            tmp_path / "serial.smcp").read_bytes(), name
    assert shared["target_train"].codes is shared["target_labeled"].codes


def hold_parent_until_a_worker_runs(monkeypatch, tmp_path, in_worker):
    """Build glyph12 on two CPUs with generate_corpus replaced: in a worker
    it marks a file and calls in_worker(); the parent's first unit waits
    for the mark, so a worker always runs one."""
    parent, mark = os.getpid(), tmp_path / "worker-ran"
    real = data.generate_corpus

    def corpus(*args, **kwargs):
        if os.getpid() != parent:
            mark.touch()
            in_worker()
        deadline = time.monotonic() + 30
        while not mark.exists():
            assert time.monotonic() < deadline, "no worker took a unit"
            time.sleep(0.005)
        return real(*args, **kwargs)

    cpus(monkeypatch, 2)
    monkeypatch.setattr(data, "generate_corpus", corpus)


@needs_fork
def test_a_units_error_in_a_glyph12_worker_is_raised_by_the_parent(
        monkeypatch, tmp_path):
    def fail():
        raise ContractError("generate_corpus failed in a worker")

    hold_parent_until_a_worker_runs(monkeypatch, tmp_path, fail)
    with pytest.raises(ContractError,
                       match="^generate_corpus failed in a worker$"):
        build_glyph12(7)
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_glyph12_worker_that_dies_is_a_worker_lost(monkeypatch, tmp_path):
    hold_parent_until_a_worker_runs(monkeypatch, tmp_path,
                                    lambda: os._exit(3))
    with pytest.raises(WorkerLost, match=r"^glyph12: worker \d+ exited with "
                                         r"code 3 before sending its "
                                         r"results$"):
        build_glyph12(7)
    assert multiprocessing.active_children() == []


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
    c = Corpus(VocabSpec("AB"), levels, [(1, 0, 1), None],
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
    assert np.array_equal(loaded.images(), c.images())
    assert loaded.labels == [(1, 0, 1), None]
    assert loaded.domain.tolist() == [SOURCE, TARGET]
    assert loaded == c


def two_record_file(tmp_path) -> tuple:
    """A saved 2x3-pixel corpus: record 0 an unlabeled TARGET line, record 1
    a SOURCE line labeled (1, 0, 1); returns (path, file bytes)."""
    levels = np.array([[[255, 0, 17], [3, 200, 9]],
                       [[0, 1, 2], [128, 254, 255]]], dtype=np.uint8)
    c = Corpus(VocabSpec("AB"), levels, [None, (1, 0, 1)],
               np.array([TARGET, SOURCE], dtype=np.uint8))
    path = tmp_path / "two.smcp"
    save_corpus(c, str(path))
    return path, path.read_bytes()


# the fields of two_record_file after its 32-byte header:
# (offset, record, field, size)
TWO_RECORD_FIELDS = [(32, 0, "domain tag", 1), (33, 0, "label length", 1),
                     (34, 0, "pixels", 6), (40, 1, "domain tag", 1),
                     (41, 1, "label length", 1), (42, 1, "label", 3),
                     (45, 1, "pixels", 6)]


@pytest.mark.parametrize("length", range(32, 51))
def test_load_names_the_truncated_field(tmp_path, length):
    # every cut inside the records names its field, offset and byte counts
    path, raw = two_record_file(tmp_path)
    assert len(raw) == 51
    path.write_bytes(raw[:length])
    offset, record, field, size = next(
        f for f in TWO_RECORD_FIELDS if f[0] <= length < f[0] + f[3])
    want = (f"{path}: truncated reading record {record} {field} at offset "
            f"{offset} (need {size} bytes, have {length - offset})")
    with pytest.raises(FormatError) as e:
        load_corpus(str(path))
    assert str(e.value) == want


def test_load_names_out_of_vocab_label_and_bad_tag(tmp_path):
    path, raw = two_record_file(tmp_path)
    assert load_corpus(str(path)).labels == [None, (1, 0, 1)]
    for offset, value, want in (
            (43, 2, f"{path}: label index 2 out of vocab in record 1"),
            (40, 5, f"{path}: bad domain tag 5 at offset 40")):
        bad = bytearray(raw)
        bad[offset] = value
        path.write_bytes(bytes(bad))
        with pytest.raises(FormatError) as e:
            load_corpus(str(path))
        assert str(e.value) == want


def test_corpus_mixed_labels_round_trip(tmp_path, vocab, templates):
    c = generate_corpus(vocab, templates, 6, (1, 2), seed=30)
    labels = list(c.labels)
    labels[2] = None
    domain = c.domain.copy()
    domain[2] = TARGET
    c = Corpus(vocab, c.codes, labels, domain)
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


def test_save_rejects_empty_and_out_of_range(vocab):
    px, labels, domain = corpus_parts(n=0)
    with pytest.raises(ContractError, match="no images"):
        Corpus(vocab, px, labels, domain)  # so none reaches save or train
    # a label outside the vocab, or outside the u8 field, is refused when
    # the corpus is built, so no save can write it
    two = VocabSpec("AB")
    for bad in [(5,), (300,)]:
        with pytest.raises(ContractError, match="record 1 label"):
            Corpus(two, np.zeros((2, 8, 8), dtype=np.uint8), [(0,), bad],
                   np.zeros(2, dtype=np.uint8))


def test_save_refuses_the_first_bad_record():
    # the constructor's whole-corpus check names the record a
    # record-by-record walk meets first: a label too long before its
    # characters, unlabeled ones skipped; a fractional character is no
    # index, not one rounded down
    two = VocabSpec("AB")
    long, bad = (0,) * 256, (1, -1)
    for labels, want in (
            ([None, (0,), bad, long], r"record 2 label \(1, -1\) "),
            ([(1,), long, bad, None], "record 1's label has 256 characters"),
            ([None, long + (5,), bad, (0,)],
             "record 1's label has 257 characters"),
            ([(0, 1), None, (1, 2), (7,)], r"record 2 label \(1, 2\) "),
            ([(1,), (0, 0.5), long, None], r"record 1 label \(0, 0.5\) ")):
        with pytest.raises(ContractError, match=f"^corpus: {want}"):
            Corpus(two, np.zeros((4, 8, 8), dtype=np.uint8), labels,
                   np.zeros(4, dtype=np.uint8))


def test_a_label_the_vocab_cannot_spell_never_reaches_a_step():
    # refused when the corpus is built, before a training step or evaluate
    # reads it; 3 is EOS's index under VocabSpec("AB"), no character
    two = VocabSpec("AB")
    for bad in (5, 3):
        labels = [(i % 2,) for i in range(400)]
        labels[300] = (bad,)
        with pytest.raises(ContractError,
                           match=rf"^corpus: record 300 label \({bad},\) "):
            Corpus(two, np.zeros((400, 8, 8), dtype=np.uint8), labels,
                   np.zeros(400, dtype=np.uint8))
    with pytest.raises(ContractError, match="not a number"):
        Corpus(two, np.zeros((1, 8, 8), dtype=np.uint8), ["AB"],
               np.zeros(1, dtype=np.uint8))


def test_zero_size_images_are_refused(tmp_path, vocab):
    path = tmp_path / "empty_images.smcp"
    with pytest.raises(ContractError, match="height and width"):
        save_corpus(Corpus(vocab, np.zeros((2, 8, 0), dtype=np.uint8),
                           [(0,), (1,)],
                           np.zeros(2, dtype=np.uint8)), str(path))
    assert not path.exists()
    # hand-written files: two labeled records with no pixel bytes; the
    # header's zero size is refused by its offset before any record is read
    for h, w, field in ((8, 0, "width 0 at offset 12"),
                        (0, 8, "height 0 at offset 8")):
        path.write_bytes(MAGIC + struct.pack("<IIII", VERSION, h, w, 2)
                         + vocab_block(vocab)
                         + bytes([SOURCE, 1, 0, SOURCE, 1, 1]))
        with pytest.raises(FormatError, match=f"^{path}: image {field}; "
                                              "height and width must be"):
            load_corpus(str(path))


def test_load_refuses_an_empty_or_repeated_vocab_by_offset(tmp_path):
    # the vocab block starts at offset 20; a corpus file names it only there
    path = tmp_path / "bad_vocab.smcp"
    record = bytes([SOURCE, 1, 0]) + bytes(64)
    for block, message in (
            (struct.pack("<I", 0), "vocab size 0 at offset 20; need at "
                                   "least one character"),
            (struct.pack("<IIII", 3, 65, 66, 65),
             "vocab symbol 2 'A' at offset 32 repeats symbol 0")):
        path.write_bytes(MAGIC + struct.pack("<IIII", VERSION, 8, 8, 1)
                         + block + record)
        with pytest.raises(FormatError, match=f"^{path}: {message}$"):
            load_corpus(str(path))


def test_save_rejects_vocab_wider_than_label_field(tmp_path):
    big = VocabSpec("".join(chr(0x4E00 + i) for i in range(300)))
    px, _, domain = corpus_parts(n=1)
    path = tmp_path / "big.smcp"
    with pytest.raises(ContractError, match="u8 label field"):
        save_corpus(Corpus(big, px, [(299,)], domain), str(path))
    assert not path.exists()
