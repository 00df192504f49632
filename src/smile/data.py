"""Synthetic two-domain text-line corpus generation and its on-disk format.

Characters are procedurally drawn 8x8 bitmaps laid out on a fixed grid, so a
line of up to L_max characters is an 8 x (8*L_max) grayscale image.  A
configurable pixel-level shift (shear, dimming, background lift, inversion,
salt-and-pepper) manufactures the target domain.  Everything is a pure
function of integer seeds.  A Corpus is columnar: one [N, 8, W] pixel block,
a label list and a [N] domain-tag array.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .binio import Reader, read_file, write_atomic
from .errors import ContractError, FormatError

GLYPH_H = 8
GLYPH_W = 8

SOURCE = 0
TARGET = 1
DOMAINS = (SOURCE, TARGET)

MAGIC = b"SMCP"
VERSION = 1
MAX_LABEL = 255   # a record's label length is one u8


def check_seed(seed: int, what: str):
    if not 0 <= seed < 2 ** 64:   # a checkpoint stores it as two u32 halves
        raise ContractError(f"{what} {seed} not in [0, 2^64)")


class VocabSpec:
    """Character set plus the three control tokens appended after it.

    Indices 0..n-1 are the characters in order; GO, EOS, PAD take the last
    three slots, so the total class count is K = n + 3.
    """

    def __init__(self, characters: str):
        if len(characters) == 0:
            raise ContractError("vocab: need at least one character")
        if len(set(characters)) != len(characters):
            raise ContractError("vocab: duplicate characters")
        self.characters = characters
        self.n_chars = len(characters)
        self.K = self.n_chars + 3
        self.GO = self.K - 3
        self.EOS = self.K - 2
        self.PAD = self.K - 1
        self._index = {c: i for i, c in enumerate(characters)}

    def encode(self, text: str) -> tuple[int, ...]:
        try:
            return tuple(self._index[c] for c in text)
        except KeyError as e:
            raise ContractError(f"vocab: unknown character {e.args[0]!r}") from None

    def decode(self, indices) -> str:
        out = []
        for i in indices:
            if not 0 <= i < self.n_chars:
                raise ContractError(f"vocab: index {i} is not a character index")
            out.append(self.characters[i])
        return "".join(out)

    def __eq__(self, other):
        return isinstance(other, VocabSpec) and self.characters == other.characters

    def __repr__(self):
        return f"VocabSpec({self.characters!r})"


def make_templates(vocab: VocabSpec, seed: int) -> np.ndarray:
    """Draw one 8x8 binary bitmap per character, shape [n_chars, 8, 8].

    Each glyph is a 3x3 block code upscaled 2x into rows 0-5, columns 0-5,
    plus a solid 2-row base band (rows 6-7, columns 0-5) shared by every
    character.  The band marks glyph presence so string length survives
    noise and background shifts; the 2x2 blocks keep the identity code
    legible under single-pixel corruption and one-pixel row shear, and the
    two blank right columns absorb shear spill.  Codes are drawn with an
    even number of lit cells (2, 4, or 6), so any two distinct codes differ
    in at least two blocks.  Each bitmap keeps between 8 and 40 lit pixels
    (here 20, 28, or 36) and no two bitmaps coincide; rejected draws retry
    on the same per-character stream.
    """
    templates = np.zeros((vocab.n_chars, GLYPH_H, GLYPH_W))
    seen: set[bytes] = set()
    for c in range(vocab.n_chars):
        rng = np.random.default_rng([seed, c])
        while True:
            code = (rng.random((3, 3)) < 0.5)
            if int(code.sum()) not in (2, 4, 6):
                continue
            key = code.tobytes()
            if key not in seen:
                break
        seen.add(key)
        templates[c, :6, :6] = np.kron(code.astype(np.float64), np.ones((2, 2)))
        templates[c, 6:, :6] = 1.0
    return templates


@dataclass(frozen=True)
class DomainConfig:
    """Pixel-level target-domain shift, applied in the listed order."""

    salt_pepper_prob: float = 0.0
    invert: bool = False
    intensity_scale: float = 1.0
    horizontal_shear: int = 0
    background_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.salt_pepper_prob <= 1.0:
            raise ContractError(f"salt_pepper_prob {self.salt_pepper_prob} not in [0,1]")
        if not 0.0 < self.intensity_scale <= 1.0:
            raise ContractError(f"intensity_scale {self.intensity_scale} not in (0,1]")
        if self.horizontal_shear not in (0, 1, 2):
            raise ContractError(f"horizontal_shear {self.horizontal_shear} not in {{0,1,2}}")
        if not 0.0 <= self.background_level < 1.0:
            raise ContractError(f"background_level {self.background_level} not in [0,1)")


@dataclass(eq=False)
class Corpus:
    """N text-line images held column-wise.

    pixels is one float64 [N, H, W] block in [0,1]; labels[i] is record i's
    character indices, stored as a tuple whatever sequence was given (so it
    compares equal to a greedy decode's tuple), or None when it is unlabeled
    (a file may mix both); domain[i] is its u8 SOURCE or TARGET tag.
    """

    vocab: VocabSpec
    pixels: np.ndarray
    labels: list[tuple[int, ...] | None]
    domain: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3:
            raise ContractError(
                f"corpus: pixels must be [N, H, W], got shape {self.pixels.shape}")
        n, h, w = self.pixels.shape
        if n == 0:
            raise ContractError("corpus: no images")
        if h == 0 or w == 0:
            raise ContractError(f"corpus: images are {h}x{w} pixels, "
                                "height and width must be positive")
        # min and max are nan if any pixel is, which fails both tests
        lo, hi = self.pixels.min(), self.pixels.max()
        if not (lo >= 0.0 and hi <= 1.0):
            raise ContractError("corpus: pixels must be finite and in "
                                f"[0, 1], got values in [{lo}, {hi}]")
        domain = np.asarray(self.domain)
        if len(self.labels) != n or domain.shape != (n,):
            raise ContractError(f"corpus: {n} images but {len(self.labels)} "
                                f"labels and domain shape {domain.shape}")
        if not np.isin(domain, DOMAINS).all():
            raise ContractError("corpus: a domain tag is not SOURCE or TARGET")
        self.domain = domain.astype(np.uint8, copy=False)
        self.labels = [None if label is None else tuple(label)
                       for label in self.labels]

    def __len__(self):
        return len(self.labels)

    @property
    def labeled(self) -> bool:
        return None not in self.labels

    def without_labels(self) -> "Corpus":
        """The same images, every label dropped; the arrays are shared."""
        return Corpus(self.vocab, self.pixels, [None] * len(self), self.domain)

    def __eq__(self, other):
        return (isinstance(other, Corpus)
                and self.vocab == other.vocab
                and self.labels == other.labels
                and np.array_equal(self.domain, other.domain)
                and np.array_equal(self.pixels, other.pixels))


def render_string(label, vocab: VocabSpec, templates: np.ndarray,
                  l_max: int) -> np.ndarray:
    """Lay the characters' bitmaps left to right, background-padded to L_max;
    returns the [8, 8*L_max] image."""
    label = tuple(int(i) for i in label)
    if not 1 <= len(label) <= l_max:
        raise ContractError(
            f"render: label length {len(label)} outside [1, {l_max}]")
    for i in label:
        if not 0 <= i < vocab.n_chars:
            raise ContractError(f"render: index {i} is not a character index")
    pixels = np.zeros((GLYPH_H, GLYPH_W * l_max))
    for pos, i in enumerate(label):
        pixels[:, pos * GLYPH_W:(pos + 1) * GLYPH_W] = templates[i]
    return pixels


def _quantize(pixels: np.ndarray) -> np.ndarray:
    # snap to the 8-bit grid the file format stores, so save/load is exact
    return np.round(pixels * 255.0) / 255.0


def apply_domain_shift(pixels: np.ndarray, cfg: DomainConfig,
                       sample_seed: int) -> np.ndarray:
    """Shear, dim, lift, optionally invert, then speckle one [H, W] image;
    returns a new quantized image.

    The noise stream is a pure function of (cfg.seed, sample_seed).
    """
    rng = np.random.default_rng([cfg.seed, sample_seed])
    px = pixels
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
    if cfg.invert:
        px = 1.0 - px
    if cfg.salt_pepper_prob > 0.0:
        hit = rng.random(px.shape) < cfg.salt_pepper_prob
        salt = rng.random(px.shape) < 0.5
        px = np.where(hit, np.where(salt, 1.0, 0.0), px)
    return _quantize(np.clip(px, 0.0, 1.0))


def generate_corpus(vocab: VocabSpec, templates: np.ndarray, count: int,
                    length_range: tuple[int, int], seed: int,
                    domain_cfg: DomainConfig | None = None,
                    char_dist: str = "uniform") -> Corpus:
    """Draw `count` labeled lines; shift them into the target domain if asked.

    Sample i is a pure function of (seed, i), so regeneration and parallel
    generation agree.  char_dist is "uniform" or "zipf" (exponent 1.0, rank
    by character order).
    """
    if count < 1:
        raise ContractError(f"generate_corpus: count {count} < 1")
    lo, hi = length_range
    if not 1 <= lo <= hi:
        raise ContractError(f"generate_corpus: bad length range {length_range}")
    if char_dist == "uniform":
        probs = None
    elif char_dist == "zipf":
        ranks = np.arange(1, vocab.n_chars + 1, dtype=np.float64)
        probs = (1.0 / ranks) / np.sum(1.0 / ranks)
    else:
        raise ContractError(f"generate_corpus: unknown char_dist {char_dist!r}")
    templates = _quantize(templates)   # so every rendered line is quantized
    pixels = np.empty((count, GLYPH_H, GLYPH_W * hi))
    labels = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        length = int(rng.integers(lo, hi + 1))
        if probs is None:
            label = tuple(int(c) for c in rng.integers(0, vocab.n_chars, length))
        else:
            label = tuple(int(c) for c in rng.choice(vocab.n_chars, length, p=probs))
        px = render_string(label, vocab, templates, hi)
        if domain_cfg is not None:
            px = apply_domain_shift(px, domain_cfg, i)
        pixels[i] = px
        labels.append(label)
    tag = SOURCE if domain_cfg is None else TARGET
    return Corpus(vocab, pixels, labels, np.full(count, tag, dtype=np.uint8))


# ---------------------------------------------------------------------------
# on-disk format

def vocab_block(vocab: VocabSpec) -> bytes:
    """u32 character count, then each character as a u32 code point."""
    parts = [struct.pack("<I", vocab.n_chars)]
    parts += [struct.pack("<I", ord(c)) for c in vocab.characters]
    return b"".join(parts)


def read_vocab_block(r: Reader) -> VocabSpec:
    n_chars = r.u32("vocab size")
    chars = []
    for i in range(n_chars):
        code = r.u32(f"vocab symbol {i}")
        try:
            chars.append(chr(code))
        except (ValueError, OverflowError):
            raise FormatError(
                f"{r.path}: invalid code point {code} at offset {r.off - 4}"
            ) from None
    return VocabSpec("".join(chars))


def save_corpus(corpus: Corpus, path: str):
    if corpus.vocab.n_chars > 256:
        raise ContractError(f"save_corpus: {corpus.vocab.n_chars} characters "
                            "do not fit the u8 label field (at most 256)")
    n, h, w = corpus.pixels.shape
    quantized = np.round(corpus.pixels * 255.0).astype(np.uint8)
    parts = [MAGIC, struct.pack("<IIII", VERSION, h, w, n),
             vocab_block(corpus.vocab)]
    for i, (tag, label, px) in enumerate(
            zip(corpus.domain, corpus.labels, quantized)):
        label = label or ()
        if len(label) > MAX_LABEL:
            raise ContractError("save_corpus: label too long for format")
        if label and (min(label) < 0 or max(label) >= corpus.vocab.n_chars):
            raise ContractError(
                f"save_corpus: record {i} label {label} out of vocab")
        parts.append(struct.pack("<BB", tag, len(label)))
        parts.append(bytes(label))
        parts.append(px.tobytes())
    write_atomic(path, b"".join(parts))


def load_corpus(path: str) -> Corpus:
    r = Reader(read_file(path, "corpus"), path)
    r.header(MAGIC, VERSION)
    h = r.u32("height")
    w = r.u32("width")
    count = r.u32("record count")
    if count == 0:
        raise ContractError(f"{path}: corpus has no records")
    vocab = read_vocab_block(r)
    labels, domain, starts = [], [], []
    for i in range(count):
        tag = r.u8(f"record {i} domain tag")
        if tag not in DOMAINS:
            raise FormatError(
                f"{path}: bad domain tag {tag} at offset {r.off - 1}")
        label_len = r.u8(f"record {i} label length")
        if label_len:
            raw = r.take(label_len, f"record {i} label")
            label = tuple(raw)
            for idx in label:
                if idx >= vocab.n_chars:
                    raise FormatError(
                        f"{path}: label index {idx} out of vocab in record {i}")
        else:
            label = None
        starts.append(r.off)
        r.take(h * w, f"record {i} pixels")
        labels.append(label)
        domain.append(tag)
    r.expect_end()
    # every record's h*w bytes, gathered through a zero-copy sliding window
    window = sliding_window_view(np.frombuffer(r.blob, dtype=np.uint8), h * w)
    pixels = window[starts].reshape(count, h, w) / 255.0
    return Corpus(vocab, pixels, labels, np.array(domain, dtype=np.uint8))


# ---------------------------------------------------------------------------
# the stock desk-scale benchmark

GLYPH12_CHARS = "ABCDEFGHIJKL"
GLYPH12_LENGTHS = (1, 4)
GLYPH12_SHIFT = dict(salt_pepper_prob=0.15, invert=False, intensity_scale=0.7,
                     horizontal_shear=1, background_level=0.1)


def build_glyph12(seed: int) -> dict[str, Corpus]:
    """Generate the stock 12-character benchmark.

    Returns five corpora: clean labeled source_train (5000) and source_val
    (1000); shifted target_train (5000, labels stripped); target_labeled,
    the same 5000 images with labels kept, for supervised-target runs;
    and the sealed shifted labeled target_test (1000).
    """
    check_seed(seed, "glyph12: seed")
    vocab = VocabSpec(GLYPH12_CHARS)
    templates = make_templates(vocab, seed)
    shift = DomainConfig(seed=seed + 40, **GLYPH12_SHIFT)
    source_train = generate_corpus(vocab, templates, 5000, GLYPH12_LENGTHS,
                                   seed=seed + 1)
    source_val = generate_corpus(vocab, templates, 1000, GLYPH12_LENGTHS,
                                 seed=seed + 2)
    target_labeled = generate_corpus(vocab, templates, 5000, GLYPH12_LENGTHS,
                                     seed=seed + 3, domain_cfg=shift)
    target_train = target_labeled.without_labels()
    target_test = generate_corpus(vocab, templates, 1000, GLYPH12_LENGTHS,
                                  seed=seed + 4, domain_cfg=shift)
    return {
        "source_train": source_train,
        "source_val": source_val,
        "target_train": target_train,
        "target_labeled": target_labeled,
        "target_test": target_test,
    }
