"""Synthetic two-domain text-line corpus generation and its on-disk format.

Characters are procedurally drawn 8x8 bitmaps laid out on a fixed grid, so a
line of up to L_max characters is an 8 x (8*L_max) grayscale image.  A
configurable pixel-level shift (shear, dimming, background lift,
salt-and-pepper) manufactures the target domain.  Rendering and the shift
work on [n, 8, W] blocks of lines: one gather from the glyph table draws
every line, and the shift runs on BLOCK images per numpy pass.  Everything
is a pure function of integer seeds, and sample i of a corpus is still a
pure function of (seed, i), whatever block it falls in.  Every pixel lies
on the 8-bit grid k/255 that the file format stores, and a Corpus keeps
the codes k: it is columnar, one uint8 [N, 8, W] code block, a label list
and a [N] domain-tag array, and Corpus.images turns the codes of an index
or a slice into float64 images only when they are drawn.  build_glyph12's
four corpora are independent units, shared over the CPUs in the process's
affinity set by smile.parallel's runner, and each is the serial one bit for
bit.
"""

from __future__ import annotations

import copy
import itertools
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .binio import Reader, read_file, write_atomic
from .errors import ContractError, FormatError
from .parallel import _run_units

GLYPH_H = 8
GLYPH_W = 8

SOURCE = 0
TARGET = 1
DOMAINS = (SOURCE, TARGET)

MAGIC = b"SMCP"
VERSION = 1
MAX_LABEL = 255   # a record's label length is one u8
BLOCK = 256       # images shifted per numpy pass in generate_corpus


def check_seed(seed: int, what: str, stored: bool = True):
    """Refuse a negative seed, which numpy cannot take, and a stored one
    that a checkpoint's two u32 halves cannot hold.  Generation seeds are
    never stored, and glyph12 derives them by offset (seed + 40), so they
    may reach 2^64."""
    if seed < 0 or (stored and seed >= 2 ** 64):
        bound = "2^64" if stored else "inf"
        raise ContractError(f"{what} {seed} not in [0, {bound})")


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
    check_seed(seed, "templates: seed", stored=False)
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
        check_seed(self.seed, "domain shift: seed", stored=False)


@dataclass(eq=False)
class Corpus:
    """N text-line images held column-wise.

    codes is one uint8 [N, H, W] block of 8-bit pixel codes, kept as given
    (a block of any other dtype is refused): the image is codes / 255, and
    images() returns it as float64 for an index or a slice.  labels[i] is
    record i's character indices, stored as a tuple whatever sequence was
    given (so it compares equal to a greedy decode's tuple), or None when it
    is unlabeled (a file may mix both), never empty or longer than
    MAX_LABEL, each an integer index into vocab; domain[i] is its u8
    SOURCE or TARGET tag.
    """

    vocab: VocabSpec
    codes: np.ndarray
    labels: list[tuple[int, ...] | None]
    domain: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.dtype != np.uint8:
            raise ContractError(
                f"corpus: pixel codes must be uint8, got {codes.dtype}")
        if codes.ndim != 3:
            raise ContractError(
                f"corpus: pixels must be [N, H, W], got shape {codes.shape}")
        n, h, w = codes.shape
        if n == 0:
            raise ContractError("corpus: no images")
        if h == 0 or w == 0:
            raise ContractError(f"corpus: images are {h}x{w} pixels, "
                                "height and width must be positive")
        self.codes = codes
        domain = np.asarray(self.domain)
        if len(self.labels) != n or domain.shape != (n,):
            raise ContractError(f"corpus: {n} images but {len(self.labels)} "
                                f"labels and domain shape {domain.shape}")
        if not np.isin(domain, DOMAINS).all():
            raise ContractError("corpus: a domain tag is not SOURCE or TARGET")
        self.domain = domain.astype(np.uint8, copy=False)
        self.labels = [None if label is None else tuple(label)
                       for label in self.labels]
        if () in self.labels:
            raise ContractError(
                f"corpus: record {self.labels.index(())} has an empty label; "
                "None marks an unlabeled record")
        # one numpy pass refuses the first record a record-by-record walk
        # would: a label too long, else one with a character that is no
        # integer index into the vocab
        try:
            lengths, chars, starts = _flat_labels(self.labels)
        except (TypeError, ValueError):
            raise ContractError("corpus: a label holds a character that is "
                                "not a number") from None
        bad = ((chars < 0) | (chars >= self.vocab.n_chars)
               | (np.round(chars) != chars)).nonzero()[0]
        first = min([*np.flatnonzero(lengths > MAX_LABEL)[:1],
                     *np.searchsorted(starts, bad[:1], side="right") - 1],
                    default=n)
        if first < n and lengths[first] > MAX_LABEL:
            raise ContractError(
                f"corpus: record {first}'s label has {lengths[first]} "
                f"characters, more than the {MAX_LABEL} a label can hold")
        if first < n:
            raise ContractError(
                f"corpus: record {first} label {self.labels[first]} holds a "
                f"character that is no index into vocab "
                f"{self.vocab.characters!r}")

    def __len__(self):
        return len(self.labels)

    def images(self, index=slice(None)) -> np.ndarray:
        """The float64 images codes[index] / 255 of an index, a slice or an
        index array, as a new array: the only float copy there is of them."""
        return self.codes[index] / 255.0

    @property
    def labeled(self) -> bool:
        return None not in self.labels

    def without_labels(self) -> "Corpus":
        """The same images, every label dropped; the arrays are shared."""
        bare = copy.copy(self)   # unlabeled records need no label check
        bare.labels = [None] * len(self)
        return bare

    def __eq__(self, other):
        return (isinstance(other, Corpus)
                and self.vocab == other.vocab
                and self.labels == other.labels
                and np.array_equal(self.domain, other.domain)
                and np.array_equal(self.codes, other.codes))


def _flat_labels(labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each record's label length (0 when unlabeled), every label's
    characters in record order as float64, and where each record's start."""
    lengths = np.fromiter((len(label or ()) for label in labels),
                          dtype=np.intp, count=len(labels))
    chars = np.fromiter(itertools.chain.from_iterable(filter(None, labels)),
                        dtype=np.float64, count=int(lengths.sum()))
    return lengths, chars, np.cumsum(lengths) - lengths


def _codes(pixels: np.ndarray) -> np.ndarray:
    """The nearest 8-bit codes of pixels in [0, 1]: the grid the file format
    stores, so save/load is exact."""
    return np.round(pixels * 255.0).astype(np.uint8)


def _check_templates(templates: np.ndarray, vocab: VocabSpec, what: str):
    """Refuse templates that are not one 8x8 bitmap per character: the
    renderer's blank padding glyph is the row after the last character."""
    if templates.shape != (vocab.n_chars, GLYPH_H, GLYPH_W):
        raise ContractError(f"{what}: templates must be [{vocab.n_chars}, "
                            f"8, 8], got shape {templates.shape}")


def _render(index: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """The [n, 8, 8*L] lines of an [n, L] block of glyph indices, in the
    templates' dtype, drawn by one gather; index len(templates) is the
    blank glyph that pads a line to L."""
    blank = np.zeros((1, GLYPH_H, GLYPH_W), dtype=templates.dtype)
    glyphs = np.concatenate([templates, blank])[index]   # [n, L, 8, 8]
    n, l_max = index.shape
    return glyphs.transpose(0, 2, 1, 3).reshape(n, GLYPH_H, GLYPH_W * l_max)


def render_string(label, vocab: VocabSpec, templates: np.ndarray,
                  l_max: int) -> np.ndarray:
    """Lay the characters' bitmaps left to right, background-padded to L_max;
    returns the [8, 8*L_max] image in the templates' dtype."""
    label = tuple(int(i) for i in label)
    if not 1 <= len(label) <= l_max:
        raise ContractError(
            f"render: label length {len(label)} outside [1, {l_max}]")
    for i in label:
        if not 0 <= i < vocab.n_chars:
            raise ContractError(f"render: index {i} is not a character index")
    _check_templates(templates, vocab, "render")
    index = np.full((1, l_max), vocab.n_chars)
    index[0, :len(label)] = label
    return _render(index, templates)[0]


def _shift_codes(codes: np.ndarray, cfg: DomainConfig,
                 samples: range) -> np.ndarray:
    """Shear, dim, lift, then speckle an [n, H, W] uint8 block of codes;
    returns the shifted block's codes.

    Image k's noise stream is a pure function of (cfg.seed, samples[k]).
    Dimming and lifting act on each pixel alone, so they run, with the
    clip and quantization, as one 256-entry table of exact float results.
    """
    n, h, w = codes.shape
    if cfg.horizontal_shear > 0:
        sheared = np.zeros_like(codes)
        for y in range(h):
            shift = round(y * cfg.horizontal_shear / (h - 1))
            sheared[:, y, shift:] = codes[:, y, :w - shift]
        codes = sheared
    bg = cfg.background_level
    level = np.arange(256) / 255.0 * cfg.intensity_scale
    out = _codes(np.clip(bg + (1.0 - bg) * level, 0.0, 1.0))[codes]
    if cfg.salt_pepper_prob > 0.0:
        u = np.empty((n, 2, h, w))   # per image: the hit field, the salt field
        for k, sample in enumerate(samples):
            np.random.default_rng([cfg.seed, sample]).random(out=u[k])
        hit = u[:, 0] < cfg.salt_pepper_prob
        out[hit] = np.where(u[:, 1][hit] < 0.5, 255, 0)
    return out


def generate_corpus(vocab: VocabSpec, templates: np.ndarray, count: int,
                    length_range: tuple[int, int], seed: int,
                    domain_cfg: DomainConfig | None = None) -> Corpus:
    """Draw `count` labeled lines; shift them into the target domain if asked.

    Sample i is a pure function of (seed, i), so regeneration and parallel
    generation agree; characters are drawn uniformly.  The templates, in
    [0, 1], are snapped to the 8-bit grid; one gather renders every line
    into one uint8 block of codes, and the shift runs on it BLOCK images
    at a time.
    """
    if count < 1:
        raise ContractError(f"generate_corpus: count {count} < 1")
    lo, hi = length_range
    if not 1 <= lo <= hi:
        raise ContractError(f"generate_corpus: bad length range {length_range}")
    check_seed(seed, "generate_corpus: seed", stored=False)
    _check_templates(templates, vocab, "generate_corpus")
    if not (templates.min() >= 0.0 and templates.max() <= 1.0):
        raise ContractError("generate_corpus: templates must be finite and "
                            "in [0, 1]")
    index = np.full((count, hi), vocab.n_chars)
    labels = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        length = int(rng.integers(lo, hi + 1))
        label = tuple(rng.integers(0, vocab.n_chars, length).tolist())
        index[i, :length] = label
        labels.append(label)
    codes = _render(index, _codes(templates))
    if domain_cfg is not None:
        for start in range(0, count, BLOCK):
            block = range(start, min(start + BLOCK, count))
            codes[start:block.stop] = _shift_codes(
                codes[start:block.stop], domain_cfg, block)
    tag = SOURCE if domain_cfg is None else TARGET
    return Corpus(vocab, codes, labels, np.full(count, tag, dtype=np.uint8))


# ---------------------------------------------------------------------------
# on-disk format

def vocab_block(vocab: VocabSpec) -> bytes:
    """u32 character count, then each character as a u32 code point."""
    parts = [struct.pack("<I", vocab.n_chars)]
    parts += [struct.pack("<I", ord(c)) for c in vocab.characters]
    return b"".join(parts)


def read_vocab_block(r: Reader) -> VocabSpec:
    n_chars = r.u32("vocab size")
    if n_chars == 0:
        raise FormatError(f"{r.path}: vocab size 0 at offset {r.off - 4}; "
                          "need at least one character")
    chars: dict[str, int] = {}   # each character's symbol index
    for i in range(n_chars):
        code = r.u32(f"vocab symbol {i}")
        try:
            char = chr(code)
        except (ValueError, OverflowError):
            raise FormatError(
                f"{r.path}: invalid code point {code} at offset {r.off - 4}"
            ) from None
        if char in chars:
            raise FormatError(
                f"{r.path}: vocab symbol {i} {char!r} at offset {r.off - 4} "
                f"repeats symbol {chars[char]}")
        chars[char] = i
    return VocabSpec("".join(chars))


def save_corpus(corpus: Corpus, path: str):
    if corpus.vocab.n_chars > 256:
        raise ContractError(f"save_corpus: {corpus.vocab.n_chars} characters "
                            "do not fit the u8 label field (at most 256)")
    # the Corpus refused every label its vocab cannot spell or its u8 length
    # field cannot hold
    n, h, w = corpus.codes.shape
    lengths, chars, starts = _flat_labels(corpus.labels)
    # one row per record, its tag, length and label right-aligned before
    # the pixels, so dropping each row's leading pad leaves the records
    longest = int(lengths.max())
    pad = longest - lengths
    head = 2 + longest
    rows = np.empty((n, head + h * w), dtype=np.uint8)
    rows[:, head:] = corpus.codes.reshape(n, -1)
    at = np.arange(n)
    rows[at, pad] = corpus.domain
    rows[at, pad + 1] = lengths
    rows[np.repeat(at, lengths),
         np.arange(len(chars)) + np.repeat(pad + 2 - starts, lengths)] = chars
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, :longest] = np.arange(longest) >= pad[:, None]
    records = rows[keep]
    del rows, keep  # freed before the join copies the records once more
    write_atomic(path, b"".join([MAGIC, struct.pack("<IIII", VERSION, h, w, n),
                                 vocab_block(corpus.vocab), records]))


def load_corpus(path: str) -> Corpus:
    r = Reader(read_file(path, "corpus"), path)
    r.header(MAGIC, VERSION)
    h = r.u32("height")
    w = r.u32("width")
    # the two sizes follow the 8-byte magic and version
    for what, size, at in (("height", h, 8), ("width", w, 12)):
        if size == 0:
            raise FormatError(f"{path}: image {what} 0 at offset {at}; "
                              "height and width must be positive")
    count = r.u32("record count")
    if count == 0:   # it follows the two sizes
        raise FormatError(f"{path}: record count 0 at offset 16; a corpus "
                          "holds at least one record")
    vocab = read_vocab_block(r)
    blob, off, size = r.blob, r.off, h * w
    labels, domain, starts = [], [], []

    def cut(at: int, n: int, what: str):
        """Raise the Reader's truncation error for n bytes of what at
        offset at; the message is built only here, on failure."""
        r.off = at
        r.take(n, f"record {i} {what}")

    for i in range(count):
        if off >= len(blob):
            cut(off, 1, "domain tag")
        tag = blob[off]
        if tag not in DOMAINS:
            raise FormatError(f"{path}: bad domain tag {tag} at offset {off}")
        if off + 1 >= len(blob):
            cut(off + 1, 1, "label length")
        label_len = blob[off + 1]
        off += 2
        label = None
        if label_len:
            if off + label_len > len(blob):
                cut(off, label_len, "label")
            label = tuple(blob[off:off + label_len])
            if max(label) >= vocab.n_chars:
                idx = next(j for j in label if j >= vocab.n_chars)
                raise FormatError(
                    f"{path}: label index {idx} out of vocab in record {i}")
            off += label_len
        if off + size > len(blob):
            cut(off, size, "pixels")
        starts.append(off)
        off += size
        labels.append(label)
        domain.append(tag)
    r.off = off
    r.expect_end()
    # every record's h*w bytes, gathered through a zero-copy sliding window
    window = sliding_window_view(np.frombuffer(r.blob, dtype=np.uint8), h * w)
    codes = window[starts].reshape(count, h, w)
    return Corpus(vocab, codes, labels, np.array(domain, dtype=np.uint8))


# ---------------------------------------------------------------------------
# the stock desk-scale benchmark

GLYPH12_CHARS = "ABCDEFGHIJKL"
GLYPH12_LENGTHS = (1, 4)
GLYPH12_SHIFT = dict(salt_pepper_prob=0.15, intensity_scale=0.7,
                     horizontal_shear=1, background_level=0.1)


def build_glyph12(seed: int) -> dict[str, Corpus]:
    """Generate the stock 12-character benchmark.

    Returns five corpora: clean labeled source_train (5000) and source_val
    (1000); shifted target_train (5000, labels stripped); target_labeled,
    the same 5000 images with labels kept, for supervised-target runs;
    and the sealed shifted labeled target_test (1000).  The four generated
    corpora are independent units, shared over the CPUs in the process's
    affinity set through smile.parallel's runner, largest first; each is
    the serial one bit for bit, and one CPU builds all four with no fork.
    """
    check_seed(seed, "glyph12: seed")   # before any worker is forked
    vocab = VocabSpec(GLYPH12_CHARS)
    templates = make_templates(vocab, seed)
    shift = DomainConfig(seed=seed + 40, **GLYPH12_SHIFT)
    corpus = partial(generate_corpus, vocab, templates,
                     length_range=GLYPH12_LENGTHS)
    # largest first: the shifted 5000 are about half of the work
    target_labeled, source_train, target_test, source_val = _run_units([
        partial(corpus, 5000, seed=seed + 3, domain_cfg=shift),
        partial(corpus, 5000, seed=seed + 1),
        partial(corpus, 1000, seed=seed + 4, domain_cfg=shift),
        partial(corpus, 1000, seed=seed + 2)], "glyph12")
    target_train = target_labeled.without_labels()
    return {
        "source_train": source_train,
        "source_val": source_val,
        "target_train": target_train,
        "target_labeled": target_labeled,
        "target_test": target_test,
    }
