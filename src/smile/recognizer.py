"""Attention encoder-decoder over glyph strips.

The encoder projects a batch's 8x8 column strips, one [B, T, 64] block,
through tanh with one matmul, and runs a GRU over the strip sequence, first
to last: one [B, T, 3h] input matmul and one tensor.gru_cell node.  The
decoder is a GRU with additive attention queried by its previous hidden
state; each step sees [attention context ++ input embedding].

A whole batch runs through one tape: [1, d] biases broadcast over the batch
rows.  Each GRU holds its gates fused side by side, z | r | n: W [in, 3h],
U [h, 3h] and b [1, 3h].  Checkpoints store them per gate (W_z, U_r, ...);
fuse_gates and split_gates convert at that boundary.  The decoder runs as
tensor.attn_gru nodes over the [B, T, a] keys and [B, T, h] features.  A
decode is a token sequence per sample: row t is fed token t-1 (GO at t = 0)
and labelled with token t.  Teacher forcing is given its tokens, runs
every step in one attn_gru node, each sample only for its own steps, and
projects every hidden state with one taped output head (matmul, bias add,
softmax).  Greedy is forward-only: it runs one node per step, feeds back
the restricted argmax of that step's logits and drops a sample once it
emits EOS, indexing the live rows of the state and the encoding; the
softmax of the same logits is its block.  Each decode returns a
sample-major Decoded block, indexed by its emitted rows and labelled by
the tokens: teacher forcing's keeps a row for each step past a shorter
sequence's end, read from a zero state, greedy's holds only emitted rows.
Iterating a Decoded gives per-sample DecoderOutputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import MAX_LABEL, Corpus, VocabSpec, check_seed
from .errors import ContractError, DimensionError
from .tensor import Tensor

GLYPH_H = 8
STRIP_W = 8

GATES = ("z", "r", "n")
GRU_BLOCKS = ("enc", "dec")


@dataclass(frozen=True)
class ArchSpec:
    """Layer sizes; dec_hidden and attn_dim follow fixed conventions."""

    K: int
    l_max: int
    d_feat: int = 32
    enc_hidden: int = 32
    embed_dim: int = 16

    def __post_init__(self):
        # greedy runs l_max + 1 steps, so a corrupt size must not get through
        if not 1 <= self.l_max <= MAX_LABEL:
            raise ContractError(f"arch: l_max {self.l_max} outside "
                                f"[1, {MAX_LABEL}], the corpus label range")
        for name in ("d_feat", "enc_hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise ContractError(
                    f"arch: {name} {getattr(self, name)} is below 1")

    @property
    def dec_hidden(self) -> int:
        return 2 * self.enc_hidden

    @property
    def attn_dim(self) -> int:
        return self.d_feat


def param_shapes(arch: ArchSpec) -> dict[str, tuple[int, int]]:
    """Every checkpoint tensor's shape (GRU gates apart), in the order
    init_params draws them; allocates nothing, so safe on untrusted sizes."""
    shapes = {"proj/W": (GLYPH_H * STRIP_W, arch.d_feat),
              "proj/b": (1, arch.d_feat)}

    def gru_block(prefix: str, in_dim: int, hid: int):
        for gate in GATES:
            shapes[f"{prefix}/W_{gate}"] = (in_dim, hid)
            shapes[f"{prefix}/U_{gate}"] = (hid, hid)
            shapes[f"{prefix}/b_{gate}"] = (1, hid)

    gru_block("enc", arch.d_feat, arch.enc_hidden)
    shapes["attn/W_enc"] = (arch.enc_hidden, arch.attn_dim)
    shapes["attn/W_dec"] = (arch.dec_hidden, arch.attn_dim)
    shapes["attn/v"] = (arch.attn_dim, 1)
    shapes["embed/E"] = (arch.K, arch.embed_dim)
    gru_block("dec", arch.enc_hidden + arch.embed_dim, arch.dec_hidden)
    shapes["out/W"] = (arch.dec_hidden, arch.K)
    shapes["out/b"] = (1, arch.K)
    return shapes


def fuse_gates(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Join each checked, complete per-gate triple <name>_z|_r|_n into one
    <name>, columns z | r | n; other names (any prefix) pass through."""
    fused = {}
    for name, arr in arrays.items():
        head, _, gate = name.rpartition("_")
        if gate not in GATES:
            fused[name] = arr
        elif gate == "z":
            fused[head] = np.concatenate(
                [arrays[f"{head}_{g}"] for g in GATES], axis=1)
    return fused


def split_gates(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Inverse of fuse_gates: each fused GRU tensor back into its three
    per-gate column blocks (views); other names pass through."""
    split = {}
    for name, arr in arrays.items():
        if name[-2:] in ("/W", "/U", "/b") and name[:-2].endswith(GRU_BLOCKS):
            split.update(zip([f"{name}_{g}" for g in GATES],
                             np.split(arr, len(GATES), axis=1)))
        else:
            split[name] = arr
    return split


def init_params(arch: ArchSpec, seed: int) -> dict[str, Tensor]:
    """All weights uniform(-1/sqrt(fan_in), +), biases zero, one seeded
    stream consumed per gate in fixed declaration order; GRU gates fused."""
    check_seed(seed, "init_params: seed", stored=False)
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, (rows, cols) in param_shapes(arch).items():
        if name.rsplit("/", 1)[1].startswith("b"):
            arrays[name] = np.zeros((rows, cols))
        else:
            bound = 1.0 / np.sqrt(rows)
            arrays[name] = rng.uniform(-bound, bound, (rows, cols))
    return {n: T.parameter(a) for n, a in fuse_gates(arrays).items()}


def check_corpus(corpus: Corpus, vocab: VocabSpec, l_max: int, what: str,
                 labeled: bool = True):
    """Refuse a corpus of another vocab, unlabeled records where labels are
    needed, lines encode cannot take (not GLYPH_H px high or a multiple of
    STRIP_W px wide), lines of more than MAX_LABEL characters, which no
    model decodes, or of more than l_max, since greedy stops after l_max+1
    steps, so longer words never match."""
    if corpus.vocab != vocab:
        raise ContractError(f"{what}: vocab {corpus.vocab.characters!r} "
                            f"differs from the model's {vocab.characters!r}")
    if labeled and not corpus.labeled:
        raise ContractError(f"{what}: {corpus.labels.count(None)} of "
                            f"{len(corpus)} images are unlabeled")
    _, height, width = corpus.codes.shape
    if height != GLYPH_H or width % STRIP_W:
        raise ContractError(
            f"{what}: images are {height}x{width} px; the model reads lines "
            f"{GLYPH_H} px high and a multiple of {STRIP_W} px wide")
    if width // STRIP_W > MAX_LABEL:
        raise ContractError(
            f"{what}: images are {width} px wide ({width // STRIP_W} "
            f"characters), more than the {MAX_LABEL} a label can hold")
    if width // STRIP_W > l_max:
        raise ContractError(
            f"{what}: images are {width} px wide ({width // STRIP_W} "
            f"characters), the model decodes at most l_max={l_max} "
            f"({l_max * STRIP_W} px)")


@dataclass
class DecoderOutput:
    """One sample's view of a Decoded batch, as iterating it yields them."""

    probs: np.ndarray                   # [T, K] rows, each sums to 1
    pseudo_labels: tuple[int, ...]      # the tokens, one per row

    @property
    def emitted_length(self) -> int:
        return len(self.pseudo_labels)


@dataclass
class Decoded:
    """A batch's decode: the output head's rows, sample by sample, where
    each sample's emitted rows sit in them, and the tokens that label them.
    Teacher forcing keeps every step of every sample, those past a shorter
    sample's end included; greedy keeps only emitted rows, so its rows are
    arange(S)."""

    probs: Tensor                       # [S, K] softmax rows, each sums to 1
    rows: np.ndarray                    # [N] emitted rows of probs, sample-major
    labels: list[tuple[int, ...]]       # each sample's tokens, one per row

    def head(self, n: int) -> "Decoded":
        """The first n samples' decode, reading the same block."""
        emitted = sum(len(labels) for labels in self.labels[:n])
        return Decoded(self.probs, self.rows[:emitted], self.labels[:n])

    def __iter__(self):
        ends = np.cumsum([len(labels) for labels in self.labels])[:-1]
        for labels, rows in zip(self.labels, np.split(self.rows, ends)):
            yield DecoderOutput(self.probs.data[rows], labels)


@dataclass
class EncodedBatch:
    """Context-mixed strip features and their attention keys, sample-major."""

    feats: Tensor      # [B, T_enc, h]
    keys: Tensor       # [B, T_enc, a]: feats @ attn/W_enc, step-independent


class Recognizer:
    """Parameter record plus the forward passes that share it."""

    def __init__(self, vocab: VocabSpec, arch: ArchSpec,
                 params: dict[str, Tensor]):
        if arch.K != vocab.K:
            raise ContractError(
                f"recognizer: arch K={arch.K} disagrees with vocab K={vocab.K}")
        self.vocab = vocab
        self.arch = arch
        self.params = params

    @classmethod
    def fresh(cls, vocab: VocabSpec, l_max: int, seed: int) -> "Recognizer":
        """A freshly initialized model of ArchSpec's default sizes."""
        spec = ArchSpec(K=vocab.K, l_max=l_max)
        return cls(vocab, spec, init_params(spec, seed))

    # -- shared pieces ------------------------------------------------------

    def encode(self, pixels: np.ndarray) -> EncodedBatch:
        """pixels: float images [B, 8, W] with W a positive multiple of 8;
        integer arrays, such as a corpus's raw 8-bit codes, are refused
        (Corpus.images gives the float images)."""
        if pixels.dtype.kind != "f":
            raise ContractError(f"encode: pixels are {pixels.dtype}, not "
                                "float images in [0, 1]")
        if pixels.ndim != 3:
            raise DimensionError(f"encode: pixels {pixels.shape} not [B, H, W]")
        batch, h, w = pixels.shape
        if h != GLYPH_H:
            raise DimensionError(f"encode: image height {h}, expected {GLYPH_H}")
        if w == 0 or w % STRIP_W != 0:
            raise DimensionError(
                f"encode: width {w} not a positive multiple of {STRIP_W}")
        t_enc = w // STRIP_W
        # strips[b, t] is strip t of sample b, flattened row by row
        strips = pixels.reshape(batch, GLYPH_H, t_enc, STRIP_W).transpose(
            0, 2, 1, 3).reshape(batch, t_enc, GLYPH_H * STRIP_W)
        p = self.params
        x = T.tanh(T.add(T.matmul(T.constant(strips), p["proj/W"]),
                         p["proj/b"]))
        xw = T.add(T.matmul(x, p["enc/W"]), p["enc/b"])
        feats = T.gru_cell(xw, T.zeros((batch, self.arch.enc_hidden)),
                           p["enc/U"])
        return EncodedBatch(feats, T.matmul(feats, p["attn/W_enc"]))

    # -- the two decoding modes ---------------------------------------------

    def teacher_forced(self, pixels: np.ndarray,
                       labels: list[tuple[int, ...]], replay=()) -> Decoded:
        """Token-fed decode of label + (EOS,) per sample: step 0 is fed GO
        and step t > 0 token t-1, so sample b emits len(label_b)+1 rows, row
        t labelled with token t.  A sample shorter than the batch maximum runs
        only its own steps; its rows past them hold the softmax of out/b (a
        zero state) and are left out of the Decoded's rows.

        replay's (pixels, sequences) parts join the batch unchecked: each
        sequence is a greedy decode's whole output, fed back to rebuild its
        rows.  Each run of parts of one image width decodes as one batch;
        rows follow part order.
        """
        if len(labels) != len(pixels):
            raise ContractError(
                f"teacher_forced: {len(pixels)} images vs {len(labels)} labels")
        for lab in labels:
            if len(lab) == 0 or len(lab) > self.arch.l_max:
                raise ContractError(
                    f"teacher_forced: label length {len(lab)} outside "
                    f"[1, {self.arch.l_max}]")
            for i in lab:
                if not 0 <= i < self.vocab.n_chars:
                    raise ContractError(
                        f"teacher_forced: {i} is not a character index")
        tokens = [(*lab, self.vocab.EOS) for lab in labels]
        blocks = []
        for _, run in itertools.groupby([(pixels, tokens), *replay],
                                        key=lambda part: part[0].shape[-1]):
            run = list(run)
            px = (run[0][0] if len(run) == 1
                  else np.concatenate([part_px for part_px, _ in run]))
            blocks.append(self._decode_forced(
                px, [seq for _, part_seqs in run for seq in part_seqs]))
        if len(blocks) == 1:
            return blocks[0]
        offsets = np.cumsum([0] + [block.probs.shape[0] for block in blocks])
        return Decoded(T.concat([block.probs for block in blocks]),
                       np.concatenate([block.rows + offset for block, offset
                                       in zip(blocks, offsets)]),
                       [lab for block in blocks for lab in block.labels])

    def _decode_forced(self, pixels: np.ndarray,
                       tokens: list[tuple[int, ...]]) -> Decoded:
        p = self.params
        enc = self.encode(pixels)
        batch = len(pixels)
        lengths = np.array([len(seq) for seq in tokens])
        emitted = np.arange(lengths.max()) < lengths[:, None]
        # fed[b, t] is the token sample b reads at step t: GO, then its own
        # tokens, PAD past its end, where attn_gru runs it no further
        fed = np.full(emitted.shape, self.vocab.PAD)
        fed[emitted] = np.fromiter(itertools.chain.from_iterable(
            (self.vocab.GO, *seq[:-1]) for seq in tokens), dtype=int)
        h = T.attn_gru(enc.keys, enc.feats, p["embed/E"], fed,
                       T.zeros((batch, self.arch.dec_hidden)), p["attn/W_dec"],
                       p["attn/v"], p["dec/W"], p["dec/b"], p["dec/U"],
                       lengths=lengths)
        logits = T.add(T.matmul(h, p["out/W"]), p["out/b"])
        return Decoded(T.softmax(logits), np.flatnonzero(emitted),
                       list(tokens))

    def greedy(self, pixels: np.ndarray) -> Decoded:
        """Self-fed, forward-only decode, at most l_max+1 steps, truncated at
        each sample's first EOS (the EOS row is kept); each step is fed the
        last one's restricted argmax (GO and PAD never win) over its logits.
        A sample leaves the batch once it emits EOS: later steps run only
        the live rows.  Records nothing, even inside a tape."""
        p = self.params
        W, b = p["out/W"].data, p["out/b"].data
        allowed = np.ones(self.vocab.K, dtype=bool)
        allowed[[self.vocab.GO, self.vocab.PAD]] = False
        batch = len(pixels)
        ids = np.full(batch, self.vocab.GO)
        live = np.arange(batch)
        step_logits, step_ids, step_live = [], [], []
        with T.untaped():
            enc = self.encode(pixels)
            h = T.zeros((batch, self.arch.dec_hidden))
            for t in range(self.arch.l_max + 1):
                if t > 0:
                    keep = np.flatnonzero(ids != self.vocab.EOS)
                    if len(keep) == 0:
                        break
                    if len(keep) < len(live):
                        live, ids = live[keep], ids[keep]
                        h = T.constant(h.data[keep])
                        enc = EncodedBatch(T.constant(enc.feats.data[keep]),
                                           T.constant(enc.keys.data[keep]))
                h = T.attn_gru(enc.keys, enc.feats, p["embed/E"], ids, h,
                               p["attn/W_dec"], p["attn/v"], p["dec/W"],
                               p["dec/b"], p["dec/U"])
                logits = h.data @ W + b
                ids = np.argmax(np.where(allowed, logits, -np.inf), axis=1)
                step_logits.append(logits)
                step_ids.append(ids)
                step_live.append(live)
        # the steps stack step-major: a stable sort by sample keeps each
        # sample's rows in time order
        sample = np.concatenate(step_live)
        order = np.argsort(sample, kind="stable")
        tokens = np.concatenate(step_ids)[order].tolist()
        ends = np.cumsum(np.bincount(sample)).tolist()
        labels = [tuple(tokens[lo:hi]) for lo, hi in zip([0, *ends], ends)]
        block = np.concatenate(step_logits)[order]
        return Decoded(T.softmax(T.constant(block)), np.arange(len(order)),
                       labels)
