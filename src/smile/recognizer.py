"""Attention encoder-decoder over glyph strips.

The encoder projects a batch's 8x8 column strips, one [B, T, 64] block,
through tanh with one matmul, and runs a GRU over the strip sequence, first
to last: one [B, T, 3h] input matmul and one tensor.gru_cell node.  The
decoder is a GRU with additive attention queried by its previous hidden
state; each step sees [attention context ++ input embedding].

A whole batch runs through one tape: [1, d] biases broadcast over the batch
rows.  Each GRU holds its gates fused side by side, z | r | n: W [in, 3h],
U [h, 3h] and b [1, 3h].  Checkpoints store them per gate (W_z, U_r, ...);
fuse_gates and split_gates convert at that boundary.  encode returns the
[B, T, h] features and their [B, T, a] attention keys, which the decoder
reads.  A decode is a token sequence per sample: row t is fed token t-1 (GO
at t = 0) and labelled with token t.  Teacher forcing is given its tokens,
and at most one replay of images the batch's size after them; it runs every
step in one tensor.attn_gru node, fed one token per row, so each sample
runs only its own steps and is never fed PAD, and projects every hidden
state with one taped output head (matmul, bias add, softmax).  Greedy is
forward-only: one tensor.DecoderRun per decode runs the same steps one at a
time, feeds back the restricted argmax of each step's logits and drops a
sample once it emits EOS; the softmax of the same logits is its block.
Each decode returns a Decoded block of one row per emitted token,
sample-major, labelled by the tokens.  Iterating a Decoded gives
per-sample DecoderOutputs.

The layer sizes are constants: a model is its vocab, its l_max (the most
characters it reads) and its weights.  A strip is one GLYPH_H x GLYPH_W slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import GLYPH_H, GLYPH_W, MAX_LABEL, Corpus, VocabSpec, check_seed
from .errors import ContractError, DimensionError
from .tensor import Tensor

# the one architecture; load_checkpoint refuses a header with other sizes
D_FEAT = 32
ENC_HIDDEN = 32
EMBED_DIM = 16
DEC_HIDDEN = 2 * ENC_HIDDEN
ATTN_DIM = D_FEAT

GATES = ("z", "r", "n")
GRU_BLOCKS = ("enc", "dec")


def param_shapes(K: int) -> dict[str, tuple[int, int]]:
    """Every checkpoint tensor's shape (GRU gates apart) for K classes, in
    the order init_params draws them."""
    shapes = {"proj/W": (GLYPH_H * GLYPH_W, D_FEAT), "proj/b": (1, D_FEAT)}

    def gru_block(prefix: str, in_dim: int, hid: int):
        for gate in GATES:
            shapes[f"{prefix}/W_{gate}"] = (in_dim, hid)
            shapes[f"{prefix}/U_{gate}"] = (hid, hid)
            shapes[f"{prefix}/b_{gate}"] = (1, hid)

    gru_block("enc", D_FEAT, ENC_HIDDEN)
    shapes["attn/W_enc"] = (ENC_HIDDEN, ATTN_DIM)
    shapes["attn/W_dec"] = (DEC_HIDDEN, ATTN_DIM)
    shapes["attn/v"] = (ATTN_DIM, 1)
    shapes["embed/E"] = (K, EMBED_DIM)
    gru_block("dec", ENC_HIDDEN + EMBED_DIM, DEC_HIDDEN)
    shapes["out/W"] = (DEC_HIDDEN, K)
    shapes["out/b"] = (1, K)
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


def init_params(K: int, seed: int) -> dict[str, Tensor]:
    """All weights uniform(-1/sqrt(fan_in), +), biases zero, one seeded
    stream consumed per gate in fixed declaration order; GRU gates fused."""
    check_seed(seed, "init_params: seed", stored=False)
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, (rows, cols) in param_shapes(K).items():
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
    GLYPH_W px wide), lines of more than MAX_LABEL characters, which no
    model decodes, or lines or labels of more than l_max, since greedy stops
    after l_max+1 steps, so longer words never match."""
    if corpus.vocab != vocab:
        raise ContractError(f"{what}: vocab {corpus.vocab.characters!r} "
                            f"differs from the model's {vocab.characters!r}")
    if labeled and not corpus.labeled:
        raise ContractError(f"{what}: {corpus.labels.count(None)} of "
                            f"{len(corpus)} images are unlabeled")
    _, height, width = corpus.codes.shape
    if height != GLYPH_H or width % GLYPH_W:
        raise ContractError(
            f"{what}: images are {height}x{width} px; the model reads lines "
            f"{GLYPH_H} px high and a multiple of {GLYPH_W} px wide")
    if width // GLYPH_W > MAX_LABEL:
        raise ContractError(
            f"{what}: images are {width} px wide ({width // GLYPH_W} "
            f"characters), more than the {MAX_LABEL} a label can hold")
    if width // GLYPH_W > l_max:
        raise ContractError(
            f"{what}: images are {width} px wide ({width // GLYPH_W} "
            f"characters), the model decodes at most l_max={l_max} "
            f"({l_max * GLYPH_W} px)")
    if labeled and max(map(len, corpus.labels)) > l_max:
        i = next(i for i, lab in enumerate(corpus.labels) if len(lab) > l_max)
        raise ContractError(
            f"{what}: record {i}'s label has {len(corpus.labels[i])} "
            f"characters, the model decodes at most l_max={l_max}")


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
    """A batch's decode: the output head's rows, one per emitted token,
    sample by sample, and the tokens that label them.  A head's labels
    cover only the block's leading rows."""

    probs: Tensor                       # [N, K] softmax rows, each sums to 1
    labels: list[tuple[int, ...]]       # each sample's tokens, one per row

    def head(self, n: int) -> "Decoded":
        """The first n samples' decode, reading the same block."""
        return Decoded(self.probs, self.labels[:n])

    def __iter__(self):
        ends = np.cumsum([len(labels) for labels in self.labels]).tolist()
        for labels, lo, hi in zip(self.labels, [0, *ends], ends):
            yield DecoderOutput(self.probs.data[lo:hi], labels)


class Recognizer:
    """Parameter record plus the forward passes that share it."""

    def __init__(self, vocab: VocabSpec, l_max: int,
                 params: dict[str, Tensor]):
        # greedy runs l_max + 1 steps, so a corrupt length must not get through
        if not 1 <= l_max <= MAX_LABEL:
            raise ContractError(f"recognizer: l_max {l_max} outside "
                                f"[1, {MAX_LABEL}], the corpus label range")
        self.vocab = vocab
        self.l_max = l_max
        self.params = params

    @classmethod
    def fresh(cls, vocab: VocabSpec, l_max: int, seed: int) -> "Recognizer":
        """A freshly initialized model for vocab's K classes."""
        return cls(vocab, l_max, init_params(vocab.K, seed))

    # -- shared pieces ------------------------------------------------------

    def encode(self, pixels: np.ndarray) -> tuple[Tensor, Tensor]:
        """(feats, keys) of float images [B, 8, W], B >= 1 and W a positive
        multiple of 8: feats [B, T_enc, h] are the encoder GRU's states, one
        per strip, and keys [B, T_enc, a] = feats @ attn/W_enc are their
        attention keys, the same at every decode step.  Integer arrays, such
        as a corpus's raw 8-bit codes, are refused (Corpus.images gives the
        float images)."""
        if pixels.dtype.kind != "f":
            raise ContractError(f"encode: pixels are {pixels.dtype}, not "
                                "float images in [0, 1]")
        if pixels.ndim != 3:
            raise DimensionError(f"encode: pixels {pixels.shape} not [B, H, W]")
        batch, h, w = pixels.shape
        if batch == 0:
            raise DimensionError("encode: no images")
        if h != GLYPH_H:
            raise DimensionError(f"encode: image height {h}, expected {GLYPH_H}")
        if w == 0 or w % GLYPH_W != 0:
            raise DimensionError(
                f"encode: width {w} not a positive multiple of {GLYPH_W}")
        t_enc = w // GLYPH_W
        # strips[b, t] is strip t of sample b, flattened row by row
        strips = pixels.reshape(batch, GLYPH_H, t_enc, GLYPH_W).transpose(
            0, 2, 1, 3).reshape(batch, t_enc, GLYPH_H * GLYPH_W)
        p = self.params
        x = T.tanh(T.add(T.matmul(T.constant(strips), p["proj/W"]),
                         p["proj/b"]))
        xw = T.add(T.matmul(x, p["enc/W"]), p["enc/b"])
        feats = T.gru_cell(xw, p["enc/U"])
        return feats, T.matmul(feats, p["attn/W_enc"])

    # -- the two decoding modes ---------------------------------------------

    def teacher_forced(self, pixels: np.ndarray,
                       labels: list[tuple[int, ...]], replay=None) -> Decoded:
        """Token-fed decode of label + (EOS,) per sample: step 0 is fed GO
        and step t > 0 token t-1, so sample b emits len(label_b)+1 rows, row
        t labelled with token t.  A sample shorter than the batch maximum runs
        only its own steps, never fed PAD, so the block holds only emitted
        rows.

        replay, one (pixels, sequences) pair, joins the batch in its one
        decode.  Its images must be the batch's size; its sequences go
        unchecked: each is a greedy decode's whole output, fed back to
        rebuild its rows, which follow the labeled batch's.
        """
        if len(labels) != len(pixels):
            raise ContractError(
                f"teacher_forced: {len(pixels)} images vs {len(labels)} labels")
        chars = range(self.vocab.n_chars)
        for lab in labels:
            if len(lab) == 0 or len(lab) > self.l_max:
                raise ContractError(
                    f"teacher_forced: label length {len(lab)} outside "
                    f"[1, {self.l_max}]")
            for i in lab:
                if i not in chars:   # out of range or not a whole number
                    raise ContractError(
                        f"teacher_forced: {i} is not a character index")
        tokens = [(*lab, self.vocab.EOS) for lab in labels]
        if replay is not None:
            if replay[0].shape[1:] != pixels.shape[1:]:
                raise DimensionError(
                    f"teacher_forced: replay images {replay[0].shape[1:]} "
                    f"differ from the batch's {pixels.shape[1:]}")
            pixels = np.concatenate([pixels, replay[0]])
            tokens += replay[1]
        p = self.params
        feats, keys = self.encode(pixels)
        batch = len(pixels)
        fed = np.fromiter(itertools.chain.from_iterable(
            (self.vocab.GO, *seq[:-1]) for seq in tokens), dtype=int)
        h = T.attn_gru(keys, feats, p["embed/E"], fed,
                       T.zeros((batch, DEC_HIDDEN)), p["attn/W_dec"],
                       p["attn/v"], p["dec/W"], p["dec/b"], p["dec/U"],
                       [len(seq) for seq in tokens])
        logits = T.add(T.matmul(h, p["out/W"]), p["out/b"])
        return Decoded(T.softmax(logits), tokens)

    def greedy(self, pixels: np.ndarray) -> Decoded:
        """Self-fed, forward-only decode, at most l_max+1 steps, truncated at
        each sample's first EOS (the EOS row is kept); each step is fed the
        last one's restricted argmax (GO and PAD never win) over its logits.
        A sample leaves the batch once it emits EOS: later steps run only
        the live rows, all in one tensor.DecoderRun, set up once.  Records
        nothing, even inside a tape."""
        p = self.params
        W, b = p["out/W"].data, p["out/b"].data
        allowed = np.ones(self.vocab.K, dtype=bool)
        allowed[[self.vocab.GO, self.vocab.PAD]] = False
        batch = len(pixels)
        ids = np.full(batch, self.vocab.GO)
        live = np.arange(batch)
        step_logits, step_ids, step_live = [], [], []
        with T.untaped():
            feats, keys = self.encode(pixels)
        run = T.DecoderRun(keys, feats, p["embed/E"],
                           T.zeros((batch, DEC_HIDDEN)), p["attn/W_dec"],
                           p["attn/v"], p["dec/W"], p["dec/b"], p["dec/U"])
        for _ in range(self.l_max + 1):
            keep = np.flatnonzero(ids != self.vocab.EOS)
            if len(keep) == 0:
                break
            live, ids = live[keep], ids[keep]
            logits = run.feed(ids, keep) @ W + b
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
        return Decoded(T.softmax(T.constant(block)), labels)
