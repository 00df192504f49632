"""Attention encoder-decoder over glyph strips.

The encoder flattens each 8x8 column strip, projects it through tanh, and
runs a GRU over the strip sequence (optionally bidirectional with summed
directions).  The decoder is a GRU with additive attention queried by its
previous hidden state; each step sees [attention context ++ input embedding]
and projects to class probabilities.

A whole batch runs through one tape: [1, d] biases broadcast over the batch
rows.  Each GRU keeps its checkpoint parameters per gate (W_z|W_r|W_n, U_*,
b_*); a forward pass concatenates them once into the fused [in, 3h], [h, 3h]
and [1, 3h] layout, so a recurrent step is one input matmul, one bias add
and one tensor.gru_cell node.  A decoder step's attention is one query
matmul and one tensor.attend node over the [B, T, a] keys and [B, T, h]
features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import TextImage, VocabSpec
from .errors import ContractError, DimensionError
from .tensor import Tensor

GLYPH_H = 8
STRIP_W = 8

GRUWeights = tuple[Tensor, Tensor, Tensor]   # fused (W, b, U), gates z | r | n


@dataclass(frozen=True)
class ArchSpec:
    """Layer sizes; dec_hidden and attn_dim follow fixed conventions."""

    K: int
    l_max: int
    d_feat: int = 32
    enc_hidden: int = 32
    embed_dim: int = 16
    bidirectional: bool = False

    @property
    def dec_hidden(self) -> int:
        return 2 * self.enc_hidden

    @property
    def attn_dim(self) -> int:
        return self.d_feat


def _uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    a = 1.0 / np.sqrt(rows)
    return T.parameter(rng.uniform(-a, a, (rows, cols)))


def _zeros_param(rows: int, cols: int) -> Tensor:
    return T.parameter(np.zeros((rows, cols)))


def init_params(arch: ArchSpec, seed: int) -> dict[str, Tensor]:
    """All weights uniform(-1/sqrt(fan_in), +), biases zero, one seeded
    stream consumed in fixed declaration order."""
    rng = np.random.default_rng(seed)
    p: dict[str, Tensor] = {}
    p["proj/W"] = _uniform(rng, GLYPH_H * STRIP_W, arch.d_feat)
    p["proj/b"] = _zeros_param(1, arch.d_feat)

    def gru_block(prefix: str, in_dim: int, hid: int):
        for gate in ("z", "r", "n"):
            p[f"{prefix}/W_{gate}"] = _uniform(rng, in_dim, hid)
            p[f"{prefix}/U_{gate}"] = _uniform(rng, hid, hid)
            p[f"{prefix}/b_{gate}"] = _zeros_param(1, hid)

    gru_block("enc", arch.d_feat, arch.enc_hidden)
    if arch.bidirectional:
        gru_block("enc_bwd", arch.d_feat, arch.enc_hidden)
    p["attn/W_enc"] = _uniform(rng, arch.enc_hidden, arch.attn_dim)
    p["attn/W_dec"] = _uniform(rng, arch.dec_hidden, arch.attn_dim)
    p["attn/v"] = _uniform(rng, arch.attn_dim, 1)
    p["embed/E"] = _uniform(rng, arch.K, arch.embed_dim)
    gru_block("dec", arch.enc_hidden + arch.embed_dim, arch.dec_hidden)
    p["out/W"] = _uniform(rng, arch.dec_hidden, arch.K)
    p["out/b"] = _zeros_param(1, arch.K)
    return p


@dataclass
class DecoderOutput:
    """One sample's decode: probs rows are per-step distributions over K."""

    probs: Tensor                       # [T, K], rows sum to 1
    pseudo_labels: tuple[int, ...]      # restricted argmax per row

    @property
    def emitted_length(self) -> int:
        return self.probs.shape[0]


@dataclass
class EncodedBatch:
    """Context-mixed strip features and their attention keys, sample-major."""

    feats: Tensor      # [B, T_enc, h]
    keys: Tensor       # [B, T_enc, a]: feats @ attn/W_enc, step-independent
    batch: int
    t_enc: int


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
    def fresh(cls, vocab: VocabSpec, l_max: int, seed: int,
              d_feat: int = 32, enc_hidden: int = 32, embed_dim: int = 16,
              bidirectional: bool = False) -> "Recognizer":
        arch = ArchSpec(K=vocab.K, l_max=l_max, d_feat=d_feat,
                        enc_hidden=enc_hidden, embed_dim=embed_dim,
                        bidirectional=bidirectional)
        return cls(vocab, arch, init_params(arch, seed))

    # -- shared pieces ------------------------------------------------------

    def _gru_weights(self, prefix: str) -> GRUWeights:
        """The block's (W, b, U) in the fused z | r | n layout."""
        return tuple(T.concat([self.params[f"{prefix}/{kind}_{gate}"]
                               for gate in ("z", "r", "n")], axis=1)
                     for kind in ("W", "b", "U"))

    @staticmethod
    def _gru_step(weights: GRUWeights, x: Tensor, h: Tensor) -> Tensor:
        w, b, u = weights
        return T.gru_cell(T.add(T.matmul(x, w), b), h, u)

    def encode(self, pixels: np.ndarray) -> EncodedBatch:
        """pixels: [B, 8, W] with W a multiple of 8."""
        if pixels.ndim == 2:
            pixels = pixels[None]
        batch, h, w = pixels.shape
        if h != GLYPH_H:
            raise DimensionError(f"encode: image height {h}, expected {GLYPH_H}")
        if w % STRIP_W != 0:
            raise DimensionError(f"encode: width {w} not a multiple of {STRIP_W}")
        t_enc = w // STRIP_W
        hid_dim = self.arch.enc_hidden
        strips = []
        for t in range(t_enc):
            x = T.constant(pixels[:, :, t * STRIP_W:(t + 1) * STRIP_W]
                           .reshape(batch, GLYPH_H * STRIP_W))
            strips.append(T.tanh(T.add(T.matmul(x, self.params["proj/W"]),
                                       self.params["proj/b"])))
        weights = self._gru_weights("enc")
        hid = T.zeros((batch, hid_dim))
        fwd = []
        for x in strips:
            hid = self._gru_step(weights, x, hid)
            fwd.append(hid)
        if self.arch.bidirectional:
            weights = self._gru_weights("enc_bwd")
            hid = T.zeros((batch, hid_dim))
            bwd = []
            for x in reversed(strips):
                hid = self._gru_step(weights, x, hid)
                bwd.append(hid)
            feats_by_t = [T.add(f, b) for f, b in zip(fwd, reversed(bwd))]
        else:
            feats_by_t = fwd
        # [B, T*h] side by side is already sample-major
        flat = T.concat(feats_by_t, axis=1)
        keys = T.matmul(T.reshape(flat, (batch * t_enc, hid_dim)),
                        self.params["attn/W_enc"])
        return EncodedBatch(
            feats=T.reshape(flat, (batch, t_enc, hid_dim)),
            keys=T.reshape(keys, (batch, t_enc, self.arch.attn_dim)),
            batch=batch, t_enc=t_enc)

    def _decode_step(self, enc: EncodedBatch, weights: GRUWeights, h: Tensor,
                     input_ids) -> tuple[Tensor, Tensor]:
        """One decoder step with the fused decoder GRU weights; returns
        (h_next, probs [B,K])."""
        p = self.params
        context = T.attend(enc.keys, enc.feats, T.matmul(h, p["attn/W_dec"]),
                           p["attn/v"])
        emb = T.gather_rows(p["embed/E"], input_ids)
        h_next = self._gru_step(weights, T.concat([context, emb], axis=1), h)
        logits = T.add(T.matmul(h_next, p["out/W"]), p["out/b"])
        return h_next, T.softmax(logits)

    def _restricted_argmax(self, probs_row: np.ndarray) -> np.ndarray:
        """Row argmax over characters plus EOS; GO and PAD never win."""
        masked = probs_row.copy()
        masked[..., self.vocab.GO] = -1.0
        masked[..., self.vocab.PAD] = -1.0
        return np.argmax(masked, axis=-1)

    def _split_outputs(self, step_probs: list[Tensor], batch: int,
                       lengths: list[int]) -> list[DecoderOutput]:
        """Slice per-step batch rows into per-sample differentiable views."""
        all_probs = T.concat(step_probs, axis=0)
        # [T, B] labels of the whole block, one argmax for every sample
        picked = self._restricted_argmax(all_probs.data).reshape(-1, batch)
        outs = []
        for b in range(batch):
            rows = [t * batch + b for t in range(lengths[b])]
            labels = tuple(picked[:lengths[b], b].tolist())
            outs.append(DecoderOutput(T.gather_rows(all_probs, rows), labels))
        return outs

    # -- the two decoding modes ---------------------------------------------

    def teacher_forced(self, pixels: np.ndarray,
                       labels: list[tuple[int, ...]]) -> list[DecoderOutput]:
        """Ground-truth-fed decode; sample b's output has len(label_b)+1 rows.

        Step 0 is fed GO; step t>0 is fed label_b[t-1]; the final row's
        implied target is EOS.  Samples shorter than the batch maximum are
        padded with PAD inputs and their extra rows dropped.
        """
        enc = self.encode(pixels)
        if len(labels) != enc.batch:
            raise ContractError(
                f"teacher_forced: {enc.batch} images vs {len(labels)} labels")
        for lab in labels:
            if len(lab) == 0 or len(lab) > self.arch.l_max:
                raise ContractError(
                    f"teacher_forced: label length {len(lab)} outside "
                    f"[1, {self.arch.l_max}]")
            for i in lab:
                if not 0 <= i < self.vocab.n_chars:
                    raise ContractError(
                        f"teacher_forced: {i} is not a character index")
        lengths = [len(lab) + 1 for lab in labels]
        t_max = max(lengths)
        weights = self._gru_weights("dec")
        h = T.zeros((enc.batch, self.arch.dec_hidden))
        step_probs = []
        for t in range(t_max):
            if t == 0:
                ids = [self.vocab.GO] * enc.batch
            else:
                ids = [lab[t - 1] if t - 1 < len(lab) else self.vocab.PAD
                       for lab in labels]
            h, probs = self._decode_step(enc, weights, h, ids)
            step_probs.append(probs)
        return self._split_outputs(step_probs, enc.batch, lengths)

    def greedy(self, pixels: np.ndarray) -> list[DecoderOutput]:
        """Self-fed decode, at most l_max+1 steps, truncated at each
        sample's first EOS (the EOS row is kept)."""
        enc = self.encode(pixels)
        weights = self._gru_weights("dec")
        h = T.zeros((enc.batch, self.arch.dec_hidden))
        ids = [self.vocab.GO] * enc.batch
        done = np.zeros(enc.batch, dtype=bool)
        lengths = [0] * enc.batch
        step_probs = []
        for t in range(self.arch.l_max + 1):
            h, probs = self._decode_step(enc, weights, h, ids)
            step_probs.append(probs)
            picked = self._restricted_argmax(probs.data)
            for b in range(enc.batch):
                if not done[b]:
                    lengths[b] = t + 1
                    if picked[b] == self.vocab.EOS:
                        done[b] = True
            if done.all():
                break
            ids = [int(i) for i in picked]
        return self._split_outputs(step_probs, enc.batch, lengths)

    def predict(self, pixels: np.ndarray) -> list[str]:
        """Greedy decode to strings: EOS stripped, indices mapped to symbols."""
        if pixels.ndim == 2:
            pixels = pixels[None]
        outs = self.greedy(pixels)
        texts = []
        for out in outs:
            chars = [i for i in out.pseudo_labels if i < self.vocab.n_chars]
            texts.append(self.vocab.decode(chars))
        return texts

    def predict_image(self, img: TextImage) -> str:
        return self.predict(img.pixels)[0]
