"""Evaluation metrics and run comparison tables.

Scores compare label sequences, tuples of character indices: word
accuracy is exact sequence match; character accuracy is one minus the
summed edit distance over the summed longer lengths; mean entropy averages
the Shannon entropy (losses.row_entropy, forward only) of every emitted row
of the set's greedy decodes.  evaluate decodes the set in batches of
EVAL_BATCH images, each turned from the corpus codes into float images only
when its batch runs, and scores the index tuples directly.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data import Corpus
from .errors import ContractError
from .losses import row_entropy
from .recognizer import Recognizer, check_corpus

EVAL_BATCH = 256


@dataclass(frozen=True)
class EvalResult:
    word_acc: float
    char_acc: float
    mean_entropy: float
    n: int


def word_accuracy(preds: Sequence[Sequence], labels: Sequence[Sequence]
                  ) -> float:
    if len(preds) != len(labels):
        raise ContractError(
            f"word_accuracy: {len(preds)} predictions vs {len(labels)} labels")
    if not preds:
        raise ContractError("word_accuracy: empty lists")
    return sum(p == l for p, l in zip(preds, labels)) / len(preds)


def _padded(seqs: Sequence[Sequence]) -> tuple[np.ndarray, np.ndarray]:
    """Int sequences as one zero-padded [n, L] int array, plus their
    lengths."""
    lens = np.array([len(s) for s in seqs], dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(seqs), np.int64, int(lens.sum()))
    grid = np.zeros((len(seqs), int(lens.max(initial=0))), dtype=np.int64)
    grid[np.arange(grid.shape[1]) < lens[:, None]] = flat
    return grid, lens


def _distances(a_seqs: Sequence[Sequence], b_seqs: Sequence[Sequence]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Levenshtein distance of each (a, b) pair, and each pair's longer
    length: the Wagner-Fischer dynamic program run for all pairs at once
    over padded int arrays, one row update per character of the longer side,
    each pair read at [len_a, len_b]."""
    a, len_a = _padded(a_seqs)
    b, len_b = _padded(b_seqs)
    if a.shape[1] < b.shape[1]:
        a, len_a, b, len_b = b, len_b, a, len_a
    pairs = np.arange(len(a))
    j = np.arange(b.shape[1] + 1)
    row = np.broadcast_to(j, (len(a), len(j)))  # row 0: an empty a
    dist = len_b.copy()
    t = np.empty(row.shape, dtype=np.int64)
    for i in range(1, a.shape[1] + 1):
        # substitution or deletion, then the insertion chain along the row:
        # d[j] = min over k <= j of t[k] + (j - k)
        t[:, 0] = i
        np.minimum(row[:, :-1] + (a[:, i - 1:i] != b), row[:, 1:] + 1,
                   out=t[:, 1:])
        row = np.minimum.accumulate(t - j, axis=1) + j
        dist = np.where(len_a == i, row[pairs, len_b], dist)
    return dist, np.maximum(len_a, len_b)


def char_accuracy(preds: Sequence[Sequence], labels: Sequence[Sequence]
                  ) -> float:
    if len(preds) != len(labels):
        raise ContractError(
            f"char_accuracy: {len(preds)} predictions vs {len(labels)} labels")
    if not preds:
        raise ContractError("char_accuracy: empty lists")
    dist, longer = _distances(preds, labels)
    total_len = int(longer.sum())
    return 1.0 - int(dist.sum()) / total_len if total_len else 1.0


def evaluate(rec: Recognizer, corpus: Corpus,
             threads: int | None = 1) -> EvalResult:
    """Greedy-decode a labeled corpus and aggregate all metrics.

    Each batch of EVAL_BATCH images takes one greedy decode; the entropy
    reads its whole block, one row per emitted token.
    Batches may fan out to `threads` workers (None or 1: serial); results
    fold back in batch order, so the outcome is independent of thread
    count.
    """
    check_corpus(corpus, rec.vocab, rec.l_max, "evaluate")
    chunks = range(0, len(corpus), EVAL_BATCH)
    eos = rec.vocab.EOS

    def run_chunk(start: int):
        decoded = rec.greedy(corpus.images(slice(start, start + EVAL_BATCH)))
        # greedy stops at a sample's first EOS, so only its last pick can be
        # EOS (GO and PAD never win the restricted argmax)
        preds = [labels[:-1] if labels[-1] == eos else labels
                 for labels in decoded.labels]
        entropies = row_entropy(decoded.probs)
        return preds, float(entropies.data.sum()), entropies.shape[0]

    if (threads or 1) > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(c) for c in chunks]

    preds: list[tuple[int, ...]] = []
    ent_sum, ent_rows = 0.0, 0
    for chunk_preds, s, r in results:
        preds.extend(chunk_preds)
        ent_sum += s
        ent_rows += r
    return EvalResult(
        word_acc=word_accuracy(preds, corpus.labels),
        char_acc=char_accuracy(preds, corpus.labels),
        mean_entropy=ent_sum / ent_rows if ent_rows else 0.0,
        n=len(corpus))


REPORT_COLUMNS = ("name", "word_acc", "char_acc", "mean_entropy", "n")


def compare_report(named: list[tuple[str, EvalResult]]) -> tuple[str, str]:
    """Render named results in given order; returns (text table, CSV)."""
    if not named:
        raise ContractError("compare_report: no results")
    rows = [(name, repr(r.word_acc), repr(r.char_acc),
             repr(r.mean_entropy), str(r.n)) for name, r in named]
    csv_lines = [",".join(REPORT_COLUMNS)]
    csv_lines += [",".join(row) for row in rows]
    widths = [max(len(REPORT_COLUMNS[i]), max(len(row[i]) for row in rows))
              for i in range(len(REPORT_COLUMNS))]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(REPORT_COLUMNS))
    rule = "  ".join("-" * w for w in widths)
    body = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows]
    text = "\n".join([header, rule] + body)
    return text, "\n".join(csv_lines) + "\n"
