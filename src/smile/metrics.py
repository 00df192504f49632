"""Evaluation metrics and run comparison tables.

Word accuracy is exact string match; character accuracy is one minus edit
distance normalized by the longer string; mean entropy averages the
Shannon entropy (losses.row_entropy, forward only) of every emitted row of
the set's greedy decodes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Corpus
from .errors import ContractError
from .losses import row_entropy
from .recognizer import Recognizer, check_width

EVAL_BATCH = 64


@dataclass(frozen=True)
class EvalResult:
    word_acc: float
    char_acc: float
    mean_entropy: float
    n: int


def word_accuracy(preds: list[str], labels: list[str]) -> float:
    if len(preds) != len(labels):
        raise ContractError(
            f"word_accuracy: {len(preds)} predictions vs {len(labels)} labels")
    if not preds:
        raise ContractError("word_accuracy: empty lists")
    return sum(p == l for p, l in zip(preds, labels)) / len(preds)


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1,
                           cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def char_accuracy(preds: list[str], labels: list[str]) -> float:
    total_edit = sum(edit_distance(p, l) for p, l in zip(preds, labels))
    total_len = sum(max(len(p), len(l)) for p, l in zip(preds, labels))
    return 1.0 - total_edit / total_len if total_len else 1.0


def evaluate(rec: Recognizer, corpus: Corpus,
             threads: int | None = 1) -> EvalResult:
    """Greedy-decode a labeled corpus and aggregate all metrics.

    Batches may fan out to `threads` workers (None or 1: serial); results
    fold back in batch order, so the outcome is independent of thread
    count.
    """
    if corpus.vocab != rec.vocab:
        raise ContractError("evaluate: corpus vocab differs from the model's")
    if not corpus.labeled:
        raise ContractError("evaluate: corpus has unlabeled images")
    check_width(rec.arch, corpus, "evaluate")
    pixels = corpus.pixels
    chunks = [(i, pixels[i:i + EVAL_BATCH])
              for i in range(0, len(corpus), EVAL_BATCH)]

    def run_chunk(chunk_pixels: np.ndarray):
        decoded = rec.greedy(chunk_pixels)
        preds = [rec.vocab.decode([i for i in labels if i < rec.vocab.n_chars])
                 for labels in decoded.labels]
        entropies = row_entropy(decoded.probs).data
        return preds, float(entropies.sum()), entropies.shape[0]

    if (threads or 1) > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, [c for _, c in chunks]))
    else:
        results = [run_chunk(c) for _, c in chunks]

    preds: list[str] = []
    ent_sum, ent_rows = 0.0, 0
    for chunk_preds, s, r in results:
        preds.extend(chunk_preds)
        ent_sum += s
        ent_rows += r
    labels = [corpus.vocab.decode(label) for label in corpus.labels]
    return EvalResult(
        word_acc=word_accuracy(preds, labels),
        char_acc=char_accuracy(preds, labels),
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
