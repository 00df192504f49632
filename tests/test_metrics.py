"""Accuracy metrics against hand oracles, the evaluation loop on model
stubs, and the comparison report round trip."""

import math

import numpy as np
import pytest

import smile.tensor as T
from smile.data import Corpus, VocabSpec, generate_corpus
from smile.errors import ContractError
from smile.losses import row_entropy
from smile.metrics import (EVAL_BATCH, EvalResult, char_accuracy,
                           compare_report, edit_distance, evaluate,
                           word_accuracy)
from smile.recognizer import ArchSpec, Recognizer

from conftest import decoded_from


# -- word accuracy ------------------------------------------------------------

def test_word_accuracy_counting():
    assert word_accuracy(["AB", "C"], ["AB", "C"]) == 1.0
    assert word_accuracy(["AB", "C"], ["BA", "D"]) == 0.0
    assert word_accuracy(["A", "B", "C", "D"], ["A", "B", "C", "X"]) == 0.75
    with pytest.raises(ContractError):
        word_accuracy(["A"], ["A", "B"])
    with pytest.raises(ContractError):
        word_accuracy([], [])


# -- edit distance ------------------------------------------------------------

def test_edit_distance_known_pairs():
    assert edit_distance("abc", "abc") == 0
    assert edit_distance("abc", "") == 3
    assert edit_distance("", "xy") == 2
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("flaw", "lawn") == 2
    assert edit_distance("AB", "BA") == 2


def edit_distance_oracle(a, b):
    # full-matrix dynamic program, kept independent of the implementation
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[-1][-1]


def test_edit_distance_is_a_metric(rng):
    alphabet = "ABC"
    words = ["".join(rng.choice(list(alphabet), int(rng.integers(0, 7))))
             for _ in range(30)]
    for _ in range(200):
        a, b, c = (words[int(i)] for i in rng.integers(0, len(words), 3))
        dab = edit_distance(a, b)
        assert dab == edit_distance_oracle(a, b)
        assert dab == edit_distance(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= edit_distance(a, c) + edit_distance(c, b)
        assert dab <= max(len(a), len(b))


def random_pairs(rng, draw):
    # lengths 0-8 on both sides, so empty sides come up often
    return [(draw(int(rng.integers(0, 9))), draw(int(rng.integers(0, 9))))
            for _ in range(150)]


@pytest.mark.parametrize("kind", ["str", "int"])
def test_edit_distance_matches_oracle(rng, kind):
    if kind == "str":
        def draw(n):
            return "".join(rng.choice(list("ABC"), n))
    else:
        def draw(n):
            return tuple(int(i) for i in rng.integers(0, 4, n))
    pairs = random_pairs(rng, draw) + [(draw(0), draw(0)), (draw(5), draw(0))]
    for a, b in pairs:
        assert edit_distance(a, b) == edit_distance_oracle(a, b)
        assert edit_distance(b, a) == edit_distance_oracle(b, a)


def test_char_accuracy_is_one_dp_over_all_pairs(rng):
    # one call over a mixed-length list equals the per-pair distances
    pairs = random_pairs(rng, lambda n: "".join(rng.choice(list("ABCD"), n)))
    preds, labels = [a for a, _ in pairs], [b for _, b in pairs]
    edits = sum(edit_distance(a, b) for a, b in pairs)
    longer = sum(max(len(a), len(b)) for a, b in pairs)
    assert char_accuracy(preds, labels) == 1.0 - edits / longer
    assert char_accuracy(labels, preds) == 1.0 - edits / longer


def test_char_accuracy_strings_equal_index_tuples(rng, vocab):
    words = ["".join(rng.choice(list(vocab.characters), int(rng.integers(0, 6))))
             for _ in range(60)]
    preds, labels = words[:30], words[30:]
    assert char_accuracy(preds, labels) == char_accuracy(
        [vocab.encode(w) for w in preds], [vocab.encode(w) for w in labels])


# -- character accuracy -------------------------------------------------------

def test_char_accuracy_formula():
    # edits 1 + 0 = 1, lengths max(2,2) + max(3,3) = 5
    assert char_accuracy(["AB", "CCC"], ["AC", "CCC"]) == 1.0 - 1.0 / 5.0
    assert char_accuracy(["AB"], ["AB"]) == 1.0
    assert char_accuracy(["ABCD"], ["AB"]) == 0.5  # over-generation penalized


def test_char_accuracy_refuses_mismatched_or_empty_lists():
    with pytest.raises(ContractError, match="2 predictions vs 1 labels"):
        char_accuracy(["AB", "C"], ["AB"])
    with pytest.raises(ContractError, match="empty"):
        char_accuracy([], [])


# -- evaluate -----------------------------------------------------------------

class StubModel:
    """Minimal evaluate() subject: fixed probability rows for every image."""

    def __init__(self, vocab, rows):
        self.vocab = vocab
        self.arch = ArchSpec(K=vocab.K, l_max=3)
        self.rows = np.asarray(rows, dtype=np.float64)

    def greedy(self, pixels):
        return decoded_from(*[self.rows] * pixels.shape[0])


def test_evaluate_perfect_model(vocab, small_source):
    # a real recognizer overfit to one sample would be slow; instead check
    # the aggregation path with a stub that always answers "A" + EOS
    rows = np.zeros((2, vocab.K))
    rows[0, 0] = 1.0
    rows[1, vocab.EOS] = 1.0
    stub = StubModel(vocab, rows)
    only_a = [i for i, label in enumerate(small_source.labels)
              if label == (0,)]
    corpus = Corpus(vocab, small_source.codes[only_a], [(0,)] * len(only_a),
                    small_source.domain[only_a])
    result = evaluate(stub, corpus)
    assert result.word_acc == 1.0
    assert result.char_acc == 1.0
    assert result.mean_entropy == pytest.approx(0.0, abs=1e-9)
    assert result.n == len(only_a)


def test_evaluate_uniform_model_entropy(vocab, small_source):
    k = vocab.K
    rows = np.full((3, k), 1.0 / k)
    stub = StubModel(vocab, rows)
    result = evaluate(stub, small_source)
    assert abs(result.mean_entropy - math.log(k)) < 1e-9


@pytest.fixture(scope="module")
def corpus_300(vocab, templates):
    # more than one EVAL_BATCH, and not a multiple of it: a short last batch
    corpus = generate_corpus(vocab, templates, 300, (1, 3), seed=21)
    assert len(corpus) > EVAL_BATCH and len(corpus) % EVAL_BATCH
    return corpus


def test_evaluate_thread_count_does_not_change_results(corpus_300):
    # several batches, so threads=4 takes the thread-pool path
    rec = Recognizer.fresh(corpus_300.vocab, l_max=3, seed=2)
    serial = evaluate(rec, corpus_300, threads=1)
    threaded = evaluate(rec, corpus_300, threads=4)
    assert serial == threaded


def test_evaluate_batches_match_a_chunked_reference(vocab, corpus_300):
    # the reference decodes chunks of 64 and scores decoded strings
    rec = Recognizer.fresh(vocab, l_max=3, seed=4)
    preds, ent_sum, ent_rows = [], 0.0, 0
    for i in range(0, len(corpus_300), 64):
        decoded = rec.greedy(corpus_300.images(slice(i, i + 64)))
        preds += [vocab.decode([k for k in labels if k < vocab.n_chars])
                  for labels in decoded.labels]
        entropies = row_entropy(
            T.constant(decoded.probs.data[decoded.rows])).data
        ent_sum += float(entropies.sum())
        ent_rows += entropies.shape[0]
    words = [vocab.decode(label) for label in corpus_300.labels]
    edits = sum(edit_distance_oracle(p, w) for p, w in zip(preds, words))
    longer = sum(max(len(p), len(w)) for p, w in zip(preds, words))
    result = evaluate(rec, corpus_300)
    assert result.word_acc == sum(
        p == w for p, w in zip(preds, words)) / len(words)
    assert result.char_acc == 1.0 - edits / longer
    assert abs(result.mean_entropy - ent_sum / ent_rows) <= 1e-12
    assert result.n == 300


def test_evaluate_scores_list_labels_like_tuples(vocab, corpus_300):
    # the corpus stores any label sequence as a tuple, so a decode's tuple
    # matches it exactly; the stub answers "A" + EOS for every image
    rows = np.zeros((2, vocab.K))
    rows[0, 0] = 1.0
    rows[1, vocab.EOS] = 1.0
    rec = StubModel(vocab, rows)
    as_lists = Corpus(corpus_300.vocab, corpus_300.codes,
                      [list(label) for label in corpus_300.labels],
                      corpus_300.domain)
    assert as_lists.labels == corpus_300.labels
    result = evaluate(rec, as_lists)
    assert result == evaluate(rec, corpus_300)
    assert result.word_acc > 0.0


def test_evaluate_validates_inputs(vocab, small_source, small_target):
    rec = Recognizer.fresh(VocabSpec("XY"), l_max=3, seed=0)
    with pytest.raises(ContractError):
        evaluate(rec, small_source)       # vocab mismatch
    rec2 = Recognizer.fresh(vocab, l_max=3, seed=0)
    with pytest.raises(ContractError):
        evaluate(rec2, small_target)      # unlabeled corpus


def test_evaluate_rejects_corpus_wider_than_l_max(vocab, templates):
    wide = generate_corpus(vocab, templates, 8, (1, 4), seed=14)  # 32 px
    rec = Recognizer.fresh(vocab, l_max=2, seed=0)
    with pytest.raises(ContractError, match=r"32 px.*l_max=2 \(16 px\)"):
        evaluate(rec, wide)


def test_evaluate_does_not_mutate_the_model(small_source):
    rec = Recognizer.fresh(small_source.vocab, l_max=3, seed=3)
    before = {n: t.data.copy() for n, t in rec.params.items()}
    evaluate(rec, small_source)
    assert all(np.array_equal(before[n], rec.params[n].data) for n in before)
    assert all(not t.requires_grad or not np.any(t.grad)
               for t in rec.params.values())


# -- compare report -----------------------------------------------------------

def test_compare_report_round_trip():
    results = [("base", EvalResult(0.5, 0.75, 0.123456789012345, 100)),
               ("smile", EvalResult(0.625, 0.8125, 0.0625, 100))]
    text, csv = compare_report(results)
    lines = csv.strip().split("\n")
    assert lines[0] == "name,word_acc,char_acc,mean_entropy,n"
    assert len(lines) == 3
    name, word, char, ent, n = lines[1].split(",")
    assert name == "base"
    assert float(word) == 0.5
    assert float(ent) == 0.123456789012345  # repr round-trips exactly
    assert text.splitlines()[0].startswith("name")
    assert "base" in text and "smile" in text


def test_compare_report_preserves_order():
    r = EvalResult(0.1, 0.2, 0.3, 1)
    _, csv = compare_report([("z", r), ("a", r)])
    rows = csv.strip().split("\n")[1:]
    assert rows[0].startswith("z,")
    assert rows[1].startswith("a,")
    with pytest.raises(ContractError):
        compare_report([])
