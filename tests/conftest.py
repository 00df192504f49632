"""Shared fixtures: a small vocabulary and corpora sized for fast tests."""

import os

# one BLAS thread, set before numpy loads, as perfbench/run.py runs
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

import numpy as np
import pytest

import smile.tensor as T
from smile.data import DomainConfig, VocabSpec, generate_corpus, make_templates
from smile.recognizer import Decoded

SMALL_SHIFT = dict(salt_pepper_prob=0.1, intensity_scale=0.8,
                   background_level=0.05, horizontal_shear=1)


@pytest.fixture(scope="session")
def vocab():
    return VocabSpec("ABCD")


@pytest.fixture(scope="session")
def templates(vocab):
    return make_templates(vocab, seed=5)


@pytest.fixture(scope="session")
def small_source(vocab, templates):
    return generate_corpus(vocab, templates, 160, (1, 3), seed=11)


@pytest.fixture(scope="session")
def small_target(vocab, templates):
    cfg = DomainConfig(seed=90, **SMALL_SHIFT)
    corpus = generate_corpus(vocab, templates, 160, (1, 3), seed=12,
                             domain_cfg=cfg)
    return corpus.without_labels()


@pytest.fixture(scope="session")
def small_test(vocab, templates):
    cfg = DomainConfig(seed=90, **SMALL_SHIFT)
    return generate_corpus(vocab, templates, 48, (1, 3), seed=13,
                           domain_cfg=cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def decoded_from(*samples, labels=None) -> Decoded:
    """A sample-major decoded batch of each sample's [T_b, K] rows, labeled
    by their argmax unless labels are given."""
    probs = np.concatenate(samples).astype(np.float64)
    if labels is None:
        labels = [tuple(int(i) for i in np.argmax(rows, axis=1))
                  for rows in samples]
    return Decoded(T.constant(probs), labels)
