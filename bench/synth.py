"""Seeded synthetic corpus shaped like SemEval-2014 Restaurant-14.

The real XML and pretrained vectors are not redistributed, so every
benchmark workload runs on data generated here from the workload seed:

- 3,713 train and 1,025 test (sentence, category) instances over the 5
  Restaurant-14 categories and 4 labels, with the train split's label
  frequencies and about 1.2 aspects per sentence;
- sentence lengths from a lognormal with mean 15, clipped to [2, 79].
  They are stratified draws (one per quantile slice), so the length
  multiset, which sets batch shapes, padding and the slowest sentences,
  barely moves between seeds, while words, order, aspects, labels and
  vectors do;
- words drawn from a Zipf law over a 4,000-word vocabulary, so
  frequent words dominate as in real text;
- 300-d vectors built in memory and passed to ``assemble_vocab``, with
  5% of words left uncovered as in a GloVe lookup. No file is read.

Why each workload uses it: train-r14 needs the train split's batch
shapes (token-budget packing, padding); eval-r14 needs the test split's
size and shapes; inspect-b1 needs realistic single-sentence lengths.
Labels carry no signal: the benchmark measures cost, not accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from aspectgate.corpus import (
    Instance,
    TaskSpaces,
    Vocab,
    assemble_vocab,
    tokenize_category,
    vocab_token_lists,
)

TRAIN_INSTANCES = 3713
TEST_INSTANCES = 1025
CATEGORIES = ("food", "service", "price", "ambience", "anecdotes/miscellaneous")
# Restaurant-14 train label counts: positive, negative, neutral, conflict
LABEL_COUNTS = {"positive": 2179, "negative": 839, "neutral": 500, "conflict": 195}
ASPECTS_PER_SENTENCE = (1, 2, 3)
ASPECT_COUNT_P = (0.8, 0.17, 0.03)
VOCAB_WORDS = 4000
ZIPF_EXPONENT = 1.05
MEAN_LENGTH = 15.0
LENGTH_SIGMA = 0.5
MIN_LENGTH, MAX_LENGTH = 2, 79
EMBED_DIM = 300
VECTOR_COVERAGE = 0.95


@dataclass(frozen=True)
class Shape:
    """Corpus size knobs; the defaults are the Restaurant-14 shape."""

    train: int = TRAIN_INSTANCES
    test: int = TEST_INSTANCES
    vocab_words: int = VOCAB_WORDS
    embed_dim: int = EMBED_DIM


@dataclass
class SynthCorpus:
    train: list[Instance]
    test: list[Instance]
    vocab: Vocab
    spaces: TaskSpaces


def _lengths(n: int, rng: np.random.Generator) -> np.ndarray:
    mu = np.log(MEAN_LENGTH) - LENGTH_SIGMA**2 / 2  # lognormal mean = MEAN_LENGTH
    u = (rng.permutation(n) + rng.random(n)) / n  # one uniform draw per slice [i/n, (i+1)/n)
    raw = np.rint(np.exp(mu + LENGTH_SIGMA * _normal_ppf(u)))
    return np.clip(raw, MIN_LENGTH, MAX_LENGTH).astype(np.int64)


def _normal_ppf(u: np.ndarray) -> np.ndarray:
    """Standard normal quantiles by inverting a tabulated CDF; numpy has no ppf."""
    x = np.linspace(-8.0, 8.0, 16001)
    pdf = np.exp(-x * x / 2) / np.sqrt(2 * np.pi)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(x))))
    return np.interp(u, cdf, x)


def _instances(n: int, prefix: str, words: list[str], p: np.ndarray, rng) -> list[Instance]:
    labels = list(LABEL_COUNTS)
    label_p = np.array(list(LABEL_COUNTS.values()), dtype=np.float64)
    label_p /= label_p.sum()
    aspect_counts = rng.choice(ASPECTS_PER_SENTENCE, size=n, p=ASPECT_COUNT_P)
    n_sentences = int(np.searchsorted(np.cumsum(aspect_counts), n)) + 1
    lengths = _lengths(n_sentences, rng)
    word_ids = rng.choice(len(words), size=int(lengths.sum()), p=p)
    out: list[Instance] = []
    for s, ids in enumerate(np.split(word_ids, np.cumsum(lengths)[:-1])):
        tokens = tuple(words[i] for i in ids)
        for c in rng.choice(len(CATEGORIES), size=aspect_counts[s], replace=False):
            name = CATEGORIES[c]
            label = labels[rng.choice(len(labels), p=label_p)]
            out.append(
                Instance(f"{prefix}{s}", tokens, "category", name, tuple(tokenize_category(name)), label)
            )
    return out[:n]


def make_corpus(seed: int, shape: Shape = Shape()) -> SynthCorpus:
    """Build train/test instances, vocabulary and task spaces from ``seed``."""
    text_rng, vec_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    words = [f"w{i}" for i in range(shape.vocab_words)]
    p = 1.0 / np.arange(1, shape.vocab_words + 1) ** ZIPF_EXPONENT
    p /= p.sum()
    train = _instances(shape.train, "tr", words, p, text_rng)
    test = _instances(shape.test, "te", words, p, text_rng)
    train_tokens, test_tokens = vocab_token_lists(train, test)
    all_tokens = train_tokens + test_tokens
    table = vec_rng.normal(0.0, 0.3, size=(len(all_tokens), shape.embed_dim))
    covered = vec_rng.random(len(all_tokens)) < VECTOR_COVERAGE
    found = {t: table[i] for i, t in enumerate(all_tokens) if covered[i]}
    vocab = assemble_vocab(train_tokens, test_tokens, found, shape.embed_dim, seed=seed)
    return SynthCorpus(train, test, vocab, TaskSpaces.build("category", train))
