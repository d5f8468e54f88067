"""Toy synthetic corpus and word vectors for tests and the smoke script.

Each sentence praises one aspect and pans another, and is expanded into
two instances with opposite labels. A model that ignores the queried
aspect cannot beat chance on this data; an aspect-aware one can solve it
exactly, which makes the corpus a good learnability probe.
"""

from __future__ import annotations

import numpy as np

from .corpus import Instance

POS_WORDS = ("great", "tasty", "lovely", "fresh")
NEG_WORDS = ("awful", "bland", "rude", "stale")
ASPECTS = ("food", "service")
FILLER = ("the", "was", "but")

ALL_WORDS = POS_WORDS + NEG_WORDS + ASPECTS + FILLER

EMBED_DIM = 6


def synthetic_instances(n_pairs: int, seed: int = 0, task: str = "category") -> list[Instance]:
    """``2 * n_pairs`` instances: one positive and one negative per sentence."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_pairs):
        good = POS_WORDS[rng.integers(len(POS_WORDS))]
        bad = NEG_WORDS[rng.integers(len(NEG_WORDS))]
        a_good, a_bad = ASPECTS if rng.random() < 0.5 else ASPECTS[::-1]
        tokens = ("the", a_good, "was", good, "but", a_bad, "was", bad)
        kind = "category" if task == "category" else "term"
        out.append(Instance(f"s{i}g", tokens, kind, a_good, (a_good,), "positive"))
        out.append(Instance(f"s{i}b", tokens, kind, a_bad, (a_bad,), "negative"))
    return out


def write_embedding_file(path, dim: int = EMBED_DIM, seed: int = 99, words=ALL_WORDS):
    """Write a GloVe-style text file of normal(0, 0.5) vectors; returns ``path``."""
    rng = np.random.default_rng(seed)
    lines = []
    for w in words:
        vec = rng.normal(scale=0.5, size=dim)
        lines.append(w + " " + " ".join(f"{x:.6f}" for x in vec))
    path.write_text("\n".join(lines) + "\n")
    return path
