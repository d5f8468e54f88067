"""Single-file model checkpoints.

Layout: 4-byte magic, little-endian u64 header length, a canonical JSON
header (config, metadata, vocabulary tokens and digest, tensor table),
then the raw float64 buffers in header order. Everything that goes in is
deterministic, so saving a loaded checkpoint reproduces the bytes.

Neither direction holds the whole file in memory. A save streams the
header and then each tensor straight from its array; only a tensor that
is not contiguous (a gate's row block of its stack) is copied, one at a
time. A load checks the whole tensor table against the file size before
it reads any tensor. It then reads the embedding, builds the model on it
and reads each weight into a short-lived array that is checked and then
copied into the model. So beyond the model a load holds the file's
embedding table only while the model is built, and later one weight at
a time. The loaded vocab shares the model's frozen embedding table.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .corpus import CorpusError, Vocab, vocab_digest
from .ioutil import canonical_json, write_atomic_bytes
from .model import ModelConfig, SentimentModel

MAGIC = b"AGSM"
FORMAT_VERSION = 1
_HEAD = struct.Struct("<Q")


class CheckpointError(RuntimeError):
    """Raised for malformed, truncated, or inconsistent checkpoint files."""


class _Undrawn:
    """The init rng of a model whose weights are read next: glorot gets
    memory to fill, and nothing is drawn."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def save_checkpoint(path, model: SentimentModel, vocab: Vocab, meta: dict | None = None) -> Path:
    """Serialize model weights, the embedding table, and metadata."""
    arrays = model.checkpoint_arrays()
    arrays = {n: arrays[n] for n in sorted(arrays)} | {"embedding": vocab.embedding}
    header = {
        "format": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "meta": dict(meta or {}),
        "vocab_tokens": list(vocab.tokens),
        "vocab_digest": vocab.digest,
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()],
    }
    head = canonical_json(header).encode("utf-8")
    blobs = (np.ascontiguousarray(a, dtype="<f8") for a in arrays.values())
    return write_atomic_bytes(path, itertools.chain((MAGIC, _HEAD.pack(len(head)), head), blobs))


def _read_header(fh, path) -> dict:
    """The header of an open checkpoint, reading nothing past it."""
    prefix = fh.read(len(MAGIC) + _HEAD.size)
    if len(prefix) < len(MAGIC) + _HEAD.size or prefix[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    (hlen,) = _HEAD.unpack_from(prefix, len(MAGIC))
    if len(prefix) + hlen > os.fstat(fh.fileno()).st_size:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    if header.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format {header.get('format')!r}, expected {FORMAT_VERSION}"
        )
    return header


def read_checkpoint_meta(path) -> dict:
    """Header-only peek: config, meta, vocab digest, tensor table."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _read_tensor(fh, path, name: str, offset: int, shape: tuple[int, ...]) -> np.ndarray:
    """The tensor at ``offset`` of the open file, read into a new array."""
    out = np.empty(shape, dtype="<f8")
    fh.seek(offset)
    if fh.readinto(out) != out.nbytes:  # the file shrank since its size was checked
        raise CheckpointError(f"{path}: truncated tensor {name!r}")
    if not np.isfinite(out).all():
        raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
    return out


def load_checkpoint(path) -> tuple[SentimentModel, Vocab, dict]:
    """Rebuild (model, vocab, meta) and verify the embedding digest.

    Every malformed file, header included, raises ``CheckpointError``
    naming the path; so does a NaN or infinity in any tensor, which the
    digest, over the vocabulary and embedding only, would not catch.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        try:
            table = [(str(e["name"]), tuple(int(s) for s in e["shape"])) for e in header["tensors"]]
            tokens = tuple(header["vocab_tokens"])
            stored = header["vocab_digest"]
            meta = dict(header["meta"])
            config = ModelConfig.from_dict(header["config"])
        except KeyError as e:
            raise CheckpointError(f"{path}: malformed header: missing entry {e}") from e
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: malformed header: {e}") from e
        if not all(isinstance(t, str) for t in tokens):
            raise CheckpointError(f"{path}: malformed header: vocab_tokens are not all strings")
        # each tensor's (offset, shape), the whole table checked against the size before any read
        offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
        where: dict[str, tuple[int, tuple[int, ...]]] = {}
        for name, shape in table:
            if name in where:
                raise CheckpointError(f"{path}: tensor {name!r} is listed twice")
            if any(s < 0 for s in shape):
                raise CheckpointError(f"{path}: tensor {name!r} has negative shape {shape}")
            where[name] = (offset, shape)
            offset += 8 * math.prod(shape)
            if offset > size:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
        if offset != size:
            raise CheckpointError(f"{path}: {size - offset} trailing bytes")
        if "embedding" not in where:
            raise CheckpointError(f"{path}: no embedding tensor")
        embedding = _read_tensor(fh, path, "embedding", *where.pop("embedding"))
        digest = vocab_digest(tokens, embedding)
        if digest != stored:
            raise CheckpointError(
                f"{path}: vocabulary digest mismatch: stored {stored}, recomputed {digest}"
            )
        try:
            model = SentimentModel(config, embedding, _Undrawn())
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: config does not build a model: {e}") from e
        del embedding  # the model holds its own copy, which the vocab shares
        try:
            vocab = Vocab(tokens, model.embedding, digest)
        except CorpusError as e:  # repeated tokens, say
            raise CheckpointError(f"{path}: malformed header: {e}") from e
        views = model.checkpoint_arrays()
        if set(views) != set(where):
            missing = sorted(set(views) - set(where))
            extra = sorted(set(where) - set(views))
            raise CheckpointError(f"{path}: tensor set mismatch: missing {missing}, extra {extra}")
        for name, view in views.items():
            offset, shape = where[name]
            if view.shape != shape:
                raise CheckpointError(
                    f"{path}: tensor {name!r} has shape {shape}, model expects {view.shape}"
                )
            view[...] = _read_tensor(fh, path, name, offset, shape)
    return model, vocab, meta
