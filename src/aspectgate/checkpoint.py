"""Single-file model checkpoints.

Layout: 4-byte magic, little-endian u64 header length, a canonical JSON
header (config, metadata, vocabulary tokens and digest, tensor table),
then the raw float64 buffers in header order. Everything that goes in is
deterministic, so saving a loaded checkpoint reproduces the bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .corpus import Vocab, vocab_digest
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
    names = sorted(arrays)
    tensors = [{"name": n, "shape": list(arrays[n].shape)} for n in names]
    tensors.append({"name": "embedding", "shape": list(vocab.embedding.shape)})
    header = {
        "format": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "meta": dict(meta or {}),
        "vocab_tokens": list(vocab.tokens),
        "vocab_digest": vocab.digest,
        "tensors": tensors,
    }
    head = canonical_json(header).encode("utf-8")
    parts = [MAGIC, _HEAD.pack(len(head)), head]
    for n in names:
        parts.append(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())
    parts.append(np.ascontiguousarray(vocab.embedding, dtype="<f8").tobytes())
    return write_atomic_bytes(path, b"".join(parts))


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


def load_checkpoint(path) -> tuple[SentimentModel, Vocab, dict]:
    """Rebuild (model, vocab, meta) and verify the embedding digest.

    Every malformed file, header included, raises ``CheckpointError``
    naming the path.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        raw = fh.read()  # the tensor blobs
    offset = 0
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
    arrays: dict[str, np.ndarray] = {}
    for name, shape in table:
        if name in arrays:
            raise CheckpointError(f"{path}: tensor {name!r} is listed twice")
        if any(s < 0 for s in shape):
            raise CheckpointError(f"{path}: tensor {name!r} has negative shape {shape}")
        count = math.prod(shape)
        need = count * 8
        if offset + need > len(raw):
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        arrays[name] = (
            np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .astype(np.float64)
        )
        offset += need
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    if "embedding" not in arrays:
        raise CheckpointError(f"{path}: no embedding tensor")
    embedding = arrays.pop("embedding")
    digest = vocab_digest(tokens, embedding)
    if digest != stored:
        raise CheckpointError(
            f"{path}: vocabulary digest mismatch: stored {stored}, recomputed {digest}"
        )
    vocab = Vocab(tokens, embedding, digest)
    try:
        model = SentimentModel(config, vocab.embedding, _Undrawn())
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: config does not build a model: {e}") from e
    views = model.checkpoint_arrays()
    if set(views) != set(arrays):
        missing = sorted(set(views) - set(arrays))
        extra = sorted(set(arrays) - set(views))
        raise CheckpointError(f"{path}: tensor set mismatch: missing {missing}, extra {extra}")
    for name, view in views.items():
        if view.shape != arrays[name].shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {arrays[name].shape}, "
                f"model expects {view.shape}"
            )
        view[...] = arrays[name]
    return model, vocab, meta
