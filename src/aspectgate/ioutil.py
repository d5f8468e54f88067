"""Atomic file writes and canonical JSON shared by checkpoints and the CLI."""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path


def canonical_json(obj, indent: int | None = None) -> str:
    """Deterministic JSON text: sorted keys, stable separators."""
    if indent is None:
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=indent)


def write_atomic_bytes(path, chunks: Iterable) -> Path:
    """Write ``chunks``, buffers (bytes, contiguous arrays) taken one at a
    time, via a sibling temp file and rename, so readers never see a
    half-written file and a crash, or a chunk that raises, leaves the old
    content intact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)  # drops each chunk once written
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def write_atomic_text(path, text: str) -> Path:
    return write_atomic_bytes(path, (text.encode("utf-8"),))


def write_atomic_json(path, obj, indent: int | None = 2) -> Path:
    return write_atomic_text(path, canonical_json(obj, indent=indent) + "\n")
