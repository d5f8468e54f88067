#!/usr/bin/env python3
"""Write the golden outputs of the model, or compare the tree against them.

The golden file pins the model's numerics bit for bit. For each of the
36 encoder × pooling × direction × bias settings, at small shapes with
every weight moved off its init and a padded batch, it holds:

- the eval-mode forward outputs (both logit blocks, the pooled states
  and the gates), taped and under ``no_grad``;
- for each objective (category, term, and category without the
  reconstruction term): the training-mode logits, the loss, its two
  parts and every parameter gradient, with dropout.

It also holds the SHA-256 of the ``metrics.json`` and ``model-seed3.ckpt``
that the determinism fixture's CLI training run writes, and the BLAS
numpy was built with. Everything is computed through the public API:
``SentimentModel.forward``, ``batch_joint_loss``, ``backward``,
``parameters()`` and the CLI.

    PYTHONPATH=src python scripts/write_golden.py            # rewrite the file
    PYTHONPATH=src python scripts/write_golden.py --compare  # per-array differences

``--compare`` prints, for each array that differs, its largest absolute
and relative difference against the committed file. A change that moves
the numerics on purpose regenerates the file and reports those figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from aspectgate.cli import main as cli_main
from aspectgate.model import ENCODERS, ModelConfig, SentimentModel, batch_joint_loss
from aspectgate.synth import write_embedding_file
from aspectgate.tensor import POOLING_MODES, backward, no_grad

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_model.npz"

MASK = np.array([[1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 0]])  # (B, T), padded
LABELS = np.array([0, 2, 1])
TARGETS = {
    "category": np.eye(3, dtype=bool)[[1, 0, 2]],
    "term": np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]], dtype=bool),
}
# objective name -> (task, reconstruct)
OBJECTIVES = {"category": ("category", True), "term": ("term", True),
              "norecon": ("category", False)}

_XML = """<sentences>
  <sentence id="d1">
    <text>The food was great but the service was awful.</text>
    <aspectCategories>
      <aspectCategory category="food" polarity="positive"/>
      <aspectCategory category="service" polarity="negative"/>
    </aspectCategories>
  </sentence>
  <sentence id="d2">
    <text>The service was lovely but the food was stale.</text>
    <aspectCategories>
      <aspectCategory category="service" polarity="positive"/>
      <aspectCategory category="food" polarity="negative"/>
    </aspectCategories>
  </sentence>
  <sentence id="d3">
    <text>The food was tasty but the service was rude.</text>
    <aspectCategories>
      <aspectCategory category="food" polarity="positive"/>
      <aspectCategory category="service" polarity="negative"/>
    </aspectCategories>
  </sentence>
</sentences>
"""


def blas_build() -> str:
    """The BLAS numpy was built with, as "name version"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.25
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _setting_arrays(encoder: str, pooling: str, bidirectional: bool, use_bias: bool) -> dict:
    rng = np.random.default_rng(17)
    cfg = ModelConfig(
        hidden_size=3, embed_size=2, depth=2, num_labels=3, num_recon_targets=3,
        encoder=encoder, pooling=pooling, bidirectional=bidirectional, use_bias=use_bias,
    )
    emb = rng.random((7, 2)) - 0.5
    emb[0] = 0.0
    model = SentimentModel(cfg, emb, rng)
    params = model.parameters()
    for p in params.values():
        p.data += 0.5 * rng.standard_normal(p.shape)  # in place: stacks keep their layout
    ids = rng.integers(1, 7, size=MASK.shape) * MASK
    aspects = rng.random((3, 2)) - 0.5
    out = {}
    with no_grad():
        free = model.forward(ids, MASK, aspects)
    taped = model.forward(ids, MASK, aspects)
    for mode, res in (("taped", taped), ("no_grad", free)):
        out[f"eval/{mode}/sent_logits"] = res.sent_logits.data
        out[f"eval/{mode}/recon_logits"] = res.recon_logits.data
        out[f"eval/{mode}/pooled"] = res.pooled.data
        if res.gates is not None:
            out[f"eval/{mode}/gates"] = res.gates
    for name, (task, reconstruct) in OBJECTIVES.items():
        res = model.forward(ids, MASK, aspects, training=True, rng=np.random.default_rng(5))
        loss, ce, recon = batch_joint_loss(
            res, LABELS, TARGETS[task], replace(cfg, task=task, reconstruct=reconstruct)
        )
        grads = backward(loss, list(params.values()))
        out[f"{name}/sent_logits"] = res.sent_logits.data
        out[f"{name}/recon_logits"] = res.recon_logits.data
        out[f"{name}/loss"] = loss.data
        out[f"{name}/parts"] = np.array([ce, recon])
        for pname, p in params.items():
            out[f"{name}/grad/{pname}"] = grads[p]
    return out


def model_arrays() -> dict[str, np.ndarray]:
    """The golden arrays of every setting, keyed ``encoder/pooling/dir/bias/...``."""
    out = {}
    for encoder, pooling, bi, bias in itertools.product(
        ENCODERS, POOLING_MODES, (False, True), (False, True)
    ):
        key = f"{encoder}/{pooling}/{'bi' if bi else 'uni'}/{'bias' if bias else 'nobias'}"
        for name, arr in _setting_arrays(encoder, pooling, bi, bias).items():
            out[f"{key}/{name}"] = np.array(arr)
    return out


def cli_digests() -> dict[str, np.ndarray]:
    """SHA-256 of what the determinism fixture's CLI training run writes."""
    log = io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(log),
          contextlib.redirect_stderr(log)):
        tmp = Path(tmp)
        (tmp / "train.xml").write_text(_XML)
        emb = write_embedding_file(tmp / "vectors.txt")
        data, out = tmp / "prepared", tmp / "run"
        for argv in (
            ["prepare", "--train", str(tmp / "train.xml"), "--test", str(tmp / "train.xml"),
             "--out", str(data)],
            ["train", "--data-dir", str(data), "--embeddings", str(emb), "--out", str(out),
             "--seeds", "3", "--epochs", "2", "--hidden", "5", "--embed-dim", "6", "--depth", "2"],
        ):
            if cli_main(argv) != 0:
                raise RuntimeError(f"{argv[0]} failed:\n{log.getvalue()}")
        return {
            f"cli/{name}": np.array(hashlib.sha256((out / name).read_bytes()).hexdigest())
            for name in ("metrics.json", "model-seed3.ckpt")
        }


def golden() -> dict[str, np.ndarray]:
    """Every golden array, the CLI digests, and the BLAS build."""
    return {**model_arrays(), **cli_digests(), "blas": np.array(blas_build())}


def save(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """One npz: the float64 arrays packed into ``values`` in ``names`` order,
    with their ``shapes`` padded by -1; every other array under its name."""
    names = sorted(n for n, a in arrays.items() if a.dtype == np.float64)
    shapes = np.full((len(names), 3), -1)
    for row, n in zip(shapes, names):
        row[: arrays[n].ndim] = arrays[n].shape
    rest = {n: a for n, a in arrays.items() if a.dtype != np.float64}
    values = np.concatenate([arrays[n].ravel() for n in names])
    np.savez_compressed(path, names=np.array(names), shapes=shapes, values=values, **rest)


def load(path: Path) -> dict[str, np.ndarray]:
    """The arrays ``save`` wrote, by name."""
    with np.load(path) as f:
        out = {n: f[n] for n in f.files if n not in ("names", "shapes", "values")}
        values, at = f["values"], 0
        for name, shape in zip(f["names"], f["shapes"]):
            shape = tuple(int(s) for s in shape if s >= 0)
            size = int(np.prod(shape))
            out[str(name)] = values[at : at + size].reshape(shape)
            at += size
    return out


def differences(got: dict, want: dict) -> list[str]:
    """One line per array that is not bitwise equal, with its largest
    absolute and relative difference when both are floats of one shape."""
    lines = []
    for name in sorted((set(got) | set(want)) - {"blas"}):
        if name not in got or name not in want:
            lines.append(f"{name}: only in the {'file' if name in want else 'tree'}")
            continue
        a, b = got[name], want[name]
        if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
            continue
        if a.dtype.kind != "f" or a.dtype != b.dtype or a.shape != b.shape:
            lines.append(f"{name}: {a.dtype}{a.shape} {a} against {b.dtype}{b.shape} {b}")
            continue
        diff = np.abs(a.astype(np.longdouble) - b)
        rel = diff / np.maximum(np.abs(b), np.finfo(b.dtype).tiny)
        lines.append(f"{name}: max abs {float(diff.max()):.3g}, max rel {float(rel.max()):.3g}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--compare", action="store_true",
                    help="print per-array differences against the committed file")
    args = ap.parse_args(argv)
    got = golden()
    if not args.compare:
        save(GOLDEN, got)
        print(f"wrote {len(got)} arrays to {GOLDEN}")
        return 0
    want = load(GOLDEN)
    lines = differences(got, want)
    print(f"golden file written with {want['blas']}; this run uses {got['blas']}")
    for line in lines:
        print(line)
    print(f"{len(want) - 1 - len(lines)} of {len(want) - 1} arrays bitwise equal")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
