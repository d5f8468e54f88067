"""Gated recurrent cells and deep-transition sequence encoders.

A deep-transition block processes one time step through a stack of
cells: an input-consuming first cell followed by ``depth - 1`` transition
cells that refine the state without seeing the token. The first cell
comes in two flavors: an aspect-gated one, whose candidate state is
modulated by a relu gate computed from the aspect vector and the previous
state, and an aspect-free one that keeps the gated linear bypass but no
aspect conditioning. The stacked-GRU baseline is a sequence of
one-cell blocks whose only cell is a conventional GRU, so every encoder
runs through the same per-step recurrence and padding carry.

All step functions take column-major batches: inputs are (d, B) with one
column per sequence. A single sequence is a batch of one column, so the
batched encoders are the only implementation of the math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    TRAIN_DTYPE,
    ShapeError,
    Tensor,
    matmul,
    relu,
    sigmoid,
    select_columns,
    tanh,
)


def glorot(rng: np.random.Generator, rows: int, cols: int, dtype=TRAIN_DTYPE) -> Tensor:
    """Glorot-uniform weight matrix, a trainable leaf."""
    limit = np.sqrt(6.0 / (rows + cols))
    data = rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)
    return Tensor(data, requires_grad=True)


def _zeros_bias(rows: int, dtype) -> Tensor:
    return Tensor(np.zeros((rows, 1), dtype=dtype), requires_grad=True)


def affine(w: Tensor, x: Tensor, b: Tensor | None) -> Tensor:
    """w @ x, plus a column bias tiled across the batch when enabled."""
    out = matmul(w, x)
    if b is None:
        return out
    ones = Tensor(np.ones((1, out.shape[1]), dtype=out.dtype))
    return out + matmul(b, ones)


# -- parameter containers -----------------------------------------------------

# Per cell kind: (weight name, fan-in operand) in glorot draw order, then the
# optional column biases. Every weight has d_h rows; its fan-in is the token
# width "x", the state width "h" or the aspect width "a". The names and the
# draw order are the checkpoint format.
CELL_KINDS: dict[str, tuple[tuple[tuple[str, str], ...], tuple[str, ...]]] = {
    # aspect-gated input cell: candidate, reset, update and linear gates read
    # x and h, the relu aspect gate reads w_a @ aspect and h, and two linear
    # maps of x enter through the linear gate and the aspect gate
    "aspect": (
        (("w_xh", "x"), ("w_xr", "x"), ("w_xz", "x"), ("w_xl", "x"),
         ("w_hh", "h"), ("w_hr", "h"), ("w_hz", "h"), ("w_hl", "h"), ("w_hg", "h"),
         ("w_a", "a"), ("w_lin1", "x"), ("w_lin2", "x")),
        ("b_r", "b_z", "b_l", "b_g", "b_h"),
    ),
    # aspect-free input cell: gated linear bypass, no aspect
    "dt": (
        (("w_xh", "x"), ("w_xr", "x"), ("w_xz", "x"), ("w_xl", "x"),
         ("w_hh", "h"), ("w_hr", "h"), ("w_hz", "h"), ("w_hl", "h"),
         ("w_lin1", "x")),
        ("b_r", "b_z", "b_l", "b_h"),
    ),
    # transition cell: state in, state out, no token input
    "transition": (
        (("w_h", "h"), ("w_r", "h"), ("w_z", "h")),
        ("b_r", "b_z"),
    ),
    # conventional GRU cell, for the stacked baseline
    "gru": (
        (("w_xh", "x"), ("w_xr", "x"), ("w_xz", "x"),
         ("w_hh", "h"), ("w_hr", "h"), ("w_hz", "h")),
        ("b_r", "b_z", "b_h"),
    ),
}


class CellParams:
    """Weights of one cell of a ``CELL_KINDS`` kind, one attribute per name.

    Bias attributes are None when the cell was built without biases.
    """

    def __init__(self, kind: str, tensors: dict[str, Tensor | None]):
        self.kind = kind
        self._names = tuple(tensors)
        self.__dict__.update(tensors)

    @classmethod
    def init(cls, kind: str, d_h: int, rng, d_x: int | None = None,
             d_a: int | None = None, dtype=TRAIN_DTYPE, bias=False) -> "CellParams":
        weights, biases = CELL_KINDS[kind]
        fan_in = {"h": d_h, "x": d_x, "a": d_a}
        tensors: dict[str, Tensor | None] = {}
        for name, operand in weights:
            tensors[name] = glorot(rng, d_h, fan_in[operand], dtype)
        for name in biases:
            tensors[name] = _zeros_bias(d_h, dtype) if bias else None
        return cls(kind, tensors)

    @property
    def d_h(self) -> int:
        return getattr(self, self._names[0]).shape[0]

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}{name}": t
            for name in self._names
            if (t := getattr(self, name)) is not None
        }


# -- step functions -----------------------------------------------------------


def aspect_gru_step(
    p: CellParams,
    x: Tensor,
    aspect: Tensor,
    h_prev: Tensor,
    a_proj: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """One aspect-gated step; returns (new state, relu gate activations).

    x: (d_x, B), aspect: (d_a, B), h_prev: (d_h, B). ``a_proj`` lets the
    caller hoist w_a @ aspect out of the time loop; the aspect is
    constant across a sequence, so the projection is too.
    """
    if a_proj is None:
        a_proj = matmul(p.w_a, aspect)
    r = sigmoid(affine(p.w_xr, x, None) + affine(p.w_hr, h_prev, p.b_r))
    z = sigmoid(affine(p.w_xz, x, None) + affine(p.w_hz, h_prev, p.b_z))
    l = sigmoid(affine(p.w_xl, x, None) + affine(p.w_hl, h_prev, p.b_l))
    g = relu(a_proj + affine(p.w_hg, h_prev, p.b_g))
    cand = tanh(g * matmul(p.w_xh, x) + r * affine(p.w_hh, h_prev, p.b_h))
    cand = cand + l * matmul(p.w_lin1, x) + g * matmul(p.w_lin2, x)
    h = (1.0 - z) * h_prev + z * cand
    return h, g


def dt_gru_step(p: CellParams, x: Tensor, h_prev: Tensor) -> Tensor:
    """Aspect-free input cell: ungated nonlinear path plus gated bypass."""
    r = sigmoid(affine(p.w_xr, x, None) + affine(p.w_hr, h_prev, p.b_r))
    z = sigmoid(affine(p.w_xz, x, None) + affine(p.w_hz, h_prev, p.b_z))
    l = sigmoid(affine(p.w_xl, x, None) + affine(p.w_hl, h_prev, p.b_l))
    cand = tanh(matmul(p.w_xh, x) + r * affine(p.w_hh, h_prev, p.b_h))
    cand = cand + l * matmul(p.w_lin1, x)
    return (1.0 - z) * h_prev + z * cand


def transition_gru_step(p: CellParams, h_prev: Tensor) -> Tensor:
    """One transition refinement; candidate is tanh(r * (w_h @ h))."""
    z = sigmoid(affine(p.w_z, h_prev, p.b_z))
    r = sigmoid(affine(p.w_r, h_prev, p.b_r))
    cand = tanh(r * matmul(p.w_h, h_prev))
    return (1.0 - z) * h_prev + z * cand


def gru_step(p: CellParams, x: Tensor, h_prev: Tensor) -> Tensor:
    """Conventional GRU step for the stacked baseline."""
    r = sigmoid(affine(p.w_xr, x, None) + affine(p.w_hr, h_prev, p.b_r))
    z = sigmoid(affine(p.w_xz, x, None) + affine(p.w_hz, h_prev, p.b_z))
    cand = tanh(affine(p.w_xh, x, None) + r * affine(p.w_hh, h_prev, p.b_h))
    return (1.0 - z) * h_prev + z * cand


# -- deep-transition block ------------------------------------------------------


@dataclass
class DeepTransitionBlock:
    """One input cell plus transition cells, applied once per time step."""

    first: CellParams  # kind "aspect", "dt" or "gru"
    transitions: tuple[CellParams, ...]  # kind "transition"

    @classmethod
    def init(cls, d_h, d_x, d_a, depth, rng, dtype=TRAIN_DTYPE, aspect_gated=True, bias=False):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        first = CellParams.init(
            "aspect" if aspect_gated else "dt", d_h, rng, d_x, d_a, dtype, bias
        )
        trans = tuple(
            CellParams.init("transition", d_h, rng, dtype=dtype, bias=bias)
            for _ in range(depth - 1)
        )
        return cls(first=first, transitions=trans)

    @property
    def depth(self) -> int:
        return 1 + len(self.transitions)

    @property
    def aspect_gated(self) -> bool:
        return self.first.kind == "aspect"

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        out = self.first.tensors(f"{prefix}c0/")
        for i, t in enumerate(self.transitions):
            out.update(t.tensors(f"{prefix}c{i + 1}/"))
        return out


def block_step(
    block: DeepTransitionBlock,
    x: Tensor,
    aspect: Tensor | None,
    h_prev: Tensor,
    a_proj: Tensor | None = None,
) -> tuple[Tensor, Tensor | None]:
    """Run one time step through all cells; returns (state, gate or None)."""
    kind = block.first.kind
    if kind == "aspect":
        if aspect is None and a_proj is None:
            raise ValueError("block_step: aspect-gated block needs an aspect")
        h, g = aspect_gru_step(block.first, x, aspect, h_prev, a_proj)
    elif kind == "dt":
        h, g = dt_gru_step(block.first, x, h_prev), None
    else:
        h, g = gru_step(block.first, x, h_prev), None
    for cell in block.transitions:
        h = transition_gru_step(cell, h)
    return h, g


# -- sequence encoders -----------------------------------------------------------


def _validate_mask(mask: np.ndarray, B: int, T: int) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.shape != (B, T):
        raise ShapeError(f"mask shape {mask.shape} does not match batch ({B}, {T})")
    vals = np.unique(mask)
    if not np.all(np.isin(vals, (0, 1))):
        raise ValueError("mask entries must be 0 or 1")
    # real tokens must form a prefix of each row
    diffs = np.diff(mask.astype(np.int8), axis=1)
    if np.any(diffs > 0):
        raise ValueError("mask must be monotone: padding only as a suffix")
    return mask


def run_block_batch(
    block: DeepTransitionBlock,
    steps: Sequence[Tensor],
    aspect: Tensor | None,
    mask: np.ndarray,
) -> tuple[list[Tensor], list[Tensor | None]]:
    """Encode a column batch through a deep-transition block.

    ``steps[t]`` is the (d_x, B) input at time t, ``mask`` is (B, T) with
    real tokens as a prefix. Masked positions carry the previous state
    through unchanged, so the final state of every column is its state at
    its own last real token. Returns per-step states and gate tensors.
    The state starts at zero.
    """
    d_h = block.first.d_h
    if not steps:
        return [], []
    B = steps[0].shape[1]
    mask = _validate_mask(mask, B, len(steps))
    h = Tensor(np.zeros((d_h, B), dtype=steps[0].dtype))
    a_proj = None
    if block.aspect_gated:
        if aspect is None:
            raise ValueError("run_block_batch: aspect-gated block needs an aspect")
        a_proj = matmul(block.first.w_a, aspect)
    states: list[Tensor] = []
    gates: list[Tensor | None] = []
    for t, x in enumerate(steps):
        h_new, g = block_step(block, x, aspect, h, a_proj)
        col = mask[:, t]
        h = h_new if col.all() else select_columns(col, h_new, h)
        states.append(h)
        gates.append(g)
    return states, gates

