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
    _node,
    _sigmoid,
    matmul,
    select_columns,
)


def glorot(rng: np.random.Generator, rows: int, cols: int, dtype=TRAIN_DTYPE) -> Tensor:
    """Glorot-uniform weight matrix, a trainable leaf."""
    limit = np.sqrt(6.0 / (rows + cols))
    data = rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)
    return Tensor(data, requires_grad=True)


def affine(w: Tensor, x: Tensor, b: Tensor | None) -> Tensor:
    """w @ x, plus a column bias tiled across the batch when enabled."""
    out = matmul(w, x)
    if b is None:
        return out
    ones = Tensor(np.ones((1, out.shape[1]), dtype=out.dtype))
    return out + matmul(b, ones)


# -- parameter containers -----------------------------------------------------

# Per cell kind: the weight names in glorot draw order, the weights of each
# operand in stacked row order, and the column biases. Every weight has d_h
# rows; its fan-in is the width of its operand: the token "x", the state "h"
# or the aspect "a". The names and the draw order are the checkpoint format.
#
# The row order is what the fused step reads: the "h" stack holds the
# sigmoid gates (r, z, then l when the cell has a linear bypass), the relu
# aspect gate g when it has one, then the candidate's state term. The "x"
# stack holds the token-only terms (the candidate's token term, then the
# bypass maps) followed by the sigmoid gates in "h" order. The biases follow
# the "h" rows they are added to.
CELL_KINDS: dict[str, tuple[tuple[str, ...], dict[str, tuple[str, ...]], tuple[str, ...]]] = {
    # aspect-gated input cell: candidate, reset, update and linear gates read
    # x and h, the relu aspect gate reads w_a @ aspect and h, and two linear
    # maps of x enter through the linear gate and the aspect gate
    "aspect": (
        ("w_xh", "w_xr", "w_xz", "w_xl", "w_hh", "w_hr", "w_hz", "w_hl", "w_hg",
         "w_a", "w_lin1", "w_lin2"),
        {"x": ("w_xh", "w_lin1", "w_lin2", "w_xr", "w_xz", "w_xl"),
         "h": ("w_hr", "w_hz", "w_hl", "w_hg", "w_hh"),
         "a": ("w_a",)},
        ("b_r", "b_z", "b_l", "b_g", "b_h"),
    ),
    # aspect-free input cell: gated linear bypass, no aspect
    "dt": (
        ("w_xh", "w_xr", "w_xz", "w_xl", "w_hh", "w_hr", "w_hz", "w_hl", "w_lin1"),
        {"x": ("w_xh", "w_lin1", "w_xr", "w_xz", "w_xl"),
         "h": ("w_hr", "w_hz", "w_hl", "w_hh")},
        ("b_r", "b_z", "b_l", "b_h"),
    ),
    # transition cell: state in, state out, no token input
    "transition": (
        ("w_h", "w_r", "w_z"),
        {"h": ("w_r", "w_z", "w_h")},
        ("b_r", "b_z"),
    ),
    # conventional GRU cell, for the stacked baseline
    "gru": (
        ("w_xh", "w_xr", "w_xz", "w_hh", "w_hr", "w_hz"),
        {"x": ("w_xh", "w_xr", "w_xz"), "h": ("w_hr", "w_hz", "w_hh")},
        ("b_r", "b_z", "b_h"),
    ),
}


def _blocks(a: np.ndarray, d: int) -> list[np.ndarray]:
    """The consecutive d-row blocks of ``a``, as views."""
    return [a[i : i + d] for i in range(0, a.shape[0], d)]


class CellParams:
    """Weights of one cell of a ``CELL_KINDS`` kind.

    The weights of each operand live in one stacked (rows, fan-in) array,
    ``stacks[op]``, and the biases in one stacked column, ``bias`` (None
    without biases). Each named gate (``w_xh``, ``b_z``, ...) is an
    attribute holding a trainable Tensor whose data is a row-block view
    into its stack, so an in-place write to a gate (Adam, a checkpoint
    load) is what the fused steps read. Rebinding a gate's data breaks
    that link; the steps refuse to run on such a cell. A stack is stored
    Fortran-ordered, its transpose contiguous, so the steps' GEMMs run
    with the batch as the leading dimension, the faster orientation for
    this BLAS at these shapes.
    """

    def __init__(self, kind: str, stacks: dict[str, np.ndarray], bias: np.ndarray | None):
        draw, rows, biases = CELL_KINDS[kind]
        self.kind = kind
        self.stacks = stacks
        self.bias = bias
        d = stacks["h"].shape[1]
        self._views = {
            name: view
            for op, names in rows.items()
            for name, view in zip(names, _blocks(stacks[op], d))
        }
        if bias is not None:
            self._views.update(zip(biases, _blocks(bias, d)))
        self._names = draw + biases
        # the tensors a fused step takes gradients for, in stacked row order
        self._step_names = (*rows.get("x", ()), *rows["h"], *(biases if bias is not None else ()))
        for name in self._names:
            view = self._views.get(name)
            setattr(self, name, None if view is None else Tensor(view, requires_grad=True))

    @classmethod
    def init(cls, kind: str, d_h: int, rng, d_x: int | None = None,
             d_a: int | None = None, dtype=TRAIN_DTYPE, bias=False) -> "CellParams":
        draw, rows, biases = CELL_KINDS[kind]
        fan_in = {"h": d_h, "x": d_x, "a": d_a}
        stacks = {
            op: np.empty((fan_in[op], len(names) * d_h), dtype).T for op, names in rows.items()
        }
        block = {name: (op, i * d_h) for op, names in rows.items() for i, name in enumerate(names)}
        for name in draw:
            op, row = block[name]
            stacks[op][row : row + d_h] = glorot(rng, d_h, fan_in[op], dtype).data
        b = np.zeros((len(biases) * d_h, 1), dtype) if bias else None
        return cls(kind, stacks, b)

    @property
    def d_h(self) -> int:
        return self.stacks["h"].shape[1]

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}{name}": t
            for name in self._names
            if (t := getattr(self, name)) is not None
        }

    def step_tensors(self) -> tuple[Tensor, ...]:
        """The gates a fused step reads, checked to still view their stacks."""
        out = []
        for name in self._step_names:
            t = getattr(self, name)
            if t is None or t.data is not self._views[name]:
                raise ValueError(
                    f"{self.kind} cell: {name} no longer views its stacked weights; "
                    "write gate data in place (data[...] = ...)"
                )
            out.append(t)
        return tuple(out)


# -- fused step ops -----------------------------------------------------------


def _cell_step(p: CellParams, x: Tensor | None, h_prev: Tensor, a_proj: Tensor | None):
    """One step of any cell kind as numpy math plus a hand-written backward.

    Returns ``(h, parents, bwd, pre_g, g)`` for one tape node: the new
    state, the node's parents (the operands, then the gates in stacked
    order), its backward closure, and the relu gate's pre-activation and
    value (None without an aspect). The forward runs one GEMM per operand
    on the stacked weights. The backward writes every pre-activation
    gradient into one array ``D`` laid out as [token-only rows, sigmoid
    gates, (g), candidate state term], so the token and state stacks'
    gradients are its two overlapping row slices: one GEMM per stacked
    weight gradient and one per operand gradient.
    """
    gates = p.step_tensors()
    Wh, Wx, b = p.stacks["h"], p.stacks.get("x"), p.bias
    d, B = Wh.shape[1], h_prev.shape[1]
    for name, t, width in (("h_prev", h_prev, d), ("x", x, None if Wx is None else Wx.shape[1]),
                           ("a_proj", a_proj, d)):
        if t is not None and (t.shape != (width, B) or t.dtype != Wh.dtype):
            raise ShapeError(
                f"{p.kind} step: {name} is {t.shape} {t.dtype}, expected {(width, B)} {Wh.dtype}"
            )
    gated = "a" in p.stacks  # relu aspect gate g: scales the token term and lin2
    ns = Wh.shape[0] // d - 1 - gated  # sigmoid gates r, z (, l: scales lin1)
    lead = 0 if Wx is None else Wx.shape[0] // d - ns  # token-only rows
    hd = h_prev.data
    # batch-major GEMMs: X.T = x.T @ Wx.T, with Wx.T the contiguous storage
    H = (hd.T @ Wh.T).T
    if b is not None:
        H[: b.shape[0]] += b
    if x is None:
        S = _sigmoid(H[: ns * d], out=H[: ns * d])
    else:
        X = (x.data.T @ Wx.T).T
        S = X[lead * d :]
        S += H[: ns * d]
        _sigmoid(S, out=S)
    r, z = S[:d], S[d : 2 * d]
    u = r * H[-d:]
    pre_g = g = None
    if gated:
        pre_g = H[ns * d : (ns + 1) * d]
        pre_g += a_proj.data
        g = np.maximum(pre_g, 0.0)
        u += g * X[:d]
    elif x is not None:
        u += X[:d]
    tn = np.tanh(u, out=u)
    if ns == 3:
        diff = S[2 * d :] * X[d : 2 * d]
        diff += tn
        if gated:
            diff += g * X[2 * d : 3 * d]
        diff -= hd
    else:
        diff = tn - hd
    # h = (1 - z) * h_prev + z * cand, as h_prev + z * (cand - h_prev)
    h = z * diff
    h += hd

    def bwd(dh):
        D = np.empty((B, (lead + ns + gated + 1) * d), dh.dtype).T
        blk = _blocks(D, d)
        dcand = dh * z
        du = np.multiply(tn, tn, out=blk[0] if x is not None and not gated else None)
        np.subtract(1.0, du, out=du)
        du *= dcand
        np.multiply(du, H[-d:], out=blk[lead])
        np.multiply(diff, dh, out=blk[lead + 1])
        np.multiply(du, r, out=blk[-1])
        if gated:
            dg = blk[lead + ns]
            np.multiply(du, X[:d], out=dg)
            np.multiply(dcand, X[2 * d : 3 * d], out=blk[0])
            dg += blk[0]
            np.putmask(dg, g == 0, 0)  # the relu subgradient is 0 at the kink
            np.multiply(du, g, out=blk[0])
            np.multiply(dcand, g, out=blk[2])
        if ns == 3:
            np.multiply(dcand, X[d : 2 * d], out=blk[lead + 2])
            np.multiply(dcand, S[2 * d :], out=blk[1])
        dS = D[lead * d : (lead + ns) * d]
        dS *= S
        dS *= 1.0 - S
        DhT = D.T[:, lead * d :]
        grads = []
        if x is not None:
            DxT = D.T[:, : (lead + ns) * d]
            grads.append((DxT @ Wx).T if x.requires_grad else None)
        if h_prev.requires_grad:
            dh_prev = (DhT @ Wh).T
            dh_prev += dh
            dh_prev -= dcand
            grads.append(dh_prev)
        else:
            grads.append(None)
        if gated:
            grads.append(dg)
        if x is not None:
            grads += _blocks((x.data @ DxT).T, d)
        grads += _blocks((hd @ DhT).T, d)
        if b is not None:
            grads += _blocks(DhT[:, : b.shape[0]].sum(axis=0)[:, None], d)
        return tuple(grads)

    parents = tuple(t for t in (x, h_prev, a_proj) if t is not None) + gates
    return h, parents, bwd, pre_g, g


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
    constant across a sequence, so the projection is too. The gate is a
    constant off the tape: no loss reads it, only inspection does.
    """
    if a_proj is None:
        a_proj = matmul(p.w_a, aspect)
    h, parents, bwd, pre_g, g = _cell_step(p, x, h_prev, a_proj)
    return _node(h, parents, bwd, "aspect_step", kinks=pre_g), Tensor(g)


def dt_gru_step(p: CellParams, x: Tensor, h_prev: Tensor) -> Tensor:
    """Aspect-free input cell: ungated nonlinear path plus gated bypass."""
    h, parents, bwd, _, _ = _cell_step(p, x, h_prev, None)
    return _node(h, parents, bwd, "dt_step")


def transition_gru_step(p: CellParams, h_prev: Tensor) -> Tensor:
    """One transition refinement; candidate is tanh(r * (w_h @ h))."""
    h, parents, bwd, _, _ = _cell_step(p, None, h_prev, None)
    return _node(h, parents, bwd, "transition_step")


def gru_step(p: CellParams, x: Tensor, h_prev: Tensor) -> Tensor:
    """Conventional GRU step for the stacked baseline."""
    h, parents, bwd, _, _ = _cell_step(p, x, h_prev, None)
    return _node(h, parents, bwd, "gru_step")


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

