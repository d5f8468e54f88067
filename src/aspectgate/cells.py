"""Gated recurrent cells and deep-transition sequence encoders.

A deep-transition block processes one time step through a stack of
cells, and is the tuple of those cells' ``CellParams``: an
input-consuming first cell followed by ``depth - 1`` transition cells
that refine the state without seeing the token. The first cell
comes in two flavors: an aspect-gated one, whose candidate state is
modulated by a relu gate computed from the aspect vector and the previous
state, and an aspect-free one that keeps the gated linear bypass but no
aspect conditioning. The stacked-GRU baseline is a sequence of
one-cell blocks whose only cell is a conventional GRU, so every encoder
runs through the same recurrence.

A block over a whole batch of sequences is one tape op,
``run_block_batch``: its input and states are step-major (T, d, B)
arrays, and it runs the numpy step functions once per cell per step
on each of two column halves, over the columns still running. Steps
take column-major batches, (d, B) with one column per sequence. A
single sequence is a batch of one column, so the batched encoder is the
only implementation of the math.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from . import threads
from .tensor import TRAIN_DTYPE, ShapeError, Tensor, _node, _records, _sigmoid


def glorot(rng: np.random.Generator, rows: int, cols: int, dtype=TRAIN_DTYPE) -> Tensor:
    """Glorot-uniform weight matrix, a trainable leaf."""
    limit = np.sqrt(6.0 / (rows + cols))
    data = rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)
    return Tensor(data, requires_grad=True)


# The heads' GEMM, looked up by this module-level name so that a wrapper
# on it (a profiler's) sees every head product.
matmul = np.matmul


def affine(w: Tensor, x: Tensor, b: Tensor | None) -> Tensor:
    """A head's (B, C) logits, ``(w @ x + b).T``, as one tape node.

    ``w`` is (C, d), ``x`` the (d, B) columns and ``b`` a (C, 1) column
    bias tiled across the batch, or None. The output is the transposed
    view of the (C, B) product. The backward forms the bias gradient as
    a GEMM with a column of ones, which fixes its summation order.
    """
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ShapeError(f"affine: cannot apply {w.shape} to {x.shape}")
    if w.dtype != x.dtype:
        raise ValueError(f"affine: mixed dtypes {w.dtype} and {x.dtype}")
    if b is not None and b.shape != (w.shape[0], 1):
        raise ShapeError(f"affine: bias {b.shape} does not fit {w.shape}")
    out = matmul(w.data, x.data)
    if b is not None:
        out += b.data

    def bwd(g):
        gt = g.T  # the (C, B) product's gradient
        grads = (gt @ x.data.T if w.requires_grad else None,
                 w.data.T @ gt if x.requires_grad else None)
        if b is None:
            return grads
        ones = np.ones((1, gt.shape[1]), gt.dtype)
        return (*grads, gt @ ones.T if b.requires_grad else None)

    return _node(out.T, (w, x) if b is None else (w, x, b), bwd, "affine")


# -- parameter containers -----------------------------------------------------

# Per cell kind: the weight names in glorot draw order, the weights of each
# operand in stacked row order, and the column biases. Every weight has d_h
# rows; its fan-in is the width of its operand: the token "x", the state "h"
# or the aspect "a". The names and the draw order are the checkpoint format.
#
# The row order is what a step reads: the "h" stack holds the
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

    The weights of each operand are one trainable stacked (rows, fan-in)
    Tensor, ``stacks[op]``, and the biases one trainable stacked column,
    ``bias`` (None without biases). These stacks are the parameters: the
    steps read their ``.data``, and the per-gate names exist only in the
    checkpoint, through ``gate_arrays``. A stack is stored Fortran-ordered,
    its transpose contiguous, so the steps' GEMMs run with the batch as
    the leading dimension, the faster orientation for this BLAS at these
    shapes.
    """

    def __init__(self, kind: str, stacks: dict[str, np.ndarray], bias: np.ndarray | None):
        self.kind = kind
        self.stacks = {op: Tensor(w, requires_grad=True) for op, w in stacks.items()}
        self.bias = None if bias is None else Tensor(bias, requires_grad=True)
        d = self.d_h
        # the relu aspect gate g, the sigmoid gates (r, z, then l for a
        # linear bypass), and the token-only rows ahead of them in "x"
        self.gated = "a" in stacks
        self.ns = stacks["h"].shape[0] // d - 1 - self.gated
        self.lead = stacks["x"].shape[0] // d - self.ns if "x" in stacks else 0

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
        """The trainable stacks by name: ``{prefix}{op}`` per operand, ``{prefix}b``."""
        out = {f"{prefix}{op}": t for op, t in self.stacks.items()}
        if self.bias is not None:
            out[f"{prefix}b"] = self.bias
        return out


def gate_arrays(cell: CellParams, prefix: str = "") -> dict[str, np.ndarray]:
    """Each named gate's row-block view of its stack's current data.

    These are the cell's tensors in checkpoint format 1, named
    ``{prefix}{gate}`` in glorot draw order, then the biases; a write
    into a view is a write into the stack.
    """
    draw, rows, biases = CELL_KINDS[cell.kind]
    d = cell.d_h
    views = {
        name: view
        for op, names in rows.items()
        for name, view in zip(names, _blocks(cell.stacks[op].data, d))
    }
    if cell.bias is not None:
        views.update(zip(biases, _blocks(cell.bias.data, d)))
    return {f"{prefix}{name}": views[name] for name in draw + biases if name in views}


# -- cell steps ------------------------------------------------------------------


def cell_step(p: CellParams, X: np.ndarray | None, h_prev: np.ndarray,
              a_proj: np.ndarray | None = None, out=(None,) * 5):
    """One step of any cell kind in numpy; returns ``(h, g, saved)``.

    ``X`` is the step's (rows, B) slice of the token projection
    ``stacks["x"] @ x``, which the block computes in one GEMM before its
    time loop, over the batch's distinct token ids when it is given them,
    and gathers per step (None for a transition cell); the sigmoid gates
    are written over its gate rows, so each cell's rows are its own even
    where cells share an id. ``a_proj`` is w_a @ aspect, hoisted out of
    the time loop too: the aspect is constant across a sequence. The
    state projection ``stacks["h"] @ h_prev`` plus bias is a (rows, B)
    array ``H``, the relu gate's pre-activation in its gate rows. ``g`` is
    the relu aspect gate (None without an aspect) and ``saved`` is all
    that ``_step_backward`` reads, X and H among it. ``out`` holds the
    (·, B) views that ``H``, the candidate ``tanh``, ``cand - h_prev``,
    ``g`` and ``h`` are written into, each None for a new array; the
    values are the same bits either way.
    """
    Wh, d, ns, hd = p.stacks["h"].data, p.d_h, p.ns, h_prev
    H_out, tn_out, diff_out, g_out, h_out = out
    # batch-major GEMM: H.T = hd.T @ Wh.T, with Wh.T the contiguous storage
    H = np.matmul(hd.T, Wh.T, out=None if H_out is None else H_out.T).T
    if p.bias is not None:
        H[: p.bias.shape[0]] += p.bias.data
    if X is None:
        S = _sigmoid(H[: ns * d], out=H[: ns * d])
    else:
        S = X[p.lead * d :]
        S += H[: ns * d]
        _sigmoid(S, out=S)
    r, z = S[:d], S[d : 2 * d]
    u = np.multiply(r, H[-d:], out=tn_out)
    g = None
    if p.gated:  # relu aspect gate g: scales the token term and lin2
        pre_g = H[ns * d : (ns + 1) * d]
        pre_g += a_proj
        g = np.maximum(pre_g, 0.0, out=g_out)
        u += g * X[:d]
    elif X is not None:
        u += X[:d]
    tn = np.tanh(u, out=u)
    if ns == 3:  # gated linear bypass l * lin1
        diff = np.multiply(S[2 * d :], X[d : 2 * d], out=diff_out)
        diff += tn
        if g is not None:
            diff += g * X[2 * d : 3 * d]
        diff -= hd
    else:
        diff = np.subtract(tn, hd, out=diff_out)
    # h = (1 - z) * h_prev + z * cand, as h_prev + z * (cand - h_prev)
    h = np.multiply(z, diff, out=h_out)
    h += hd
    return h, g, (X, H, hd, tn, diff, g)


# One implementation under each cell kind's name. The block calls a kind's
# step by its module-level name, so a wrapper on one name (a profiler's)
# sees exactly that kind's steps.
aspect_gru_step = dt_gru_step = gru_step = transition_gru_step = cell_step


def _step_backward(p: CellParams, saved, dh: np.ndarray):
    """Backward of one ``cell_step`` along the recurrence: ``(dh_prev, dg, D)``.

    Every pre-activation gradient goes into one array ``D`` laid out as
    [token-only rows, sigmoid gates, (g), candidate state term], so the
    token and state stacks' gradients are its two overlapping row slices,
    which ``_weight_grads`` forms; only ``dh_prev`` and the relu aspect
    gate's gradient ``dg`` (None without one) are read by the next step back.
    """
    X, H, hd, tn, diff, g = saved
    d, ns, lead = p.d_h, p.ns, p.lead
    S = H[: ns * d] if X is None else X[lead * d :]
    r, z = S[:d], S[d : 2 * d]
    D = np.empty((dh.shape[1], (lead + ns + p.gated + 1) * d), dh.dtype).T
    blk = _blocks(D, d)
    dcand = dh * z
    du = np.multiply(tn, tn, out=blk[0] if X is not None and g is None else None)
    np.subtract(1.0, du, out=du)
    du *= dcand
    np.multiply(du, H[-d:], out=blk[lead])
    np.multiply(diff, dh, out=blk[lead + 1])
    np.multiply(du, r, out=blk[-1])
    dg = None
    if g is not None:
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
    dh_prev = (D.T[:, lead * d :] @ p.stacks["h"].data).T
    dh_prev += dh
    dh_prev -= dcand
    return dh_prev, dg, D


def _weight_grads(p: CellParams, D: np.ndarray, x: np.ndarray | None, hd: np.ndarray,
                  acc: dict) -> np.ndarray | None:
    """Add one step's weight gradients into ``acc``; returns ``DxT``.

    ``D`` is what ``_step_backward`` returned, ``x`` the step's (d_x, B)
    input (None for a transition cell) and ``hd`` its previous state.
    ``acc`` holds the cell's accumulators keyed like
    ``CellParams.tensors("")``. ``DxT`` is the token rows' slice of
    ``D``, batch-major (None without an input).
    """
    d, lead = p.d_h, p.lead
    DhT = D.T[:, lead * d :]
    DxT = None
    if x is not None:
        DxT = D.T[:, : (lead + p.ns) * d]
        acc["x"] += (x @ DxT).T
    acc["h"] += (hd @ DhT).T
    if p.bias is not None:
        acc["b"] += DhT[:, : p.bias.shape[0]].sum(axis=0)[:, None]
    return DxT


# The block backward's work that nothing later in its time loop reads (the
# weight-gradient GEMMs, the bias sums, the input gradient) runs on a worker
# thread that each backward starts and joins, off the recurrent chain. Jobs
# run in the order they are submitted, the serial loop's order, so every
# accumulator sums in the same order and gets the same bits. A backward keeps
# at most _IN_FLIGHT steps of jobs queued or running, so their gradient
# arrays do not pile up.
_IN_FLIGHT = 4


# -- deep-transition block ------------------------------------------------------


def init_block(kind: str, d_h: int, d_x: int, d_a: int | None, depth: int, rng,
               dtype=TRAIN_DTYPE, bias=False) -> tuple[CellParams, ...]:
    """A block: an input cell of ``kind`` ("aspect", "dt" or "gru"), then
    ``depth - 1`` transition cells, drawn in that order."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    first = CellParams.init(kind, d_h, rng, d_x, d_a, dtype, bias)
    return (first, *(CellParams.init("transition", d_h, rng, dtype=dtype, bias=bias)
                     for _ in range(depth - 1)))


# -- sequence encoder ------------------------------------------------------------


def validate_mask(mask, B: int, T: int) -> np.ndarray:
    """The (B,) lengths of a (B, T) 0/1 mask whose real tokens form a
    nonempty prefix of each row. This is the only reader of a mask: the
    block and pooling take the lengths."""
    mask = np.asarray(mask)
    if mask.shape != (B, T):
        raise ShapeError(f"mask shape {mask.shape} does not match batch ({B}, {T})")
    lengths = np.count_nonzero(mask, axis=1)
    if not np.array_equal(mask, np.arange(T) < lengths[:, None]):
        raise ValueError("mask entries must be 0 or 1 and monotone: padding only as a suffix")
    if np.any(lengths == 0):
        raise ValueError("a sequence in the batch has no real tokens")
    return lengths


def run_block_batch(
    cells: tuple[CellParams, ...],
    x: Tensor,
    aspect: Tensor | None,
    lengths: np.ndarray,
    ids: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray | None]:
    """Encode a step-major column batch through a block, as one tape node.

    ``cells`` is the block: its input cell, then its transition cells.
    ``x`` is (T, d_x, B): the (d_x, B) input of every step. ``aspect`` is
    the (d_a, B) aspect batch an aspect-gated input cell reads.
    ``lengths`` is each column's count of real steps, as ``validate_mask``
    returns; the steps after them are padding. Returns the (T, d_h, B)
    states, starting from zero, and the relu aspect gates as a read-only
    (T, d_h, B) constant (None without an aspect). At a padded step both
    are 0, and the backward drops the states' incoming gradient there.

    Only real cells run: in length order, the columns running at step t
    are a suffix, a row range of the batch-major storage. A batch in that
    order (any ``make_batches`` batch, B=1) is used as it is, any other is
    permuted once on the way in and once out.

    The token projection is made before the time loop, and so is the
    aspect projection: the aspect is constant across a sequence. ``ids``,
    when given, are the (T, B) token ids of ``x``'s cells, passed only
    when equal ids mean equal input rows (undropped embeddings): the
    token GEMM then runs once per distinct id among the real cells, not
    once per real cell, and ``x`` stays the only source of values.

    The columns split into two fixed halves, [0:m] and [m:B], where half
    of the real cells have run (B=1 does not split), and each half runs
    its whole time loop on its own: the columns never read each other.
    The token projection's rows split in two halves as well. A column's
    bits depend on its GEMM's row count, so the splits are part of the
    math and depend on the batch alone; which thread runs a half is only
    scheduling. A taped forward, with more than one usable CPU, runs one
    half of each on a helper thread that lives for this call, and joins
    it before it returns or raises; a grad-free forward (the eval pool
    already fills the cores) and any forward on one CPU run the halves
    one after the other, with the same bits. The loop runs each cell's
    step by its kind's name.

    One rule sets the memory: a taped forward keeps all that its backward
    reads, and a grad-free one keeps nothing past the step in hand, so it
    holds only the two projections and its outputs. A taped block
    allocates, before its loop, one (n_real, width) array per saved
    quantity per cell, laid out like the token projection, with step t's
    real cells at rows ``off[t]:off[t + 1]``: the token rows (gathered
    once over ids), the state projection, the candidate's tanh,
    ``cand - h_prev``, and the new state (the states themselves for the
    last cell; the relu gates are the gates output). Each half writes its
    contiguous row range of a step through ``out=``, so with no barrier
    between the halves, a step's record is one set of views over all its
    columns, and the backward is the unsplit one. Two records per step,
    each half with its own backward, would keep the halves apart through
    the backward too, but that measured 1.19x on a train step, against
    1.25x for split forwards over one record. The node's parents
    are ``x``, the aspect when the input cell is gated, and every cell's
    stacks; its backward runs backprop through time over the kept steps,
    with each step's weight-gradient work on a worker thread that lives
    for that backward.
    """
    first = cells[0]
    Wx, d = first.stacks["x"].data, first.d_h
    if x.ndim != 3 or x.shape[1] != Wx.shape[1] or x.dtype != Wx.dtype:
        raise ShapeError(
            f"run_block_batch: x is {x.shape} {x.dtype}, expected (T, {Wx.shape[1]}, B) {Wx.dtype}"
        )
    T, d_x, B = x.shape
    lengths = np.asarray(lengths)
    if lengths.shape != (B,):
        raise ShapeError(f"run_block_batch: lengths are {lengths.shape}, expected ({B},)")
    # the columns in length order and back, as basic slices (views) when they already are
    shuffled = np.any(lengths[:-1] > lengths[1:])
    order = np.argsort(lengths, kind="stable") if shuffled else slice(None)
    inverse = np.argsort(order) if shuffled else slice(None)
    # at step t the columns [start[t]:] run, and rows off[t]:off[t + 1] are their real cells
    start = np.searchsorted(lengths[order], np.arange(T), side="right")
    off = np.concatenate(([0], np.cumsum(B - start)))
    parents = [x]
    a_proj = None
    if first.gated:
        if aspect is None:
            raise ValueError("run_block_batch: aspect-gated block needs an aspect")
        Wa = first.stacks["a"].data
        if aspect.shape != (Wa.shape[1], B) or aspect.dtype != Wa.dtype:
            raise ShapeError(
                f"run_block_batch: aspect is {aspect.shape} {aspect.dtype}, "
                f"expected ({Wa.shape[1]}, {B}) {Wa.dtype}"
            )
        a_proj = Wa @ aspect.data[:, order]
        parents.append(aspect)
    for c in cells:
        parents += c.tensors("").values()
    taped = _records(parents)
    # the token projection: rows over the real cells, (step, column) in loop
    # order, or over each distinct id among them; a step takes its rows of it
    tt, bb = np.nonzero(np.arange(B) >= start[:, None])
    real, each = (tt, np.arange(B)[order][bb]), None
    if ids is not None:
        if ids.shape != (T, B):
            raise ShapeError(f"run_block_batch: ids are {ids.shape}, expected ({T}, {B})")
        _, once, each = np.unique(ids[real], return_index=True, return_inverse=True)
    xT = x.data.transpose(0, 2, 1)
    at = real if each is None else (tt[once], real[1][once])  # each projected row's cell
    P = np.empty((len(at[0]), Wx.shape[0]), x.dtype)
    steps = [{"aspect": aspect_gru_step, "dt": dt_gru_step, "gru": gru_step}[first.kind]]
    steps += [transition_gru_step] * (len(cells) - 1)
    states = np.zeros((T, B, d), x.dtype).transpose(0, 2, 1)
    gates = np.zeros((T, B, d), x.dtype).transpose(0, 2, 1) if first.gated else None
    h0 = np.zeros((B, d), x.dtype).T
    # when taped, what each cell's steps save beyond their token rows, as one
    # (n_real, width) array each laid out like P: the state projection H, the
    # candidate tanh, cand - h_prev, and the new state, which for the last cell
    # is the states themselves
    last = len(cells) - 1
    wide = [[np.empty((off[-1], w), x.dtype) if taped and w else None
             for w in (c.stacks["h"].shape[0], d, d, d if j < last else None)]
            for j, c in enumerate(cells)]

    def project(rows):  # rows of the token projection
        np.matmul(xT[at[0][rows], at[1][rows]], Wx.T, out=P[rows])

    def outs(j, t, k, hi, rows):
        """Where cell j's step t writes its columns [k:hi], rows ``rows`` of the
        block-wide arrays: views of them when taped, else None for new arrays,
        with the relu gates and the last cell's states in the outputs."""
        H, tn, diff, h = (None if a is None else a[rows].T for a in wide[j])
        g = gates[t][:, k:hi] if cells[j].gated else None
        return H, tn, diff, g, states[t][:, k:hi] if j == last else h

    def run(half):  # every step of the columns [lo:hi]
        lo, hi = half
        for t in range(T):
            k = max(start[t], lo)
            if k >= hi:
                break
            r = off[t] + k - start[t]
            rows = slice(r, r + hi - k)
            h = (states[t - 1] if t else h0)[:, k:hi]
            a = None if a_proj is None else a_proj[:, k:hi]
            for j, (cell, step) in enumerate(zip(cells, steps)):
                X = None if j else (P[rows] if each is None else P[each[rows]]).T
                h = step(cell, X, h, a, outs(j, t, k, hi, rows))[0]

    def split(fn, parts):  # the first part on the helper, if there is one
        if helper is None:
            for part in parts:
                fn(part)
            return
        first_part = helper.submit(fn, parts[0])
        fn(parts[1])
        first_part.result()

    # the token projection's rows, and the columns: [0:m] and [m:B] where half
    # the real cells have run, a function of the lengths alone
    n = len(P)
    cells_run = np.cumsum(lengths[order])
    m = min(int(np.searchsorted(cells_run, cells_run[-1] / 2)) + 1, B - 1) if B > 1 else 0
    threaded = taped and m and threads.usable_cpus() > 1
    # leaving the executor joins the helper, also when the calling thread raises
    fwd = ThreadPoolExecutor(1, thread_name_prefix="aspectgate-fwd") if threaded else nullcontext()
    with fwd as helper:
        split(project, [slice(0, n // 2), slice(n // 2, n)] if m else [slice(0, n)])
        if taped and each is not None:  # a taped block keeps every real cell's token rows
            P, each = P[each], None
        split(run, [(0, m), (m, B)] if m else [(0, B)])
    # per cell, each step's record over all its columns: views of what the halves wrote
    saved: list[list] = [[] for _ in cells]
    for t in range(T if taped else 0):
        k, rows = start[t], slice(off[t], off[t + 1])
        if k == B:
            break
        hd = (states[t - 1] if t else h0)[:, k:]
        for j in range(len(cells)):
            H, tn, diff, g, h = outs(j, t, k, B, rows)
            saved[j].append((None if j else P[rows].T, H, hd, tn, diff, g))
            hd = h
    if gates is not None:
        gates = gates[..., inverse]
        gates.setflags(write=False)

    def bwd(gs):
        gs = gs[..., order]
        # the aspect stack's gradient is one GEMM after the loop
        acc = [{k: np.zeros_like(w.data) for k, w in c.tensors("").items() if k != "a"}
               for c in cells]
        dx = np.zeros((T, B, d_x), gs.dtype) if x.requires_grad else None
        da = np.zeros((d, B), gs.dtype) if a_proj is not None else None
        dnext = np.zeros((d, B), gs.dtype)  # reaching states[t] from step t + 1

        def weight_grads(t, cols, Ds):  # on the worker; Ds in the loop's cell order
            for j, D in zip(reversed(range(len(cells))), Ds):
                xt = None if j else xT[t, cols].T
                DxT = _weight_grads(cells[j], D, xt, saved[j][t][2], acc[j])
            if dx is not None:
                dx[t, cols] = DxT @ Wx

        # leaving the executor waits for every submitted job, also when the chain raises
        with ThreadPoolExecutor(1, thread_name_prefix="aspectgate-bptt") as worker:
            pending = deque()
            for t in reversed(range(T)):
                k, cols = start[t], real[1][off[t] : off[t + 1]]
                if k == B:
                    continue
                dh = gs[t][:, k:] + dnext[:, k:]
                Ds = []
                for j in reversed(range(len(cells))):
                    dh, dg, D = _step_backward(cells[j], saved[j][t], dh)
                    Ds.append(D)
                if len(pending) == _IN_FLIGHT:
                    pending.popleft().result()
                pending.append(worker.submit(weight_grads, t, cols, Ds))
                if da is not None:
                    da[:, k:] += dg
                dnext[:, k:] = dh
            # a job's exception is raised here, before any accumulator is read
            while pending:
                pending.popleft().result()
        grads = [None if dx is None else dx.transpose(0, 2, 1)]
        if da is not None:
            grads.append((Wa.T @ da)[:, inverse] if aspect.requires_grad else None)
            acc[0]["a"] = da @ aspect.data[:, order].T
        for c, a in zip(cells, acc):
            grads += (a[k] for k in c.tensors(""))
        return tuple(grads)

    kinks = None
    if taped and first.gated:  # every real cell's relu gate pre-activation, a view
        kinks = wide[0][0][:, first.ns * d : (first.ns + 1) * d]
    return _node(states[..., inverse], tuple(parents), bwd, "block", kinks=kinks), gates
