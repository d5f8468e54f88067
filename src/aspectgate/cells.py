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
on the columns still running. Steps take column-major batches, (d, B)
with one column per sequence. A
single sequence is a batch of one column, so the batched encoder is the
only implementation of the math.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

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
              a_proj: np.ndarray | None = None, H: np.ndarray | None = None):
    """One step of any cell kind in numpy; returns ``(h, g, saved)``.

    ``X`` is the step's (rows, B) slice of the token projection
    ``stacks["x"] @ x``, which the block computes for every step in one
    GEMM, over the batch's distinct token ids when it is given them
    (None for a transition cell); the sigmoid gates are written over its
    gate rows, so each cell's slice is its own copy even where cells
    share an id. ``a_proj`` is w_a @ aspect, hoisted out of the time
    loop too: the aspect is constant across a sequence. The state
    projection ``stacks["h"] @ h_prev`` plus bias is written into ``H``
    (a new array when None), the relu gate's pre-activation in its gate
    rows. ``g`` is the relu aspect gate (None without an aspect) and
    ``saved`` is what ``_step_backward`` needs besides X and H.
    """
    Wh, d, ns, hd = p.stacks["h"].data, p.d_h, p.ns, h_prev
    if H is None:
        H = np.empty((hd.shape[1], Wh.shape[0]), hd.dtype).T
    # batch-major GEMM: H.T = hd.T @ Wh.T, with Wh.T the contiguous storage
    np.matmul(hd.T, Wh.T, out=H.T)
    if p.bias is not None:
        H[: p.bias.shape[0]] += p.bias.data
    if X is None:
        S = _sigmoid(H[: ns * d], out=H[: ns * d])
    else:
        S = X[p.lead * d :]
        S += H[: ns * d]
        _sigmoid(S, out=S)
    r, z = S[:d], S[d : 2 * d]
    u = r * H[-d:]
    g = None
    if p.gated:  # relu aspect gate g: scales the token term and lin2
        pre_g = H[ns * d : (ns + 1) * d]
        pre_g += a_proj
        g = np.maximum(pre_g, 0.0)
        u += g * X[:d]
    elif X is not None:
        u += X[:d]
    tn = np.tanh(u, out=u)
    if ns == 3:  # gated linear bypass l * lin1
        diff = S[2 * d :] * X[d : 2 * d]
        diff += tn
        if g is not None:
            diff += g * X[2 * d : 3 * d]
        diff -= hd
    else:
        diff = tn - hd
    # h = (1 - z) * h_prev + z * cand, as h_prev + z * (cand - h_prev)
    h = z * diff
    h += hd
    return h, g, (hd, tn, diff, g)


# One implementation under each cell kind's name. The block calls a kind's
# step by its module-level name, so a wrapper on one name (a profiler's)
# sees exactly that kind's steps.
aspect_gru_step = dt_gru_step = gru_step = transition_gru_step = cell_step


def _step_backward(p: CellParams, X, H, saved, dh: np.ndarray):
    """Backward of one ``cell_step`` along the recurrence: ``(dh_prev, dg, D)``.

    Every pre-activation gradient goes into one array ``D`` laid out as
    [token-only rows, sigmoid gates, (g), candidate state term], so the
    token and state stacks' gradients are its two overlapping row slices,
    which ``_weight_grads`` forms; only ``dh_prev`` and the relu aspect
    gate's gradient ``dg`` (None without one) are read by the next step back.
    """
    hd, tn, diff, g = saved
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
# weight-gradient GEMMs, the bias sums, the input gradient) runs on one
# worker thread, off the recurrent chain. Jobs run in the order they are
# submitted, the serial loop's order, so every accumulator sums in the same
# order and gets the same bits. A backward keeps at most _IN_FLIGHT steps of
# jobs queued or running, so their gradient arrays do not pile up.
_IN_FLIGHT = 4
_worker_lock = threading.Lock()
_worker: tuple[int, ThreadPoolExecutor] | None = None


def _executor() -> ThreadPoolExecutor:
    """The worker, started on first use; a forked child, which inherits no
    thread, starts its own."""
    global _worker
    with _worker_lock:
        if _worker is None or _worker[0] != os.getpid():
            _worker = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="aspectgate-bptt"))
        return _worker[1]


@contextmanager
def _off_chain():
    """Yield ``submit(fn, *args)``, which queues a job on the worker.

    Leaving the block waits for every job submitted in it and raises the
    first job's exception; a submit that finds ``_IN_FLIGHT`` jobs pending
    waits for the oldest first, and may raise it there. When the block
    itself raises, its pending jobs finish before the exception leaves.
    """
    pending = deque()
    worker = _executor()

    def submit(fn, *args):
        if len(pending) == _IN_FLIGHT:
            pending.popleft().result()
        pending.append(worker.submit(fn, *args))

    try:
        yield submit
        while pending:
            pending.popleft().result()
    finally:
        wait(pending)


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

    The token projection of every real cell is one GEMM before the time
    loop, and so is the aspect projection: the aspect is constant across
    a sequence. ``ids``, when given, are the (T, B) token ids of ``x``'s
    cells, passed only when equal ids mean equal input rows (undropped
    embeddings): the GEMM then runs once per distinct id among the real
    cells, and each cell gathers its id's row. ``x`` stays the only
    source of values, and the backward is the same either way. The loop
    runs each cell's step by its kind's name. The node's parents are
    ``x``, the aspect when the input cell is gated, and every cell's
    stacks; its backward runs backprop through time over what the steps
    saved, with each step's weight-gradient work on the worker thread
    (``_off_chain``), and the grad-free forward saves nothing.
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
    # the real cells' inputs batch-major, step after step, so they project in one GEMM
    tt, bb = np.nonzero(np.arange(B) >= start[:, None])
    real = (tt, np.arange(B)[order][bb])
    xs = x.data.transpose(0, 2, 1)[real]
    if ids is None:
        X = xs @ Wx.T
    else:
        if ids.shape != (T, B):
            raise ShapeError(f"run_block_batch: ids are {ids.shape}, expected ({T}, {B})")
        _, once, each = np.unique(ids[real], return_index=True, return_inverse=True)
        X = (xs[once] @ Wx.T)[each]
    # the cells' state projections: every real cell's when taped, else one step's reused
    Hs = [np.empty((len(xs) if taped else B, c.stacks["h"].shape[0]), x.dtype) for c in cells]
    steps = [{"aspect": aspect_gru_step, "dt": dt_gru_step, "gru": gru_step}[first.kind]]
    steps += [transition_gru_step] * (len(cells) - 1)
    saved: list[list] = [[] for _ in cells]
    states = np.zeros((T, B, d), x.dtype).transpose(0, 2, 1)
    gates = np.zeros((T, B, d), x.dtype).transpose(0, 2, 1) if first.gated else None
    h0 = np.zeros((B, d), x.dtype).T
    for t in range(T):
        k, rows = start[t], slice(off[t], off[t + 1])
        if k == B:
            break
        h = (states[t - 1] if t else h0)[:, k:]
        a = None if a_proj is None else a_proj[:, k:]
        for j, (cell, step) in enumerate(zip(cells, steps)):
            H = Hs[j][rows] if taped else Hs[j][: B - k]
            h, g, s = step(cell, None if j else X[rows].T, h, a, H.T)
            if taped:
                saved[j].append(s)
            if g is not None:
                gates[t][:, k:] = g
        states[t][:, k:] = h
    if gates is not None:
        gates = gates[..., inverse]
        gates.setflags(write=False)

    def bwd(gs):
        gs = gs[..., order]
        # the aspect stack's gradient is one GEMM after the loop
        acc = [{k: np.zeros_like(w.data) for k, w in c.tensors("").items() if k != "a"}
               for c in cells]
        dxs = np.empty_like(xs) if x.requires_grad else None
        da = np.zeros((d, B), gs.dtype) if a_proj is not None else None
        dnext = np.zeros((d, B), gs.dtype)  # reaching states[t] from step t + 1

        def weight_grads(t, rows, Ds):  # on the worker; Ds in the loop's cell order
            for j, D in zip(reversed(range(len(cells))), Ds):
                DxT = _weight_grads(cells[j], D, None if j else xs[rows].T, saved[j][t][0], acc[j])
            if dxs is not None:
                np.matmul(DxT, Wx, out=dxs[rows])

        with _off_chain() as submit:
            for t in reversed(range(T)):
                k, rows = start[t], slice(off[t], off[t + 1])
                if k == B:
                    continue
                dh = gs[t][:, k:] + dnext[:, k:]
                Ds = []
                for j in reversed(range(len(cells))):
                    dh, dg, D = _step_backward(cells[j], None if j else X[rows].T,
                                               Hs[j][rows].T, saved[j][t], dh)
                    Ds.append(D)
                submit(weight_grads, t, rows, Ds)
                if da is not None:
                    da[:, k:] += dg
                dnext[:, k:] = dh
        grads = [None]
        if dxs is not None:
            dx = np.zeros((T, B, d_x), gs.dtype)
            dx[real] = dxs
            grads = [dx.transpose(0, 2, 1)]
        if da is not None:
            grads.append((Wa.T @ da)[:, inverse] if aspect.requires_grad else None)
            acc[0]["a"] = da @ aspect.data[:, order].T
        for c, a in zip(cells, acc):
            grads += (a[k] for k in c.tensors(""))
        return tuple(grads)

    kinks = None
    if taped and first.gated:  # every real cell's relu gate pre-activation
        kinks = Hs[0][:, first.ns * d : (first.ns + 1) * d]
    return _node(states[..., inverse], tuple(parents), bwd, "block", kinks=kinks), gates
