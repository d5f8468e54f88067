"""Dense tensors with reverse-mode automatic differentiation.

Two floating point widths are supported: float64 is the training
precision, and numpy's longdouble is the double-width precision used for
gradient checking, where central differences need roundoff headroom below
the checking tolerance. Shapes never broadcast implicitly, so a
mismatched operand fails at the op that received it rather than
passing a wrong shape on.

Every operation records its inputs and a backward closure on the output
node, forming an implicit tape (a DAG, since nodes can be reused).
``backward`` replays the tape once in reverse topological order with
deterministic accumulation, so the same tape gives the same bits. A
block's node (``cells.run_block_batch``) writes its gradients over what
its forward saved, so a tape that holds one runs its backward once, and
a second pass raises. Inside ``no_grad()`` nothing is recorded: each output is
a parentless constant, so intermediates are freed as soon as nothing
else holds them, and the values are the same bits as on the tape.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import threads

TRAIN_DTYPE = np.dtype(np.float64)
CHECK_DTYPE = np.dtype(np.longdouble)
_ALLOWED_DTYPES = (TRAIN_DTYPE, CHECK_DTYPE)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """A dense numpy array plus the tape bookkeeping for backward().

    ``requires_grad`` marks trainable leaves; interior nodes inherit it
    from their parents. Constant inputs (embeddings, masks) stay off the
    tape entirely, so backward never visits them. ``kinks`` holds how far
    a recorded op's inputs sit from its kinks (relu pre-activations, the
    gap between a max and its runner-up), for ``relu_kink_margin``, and
    is None everywhere else.
    """

    __slots__ = ("data", "requires_grad", "op", "kinks", "_parents", "_bwd", "__weakref__")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        op: str = "leaf",
        _parents: tuple["Tensor", ...] = (),
        _bwd: Callable[[np.ndarray], tuple] | None = None,
    ):
        arr = np.asarray(data)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(TRAIN_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.kinks = None
        self._parents = _parents
        self._bwd = _bwd

    # -- convenience -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self.op!r})"


class _Tape(threading.local):
    """Whether ops go on the tape, per thread; every thread starts recording."""

    recording = True


_tape = _Tape()


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no tape inside this block: op outputs get no parents or closure.

    Contexts nest; leaving one, by return or by exception, restores the
    recording state it found. The state belongs to the calling thread:
    a thread inside ``no_grad`` neither stops another thread from taping
    nor, when it leaves, turns taping back on for a thread still inside.
    """
    outer = _tape.recording
    _tape.recording = False
    try:
        yield
    finally:
        _tape.recording = outer


def _records(parents) -> bool:
    """Whether an op over ``parents`` goes on the tape."""
    return _tape.recording and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], bwd, op: str, kinks=None) -> Tensor:
    needs = _records(parents)
    out = Tensor(
        data,
        requires_grad=needs,
        op=op,
        _parents=parents if needs else (),
        _bwd=bwd if needs else None,
    )
    if needs:
        out.kinks = kinks
    return out


# -- elementwise nonlinearities -------------------------------------------


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid, into ``out`` when given (it may be ``z`` itself)."""
    # tanh form never overflows, at any supported width
    half = z.dtype.type(0.5)
    out = np.multiply(z, half, out=out)
    np.tanh(out, out=out)
    out += z.dtype.type(1.0)
    out *= half
    return out


# -- structural ops --------------------------------------------------------


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Stack two (rows, B) tensors by rows: ``a`` on top of ``b``."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat: cannot stack {a.shape} on {b.shape} by rows")
    if a.dtype != b.dtype:
        raise ValueError(f"concat: mixed dtypes {a.dtype} and {b.dtype}")
    out = np.concatenate([a.data, b.data])
    split = a.shape[0]

    def bwd(g):
        return g[:split], g[split:]

    return _node(out, (a, b), bwd, "concat")


# -- pooling ---------------------------------------------------------------


POOLING_MODES = ("last", "max", "mean")


def pool_columns(states: Tensor, lengths, mode: str) -> Tensor:
    """Pool (T, d, B) step-major states into one (d, B) representation.

    ``lengths`` holds each column's count of real steps, 1 to T, as
    ``cells.validate_mask`` returns. The steps after them are padding:
    pooling never reads them, and their gradient is 0. "last" takes each
    column's step ``lengths - 1``. "max" is the max over real steps; its
    gradient goes to the earliest step holding it. "mean" is the sum over
    real steps, in step order, times one over each column's length.
    """
    if mode not in POOLING_MODES:
        raise ValueError(f"pool: unknown mode {mode!r}")
    if states.ndim != 3 or states.shape[0] == 0:
        raise ShapeError(f"pool: needs (T, d, B) states with T >= 1, got {states.shape}")
    T, d, B = states.shape
    lengths = np.asarray(lengths)
    if lengths.shape != (B,):
        raise ShapeError(f"pool: lengths are {lengths.shape}, expected ({B},)")
    x = states.data
    real = (np.arange(T)[:, None] < lengths)[:, None, :]  # (T, 1, B)
    kinks = None
    if mode == "mean":
        out = x[0].copy()  # step 0 is real in every column
        for t in range(1, T):
            out += np.where(real[t], x[t], 0)
        scale = (1.0 / lengths).astype(x.dtype)
        out *= scale
    else:
        if mode == "last":
            pick = (lengths - 1)[None, None, :]
        else:  # argmax takes the first of tied maxima
            masked = np.where(real, x, -np.inf)
            pick = masked.argmax(axis=0)[None]
            # the max has a kink where the runner-up catches up; only a
            # recorded node's kinks are read
            if T > 1 and _records((states,)):
                top = np.partition(masked, T - 2, axis=0)
                kinks = top[-1] - top[-2]
        out = np.take_along_axis(x, pick, axis=0)[0]

    def bwd(g):
        if mode == "mean":
            return (np.where(real, g * scale, 0),)
        full = np.zeros_like(x)
        np.put_along_axis(full, pick, g[None], axis=0)
        return (full,)

    return _node(out, (states,), bwd, "pool", kinks=kinks)


# -- the joint objective ----------------------------------------------------------


def _check_logit_pair(z: np.ndarray, y: np.ndarray, op: str) -> None:
    if z.shape != y.shape:
        raise ShapeError(f"{op}: shapes {z.shape} and {y.shape} differ")
    if z.ndim != 2:
        raise ShapeError(f"{op}: needs (B, C) rows, got {z.shape}")
    if z.shape[1] == 0:
        raise ShapeError(f"{op}: zero classes in shape {z.shape}")


def softmax_xent_logits(z: np.ndarray, y: np.ndarray):
    """Per-row cross-entropy of a softmax over (B, C) logits, fused for stability.

    ``y`` must contain exactly one 1 per row and 0 elsewhere. The
    log-sum-exp is shifted by the row max, so the value is finite for any
    finite logits. Returns the (B,) losses and the map from their (B,)
    gradient to the logits' gradient.
    """
    _check_logit_pair(z, y, "softmax_xent_logits")
    if not np.all((y == 0) | (y == 1)) or not np.all(y.sum(axis=1) == 1):
        raise ValueError("softmax_xent_logits: targets are not one-hot rows")
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1)) + m[:, 0]

    def grad(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        return (p - y) * g[:, None]

    return lse - (z * y).sum(axis=1), grad


def sigmoid_xent_logits(z: np.ndarray, y: np.ndarray):
    """Multi-label sigmoid cross-entropy of (B, C) logits, summed per row.

    Uses the softplus form max(z, 0) - z*y + log1p(exp(-|z|)), finite for
    any finite logits. Targets must be 0/1. Returns the (B,) losses and
    the map from their (B,) gradient to the logits' gradient.
    """
    _check_logit_pair(z, y, "sigmoid_xent_logits")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("sigmoid_xent_logits: targets must be 0 or 1")
    per = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def grad(g):
        return (_sigmoid(z) - y) * g[:, None]

    return per.sum(axis=1), grad


RECON_XENTS = {"softmax": softmax_xent_logits, "sigmoid": sigmoid_xent_logits}


def joint_loss(
    logits: Tensor,
    labels: np.ndarray,
    recon_logits: Tensor | None,
    recon_targets: np.ndarray | None,
    lam: float,
    recon_xent: str,
) -> tuple[Tensor, float, float]:
    """The batch objective as one tape node; returns (loss, ce part, recon part).

    The loss is the mean softmax cross-entropy of the (B, C) ``logits``
    against the one-hot ``labels``, plus ``lam`` times the mean
    ``recon_xent`` cross-entropy ("softmax" or "sigmoid", from
    ``RECON_XENTS``) of ``recon_logits`` against the 0/1
    ``recon_targets``. Without ``recon_logits`` there is no
    reconstruction part, and the recon part reads 0. Targets are numpy
    constants, cast to the logits' dtype. The parts are floats of the two
    means.
    """
    ce_rows, ce_grad = softmax_xent_logits(logits.data, np.asarray(labels, logits.dtype))
    if ce_rows.size == 0:
        raise ShapeError("joint_loss: empty batch")
    inv = logits.dtype.type(1.0 / ce_rows.size)
    ce, rec, parents = ce_rows.mean(), None, (logits,)
    if recon_logits is not None:
        if recon_xent not in RECON_XENTS:
            raise ValueError(f"joint_loss: unknown reconstruction loss {recon_xent!r}")
        rz = recon_logits.data
        if rz.shape[:1] != logits.shape[:1]:
            raise ShapeError(f"joint_loss: logits {logits.shape} and {rz.shape} differ in batch")
        rec_rows, rec_grad = RECON_XENTS[recon_xent](rz, np.asarray(recon_targets, rz.dtype))
        lam = np.asarray(lam, dtype=logits.dtype)
        rec, parents = rec_rows.mean(), (logits, recon_logits)

    def bwd(g):
        # each mean spreads its weighted gradient, g or g * lam, as 1/B per row
        if rec is None:
            return (ce_grad(np.full_like(ce_rows, inv) * g),)
        return (ce_grad(np.full_like(ce_rows, inv) * g),
                rec_grad(np.full_like(rec_rows, inv) * (g * lam)))

    value = ce if rec is None else ce + rec * lam
    loss = _node(np.asarray(value), parents, bwd, "joint_loss")
    return loss, float(ce), 0.0 if rec is None else float(rec)


# -- dropout ---------------------------------------------------------------


def dropout(t: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    In eval mode, or at rate 0, the input tensor is returned unchanged,
    an exact identity. The mask is drawn once at call time and kept on
    the node, so the backward scales by the mask the forward used.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return t
    if rng is None:
        raise ValueError("dropout: an rng is required in training mode")
    keep = (rng.random(t.data.shape) >= rate).astype(t.data.dtype)
    scale = t.data.dtype.type(1.0 / (1.0 - rate))
    keep *= scale
    out = np.multiply(t.data, keep, out=np.empty_like(t.data))  # in the input's memory order

    def bwd(g):
        return (g * keep,)

    return _node(out, (t,), bwd, "dropout")


# -- backward ---------------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative post-order over grad-requiring nodes; parents first."""
    order: list[Tensor] = []
    seen = {id(root)}
    stack: list[tuple[Tensor, Iterable[Tensor]]] = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for p in it:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


@threads.one_blas_thread()
def backward(loss: Tensor, params: Sequence[Tensor] | None = None) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar loss with respect to tape leaves.

    Returns a map from tensor to gradient array. With ``params`` given,
    the map holds exactly those tensors, with zero arrays for any that
    the loss does not reach. Without it, the map holds every
    grad-requiring node the backward pass visited. Calling it inside
    ``no_grad()`` is an error: no tape is recorded there, so every
    gradient would silently be zero.
    """
    if not _tape.recording:
        raise RuntimeError("backward called inside no_grad(): no tape was recorded")
    if loss.ndim != 0:
        raise ShapeError(f"backward: root must be scalar, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {}
    if loss.requires_grad:
        order = _toposort(loss)
        grads[loss] = np.ones((), dtype=loss.data.dtype)
        for node in reversed(order):
            g = grads.pop(node)
            if node._bwd is None:  # leaf
                grads[node] = g
                continue
            parent_grads = node._bwd(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(parent)
                grads[parent] = pg if acc is None else acc + pg
    if params is not None:
        return {p: grads[p] if p in grads else np.zeros_like(p.data) for p in params}
    return grads


# -- inspection and checking -------------------------------------------------


def iter_nodes(root: Tensor):
    """Yield every node reachable from ``root`` once, discovery order."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)


def relu_kink_margin(root: Tensor) -> float:
    """Smallest distance to a kink over every op under ``root``.

    Finite-difference checks are only meaningful away from kinks; callers
    resample inputs until this margin clears their radius. A taped op
    with a relu inside records its pre-activations as ``kinks``, and max
    pooling records each max's lead over its runner-up. Returns +inf when
    the graph has no kink.
    """
    margin = np.inf
    for node in iter_nodes(root):
        if node.kinks is not None and node.kinks.size:
            margin = min(margin, float(np.abs(node.kinks).min()))
    return margin


def default_fd_epsilon(dtype: np.dtype) -> float:
    # roughly cbrt(machine eps), the usual central-difference sweet spot
    return 1e-6 if np.dtype(dtype) == CHECK_DTYPE else 1e-5


def grad_check(
    f: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    epsilon: float | None = None,
) -> float:
    """Max relative error of tape gradients against central differences,
    the first figure of ``grad_errors``."""
    return grad_errors(f, tensors, epsilon)[0]


def grad_errors(
    f: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    epsilon: float | None = None,
) -> tuple[float, float, float]:
    """Tape gradients against central differences: ``(worst, raw, floor)``.

    ``f`` must be deterministic (no fresh dropout masks) and close over
    ``tensors``; their data is perturbed in place coordinate by
    coordinate and restored. A coordinate whose two gradients differ by
    no more than the central difference's own resolution at ``eps``,
    eps**2 for truncation plus machine epsilon / eps for rounding of an
    O(1) loss, counts as agreement; beyond that the error is relative.
    ``worst`` is the largest such relative error, ``raw`` the largest
    |analytic - numeric| of any coordinate, and ``floor`` the largest
    resolution of any tensor.
    """
    loss = f()
    if loss.ndim != 0:
        raise ShapeError("grad_check: f must return a scalar")
    tape = backward(loss, params=list(tensors))
    worst = raw = top = 0.0
    for t in tensors:
        eps = t.data.dtype.type(
            epsilon if epsilon is not None else default_fd_epsilon(t.data.dtype)
        )
        floor = float(eps) ** 2 + float(np.finfo(eps.dtype).eps) / float(eps)
        top = max(top, floor)
        analytic = tape[t]
        for idx in np.ndindex(t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + eps
            hi = f().data
            t.data[idx] = orig - eps
            lo = f().data
            t.data[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            ana = analytic[idx]
            err = abs(float(numeric - ana))
            raw = max(raw, err)
            if err > floor:
                worst = max(worst, err / max(abs(float(numeric)), abs(float(ana))))
    return worst, raw, top

