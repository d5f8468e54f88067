"""Dense tensors with reverse-mode automatic differentiation.

Two floating point widths are supported: float64 is the training
precision, and numpy's longdouble is the double-width precision used for
gradient checking, where central differences need roundoff headroom below
the checking tolerance. Shapes never broadcast implicitly; the only
exception is combining a scalar (0-d) value with a tensor, which keeps
shape bugs loud inside the hand-built recurrence code.

Every operation records its inputs and a backward closure on the output
node, forming an implicit tape (a DAG, since nodes can be reused).
``backward`` replays the tape once in reverse topological order with
deterministic accumulation, so repeated passes over the same tape are
bit-identical. Inside ``no_grad()`` nothing is recorded: each output is
a parentless constant, so intermediates are freed as soon as nothing
else holds them, and the values are the same bits as on the tape.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

TRAIN_DTYPE = np.dtype(np.float64)
CHECK_DTYPE = np.dtype(np.longdouble)
_ALLOWED_DTYPES = (TRAIN_DTYPE, CHECK_DTYPE)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """A dense numpy array plus the tape bookkeeping for backward().

    ``requires_grad`` marks trainable leaves; interior nodes inherit it
    from their parents. Constant inputs (embeddings, masks) stay off the
    tape entirely, so backward never visits them.
    """

    __slots__ = ("data", "requires_grad", "op", "_parents", "_bwd")

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

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self):
        return reduce_sum(self)

    def mean(self):
        return reduce_mean(self)


def _as_tensor(value, dtype: np.dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim != 0:
        raise TypeError("only scalars may be combined with tensors implicitly")
    return Tensor(arr)


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no tape inside this block: op outputs get no parents or closure.

    Contexts nest; leaving one, by return or by exception, restores the
    recording state it found. The state is process-wide, not per thread;
    nothing in this package runs ops on more than one thread.
    """
    global _recording
    outer = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = outer


def _node(data: np.ndarray, parents: tuple[Tensor, ...], bwd, op: str) -> Tensor:
    needs = _recording and any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=needs,
        op=op,
        _parents=parents if needs else (),
        _bwd=bwd if needs else None,
    )


def _fit(grad: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # collapse a broadcast gradient back onto a scalar operand
    if ref.ndim == 0 and grad.ndim != 0:
        return grad.sum()
    return grad


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"{op}: mixed dtypes {a.data.dtype} and {b.data.dtype}")
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match")


# -- elementwise arithmetic ----------------------------------------------


def add(a, b) -> Tensor:
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        raise TypeError("add needs at least one Tensor operand")
    ref = a if isinstance(a, Tensor) else b
    a = _as_tensor(a, ref.dtype)
    b = _as_tensor(b, ref.dtype)
    _binary_shapes(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        return _fit(g, a.data), _fit(g, b.data)

    return _node(out, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        raise TypeError("sub needs at least one Tensor operand")
    ref = a if isinstance(a, Tensor) else b
    a = _as_tensor(a, ref.dtype)
    b = _as_tensor(b, ref.dtype)
    _binary_shapes(a, b, "sub")
    out = a.data - b.data

    def bwd(g):
        return _fit(g, a.data), _fit(-g, b.data)

    return _node(out, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        raise TypeError("mul needs at least one Tensor operand")
    ref = a if isinstance(a, Tensor) else b
    a = _as_tensor(a, ref.dtype)
    b = _as_tensor(b, ref.dtype)
    _binary_shapes(a, b, "mul")
    out = a.data * b.data

    def bwd(g):
        return _fit(g * b.data, a.data), _fit(g * a.data, b.data)

    return _node(out, (a, b), bwd, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} and {b.shape}")
    if a.dtype != b.dtype:
        raise ValueError(f"matmul: mixed dtypes {a.dtype} and {b.dtype}")
    out = a.data @ b.data

    def bwd(g):
        # a constant operand (an input column, h0, the aspect) gets no gradient
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _node(out, (a, b), bwd, "matmul")


# -- elementwise nonlinearities -------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form never overflows, at any supported width
    half = z.dtype.type(0.5)
    return half * (np.tanh(half * z) + z.dtype.type(1.0))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def bwd(g):
        return (g * out * (a.data.dtype.type(1.0) - out),)

    return _node(out, (a,), bwd, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (a.data.dtype.type(1.0) - out * out),)

    return _node(out, (a,), bwd, "tanh")


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    keep = a.data > 0
    out = np.where(keep, a.data, a.data.dtype.type(0.0))

    def bwd(g):
        return (np.where(keep, g, g.dtype.type(0.0)),)

    return _node(out, (a,), bwd, "relu")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max of two same-shape tensors; ties send the gradient to ``a``."""
    if a.dtype != b.dtype:
        raise ValueError(f"maximum: mixed dtypes {a.dtype} and {b.dtype}")
    if a.shape != b.shape:
        raise ShapeError(f"maximum: shapes {a.shape} and {b.shape} do not match")
    take_a = a.data >= b.data
    out = np.where(take_a, a.data, b.data)

    def bwd(g):
        zero = g.dtype.type(0.0)
        return np.where(take_a, g, zero), np.where(take_a, zero, g)

    return _node(out, (a, b), bwd, "maximum")


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


def select_columns(keep, a: Tensor, b: Tensor) -> Tensor:
    """Column j of ``a`` where ``keep[j]``, else column j of ``b``.

    ``keep`` is a (B,) 0/1 array over the columns of two (d, B) operands.
    Each column is copied, not blended, so values and gradients are exact;
    backward routes each gradient column to the operand it came from.
    """
    if a.dtype != b.dtype:
        raise ValueError(f"select_columns: mixed dtypes {a.dtype} and {b.dtype}")
    keep = np.asarray(keep).astype(bool)
    if a.ndim != 2 or a.shape != b.shape or keep.shape != (a.shape[1],):
        raise ShapeError(
            f"select_columns: keep {keep.shape} does not fit operands {a.shape} and {b.shape}"
        )
    out = np.where(keep, a.data, b.data)

    def bwd(g):
        # a constant operand (the zero column of mean pooling) gets no gradient
        zero = g.dtype.type(0.0)
        ga = np.where(keep, g, zero) if a.requires_grad else None
        gb = np.where(keep, zero, g) if b.requires_grad else None
        return ga, gb

    return _node(out, (a, b), bwd, "select")


def transpose(t: Tensor) -> Tensor:
    if t.ndim != 2:
        raise ShapeError(f"transpose: needs a 2-d tensor, got {t.shape}")

    def bwd(g):
        return (g.T,)

    return _node(t.data.T, (t,), bwd, "transpose")


# -- reductions -------------------------------------------------------------


def reduce_sum(t: Tensor) -> Tensor:
    """Sum of every entry, a scalar."""
    out = t.data.sum()

    def bwd(g):
        return (np.full_like(t.data, 1.0) * g,)

    return _node(out, (t,), bwd, "sum")


def reduce_mean(t: Tensor) -> Tensor:
    """Mean of every entry, a scalar."""
    if t.data.size == 0:
        raise ShapeError("reduce: mean of an empty tensor")
    out = t.data.mean()
    inv = t.data.dtype.type(1.0 / t.data.size)

    def bwd(g):
        return (np.full_like(t.data, inv) * g,)

    return _node(out, (t,), bwd, "mean")


# -- fused losses -----------------------------------------------------------


def _check_logit_pair(logits: Tensor, targets: Tensor, op: str) -> None:
    if logits.shape != targets.shape:
        raise ShapeError(f"{op}: shapes {logits.shape} and {targets.shape} differ")
    if logits.ndim != 2:
        raise ShapeError(f"{op}: needs (B, C) rows, got {logits.shape}")
    if logits.shape[1] == 0:
        raise ShapeError(f"{op}: zero classes in shape {logits.shape}")


def softmax_xent_logits(logits: Tensor, onehot: Tensor) -> Tensor:
    """Per-row cross-entropy of a softmax over (B, C) logits, fused for stability.

    ``onehot`` must contain exactly one 1 per row and 0 elsewhere. The
    log-sum-exp is shifted by the row max, so the value is finite for any
    finite logits. The result is a (B,) vector.
    """
    _check_logit_pair(logits, onehot, "softmax_xent_logits")
    y = onehot.data
    if not np.all((y == 0) | (y == 1)) or not np.all(y.sum(axis=1) == 1):
        raise ValueError("softmax_xent_logits: targets are not one-hot rows")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1)) + m[:, 0]
    out = lse - (z * y).sum(axis=1)

    def bwd(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        # targets are constants in every use; still return their slot
        return (p - y) * g[:, None], None

    return _node(out, (logits, onehot), bwd, "softmax_xent")


def sigmoid_xent_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Multi-label sigmoid cross-entropy of (B, C) logits, summed per row.

    Uses the softplus form max(z, 0) - z*y + log1p(exp(-|z|)), finite for
    any finite logits. Targets must be 0/1. The result is a (B,) vector.
    """
    _check_logit_pair(logits, targets, "sigmoid_xent_logits")
    y = targets.data
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("sigmoid_xent_logits: targets must be 0 or 1")
    z = logits.data
    per = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = per.sum(axis=1)

    def bwd(g):
        return (_sigmoid(z) - y) * g[:, None], None

    return _node(out, (logits, targets), bwd, "sigmoid_xent")


# -- dropout ---------------------------------------------------------------


def dropout(t: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    In eval mode, or at rate 0, the input tensor is returned unchanged,
    an exact identity. The mask is drawn once at call time, so a given
    node replays identically under repeated backward passes.
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
    out = t.data * keep

    def bwd(g):
        return (g * keep,)

    return _node(out, (t,), bwd, "dropout")


# -- backward ---------------------------------------------------------------

GradientMap = dict  # Tensor -> np.ndarray, keyed by node identity


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


def backward(loss: Tensor, params: Sequence[Tensor] | None = None) -> GradientMap:
    """Gradients of a scalar loss with respect to tape leaves.

    Returns a map from tensor to gradient array. With ``params`` given,
    the map holds exactly those tensors, with zero arrays for any that
    the loss does not reach. Without it, the map holds every
    grad-requiring node the backward pass visited. Calling it inside
    ``no_grad()`` is an error: no tape is recorded there, so every
    gradient would silently be zero.
    """
    if not _recording:
        raise RuntimeError("backward called inside no_grad(): no tape was recorded")
    if loss.ndim != 0:
        raise ShapeError(f"backward: root must be scalar, got shape {loss.shape}")
    grads: GradientMap = {}
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
                if parent in grads:
                    grads[parent] = grads[parent] + pg
                else:
                    grads[parent] = pg
    if params is not None:
        return {p: grads.get(p, np.zeros_like(p.data)) for p in params}
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
    """Smallest |preactivation| over all relu nodes under ``root``.

    Finite-difference checks are only meaningful away from the relu kink;
    callers resample inputs until this margin clears their radius.
    Returns +inf when the graph has no relu.
    """
    margin = np.inf
    for node in iter_nodes(root):
        if node.op == "relu":
            pre = node._parents[0].data if node._parents else None
            if pre is not None and pre.size:
                margin = min(margin, float(np.abs(pre).min()))
    return margin


def default_fd_epsilon(dtype: np.dtype) -> float:
    # roughly cbrt(machine eps), the usual central-difference sweet spot
    return 1e-6 if np.dtype(dtype) == CHECK_DTYPE else 1e-5


def grad_check(
    f: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    epsilon: float | None = None,
) -> float:
    """Max relative error of tape gradients against central differences.

    ``f`` must be deterministic (no fresh dropout masks) and close over
    ``tensors``; their data is perturbed in place coordinate by
    coordinate and restored. Coordinates where both gradients sit below
    the 1e-8 resolvability floor count as agreement: central differences
    of an O(1) loss cannot distinguish zero from zero at that scale, and
    any genuinely wrong gradient larger than the floor is still caught.
    """
    loss = f()
    if loss.ndim != 0:
        raise ShapeError("grad_check: f must return a scalar")
    tape = backward(loss, params=list(tensors))
    worst = 0.0
    for t in tensors:
        eps = t.data.dtype.type(
            epsilon if epsilon is not None else default_fd_epsilon(t.data.dtype)
        )
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
            denom = max(abs(float(numeric)), abs(float(ana)))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(float(numeric - ana)) / denom)
    return worst

