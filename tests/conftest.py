"""Shared fixtures and small helpers for the test suite."""

import numpy as np
import pytest

from aspectgate.tensor import CHECK_DTYPE, Tensor, _node

# finite-difference protocol constants, shared across modules
FD_EPS_TRAIN = 1e-5
FD_EPS_CHECK = 1e-6
KINK_RADIUS = 1e-3
TOL_TRAIN = 1e-4
TOL_CHECK = 1e-6


def wide(rng, *shape, scale=1.0, grad=True):
    """A longdouble tensor with uniform entries, for gradient checking."""
    data = (rng.random(shape) * 2.0 - 1.0) * scale
    return Tensor(data.astype(CHECK_DTYPE), requires_grad=grad)


def weighted_sum(*tensors: Tensor, seed: int | None = None) -> Tensor:
    """A scalar loss for tests: each tensor's entries times a fixed weighting,
    summed over every entry of every tensor, as one tape node.

    The weights are all ones (a plain sum) by default, or drawn uniform in
    [0.5, 1.5) from ``seed``, one array per operand in order. The gradient
    each operand gets is its weights times the incoming gradient, one
    accumulation per operand slot.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    ws = [np.ones_like(t.data) if rng is None else rng.uniform(0.5, 1.5, t.shape).astype(t.dtype)
          for t in tensors]
    value = sum((t.data * w).sum() for t, w in zip(tensors, ws))

    def bwd(g):
        return tuple(w * g for w in ws)

    return _node(np.asarray(value), tensors, bwd, "weighted_sum")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
