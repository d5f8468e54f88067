"""Aspect-gated deep-transition recurrent networks for sentiment analysis."""

from .tensor import (
    CHECK_DTYPE,
    TRAIN_DTYPE,
    ShapeError,
    Tensor,
    backward,
    grad_check,
)

__all__ = [
    "CHECK_DTYPE",
    "TRAIN_DTYPE",
    "ShapeError",
    "Tensor",
    "backward",
    "grad_check",
]

__version__ = "0.1.0"
