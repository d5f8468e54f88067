"""Model assembly: encoder, pooling, heads, and the joint objective.

The model classifies the sentiment of one (sentence, aspect) pair and is
additionally trained to reconstruct the aspect from the pooled sentence
representation, which forces the encoder to keep aspect-relevant
information in the state it hands to the classifier. Both heads read the
same pooled representation; only the classifier sees the aspect vector,
and only when aspect concatenation is enabled.

Embeddings are frozen: the table is a plain numpy array and never enters
the tape, so no gradient can touch it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from . import threads
from .cells import (
    CellParams,
    affine,
    gate_arrays,
    glorot,
    init_block,
    run_block_batch,
    validate_mask,
)
from .tensor import (
    POOLING_MODES,
    TRAIN_DTYPE,
    ShapeError,
    Tensor,
    concat,
    dropout,
    joint_loss,
    _ALLOWED_DTYPES,
)
from .tensor import pool_columns as _pool_columns  # the name profilers wrap

ENCODERS = ("aspect-dt", "plain-dt", "gru")
TASKS = ("category", "term")


class CapabilityError(RuntimeError):
    """The requested operation needs a capability this model was built without."""


# A config field's kind: how a problem names it, and its test. A bool is no
# integer or real here, and a real must be finite.
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool)),
    float: ("a finite real", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v)),
    bool: ("a bool", lambda v: isinstance(v, (bool, np.bool_))),
}


def field_problems(cfg, kind: type, names, test=None, rule: str = "") -> list[str]:
    """The problems of ``cfg``'s fields ``names``: each must be of ``kind``
    (int, float or bool) and then pass ``test``, which ``rule`` states. A
    numpy integer or bool becomes an int or a bool, so the config stays JSON.
    """
    what, is_kind = _KINDS[kind]
    problems = []
    for name in names:
        value = getattr(cfg, name)
        if not is_kind(value):
            problems.append(f"{name} must be {what}, got {value!r}")
        elif test is not None and not test(value):
            problems.append(f"{name} must be {rule}, got {value}")
        elif kind is not float:
            setattr(cfg, name, kind(value))
    return problems


@dataclass
class ModelConfig:
    """Architecture and objective settings; serializable as a flat dict.

    ``encoder`` selects the sentence encoder: "aspect-dt" is the full
    aspect-gated deep-transition stack, "plain-dt" keeps deep transitions
    but drops aspect conditioning, and "gru" is the stacked baseline
    (``depth`` layers). ``aspect_concat`` feeds the aspect vector to the
    classifier; ``reconstruct`` keeps the weighted reconstruction term in
    the objective.
    """

    hidden_size: int = 300
    embed_size: int = 300
    depth: int = 4
    num_labels: int = 4
    num_recon_targets: int = 1
    task: str = "category"
    lam: float = 0.4
    encoder: str = "aspect-dt"
    aspect_concat: bool = True
    reconstruct: bool = True
    dropout_input: float = 0.5
    dropout_hidden: float = 0.3
    pooling: str = "last"
    bidirectional: bool = False
    use_bias: bool = False

    def __post_init__(self):
        problems = [
            *field_problems(self, int, ("hidden_size", "embed_size", "depth", "num_recon_targets"),
                            lambda v: v >= 1, ">= 1"),
            *field_problems(self, int, ("num_labels",), lambda v: v >= 2, ">= 2"),
            *field_problems(self, float, ("lam",), lambda v: v >= 0, ">= 0"),
            *field_problems(self, float, ("dropout_input", "dropout_hidden"),
                            lambda v: 0 <= v < 1, "in [0, 1)"),
            *field_problems(self, bool, ("aspect_concat", "reconstruct", "bidirectional",
                                         "use_bias")),
        ]
        if self.task not in TASKS:
            problems.append(f"task must be one of {TASKS}, got {self.task!r}")
        if self.encoder not in ENCODERS:
            problems.append(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")
        if self.pooling not in POOLING_MODES:
            problems.append(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")
        if problems:
            raise ValueError("invalid model config: " + "; ".join(problems))

    @property
    def rep_size(self) -> int:
        return self.hidden_size * (2 if self.bidirectional else 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "ModelConfig":
        return cls(**dict(d))


@dataclass
class ForwardResult:
    """One batch forward: logits are (B, C); pooled is (rep, B).

    ``gates`` holds the forward direction's relu aspect gates as a
    (T, hidden, B) constant, None for an encoder without them.
    """

    sent_logits: Tensor
    recon_logits: Tensor
    pooled: Tensor
    gates: np.ndarray | None


# -- aspect embedding -----------------------------------------------------------


def embed_aspect(tokens: Sequence[str], vocab) -> np.ndarray:
    """Average the embeddings of the aspect's tokens; frozen, off the tape.

    ``vocab`` needs ``lookup(token) -> id`` and an ``embedding`` array.
    Unknown tokens fall back to the unknown-word row.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("embed_aspect: aspect has no tokens")
    ids = [vocab.lookup(t) for t in tokens]
    return vocab.embedding[ids].mean(axis=0)


def aspect_matrix(aspect_token_lists: Sequence[Sequence[str]], vocab) -> np.ndarray:
    """Stack per-instance aspect vectors into a (B, d) array, embedding
    each distinct token tuple once."""
    keys = [tuple(toks) for toks in aspect_token_lists]
    rows = {k: embed_aspect(k, vocab) for k in dict.fromkeys(keys)}
    return np.stack([rows[k] for k in keys])


# -- the model ----------------------------------------------------------------------


class SentimentModel:
    """Aspect-conditioned sentence classifier with a reconstruction head.

    The embedding table is shared, frozen, and indexed by token id; row 0
    is the all-zero padding row. Both heads are always built, so ablation
    runs keep identical parameter counts and rng draw order; when the
    reconstruction term is disabled its head simply receives no gradient.
    """

    def __init__(self, config: ModelConfig, embedding: np.ndarray, rng: np.random.Generator):
        embedding = np.asarray(embedding)
        if embedding.ndim != 2:
            raise ShapeError(f"embedding table must be 2-d, got {embedding.shape}")
        if embedding.shape[1] != config.embed_size:
            raise ShapeError(
                f"embedding width {embedding.shape[1]} does not match "
                f"config embed_size {config.embed_size}"
            )
        self.config = config
        self.dtype = embedding.dtype if embedding.dtype in _ALLOWED_DTYPES else TRAIN_DTYPE
        self.embedding = embedding.astype(self.dtype, copy=True)
        self.embedding.setflags(write=False)
        d_x = config.embed_size
        # one tuple of blocks per direction, run one after another
        self.blocks = self._make_blocks(rng)
        self.blocks_rev = self._make_blocks(rng) if config.bidirectional else None
        rep = config.rep_size
        self.w_recon = glorot(rng, config.num_recon_targets, rep, self.dtype)
        self.w_cls = glorot(
            rng, config.num_labels, rep + (d_x if config.aspect_concat else 0), self.dtype
        )
        self.b_recon = None
        self.b_cls = None
        if config.use_bias:
            self.b_recon = Tensor(
                np.zeros((config.num_recon_targets, 1), dtype=self.dtype), requires_grad=True
            )
            self.b_cls = Tensor(
                np.zeros((config.num_labels, 1), dtype=self.dtype), requires_grad=True
            )

    def _make_blocks(self, rng) -> tuple[tuple[CellParams, ...], ...]:
        """The deep-transition block, or ``depth`` one-cell GRU blocks."""
        c = self.config
        d_h, d_x, bias = c.hidden_size, c.embed_size, c.use_bias
        if c.encoder != "gru":
            kind = "aspect" if c.encoder == "aspect-dt" else "dt"
            return (init_block(kind, d_h, d_x, d_x, c.depth, rng, self.dtype, bias),)
        return tuple(
            init_block("gru", d_h, d_x if i == 0 else d_h, None, 1, rng, self.dtype, bias)
            for i in range(c.depth)
        )

    # -- parameters ------------------------------------------------------------

    def cells(self) -> dict[str, CellParams]:
        """Every encoder cell by name prefix: ``{dir}c{j}/`` per cell of the
        deep-transition block, ``{dir}l{i}/`` per GRU layer, with ``{dir}``
        ``enc/`` or ``enc_rev/``."""
        out: dict[str, CellParams] = {}
        for d, blocks in (("enc/", self.blocks), ("enc_rev/", self.blocks_rev or ())):
            for i, block in enumerate(blocks):
                if self.config.encoder == "gru":
                    out[f"{d}l{i}/"] = block[0]
                else:
                    out.update((f"{d}c{j}/", c) for j, c in enumerate(block))
        return out

    def parameters(self) -> dict[str, Tensor]:
        """The trainable tensors: every cell's stacks (``CellParams.tensors``), the heads."""
        out: dict[str, Tensor] = {}
        for prefix, cell in self.cells().items():
            out.update(cell.tensors(prefix))
        out["head/recon"] = self.w_recon
        out["head/cls"] = self.w_cls
        if self.b_recon is not None:
            out["head/recon_b"] = self.b_recon
            out["head/cls_b"] = self.b_cls
        return out

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """The weights under their checkpoint format 1 names: the heads' data,
        and every gate's view of its stack (``gate_arrays``)."""
        out = {n: t.data for n, t in self.parameters().items() if n.startswith("head/")}
        for prefix, cell in self.cells().items():
            out.update(gate_arrays(cell, prefix))
        return out

    # -- forward -----------------------------------------------------------------

    def _encode(self, token_ids, aspects_t, lengths, training, rng, reverse: bool):
        c = self.config
        # step-major (T, d, B), each step a view of a batch-major (B, d) slab
        rows = Tensor(self.embedding[token_ids.T].transpose(0, 2, 1))
        # one (T, d, B) draw: the same numbers as T per-step (d, B) draws
        x = dropout(rows, c.dropout_input, training, rng)
        # undropped rows are equal where their ids are, so the first block
        # projects each distinct id once; later blocks read states
        ids = token_ids.T if x is rows else None
        aspect = aspects_t if c.encoder == "aspect-dt" else None
        for block in self.blocks_rev if reverse else self.blocks:
            x, gates = run_block_batch(block, x, aspect, lengths, ids)
            ids = None
        return x, gates

    def _pool(self, states: Tensor, lengths, training, rng) -> Tensor:
        """Pooled (d, B) states with hidden dropout; padded steps never count.

        "last" pools before dropping, so only the pooled (d, B) is drawn.
        """
        c = self.config
        if c.pooling == "last":
            return dropout(_pool_columns(states, lengths, "last"), c.dropout_hidden, training, rng)
        return _pool_columns(dropout(states, c.dropout_hidden, training, rng), lengths, c.pooling)

    @threads.one_blas_thread()
    def forward(
        self,
        token_ids: np.ndarray,
        mask: np.ndarray,
        aspect_vecs: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> ForwardResult:
        """Run one column batch through encoder, pooling, and both heads.

        token_ids: (B, T) integer ids into the embedding table; mask: (B, T)
        0/1 with real tokens as a nonempty prefix of each row, read once
        into lengths by ``validate_mask``; aspect_vecs: (B, d) frozen
        aspect embeddings. In training mode an rng must be supplied for
        the dropout masks.
        """
        c = self.config
        token_ids = np.asarray(token_ids)
        if token_ids.size and not np.issubdtype(token_ids.dtype, np.integer):
            raise ValueError(f"token_ids must be integers, got dtype {token_ids.dtype}")
        token_ids = token_ids.astype(np.int64, copy=False)
        if token_ids.ndim != 2:
            raise ShapeError(f"token_ids must be (B, T), got {token_ids.shape}")
        B, T = token_ids.shape
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.embedding.shape[0]):
            raise IndexError("token id out of range for the embedding table")
        lengths = validate_mask(mask, B, T)
        aspect_vecs = np.asarray(aspect_vecs, dtype=self.dtype)
        if aspect_vecs.shape != (B, c.embed_size):
            raise ShapeError(
                f"aspect_vecs shape {aspect_vecs.shape} does not match ({B}, {c.embed_size})"
            )
        if not np.all(np.isfinite(aspect_vecs)):
            raise ValueError("aspect_vecs hold a non-finite value")
        if training and rng is None and (c.dropout_input > 0 or c.dropout_hidden > 0):
            raise ValueError("forward: training mode needs an rng for dropout")
        aspects_t = Tensor(np.ascontiguousarray(aspect_vecs.T))
        states, gates = self._encode(token_ids, aspects_t, lengths, training, rng, reverse=False)
        pooled = self._pool(states, lengths, training, rng)
        if c.bidirectional:
            # each row's real prefix reversed; a padded step, which no block
            # reads, takes a negative index into the row's own padding
            rev = np.take_along_axis(token_ids, lengths[:, None] - 1 - np.arange(T), axis=1)
            states_r, _ = self._encode(rev, aspects_t, lengths, training, rng, reverse=True)
            pooled = concat(pooled, self._pool(states_r, lengths, training, rng))
        recon_logits = affine(self.w_recon, pooled, self.b_recon)
        cls_in = concat(pooled, aspects_t) if c.aspect_concat else pooled
        sent_logits = affine(self.w_cls, cls_in, self.b_cls)
        return ForwardResult(
            sent_logits=sent_logits,
            recon_logits=recon_logits,
            pooled=pooled,
            gates=gates,
        )

    def forward_one(
        self, token_ids: Sequence[int], aspect_vec: np.ndarray, training=False, rng=None
    ) -> ForwardResult:
        """Single-sequence convenience wrapper around ``forward``."""
        ids = np.asarray(token_ids).reshape(1, -1)
        mask = np.ones(ids.shape, np.int64)
        return self.forward(ids, mask, np.asarray(aspect_vec).reshape(1, -1), training, rng)


# -- losses ------------------------------------------------------------------------


def _onehot_rows(ids: np.ndarray, width: int, dtype) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= width):
        raise ValueError(f"target id out of range [0, {width})")
    out = np.zeros((ids.shape[0], width), dtype=dtype)
    out[np.arange(ids.shape[0]), ids] = 1
    return out


def batch_joint_loss(
    result: ForwardResult,
    label_ids: np.ndarray,
    recon_target: np.ndarray,
    config: ModelConfig,
) -> tuple[Tensor, float, float]:
    """Mean objective over a batch; returns (loss, ce part, recon part).

    ``recon_target`` is the batch's (B, C) 0/1 reconstruction target:
    one-hot rows for the category task (softmax cross-entropy), multi-hot
    rows for the term task (sigmoid cross-entropy). ``joint_loss``
    refuses a wrong shape and rows that do not fit their task. The parts
    are float diagnostics of the already-reduced means.
    """
    z, rz = result.sent_logits, result.recon_logits
    onehot = _onehot_rows(label_ids, z.shape[1], z.dtype)
    xent = "softmax" if config.task == "category" else "sigmoid"
    return joint_loss(z, onehot, rz if config.reconstruct else None, recon_target,
                      config.lam, xent)


# -- prediction -----------------------------------------------------------------


def predict(logits) -> np.ndarray:
    """Argmax of each row of (B, C) logits; ties resolve to the lowest index."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if arr.ndim != 2:
        raise ShapeError(f"predict: expected (B, C), got {arr.shape}")
    return np.argmax(arr, axis=1).astype(np.int64)


def reconstruct_aspect(recon_logits, config: ModelConfig, threshold: float = 0.5) -> np.ndarray:
    """Decode (B, C) reconstruction logits into a (B, C) bool prediction.

    Category task: the argmax of each row, ties to the lowest index.
    Term task: every word whose probability reaches ``threshold``, which
    must lie in (0, 1) for either task.
    """
    arr = recon_logits.data if isinstance(recon_logits, Tensor) else np.asarray(recon_logits)
    if arr.ndim != 2:
        raise ShapeError(f"reconstruct_aspect: expected (B, C), got {arr.shape}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if config.task == "category":
        decoded = np.zeros(arr.shape, dtype=bool)
        decoded[np.arange(arr.shape[0]), predict(arr)] = True
        return decoded
    return arr >= np.log(threshold / (1.0 - threshold))
