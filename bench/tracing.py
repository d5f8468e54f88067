"""Spans and counters recorded from outside the program.

The traced run replaces module attributes of ``aspectgate`` with timing
wrappers. Each wrapper goes on the namespace the caller looks the name up
in: modules import with ``from .x import f``, so ``trainer.backward``
is the name ``train_batch`` calls, not ``tensor.backward``. Nothing under
``src/`` changes, and the untraced run installs no wrapper at all.

A span is (name, start, end, parent, request): parent is the index of
the enclosing span or -1, and request is shared by every span of one
train step, eval batch or inspected sentence. Spans stay in memory until
``write_spans``. Self time is a span's duration minus its direct
children's durations; the calls are strictly nested on one thread, so
children never overlap.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from aspectgate import cells, checkpoint, corpus, model, tensor, trainer

# (namespace the caller looks up, attribute, span name)
WRAPPED = (
    (corpus, "make_batches", "corpus.make_batches"),
    (trainer, "make_batches", "corpus.make_batches"),
    (model.SentimentModel, "forward", "model.forward"),
    (trainer, "aspect_matrix", "model.aspect_matrix"),
    (model, "_pool_columns", "model.pool"),
    (model, "affine", "model.heads"),  # model.py calls affine only for the two heads
    (trainer, "batch_joint_loss", "model.loss"),
    (model, "run_block_batch", "cells.encode"),
    (cells, "aspect_gru_step", "cells.c0_step"),
    (cells, "transition_gru_step", "cells.transition_step"),
    (cells, "matmul", "tensor.matmul"),
    (trainer, "backward", "tensor.backward"),
    (trainer, "train_batch", "trainer.train_batch"),
    (trainer, "clip_global_norm", "trainer.clip"),
    (trainer, "adam_step", "trainer.adam"),
    (trainer, "evaluate_accuracy", "trainer.evaluate"),
    (trainer, "evaluate_reconstruction", "trainer.evaluate"),
    (trainer, "inspect_gates", "trainer.inspect_gates"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
)

# every op the forward graph of the aspect-gated model can hold
TAPE_OPS = (
    "leaf", "matmul", "add", "sub", "mul", "sigmoid", "tanh", "relu",
    "concat", "transpose", "dropout",
)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries.

    With ``request_per_forward`` each model forward closes a request, so
    an eval pass yields one request per batch; otherwise the benchmark
    starts a request per operation with ``next_request``.
    """

    def __init__(self, request_per_forward: bool = False):
        self.request_per_forward = request_per_forward
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.request = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.forwards = 0
        self.tape_nodes: Counter = Counter()
        self.tape_bytes = 0
        self.cells = 0
        self.real_tokens = 0
        self.matmul_flop = 0

    def next_request(self) -> None:
        self.request += 1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self.request))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            n, start, _, p, r = self.spans[idx]
            self.spans[idx] = (n, start, perf_counter(), p, r)

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        if name == "model.forward":
            return self._wrap_forward(fn)
        if name == "tensor.matmul":
            return self._wrap_matmul(fn)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_matmul(self, fn):
        def wrapper(a, b):
            self.matmul_flop += 2 * a.shape[0] * a.shape[1] * b.shape[1]
            with self.span("tensor.matmul"):
                return fn(a, b)

        return wrapper

    def _wrap_forward(self, fn):
        def wrapper(self_model, token_ids, mask, *args, **kwargs):
            with self.span("model.forward"):
                result = fn(self_model, token_ids, mask, *args, **kwargs)
            with self.span("trace.tape_walk"):
                self._count_tape(result)
            m = np.asarray(mask)
            self.cells += m.size
            self.real_tokens += int(m.sum())
            self.forwards += 1
            if self.request_per_forward:
                self.next_request()
            return result

        return wrapper

    def _count_tape(self, result) -> None:
        # computed: node data bytes reachable from both heads' logits,
        # parameters excluded since they outlive the tape
        seen: set[int] = set()
        for root in (result.sent_logits, result.recon_logits):
            for node in tensor.iter_nodes(root):
                if id(node) in seen:
                    continue
                seen.add(id(node))
                self.tape_nodes[node.op] += 1
                if not (node.op == "leaf" and node.requires_grad):
                    self.tape_bytes += node.data.nbytes

    # -- summaries ---------------------------------------------------------------

    def _child_seconds(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds."""
        child = self._child_seconds()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def write_spans(self, path) -> None:
        child = self._child_seconds()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "self_s": end - start - child[i],
                        }
                    )
                    + "\n"
                )


def gemm_peak_gflops() -> float:
    """Best float64 rate of a 300x300 by 300x200 GEMM, the model's common shape."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 300))
    b = rng.standard_normal((300, 200))
    a @ b
    best = float("inf")
    for _ in range(30):
        t0 = perf_counter()
        a @ b
        best = min(best, perf_counter() - t0)
    return 2 * 300 * 300 * 200 / best / 1e9
