"""The three benchmark workloads and the loop that times them.

Each workload is a closed loop with one client: the next operation
starts when the previous one returns. The program sees only the inputs
generated from the workload seed.

- train-r14: ``train_batch`` steps (forward, joint loss, backward, clip,
  Adam) on token-budgeted batches of the synthetic train split. The only
  workload that runs ``backward`` and the optimizer; about half of each
  step is backward.
- eval-r14: ``evaluate_accuracy`` plus ``evaluate_reconstruction`` over
  the 1,025-instance test split, model loaded with ``load_checkpoint``.
  Forward only at B of about 200, so a backward-only change must leave it
  flat, while a no-grad mode would show here.
- inspect-b1: ``inspect_gates`` on one test sentence at a time, model
  loaded from the checkpoint. At B=1 every GEMM is a GEMV and there is no
  padding, so tape bookkeeping and per-op Python overhead dominate.

Every operation's output is checked inside the loop (cheap comparisons
only); the costlier batch-against-B=1 comparison runs before timing.
"""

from __future__ import annotations

import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from aspectgate import checkpoint, corpus, trainer
from aspectgate.model import ModelConfig, SentimentModel, aspect_matrix
from synth import Shape, make_corpus
from tracing import TAPE_OPS, Tracer, gemm_peak_gflops


SETUP_REPEATS = 7  # setup_s is the median of these
WARM_STEPS = 2  # train steps replayed to check bit-identical losses
WARM_SENTENCES = 20  # sentences inspected before timing, then revisited
CHECK_BATCHES = 2  # eval batches compared row by row against B=1 forwards
CHECK_ROWS = 8


@dataclass(frozen=True)
class Settings:
    """Model and corpus shapes; the defaults are the reference settings."""

    hidden: int = 300
    depth: int = 4
    token_budget: int = 4096
    corpus: Shape = field(default_factory=Shape)


REFERENCE = Settings()
SMOKE = Settings(
    hidden=8,
    depth=2,
    token_budget=64,
    corpus=Shape(train=60, test=30, vocab_words=200, embed_dim=8),
)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures named."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


@dataclass
class Sample:
    seconds: float
    tokens: int  # real (non-pad) tokens the operation processed
    sentences: int


class Workload:
    name = ""
    min_ops = 2  # a repeat to compare outputs against, and a spread for the tail

    def __init__(self, settings: Settings, seed: int, workdir: Path):
        self.s = settings
        self.workdir = workdir
        self.tally = Tally()
        # plain ints: a SeedSequence changes as it spawns, and every setup
        # must rebuild the same corpus and model
        seeds = np.random.SeedSequence(seed).generate_state(4)
        self.corpus_seed, self.init_seed, self.train_seed, self.order_seed = map(int, seeds)
        self.data = None

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            hidden_size=self.s.hidden,
            embed_size=self.s.corpus.embed_dim,
            depth=self.s.depth,
            num_labels=self.data.spaces.num_labels,
            num_recon_targets=self.data.spaces.num_recon_targets,
            task="category",
            lam=0.4,
            encoder="aspect-dt",
            dropout_input=0.5,
            dropout_hidden=0.3,
        )

    def _loaded_model(self) -> None:
        """Initialize from the seed, save a checkpoint and load it back."""
        model = SentimentModel(
            self.model_config(), self.data.vocab.embedding, np.random.default_rng(self.init_seed)
        )
        path = self.workdir / "model.ckpt"
        checkpoint.save_checkpoint(path, model, self.data.vocab)
        self.model, self.vocab, _ = checkpoint.load_checkpoint(path)

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def op(self) -> Sample:
        raise NotImplementedError


class TrainR14(Workload):
    name = "train-r14"

    def _fresh(self):
        model = SentimentModel(
            self.model_config(), self.data.vocab.embedding, np.random.default_rng(self.init_seed)
        )
        state = trainer.AdamState.for_params(model.parameters())
        return model, state, np.random.default_rng(self.train_seed), []

    def _step(self, model, state, rng, queue):
        # the same loop as trainer.train: reshuffled batches every epoch
        if not queue:
            d = self.data
            queue.extend(
                corpus.make_batches(d.train, d.vocab, d.spaces, self.s.token_budget, rng, shuffle=True)
            )
        batch = queue.pop(0)
        losses = trainer.train_batch(model, batch, self.data.vocab, state, self.tc, rng)
        return losses, batch

    def setup(self) -> None:
        self.data = make_corpus(self.corpus_seed, self.s.corpus)
        self.tc = trainer.TrainConfig(token_budget=self.s.token_budget)
        self.model, self.state, self.rng, self.queue = self._fresh()
        self.steps = 0

    def warmup(self) -> None:
        model, state, rng, queue = self._fresh()
        self.reference = [self._step(model, state, rng, queue)[0] for _ in range(WARM_STEPS)]

    def op(self) -> Sample:
        t0 = perf_counter()
        losses, batch = self._step(self.model, self.state, self.rng, self.queue)
        dt = perf_counter() - t0
        ok = all(np.isfinite(losses))
        if self.steps < len(self.reference):  # same seed, same steps: bit-identical losses
            ok = ok and losses == self.reference[self.steps]
        self.steps += 1
        self.tally.record(ok, f"train step {self.steps}: losses {losses}")
        return Sample(dt, int(batch.mask.sum()), batch.size)


class EvalR14(Workload):
    name = "eval-r14"

    def setup(self) -> None:
        self.data = make_corpus(self.corpus_seed, self.s.corpus)
        self._loaded_model()
        self.tokens = sum(len(i.tokens) for i in self.data.test)
        self.reference = None

    def warmup(self) -> None:
        # batch-composition contract: a sentence's argmax in a token-budgeted
        # batch equals its argmax in a B=1 forward
        rng = np.random.default_rng(self.order_seed)
        d = self.data
        batches = corpus.make_batches(d.test, self.vocab, d.spaces, self.s.token_budget, shuffle=False)
        picks = rng.choice(len(batches), size=min(CHECK_BATCHES, len(batches)), replace=False)
        for b in (batches[i] for i in picks):
            aspects = aspect_matrix(b.aspect_tokens, self.vocab)
            full = self.model.forward(b.token_ids, b.mask, aspects)
            for r in rng.choice(b.size, size=min(CHECK_ROWS, b.size), replace=False):
                one = self.model.forward_one(b.token_ids[r, : int(b.mask[r].sum())], aspects[r])
                ok = all(
                    np.argmax(x.data[0]) == np.argmax(y.data[r])
                    for x, y in (
                        (one.sent_logits, full.sent_logits),
                        (one.recon_logits, full.recon_logits),
                    )
                )
                self.tally.record(ok, f"eval argmax differs at B=1 for {b.instances[r].sid}")

    def op(self) -> Sample:
        d = self.data
        t0 = perf_counter()
        acc = trainer.evaluate_accuracy(self.model, d.test, self.vocab, d.spaces, self.s.token_budget)
        rec = trainer.evaluate_reconstruction(
            self.model, d.test, self.vocab, d.spaces, self.s.token_budget
        )
        dt = perf_counter() - t0
        ok = 0.0 <= acc <= 1.0 and 0.0 <= rec <= 1.0
        if self.reference is None:
            self.reference = (acc, rec)
        ok = ok and (acc, rec) == self.reference
        self.tally.record(ok, f"eval pass gave accuracy {acc}, reconstruction {rec}")
        return Sample(dt, self.tokens, len(d.test))


class InspectB1(Workload):
    name = "inspect-b1"

    def __init__(self, *args):
        super().__init__(*args)
        self.seen: dict[int, list[dict]] = {}  # first records per sentence, kept across setups

    def setup(self) -> None:
        self.data = make_corpus(self.corpus_seed, self.s.corpus)
        self._loaded_model()
        self.order = np.random.default_rng(self.order_seed).permutation(len(self.data.test))
        self.cursor = 0

    def warmup(self) -> None:
        for _ in range(WARM_SENTENCES):
            self.op()
        self.cursor = 0  # timing starts by revisiting the warm-up sentences

    def op(self) -> Sample:
        idx = int(self.order[self.cursor % len(self.order)])
        self.cursor += 1
        inst = self.data.test[idx]
        t0 = perf_counter()
        records = trainer.inspect_gates(self.model, self.vocab, inst.tokens, inst.aspect_tokens)
        dt = perf_counter() - t0
        ok = len(records) == len(inst.tokens) and all(r["gate_min"] >= 0.0 for r in records)
        ok = ok and self.seen.setdefault(idx, records) == records
        self.tally.record(ok, f"inspect {inst.sid}: gate records wrong or not repeatable")
        return Sample(dt, len(inst.tokens), 1)


WORKLOADS = {w.name: w for w in (TrainR14, EvalR14, InspectB1)}


def measure(w: Workload, seconds: float, tracer: Tracer | None = None) -> list[Sample]:
    """Run operations back to back for ``seconds`` (at least ``w.min_ops``)."""
    samples: list[Sample] = []
    end = perf_counter() + seconds
    while perf_counter() < end or len(samples) < w.min_ops:
        if tracer is None:
            samples.append(w.op())
            continue
        if not tracer.request_per_forward:
            tracer.next_request()
        with tracer.span("bench.op"):
            samples.append(w.op())
    return samples


def timed_setups(w: Workload) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        w.setup()
        times.append(perf_counter() - t0)
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below 100 samples that percentile would sit under the 90th, too close
    to the median to say anything about the tail, so the interpolated
    90th percentile stands in; it moves less than the maximum of a few.
    """
    n = len(values)
    if n < 100:
        return statistics.quantiles(values, n=10, method="inclusive")[-1], 90.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def end_to_end(
    samples: list[Sample], setup_times: list[float], peak_rss_mb: float
) -> tuple[dict, dict]:
    busy = sum(s.seconds for s in samples)
    lat_ms = [1000.0 * s.seconds for s in samples]
    tail_ms, tail_pct = tail(lat_ms)
    info = {"ops": len(samples), "latency_tail": {"percentile": tail_pct, "samples": len(samples)}}
    return info, {
        "tokens_per_s": (sum(s.tokens for s in samples) / busy, "tokens/s"),
        "sents_per_s": (sum(s.sentences for s in samples) / busy, "sentences/s"),
        "latency_ms.p50": (statistics.median(lat_ms), "ms"),
        "latency_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


# how the per-layer figures that are not span times are obtained
SOURCES = {
    "tensor.tape_nodes": "computed: exact node count from iter_nodes after each forward",
    "tensor.tape_mb": "computed: node data bytes reachable from both logits, parameters excluded",
    "tensor.matmul_gflop": "computed: 2mnk summed over forward matmul calls",
    "tensor.matmul_gflops_per_s": "derived: computed matmul GFLOP over measured matmul time",
    "tensor.gemm_peak_gflops_per_s": "measured: best 300x300 by 300x200 float64 GEMM, same run",
    "corpus.pad_fraction": "computed: 1 - real tokens / cells, from every forward's mask",
    "corpus.cells": "computed: batch x padded length, summed over forwards",
    "corpus.real_tokens": "computed: mask sum over forwards",
    "trace.overhead_pct": "derived: traced minus untraced median op time, over untraced",
}


def source(name: str) -> str:
    if name.startswith("tensor.tape_nodes"):
        return SOURCES["tensor.tape_nodes"]
    if name.endswith("_calls"):
        return "counted: wrapper calls"
    return SOURCES.get(name, "measured: span time")


def per_layer(tracer: Tracer, traced: list[Sample], untraced: list[Sample], gemm_peak: float) -> dict:
    """Per-operation layer figures from one traced segment.

    An operation is a train step, an eval pass or one inspected sentence.
    ``source`` says which figures are measured, counted, computed from
    shapes or derived from other figures.
    """
    spans = tracer.summary()
    n_ops = len(traced)
    forwards = max(tracer.forwards, 1)

    def secs(name: str) -> tuple[float, str]:
        return spans.get(name, {}).get("total_s", 0.0) / n_ops, "s/op"

    def calls(name: str) -> tuple[float, str]:
        return spans.get(name, {}).get("calls", 0) / n_ops, "calls/op"

    def per_call(name: str) -> tuple[float, str]:
        row = spans.get(name)
        return (row["total_s"] / row["calls"] if row else 0.0), "s/call"

    matmul_s = spans.get("tensor.matmul", {}).get("total_s", 0.0)
    base = statistics.median(s.seconds for s in untraced)
    out = {
        "cells.encode_s": secs("cells.encode"),
        "cells.c0_step_s": secs("cells.c0_step"),
        "cells.c0_step_calls": calls("cells.c0_step"),
        "cells.transition_step_s": secs("cells.transition_step"),
        "cells.transition_step_calls": calls("cells.transition_step"),
        "tensor.backward_s": secs("tensor.backward"),
        "tensor.tape_nodes": (sum(tracer.tape_nodes.values()) / forwards, "nodes/forward"),
        "tensor.tape_mb": (tracer.tape_bytes / forwards / 2**20, "MB/forward"),
        "tensor.matmul_calls": calls("tensor.matmul"),
        "tensor.matmul_gflop": (tracer.matmul_flop / n_ops / 1e9, "GFLOP/op"),
        "tensor.matmul_s": secs("tensor.matmul"),
        "tensor.matmul_gflops_per_s": (
            tracer.matmul_flop / 1e9 / matmul_s if matmul_s else 0.0,
            "GFLOP/s",
        ),
        "tensor.gemm_peak_gflops_per_s": (gemm_peak, "GFLOP/s"),
        "model.forward_s": secs("model.forward"),
        "model.aspect_matrix_s": secs("model.aspect_matrix"),
        "model.pool_s": secs("model.pool"),
        "model.heads_s": secs("model.heads"),
        "model.loss_s": secs("model.loss"),
        "trainer.train_batch_s": secs("trainer.train_batch"),
        "trainer.clip_s": secs("trainer.clip"),
        "trainer.adam_s": secs("trainer.adam"),
        "trainer.evaluate_s": secs("trainer.evaluate"),
        "trainer.inspect_gates_s": secs("trainer.inspect_gates"),
        "corpus.make_batches_s": secs("corpus.make_batches"),
        "corpus.pad_fraction": (1.0 - tracer.real_tokens / tracer.cells if tracer.cells else 0.0, "ratio"),
        "corpus.cells": (tracer.cells / n_ops, "cells/op"),
        "corpus.real_tokens": (tracer.real_tokens / n_ops, "tokens/op"),
        "checkpoint.save_s": per_call("checkpoint.save"),
        "checkpoint.load_s": per_call("checkpoint.load"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(s.seconds for s in traced) - base) / base,
            "%",
        ),
    }
    for op in TAPE_OPS:
        out[f"tensor.tape_nodes.{op}"] = (tracer.tape_nodes[op] / forwards, "nodes/forward")
    return out


def run_untraced(w: Workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, with no wrapper installed, and run facts."""
    setup_times = timed_setups(w)
    w.warmup()
    samples = measure(w, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info, metrics = end_to_end(samples, setup_times, peak_rss_mb)
    return metrics, info


def run_traced(w: Workload, seconds: float, stem: Path, header: dict) -> tuple[dict, dict]:
    """Half the run untraced, then a traced setup and the other half traced.

    Writes ``<stem>.spans.jsonl`` (every span with its self time) and
    ``<stem>.trace.json`` (``header``, per-layer metrics and per-name
    span totals), and prints the span table by self time.
    """
    timed_setups(w)
    w.warmup()
    untraced = measure(w, seconds / 2)
    tracer = Tracer(request_per_forward=w.name == "eval-r14")
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            w.setup()
        traced = measure(w, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, traced, untraced, gemm_peak_gflops())
    spans = tracer.summary()
    ops = {"untraced": len(untraced), "traced": len(traced)}
    tracer.write_spans(f"{stem}.spans.jsonl")
    report = {
        **header,
        "ops": ops,
        "overhead": {
            "untraced_median_op_s": statistics.median(s.seconds for s in untraced),
            "traced_median_op_s": statistics.median(s.seconds for s in traced),
        },
        "metrics": {
            k: {"value": v, "unit": u, "source": source(k)} for k, (v, u) in metrics.items()
        },
        "spans": spans,
    }
    Path(f"{stem}.trace.json").write_text(json.dumps(report, indent=1))
    print(f"{'span':28s} {'calls':>7s} {'total_s':>12s} {'self_s':>12s}")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:28s} {row['calls']:7d} {row['total_s']:12.4f} {row['self_s']:12.4f}")
    return metrics, {"ops": ops}
