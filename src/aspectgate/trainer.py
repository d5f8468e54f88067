"""Adam training loop, evaluation metrics, and multi-seed experiment drivers."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import (
    Instance,
    TaskSpaces,
    Vocab,
    assemble_vocab,
    make_batches,
    scan_embedding_file,
    vocab_token_lists,
)
from .model import (
    CapabilityError,
    ModelConfig,
    SentimentModel,
    aspect_matrix,
    batch_joint_loss,
    embed_aspect,
    field_problems,
    predict,
    reconstruct_aspect,
)
from .tensor import backward, no_grad


class TrainingDiverged(RuntimeError):
    """Raised when the objective or its gradient norm turns non-finite mid-run."""


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Optimization settings; defaults are the library-wide training recipe.

    A run trains every epoch; Adam uses ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
    """

    epochs: int = 20
    lr: float = 0.01
    clip_norm: float = 5.0
    token_budget: int = 4096  # make_batches refuses a budget below 1

    def __post_init__(self):
        problems = [
            *field_problems(self, int, ("epochs",), lambda v: v >= 1, ">= 1"),
            *field_problems(self, int, ("token_budget",)),
            *field_problems(self, float, ("lr", "clip_norm"), lambda v: v > 0, "positive"),
        ]
        if problems:
            raise ValueError("bad training config: " + "; ".join(problems))

    def to_dict(self) -> dict:
        return asdict(self)


# -- optimizer --------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: Mapping[str, "object"]) -> "AdamState":
        return cls(
            m={n: np.zeros_like(t.data) for n, t in params.items()},
            v={n: np.zeros_like(t.data) for n, t in params.items()},
        )


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint norm is <= max_norm.

    Returns the pre-clip norm. A non-finite norm leaves the gradients
    untouched; the caller decides what to do with them.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if np.isfinite(norm) and norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_step(
    params: Mapping[str, "object"],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    tc: TrainConfig,
) -> None:
    """One bias-corrected Adam update, applied to params in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name, tensor in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        tensor.data -= tc.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# -- training loop -----------------------------------------------------------------


def train_batch(
    model: SentimentModel,
    batch,
    vocab: Vocab,
    state: AdamState,
    tc: TrainConfig,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """Forward, backward, clip, and update on one batch.

    Returns (joint, classification, reconstruction) loss values.
    """
    aspects = aspect_matrix(batch.aspect_tokens, vocab)
    result = model.forward(batch.token_ids, batch.mask, aspects, training=True, rng=rng)
    loss, ce, recon = batch_joint_loss(result, batch.label_ids, batch.recon_target, model.config)
    if not np.isfinite(loss.item()):
        raise TrainingDiverged("non-finite loss")
    params = model.parameters()
    gmap = backward(loss, list(params.values()))
    grads = {n: gmap[t] for n, t in params.items()}
    if not np.isfinite(clip_global_norm(grads, tc.clip_norm)):
        raise TrainingDiverged("non-finite gradient norm")
    adam_step(params, grads, state, tc)
    return loss.item(), ce, recon


def train(
    model: SentimentModel,
    instances: Sequence[Instance],
    vocab: Vocab,
    spaces: TaskSpaces,
    tc: TrainConfig,
    rng: np.random.Generator,
    log: Callable[[str], None] | None = None,
) -> list[float]:
    """Run every epoch of the optimization; batches are re-shuffled each epoch.

    Returns the per-epoch mean losses, the joint loss averaged over instances.
    """
    if not instances:
        raise ValueError("train: no instances")
    state = AdamState.for_params(model.parameters())
    epoch_losses: list[float] = []
    for epoch in range(tc.epochs):
        batches = make_batches(instances, vocab, spaces, tc.token_budget, rng, shuffle=True)
        total = 0.0
        for b_idx, batch in enumerate(batches):
            try:
                loss, _, _ = train_batch(model, batch, vocab, state, tc, rng)
            except TrainingDiverged as e:
                raise TrainingDiverged(f"{e} at epoch {epoch + 1}, batch {b_idx + 1}") from None
            total += loss * batch.size
        epoch_losses.append(total / len(instances))
        if log is not None:
            log(f"epoch {epoch + 1}/{tc.epochs} loss={epoch_losses[-1]:.6f}")
    return epoch_losses


# -- evaluation ----------------------------------------------------------------------


def evaluate(
    model: SentimentModel,
    instances: Sequence[Instance],
    vocab: Vocab,
    spaces: TaskSpaces,
    token_budget: int = 4096,
    threshold: float = 0.5,
) -> dict[str, float]:
    """Sentiment accuracy and aspect reconstruction from one forward per batch.

    Returns ``{"accuracy": ...}``, plus ``"reconstruction"`` when the
    model is trained to reconstruct; each is a fraction of instances.
    An aspect is reconstructed when its decoding (``reconstruct_aspect``)
    covers every target word or category; an aspect with words outside
    the term vocabulary counts as wrong outright. The batches run in
    order on the calling thread; each forward shares its blocks' column
    halves (``run_block_batch``), so the scores do not depend on how many
    CPUs there are.
    """
    if not instances:
        raise ValueError("evaluate: no instances")
    batches = make_batches(instances, vocab, spaces, token_budget, shuffle=False)
    correct = recon = 0
    for batch in batches:
        sent_logits, recon_logits = _eval_logits(model, batch, vocab)
        correct += int(np.sum(predict(sent_logits) == batch.label_ids))
        decoded = reconstruct_aspect(recon_logits, model.config, threshold)
        recon += int(np.sum(batch.recon_known & np.all(decoded >= batch.recon_target, axis=1)))
    scores = {"accuracy": correct / len(instances)}
    if model.config.reconstruct:
        scores["reconstruction"] = recon / len(instances)
    return scores


def _eval_logits(model: SentimentModel, batch, vocab: Vocab) -> tuple[np.ndarray, np.ndarray]:
    """One batch's logits as plain arrays, from a grad-free forward.

    No tape is built, so each step's intermediates are freed as the
    recurrence moves on, and the result is freed when this returns.
    """
    with no_grad():
        result = model.forward(
            batch.token_ids, batch.mask, aspect_matrix(batch.aspect_tokens, vocab)
        )
    return result.sent_logits.data, result.recon_logits.data


# The benchmark imports these two names; they stay until it calls evaluate.
def evaluate_accuracy(model, instances, vocab, spaces, token_budget=4096) -> float:
    return evaluate(model, instances, vocab, spaces, token_budget)["accuracy"]


def evaluate_reconstruction(model, instances, vocab, spaces, token_budget=4096, threshold=0.5):
    return evaluate(model, instances, vocab, spaces, token_budget, threshold)["reconstruction"]


# -- multi-seed experiments ------------------------------------------------------------


@dataclass
class MetricsReport:
    """Per-seed metric table with mean/std aggregation."""

    per_seed: dict[int, dict[str, float]]

    def metric_names(self) -> list[str]:
        names: dict[str, None] = {}
        for row in self.per_seed.values():
            for k in row:
                names.setdefault(k, None)
        return list(names)

    def values(self, name: str) -> list[float]:
        return [row[name] for row in self.per_seed.values() if name in row]

    def mean(self, name: str) -> float:
        vals = self.values(name)
        if not vals:
            raise KeyError(name)
        return float(np.mean(vals))

    def std(self, name: str) -> float | None:
        """Sample standard deviation; None when fewer than two seeds."""
        vals = self.values(name)
        if not vals:
            raise KeyError(name)
        if len(vals) < 2:
            return None
        return float(np.std(vals, ddof=1))

    def to_dict(self) -> dict:
        return {
            "seeds": {str(s): dict(row) for s, row in self.per_seed.items()},
            "mean": {n: self.mean(n) for n in self.metric_names()},
            "std": {n: self.std(n) for n in self.metric_names()},
        }


@dataclass
class SeedRun:
    """Artifacts from one seed of an experiment."""

    seed: int
    model: SentimentModel
    vocab: Vocab
    epoch_losses: list[float]


_ROW_PREFIX = {"accuracy": "acc", "reconstruction": "recon"}


def experiment_problems(seeds: Sequence[int], threshold: float) -> list[str]:
    """What is wrong with an experiment's seeds and reconstruction threshold."""
    problems = []
    if not seeds:
        problems.append("need at least one seed")
    elif len(set(seeds)) != len(seeds):
        problems.append(f"duplicate seeds in {list(seeds)}")
    if min(seeds, default=0) < 0:
        problems.append(f"seeds must be >= 0, got seed {min(seeds)}")
    if not 0.0 < threshold < 1.0:
        problems.append(f"threshold must be in (0, 1), got {threshold}")
    return problems


def run_experiment(
    train_instances: Sequence[Instance],
    eval_sets: Mapping[str, Sequence[Instance]],
    embedding_path,
    config: ModelConfig,
    tc: TrainConfig,
    spaces: TaskSpaces,
    seeds: Sequence[int],
    threshold: float = 0.5,
    log: Callable[[str], None] | None = None,
) -> tuple[MetricsReport, list[SeedRun]]:
    """Train one model per seed and measure it on every eval set.

    The embedding file is scanned once; each seed assembles its own
    vocabulary (fresh rows for uncovered tokens), model init, and batch
    order from that seed alone, so runs are reproducible one by one.
    ``threshold`` scores term reconstruction (see ``evaluate``). Bad
    seeds or a bad threshold raise ValueError before any seed trains.
    """
    problems = experiment_problems(seeds, threshold)
    if problems:
        raise ValueError("run_experiment: " + "; ".join(problems))
    vocab_for = _vocab_source(train_instances, eval_sets, embedding_path, config.embed_size)
    return _run_seeds(
        train_instances, eval_sets, vocab_for, config, tc, spaces, seeds, threshold, log
    )


def _vocab_source(
    train_instances, eval_sets, embedding_path, embed_size: int
) -> Callable[[int], Vocab]:
    """One scan of the embedding file for these instances, as a function
    from a seed to that seed's ``assemble_vocab`` vocabulary."""
    all_eval = [i for insts in eval_sets.values() for i in insts]
    train_tokens, test_tokens = vocab_token_lists(train_instances, all_eval)
    found, dim = scan_embedding_file(embedding_path, set(train_tokens) | set(test_tokens))
    if dim != embed_size:
        raise ValueError(f"embedding file has {dim}-dim vectors, config expects {embed_size}")
    return lambda seed: assemble_vocab(train_tokens, test_tokens, found, dim, seed=seed)


def _run_seeds(train_instances, eval_sets, vocab_for, config, tc, spaces, seeds, threshold, log):
    """``run_experiment`` after its scan: each seed's vocabulary is ``vocab_for(seed)``."""
    per_seed: dict[int, dict[str, float]] = {}
    runs: list[SeedRun] = []
    for seed in seeds:
        init_rng, train_rng = [
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
        ]
        vocab = vocab_for(seed)
        model = SentimentModel(config, vocab.embedding, init_rng)
        if log is not None:
            log(f"seed {seed}: {len(train_instances)} train instances, vocab {len(vocab)}")
        try:
            losses = train(model, train_instances, vocab, spaces, tc, train_rng, log=log)
        except TrainingDiverged as e:
            raise TrainingDiverged(f"seed {seed}: {e}") from None
        row: dict[str, float] = {"train_loss": losses[-1]}
        for name, insts in eval_sets.items():
            scores = evaluate(model, insts, vocab, spaces, tc.token_budget, threshold)
            row.update({f"{_ROW_PREFIX[k]}_{name}": v for k, v in scores.items()})
        per_seed[seed] = row
        runs.append(SeedRun(seed, model, vocab, losses))
        if log is not None:
            shown = ", ".join(f"{k}={v:.4f}" for k, v in row.items())
            log(f"seed {seed}: {shown}")
    return MetricsReport(per_seed), runs


# -- hyperparameter sweeps --------------------------------------------------------------


SWEEP_AXES = ("depth", "lam")


def split_dev(
    instances: Sequence[Instance], fraction: float, rng: np.random.Generator
) -> tuple[list[Instance], list[Instance]]:
    """Random (train, dev) partition; dev gets round(fraction * n), at least 1."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"dev fraction must be in (0, 1), got {fraction}")
    if len(instances) < 2:
        raise ValueError("need at least two instances to carve a dev split")
    order = rng.permutation(len(instances))
    n_dev = min(max(1, round(fraction * len(instances))), len(instances) - 1)
    dev_idx = set(order[:n_dev].tolist())
    train = [inst for i, inst in enumerate(instances) if i not in dev_idx]
    dev = [inst for i, inst in enumerate(instances) if i in dev_idx]
    return train, dev


def sweep(
    axis: str,
    values: Sequence,
    train_instances: Sequence[Instance],
    embedding_path,
    config: ModelConfig,
    tc: TrainConfig,
    spaces: TaskSpaces,
    seeds: Sequence[int],
    dev_fraction: float = 0.1,
    threshold: float = 0.5,
    log: Callable[[str], None] | None = None,
) -> dict:
    """Grid search one config axis against a held-out dev split.

    The split is carved once (from seed 0) and the embedding file scanned
    once, both shared by every value, so the comparison is apples to
    apples and each value's seeds get the vocabularies ``run_experiment``
    would give them. Returns the per-value
    reports plus the value with the best mean dev accuracy; ties go to
    the earlier value in the list.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ValueError("sweep: no values given")
    if len(set(values)) != len(values):
        raise ValueError(f"sweep: duplicate values in {list(values)}")
    # every value's config is built, and so checked, before any seed trains
    configs = [replace(config, **{axis: value}) for value in values]
    problems = experiment_problems(seeds, threshold)
    if problems:
        raise ValueError("sweep: " + "; ".join(problems))
    sub_train, dev = split_dev(train_instances, dev_fraction, np.random.default_rng(0))
    vocab_for = _vocab_source(sub_train, {"dev": dev}, embedding_path, config.embed_size)
    results: dict = {"axis": axis, "dev_size": len(dev), "values": {}}
    best_value, best_acc = None, -1.0
    for value, cfg in zip(values, configs):
        if log is not None:
            log(f"sweep {axis}={value}")
        report, _ = _run_seeds(
            sub_train, {"dev": dev}, vocab_for, cfg, tc, spaces, seeds, threshold, log
        )
        acc = report.mean("acc_dev")
        results["values"][value] = report
        if acc > best_acc:
            best_value, best_acc = value, acc
    results["best"] = best_value
    results["best_acc_dev"] = best_acc
    return results


# -- gate inspection ---------------------------------------------------------------------


def inspect_gates(
    model: SentimentModel,
    vocab: Vocab,
    tokens: Sequence[str],
    aspect_tokens: Sequence[str],
) -> list[dict]:
    """Per-token aspect-gate statistics for one sentence.

    Only the aspect-gated encoder exposes gates; for bidirectional
    models the records cover the forward direction. Each record carries
    the token, its position, and summary statistics of the gate vector.
    The forward runs grad-free.
    """
    if model.config.encoder != "aspect-dt":
        raise CapabilityError(
            f"encoder {model.config.encoder!r} has no aspect gates to inspect"
        )
    if not tokens:
        raise ValueError("inspect_gates: empty sentence")
    ids = vocab.ids(tokens)
    aspect = embed_aspect(aspect_tokens, vocab)
    with no_grad():
        result = model.forward_one(ids, aspect)
    records = []
    for t, tok in enumerate(tokens):
        g = result.gates[t, :, 0]
        records.append(
            {
                "position": t,
                "token": tok,
                "gate_mean": float(g.mean()),
                "gate_min": float(g.min()),
                "gate_max": float(g.max()),
                "gate_active": float(np.mean(g > 0)),
            }
        )
    return records
