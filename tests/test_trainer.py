"""Optimizer math, training loop behavior, metrics, and experiment drivers."""

import gc
import weakref

import numpy as np
import pytest

import aspectgate.trainer as trainer_mod
from aspectgate.corpus import TaskSpaces, build_vocab, make_batches
from aspectgate.model import CapabilityError, ModelConfig, SentimentModel
from aspectgate.synth import EMBED_DIM, synthetic_instances, write_embedding_file
from aspectgate.tensor import Tensor
from aspectgate.trainer import (
    AdamState,
    MetricsReport,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    clip_global_norm,
    evaluate,
    evaluate_accuracy,
    evaluate_reconstruction,
    inspect_gates,
    run_experiment,
    split_dev,
    sweep,
    train,
)


@pytest.fixture(scope="module")
def emb_path(tmp_path_factory):
    return write_embedding_file(tmp_path_factory.mktemp("emb") / "vectors.txt")


def small_config(**kw):
    base = dict(
        hidden_size=8,
        embed_size=EMBED_DIM,
        depth=2,
        num_labels=2,
        num_recon_targets=2,
        lam=0.5,
        dropout_input=0.0,
        dropout_hidden=0.0,
    )
    base.update(kw)
    return ModelConfig(**base)


def build_setup(emb_path, n_pairs=8, seed=5, task="category", **cfg_kw):
    inst = synthetic_instances(n_pairs, seed=seed, task=task)
    spaces = TaskSpaces.build(task, inst)
    vocab = build_vocab(inst, emb_path, seed=seed)
    cfg = small_config(
        task=task,
        num_labels=spaces.num_labels,
        num_recon_targets=spaces.num_recon_targets,
        **cfg_kw,
    )
    model = SentimentModel(cfg, vocab.embedding, np.random.default_rng(seed))
    return inst, spaces, vocab, model


# -- config and optimizer -------------------------------------------------------------


def test_train_config_collects_problems():
    with pytest.raises(ValueError) as e:
        TrainConfig(epochs=0, lr=-1, beta1=1.5, clip_norm=0)
    msg = str(e.value)
    for frag in ("epochs", "lr", "beta1", "clip_norm"):
        assert frag in msg


def test_adam_single_step_frozen():
    p = Tensor(np.array([1.0]), requires_grad=True)
    params = {"p": p}
    state = AdamState.for_params(params)
    tc = TrainConfig(lr=0.01)
    adam_step(params, {"p": np.array([0.5])}, state, tc)
    # bias correction makes the first step lr * g / (|g| + eps)
    expected = 1.0 - 0.01 * 0.5 / (0.5 + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15
    assert state.step == 1


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert clip_global_norm(grads, 10.0) == 5.0
    assert grads["a"][0] == 3.0  # under the cap: untouched
    norm = clip_global_norm(grads, 2.5)
    assert norm == 5.0
    assert np.isclose(grads["a"][0], 1.5) and np.isclose(grads["b"][0], 2.0)
    # joint norm is now exactly the cap
    assert np.isclose(np.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2), 2.5)


# -- training loop ----------------------------------------------------------------------


def test_training_reduces_loss_and_overfits(emb_path):
    inst, spaces, vocab, model = build_setup(emb_path)
    tc = TrainConfig(epochs=60, lr=0.01)
    result = train(model, inst, vocab, spaces, tc, np.random.default_rng(0))
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    assert evaluate(model, inst, vocab, spaces)["accuracy"] == 1.0


def test_training_is_seed_deterministic(emb_path):
    losses = []
    finals = []
    for _ in range(2):
        inst, spaces, vocab, model = build_setup(emb_path, dropout_input=0.2)
        tc = TrainConfig(epochs=3)
        r = train(model, inst, vocab, spaces, tc, np.random.default_rng(77))
        losses.append(r.epoch_losses)
        finals.append({n: t.data.copy() for n, t in model.parameters().items()})
    assert losses[0] == losses[1]
    for n in finals[0]:
        assert np.array_equal(finals[0][n], finals[1][n]), n


def test_divergence_names_epoch_and_batch(emb_path):
    inst, spaces, vocab, model = build_setup(emb_path)
    model.parameters()["head/cls"].data[...] = np.nan
    tc = TrainConfig(epochs=1)
    with pytest.raises(TrainingDiverged, match=r"epoch 1, batch 1"):
        train(model, inst, vocab, spaces, tc, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_gradient_norm_stops_before_the_update(emb_path, monkeypatch, bad):
    """A bad gradient on batch 2 is refused there, before Adam touches anything."""
    inst, spaces, vocab, model = build_setup(emb_path)
    real_backward = trainer_mod.backward
    calls, before, states = [], {}, []

    def poisoned_backward(loss, params):
        grads = real_backward(loss, params)
        calls.append(len(calls) + 1)
        if len(calls) == 2:
            before.update({n: t.data.copy() for n, t in model.parameters().items()})
            grads[params[0]][...] = bad
        return grads

    real_adam = trainer_mod.adam_step

    def recording_adam(params, grads, state, tc):
        states.append(state)
        real_adam(params, grads, state, tc)

    monkeypatch.setattr(trainer_mod, "backward", poisoned_backward)
    monkeypatch.setattr(trainer_mod, "adam_step", recording_adam)
    tc = TrainConfig(epochs=1, token_budget=40)
    with pytest.raises(TrainingDiverged, match=r"non-finite gradient norm at epoch 1, batch 2"):
        train(model, inst, vocab, spaces, tc, np.random.default_rng(0))
    assert calls == [1, 2]
    assert states and states[0].step == 1
    for n, t in model.parameters().items():
        assert np.array_equal(t.data, before[n]), n


def test_early_stopping_restores_best(emb_path):
    inst, spaces, vocab, model = build_setup(emb_path)
    dev = inst[:4]
    tc = TrainConfig(epochs=100, lr=0.02, patience=3)
    result = train(model, inst, vocab, spaces, tc, np.random.default_rng(1), dev_instances=dev)
    assert result.stopped_early
    assert len(result.epoch_losses) < tc.epochs
    restored = evaluate(model, dev, vocab, spaces)["accuracy"]
    assert restored == max(result.dev_accuracy)
    assert result.dev_accuracy[result.best_epoch] == restored


# -- evaluation -------------------------------------------------------------------------


def test_evaluate_accuracy_rejects_empty(emb_path):
    inst, spaces, vocab, model = build_setup(emb_path)
    with pytest.raises(ValueError):
        evaluate(model, [], vocab, spaces)


def test_zero_model_reconstruction_baselines(emb_path):
    # all-zero logits: category argmax hits index 0, term threshold
    # admits every id, so only out-of-vocabulary aspects are wrong
    inst, spaces, vocab, model = build_setup(emb_path)
    for t in model.parameters().values():
        t.data[...] = 0.0
    gold0 = sum(1 for i in inst if i.aspect_name == spaces.categories[0])
    acc = evaluate(model, inst, vocab, spaces)["reconstruction"]
    assert acc == gold0 / len(inst)

    inst_t, spaces_t, vocab_t, model_t = build_setup(emb_path, task="term")
    for t in model_t.parameters().values():
        t.data[...] = 0.0
    assert evaluate(model_t, inst_t, vocab_t, spaces_t)["reconstruction"] == 1.0
    # an aspect word outside the term vocabulary counts as wrong
    from aspectgate.corpus import Instance

    oov = Instance("x", ("the", "food", "was", "great"), "term", "sushi", ("sushi",), "positive")
    known = synthetic_instances(2, seed=1, task="term")
    spaces_small = TaskSpaces.build("term", known)
    mixed = known + [oov]
    vocab_m = build_vocab(mixed, emb_path, seed=0)
    cfg = small_config(task="term", num_labels=spaces_small.num_labels,
                       num_recon_targets=spaces_small.num_recon_targets)
    zm = SentimentModel(cfg, vocab_m.embedding, np.random.default_rng(0))
    for t in zm.parameters().values():
        t.data[...] = 0.0
    assert evaluate(zm, mixed, vocab_m, spaces_small)["reconstruction"] == len(known) / len(mixed)


def test_trained_model_reconstructs_categories(emb_path):
    inst, spaces, vocab, model = build_setup(emb_path, lam=1.0)
    tc = TrainConfig(epochs=80, lr=0.01)
    train(model, inst, vocab, spaces, tc, np.random.default_rng(0))
    assert evaluate(model, inst, vocab, spaces)["reconstruction"] == 1.0


@pytest.mark.parametrize("task", ["category", "term"])
@pytest.mark.parametrize("reconstruct", [True, False])
def test_wrappers_return_the_fields_of_evaluate(emb_path, task, reconstruct):
    inst, spaces, vocab, model = build_setup(emb_path, task=task, reconstruct=reconstruct)
    scores = evaluate(model, inst, vocab, spaces, 40, 0.3)
    assert list(scores) == ["accuracy", "reconstruction"][: 1 + reconstruct]
    assert evaluate_accuracy(model, inst, vocab, spaces, 40) == scores["accuracy"]
    if reconstruct:
        recon = evaluate_reconstruction(model, inst, vocab, spaces, 40, 0.3)
        assert recon == scores["reconstruction"]
    else:
        with pytest.raises(KeyError, match="reconstruction"):
            evaluate_reconstruction(model, inst, vocab, spaces, 40, 0.3)


@pytest.mark.parametrize("task", ["category", "term"])
def test_evaluate_frees_each_forward_before_the_next(emb_path, monkeypatch, task):
    """No earlier batch's result or tape is alive when a forward starts.

    The garbage collector is off, so reference counting alone must free
    them; the pooled states' array stands in for the tape.
    """
    inst, spaces, vocab, model = build_setup(emb_path, task=task)
    real_forward = SentimentModel.forward
    refs, alive_at_start = [], []

    def tracking_forward(self, *args, **kwargs):
        alive_at_start.append(sum(r() is not None for r in refs))
        result = real_forward(self, *args, **kwargs)
        refs.extend([weakref.ref(result), weakref.ref(result.pooled.data)])
        return result

    monkeypatch.setattr(SentimentModel, "forward", tracking_forward)
    gc.disable()
    try:
        evaluate(model, inst, vocab, spaces, token_budget=40)
    finally:
        gc.enable()
    assert len(alive_at_start) >= 3
    assert alive_at_start == [0] * len(alive_at_start)


# -- metrics report -----------------------------------------------------------------------


def test_metrics_report_aggregation():
    rep = MetricsReport({1: {"acc": 0.5}, 2: {"acc": 0.7}})
    assert abs(rep.mean("acc") - 0.6) < 1e-15
    assert abs(rep.std("acc") - np.std([0.5, 0.7], ddof=1)) < 1e-15
    d = rep.to_dict()
    assert d["seeds"]["1"]["acc"] == 0.5 and d["mean"]["acc"] == pytest.approx(0.6)
    single = MetricsReport({3: {"acc": 0.9}})
    assert single.std("acc") is None
    with pytest.raises(KeyError):
        rep.mean("nope")


# -- experiments --------------------------------------------------------------------------


def test_run_experiment_two_seeds(emb_path):
    inst = synthetic_instances(6, seed=3)
    spaces = TaskSpaces.build("category", inst)
    test_set = synthetic_instances(3, seed=30)
    cfg = small_config(num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    tc = TrainConfig(epochs=4)
    report, runs = run_experiment(
        inst, {"train": inst, "test": test_set}, emb_path, cfg, tc, spaces, seeds=(1, 2)
    )
    assert sorted(report.per_seed) == [1, 2]
    names = report.metric_names()
    for k in ("train_loss", "acc_train", "acc_test", "recon_train", "recon_test"):
        assert k in names
    assert report.std("acc_test") is not None
    assert len(runs) == 2 and runs[0].seed == 1
    # different seeds produce genuinely different runs
    assert report.per_seed[1]["train_loss"] != report.per_seed[2]["train_loss"]


def test_run_experiment_is_reproducible(emb_path):
    inst = synthetic_instances(4, seed=9)
    spaces = TaskSpaces.build("category", inst)
    cfg = small_config(num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    tc = TrainConfig(epochs=2)
    r1, _ = run_experiment(inst, {"train": inst}, emb_path, cfg, tc, spaces, seeds=(7,))
    r2, _ = run_experiment(inst, {"train": inst}, emb_path, cfg, tc, spaces, seeds=(7,))
    assert r1.per_seed == r2.per_seed


def test_run_experiment_divergence_names_the_seed(emb_path, monkeypatch):
    inst = synthetic_instances(6, seed=3)
    spaces = TaskSpaces.build("category", inst)
    cfg = small_config(num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    real_backward = trainer_mod.backward
    logged: list[str] = []
    poisoned: list[str] = []

    def poisoned_backward(loss, params):
        grads = real_backward(loss, params)
        if logged[-1].startswith("seed 2:") and not poisoned:
            poisoned.append(logged[-1])
            grads[params[0]][...] = np.inf
        return grads

    monkeypatch.setattr(trainer_mod, "backward", poisoned_backward)
    tc = TrainConfig(epochs=1, token_budget=40)
    with pytest.raises(TrainingDiverged, match=r"^seed 2: .* at epoch 1, batch 1$"):
        run_experiment(inst, {"train": inst}, emb_path, cfg, tc, spaces, seeds=(1, 2),
                       log=logged.append)
    assert len(poisoned) == 1


def test_run_experiment_makes_one_forward_per_eval_batch(emb_path, monkeypatch):
    inst = synthetic_instances(6, seed=3)
    spaces = TaskSpaces.build("category", inst)
    cfg = small_config(num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    eval_sets = {"train": inst, "test": synthetic_instances(5, seed=30)}
    real_forward = SentimentModel.forward
    eval_forwards = []

    def counting_forward(self, *args, **kwargs):
        if not kwargs.get("training"):  # train_batch passes training=True
            eval_forwards.append(1)
        return real_forward(self, *args, **kwargs)

    monkeypatch.setattr(SentimentModel, "forward", counting_forward)
    tc = TrainConfig(epochs=1, token_budget=40)
    _, runs = run_experiment(inst, eval_sets, emb_path, cfg, tc, spaces, seeds=(1,))
    batches = sum(
        len(make_batches(insts, runs[0].vocab, spaces, tc.token_budget, shuffle=False))
        for insts in eval_sets.values()
    )
    assert batches >= 4
    assert len(eval_forwards) == batches


def test_run_experiment_validation(emb_path):
    inst = synthetic_instances(2)
    spaces = TaskSpaces.build("category", inst)
    cfg = small_config(num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    tc = TrainConfig(epochs=1)
    with pytest.raises(ValueError, match="seed"):
        run_experiment(inst, {}, emb_path, cfg, tc, spaces, seeds=())
    with pytest.raises(ValueError, match="duplicate"):
        run_experiment(inst, {}, emb_path, cfg, tc, spaces, seeds=(1, 1))
    bad_dim = small_config(
        embed_size=9, num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets
    )
    with pytest.raises(ValueError, match="dim"):
        run_experiment(inst, {}, emb_path, bad_dim, tc, spaces, seeds=(1,))


# -- sweeps -------------------------------------------------------------------------------


def test_split_dev_partition():
    inst = synthetic_instances(10)
    train_part, dev = split_dev(inst, 0.2, np.random.default_rng(4))
    assert len(dev) == 4 and len(train_part) == 16
    assert sorted(i.sid for i in train_part + dev) == sorted(i.sid for i in inst)
    t2, d2 = split_dev(inst, 0.2, np.random.default_rng(4))
    assert [i.sid for i in d2] == [i.sid for i in dev]
    with pytest.raises(ValueError, match="fraction"):
        split_dev(inst, 1.5, np.random.default_rng(0))


def test_sweep_picks_best_value(emb_path):
    inst = synthetic_instances(8, seed=2)
    spaces = TaskSpaces.build("category", inst)
    cfg = small_config(num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    tc = TrainConfig(epochs=2)
    out = sweep(
        "lam", (0.0, 0.5), inst, emb_path, cfg, tc, spaces, seeds=(1,), dev_fraction=0.25
    )
    assert set(out["values"]) == {0.0, 0.5}
    assert out["best"] in (0.0, 0.5)
    assert out["best_acc_dev"] == max(r.mean("acc_dev") for r in out["values"].values())
    assert out["dev_size"] == 4
    with pytest.raises(ValueError, match="axis"):
        sweep("lr", (0.1,), inst, emb_path, cfg, tc, spaces, seeds=(1,))
    with pytest.raises(ValueError, match="duplicate"):
        sweep("depth", (2, 2), inst, emb_path, cfg, tc, spaces, seeds=(1,))


# -- gate inspection ------------------------------------------------------------------------


def test_inspect_gates_records(emb_path):
    inst, spaces, vocab, model = build_setup(emb_path)
    tokens = list(inst[0].tokens)
    records = inspect_gates(model, vocab, tokens, ["food"])
    assert len(records) == len(tokens)
    for t, rec in enumerate(records):
        assert rec["position"] == t and rec["token"] == tokens[t]
        assert 0.0 <= rec["gate_min"] <= rec["gate_mean"] <= rec["gate_max"]
        assert 0.0 <= rec["gate_active"] <= 1.0


def test_inspect_gates_requires_gated_encoder(emb_path):
    inst, spaces, vocab, model = build_setup(emb_path, encoder="gru")
    with pytest.raises(CapabilityError, match="gates"):
        inspect_gates(model, vocab, ["food"], ["food"])
    inst2, _, vocab2, model2 = build_setup(emb_path)
    with pytest.raises(ValueError, match="empty"):
        inspect_gates(model2, vocab2, [], ["food"])
