"""Optimizer math, training loop behavior, metrics, and experiment drivers."""

import contextlib
import gc
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspectgate.cells as cells_mod
import aspectgate.model as model_mod
import aspectgate.threads as threads_mod
import aspectgate.trainer as trainer_mod
from aspectgate.cells import CELL_KINDS
from aspectgate.checkpoint import load_checkpoint, save_checkpoint
from aspectgate.corpus import (
    LABELS,
    Instance,
    TaskSpaces,
    assemble_vocab,
    build_vocab,
    make_batches,
)
from aspectgate.model import ENCODERS, CapabilityError, ModelConfig, SentimentModel
from aspectgate.synth import (
    ALL_WORDS,
    ASPECTS,
    EMBED_DIM,
    synthetic_instances,
    write_embedding_file,
)
from aspectgate.tensor import Tensor, iter_nodes
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
    train_batch,
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
        TrainConfig(epochs=0, lr=-1, clip_norm=0)
    msg = str(e.value)
    for frag in ("epochs", "lr", "clip_norm"):
        assert frag in msg


@pytest.mark.parametrize(
    "field, bad, problem",
    [
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("epochs", True, "epochs must be an integer, got True"),
        ("token_budget", 10.5, "token_budget must be an integer, got 10.5"),
        ("token_budget", False, "token_budget must be an integer, got False"),
        ("lr", float("inf"), "lr must be a finite real, got inf"),
        ("lr", "0.01", "lr must be a finite real, got '0.01'"),
        ("clip_norm", float("nan"), "clip_norm must be a finite real, got nan"),
        ("clip_norm", True, "clip_norm must be a finite real, got True"),
    ],
)
def test_train_config_refuses_a_value_of_the_wrong_kind(field, bad, problem):
    """Each bad value is one problem in the one ValueError, beside the others."""
    other = {"lr": 0.0} if field == "epochs" else {"epochs": 0}
    with pytest.raises(ValueError) as e:
        TrainConfig(**other, **{field: bad})
    assert problem in str(e.value) and str(e.value).count("; ") == 1


def test_train_config_takes_numpy_integers_as_ints():
    tc = TrainConfig(epochs=np.int64(2), token_budget=np.int32(64))
    assert type(tc.epochs) is int and type(tc.token_budget) is int  # so it can be written as JSON


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
    losses = train(model, inst, vocab, spaces, tc, np.random.default_rng(0))
    assert len(losses) == tc.epochs
    assert losses[-1] < losses[0]
    assert evaluate(model, inst, vocab, spaces)["accuracy"] == 1.0


def test_training_is_seed_deterministic(emb_path):
    losses = []
    finals = []
    for _ in range(2):
        inst, spaces, vocab, model = build_setup(emb_path, dropout_input=0.2)
        tc = TrainConfig(epochs=3)
        losses.append(train(model, inst, vocab, spaces, tc, np.random.default_rng(77)))
        finals.append({n: t.data.copy() for n, t in model.parameters().items()})
    assert losses[0] == losses[1]
    for n in finals[0]:
        assert np.array_equal(finals[0][n], finals[1][n]), n


def test_train_refuses_no_instances(emb_path):
    _, spaces, vocab, model = build_setup(emb_path)
    with pytest.raises(ValueError, match="train: no instances"):
        train(model, [], vocab, spaces, TrainConfig(epochs=3), np.random.default_rng(0))


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


# -- stacked gate weights stay views ---------------------------------------------------


def assert_gates_view_their_stacks(model):
    """Every tensor the checkpoint names is a view into a parameter's data."""
    params, arrays = model.parameters(), model.checkpoint_arrays()
    owner = {n: n for n in params if n.startswith("head/")}
    for prefix, cell in model.cells().items():
        _, rows, biases = CELL_KINDS[cell.kind]
        owner.update((prefix + name, prefix + op) for op, names in rows.items() for name in names)
        if cell.bias is not None:
            owner.update((prefix + name, prefix + "b") for name in biases)
    assert set(owner) == set(arrays)
    for name, param in owner.items():
        assert np.shares_memory(arrays[name], params[param].data), name


@pytest.mark.parametrize("encoder", ["aspect-dt", "plain-dt", "gru"])
def test_gates_view_their_stacks_after_init_adam_and_load(emb_path, tmp_path, encoder):
    inst, spaces, vocab, model = build_setup(
        emb_path, encoder=encoder, use_bias=True, bidirectional=True
    )
    assert_gates_view_their_stacks(model)
    tc = TrainConfig(epochs=1)
    state = AdamState.for_params(model.parameters())
    batch = make_batches(inst, vocab, spaces, tc.token_budget, shuffle=False)[0]
    before = {n: t.data.copy() for n, t in model.parameters().items()}
    trainer_mod.train_batch(model, batch, vocab, state, tc, np.random.default_rng(0))
    assert_gates_view_their_stacks(model)
    assert any(not np.array_equal(t.data, before[n]) for n, t in model.parameters().items())
    save_checkpoint(tmp_path / "m.ckpt", model, vocab)
    loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert_gates_view_their_stacks(loaded)
    for n, t in loaded.parameters().items():
        assert np.array_equal(t.data, model.parameters()[n].data), n


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


def _scored_by_hand(inst, row, spaces, threshold):
    """Reconstruction as scored from category ids and term-id sets."""
    if spaces.categories:
        return int(np.argmax(row)) == spaces.categories.index(inst.aspect_name)
    gold = [spaces.term_words[t] for t in inst.aspect_tokens if t in spaces.term_words]
    oov = len(gold) < len(inst.aspect_tokens)
    cut = np.log(threshold / (1.0 - threshold))
    return not oov and set(gold) <= {j for j in range(len(row)) if row[j] >= cut}


@pytest.mark.parametrize(
    "task, threshold", [("category", 0.5), ("term", 0.3), ("term", 0.5), ("term", 0.9)]
)
def test_evaluate_reconstruction_matches_the_id_scoring(emb_path, monkeypatch, task, threshold):
    """Chosen logits with category ties, term logits at the cut, and OOV words."""
    rng = np.random.default_rng(11)
    words = ("food", "service", "staff", "wine")  # "wine" is outside the term vocabulary
    insts = []
    for i in range(40):
        tokens = tuple(rng.choice(words, size=rng.integers(1, 4)))
        name = " ".join(tokens) if task == "term" else words[i % 3]
        aspect = tokens if task == "term" else (name,)
        insts.append(Instance(f"s{i}", ("the", *tokens, "was", "great"), task, name, aspect, "positive"))
    if task == "category":
        spaces = TaskSpaces.build("category", insts)
        rows = rng.integers(-1, 2, size=(len(insts), 3)).astype(float)  # many ties
    else:
        spaces = TaskSpaces(labels=LABELS, term_words={"food": 0, "service": 1, "staff": 2})
        cut = np.log(threshold / (1.0 - threshold))
        near = [cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf), cut - 1.0, cut + 1.0]
        rows = rng.choice(near, size=(len(insts), 3))
    vocab = build_vocab(insts, emb_path, seed=0)
    cfg = small_config(task=task, num_labels=spaces.num_labels, num_recon_targets=3)
    model = SentimentModel(cfg, vocab.embedding, np.random.default_rng(0))
    chosen = {id(inst): row for inst, row in zip(insts, rows)}

    def stub(model, batch, vocab):
        recon = np.array([chosen[id(inst)] for inst in batch.instances])
        return np.zeros((batch.size, spaces.num_labels)), recon

    monkeypatch.setattr(trainer_mod, "_eval_logits", stub)
    hits = [_scored_by_hand(i, r, spaces, threshold) for i, r in zip(insts, rows)]
    assert 0 < sum(hits) < len(insts)
    got = evaluate(model, insts, vocab, spaces, token_budget=16, threshold=threshold)
    assert got["reconstruction"] == sum(hits) / len(insts)


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
    """No result or tape of an earlier batch that a worker ran is alive when
    that worker starts a forward, and none is alive once evaluate returns.

    The garbage collector is off, so reference counting alone must free
    them; the pooled states' array stands in for the tape.
    """
    inst, spaces, vocab, model = build_setup(emb_path, task=task)
    real_forward = SentimentModel.forward
    refs, alive_at_start = [], []

    def tracking_forward(self, *args, **kwargs):
        me = threading.get_ident()
        alive_at_start.append(sum(r() is not None for who, r in refs if who == me))
        result = real_forward(self, *args, **kwargs)
        refs.extend([(me, weakref.ref(result)), (me, weakref.ref(result.pooled.data))])
        return result

    monkeypatch.setattr(SentimentModel, "forward", tracking_forward)
    for cpus in (1, 3):
        monkeypatch.setattr(threads_mod, "usable_cpus", lambda: cpus)
        gc.disable()
        try:
            evaluate(model, inst, vocab, spaces, token_budget=40)
        finally:
            gc.enable()
        assert len(alive_at_start) >= 3
        assert alive_at_start == [0] * len(alive_at_start)
        assert all(r() is None for _, r in refs)
        refs.clear()
        alive_at_start.clear()


@pytest.mark.parametrize("task", ["category", "term"])
def test_evaluate_and_inspect_gates_run_their_forward_grad_free(emb_path, monkeypatch, task):
    """Each inference forward builds no tape, and recording is back on afterwards."""
    inst, spaces, vocab, model = build_setup(emb_path, task=task)
    real_forward = SentimentModel.forward
    tape_sizes = []

    def tracking_forward(self, *args, **kwargs):
        result = real_forward(self, *args, **kwargs)
        tape_sizes.append(len(list(iter_nodes(result.sent_logits))))
        return result

    monkeypatch.setattr(SentimentModel, "forward", tracking_forward)
    evaluate(model, inst, vocab, spaces, token_budget=40)
    inspect_gates(model, vocab, list(inst[0].tokens), list(inst[0].aspect_tokens))
    assert len(tape_sizes) >= 3
    assert tape_sizes == [1] * len(tape_sizes)
    taped = model.forward_one(vocab.ids(inst[0].tokens), vocab.embedding[2])
    assert taped.sent_logits.requires_grad and tape_sizes[-1] > 1


@pytest.mark.parametrize("task", ["category", "term"])
def test_grad_free_scores_and_gate_records_equal_the_taped_ones(emb_path, monkeypatch, task):
    """Grad-free evaluate and inspect_gates return what the taped forward gave."""
    inst, spaces, vocab, model = build_setup(emb_path, task=task)
    train(model, inst, vocab, spaces, TrainConfig(epochs=3), np.random.default_rng(2))

    def outputs():
        scores = evaluate(model, inst, vocab, spaces, token_budget=40, threshold=0.3)
        gates = [
            inspect_gates(model, vocab, list(i.tokens), list(i.aspect_tokens)) for i in inst[:4]
        ]
        return scores, gates

    free = outputs()
    monkeypatch.setattr(trainer_mod, "no_grad", contextlib.nullcontext)
    assert outputs() == free


def _eval_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("aspectgate-eval")]


@contextlib.contextmanager
def _short_switch_interval():
    """Switch threads as often as the interpreter allows, so a lost update shows."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("encoder", ENCODERS)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from((1, 7, 40, 4096)) | st.integers(1, 120),
    lengths=st.lists(st.integers(1, 15), min_size=1, max_size=16),
)
def test_pooled_evaluate_is_the_inline_evaluate(encoder, bidirectional, seed, budget, lengths):
    """Each batch's logits, and the scores, from more workers than cores are
    the one-CPU path's bit for bit, over random padded instance sets."""
    r = np.random.default_rng(seed)
    inst = []
    for i, n in enumerate(lengths):
        tokens = tuple(ALL_WORDS[k] for k in r.integers(0, len(ALL_WORDS), size=n))
        aspect = ASPECTS[r.integers(0, len(ASPECTS))]
        inst.append(Instance(f"s{i}", tokens, "category", aspect, (aspect,), LABELS[i % 3]))
    spaces = TaskSpaces.build("category", inst)
    vocab = assemble_vocab(list(ALL_WORDS), [], {}, 4, seed=seed)
    cfg = small_config(embed_size=4, hidden_size=5, encoder=encoder, bidirectional=bidirectional,
                       num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    model = SentimentModel(cfg, vocab.embedding, np.random.default_rng(seed))
    batches = make_batches(inst, vocab, spaces, budget, shuffle=False)

    def run(cpus):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(threads_mod, "usable_cpus", lambda: cpus)
            logits = trainer_mod._batch_logits(model, batches, vocab)
            return logits, evaluate(model, inst, vocab, spaces, budget)

    inline_logits, inline_scores = run(1)
    with _short_switch_interval():
        pooled_logits, pooled_scores = run(4)
    assert pooled_scores == inline_scores
    assert len(pooled_logits) == len(batches)
    for got, want in zip(pooled_logits, inline_logits, strict=True):
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()


def test_evaluate_on_one_cpu_starts_no_thread_and_runs_the_heaviest_batch_first(
    emb_path, monkeypatch
):
    inst, spaces, vocab, model = build_setup(emb_path, n_pairs=12)
    monkeypatch.setattr(threads_mod, "usable_cpus", lambda: 1)
    started, tokens = [], []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    real_eval_logits = trainer_mod._eval_logits

    def recording(model, batch, vocab):
        tokens.append(int(batch.mask.sum()))
        return real_eval_logits(model, batch, vocab)

    monkeypatch.setattr(trainer_mod, "_eval_logits", recording)
    evaluate(model, inst, vocab, spaces, token_budget=40)
    assert started == []
    assert len(set(tokens)) >= 2 and tokens == sorted(tokens, reverse=True)


def test_usable_cpus_is_the_affinity_mask_else_the_cpu_count(monkeypatch):
    assert threads_mod.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert threads_mod.usable_cpus() == os.cpu_count()


_needs_the_bundled_blas = pytest.mark.skipif(
    threads_mod._blas_thread_count() is None, reason="numpy's BLAS is not its bundled OpenBLAS"
)


@_needs_the_bundled_blas
def test_compute_entry_points_run_with_one_blas_thread_and_restore_the_count(
    emb_path, monkeypatch
):
    inst, spaces, vocab, model = build_setup(emb_path)
    get, set_ = threads_mod._blas_thread_count()
    seen = []  # the count inside the forward, where its blocks run
    real_block = model_mod.run_block_batch
    monkeypatch.setattr(model_mod, "run_block_batch",
                        lambda *a, **k: seen.append(get()) or real_block(*a, **k))
    caller = get()
    set_(2)
    try:
        train(model, inst, vocab, spaces, TrainConfig(epochs=1), np.random.default_rng(0))
        assert get() == 2
        batch = make_batches(inst, vocab, spaces, 4096, shuffle=False)[0]
        state = AdamState.for_params(model.parameters())
        train_batch(model, batch, vocab, state, TrainConfig(), np.random.default_rng(0))
        assert get() == 2
        evaluate(model, inst, vocab, spaces)
        assert get() == 2
        inspect_gates(model, vocab, list(inst[0].tokens), list(inst[0].aspect_tokens))
        assert get() == 2
    finally:
        set_(caller)
    assert len(seen) >= 3 and set(seen) == {1}


def test_a_blas_it_cannot_set_is_named_in_one_warning(monkeypatch, tmp_path):
    """Without the bundled OpenBLAS the body runs at the BLAS's own count,
    after one warning per process that names the BLAS."""
    monkeypatch.setattr(threads_mod, "_LIB_DIRS", (tmp_path,))
    threads_mod._blas_thread_count.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="cannot set the thread count") as caught:
            for _ in range(2):
                with threads_mod.one_blas_thread():
                    ran = True
        assert ran and len(caught) == 1
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert blas in str(caught[0].message)
    finally:
        threads_mod._blas_thread_count.cache_clear()


_TRAIN_AND_HASH = """
import hashlib
import sys
import numpy as np
from aspectgate.corpus import TaskSpaces, assemble_vocab, make_batches
from aspectgate.model import ModelConfig, SentimentModel
from aspectgate.synth import ALL_WORDS, synthetic_instances
from aspectgate.trainer import AdamState, TrainConfig, train, train_batch
inst = synthetic_instances(24, seed=1)  # 48 instances: one batch of B=48 per epoch
spaces = TaskSpaces.build("category", inst)
vocab = assemble_vocab(list(ALL_WORDS), [], {}, 50, seed=1)
cfg = ModelConfig(hidden_size=100, embed_size=50, depth=2, num_labels=spaces.num_labels,
                  num_recon_targets=spaces.num_recon_targets)
model = SentimentModel(cfg, vocab.embedding, np.random.default_rng(1))
tc, rng = TrainConfig(epochs=2), np.random.default_rng(1)
if sys.argv[1] == "train":
    train(model, inst, vocab, spaces, tc, rng)
else:  # the same steps, each a direct call
    state = AdamState.for_params(model.parameters())
    for _ in range(tc.epochs):
        for batch in make_batches(inst, vocab, spaces, tc.token_budget, rng, shuffle=True):
            train_batch(model, batch, vocab, state, tc, rng)
print(hashlib.sha256(b"".join(p.data.tobytes() for p in model.parameters().values())).hexdigest())
"""


@pytest.mark.skipif(threads_mod.usable_cpus() < 2,
                    reason="OpenBLAS runs one thread on one usable CPU, whatever it is asked")
def test_trained_bytes_do_not_depend_on_the_blas_thread_setting():
    """At hidden 100 and B=48, one and two OpenBLAS threads give different
    products; the forward and the backward set one thread themselves, so
    both settings train the same parameter bytes, through train and through
    direct train_batch calls alike."""
    digests = {entry: {_hash_in_subprocess(_TRAIN_AND_HASH, entry, blas) for blas in ("1", "2")}
               for entry in ("train", "train_batch")}
    assert all(len(d) == 1 for d in digests.values())
    assert digests["train"] == digests["train_batch"]


_FORWARD_BACKWARD_AND_HASH = """
import hashlib
import sys
import numpy as np
from aspectgate.corpus import TaskSpaces, assemble_vocab, make_batches
from aspectgate.model import ModelConfig, SentimentModel, aspect_matrix, batch_joint_loss
from aspectgate.synth import ALL_WORDS, synthetic_instances
from aspectgate.tensor import backward
inst = synthetic_instances(24, seed=1)  # 48 instances: one batch of B=48
spaces = TaskSpaces.build("category", inst)
vocab = assemble_vocab(list(ALL_WORDS), [], {}, 50, seed=1)
cfg = ModelConfig(hidden_size=int(sys.argv[1]), embed_size=50, depth=2,
                  num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
model = SentimentModel(cfg, vocab.embedding, np.random.default_rng(1))
(batch,) = make_batches(inst, vocab, spaces, 4096, shuffle=False)
result = model.forward(batch.token_ids, batch.mask, aspect_matrix(batch.aspect_tokens, vocab),
                       training=True, rng=np.random.default_rng(1))
loss, _, _ = batch_joint_loss(result, batch.label_ids, batch.recon_target, cfg)
grads = backward(loss, list(model.parameters().values()))
h = hashlib.sha256(result.sent_logits.data.tobytes() + result.recon_logits.data.tobytes())
for g in grads.values():
    h.update(g.tobytes())
print(h.hexdigest())
"""


@pytest.mark.skipif(threads_mod.usable_cpus() < 2,
                    reason="OpenBLAS runs one thread on one usable CPU, whatever it is asked")
@pytest.mark.parametrize("hidden", ["100", "300"])
def test_a_direct_forward_and_backward_do_not_depend_on_the_blas_thread_setting(hidden):
    """The forward and the backward set one BLAS thread themselves, so a
    caller outside the trainer gets the same logits and gradients at one
    and two OpenBLAS threads."""
    assert len({_hash_in_subprocess(_FORWARD_BACKWARD_AND_HASH, hidden, blas)
                for blas in ("1", "2")}) == 1


def _hash_in_subprocess(script: str, arg: str, blas: str) -> str:
    """What ``script`` prints, run with ``arg`` at ``OPENBLAS_NUM_THREADS=blas``."""
    src = str(Path(threads_mod.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, arg], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("cpus", [None, 2, 100])
def test_evaluate_starts_a_helper_per_further_cpu_and_joins_them(
    emb_path, monkeypatch, thread_starts, cpus
):
    """One helper per usable CPU past the first, at most one thread per batch.

    ``None`` keeps the process's own CPU count, so under ``taskset -c 0``
    this is the real one-CPU path.
    """
    inst, spaces, vocab, model = build_setup(emb_path)
    n_batches = len(make_batches(inst, vocab, spaces, 40, shuffle=False))
    assert n_batches >= 3
    if cpus is not None:
        monkeypatch.setattr(threads_mod, "usable_cpus", lambda: cpus)
    evaluate(model, inst, vocab, spaces, token_budget=40)
    helpers = min(threads_mod.usable_cpus(), n_batches) - 1
    assert sorted(thread_starts) == sorted(f"aspectgate-eval-{n}" for n in range(1, helpers + 1))
    assert _eval_threads() == []


@pytest.mark.parametrize("bad", [0, 1, 2, -1])
def test_a_batch_error_propagates_unchanged_after_the_helpers_end(emb_path, monkeypatch, bad):
    """The error of the ``bad``-th batch in queue order, whichever worker ran it."""
    inst, spaces, vocab, model = build_setup(emb_path)
    batches = make_batches(inst, vocab, spaces, 40, shuffle=False)
    victim = sorted(batches, key=lambda b: -int(b.mask.sum()))[bad]
    real_eval_logits = trainer_mod._eval_logits
    error = RuntimeError("batch failed")

    def failing(model, batch, vocab):
        if batch.instances == victim.instances:
            raise error
        return real_eval_logits(model, batch, vocab)

    monkeypatch.setattr(trainer_mod, "_eval_logits", failing)
    monkeypatch.setattr(threads_mod, "usable_cpus", lambda: 3)
    with pytest.raises(RuntimeError) as raised:
        evaluate(model, inst, vocab, spaces, token_budget=40)
    assert raised.value is error
    assert _eval_threads() == []


@pytest.mark.parametrize("encoder", ENCODERS)
def test_a_grad_free_forward_starts_no_block_helper(
    emb_path, monkeypatch, thread_starts, encoder
):
    """Only a taped block of at least ``_HELPER_MIN_WORK`` real cells times
    hidden width, with more than one CPU, starts helpers, for its forward
    and for its backward: evaluate, pooled or inline, and a taped B=1
    forward start none, and a training step starts none on 1 CPU, none for
    these small blocks on 3, and both kinds when no block is too small."""
    inst, spaces, vocab, model = build_setup(emb_path, encoder=encoder)

    def started():  # the block helpers' names, without their numbers
        return {n.rsplit("-", 1)[0] for n in thread_starts if not n.startswith("aspectgate-eval")}

    default = cells_mod._HELPER_MIN_WORK
    monkeypatch.setattr(cells_mod, "_HELPER_MIN_WORK", 0)
    for cpus in (1, 3):
        monkeypatch.setattr(threads_mod, "usable_cpus", lambda: cpus)
        evaluate(model, inst, vocab, spaces, token_budget=40)
        one = model.forward_one(vocab.ids(inst[0].tokens), vocab.embedding[2])
        assert one.sent_logits.requires_grad
    assert started() == set()
    both = {"aspectgate-bwd", "aspectgate-fwd"}
    for cpus, least, names in ((1, 0, set()), (3, default, set()), (3, 0, both)):
        monkeypatch.setattr(threads_mod, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(cells_mod, "_HELPER_MIN_WORK", least)
        thread_starts.clear()
        train(model, inst[:2], vocab, spaces, TrainConfig(epochs=1), np.random.default_rng(0))
        assert started() == names


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


def test_run_experiment_refuses_a_negative_seed_before_training(emb_path, monkeypatch):
    inst = synthetic_instances(4, seed=9)
    spaces = TaskSpaces.build("category", inst)
    cfg = small_config(num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    trained = []
    monkeypatch.setattr(trainer_mod, "train", lambda *a, **kw: trained.append(1) or [0.0])
    with pytest.raises(ValueError, match="seeds must be >= 0, got seed -1"):
        run_experiment(inst, {"train": inst}, emb_path, cfg, TrainConfig(epochs=1), spaces,
                       seeds=(1, -1))
    assert trained == []


@pytest.mark.parametrize("entry", ["run_experiment", "sweep"])
@pytest.mark.parametrize("threshold", [1.5, 0.0])
def test_a_bad_threshold_is_refused_before_training(emb_path, monkeypatch, entry, threshold):
    inst = synthetic_instances(4, seed=9)
    spaces = TaskSpaces.build("category", inst)
    cfg = small_config(num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    trained = []
    monkeypatch.setattr(trainer_mod, "train", lambda *a, **kw: trained.append(1) or [0.0])
    with pytest.raises(ValueError, match=rf"threshold must be in \(0, 1\), got {threshold}"):
        if entry == "sweep":
            sweep("depth", (1,), inst, emb_path, cfg, TrainConfig(epochs=1), spaces, seeds=(1,),
                  dev_fraction=0.25, threshold=threshold)
        else:
            run_experiment(inst, {"train": inst}, emb_path, cfg, TrainConfig(epochs=1), spaces,
                           seeds=(1,), threshold=threshold)
    assert trained == []


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


def test_library_sweep_checks_every_value_before_training(emb_path):
    inst = synthetic_instances(8, seed=2)
    spaces = TaskSpaces.build("category", inst)
    cfg = small_config(num_labels=spaces.num_labels, num_recon_targets=spaces.num_recon_targets)
    lines = []
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        sweep("depth", (1, 0), inst, emb_path, cfg, TrainConfig(epochs=1), spaces,
              seeds=(1, 2), log=lines.append)
    assert lines == []  # no value started, so no seed trained


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
