"""Model assembly: config, pooling, forward invariances, joint objective."""

import hashlib
import json
import math
import os
import select
import signal
import sys
import threading
import time
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspectgate.cells as cells_mod
import aspectgate.model as model_mod
import aspectgate.threads as threads_mod
from aspectgate.corpus import LABELS, Instance, TaskSpaces, assemble_vocab, make_batches
from aspectgate.model import (
    ENCODERS,
    POOLING_MODES,
    CapabilityError,
    ForwardResult,
    ModelConfig,
    SentimentModel,
    _pool_columns,
    aspect_matrix,
    batch_joint_loss,
    embed_aspect,
    predict,
    reconstruct_aspect,
)
from aspectgate.synth import ALL_WORDS, ASPECTS
from aspectgate.tensor import (
    CHECK_DTYPE,
    ShapeError,
    Tensor,
    backward,
    grad_check,
    iter_nodes,
    no_grad,
    relu_kink_margin,
    softmax_xent_logits,
)
from conftest import FD_EPS_CHECK, KINK_RADIUS, TOL_CHECK, weighted_sum


def tiny_config(**kw) -> ModelConfig:
    base = dict(
        hidden_size=3,
        embed_size=2,
        depth=2,
        num_labels=3,
        num_recon_targets=2,
        task="category",
        lam=0.5,
        dropout_input=0.5,
        dropout_hidden=0.3,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(rng, dtype=np.float64, vocab_size=9, **kw):
    cfg = tiny_config(**kw)
    emb = (rng.random((vocab_size, cfg.embed_size)) - 0.5).astype(dtype)
    emb[0] = 0.0  # padding row
    return SentimentModel(cfg, emb, rng), cfg


def fake_vocab(rows: np.ndarray, tokens: list[str]):
    mapping = {t: i + 2 for i, t in enumerate(tokens)}
    return SimpleNamespace(
        lookup=lambda t: mapping.get(t, 1),
        embedding=rows,
    )


# -- config ---------------------------------------------------------------------


def test_config_validation_collects_problems():
    with pytest.raises(ValueError) as e:
        ModelConfig(hidden_size=0, depth=0, lam=-1.0, pooling="avg")
    msg = str(e.value)
    assert "hidden_size" in msg and "depth" in msg and "lam" in msg and "pooling" in msg


@pytest.mark.parametrize(
    "field", ["hidden_size", "embed_size", "depth", "num_labels", "num_recon_targets"]
)
def test_config_refuses_a_non_integer_size(field):
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {bad!r}"):
            ModelConfig(**{field: bad})
    value = getattr(ModelConfig(**{field: np.int64(3)}), field)
    assert value == 3 and type(value) is int  # so the config's JSON can be written


@pytest.mark.parametrize(
    "field, bad, problem",
    [
        ("lam", float("nan"), "lam must be a finite real, got nan"),
        ("lam", float("inf"), "lam must be a finite real, got inf"),
        ("lam", "0.4", "lam must be a finite real, got '0.4'"),
        ("lam", True, "lam must be a finite real, got True"),
        ("dropout_input", "0.1", "dropout_input must be a finite real, got '0.1'"),
        ("dropout_input", 1.0, "dropout_input must be in [0, 1), got 1.0"),
        ("dropout_hidden", False, "dropout_hidden must be a finite real, got False"),
        ("dropout_hidden", float("nan"), "dropout_hidden must be a finite real, got nan"),
        ("aspect_concat", "no", "aspect_concat must be a bool, got 'no'"),
        ("reconstruct", 1, "reconstruct must be a bool, got 1"),
        ("bidirectional", None, "bidirectional must be a bool, got None"),
        ("use_bias", "False", "use_bias must be a bool, got 'False'"),
    ],
)
def test_config_refuses_a_value_of_the_wrong_kind(field, bad, problem):
    """Each bad value is one problem in the one ValueError, beside the others."""
    with pytest.raises(ValueError) as e:
        ModelConfig(depth=0, **{field: bad})
    msg = str(e.value)
    assert problem in msg and "depth must be >= 1" in msg and msg.count("; ") == 1


def test_config_takes_numpy_reals_and_bools():
    """A numpy real is a real, and a numpy bool becomes a bool, so the
    config's JSON can be written."""
    cfg = ModelConfig(lam=np.float64(0.2), dropout_input=np.float64(0.25),
                      bidirectional=np.bool_(True))
    assert type(cfg.bidirectional) is bool and cfg.lam == 0.2 and cfg.dropout_input == 0.25
    json.dumps(cfg.to_dict())


def test_config_roundtrip_and_rep_size():
    cfg = tiny_config(bidirectional=True)
    assert cfg.rep_size == 6
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# -- parameter manifest -------------------------------------------------------------

# checkpoint tensors of one direction's encoder with biases on, at hidden 3,
# embed 2, depth 2: the per-gate views that checkpoint format 1 stores
_ENC_MANIFEST = {
    "aspect-dt": (
        "c0/w_xh:3x2 c0/w_xr:3x2 c0/w_xz:3x2 c0/w_xl:3x2 c0/w_hh:3x3 c0/w_hr:3x3 "
        "c0/w_hz:3x3 c0/w_hl:3x3 c0/w_hg:3x3 c0/w_a:3x2 c0/w_lin1:3x2 c0/w_lin2:3x2 "
        "c0/b_r:3x1 c0/b_z:3x1 c0/b_l:3x1 c0/b_g:3x1 c0/b_h:3x1 "
        "c1/w_h:3x3 c1/w_r:3x3 c1/w_z:3x3 c1/b_r:3x1 c1/b_z:3x1"
    ),
    "plain-dt": (
        "c0/w_xh:3x2 c0/w_xr:3x2 c0/w_xz:3x2 c0/w_xl:3x2 c0/w_hh:3x3 c0/w_hr:3x3 "
        "c0/w_hz:3x3 c0/w_hl:3x3 c0/w_lin1:3x2 c0/b_r:3x1 c0/b_z:3x1 c0/b_l:3x1 c0/b_h:3x1 "
        "c1/w_h:3x3 c1/w_r:3x3 c1/w_z:3x3 c1/b_r:3x1 c1/b_z:3x1"
    ),
    "gru": (
        "l0/w_xh:3x2 l0/w_xr:3x2 l0/w_xz:3x2 l0/w_hh:3x3 l0/w_hr:3x3 l0/w_hz:3x3 "
        "l0/b_r:3x1 l0/b_z:3x1 l0/b_h:3x1 "
        "l1/w_xh:3x3 l1/w_xr:3x3 l1/w_xz:3x3 l1/w_hh:3x3 l1/w_hr:3x3 l1/w_hz:3x3 "
        "l1/b_r:3x1 l1/b_z:3x1 l1/b_h:3x1"
    ),
}

# the trainable stacks behind those views, same settings
_STACK_MANIFEST = {
    "aspect-dt": "c0/x:18x2 c0/h:15x3 c0/a:3x2 c0/b:15x1 c1/h:9x3 c1/b:6x1",
    "plain-dt": "c0/x:15x2 c0/h:12x3 c0/b:12x1 c1/h:9x3 c1/b:6x1",
    "gru": "l0/x:9x2 l0/h:9x3 l0/b:9x1 l1/x:9x3 l1/h:9x3 l1/b:9x1",
}

# sha256 over the float64 bytes of a fresh default_rng(0) init, sorted-name order
_INIT_SHA256 = {
    ("aspect-dt", False, False): "9052bcb4b69a5f0fc1d48f804148fa6c63d00c6013717ac455c3fb4ee3186530",
    ("aspect-dt", False, True): "64ce1da523796764051c34a32c3460ae616137a9e50b9a9bde697eeca93a8b28",
    ("aspect-dt", True, False): "1049e71ad90fced970c16795047e4d7226b12aaeeaa627f07ba25ee4440b288e",
    ("aspect-dt", True, True): "c4ec6b486da44ff77f8e43b52149bedddec7ed7eb750cf3d3fed6bb103e1f3fd",
    ("plain-dt", False, False): "1615da75b2966bfbe3d654ba9be12278a35b99d7ed14055571faedf56f08f2b9",
    ("plain-dt", False, True): "747d37dedca2e72a9897e04680355f9121f6d39b95a9957deaef6ec8abb53526",
    ("plain-dt", True, False): "0fcd174c9d08348766a805003e00fcb4a6b40ec04f5a5ac30e99a05420fe5059",
    ("plain-dt", True, True): "bf6e4ed93fd4e987d8db4169b3b51de5dfc6fb8fdf63682266569093bfcda398",
    ("gru", False, False): "ceaf2223a7942400710d9ba1ed99d3b03a649768165af25491c8a8db36ccecac",
    ("gru", False, True): "5b142de30f723c6356b5717d34436f3d5d0f6a34cf23e8e388cfd8ba4bda72c1",
    ("gru", True, False): "2fb8bbbc91578905ed22a12f5d715f8f6e1f5ae754f669cac15ed2b25bba7ca8",
    ("gru", True, True): "49e84871010422d229b61e6797afd0c38633bc981d611cc9cd598a70d8fd29f3",
}


def _expected_manifest(table, encoder, use_bias, bidirectional):
    rows = []
    for item in table[encoder].split():
        name, shape = item.split(":")
        if name.split("/")[1].startswith("b") and not use_bias:
            continue
        dims = tuple(int(d) for d in shape.split("x"))
        for prefix in ("enc/", "enc_rev/") if bidirectional else ("enc/",):
            rows.append((prefix + name, dims))
    rep = 6 if bidirectional else 3
    rows += [("head/recon", (2, rep)), ("head/cls", (3, rep + 2))]
    if use_bias:
        rows += [("head/recon_b", (2, 1)), ("head/cls_b", (3, 1))]
    return sorted(rows)


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("encoder", ENCODERS)
def test_parameter_manifest_and_init_are_pinned(encoder, use_bias, bidirectional):
    """The checkpoint's per-gate names, shapes and init draws are the format;
    they must not move. The trainable stacks behind them are pinned too."""
    cfg = tiny_config(encoder=encoder, use_bias=use_bias, bidirectional=bidirectional)
    model = SentimentModel(cfg, np.zeros((5, 2)), np.random.default_rng(0))
    arrays = model.checkpoint_arrays()
    names = sorted(arrays)
    assert [(n, arrays[n].shape) for n in names] == _expected_manifest(
        _ENC_MANIFEST, encoder, use_bias, bidirectional
    )
    h = hashlib.sha256()
    for n in names:
        h.update(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())
    assert h.hexdigest() == _INIT_SHA256[encoder, use_bias, bidirectional]
    params = model.parameters()
    assert sorted((n, t.shape) for n, t in params.items()) == _expected_manifest(
        _STACK_MANIFEST, encoder, use_bias, bidirectional
    )


# -- aspect embedding --------------------------------------------------------------


def test_embed_aspect_averages_rows():
    rows = np.arange(12.0).reshape(6, 2)
    v = fake_vocab(rows, ["food", "service"])
    got = embed_aspect(["food", "service"], v)
    assert np.array_equal(got, (rows[2] + rows[3]) / 2)
    # unknown token falls back to the unk row
    assert np.array_equal(embed_aspect(["nope"], v), rows[1])
    with pytest.raises(ValueError):
        embed_aspect([], v)
    stacked = aspect_matrix([["food"], ["service"]], v)
    assert stacked.shape == (2, 2)


def test_aspect_matrix_embeds_each_distinct_aspect_once():
    rows = np.random.default_rng(3).standard_normal((6, 2))
    v = fake_vocab(rows, ["food", "service"])
    looked_up = Counter()
    counting = SimpleNamespace(
        lookup=lambda t: looked_up.update([t]) or v.lookup(t), embedding=rows
    )
    lists = [["food"], ["food", "service"], ["food"], ("food", "service"), ["nope"]]
    got = aspect_matrix(lists, counting)
    assert np.array_equal(got, np.stack([embed_aspect(t, v) for t in lists]))
    assert looked_up == {"food": 2, "service": 1, "nope": 1}


# -- pooling ------------------------------------------------------------------------


def _steps(rows: np.ndarray, requires_grad=False) -> Tensor:
    """(T, d) per-step rows as (T, d, 1) step-major states: a batch of one."""
    return Tensor(np.ascontiguousarray(rows[:, :, None]), requires_grad=requires_grad)


def test_pool_modes_frozen_values():
    # step 2 is padding, so its values never count
    states = _steps(np.array([[1.0, 2.0], [5.0, 0.0], [9.0, -9.0]]))
    lengths = np.array([2])
    assert np.array_equal(_pool_columns(states, lengths, "last").data[:, 0], [5.0, 0.0])
    assert np.array_equal(_pool_columns(states, lengths, "max").data[:, 0], [5.0, 2.0])
    assert np.array_equal(_pool_columns(states, lengths, "mean").data[:, 0], [3.0, 1.0])
    # a full length means every step is real
    states = _steps(np.array([[1.0, 2.0], [5.0, 0.0], [3.0, 9.0]]))
    assert np.array_equal(_pool_columns(states, np.array([3]), "max").data[:, 0], [5.0, 9.0])
    assert np.array_equal(_pool_columns(states, np.array([3]), "last").data[:, 0], [3.0, 9.0])


def test_max_pool_records_each_max_lead_over_its_runner_up():
    """Only real steps compete, and only a recorded node keeps the kinks."""
    rows = np.array([[1.0, 2.0], [1.25, 0.0], [7.0, 7.0]])  # step 2 is padding
    lengths = np.array([2])
    taped = _pool_columns(_steps(rows, requires_grad=True), lengths, "max")
    assert relu_kink_margin(weighted_sum(taped)) == 0.25
    assert _pool_columns(_steps(rows), lengths, "max").kinks is None


def test_pool_validation():
    states = _steps(np.ones((2, 3)))
    with pytest.raises(ValueError, match="unknown mode"):
        _pool_columns(states, np.array([2]), "avg")
    with pytest.raises(ShapeError, match="lengths"):
        _pool_columns(states, np.array([2, 2]), "last")
    with pytest.raises(ShapeError, match="T >= 1"):
        _pool_columns(Tensor(np.zeros((0, 3, 1))), np.array([0]), "last")
    with pytest.raises(ShapeError):
        _pool_columns(Tensor(np.ones((2, 3))), np.array([2, 2, 2]), "max")


def test_pool_list_of_state_tensors_stays_on_tape(rng):
    """Every step's state gets its share of the pooled gradient."""
    states = _steps(rng.standard_normal((3, 4)), requires_grad=True)
    out = _pool_columns(states, np.array([3]), "mean")
    g = backward(weighted_sum(out), params=[states])
    assert np.allclose(g[states], 1.0 / 3.0)


# -- forward shapes and invariances ---------------------------------------------------


def _batch(rng, B=3, T=4, vocab=9):
    ids = rng.integers(1, vocab, size=(B, T))
    lens = [T, T - 1, 2][:B]
    mask = np.zeros((B, T), dtype=np.int64)
    for i, L in enumerate(lens):
        mask[i, :L] = 1
        ids[i, L:] = 0
    return ids, mask


@pytest.mark.parametrize(
    "bad, match",
    [([[1, 0, 1]], "monotone"), ([[1, 2, 0]], "0 or 1"), ([[0, 0, 0]], "no real tokens")],
)
def test_forward_refuses_a_bad_mask(rng, monkeypatch, bad, match):
    """forward reads the mask once, into lengths, and refuses a bad one,
    a row with no real token included, before any block runs."""
    calls = []
    real = model_mod.run_block_batch
    monkeypatch.setattr(model_mod, "run_block_batch", lambda *a: calls.append(1) or real(*a))
    model, _ = tiny_model(rng)
    with pytest.raises(ValueError, match=match):
        model.forward(np.array([[1, 2, 3]]), np.array(bad), rng.standard_normal((1, 2)))
    assert calls == []


def test_forward_shapes(rng):
    model, cfg = tiny_model(rng)
    ids, mask = _batch(rng)
    aspects = rng.standard_normal((3, 2))
    out = model.forward(ids, mask, aspects)
    assert out.sent_logits.shape == (3, cfg.num_labels)
    assert out.recon_logits.shape == (3, cfg.num_recon_targets)
    assert out.pooled.shape == (cfg.hidden_size, 3)
    assert out.gates.shape == (4, cfg.hidden_size, 3)


@pytest.mark.parametrize(
    "encoder, depth, expected",
    [
        ("aspect-dt", 3, {"aspect_gru_step": 7, "transition_gru_step": 14, "gru_step": 0,
                          "run_block_batch": 1, "_pool_columns": 1, "affine": 2, "matmul": 2}),
        ("gru", 2, {"aspect_gru_step": 0, "transition_gru_step": 0, "gru_step": 14,
                    "run_block_batch": 2, "_pool_columns": 1, "affine": 2, "matmul": 2}),
    ],
)
def test_step_functions_are_looked_up_by_module_name(rng, monkeypatch, encoder, depth, expected):
    """Profilers wrap these module attributes; every forward must call through them.

    ``matmul`` counts the two heads' GEMMs; the block projects the aspect itself.
    Each column half steps on its own: the lengths 2, 3 and 4 split into the
    columns of lengths 2 and 3, stepped 3 times, and the one of length 4,
    stepped 4 times, so a block calls each of its cells' steps 7 times.
    """
    counts = dict.fromkeys(expected, 0)

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("aspect_gru_step", "transition_gru_step", "gru_step", "matmul"):
        counting(cells_mod, name)
    for name in ("run_block_batch", "_pool_columns", "affine"):
        counting(model_mod, name)
    model, _ = tiny_model(rng, encoder=encoder, depth=depth)
    ids, mask = _batch(rng)  # T = 4 steps
    out = model.forward(ids, mask, rng.standard_normal((3, 2)))
    assert counts == expected
    if encoder == "gru":
        assert out.gates is None


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("pooling", POOLING_MODES)
@pytest.mark.parametrize("encoder", ENCODERS)
def test_tape_does_not_grow_with_sentence_length(rng, encoder, pooling, bidirectional):
    """A training forward's tape has as many nodes at T=3 as at T=30."""
    model, _ = tiny_model(rng, encoder=encoder, pooling=pooling, bidirectional=bidirectional)
    sizes = []
    for T in (3, 30):
        ids, mask = _batch(rng, T=T)
        out = model.forward(ids, mask, rng.standard_normal((3, 2)), training=True, rng=rng)
        sizes.append(len({id(n) for root in (out.sent_logits, out.recon_logits)
                          for n in iter_nodes(root)}))
    assert sizes[0] == sizes[1]


def test_training_tape_is_one_node_per_op(rng):
    """Each head is one affine node and the objective one joint_loss node; the
    targets and lam never enter the tape."""
    model, cfg = tiny_model(rng)
    ids, mask = _batch(rng)
    out = model.forward(ids, mask, rng.standard_normal((3, 2)), training=True, rng=rng)
    loss = batch_joint_loss(out, np.array([0, 2, 1]), np.eye(2, dtype=bool)[[1, 0, 1]], cfg)[0]
    ops = Counter(node.op for node in iter_nodes(loss))
    # leaves: the 4 stacks of a depth-2 block, the 2 head weights and the aspect
    assert ops == {"leaf": 7, "dropout": 2, "block": 1, "pool": 1, "concat": 1, "affine": 2,
                   "joint_loss": 1}


def test_zero_weight_model_is_uniform(rng):
    model, cfg = tiny_model(rng)
    for t in model.parameters().values():
        t.data[...] = 0.0
    ids, mask = _batch(rng)
    out = model.forward(ids, mask, rng.standard_normal((3, 2)))
    assert np.array_equal(out.sent_logits.data, np.zeros((3, 3)))
    p = np.exp(out.sent_logits.data)
    p /= p.sum(axis=1, keepdims=True)
    assert np.allclose(p, 1.0 / 3.0)


@pytest.mark.parametrize("pooling", ["last", "max", "mean"])
@pytest.mark.parametrize("encoder", ["aspect-dt", "plain-dt", "gru"])
def test_padding_never_changes_logits(rng, pooling, encoder):
    model, cfg = tiny_model(rng, pooling=pooling, encoder=encoder)
    ids, mask = _batch(rng)
    aspects = rng.standard_normal((3, 2))
    base = model.forward(ids, mask, aspects)
    pad = np.zeros((3, 2), dtype=np.int64)
    out = model.forward(
        np.hstack([ids, pad]), np.hstack([mask, pad]), aspects
    )
    assert np.array_equal(base.sent_logits.data, out.sent_logits.data)
    assert np.array_equal(base.recon_logits.data, out.recon_logits.data)


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("pooling", POOLING_MODES)
@pytest.mark.parametrize("encoder", ENCODERS)
def test_grad_free_forward_is_the_taped_forward_bitwise(
    rng, encoder, pooling, bidirectional, use_bias
):
    """no_grad changes what is recorded, never a value, on a padded batch."""
    model, cfg = tiny_model(
        rng, encoder=encoder, pooling=pooling, bidirectional=bidirectional, use_bias=use_bias
    )
    ids, mask = _batch(rng)
    aspects = rng.standard_normal((3, 2))
    taped = model.forward(ids, mask, aspects)
    with no_grad():
        free = model.forward(ids, mask, aspects)
    for name in ("sent_logits", "recon_logits", "pooled"):
        t, f = getattr(taped, name), getattr(free, name)
        assert np.array_equal(t.data, f.data), name
        assert len(list(iter_nodes(t))) > 1
        assert list(iter_nodes(f)) == [f], name
    assert (taped.gates is None) == (free.gates is None) == (encoder != "aspect-dt")
    if taped.gates is not None:
        assert taped.gates.shape[0] == ids.shape[1]
        assert np.array_equal(taped.gates, free.gates)


def test_bidirectional_padding_invariance_and_shapes(rng):
    model, cfg = tiny_model(rng, bidirectional=True, pooling="max")
    ids, mask = _batch(rng)
    aspects = rng.standard_normal((3, 2))
    base = model.forward(ids, mask, aspects)
    assert base.pooled.shape == (6, 3)
    pad = np.zeros((3, 3), dtype=np.int64)
    out = model.forward(np.hstack([ids, pad]), np.hstack([mask, pad]), aspects)
    assert np.array_equal(base.sent_logits.data, out.sent_logits.data)


# the batch-composition contract (README, Determinism)
BATCH_COMPOSITION_ATOL = 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from((1, 7, 40, 100, 400, 4096)) | st.integers(1, 120),
    lengths=st.lists(st.integers(1, 15), min_size=1, max_size=16),
    encoder=st.sampled_from(ENCODERS),
    pooling=st.sampled_from(POOLING_MODES),
    bidirectional=st.booleans(),
    hidden=st.sampled_from((3, 8)),
)
def test_batch_composition_leaves_each_sentence_logits_alone(
    seed, budget, lengths, encoder, pooling, bidirectional, hidden
):
    """A sentence scores the same in any make_batches batch as alone."""
    r = np.random.default_rng(seed)
    inst = []
    for i, n in enumerate(lengths):
        tokens = tuple(ALL_WORDS[k] for k in r.integers(0, len(ALL_WORDS), size=n))
        aspect = ASPECTS[r.integers(0, len(ASPECTS))]
        inst.append(Instance(f"s{i}", tokens, "category", aspect, (aspect,), LABELS[i % 3]))
    spaces = TaskSpaces.build("category", inst)
    dim = 4
    vocab = assemble_vocab(list(ALL_WORDS), [], {}, dim, seed=seed)
    cfg = ModelConfig(
        hidden_size=hidden,
        embed_size=dim,
        depth=2,
        num_labels=spaces.num_labels,
        num_recon_targets=spaces.num_recon_targets,
        task="category",
        lam=0.5,
        encoder=encoder,
        pooling=pooling,
        bidirectional=bidirectional,
    )
    model = SentimentModel(cfg, vocab.embedding, r)
    for batch in make_batches(inst, vocab, spaces, budget, shuffle=False):
        out = model.forward(batch.token_ids, batch.mask, aspect_matrix(batch.aspect_tokens, vocab))
        for row, one in enumerate(batch.instances):
            alone = model.forward_one(
                vocab.ids(one.tokens), embed_aspect(one.aspect_tokens, vocab)
            )
            for got, want in (
                (out.sent_logits.data[row], alone.sent_logits.data[0]),
                (out.recon_logits.data[row], alone.recon_logits.data[0]),
            ):
                np.testing.assert_allclose(got, want, rtol=0, atol=BATCH_COMPOSITION_ATOL)
                assert np.argmax(got) == np.argmax(want)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(0, 6), min_size=1, max_size=7),
    kind=st.sampled_from(("aspect", "dt", "gru")),
)
def test_a_block_in_any_column_order_is_the_length_ordered_block_permuted(seed, lengths, kind):
    """Columns out of length order give the length-ordered states, gates and
    input gradients, taken in their order."""
    r = np.random.default_rng(seed)
    B, T = len(lengths), max(lengths) + int(r.integers(0, 2))
    block = cells_mod.init_block("aspect" if kind == "aspect" else "dt", 3, 2, 2, 2, r, bias=True)
    if kind == "gru":
        block = (cells_mod.CellParams.init("gru", 3, r, d_x=2, bias=True), *block[1:])
    for cell in block:
        cell.bias.data[...] = r.standard_normal(cell.bias.shape)
    lengths = np.sort(lengths)
    x, a = r.standard_normal((T, 2, B)), r.standard_normal((2, B))

    def run(cols):
        xt = Tensor(x[:, :, cols], requires_grad=True)
        at = Tensor(a[:, cols], requires_grad=True) if kind == "aspect" else None
        states, gates = cells_mod.run_block_batch(block, xt, at, lengths[cols])
        grads = backward(weighted_sum(states), params=[xt] if at is None else [xt, at])
        return [states.data, *([] if gates is None else [gates]), *grads.values()]

    perm = r.permutation(B)
    for got, want in zip(run(perm), run(np.arange(B))):
        np.testing.assert_allclose(got, want[..., perm], rtol=0, atol=BATCH_COMPOSITION_ATOL)


def test_the_block_steps_only_real_cells(rng, monkeypatch):
    """Over a padded make_batches batch the cells step exactly its real tokens,
    and the block's relu kinks are the aspect gate pre-activations of those."""
    inst = [
        Instance(f"s{i}", tuple(ALL_WORDS[k] for k in rng.integers(0, len(ALL_WORDS), size=n)),
                 "category", ASPECTS[i % 2], (ASPECTS[i % 2],), LABELS[i % 3])
        for i, n in enumerate((2, 3, 3, 5, 7))
    ]
    spaces = TaskSpaces.build("category", inst)
    vocab = assemble_vocab(list(ALL_WORDS), [], {}, 4, seed=1)
    cfg = ModelConfig(hidden_size=3, embed_size=4, depth=3, num_labels=spaces.num_labels,
                      num_recon_targets=spaces.num_recon_targets, task="category")
    model = SentimentModel(cfg, vocab.embedding, rng)
    (batch,) = make_batches(inst, vocab, spaces, 4096, shuffle=False)
    real = int(batch.mask.sum())
    assert real < batch.mask.size
    stepped = Counter()

    def counting(name):
        step = getattr(cells_mod, name)

        def wrapped(p, X, h_prev, *rest):
            stepped[name] += h_prev.shape[1]
            return step(p, X, h_prev, *rest)

        monkeypatch.setattr(cells_mod, name, wrapped)

    counting("aspect_gru_step")
    counting("transition_gru_step")
    aspects = aspect_matrix(batch.aspect_tokens, vocab)
    out = model.forward(batch.token_ids, batch.mask, aspects)
    assert stepped == {"aspect_gru_step": real, "transition_gru_step": (cfg.depth - 1) * real}

    block = next(n for n in iter_nodes(out.sent_logits) if n.op == "block")
    w = cells_mod.gate_arrays(model.blocks[0][0])
    prev = np.concatenate([np.zeros_like(block.data[:1]), block.data[:-1]])
    pre = [
        (w["w_a"] @ aspects.T + w["w_hg"] @ prev[t])[:, batch.mask[:, t] == 1]
        for t in range(batch.mask.shape[1])
    ]
    assert block.kinks.shape == (real, cfg.hidden_size)
    want = min(float(np.abs(p).min()) for p in pre)
    assert relu_kink_margin(block) == pytest.approx(want, rel=1e-12)


# -- each distinct token projected once ----------------------------------------------

# (ids, mask) batches that repeat ids: one sentence of one distinct id ("food
# food food"), and three sentences out of length order over two distinct ids
_REPEATS = (
    (np.array([[4, 4, 4]]), np.ones((1, 3), np.int64)),
    (np.array([[3, 5, 3, 3], [5, 5, 0, 0], [3, 3, 5, 0]]),
     np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]])),
)


def _per_cell_projection(monkeypatch):
    """Make every block project each real cell's token row itself, ids unread."""
    real = model_mod.run_block_batch
    monkeypatch.setattr(
        model_mod, "run_block_batch",
        lambda cells, x, aspect, lengths, ids=None: real(cells, x, aspect, lengths),
    )


def _outputs(r: ForwardResult) -> list:
    return [r.sent_logits.data, r.recon_logits.data, r.pooled.data,
            *([] if r.gates is None else [r.gates])]


@pytest.mark.parametrize("case", range(len(_REPEATS)))
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("encoder", ENCODERS)
def test_undropped_forward_over_repeated_ids_is_the_per_cell_forward(
    rng, monkeypatch, encoder, bidirectional, case
):
    """Where ids repeat, the taped and grad-free eval forwards give the same
    bits, and they and a training forward without input dropout give the
    per-cell projection's values."""
    model, _ = tiny_model(
        rng, encoder=encoder, bidirectional=bidirectional, use_bias=True, dropout_input=0.0
    )
    ids, mask = _REPEATS[case]
    aspects = rng.standard_normal((len(ids), 2))

    def run():
        taped = model.forward(ids, mask, aspects)
        with no_grad():
            free = model.forward(ids, mask, aspects)
        trained = model.forward(ids, mask, aspects, training=True, rng=np.random.default_rng(7))
        for t, f in zip(_outputs(taped), _outputs(free)):
            assert np.array_equal(t, f)
        return _outputs(taped) + _outputs(trained)

    got = run()
    _per_cell_projection(monkeypatch)
    for g, w in zip(got, run(), strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=BATCH_COMPOSITION_ATOL)


@pytest.mark.parametrize("encoder", ENCODERS)
def test_input_dropout_projects_every_cell(rng, monkeypatch, encoder):
    """Two cells of one id draw different input dropout masks, so a training
    forward with input dropout is the per-cell projection's."""
    model, _ = tiny_model(rng, encoder=encoder, bidirectional=True)
    ids, mask = _REPEATS[1]
    aspects = rng.standard_normal((3, 2))

    def run():
        return _outputs(
            model.forward(ids, mask, aspects, training=True, rng=np.random.default_rng(7))
        )

    got = run()
    _per_cell_projection(monkeypatch)
    for g, w in zip(got, run(), strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=BATCH_COMPOSITION_ATOL)


@pytest.mark.parametrize(
    "training, dropout_input, reads_ids", [(False, 0.5, True), (True, 0.0, True), (True, 0.5, False)]
)
def test_only_an_undropped_first_block_reads_ids(rng, monkeypatch, training, dropout_input, reads_ids):
    """Each direction's first block gets the (T, B) ids when its input rows are
    undropped embeddings; a later GRU layer reads states and gets none."""
    model, _ = tiny_model(rng, encoder="gru", bidirectional=True, dropout_input=dropout_input)
    ids, mask = _REPEATS[1]
    seen = []
    real = model_mod.run_block_batch

    def spy(cells, x, aspect, lengths, ids=None):
        seen.append(ids)
        return real(cells, x, aspect, lengths, ids)

    monkeypatch.setattr(model_mod, "run_block_batch", spy)
    model.forward(ids, mask, rng.standard_normal((3, 2)), training, np.random.default_rng(7))
    assert seen[1] is None and seen[3] is None and len(seen) == 4
    if not reads_ids:
        assert seen[0] is None and seen[2] is None
        return
    assert np.array_equal(seen[0], ids.T)
    lengths = mask.sum(axis=1)
    for b, n in enumerate(lengths):  # each row's real prefix, reversed
        assert np.array_equal(seen[2][:n, b], ids[b, :n][::-1])


@pytest.mark.parametrize("ids", [[[1.9, 2.2, 3.7]], [[True, False, True]]])
def test_forward_refuses_token_ids_that_are_not_integers(rng, ids):
    model, _ = tiny_model(rng)
    ids = np.array(ids)
    with pytest.raises(ValueError, match=f"dtype {ids.dtype}"):
        model.forward(ids, np.ones((1, 3)), rng.standard_normal((1, 2)))


def test_forward_takes_any_integer_token_ids(rng):
    model, _ = tiny_model(rng)
    ids, mask = _batch(rng)
    aspects = rng.standard_normal((3, 2))
    want = model.forward(ids, mask, aspects).sent_logits.data
    for dtype in (np.int32, np.uint8):
        got = model.forward(ids.astype(dtype), mask, aspects).sent_logits.data
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_refuses_a_non_finite_aspect(rng, bad):
    model, _ = tiny_model(rng)
    with pytest.raises(ValueError, match="non-finite"):
        model.forward(np.array([[1, 2, 3]]), np.ones((1, 3)), np.array([[bad, 0.1]]))


def test_ablated_model_ignores_aspect_bitwise(rng):
    """gru encoder, no concat, no reconstruction gradient path to aspect."""
    model, _ = tiny_model(rng, encoder="gru", aspect_concat=False, reconstruct=False)
    ids, mask = _batch(rng)
    a1 = model.forward(ids, mask, rng.standard_normal((3, 2)))
    a2 = model.forward(ids, mask, rng.standard_normal((3, 2)))
    assert np.array_equal(a1.sent_logits.data, a2.sent_logits.data)
    assert np.array_equal(a1.recon_logits.data, a2.recon_logits.data)


def test_zeroed_aspect_projection_makes_encoder_aspect_blind(rng):
    model, _ = tiny_model(rng, aspect_concat=False)
    model.blocks[0][0].stacks["a"].data[...] = 0.0
    ids, mask = _batch(rng)
    a1 = model.forward(ids, mask, rng.standard_normal((3, 2)))
    a2 = model.forward(ids, mask, rng.standard_normal((3, 2)))
    assert np.array_equal(a1.sent_logits.data, a2.sent_logits.data)


def test_training_forward_is_seed_deterministic(rng):
    model, _ = tiny_model(rng)
    ids, mask = _batch(rng)
    aspects = rng.standard_normal((3, 2))
    o1 = model.forward(ids, mask, aspects, training=True, rng=np.random.default_rng(5))
    o2 = model.forward(ids, mask, aspects, training=True, rng=np.random.default_rng(5))
    assert np.array_equal(o1.sent_logits.data, o2.sent_logits.data)
    with pytest.raises(ValueError, match="rng"):
        model.forward(ids, mask, aspects, training=True)


def test_forward_validates_inputs(rng):
    model, _ = tiny_model(rng)
    ids, mask = _batch(rng)
    with pytest.raises(IndexError):
        model.forward(ids + 100, mask, rng.standard_normal((3, 2)))
    with pytest.raises(ShapeError):
        model.forward(ids, mask[:, :2], rng.standard_normal((3, 2)))
    with pytest.raises(ShapeError):
        model.forward(ids, mask, rng.standard_normal((3, 5)))


# -- losses ---------------------------------------------------------------------------


def _logit_rows(sent, recon) -> ForwardResult:
    """A batch-of-one forward result that holds only the two logit rows."""
    return ForwardResult(Tensor([sent]), Tensor([recon]), pooled=None, gates=None)


def test_category_loss_matches_direct_formula():
    cfg = tiny_config(num_recon_targets=3)
    out = _logit_rows([0.0, 0.0, 0.0], [0.2, -1.0, 0.8])
    _, _, loss = batch_joint_loss(out, [0], [[False, False, True]], cfg)
    z = np.array([0.2, -1.0, 0.8])
    expected = math.log(np.exp(z).sum()) - 0.8
    assert abs(loss - expected) < 1e-12
    with pytest.raises(ValueError, match="one-hot"):
        batch_joint_loss(out, [0], [[True, False, True]], cfg)
    with pytest.raises(ShapeError):
        batch_joint_loss(out, [0], [[False, False, False, True]], cfg)


def test_term_loss_matches_direct_formula():
    cfg = tiny_config(task="term", num_recon_targets=3)
    out = _logit_rows([0.0, 0.0, 0.0], [1.0, -2.0, 0.5])
    _, _, loss = batch_joint_loss(out, [0], [[True, False, True]], cfg)

    def softplus(v):
        return math.log1p(math.exp(-abs(v))) + max(v, 0.0)

    expected = (softplus(1.0) - 1.0) + softplus(-2.0) + (softplus(0.5) - 0.5)
    assert abs(loss - expected) < 1e-12


def test_joint_loss_combines_terms():
    cfg = tiny_config(lam=0.4)
    out = _logit_rows([0.1, 0.2, 0.3], [0.5, -0.5])
    j, _, _ = batch_joint_loss(out, [1], [[True, False]], cfg)
    recon = softmax_xent_logits(np.array([[0.5, -0.5]]), np.array([[1.0, 0.0]]))[0][0]
    ce = softmax_xent_logits(np.array([[0.1, 0.2, 0.3]]), np.array([[0.0, 1.0, 0.0]]))[0][0]
    assert abs(j.item() - (ce + 0.4 * recon)) < 1e-12
    off = tiny_config(reconstruct=False)
    assert abs(batch_joint_loss(out, [1], None, off)[0].item() - ce) < 1e-15


def test_batch_joint_loss_means_rows(rng):
    model, cfg = tiny_model(rng)
    ids, mask = _batch(rng)
    aspects = rng.standard_normal((3, 2))
    out = model.forward(ids, mask, aspects)
    labels = np.array([0, 2, 1])
    cats = np.array([1, 0, 1])
    total, ce_part, recon_part = batch_joint_loss(out, labels, np.eye(2, dtype=bool)[cats], cfg)

    def xent(z, gold):  # log-sum-exp minus the gold logit
        m = z.max()
        return m + math.log(np.exp(z - m).sum()) - z[gold]

    per = [
        xent(out.sent_logits.data[i], labels[i])
        + cfg.lam * xent(out.recon_logits.data[i], cats[i])
        for i in range(3)
    ]
    assert abs(total.item() - np.mean(per)) < 1e-12
    assert abs(total.item() - (ce_part + cfg.lam * recon_part)) < 1e-12


def test_lambda_zero_equals_reconstruction_off(rng):
    ids, mask = _batch(rng)
    aspects = rng.standard_normal((3, 2))
    labels = np.array([0, 2, 1])
    cats = np.eye(2, dtype=bool)[[1, 0, 1]]
    r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
    m_zero, c_zero = tiny_model(r1, lam=0.0)
    m_off, c_off = tiny_model(r2, reconstruct=False)
    o_zero = m_zero.forward(ids, mask, aspects)
    o_off = m_off.forward(ids, mask, aspects)
    l_zero = batch_joint_loss(o_zero, labels, cats, c_zero)[0]
    l_off = batch_joint_loss(o_off, labels, cats, c_off)[0]
    assert l_zero.item() == l_off.item()
    g_zero = backward(l_zero, params=list(m_zero.parameters().values()))
    g_off = backward(l_off, params=list(m_off.parameters().values()))
    for (n1, p1), (n2, p2) in zip(
        m_zero.parameters().items(), m_off.parameters().items()
    ):
        assert n1 == n2
        assert np.array_equal(g_zero[p1], g_off[p2])
    assert np.array_equal(
        g_zero[m_zero.w_recon], np.zeros_like(m_zero.w_recon.data)
    )


def _sample_checkable_model(rng, cfg, make_targets):
    """Resample until every relu preactivation clears the kink radius."""
    for _ in range(50):
        emb = (rng.random((7, 2)) - 0.5).astype(CHECK_DTYPE)
        emb[0] = 0.0
        model = SentimentModel(cfg, emb, rng)
        ids, mask = _batch(rng, B=2, T=3, vocab=7)
        aspects = (rng.random((2, 2)) - 0.5).astype(CHECK_DTYPE)
        labels, targets = make_targets()

        def f():
            out = model.forward(ids, mask, aspects)
            return batch_joint_loss(out, labels, targets, cfg)[0]

        if relu_kink_margin(f()) > KINK_RADIUS:
            return model, f
    pytest.fail("could not sample a model away from relu kinks")


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("pooling", POOLING_MODES)
@pytest.mark.parametrize("encoder", ENCODERS)
def test_end_to_end_gradients_category(rng, encoder, pooling, bidirectional):
    """Every parameter's gradient through the padded batch, the carry and pooling included."""
    cfg = tiny_config(encoder=encoder, pooling=pooling, bidirectional=bidirectional)
    model, f = _sample_checkable_model(
        rng, cfg, lambda: (np.array([0, 2]), np.array([[False, True], [True, False]]))
    )
    params = list(model.parameters().values())
    assert grad_check(f, params, FD_EPS_CHECK) <= TOL_CHECK


def test_end_to_end_gradients_term(rng):
    cfg = tiny_config(task="term", num_recon_targets=4)
    model, f = _sample_checkable_model(
        rng, cfg, lambda: (
            np.array([1, 0]),
            np.array([[True, False, True, False], [False, False, False, True]]),
        )
    )
    params = list(model.parameters().values())
    assert grad_check(f, params, FD_EPS_CHECK) <= TOL_CHECK


# -- the block backward's helper ----------------------------------------------------

# (ids, mask) over T=7, out of length order, so each block permutes its columns
_WORKER_BATCH = (
    np.array([[3, 5, 4, 0, 0, 0, 0], [2, 6, 3, 8, 5, 1, 4], [7, 1, 7, 2, 6, 0, 0],
              [5, 0, 0, 0, 0, 0, 0]]),
    np.array([[1, 1, 1, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 0, 0],
              [1, 0, 0, 0, 0, 0, 0]]),
)


def _gradients(model, cfg, seed=0) -> list[np.ndarray]:
    """Every parameter gradient of one training step's joint loss on _WORKER_BATCH."""
    ids, mask = _WORKER_BATCH
    aspects = np.random.default_rng(seed).standard_normal((4, cfg.embed_size))
    out = model.forward(ids, mask, aspects, training=True, rng=np.random.default_rng(seed))
    recon = np.eye(cfg.num_recon_targets, dtype=bool)[[1, 0, 1, 1]]
    loss = batch_joint_loss(out, np.array([0, 2, 1, 2]), recon, cfg)[0]
    return list(backward(loss, list(model.parameters().values())).values())


def _threaded(m) -> None:
    """Give every taped block helpers: two CPUs, and no block too small for them."""
    m.setattr(threads_mod, "usable_cpus", lambda: 2)
    m.setattr(cells_mod, "_HELPER_MIN_WORK", 0)


def _serial_gradients(model, cfg, seed=0) -> list[np.ndarray]:
    """``_gradients`` on one CPU: both halves in order on the calling thread."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(threads_mod, "usable_cpus", lambda: 1)
        return _gradients(model, cfg, seed)


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _bwd_threads() -> list[threading.Thread]:
    return [th for th in threading.enumerate() if th.name.startswith("aspectgate-bwd")]


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("encoder", ENCODERS)
def test_backward_on_the_worker_is_the_serial_backward_bitwise(
    rng, monkeypatch, encoder, use_bias, bidirectional
):
    """The backward's helper thread steps one column half and forms a share
    of the weight-gradient GEMMs; the bits are those of one CPU, where the
    calling thread runs it all. A depth-2 gru's second layer adds the input
    gradient's GEMM."""
    model, cfg = tiny_model(rng, encoder=encoder, use_bias=use_bias, bidirectional=bidirectional)
    if use_bias:
        for t in model.parameters().values():
            t.data[...] += rng.uniform(-0.1, 0.1, t.shape)
    want = _serial_gradients(model, cfg)
    assert any(np.any(g) for g in want)
    real, ran_on = cells_mod._step_backward, set()
    monkeypatch.setattr(cells_mod, "_step_backward", lambda *a: (
        ran_on.add(threading.current_thread().name) or real(*a)))
    _threaded(monkeypatch)
    _assert_bitwise(_gradients(model, cfg), want)
    assert threading.current_thread().name in ran_on
    assert any(n.startswith("aspectgate-bwd") for n in ran_on)
    assert not _bwd_threads()


@pytest.mark.parametrize("failing", ["helper", "caller", "both"])
def test_the_backward_helper_does_not_outlive_its_block(rng, monkeypatch, failing):
    """A step back's error on either half leaves backward after the helper is
    joined, while the other half is still stepping (its steps are slowed);
    when both halves fail, the calling thread's error is raised. The next
    training step gets the bits of one that never failed."""
    model, cfg = tiny_model(rng, encoder="aspect-dt")
    _threaded(monkeypatch)
    want = _gradients(model, cfg)
    real = cells_mod._step_backward
    errors = {side: ArithmeticError(f"{side}'s step back") for side in ("helper", "caller")}

    def step_back(*args):
        on_helper = threading.current_thread().name.startswith("aspectgate-bwd")
        side = "helper" if on_helper else "caller"
        if failing in (side, "both"):
            raise errors[side]
        time.sleep(0.01)
        return real(*args)

    monkeypatch.setattr(cells_mod, "_step_backward", step_back)
    with pytest.raises(ArithmeticError) as raised:
        _gradients(model, cfg)
    assert raised.value is errors["caller" if failing == "both" else failing]
    assert not _bwd_threads()
    monkeypatch.setattr(cells_mod, "_step_backward", real)
    _assert_bitwise(_gradients(model, cfg), want)


@pytest.mark.parametrize("encoder", ENCODERS)
def test_a_second_backward_over_one_block_raises(rng, encoder):
    """A block's backward writes its gradients over what its forward saved,
    so the tape's second backward is refused, not answered with wrong
    gradients; the relu kinks, a view of those arrays, go with the first."""
    model, cfg = tiny_model(rng, encoder=encoder)
    ids, mask = _WORKER_BATCH
    out = model.forward(ids, mask, rng.standard_normal((4, cfg.embed_size)),
                        training=True, rng=np.random.default_rng(0))
    recon = np.eye(cfg.num_recon_targets, dtype=bool)[[1, 0, 1, 1]]
    loss = batch_joint_loss(out, np.array([0, 2, 1, 2]), recon, cfg)[0]
    blocks = [n for n in iter_nodes(loss) if n.op == "block"]
    assert blocks and all((n.kinks is not None) == (encoder == "aspect-dt") for n in blocks)
    backward(loss, list(model.parameters().values()))
    assert all(n.kinks is None for n in blocks)
    with pytest.raises(RuntimeError, match="backward has run"):
        backward(loss, list(model.parameters().values()))


def test_concurrent_backwards_each_get_their_serial_gradients(rng, monkeypatch):
    """Backwards on four models from four Python threads each start their own
    helpers, and each gets its own one-CPU bits, under a short switch interval
    and with every third step back delayed."""
    models = [tiny_model(rng, encoder=e)[0] for e in (*ENCODERS, "aspect-dt")]
    cfgs = [m.config for m in models]
    want = [_serial_gradients(m, c, seed) for seed, (m, c) in enumerate(zip(models, cfgs))]
    got = [[] for _ in models]
    real, calls = cells_mod._step_backward, []

    def jittered(*args):
        calls.append(1)
        if len(calls) % 3 == 0:
            time.sleep(0.002)
        return real(*args)

    monkeypatch.setattr(cells_mod, "_step_backward", jittered)
    _threaded(monkeypatch)

    def run(i):
        for _ in range(3):
            got[i].append(_gradients(models[i], cfgs[i], i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(models))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for runs, w in zip(got, want):
        assert len(runs) == 3
        for g in runs:
            _assert_bitwise(g, w)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helpers(rng, monkeypatch):
    """A child forked after a threaded backward starts its own helpers and
    gets the one-CPU bits."""
    model, cfg = tiny_model(rng)
    want = _serial_gradients(model, cfg)
    _threaded(monkeypatch)
    _gradients(model, cfg)
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # a fork of a threaded process
        pid = os.fork()
    if pid == 0:
        try:
            got = _gradients(model, cfg)
            os.write(write, b"1" if all(map(np.array_equal, got, want)) else b"0")
        finally:
            os._exit(0)
    os.close(write)
    ready, _, _ = select.select([read], [], [], 20)
    answer = os.read(read, 1) if ready else b""
    os.close(read)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    assert answer == b"1"


def _fwd_threads() -> list[threading.Thread]:
    return [th for th in threading.enumerate() if th.name.startswith("aspectgate-fwd")]


def _outputs_and_gradients(model, cfg) -> list[np.ndarray]:
    """A taped forward's outputs and every parameter gradient on _WORKER_BATCH,
    in training (every cell projected) and in eval mode (once per token id),
    then a grad-free forward's outputs. Its blocks are far below
    ``_HELPER_MIN_WORK``, which is lowered here so that with two usable CPUs
    they start their helpers."""
    ids, mask = _WORKER_BATCH
    aspects = np.random.default_rng(0).standard_normal((4, cfg.embed_size))
    recon = np.eye(cfg.num_recon_targets, dtype=bool)[[1, 0, 1, 1]]
    got = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cells_mod, "_HELPER_MIN_WORK", 0)
        for training in (True, False):
            out = model.forward(ids, mask, aspects, training=training,
                                rng=np.random.default_rng(0))
            loss = batch_joint_loss(out, np.array([0, 2, 1, 2]), recon, cfg)[0]
            grads = backward(loss, list(model.parameters().values()))
            got += [out.sent_logits.data, out.recon_logits.data, out.pooled.data,
                    *grads.values()]
            got += [] if out.gates is None else [out.gates]
        with no_grad():
            out = model.forward(ids, mask, aspects)
        got += [out.sent_logits.data, out.recon_logits.data, out.pooled.data]
        got += [] if out.gates is None else [out.gates]
    return got


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("pooling", POOLING_MODES)
@pytest.mark.parametrize("encoder", ENCODERS)
def test_the_halves_on_the_helper_are_the_halves_in_order_bitwise(
    rng, monkeypatch, encoder, pooling, bidirectional
):
    """With two CPUs a forward, taped or grad-free, steps one column half on
    its helper thread; with one, both halves on the calling thread. Over a
    padded, unsorted B=4 batch, the outputs and every gradient are the same
    bits."""
    model, cfg = tiny_model(rng, encoder=encoder, pooling=pooling, bidirectional=bidirectional)
    ran_on = set()
    for name in ("aspect_gru_step", "dt_gru_step", "gru_step", "transition_gru_step"):
        real = getattr(cells_mod, name)
        monkeypatch.setattr(cells_mod, name, lambda *a, real=real: (
            ran_on.add(threading.current_thread().name) or real(*a)))

    def run(cpus):
        monkeypatch.setattr(threads_mod, "usable_cpus", lambda: cpus)
        ran_on.clear()
        return _outputs_and_gradients(model, cfg), set(ran_on)

    threaded, names = run(2)
    assert threading.current_thread().name in names
    assert any(n.startswith("aspectgate-fwd") for n in names)
    in_order, names = run(1)
    assert names == {threading.current_thread().name}
    _assert_bitwise(threaded, in_order)
    assert not _fwd_threads()


@pytest.mark.parametrize("failing", ["helper", "caller", "both"])
def test_the_forward_helper_does_not_outlive_its_block(rng, monkeypatch, failing):
    """A step's error on either half leaves the block unchanged, after the
    helper is joined, while the other half is still stepping (its steps are
    slowed); when both halves fail, the calling thread's error is raised.
    The next forward gets the bits of one that never failed."""
    model, cfg = tiny_model(rng, encoder="aspect-dt")
    monkeypatch.setattr(threads_mod, "usable_cpus", lambda: 2)
    want = _outputs_and_gradients(model, cfg)
    real = cells_mod.transition_gru_step
    errors = {side: ArithmeticError(f"{side}'s step") for side in ("helper", "caller")}

    def step(*args):
        on_helper = threading.current_thread().name.startswith("aspectgate-fwd")
        side = "helper" if on_helper else "caller"
        if failing in (side, "both"):
            raise errors[side]
        time.sleep(0.01)
        return real(*args)

    monkeypatch.setattr(cells_mod, "transition_gru_step", step)
    with pytest.raises(ArithmeticError) as raised:
        _outputs_and_gradients(model, cfg)
    assert raised.value is errors["caller" if failing == "both" else failing]
    assert not _fwd_threads()
    monkeypatch.setattr(cells_mod, "transition_gru_step", real)
    _assert_bitwise(_outputs_and_gradients(model, cfg), want)


# -- prediction --------------------------------------------------------------------


def test_predict_ties_take_lowest_index():
    assert np.array_equal(predict(Tensor([[1.0, 3.0, 3.0]])), [1])
    assert np.array_equal(
        predict(np.array([[0.0, 0.0], [1.0, 2.0]])), np.array([0, 1])
    )
    with pytest.raises(ShapeError):
        predict(Tensor([1.0, 3.0, 3.0]))


def test_reconstruct_aspect_decoding():
    category, term = tiny_config(), tiny_config(task="term")
    got = reconstruct_aspect(Tensor([[0.1, 0.9, -2.0]]), category)
    assert np.array_equal(got, [[False, True, False]])
    got = reconstruct_aspect(Tensor([[0.2, -0.1, 0.0]]), term, threshold=0.5)
    assert np.array_equal(got, [[True, False, True]])  # logit >= 0 means probability >= one half
    for config in (category, term):
        with pytest.raises(ValueError, match="threshold"):
            reconstruct_aspect(Tensor([[0.0]]), config, threshold=1.5)
    with pytest.raises(ValueError):
        reconstruct_aspect(Tensor([[0.0]]), tiny_config(task="span"))
    with pytest.raises(ShapeError):
        reconstruct_aspect(Tensor([0.1, 0.9, -2.0]), category)
