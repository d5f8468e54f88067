"""Recurrent cells: step math, block composition, masking, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectgate.cells import (
    CELL_KINDS,
    CellParams,
    DeepTransitionBlock,
    aspect_gru_step,
    block_step,
    dt_gru_step,
    gru_step,
    run_block_batch,
    transition_gru_step,
)
from aspectgate.tensor import (
    CHECK_DTYPE,
    ShapeError,
    Tensor,
    backward,
    grad_check,
    no_grad,
    relu_kink_margin,
)
from conftest import FD_EPS_CHECK, TOL_CHECK


def _zero_params(params) -> None:
    for t in params.tensors("").values():
        t.data[...] = 0.0


def _col(rng, d, B=1, dtype=np.float64):
    return Tensor((rng.random((d, B)) - 0.5).astype(dtype))


def _steps(emb: np.ndarray) -> list[Tensor]:
    """(T, d) token rows as T (d, 1) columns: one sequence as a batch of one."""
    return [Tensor(np.ascontiguousarray(emb[t : t + 1].T)) for t in range(emb.shape[0])]


# -- frozen step behavior ------------------------------------------------------


def test_aspect_gru_all_zero_weights_fixed_point(rng):
    p = CellParams.init("aspect", 4, rng, d_x=3, d_a=3)
    _zero_params(p)
    x = _col(rng, 3)
    a = _col(rng, 3)
    h0 = Tensor(np.zeros((4, 1)))
    h, g = aspect_gru_step(p, x, a, h0)
    assert np.array_equal(h.data, np.zeros((4, 1)))
    assert np.array_equal(g.data, np.zeros((4, 1)))


def test_aspect_gru_dead_gate_reduces_to_ungated_paths(rng):
    """With w_a and w_hg zero the relu gate is 0, killing both of its paths."""
    p = CellParams.init("aspect", 4, rng, d_x=3, d_a=3)
    p.w_a.data[...] = 0.0
    p.w_hg.data[...] = 0.0
    x = _col(rng, 3)
    a = _col(rng, 3)
    h_prev = _col(rng, 4)
    h, g = aspect_gru_step(p, x, a, h_prev)
    assert np.array_equal(g.data, np.zeros((4, 1)))

    def s(v):
        return 1.0 / (1.0 + np.exp(-v))

    r = s(p.w_xr.data @ x.data + p.w_hr.data @ h_prev.data)
    z = s(p.w_xz.data @ x.data + p.w_hz.data @ h_prev.data)
    l = s(p.w_xl.data @ x.data + p.w_hl.data @ h_prev.data)
    cand = np.tanh(r * (p.w_hh.data @ h_prev.data)) + l * (p.w_lin1.data @ x.data)
    expected = (1 - z) * h_prev.data + z * cand
    assert np.allclose(h.data, expected, rtol=1e-12, atol=1e-14)


def test_aspect_gru_ignores_aspect_when_projection_is_zero(rng):
    p = CellParams.init("aspect", 4, rng, d_x=3, d_a=3)
    p.w_a.data[...] = 0.0
    x = _col(rng, 3)
    h_prev = _col(rng, 4)
    h1, _ = aspect_gru_step(p, x, _col(rng, 3), h_prev)
    h2, _ = aspect_gru_step(p, x, _col(rng, 3), h_prev)
    assert np.array_equal(h1.data, h2.data)


def test_transition_gru_zero_weights_halves_state(rng):
    p = CellParams.init("transition", 4, rng)
    _zero_params(p)
    h = _col(rng, 4)
    out = transition_gru_step(p, h)
    assert np.allclose(out.data, 0.5 * h.data, rtol=0, atol=1e-15)


def test_block_depth_one_is_just_the_input_cell(rng):
    block = DeepTransitionBlock.init(4, 3, 3, depth=1, rng=rng)
    assert block.depth == 1 and block.transitions == ()
    x, a, h = _col(rng, 3), _col(rng, 3), _col(rng, 4)
    via_block, g1 = block_step(block, x, a, h)
    direct, g2 = aspect_gru_step(block.first, x, a, h)
    assert np.array_equal(via_block.data, direct.data)
    assert np.array_equal(g1.data, g2.data)


def test_block_transitions_compose(rng):
    block = DeepTransitionBlock.init(4, 3, 3, depth=3, rng=rng)
    for cell in block.transitions:
        _zero_params(cell)
    x, a, h = _col(rng, 3), _col(rng, 3), _col(rng, 4)
    first, _ = aspect_gru_step(block.first, x, a, h)
    out, _ = block_step(block, x, a, h)
    # two zeroed transition cells each halve the state
    assert np.allclose(out.data, 0.25 * first.data, rtol=0, atol=1e-15)


def test_block_depth_validation(rng):
    with pytest.raises(ValueError):
        DeepTransitionBlock.init(4, 3, 3, depth=0, rng=rng)


def test_dt_cell_has_no_aspect_surface(rng):
    block = DeepTransitionBlock.init(4, 3, 3, depth=2, rng=rng, aspect_gated=False)
    assert block.first.kind == "dt" and not hasattr(block.first, "w_a")
    x, h = _col(rng, 3), _col(rng, 4)
    out, g = block_step(block, x, None, h)
    assert g is None
    assert out.shape == (4, 1)


def test_gate_ranges(rng):
    p = CellParams.init("aspect", 6, rng, d_x=4, d_a=4)
    h, g = aspect_gru_step(p, _col(rng, 4), _col(rng, 4), _col(rng, 6))
    assert np.all(g.data >= 0)
    assert np.all(np.isfinite(h.data))


# -- fused steps against a per-gate reference ---------------------------------


def _reference_step(p, x, h, a):
    """One step of any cell kind in plain numpy, gate by gate; returns (h, g or None)."""
    w = {n: t.data for n, t in p.tensors("").items()}

    def b(name):
        return w.get(name, 0.0)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    if p.kind == "transition":
        z = sig(w["w_z"] @ h + b("b_z"))
        r = sig(w["w_r"] @ h + b("b_r"))
        return (1 - z) * h + z * np.tanh(r * (w["w_h"] @ h)), None
    r = sig(w["w_xr"] @ x + w["w_hr"] @ h + b("b_r"))
    z = sig(w["w_xz"] @ x + w["w_hz"] @ h + b("b_z"))
    hh = w["w_hh"] @ h + b("b_h")
    g = None
    if p.kind == "gru":
        cand = np.tanh(w["w_xh"] @ x + r * hh)
    else:
        l = sig(w["w_xl"] @ x + w["w_hl"] @ h + b("b_l"))
        xh = w["w_xh"] @ x
        if p.kind == "aspect":
            g = np.maximum(w["w_a"] @ a + w["w_hg"] @ h + b("b_g"), 0.0)
            xh = g * xh
        cand = np.tanh(xh + r * hh) + l * (w["w_lin1"] @ x)
        if g is not None:
            cand = cand + g * (w["w_lin2"] @ x)
    return (1 - z) * h + z * cand, g


# each kind's step op as (h, g or None) from (params, x, aspect, h_prev)
_STEPS = {
    "aspect": lambda p, x, a, h: aspect_gru_step(p, x, a, h),
    "dt": lambda p, x, a, h: (dt_gru_step(p, x, h), None),
    "gru": lambda p, x, a, h: (gru_step(p, x, h), None),
    "transition": lambda p, x, a, h: (transition_gru_step(p, h), None),
}
_TAGS = {"aspect": "aspect_step", "dt": "dt_step", "gru": "gru_step",
         "transition": "transition_step"}


def _rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _step_inputs(rng, kind, bias, B):
    p = CellParams.init(kind, 5, rng, d_x=4, d_a=4, bias=bias)
    if bias:
        p.bias[...] = rng.standard_normal(p.bias.shape)
    x, a, h = (Tensor(rng.standard_normal((n, B)), requires_grad=True) for n in (4, 4, 5))
    return p, x, a, h


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_fused_step_matches_the_per_gate_reference(rng, kind, bias, B):
    p, x, a, h = _step_inputs(rng, kind, bias, B)
    want_h, want_g = _reference_step(p, x.data, h.data, a.data)
    got_h, got_g = _STEPS[kind](p, x, a, h)
    assert _rel(got_h.data, want_h) <= 1e-13
    assert (got_g is None) == (want_g is None)
    if want_g is not None:
        assert _rel(got_g.data, want_g) <= 1e-13


@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_fused_step_is_one_tape_node(rng, kind):
    """Every parent is an operand or a gate leaf, and no_grad gives the same bits."""
    p, x, a, h = _step_inputs(rng, kind, True, 3)
    out, g = _STEPS[kind](p, x, a, h)
    assert out.op == _TAGS[kind]
    gates = set(map(id, p.tensors("").values()))
    assert all(q.op == "leaf" and (id(q) in gates or q in (x, h)) or q.op == "matmul"
               for q in out._parents)
    if g is not None:  # the relu gate is a constant: no loss reads it
        assert not g.requires_grad and g._parents == ()
    with no_grad():
        free, free_g = _STEPS[kind](p, x, a, h)
    assert np.array_equal(free.data, out.data) and free._parents == ()
    if g is not None:
        assert np.array_equal(free_g.data, g.data)


def test_aspect_gate_subgradient_at_zero_is_zero(rng):
    """The relu gate passes no gradient at or below its kink."""
    p = CellParams.init("aspect", 3, rng, d_x=2, d_a=2)
    p.w_hg.data[...] = 0.0  # the pre-activation is exactly the aspect projection
    x = _col(rng, 2)
    a_proj = Tensor(np.array([[-1.0], [0.0], [2.0]]), requires_grad=True)
    h, g = aspect_gru_step(p, x, None, _col(rng, 3), a_proj)
    assert np.array_equal(g.data[:, 0], [0.0, 0.0, 2.0])
    grad = backward(h.sum(), params=[a_proj])[a_proj]
    assert np.array_equal(grad[:2, 0], [0.0, 0.0]) and grad[2, 0] != 0.0


def test_relu_kink_margin_reads_the_aspect_gate_preactivation(rng):
    p = CellParams.init("aspect", 3, rng, d_x=2, d_a=2)
    p.w_hg.data[...] = 0.0
    a_proj = Tensor(np.array([[0.5, -2.0], [1e-9, 3.0], [-1.5, 0.7]]), requires_grad=True)
    h, _ = aspect_gru_step(p, _col(rng, 2, B=2), None, _col(rng, 3, B=2), a_proj)
    assert relu_kink_margin((h * h).sum()) <= 1e-9
    a_proj.data[1, 0] = 0.25
    h, _ = aspect_gru_step(p, _col(rng, 2, B=2), None, _col(rng, 3, B=2), a_proj)
    assert relu_kink_margin((h * h).sum()) == 0.25
    t = transition_gru_step(CellParams.init("transition", 3, rng), h)
    assert relu_kink_margin(t.sum()) == 0.25  # found through a smooth op above it


# -- stacked storage -------------------------------------------------------------


def test_gates_are_row_blocks_of_their_stacks(rng):
    for kind, (draw, rows, biases) in CELL_KINDS.items():
        p = CellParams.init(kind, 3, rng, d_x=2, d_a=4, bias=True)
        for op, names in rows.items():
            stack = p.stacks[op]
            assert stack.shape[0] == 3 * len(names)
            for i, name in enumerate(names):
                assert np.shares_memory(getattr(p, name).data, stack)
                assert np.array_equal(getattr(p, name).data, stack[3 * i : 3 * i + 3])
        for i, name in enumerate(biases):
            assert np.shares_memory(getattr(p, name).data, p.bias)
        assert tuple(p.tensors("")) == draw + biases


@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_step_refuses_a_gate_rebound_out_of_its_stack(rng, kind):
    p, x, a, h = _step_inputs(rng, kind, False, 2)
    name = CELL_KINDS[kind][1]["h"][0]
    getattr(p, name).data = getattr(p, name).data.copy()
    with pytest.raises(ValueError, match=f"{name} no longer views its stacked weights"):
        _STEPS[kind](p, x, a, h)


@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_gate_gradients_of_one_cell_never_overlap(rng, kind):
    """clip_global_norm scales each gradient in place, so none may alias another."""
    p, x, a, h = _step_inputs(rng, kind, True, 3)
    params = list(p.tensors("").values())
    out, _ = _STEPS[kind](p, x, a, h)
    grads = list(backward((out * out).sum(), params).values())
    for i, gi in enumerate(grads):
        for gj in grads[i + 1 :]:
            assert not np.shares_memory(gi, gj)


# -- gradient checks -----------------------------------------------------------


def _wide_params(kind, d_h, rng, **dims):
    return CellParams.init(kind, d_h, rng, dtype=CHECK_DTYPE, **dims)


def test_grad_aspect_gru_step(rng):
    p = _wide_params("aspect", 3, rng, d_x=2, d_a=2)
    x = _col(rng, 2, dtype=CHECK_DTYPE)
    a = _col(rng, 2, dtype=CHECK_DTYPE)
    h0 = _col(rng, 3, dtype=CHECK_DTYPE)
    tensors = list(p.tensors("").values())

    def f():
        h, _ = aspect_gru_step(p, x, a, h0)
        return (h * h).sum()

    assert grad_check(f, tensors, FD_EPS_CHECK) <= TOL_CHECK


def test_grad_transition_gru_step(rng):
    p = _wide_params("transition", 3, rng)
    h0 = Tensor(_col(rng, 3).data.astype(CHECK_DTYPE), requires_grad=True)

    def f():
        out = transition_gru_step(p, h0)
        return (out * out).sum()

    assert grad_check(f, [*p.tensors("").values(), h0], FD_EPS_CHECK) <= TOL_CHECK


def test_grad_dt_cell_step(rng):
    p = _wide_params("dt", 3, rng, d_x=2)
    x = _col(rng, 2, dtype=CHECK_DTYPE)
    h0 = _col(rng, 3, dtype=CHECK_DTYPE)

    def f():
        out = dt_gru_step(p, x, h0)
        return (out * out).sum()

    assert grad_check(f, list(p.tensors("").values()), FD_EPS_CHECK) <= TOL_CHECK


def test_grad_gru_step(rng):
    p = _wide_params("gru", 3, rng, d_x=2)
    x = _col(rng, 2, dtype=CHECK_DTYPE)
    h0 = _col(rng, 3, dtype=CHECK_DTYPE)

    def f():
        out = gru_step(p, x, h0)
        return (out * out).sum()

    assert grad_check(f, list(p.tensors("").values()), FD_EPS_CHECK) <= TOL_CHECK


def test_grad_depth2_block_over_three_steps(rng):
    block = DeepTransitionBlock.init(3, 2, 2, depth=2, rng=rng, dtype=CHECK_DTYPE)
    emb = (rng.random((3, 2)) - 0.5).astype(CHECK_DTYPE)
    aspect = Tensor((rng.random((2, 1)) - 0.5).astype(CHECK_DTYPE))
    tensors = list(block.tensors("").values())

    def f():
        states, _ = run_block_batch(block, _steps(emb), aspect, np.ones((1, 3)))
        return (states[-1] * states[-1]).sum() + states[0].sum()

    assert grad_check(f, tensors, FD_EPS_CHECK) <= TOL_CHECK


def test_grad_bias_terms_flow(rng):
    p = CellParams.init("aspect", 3, rng, d_x=2, d_a=2, dtype=CHECK_DTYPE, bias=True)
    # move biases off zero so the check probes a generic point
    for name in ("b_r", "b_z", "b_l", "b_g", "b_h"):
        getattr(p, name).data[...] = (rng.random((3, 1)) - 0.5).astype(CHECK_DTYPE)
    x = _col(rng, 2, dtype=CHECK_DTYPE)
    a = _col(rng, 2, dtype=CHECK_DTYPE)
    h0 = _col(rng, 3, dtype=CHECK_DTYPE)

    def f():
        h, _ = aspect_gru_step(p, x, a, h0)
        return (h * h).sum()

    biases = [p.b_r, p.b_z, p.b_l, p.b_g, p.b_h]
    assert grad_check(f, biases, FD_EPS_CHECK) <= TOL_CHECK


def test_bias_off_by_default(rng):
    p = CellParams.init("aspect", 3, rng, d_x=2, d_a=2)
    assert not any(k.startswith("b_") for k in p.tensors(""))
    q = CellParams.init("aspect", 3, rng, d_x=2, d_a=2, bias=True)
    assert {"b_r", "b_z", "b_l", "b_g", "b_h"} <= set(q.tensors(""))


# -- sequence encoding and masking ---------------------------------------------


def test_masked_suffix_carries_state_bit_identically(rng):
    block = DeepTransitionBlock.init(5, 3, 3, depth=2, rng=rng)
    emb = rng.standard_normal((4, 3))
    aspect = Tensor(rng.standard_normal((3, 1)))
    short, _ = run_block_batch(block, _steps(emb[:2]), aspect, np.ones((1, 2)))
    padded = np.vstack([emb[:2], np.zeros((2, 3))])
    long, _ = run_block_batch(block, _steps(padded), aspect, np.array([[1, 1, 0, 0]]))
    assert np.array_equal(short[-1].data, long[-1].data)
    assert np.array_equal(long[2].data, long[1].data)  # carried through
    assert np.array_equal(long[3].data, long[1].data)


def test_nonmonotone_mask_rejected(rng):
    block = DeepTransitionBlock.init(4, 3, 3, depth=1, rng=rng)
    emb = rng.standard_normal((3, 3))
    with pytest.raises(ValueError, match="monotone"):
        run_block_batch(
            block, _steps(emb), Tensor(rng.standard_normal((3, 1))), np.array([[1, 0, 1]])
        )


def test_empty_sequence_encodes_to_nothing(rng):
    block = DeepTransitionBlock.init(4, 3, 3, depth=2, rng=rng)
    states, gates = run_block_batch(block, [], Tensor(np.zeros((3, 1))), np.zeros((1, 0)))
    assert states == [] and gates == []


def test_batch_matches_single_sequences(rng):
    """Packing sequences into columns reproduces per-sequence encodings."""
    block = DeepTransitionBlock.init(5, 3, 3, depth=3, rng=rng)
    lens = [4, 2, 3]
    seqs = [rng.standard_normal((n, 3)) for n in lens]
    aspects = [rng.standard_normal(3) for _ in lens]
    T = max(lens)
    B = len(lens)
    steps = []
    for t in range(T):
        cols = np.zeros((3, B))
        for i, s in enumerate(seqs):
            if t < lens[i]:
                cols[:, i] = s[t]
        steps.append(Tensor(cols))
    mask = np.array([[1] * n + [0] * (T - n) for n in lens])
    a_cols = Tensor(np.stack(aspects, axis=1))
    states, _ = run_block_batch(block, steps, a_cols, mask)
    for i, (seq, asp, n) in enumerate(zip(seqs, aspects, lens)):
        solo, _ = run_block_batch(block, _steps(seq), Tensor(asp[:, None]), np.ones((1, n)))
        assert np.allclose(states[-1].data[:, i], solo[-1].data[:, 0], rtol=1e-10, atol=1e-12)


def _run_stack(blocks, steps, mask):
    for block in blocks:
        steps, gates = run_block_batch(block, steps, None, mask)
    return steps, gates


def test_stacked_gru_encode_shapes_and_masking(rng):
    """The GRU baseline is one-cell blocks run one after another."""
    layers = [
        DeepTransitionBlock(CellParams.init("gru", 4, rng, d_x=3), ()),
        DeepTransitionBlock(CellParams.init("gru", 4, rng, d_x=4), ()),
    ]
    emb = rng.standard_normal((5, 3))
    states, gates = _run_stack(layers, _steps(emb), np.ones((1, 5)))
    assert len(states) == 5 and states[0].shape == (4, 1)
    assert gates == [None] * 5
    short, _ = _run_stack(layers, _steps(emb[:3]), np.ones((1, 3)))
    padded, _ = _run_stack(layers, _steps(emb), np.array([[1, 1, 1, 0, 0]]))
    assert np.array_equal(short[-1].data, padded[-1].data)
    # one layer is one gru_step per token from a zero state
    h = Tensor(np.zeros((4, 1)))
    for x in _steps(emb[:2]):
        h = gru_step(layers[0].first, x, h)
    first, _ = run_block_batch(layers[0], _steps(emb[:2]), None, np.ones((1, 2)))
    assert np.array_equal(first[-1].data, h.data)


# -- properties -------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transition_step_is_a_contraction_toward_unit_box(seed):
    """Each coordinate of the output is a convex mix of h and tanh(...)."""
    r = np.random.default_rng(seed)
    p = CellParams.init("transition", 6, r)
    h = Tensor(r.standard_normal((6, 1)) * 3)
    out = transition_gru_step(p, h)
    bound = np.maximum(np.abs(h.data), 1.0)
    assert np.all(np.abs(out.data) <= bound + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_block_state_bounded_without_linear_bypass(seed, depth):
    """Zeroing both bypass paths leaves a pure tanh candidate, so |h| <= 1."""
    r = np.random.default_rng(seed)
    block = DeepTransitionBlock.init(4, 3, 3, depth=depth, rng=r)
    block.first.w_lin1.data[...] = 0.0
    block.first.w_lin2.data[...] = 0.0
    emb = r.standard_normal((6, 3))
    aspect = Tensor(r.standard_normal((3, 1)))
    states, _ = run_block_batch(block, _steps(emb), aspect, np.ones((1, 6)))
    for s in states:
        assert np.all(np.abs(s.data) <= 1.0 + 1e-12)
