"""Recurrent cells: step math, block composition, padding, gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspectgate.cells as cells_mod
import aspectgate.threads as threads_mod
from aspectgate.cells import (
    CELL_KINDS,
    CellParams,
    aspect_gru_step,
    dt_gru_step,
    gate_arrays,
    gru_step,
    init_block,
    run_block_batch,
    transition_gru_step,
    validate_mask,
)
from aspectgate.tensor import (
    CHECK_DTYPE,
    ShapeError,
    Tensor,
    _node,
    backward,
    grad_check,
    iter_nodes,
    no_grad,
    relu_kink_margin,
)
from conftest import FD_EPS_CHECK, TOL_CHECK, weighted_sum


def _zero_params(params) -> None:
    for t in params.tensors("").values():
        t.data[...] = 0.0


def _col(rng, d, B=1, dtype=np.float64):
    return ((rng.random((d, B)) - 0.5)).astype(dtype)


def _seq(emb: np.ndarray, grad=False) -> Tensor:
    """(T, d) token rows as a step-major (T, d, 1) input: one sequence as a batch of one."""
    return Tensor(np.ascontiguousarray(emb[:, :, None]), requires_grad=grad)


def _xp(p, rows):
    """The token projection of (n, d_x) batch-major token rows, one GEMM as the
    block computes it before its time loop: row i is token i's (rows,) slice."""
    return rows @ p.stacks["x"].data.T


def _only(kind, rng, dtype=np.float64, bias=False, d_h=5, d_x=4) -> tuple[CellParams, ...]:
    """A block whose cell of ``kind`` is the one under test: its first cell,
    or for a transition its second, after an aspect-free input cell."""
    p = CellParams.init(kind, d_h, rng, d_x=d_x, d_a=d_x, dtype=dtype, bias=bias)
    if kind != "transition":
        return (p,)
    first = CellParams.init("dt", d_h, rng, d_x=d_x, dtype=dtype, bias=bias)
    return (first, p)


def _params(block) -> list[Tensor]:
    """Every cell's stacks, in block order: the block op's parents after its operands."""
    return [t for cell in block for t in cell.tensors("").values()]


# -- frozen step behavior ------------------------------------------------------


def test_aspect_gru_all_zero_weights_fixed_point(rng):
    p = CellParams.init("aspect", 4, rng, d_x=3, d_a=3)
    _zero_params(p)
    x, a = _col(rng, 3), _col(rng, 3)
    h, g, _ = aspect_gru_step(p, _xp(p, x.T).T, np.zeros((4, 1)), p.stacks["a"].data @ a)
    assert np.array_equal(h, np.zeros((4, 1)))
    assert np.array_equal(g, np.zeros((4, 1)))


def test_aspect_gru_dead_gate_reduces_to_ungated_paths(rng):
    """With w_a and w_hg zero the relu gate is 0, killing both of its paths."""
    p = CellParams.init("aspect", 4, rng, d_x=3, d_a=3)
    w = gate_arrays(p)
    w["w_a"][...] = 0.0
    w["w_hg"][...] = 0.0
    x, a, h_prev = _col(rng, 3), _col(rng, 3), _col(rng, 4)
    h, g, _ = aspect_gru_step(p, _xp(p, x.T).T, h_prev, p.stacks["a"].data @ a)
    assert np.array_equal(g, np.zeros((4, 1)))

    def s(v):
        return 1.0 / (1.0 + np.exp(-v))

    r = s(w["w_xr"] @ x + w["w_hr"] @ h_prev)
    z = s(w["w_xz"] @ x + w["w_hz"] @ h_prev)
    l = s(w["w_xl"] @ x + w["w_hl"] @ h_prev)
    cand = np.tanh(r * (w["w_hh"] @ h_prev)) + l * (w["w_lin1"] @ x)
    expected = (1 - z) * h_prev + z * cand
    assert np.allclose(h, expected, rtol=1e-12, atol=1e-14)


def test_aspect_gru_ignores_aspect_when_projection_is_zero(rng):
    block = _only("aspect", rng, d_h=4, d_x=3)
    block[0].stacks["a"].data[...] = 0.0
    x = _seq(rng.standard_normal((3, 3)))
    h1, _ = run_block_batch(block, x, Tensor(_col(rng, 3)), np.array([3]))
    h2, _ = run_block_batch(block, x, Tensor(_col(rng, 3)), np.array([3]))
    assert np.array_equal(h1.data, h2.data)


def test_transition_gru_zero_weights_halves_state(rng):
    p = CellParams.init("transition", 4, rng)
    _zero_params(p)
    h = _col(rng, 4)
    out, _, _ = transition_gru_step(p, None, h)
    assert np.allclose(out, 0.5 * h, rtol=0, atol=1e-15)


def test_block_depth_one_is_just_the_input_cell(rng):
    block = init_block("aspect", 4, 3, 3, 1, rng)
    assert len(block) == 1
    emb, a = rng.standard_normal((2, 3)), _col(rng, 3)
    states, gates = run_block_batch(block, _seq(emb), Tensor(a), np.array([2]))
    p, h = block[0], np.zeros((4, 1))
    X = _xp(p, emb)
    for t in range(2):
        h, g, _ = aspect_gru_step(p, X[t][:, None], h, p.stacks["a"].data @ a)
        assert np.array_equal(states.data[t], h)
        assert np.array_equal(gates[t], g)


def test_block_transitions_compose(rng):
    block = init_block("aspect", 4, 3, 3, 3, rng)
    for cell in block[1:]:
        _zero_params(cell)
    emb, a = rng.standard_normal((1, 3)), _col(rng, 3)
    p = block[0]
    a_proj = p.stacks["a"].data @ a
    first, _, _ = aspect_gru_step(p, _xp(p, emb)[0][:, None], np.zeros((4, 1)), a_proj)
    states, _ = run_block_batch(block, _seq(emb), Tensor(a), np.array([1]))
    # two zeroed transition cells each halve the state
    assert np.allclose(states.data[0], 0.25 * first, rtol=0, atol=1e-15)


def test_block_depth_validation(rng):
    with pytest.raises(ValueError):
        init_block("aspect", 4, 3, 3, 0, rng)


def test_dt_cell_has_no_aspect_surface(rng):
    block = init_block("dt", 4, 3, 3, 2, rng)
    assert block[0].kind == "dt" and "a" not in block[0].stacks
    states, gates = run_block_batch(block, _seq(rng.standard_normal((2, 3))), None, np.array([2]))
    assert gates is None
    assert states.shape == (2, 4, 1)


def test_gate_ranges(rng):
    p = CellParams.init("aspect", 6, rng, d_x=4, d_a=4)
    x, h_prev, a = _col(rng, 4), _col(rng, 6), _col(rng, 4)
    h, g, _ = aspect_gru_step(p, _xp(p, x.T).T, h_prev, p.stacks["a"].data @ a)
    assert np.all(g >= 0)
    assert np.all(np.isfinite(h))


# -- steps and blocks against a per-gate reference ------------------------------


def _reference_step(p, x, h, a):
    """One step of any cell kind in plain numpy, gate by gate; returns (h, g or None)."""
    w = gate_arrays(p)

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


# each kind's numpy step as (h, g or None) from (params, x, aspect, h_prev)
_STEPS = {
    "aspect": lambda p, x, a, h: aspect_gru_step(p, _xp(p, x.T).T, h, p.stacks["a"].data @ a)[:2],
    "dt": lambda p, x, a, h: dt_gru_step(p, _xp(p, x.T).T, h)[:2],
    "gru": lambda p, x, a, h: gru_step(p, _xp(p, x.T).T, h)[:2],
    "transition": lambda p, x, a, h: transition_gru_step(p, None, h)[:2],
}


def _rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _step_inputs(rng, kind, bias, B):
    p = CellParams.init(kind, 5, rng, d_x=4, d_a=4, bias=bias)
    if bias:
        p.bias.data[...] = rng.standard_normal(p.bias.shape)
    x, a, h = (rng.standard_normal((n, B)) for n in (4, 4, 5))
    return p, x, a, h


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_fused_step_matches_the_per_gate_reference(rng, kind, bias, B):
    p, x, a, h = _step_inputs(rng, kind, bias, B)
    want_h, want_g = _reference_step(p, x, h, a)
    got_h, got_g = _STEPS[kind](p, x, a, h)
    assert _rel(got_h, want_h) <= 1e-13
    assert (got_g is None) == (want_g is None)
    if want_g is not None:
        assert _rel(got_g, want_g) <= 1e-13


_LENGTHS = np.array([3, 2])  # over T=3 steps: the second column pads its last step


def _padded_case(rng, kind, dtype=np.float64):
    """A depth-2 block with biases off zero over a padded B=2 batch, input and aspect on the tape."""
    block = init_block("aspect" if kind == "aspect" else "dt", 3, 2, 2, 2, rng, dtype, bias=True)
    if kind == "gru":
        block = (CellParams.init("gru", 3, rng, d_x=2, dtype=dtype, bias=True), *block[1:])
    for cell in block:
        cell.bias.data[...] = (rng.random(cell.bias.shape) - 0.5).astype(dtype)
    x = Tensor((rng.random((3, 2, 2)) - 0.5).astype(dtype), requires_grad=True)
    aspect = Tensor((rng.random((2, 2)) - 0.5).astype(dtype), requires_grad=True)
    return block, x, aspect if kind == "aspect" else None


@pytest.mark.parametrize("kind", ["aspect", "dt", "gru"])
def test_block_matches_the_per_gate_reference_over_a_padded_batch(rng, kind):
    """Real cells match the reference, and a padded step's state and gates are 0."""
    block, x, aspect = _padded_case(rng, kind)
    states, gates = run_block_batch(block, x, aspect, _LENGTHS)
    h = np.zeros((3, 2))
    for t in range(3):
        real = t < _LENGTHS
        new, g = _reference_step(block[0], x.data[t], h, None if aspect is None else aspect.data)
        new, _ = _reference_step(block[1], None, new, None)
        assert _rel(states.data[t][:, real], new[:, real]) <= 1e-13
        assert np.all(states.data[t][:, ~real] == 0.0)
        if g is not None:
            assert _rel(gates[t][:, real], g[:, real]) <= 1e-13
            assert np.all(gates[t][:, ~real] == 0.0)
        h = states.data[t]


@pytest.mark.parametrize("kind", ["aspect", "dt", "gru"])
def test_a_padded_step_takes_no_gradient(rng, kind):
    """A padded step's state is a constant 0, so a loss on the padded steps
    alone reaches no weight, input or aspect."""
    block, x, aspect = _padded_case(rng, kind)
    states, _ = run_block_batch(block, x, aspect, _LENGTHS)
    w = np.broadcast_to(np.arange(3)[:, None, None] >= _LENGTHS, states.shape).astype(states.dtype)
    loss = _node(np.asarray((states.data * w).sum()), (states,), lambda g: (w * g,), "padded")
    tensors = [*_params(block), x, *([] if aspect is None else [aspect])]
    assert not any(np.any(g) for g in backward(loss, tensors).values())


@pytest.mark.parametrize("kind", ["aspect", "dt", "gru"])
def test_block_over_distinct_ids_is_the_per_cell_block(rng, kind):
    """Input rows that are equal where their (T, B) ids are: projecting each
    distinct id once gives the per-cell projection's states, gates and
    gradients, taped and grad-free, over columns out of length order."""
    block, _, _ = _padded_case(rng, kind)
    lengths = np.array([3, 1, 2])
    ids = np.array([[4, 6, 4], [4, 0, 4], [6, 0, 0]])  # padded cells hold id 0
    x = (rng.random((8, 2))[ids] - 0.5).transpose(0, 2, 1)
    a = rng.random((2, 3)) - 0.5

    def run(ids):
        xt = Tensor(x, requires_grad=True)
        at = Tensor(a, requires_grad=True) if kind == "aspect" else None
        states, gates = run_block_batch(block, xt, at, lengths, ids)
        with no_grad():
            free, free_gates = run_block_batch(block, xt, at, lengths, ids)
        assert np.array_equal(free.data, states.data)
        assert (gates is None) == (kind != "aspect")
        if gates is not None:
            assert np.array_equal(free_gates, gates)
        tensors = [xt, *([] if at is None else [at]), *_params(block)]
        grads = backward(weighted_sum(states, seed=1), tensors)
        return [states.data, *([] if gates is None else [gates]), *grads.values()]

    for got, want in zip(run(ids), run(None), strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    with pytest.raises(ShapeError, match="ids"):
        run(ids[:, :2])


@pytest.mark.parametrize("over_ids", [True, False])
def test_a_grad_free_block_keeps_no_step(rng, over_ids):
    """At the reference hidden 300 and depth 4, over a padded B=128, T=32
    batch, a grad-free forward's traced peak is its outputs, its token
    projection and a few steps' (B, rows) arrays: well under what keeping
    one (n_real, rows) projection of every real cell would take."""
    d, T, B = 300, 32, 128
    block = init_block("aspect", d, d, d, 4, rng)
    lengths = np.sort(rng.integers(T // 4, T + 1, B))
    real = np.arange(T)[:, None] < lengths
    ids = np.where(real, rng.integers(1, 500, (T, B)), 0)  # padded cells hold id 0
    x = Tensor(np.ascontiguousarray((rng.random((500, d)) - 0.5)[ids].transpose(0, 2, 1)))
    aspect = Tensor(rng.random((d, B)) - 0.5)
    with no_grad():
        run_block_batch(block, x, aspect, lengths, ids)  # BLAS's first-call buffers
        tracemalloc.start()
        try:
            run_block_batch(block, x, aspect, lengths, ids if over_ids else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rows = max(block[0].stacks["x"].shape[0], *(c.stacks["h"].shape[0] for c in block))
    projected = len(np.unique(ids[real])) if over_ids else real.sum()
    outputs = 2 * T * d * B  # the states and the relu gates
    # a step's gathered token rows, the state projections of the cell it runs
    # and of the one before, and the steps' (d, B) temporaries: six (B, rows) at most
    steps = 6 * B * rows
    assert 3 * steps < real.sum() * rows  # under a third of one per-cell projection
    assert peak < 8 * (outputs + projected * block[0].stacks["x"].shape[0] + steps)


def test_a_taped_backward_writes_its_gradients_over_the_saved_arrays(rng):
    """At the reference hidden 300 and depth 4, over a padded B=128, T=32
    batch, a taped backward allocates less than one (n_real, 8 d) array
    beyond what its forward left: each step's pre-activation gradients go
    over the arrays the forward saved, and are not a block-wide copy of
    the input cell's eight gate rows."""
    d, T, B = 300, 32, 128
    block = init_block("aspect", d, d, d, 4, rng)
    lengths = np.sort(rng.integers(T // 4, T + 1, B))
    x = Tensor(np.ascontiguousarray(rng.random((T, B, d)) - 0.5).transpose(0, 2, 1))
    aspect = Tensor(rng.random((d, B)) - 0.5)
    states, _ = run_block_batch(block, x, aspect, lengths)
    loss = weighted_sum(states)
    tracemalloc.start()
    try:
        backward(loss, _params(block))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the token rows and the state rows, which share the three sigmoid gates' rows
    width = block[0].stacks["x"].shape[0] + block[0].stacks["h"].shape[0] - 3 * d
    assert width == 8 * d
    assert peak < 8 * lengths.sum() * width


@pytest.mark.parametrize("d_h", [3, 300])
def test_only_a_block_worth_it_starts_helpers(rng, monkeypatch, thread_starts, d_h):
    """On two CPUs a taped block starts a helper for its forward and one for
    its backward only from ``_HELPER_MIN_WORK`` real cells times hidden
    width: a tiny block runs its halves in order, a block at the reference
    width starts both. Outputs and every gradient are the bits of one CPU
    either way."""
    T, B = 16, 24
    block = init_block("aspect", d_h, d_h, d_h, 4, rng, bias=True)
    lengths = np.sort(rng.integers(T // 2, T + 1, B))
    x = Tensor(rng.standard_normal((T, d_h, B)), requires_grad=True)
    aspect = Tensor(rng.standard_normal((d_h, B)), requires_grad=True)
    params = [x, aspect, *_params(block)]

    def run(cpus):
        monkeypatch.setattr(threads_mod, "usable_cpus", lambda: cpus)
        states, gates = run_block_batch(block, x, aspect, lengths)
        return [states.data, gates, *backward(weighted_sum(states, seed=1), params).values()]

    want = run(1)
    assert thread_starts == []
    got = run(2)
    worth = lengths.sum() * d_h >= cells_mod._HELPER_MIN_WORK
    assert worth == (d_h == 300)
    assert sorted(set(thread_starts)) == (
        ["aspectgate-bwd-1", "aspectgate-fwd-1"] if worth else [])
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_fused_step_is_one_tape_node(rng, kind):
    """A block over a padded batch is one node whose parents are its input, the
    aspect and every cell's stacks, and no_grad gives the same bits, gates included."""
    block = _only(kind, rng, bias=True)
    x = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
    aspect = Tensor(rng.standard_normal((4, 2))) if kind == "aspect" else None
    states, gates = run_block_batch(block, x, aspect, _LENGTHS)
    assert states.op == "block"
    operands = (x,) if aspect is None else (x, aspect)
    assert states._parents == (*operands, *_params(block))
    assert (gates is None) == (kind != "aspect")
    if gates is not None:  # the relu gate is a constant: no loss reads it
        assert not gates.flags.writeable
    with no_grad():
        free, free_gates = run_block_batch(block, x, aspect, _LENGTHS)
    assert np.array_equal(free.data, states.data) and free._parents == ()
    if gates is not None:
        assert np.array_equal(free_gates, gates)


def test_aspect_gate_subgradient_at_zero_is_zero(rng):
    """The relu gate passes no gradient at or below its kink."""
    block = _only("aspect", rng, d_h=3, d_x=3)
    # from the zero state the pre-activation is the aspect
    block[0].stacks["a"].data[...] = np.eye(3)
    aspect = Tensor(np.array([[-1.0], [0.0], [2.0]]), requires_grad=True)
    states, gates = run_block_batch(block, _seq(rng.standard_normal((1, 3))), aspect, np.array([1]))
    assert np.array_equal(gates[0][:, 0], [0.0, 0.0, 2.0])
    grad = backward(weighted_sum(states), params=[aspect])[aspect]
    assert np.array_equal(grad[:2, 0], [0.0, 0.0]) and grad[2, 0] != 0.0


def test_relu_kink_margin_reads_the_aspect_gate_preactivation(rng):
    block = init_block("aspect", 3, 2, 3, 2, rng)
    gate_arrays(block[0])["w_hg"][...] = 0.0  # every step's pre-activation is the aspect
    block[0].stacks["a"].data[...] = np.eye(3)
    aspect = Tensor(np.array([[0.5, -2.0], [1e-9, 3.0], [-1.5, 0.7]]), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 2, 2)))

    def margin():
        states, _ = run_block_batch(block, x, aspect, np.array([4, 4]))
        # found through the transition cell and a smooth op above the block
        return relu_kink_margin(weighted_sum(states))

    assert margin() <= 1e-9
    aspect.data[1, 0] = 0.25
    assert margin() == 0.25


# -- stacked storage -------------------------------------------------------------


def test_gates_are_row_blocks_of_their_stacks(rng):
    """The stacks are the parameters; the checkpoint's per-gate arrays are
    row blocks of them in ``CELL_KINDS`` row order."""
    for kind, (draw, rows, biases) in CELL_KINDS.items():
        p = CellParams.init(kind, 3, rng, d_x=2, d_a=4, bias=True)
        assert tuple(p.tensors("c0/")) == (*(f"c0/{op}" for op in rows), "c0/b")
        views = gate_arrays(p, "c0/")
        assert tuple(views) == tuple(f"c0/{name}" for name in draw + biases)
        for op, names in rows.items():
            stack = p.stacks[op].data
            assert stack.shape[0] == 3 * len(names)
            for i, name in enumerate(names):
                assert np.shares_memory(views[f"c0/{name}"], stack)
                assert np.array_equal(views[f"c0/{name}"], stack[3 * i : 3 * i + 3])
        for i, name in enumerate(biases):
            assert np.shares_memory(views[f"c0/{name}"], p.bias.data)
            assert np.array_equal(views[f"c0/{name}"], p.bias.data[3 * i : 3 * i + 3])


@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_gate_gradients_of_one_cell_never_overlap(rng, kind):
    """clip_global_norm scales each gradient in place, so none may alias another."""
    block = _only(kind, rng, bias=True)
    params = _params(block)
    aspect = Tensor(rng.standard_normal((4, 3))) if kind == "aspect" else None
    states, _ = run_block_batch(block, Tensor(rng.standard_normal((2, 4, 3))), aspect,
                                np.array([2, 2, 2]))
    grads = list(backward(weighted_sum(states, seed=0), params).values())
    for i, gi in enumerate(grads):
        for gj in grads[i + 1 :]:
            assert not np.shares_memory(gi, gj)


# -- gradient checks -----------------------------------------------------------


def _check_block(block, x, aspect, lengths, tensors):
    def f():
        states, _ = run_block_batch(block, x, aspect, lengths)
        return weighted_sum(states, seed=0)

    assert relu_kink_margin(f()) > 1e-3
    assert grad_check(f, tensors, FD_EPS_CHECK) <= TOL_CHECK


def test_grad_aspect_gru_step(rng):
    block = _only("aspect", rng, dtype=CHECK_DTYPE, d_h=3, d_x=2)
    x = _seq((rng.random((2, 2)) - 0.5).astype(CHECK_DTYPE))
    aspect = Tensor(_col(rng, 2, dtype=CHECK_DTYPE))
    _check_block(block, x, aspect, np.array([2]), _params(block))


def test_grad_transition_gru_step(rng):
    block = _only("transition", rng, dtype=CHECK_DTYPE, d_h=3, d_x=2)
    x = _seq((rng.random((2, 2)) - 0.5).astype(CHECK_DTYPE), grad=True)
    tensors = [*block[1].tensors("").values(), x]
    _check_block(block, x, None, np.array([2]), tensors)


def test_grad_dt_cell_step(rng):
    block = _only("dt", rng, dtype=CHECK_DTYPE, d_h=3, d_x=2)
    x = _seq((rng.random((2, 2)) - 0.5).astype(CHECK_DTYPE))
    _check_block(block, x, None, np.array([2]), _params(block))


def test_grad_gru_step(rng):
    block = _only("gru", rng, dtype=CHECK_DTYPE, d_h=3, d_x=2)
    x = _seq((rng.random((2, 2)) - 0.5).astype(CHECK_DTYPE), grad=True)
    _check_block(block, x, None, np.array([2]), [*_params(block), x])


def test_grad_depth2_block_over_three_steps(rng):
    block = init_block("aspect", 3, 2, 2, 2, rng, CHECK_DTYPE)
    x = _seq((rng.random((3, 2)) - 0.5).astype(CHECK_DTYPE))
    aspect = Tensor((rng.random((2, 1)) - 0.5).astype(CHECK_DTYPE))
    tensors = _params(block)

    def f():
        states, _ = run_block_batch(block, x, aspect, np.array([3]))
        return weighted_sum(states, seed=1)

    assert grad_check(f, tensors, FD_EPS_CHECK) <= TOL_CHECK


def test_grad_bias_terms_flow(rng):
    block = _only("aspect", rng, dtype=CHECK_DTYPE, bias=True, d_h=3, d_x=2)
    p = block[0]
    # move biases off zero so the check probes a generic point
    p.bias.data[...] = (rng.random((15, 1)) - 0.5).astype(CHECK_DTYPE)
    x = _seq((rng.random((2, 2)) - 0.5).astype(CHECK_DTYPE))
    aspect = Tensor(_col(rng, 2, dtype=CHECK_DTYPE))
    _check_block(block, x, aspect, np.array([2]), [p.bias])


def test_bias_off_by_default(rng):
    p = CellParams.init("aspect", 3, rng, d_x=2, d_a=2)
    assert p.bias is None and "b" not in p.tensors("")
    assert not any(k.startswith("b_") for k in gate_arrays(p))
    q = CellParams.init("aspect", 3, rng, d_x=2, d_a=2, bias=True)
    assert q.tensors("")["b"] is q.bias
    assert {"b_r", "b_z", "b_l", "b_g", "b_h"} <= set(gate_arrays(q))


# -- sequence encoding and padding ---------------------------------------------


def test_padded_steps_leave_the_real_prefix_bit_identical(rng):
    """Padding is never read: whatever its input, the real steps match the
    unpadded run bit for bit, and the padded states are 0."""
    block = init_block("aspect", 5, 3, 3, 2, rng)
    emb = rng.standard_normal((4, 3))
    aspect = Tensor(rng.standard_normal((3, 1)))
    short, _ = run_block_batch(block, _seq(emb[:2]), aspect, np.array([2]))
    long, _ = run_block_batch(block, _seq(emb), aspect, np.array([2]))
    assert np.array_equal(short.data, long.data[:2])
    assert np.all(long.data[2:] == 0.0)


def test_nonmonotone_mask_rejected():
    with pytest.raises(ValueError, match="monotone"):
        validate_mask(np.array([[1, 0, 1]]), 1, 3)
    with pytest.raises(ValueError, match="0 or 1"):
        validate_mask(np.array([[1, 2, 0]]), 1, 3)
    with pytest.raises(ShapeError):
        validate_mask(np.ones((1, 3)), 1, 4)


def test_validate_mask_returns_the_lengths():
    """The mask is read once, into each row's count of real tokens; a row
    without one is refused there, before anything encodes it."""
    lengths = validate_mask(np.array([[1, 1, 0], [1, 1, 1], [1, 0, 0]]), 3, 3)
    assert lengths.tolist() == [2, 3, 1]
    with pytest.raises(ValueError, match="no real tokens"):
        validate_mask(np.array([[1, 1], [0, 0]]), 2, 2)


def test_block_refuses_an_aspect_that_does_not_fit(rng):
    """No broadcasting: an aspect batch of the wrong width, batch or dtype is refused."""
    block = init_block("aspect", 4, 3, 3, 1, rng)
    x = Tensor(rng.standard_normal((2, 3, 2)))
    for bad in (np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((3, 2), dtype=CHECK_DTYPE)):
        with pytest.raises(ShapeError, match="aspect is"):
            run_block_batch(block, x, Tensor(bad), np.array([2, 2]))


def test_empty_sequence_encodes_to_nothing(rng):
    block = init_block("aspect", 4, 3, 3, 2, rng)
    states, gates = run_block_batch(block, Tensor(np.zeros((0, 3, 1))), Tensor(np.zeros((3, 1))),
                                    np.array([0]))
    assert states.shape == gates.shape == (0, 4, 1)


def test_batch_matches_single_sequences(rng):
    """Packing sequences into columns reproduces per-sequence encodings."""
    block = init_block("aspect", 5, 3, 3, 3, rng)
    lens = [4, 2, 3]
    seqs = [rng.standard_normal((n, 3)) for n in lens]
    aspects = [rng.standard_normal(3) for _ in lens]
    T = max(lens)
    B = len(lens)
    x = np.zeros((T, 3, B))
    for i, s in enumerate(seqs):
        x[: lens[i], :, i] = s
    a_cols = Tensor(np.stack(aspects, axis=1))
    states, _ = run_block_batch(block, Tensor(x), a_cols, np.array(lens))
    for i, (seq, asp, n) in enumerate(zip(seqs, aspects, lens)):
        solo, _ = run_block_batch(block, _seq(seq), Tensor(asp[:, None]), np.array([n]))
        assert np.allclose(states.data[:n, :, i], solo.data[..., 0], rtol=1e-10, atol=1e-12)


def _run_stack(blocks, x, lengths):
    for block in blocks:
        x, gates = run_block_batch(block, x, None, lengths)
    return x, gates


def test_stacked_gru_encode_shapes_and_masking(rng):
    """The GRU baseline is one-cell blocks run one after another."""
    layers = [
        (CellParams.init("gru", 4, rng, d_x=3),),
        (CellParams.init("gru", 4, rng, d_x=4),),
    ]
    emb = rng.standard_normal((5, 3))
    states, gates = _run_stack(layers, _seq(emb), np.array([5]))
    assert states.shape == (5, 4, 1)
    assert gates is None
    short, _ = _run_stack(layers, _seq(emb[:3]), np.array([3]))
    padded, _ = _run_stack(layers, _seq(emb), np.array([3]))
    assert np.array_equal(short.data, padded.data[:3])
    assert np.all(padded.data[3:] == 0.0)
    # one layer is one gru_step per token from a zero state
    p, h = layers[0][0], np.zeros((4, 1))
    X = _xp(p, emb[:2])
    for t in range(2):
        h, _, _ = gru_step(p, X[t][:, None], h)
    first, _ = run_block_batch(layers[0], _seq(emb[:2]), None, np.array([2]))
    assert np.array_equal(first.data[-1], h)
    # one node: the block, its input and its weights
    assert len(list(iter_nodes(first))) == 2 + len(p.tensors(""))


# -- properties -------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transition_step_is_a_contraction_toward_unit_box(seed):
    """Each coordinate of the output is a convex mix of h and tanh(...)."""
    r = np.random.default_rng(seed)
    p = CellParams.init("transition", 6, r)
    h = r.standard_normal((6, 1)) * 3
    out, _, _ = transition_gru_step(p, None, h)
    bound = np.maximum(np.abs(h), 1.0)
    assert np.all(np.abs(out) <= bound + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_block_state_bounded_without_linear_bypass(seed, depth):
    """Zeroing both bypass paths leaves a pure tanh candidate, so |h| <= 1."""
    r = np.random.default_rng(seed)
    block = init_block("aspect", 4, 3, 3, depth, r)
    w = gate_arrays(block[0])
    w["w_lin1"][...] = 0.0
    w["w_lin2"][...] = 0.0
    aspect = Tensor(r.standard_normal((3, 1)))
    states, _ = run_block_batch(block, _seq(r.standard_normal((6, 3))), aspect, np.array([6]))
    assert np.all(np.abs(states.data) <= 1.0 + 1e-12)
