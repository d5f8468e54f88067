"""Tape, operations, backward, and the finite-difference oracle.

Expected values here are computed with plain ``math`` formulas, written
before the implementation and kept independent of it. Scalar losses are
built with the test-side ``weighted_sum`` node.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectgate.cells import affine
from aspectgate.tensor import (
    CHECK_DTYPE,
    POOLING_MODES,
    RECON_XENTS,
    ShapeError,
    Tensor,
    backward,
    concat,
    dropout,
    grad_check,
    iter_nodes,
    joint_loss,
    no_grad,
    pool_columns,
    sigmoid_xent_logits,
    softmax_xent_logits,
    _sigmoid,
)
from conftest import FD_EPS_CHECK, TOL_CHECK, weighted_sum, wide


def _weights(seed, *shapes):
    """The fixed weightings ``weighted_sum(..., seed=seed)`` draws for operands of ``shapes``."""
    r = np.random.default_rng(seed)
    return [r.uniform(0.5, 1.5, shape) for shape in shapes]


# -- oracle self-tests -------------------------------------------------------


def test_fd_oracle_on_sum_of_squares(rng):
    """Central differences are near-exact on a cubic-free polynomial: a fixed
    weighting of the entries of P @ P."""
    point = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    err = grad_check(lambda: weighted_sum(affine(point, point, None), seed=0), [point],
                     epsilon=1e-5)
    assert err <= 1e-7


def test_fd_oracle_on_constant_function(rng):
    point = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
    zero = Tensor(np.zeros((2, 4)))
    err = grad_check(lambda: weighted_sum(affine(zero, point, None), seed=0), [point])
    assert err <= 1e-8


# -- frozen forward values ---------------------------------------------------


def test_affine_values():
    """One node over its operands, the (B, C) transpose of w @ x plus the bias column."""
    w = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    x = Tensor([[5.0, 6.0], [7.0, 8.0]])
    b = Tensor([[0.5], [-1.0]], requires_grad=True)
    assert np.array_equal(affine(w, x, None).data, [[19.0, 43.0], [22.0, 50.0]])
    out = affine(w, x, b)
    assert np.array_equal(out.data, [[19.5, 42.0], [22.5, 49.0]])
    assert out.op == "affine" and out._parents == (w, x, b)


def test_scalar_broadcast_is_the_only_broadcast():
    """The scalar lam spreads over the reconstruction term and its rows; no array
    operand broadcasts against another."""
    z = Tensor([[0.0, 0.0]], requires_grad=True)
    rz = Tensor([[0.0, 0.0, 0.0]], requires_grad=True)
    loss, ce, rec = joint_loss(z, np.eye(2)[[0]], rz, np.zeros((1, 3)), 2.0, "sigmoid")
    assert abs(ce - math.log(2.0)) < 1e-15 and abs(rec - 3.0 * math.log(2.0)) < 1e-15
    assert loss.data == ce + 2.0 * rec
    grads = backward(loss, params=[rz])
    assert np.array_equal(grads[rz], [[1.0, 1.0, 1.0]])  # 2.0 * (sigmoid(0) - 0)
    with pytest.raises(ShapeError):
        affine(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 1))), Tensor(np.zeros(3)))  # (3,) vs (3, 1)
    with pytest.raises(ShapeError):
        joint_loss(z, np.eye(2)[[0]], Tensor(np.zeros((2, 3))), np.zeros((2, 3)), 2.0, "sigmoid")


def test_softmax_xent_value_matches_direct_formula():
    logits = np.array([[1.0, 2.0, 3.0]])
    onehot = np.array([[0.0, 0.0, 1.0]])
    expected = math.log(math.e + math.e**2 + math.e**3) - 3.0
    got = softmax_xent_logits(logits, onehot)[0][0]
    assert abs(got - expected) < 1e-12


def test_softmax_xent_extreme_logits_finite():
    loss = softmax_xent_logits(
        np.array([[1000.0, 0.0, -1000.0]]), np.array([[1.0, 0.0, 0.0]])
    )[0][0]
    assert math.isfinite(loss)
    assert abs(loss) < 1e-12


def test_sigmoid_xent_value_matches_direct_formula():
    loss = sigmoid_xent_logits(np.array([[0.5, -0.5]]), np.array([[1.0, 0.0]]))[0][0]
    expected = 2.0 * math.log(1.0 + math.exp(-0.5))
    assert abs(loss - expected) < 1e-12


def test_sigmoid_xent_extreme_logits_finite():
    loss = sigmoid_xent_logits(np.array([[800.0, -800.0]]), np.array([[0.0, 1.0]]))[0][0]
    assert math.isfinite(loss)
    assert abs(loss - 1600.0) < 1e-9


def test_batched_losses_are_rows():
    z = np.array([[1.0, 2.0], [3.0, -1.0]])
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    row, _ = softmax_xent_logits(z, y)
    assert row.shape == (2,)
    a = softmax_xent_logits(np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]]))[0][0]
    b = softmax_xent_logits(np.array([[3.0, -1.0]]), np.array([[0.0, 1.0]]))[0][0]
    assert np.allclose(row, [a, b], rtol=0, atol=1e-15)


def test_joint_loss_is_one_node_over_the_logits():
    z = Tensor([[1.0, 2.0], [3.0, -1.0]], requires_grad=True)
    rz = Tensor([[0.5, -0.5, 2.0], [0.0, 1.0, -1.0]], requires_grad=True)
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    cats = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    loss, ce, recon = joint_loss(z, labels, rz, cats, 0.4, "softmax")
    assert loss.op == "joint_loss" and loss._parents == (z, rz) and loss.shape == ()
    assert ce == softmax_xent_logits(z.data, labels)[0].mean()
    assert recon == softmax_xent_logits(rz.data, cats)[0].mean()
    assert loss.item() == ce + recon * 0.4
    off, ce_off, recon_off = joint_loss(z, labels, None, None, 0.4, "softmax")
    assert off._parents == (z,) and off.item() == ce_off == ce and recon_off == 0.0


def test_loss_target_validation():
    """The targets' refusals, the shapes' and the reconstruction loss's name."""
    z = Tensor([[1.0, 2.0]])
    for bad in ([[0.5, 0.5]], [[1.0, 1.0]], [[0.0, 0.0]]):
        with pytest.raises(ValueError, match="one-hot"):
            joint_loss(z, np.array(bad), None, None, 0.4, "softmax")
        with pytest.raises(ValueError, match="one-hot"):
            joint_loss(z, np.array([[1.0, 0.0]]), z, np.array(bad), 0.4, "softmax")
    with pytest.raises(ValueError, match="0 or 1"):
        joint_loss(z, np.array([[1.0, 0.0]]), z, np.array([[0.0, 0.3]]), 0.4, "sigmoid")
    with pytest.raises(ValueError, match="unknown"):
        joint_loss(z, np.array([[1.0, 0.0]]), z, np.array([[0.0, 1.0]]), 0.4, "hinge")
    with pytest.raises(ShapeError, match="batch"):
        joint_loss(z, np.array([[1.0, 0.0]]), Tensor(np.zeros((2, 2))), np.eye(2), 0.4, "softmax")
    with pytest.raises(ShapeError, match="empty"):
        joint_loss(Tensor(np.zeros((0, 2))), np.zeros((0, 2)), None, None, 0.4, "softmax")
    for xent in RECON_XENTS:
        for shape in [(2,), (1, 2, 2), (2, 0)]:  # (B, C) rows with C >= 1 only
            with pytest.raises(ShapeError):
                joint_loss(Tensor(np.zeros(shape)), np.zeros(shape), None, None, 0.4, xent)
            with pytest.raises(ShapeError):
                joint_loss(z, np.array([[1.0, 0.0]]), Tensor(np.zeros(shape)), np.zeros(shape),
                           0.4, xent)


# -- structural ops ----------------------------------------------------------


def test_concat_and_backward_split(rng):
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    out = concat(a, b)
    assert out.shape == (6, 3)
    g = backward(weighted_sum(out, seed=0), params=[a, b])
    (w,) = _weights(0, (6, 3))
    assert np.array_equal(g[a], w[:2]) and np.array_equal(g[b], w[2:])
    with pytest.raises(ShapeError):
        concat(a, Tensor(rng.standard_normal((4, 2))))
    with pytest.raises(ShapeError):
        concat(Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3)))


# a padded (T, d, B) = (3, 2, 3) batch whose columns are out of length order
_POOL_LENGTHS = np.array([2, 3, 1])
_POOL_PADDED = np.arange(3)[:, None] >= _POOL_LENGTHS  # (T, B)


def test_pool_columns_values_against_a_loop(rng):
    """Pooling never reads a padded step: with NaN there, every mode equals
    a loop over each column's real steps, and the padded gradient is 0."""
    x = rng.standard_normal((3, 2, 3))
    x.transpose(0, 2, 1)[_POOL_PADDED] = np.nan
    for mode in POOLING_MODES:
        states = Tensor(x, requires_grad=True)
        out = pool_columns(states, _POOL_LENGTHS, mode)
        for j, n in enumerate(_POOL_LENGTHS):
            real = x[:n, :, j]
            want = {"last": real[-1], "max": real.max(axis=0), "mean": real.sum(axis=0) / n}
            assert np.allclose(out.data[:, j], want[mode], rtol=1e-15, atol=0), mode
        g = backward(weighted_sum(out), params=[states])[states]
        assert np.all(g.transpose(0, 2, 1)[_POOL_PADDED] == 0.0), mode


def test_max_pool_ties_route_to_the_earliest_step():
    # (T, d, B) = (4, 1, 1); the padded step 3 never counts, however large
    x = Tensor(np.array([1.0, 5.0, 5.0, 7.0])[:, None, None], requires_grad=True)
    out = pool_columns(x, np.array([3]), "max")
    assert out.data[0, 0] == 5.0
    g = backward(weighted_sum(out), params=[x])[x]
    assert np.array_equal(g[:, 0, 0], [0.0, 1.0, 0.0, 0.0])


# -- backward mechanics ------------------------------------------------------


def test_diamond_graph_accumulates():
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    y = weighted_sum(affine(x, x, None), x)  # x * x + x: dy/dx = 2x + 1 = 7
    g = backward(y, params=[x])[x]
    assert float(g[0, 0]) == 7.0


def test_reused_node_accumulates_once_per_consumer(rng):
    h = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    s = concat(h, h)  # h reaches s through both slots
    loss = weighted_sum(s, s, seed=0)  # and s reaches the loss through both slots
    g = backward(loss, params=[h])[h]
    w = sum(_weights(0, (8, 2), (8, 2)))
    assert np.allclose(g, w[:4] + w[4:], rtol=1e-15)


def test_accumulation_never_writes_into_a_shared_gradient(rng):
    """concat hands views of one gradient array to its operands; later sums must copy them."""
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    loss = weighted_sum(concat(a, b), a, concat(b, a), a)
    g = backward(loss, params=[a, b])
    assert np.array_equal(g[a], np.full((2, 3), 4.0)) and np.array_equal(g[b], np.full((2, 3), 2.0))
    assert not np.shares_memory(g[a], g[b])


def test_unreachable_param_gets_zeros(rng):
    used = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
    unused = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    g = backward(weighted_sum(used), params=[used, unused])
    assert np.array_equal(g[unused], np.zeros((2, 2)))


def test_backward_makes_zeros_only_for_an_unreached_param(rng):
    """When the loss reaches every parameter, backward's traced peak is the
    gradients it returns and little more: no zero array is made and thrown
    away for each of them, which for the largest alone would double the peak."""
    shapes = [(300, 300), (300, 1), (2, 300)]
    params = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
    loss = weighted_sum(*params)
    tracemalloc.start()
    try:
        grads = backward(loss, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(g.nbytes for g in grads.values())
    assert held == sum(p.data.nbytes for p in params)
    assert peak < 1.5 * held


def test_backward_requires_scalar_root(rng):
    v = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(concat(v, v))


def test_backward_is_bit_identical_on_same_tape(rng):
    a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    m = affine(a, b, None)
    loss = weighted_sum(concat(m, a), concat(m, b), affine(m, a, None), seed=0)
    params = [a, b]
    g1 = backward(loss, params=params)
    g2 = backward(loss, params=params)
    for p in params:
        assert np.array_equal(g1[p], g2[p])


def test_constant_subgraphs_stay_off_the_tape(rng):
    const = Tensor(rng.standard_normal((3, 3)))
    assert not const.requires_grad
    out = weighted_sum(concat(const, const), affine(const, const, None))
    assert not out.requires_grad
    assert out._parents == ()


# -- grad-free mode ------------------------------------------------------------


def _recorded(a: Tensor) -> bool:
    """Whether an op on the grad-requiring ``a`` lands on the tape now."""
    out = weighted_sum(concat(a, a), a)
    return out.requires_grad and len(list(iter_nodes(out))) > 1


def test_no_grad_builds_no_tape_and_keeps_the_values(rng):
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 4)), requires_grad=True)

    def f():
        m = affine(a, b, None)
        return concat(m, dropout(m, 0.5, True, np.random.default_rng(0)))

    taped = f()
    with no_grad():
        free = f()
    assert np.array_equal(free.data, taped.data)
    assert not free.requires_grad and free._parents == () and free._bwd is None
    assert list(iter_nodes(free)) == [free]
    assert a.requires_grad and b.requires_grad  # leaves keep their flag


def test_no_grad_nests_and_restores_the_outer_state(rng):
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    assert _recorded(a)
    with no_grad():
        assert not _recorded(a)
        with no_grad():
            assert not _recorded(a)
        assert not _recorded(a)  # leaving the inner block keeps the outer one off
    assert _recorded(a)


def test_no_grad_restores_recording_after_an_exception(rng):
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        with no_grad():
            with no_grad():
                concat(a, Tensor(np.zeros((4, 1))))
    assert _recorded(a)


def _in_no_grad(leave: threading.Event) -> threading.Thread:
    """A thread that is inside ``no_grad`` when this returns, and leaves it
    once ``leave`` is set."""
    entered = threading.Event()

    def park():
        with no_grad():
            entered.set()
            leave.wait(timeout=10)

    th = threading.Thread(target=park)
    th.start()
    assert entered.wait(timeout=10)
    return th


def test_a_thread_inside_no_grad_does_not_stop_another_from_taping(rng):
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    leave = threading.Event()
    th = _in_no_grad(leave)
    try:
        assert _recorded(a)
    finally:
        leave.set()
        th.join(timeout=10)
    assert not th.is_alive()


def test_a_thread_leaving_no_grad_does_not_turn_taping_on_for_another(rng):
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    leave = threading.Event()
    th = _in_no_grad(leave)
    with no_grad():
        leave.set()
        th.join(timeout=10)
        assert not th.is_alive()
        assert not _recorded(a)
    assert _recorded(a)


def test_backward_refuses_to_run_inside_no_grad(rng):
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    loss = weighted_sum(a, seed=0)
    with no_grad():
        with pytest.raises(RuntimeError, match="no_grad"):
            backward(loss, params=[a])
    assert np.array_equal(backward(loss, params=[a])[a], _weights(0, (3,))[0])


# -- gradient checks against the oracle --------------------------------------


def _check(f, tensors):
    err = grad_check(f, tensors, epsilon=FD_EPS_CHECK)
    assert err <= TOL_CHECK, f"gradient mismatch: {err:.3e}"


def test_grad_elementwise_chain(rng):
    a = wide(rng, 3, 4)
    b = wide(rng, 2, 4)
    r = np.random.default_rng
    _check(lambda: weighted_sum(dropout(concat(a, b), 0.3, True, r(5)), seed=0), [a, b])


def test_grad_scalar_operand(rng):
    """The scalar lam weights the reconstruction part's gradient and leaves the
    classification part's alone."""
    z, rz = wide(rng, 3, 4, scale=2.0), wide(rng, 3, 5, scale=2.0)
    labels = np.eye(4, dtype=CHECK_DTYPE)[[2, 0, 3]]
    cats = np.eye(5, dtype=CHECK_DTYPE)[[1, 4, 0]]
    for lam in (0.0, 0.7, 2.5):
        _check(lambda: joint_loss(z, labels, rz, cats, lam, "softmax")[0], [z, rz])
    one = backward(joint_loss(z, labels, rz, cats, 1.0, "softmax")[0], params=[z, rz])
    some = backward(joint_loss(z, labels, rz, cats, 0.7, "softmax")[0], params=[z, rz])
    assert np.array_equal(one[z], some[z])
    assert np.allclose(some[rz], 0.7 * one[rz], rtol=1e-15, atol=0)


def test_grad_matmul(rng):
    w = wide(rng, 3, 4)
    x = wide(rng, 4, 2)
    b = wide(rng, 3, 1)
    _check(lambda: weighted_sum(affine(w, x, None), seed=0), [w, x])
    _check(lambda: weighted_sum(affine(w, x, b), seed=0), [w, x, b])


def test_grad_pool_columns(rng):
    x = wide(rng, 3, 2, 3)
    # max: keep every real entry 0.1 above the next one so no perturbation swaps them
    gaps = 0.1 + 0.2 * np.arange(3)[:, None, None]
    x_max = Tensor((wide(rng, 1, 2, 3).data + gaps[rng.permutation(3)]).astype(CHECK_DTYPE),
                   requires_grad=True)
    for mode, t in (("last", x), ("max", x_max), ("mean", x)):
        _check(lambda: weighted_sum(pool_columns(t, _POOL_LENGTHS, mode), seed=0), [t])


def test_grad_reductions(rng):
    """joint_loss's means over the batch, with and without the reconstruction part."""
    for B in (1, 4):
        z, rz = wide(rng, B, 3, scale=2.0), wide(rng, B, 2, scale=2.0)
        labels = np.eye(3, dtype=CHECK_DTYPE)[rng.integers(0, 3, B)]
        cats = np.eye(2, dtype=CHECK_DTYPE)[rng.integers(0, 2, B)]
        _check(lambda: joint_loss(z, labels, None, None, 0.4, "softmax")[0], [z])
        _check(lambda: joint_loss(z, labels, rz, cats, 0.4, "softmax")[0], [z, rz])


def test_grad_structural(rng):
    a = wide(rng, 2, 3)
    b = wide(rng, 2, 3)
    _check(lambda: weighted_sum(concat(a, b), concat(b, a), seed=0), [a, b])


def test_grad_softmax_xent(rng):
    z = wide(rng, 1, 5, scale=2.0)
    y = np.eye(5, dtype=CHECK_DTYPE)[[2]]
    _check(lambda: joint_loss(z, y, None, None, 0.0, "softmax")[0], [z])
    zb = wide(rng, 3, 4, scale=2.0)
    yb = np.eye(4, dtype=CHECK_DTYPE)[[0, 3, 1]]
    _check(lambda: joint_loss(zb, yb, zb, yb, 0.6, "softmax")[0], [zb])


def test_grad_sigmoid_xent(rng):
    z = wide(rng, 1, 6, scale=2.0)
    y = np.asarray([[1, 0, 1, 1, 0, 0]], dtype=CHECK_DTYPE)
    label = np.eye(6, dtype=CHECK_DTYPE)[[4]]
    _check(lambda: joint_loss(z, label, z, y, 0.4, "sigmoid")[0], [z])
    zb = wide(rng, 2, 3, scale=2.0)
    yb = np.asarray([[1, 0, 0], [0, 1, 1]], dtype=CHECK_DTYPE)
    zc = wide(rng, 2, 4, scale=2.0)
    labels = np.eye(4, dtype=CHECK_DTYPE)[[1, 2]]
    _check(lambda: joint_loss(zc, labels, zb, yb, 1.3, "sigmoid")[0], [zb, zc])


def test_grad_dropout_fixed_mask(rng):
    """With the mask reseeded per rebuild, dropout is linear and checkable."""
    a = wide(rng, 8)

    def f():
        node = dropout(a, 0.5, training=True, rng=np.random.default_rng(7))
        return weighted_sum(node, seed=0)

    _check(f, [a])


# -- dropout semantics -------------------------------------------------------


def test_dropout_eval_and_rate_zero_are_exact_identities(rng):
    t = Tensor(rng.standard_normal(10))
    assert dropout(t, 0.5, training=False) is t
    assert dropout(t, 0.0, training=True, rng=np.random.default_rng(0)) is t


def test_dropout_scales_survivors(rng):
    t = Tensor(np.ones(10000))
    out = dropout(t, 0.3, training=True, rng=np.random.default_rng(3))
    vals = np.unique(out.data)
    assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.7, 12)}
    survive = (out.data != 0).mean()
    assert abs(survive - 0.7) < 0.02


def test_dropout_validation(rng):
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        dropout(t, 1.0, training=True, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        dropout(t, 0.5, training=True)  # rng required


# -- error paths -------------------------------------------------------------


def test_shape_errors_name_both_shapes():
    """Shapes never broadcast: a mismatch fails at the op, naming both shapes."""
    a = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
        concat(a, Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        affine(a, Tensor(np.zeros((2, 3))), None)
    with pytest.raises(ShapeError, match=r"\(2,\).*\(2, 3\)"):
        affine(a, Tensor(np.zeros((3, 4))), Tensor(np.zeros(2)))  # a bias is a (C, 1) column
    with pytest.raises(ShapeError, match=r"\(1, 2\).*\(1, 3\)"):
        joint_loss(Tensor(np.zeros((1, 2))), np.eye(3)[[0]], None, None, 0.4, "softmax")


def test_mixed_dtype_rejected(rng):
    a = Tensor(rng.standard_normal((1, 3)))
    b = Tensor(rng.standard_normal((1, 3)).astype(CHECK_DTYPE))
    with pytest.raises(ValueError, match="dtype"):
        concat(a, b)
    with pytest.raises(ValueError, match="dtype"):
        affine(Tensor(np.zeros((2, 1))), b, None)


# -- properties ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-30, 30), min_size=2, max_size=8),
    st.floats(-100, 100),
    st.integers(0, 7),
)
def test_softmax_xent_shift_invariance(logits, shift, hot):
    hot = hot % len(logits)
    y = np.zeros((1, len(logits)))
    y[0, hot] = 1.0
    base = softmax_xent_logits(np.asarray([logits]), y)[0][0]
    moved = softmax_xent_logits(np.asarray([logits]) + shift, y)[0][0]
    assert abs(base - moved) <= 1e-9 * max(1.0, abs(base))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6))
def test_matmul_grads_match_oracle_property(seed, n, m):
    r = np.random.default_rng(seed)
    a = Tensor((r.random((n, m)) - 0.5).astype(CHECK_DTYPE), requires_grad=True)
    b = Tensor((r.random((m, n)) - 0.5).astype(CHECK_DTYPE), requires_grad=True)
    err = grad_check(lambda: weighted_sum(affine(a, b, None), seed=0), [a, b], FD_EPS_CHECK)
    assert err <= TOL_CHECK
    # a constant operand gets no gradient, and the other operand's is unchanged
    const_a, const_b = Tensor(a.data.copy()), Tensor(b.data.copy())

    def split():
        return weighted_sum(affine(a, const_b, None), affine(const_a, b, None))

    assert grad_check(split, [a, b], FD_EPS_CHECK) <= TOL_CHECK
    both = backward(weighted_sum(affine(a, b, None)))
    apart = backward(split())
    assert const_a not in apart and const_b not in apart
    assert np.array_equal(both[a], apart[a]) and np.array_equal(both[b], apart[b])
    node = affine(a, const_b, None)
    assert node._bwd(np.ones_like(node.data))[1] is None  # its GEMM is skipped


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sigmoid_bounded_and_symmetric(seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal(20) * 50
    s = _sigmoid(x)
    assert np.all((s >= 0) & (s <= 1))
    flipped = _sigmoid(-x)
    assert np.allclose(s + flipped, 1.0, atol=1e-12)
