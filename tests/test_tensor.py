"""Tape, operations, backward, and the finite-difference oracle.

Expected values here are computed with plain ``math`` formulas, written
before the implementation and kept independent of it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectgate.tensor import (
    CHECK_DTYPE,
    ShapeError,
    Tensor,
    backward,
    concat,
    dropout,
    grad_check,
    iter_nodes,
    matmul,
    maximum,
    no_grad,
    reduce_mean,
    reduce_sum,
    relu,
    relu_kink_margin,
    select_columns,
    sigmoid,
    sigmoid_xent_logits,
    softmax_xent_logits,
    tanh,
    transpose,
)
from conftest import FD_EPS_CHECK, KINK_RADIUS, TOL_CHECK, wide


# -- oracle self-tests -------------------------------------------------------


def test_fd_oracle_on_sum_of_squares(rng):
    """Central differences are near-exact on a cubic-free polynomial."""
    point = Tensor(rng.standard_normal(7), requires_grad=True)
    err = grad_check(lambda: (point * point).sum(), [point], epsilon=1e-5)
    assert err <= 1e-7


def test_fd_oracle_on_constant_function(rng):
    point = Tensor(rng.standard_normal(4), requires_grad=True)
    err = grad_check(lambda: Tensor(np.float64(3.0)) * 1.0 + (point * 0.0).sum(), [point])
    assert err <= 1e-8


# -- frozen forward values ---------------------------------------------------


def test_add_mul_matmul_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal((a + b).data, [[6.0, 8.0], [10.0, 12.0]])
    assert np.array_equal((a * b).data, [[5.0, 12.0], [21.0, 32.0]])
    assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])
    assert np.array_equal((a - b).data, [[-4.0, -4.0], [-4.0, -4.0]])


def test_scalar_broadcast_is_the_only_broadcast():
    a = Tensor([1.0, 2.0, 3.0])
    out = 1.0 - a * 2.0
    assert np.array_equal(out.data, [-1.0, -3.0, -5.0])
    with pytest.raises(ShapeError):
        a + Tensor([[1.0, 2.0, 3.0]])  # (3,) vs (1,3) must not broadcast


def test_softmax_xent_value_matches_direct_formula():
    logits = Tensor([[1.0, 2.0, 3.0]])
    onehot = Tensor([[0.0, 0.0, 1.0]])
    expected = math.log(math.e + math.e**2 + math.e**3) - 3.0
    got = softmax_xent_logits(logits, onehot).data[0]
    assert abs(got - expected) < 1e-12


def test_softmax_xent_extreme_logits_finite():
    loss = softmax_xent_logits(
        Tensor([[1000.0, 0.0, -1000.0]]), Tensor([[1.0, 0.0, 0.0]])
    ).data[0]
    assert math.isfinite(loss)
    assert abs(loss) < 1e-12


def test_sigmoid_xent_value_matches_direct_formula():
    loss = sigmoid_xent_logits(Tensor([[0.5, -0.5]]), Tensor([[1.0, 0.0]])).data[0]
    expected = 2.0 * math.log(1.0 + math.exp(-0.5))
    assert abs(loss - expected) < 1e-12


def test_sigmoid_xent_extreme_logits_finite():
    loss = sigmoid_xent_logits(Tensor([[800.0, -800.0]]), Tensor([[0.0, 1.0]])).data[0]
    assert math.isfinite(loss)
    assert abs(loss - 1600.0) < 1e-9


def test_batched_losses_are_rows():
    z = Tensor([[1.0, 2.0], [3.0, -1.0]])
    y = Tensor([[1.0, 0.0], [0.0, 1.0]])
    row = softmax_xent_logits(z, y)
    assert row.shape == (2,)
    a = softmax_xent_logits(Tensor([[1.0, 2.0]]), Tensor([[1.0, 0.0]])).data[0]
    b = softmax_xent_logits(Tensor([[3.0, -1.0]]), Tensor([[0.0, 1.0]])).data[0]
    assert np.allclose(row.data, [a, b], rtol=0, atol=1e-15)


def test_loss_target_validation():
    with pytest.raises(ValueError):
        softmax_xent_logits(Tensor([[1.0, 2.0]]), Tensor([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        softmax_xent_logits(Tensor([[1.0, 2.0]]), Tensor([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        sigmoid_xent_logits(Tensor([[1.0, 2.0]]), Tensor([[0.0, 0.3]]))
    for loss in (softmax_xent_logits, sigmoid_xent_logits):
        for shape in [(2,), (1, 2, 2), (2, 0)]:  # (B, C) rows with C >= 1 only
            with pytest.raises(ShapeError):
                loss(Tensor(np.zeros(shape)), Tensor(np.zeros(shape)))


# -- structural ops ----------------------------------------------------------


def test_concat_and_backward_split(rng):
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    out = concat(a, b)
    assert out.shape == (6, 3)
    loss = (out * out).sum()
    g = backward(loss, params=[a, b])
    assert np.allclose(g[a], 2 * a.data)
    assert np.allclose(g[b], 2 * b.data)
    with pytest.raises(ShapeError):
        concat(a, Tensor(rng.standard_normal((4, 2))))
    with pytest.raises(ShapeError):
        concat(Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3)))


def _blend_oracle(keep, a: Tensor, b: Tensor) -> Tensor:
    """The padding blend select_columns replaces: m * a + (1 - m) * b."""
    m = Tensor(np.ascontiguousarray(np.broadcast_to(keep.astype(a.dtype), a.shape)))
    return m * a + (1.0 - m) * b


@pytest.mark.parametrize("keep", [[1, 0, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0]])
def test_select_columns_matches_the_blend_bitwise(rng, keep):
    keep = np.asarray(keep)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = rng.standard_normal((3, 4))
    out = select_columns(keep, a, b)
    ref = _blend_oracle(keep, a, b)
    assert out.op == "select"
    assert np.array_equal(out.data, ref.data)
    # a downstream use of both operands, as in the carry, accumulates into each
    g = backward((out * Tensor(w)).sum() + (a * b).sum(), params=[a, b])
    g_ref = backward((ref * Tensor(w)).sum() + (a * b).sum(), params=[a, b])
    assert np.array_equal(g[a], g_ref[a]) and np.array_equal(g[b], g_ref[b])
    routed = backward((out * Tensor(w)).sum(), params=[a, b])
    assert np.array_equal(routed[a], np.where(keep, w, 0.0))
    assert np.array_equal(routed[b], np.where(keep, 0.0, w))


def test_select_columns_validation(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    with pytest.raises(ShapeError, match="keep"):
        select_columns(np.ones(3), a, a)
    with pytest.raises(ShapeError):
        select_columns(np.ones(4), a, Tensor(rng.standard_normal((2, 4))))
    with pytest.raises(ValueError, match="dtype"):
        select_columns(np.ones(4), a, Tensor(a.data.astype(CHECK_DTYPE)))


def test_reduce_dispatch_and_values():
    t = Tensor([[1.0, 5.0], [2.0, 2.0]])
    assert t.sum().item() == 10.0
    assert t.mean().item() == 2.5
    with pytest.raises(ShapeError):
        Tensor(np.zeros((0, 2))).mean()


def test_maximum_tie_routes_to_first_operand():
    a = Tensor([1.0, 5.0], requires_grad=True)
    b = Tensor([1.0, 2.0], requires_grad=True)
    g = backward(maximum(a, b).sum(), params=[a, b])
    assert np.array_equal(g[a], [1.0, 1.0])
    assert np.array_equal(g[b], [0.0, 0.0])
    with pytest.raises(ShapeError):
        maximum(a, Tensor(np.float64(1.0)))  # no scalar operand


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    g = backward(relu(x).sum(), params=[x])[x]
    assert np.array_equal(g, [0.0, 0.0, 1.0])


# -- backward mechanics ------------------------------------------------------


def test_diamond_graph_accumulates():
    x = Tensor(np.float64(3.0), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 7
    g = backward(y, params=[x])[x]
    assert float(g) == 7.0


def test_reused_node_accumulates_once_per_consumer(rng):
    h = Tensor(rng.standard_normal(4), requires_grad=True)
    s = tanh(h)
    loss = (s * s).sum() + s.sum()
    g = backward(loss, params=[h])[h]
    expected = (2 * np.tanh(h.data) + 1) * (1 - np.tanh(h.data) ** 2)
    assert np.allclose(g, expected, rtol=1e-12)


def test_unreachable_param_gets_zeros(rng):
    used = Tensor(rng.standard_normal(3), requires_grad=True)
    unused = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    g = backward((used * used).sum(), params=[used, unused])
    assert np.array_equal(g[unused], np.zeros((2, 2)))


def test_backward_requires_scalar_root(rng):
    v = Tensor(rng.standard_normal(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(v * 2.0)


def test_backward_is_bit_identical_on_same_tape(rng):
    a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    loss = (sigmoid(matmul(a, b)) * tanh(a + b)).sum()
    params = [a, b]
    g1 = backward(loss, params=params)
    g2 = backward(loss, params=params)
    for p in params:
        assert np.array_equal(g1[p], g2[p])


def test_constant_subgraphs_stay_off_the_tape(rng):
    const = Tensor(rng.standard_normal((3, 3)))
    assert not const.requires_grad
    out = const * 2.0 + const
    assert not out.requires_grad
    assert out._parents == ()


# -- grad-free mode ------------------------------------------------------------


def _recorded(a: Tensor) -> bool:
    """Whether an op on the grad-requiring ``a`` lands on the tape now."""
    out = tanh(a) * a
    return out.requires_grad and len(list(iter_nodes(out))) > 1


def test_no_grad_builds_no_tape_and_keeps_the_values(rng):
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 4)), requires_grad=True)

    def f():
        return maximum(relu(sigmoid(matmul(a, b)) - 0.5), tanh(matmul(a, b)))

    taped = f()
    with no_grad():
        free = f()
    assert np.array_equal(free.data, taped.data)
    assert not free.requires_grad and free._parents == () and free._bwd is None
    assert list(iter_nodes(free)) == [free]
    assert a.requires_grad and b.requires_grad  # leaves keep their flag


def test_no_grad_nests_and_restores_the_outer_state(rng):
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    assert _recorded(a)
    with no_grad():
        assert not _recorded(a)
        with no_grad():
            assert not _recorded(a)
        assert not _recorded(a)  # leaving the inner block keeps the outer one off
    assert _recorded(a)


def test_no_grad_restores_recording_after_an_exception(rng):
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    with pytest.raises(ShapeError):
        with no_grad():
            with no_grad():
                a + Tensor(np.zeros(4))
    assert _recorded(a)


def test_backward_refuses_to_run_inside_no_grad(rng):
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    loss = (a * a).sum()
    with no_grad():
        with pytest.raises(RuntimeError, match="no_grad"):
            backward(loss, params=[a])
    assert np.array_equal(backward(loss, params=[a])[a], 2 * a.data)


# -- gradient checks against the oracle --------------------------------------


def _check(f, tensors):
    err = grad_check(f, tensors, epsilon=FD_EPS_CHECK)
    assert err <= TOL_CHECK, f"gradient mismatch: {err:.3e}"


def test_grad_elementwise_chain(rng):
    a = wide(rng, 3, 4)
    b = wide(rng, 3, 4)
    _check(lambda: (a * b + a - b).sum(), [a, b])


def test_grad_scalar_operand(rng):
    a = wide(rng, 5)
    s = Tensor(np.asarray(0.7, dtype=CHECK_DTYPE), requires_grad=True)
    _check(lambda: (a * s + s).sum(), [a, s])


def test_grad_matmul(rng):
    a = wide(rng, 3, 4)
    b = wide(rng, 4, 2)
    _check(lambda: (matmul(a, b) * matmul(a, b)).sum(), [a, b])


def test_grad_sigmoid_tanh(rng):
    a = wide(rng, 4, 3, scale=2.0)
    _check(lambda: (sigmoid(a) * tanh(a)).sum(), [a])


def test_grad_relu_away_from_kink(rng):
    for _ in range(100):
        a = wide(rng, 4, 4, scale=2.0)
        loss = relu(a).sum()
        if relu_kink_margin(loss) > KINK_RADIUS:
            break
    else:
        pytest.fail("could not sample a relu input away from the kink")
    _check(lambda: relu(a).sum(), [a])


def test_grad_maximum(rng):
    while True:
        a = wide(rng, 6)
        b = wide(rng, 6)
        if np.abs(a.data - b.data).min() > KINK_RADIUS:
            break
    _check(lambda: (maximum(a, b) * maximum(a, b)).sum(), [a, b])


def test_grad_reductions(rng):
    a = wide(rng, 3, 5)
    _check(lambda: reduce_sum(a * a), [a])
    _check(lambda: reduce_mean(a * a), [a])
    _check(lambda: reduce_mean(a) * 3.0, [a])


def test_grad_structural(rng):
    a = wide(rng, 2, 3)
    b = wide(rng, 2, 3)
    _check(lambda: (concat(a, b) * concat(b, a)).sum(), [a, b])
    t = wide(rng, 4, 3)
    _check(lambda: (transpose(t) * transpose(t)).sum(), [t])
    keep = np.array([1, 0, 1])
    _check(lambda: (select_columns(keep, t, t * t) * select_columns(keep, t * t, t)).sum(), [t])
    _check(lambda: (select_columns(keep, a, b) * b).sum(), [a, b])


def test_grad_softmax_xent(rng):
    z = wide(rng, 1, 5, scale=2.0)
    y = Tensor(np.eye(5, dtype=CHECK_DTYPE)[[2]])
    _check(lambda: softmax_xent_logits(z, y).sum(), [z])
    zb = wide(rng, 3, 4, scale=2.0)
    yb = Tensor(np.eye(4, dtype=CHECK_DTYPE)[[0, 3, 1]])
    _check(lambda: softmax_xent_logits(zb, yb).sum(), [zb])


def test_grad_sigmoid_xent(rng):
    z = wide(rng, 1, 6, scale=2.0)
    y = Tensor(np.asarray([[1, 0, 1, 1, 0, 0]], dtype=CHECK_DTYPE))
    _check(lambda: sigmoid_xent_logits(z, y).sum(), [z])
    zb = wide(rng, 2, 3, scale=2.0)
    yb = Tensor(np.asarray([[1, 0, 0], [0, 1, 1]], dtype=CHECK_DTYPE))
    _check(lambda: sigmoid_xent_logits(zb, yb).sum(), [zb])


def test_grad_dropout_fixed_mask(rng):
    """With the mask reseeded per rebuild, dropout is linear and checkable."""
    a = wide(rng, 8)

    def f():
        node = dropout(a, 0.5, training=True, rng=np.random.default_rng(7))
        return (node * node).sum()

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
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
        a + b
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(a, Tensor(np.zeros((2, 3))))


def test_mixed_dtype_rejected(rng):
    a = Tensor(rng.standard_normal(3))
    b = Tensor(rng.standard_normal(3).astype(CHECK_DTYPE))
    with pytest.raises(ValueError, match="dtype"):
        a + b


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
    base = softmax_xent_logits(Tensor(np.asarray([logits])), Tensor(y)).data[0]
    moved = softmax_xent_logits(Tensor(np.asarray([logits]) + shift), Tensor(y)).data[0]
    assert abs(base - moved) <= 1e-9 * max(1.0, abs(base))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6))
def test_matmul_grads_match_oracle_property(seed, n, m):
    r = np.random.default_rng(seed)
    a = Tensor((r.random((n, m)) - 0.5).astype(CHECK_DTYPE), requires_grad=True)
    b = Tensor((r.random((m, n)) - 0.5).astype(CHECK_DTYPE), requires_grad=True)
    err = grad_check(lambda: (matmul(a, b) * matmul(a, b)).sum(), [a, b], FD_EPS_CHECK)
    assert err <= TOL_CHECK
    # a constant operand gets no gradient, and the other operand's is unchanged
    const_a, const_b = Tensor(a.data.copy()), Tensor(b.data.copy())

    def split():
        return matmul(a, const_b).sum() + matmul(const_a, b).sum()

    assert grad_check(split, [a, b], FD_EPS_CHECK) <= TOL_CHECK
    both = backward(matmul(a, b).sum())
    apart = backward(split())
    assert const_a not in apart and const_b not in apart
    assert np.array_equal(both[a], apart[a]) and np.array_equal(both[b], apart[b])
    node = matmul(a, const_b)
    assert node._bwd(np.ones_like(node.data))[1] is None  # its GEMM is skipped


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sigmoid_bounded_and_symmetric(seed):
    r = np.random.default_rng(seed)
    x = Tensor(r.standard_normal(20) * 50)
    s = sigmoid(x).data
    assert np.all((s >= 0) & (s <= 1))
    flipped = sigmoid(Tensor(-x.data)).data
    assert np.allclose(s + flipped, 1.0, atol=1e-12)
