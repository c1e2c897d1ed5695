"""Unit tests for the autodiff engine and the taped reference ops of ``_tape``:
hand-computed cases + finite differences."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import _tape
from _oracles import numerical_grad, rel_err
from conceptshot import tensor as T
from conceptshot.errors import ConfigError, NumericalError


def scalar_loss(out):
    """Reduce an op output to a scalar with fixed random weights (probes full Jacobian)."""
    rng = np.random.default_rng(987)
    w = T.Tensor(rng.standard_normal(out.shape))
    return _tape.sum_all(_tape.mul(out, w))


# ---------------------------------------------------------------------------
# forward values

def test_leaky_relu_negative():
    out = _tape.leaky_relu(T.Tensor([[-10.0]]), slope=0.1)
    assert out.item() == -1.0


def test_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((1, 5)))
    loss = _tape.cross_entropy(logits, np.array([2]))
    assert loss.item() == math.log(5.0)


def test_cross_entropy_extreme_logits_stable():
    loss = _tape.cross_entropy(T.Tensor([[1000.0, 0.0]]), np.array([0]))
    assert 0.0 <= loss.item() < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        _tape.cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_l2_normalize_345():
    out = _tape.l2_normalize_rows(T.Tensor([[3.0, 4.0]]))
    npt.assert_array_equal(out.data, [[3.0 / 5.0, 4.0 / 5.0]])


def test_l2_normalize_zero_row():
    out = _tape.l2_normalize_rows(T.Tensor([[0.0, 0.0], [3.0, 4.0]]), eps=1e-12)
    npt.assert_array_equal(out.data[0], [0.0, 0.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    p = _tape.softmax_rows(T.Tensor(rng.standard_normal((7, 5)) * 4))
    npt.assert_allclose(p.data.sum(axis=1), np.ones(7), atol=1e-12)


def test_softmax_shift_invariance_exact():
    # integer logits + integer shift stay exactly representable
    rng = np.random.default_rng(4)
    z = rng.integers(-8, 8, (4, 6)).astype(np.float64)
    p1 = _tape.softmax_rows(T.Tensor(z)).data
    p2 = _tape.softmax_rows(T.Tensor(z + 123.0)).data
    npt.assert_array_equal(p1, p2)


def test_grouped_mean_block_order_invariant():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 3))
    base = _tape.grouped_mean(T.Tensor(x), 4).data
    for _ in range(20):
        shuffled = x.copy()
        for b in range(3):
            shuffled[b * 4:(b + 1) * 4] = shuffled[b * 4 + rng.permutation(4)]
        npt.assert_array_equal(_tape.grouped_mean(T.Tensor(shuffled), 4).data, base)


def test_carry_passes_gradient_straight_to_its_start():
    x = T.Tensor([[1.0, -2.0]], requires_grad=True)
    y = T.carry(np.array([[5.0, 7.0]]), _tape.scale(x, 3.0))
    npt.assert_array_equal(y.data, [[5.0, 7.0]])
    T.backward(_tape.sum_all(_tape.mul(y, T.Tensor([[2.0, -1.0]]))))
    npt.assert_array_equal(x.grad, [[6.0, -3.0]])
    with pytest.raises(ValueError):
        T.carry(np.zeros(2), x)
    with pytest.raises(NumericalError):
        T.carry(np.array([[np.nan, 0.0]]), x)


def test_write_rows_requires_distinct():
    with pytest.raises(ValueError):
        _tape.write_rows(T.Tensor(np.zeros((3, 2))), T.Tensor(np.ones((2, 2))), [1, 1])


def test_nonfinite_is_hard_error():
    with pytest.raises(NumericalError):
        T.Tensor([np.inf])
    big = T.Tensor([[1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            _tape.scale(big, 1e10)


# ---------------------------------------------------------------------------
# dropout

def test_dropout_eval_and_keep1_identity():
    x = T.Tensor(np.ones((4, 4)))
    assert _tape.dropout(x, 0.5, T.Rng(0), training=False) is x
    assert _tape.dropout(x, 1.0, T.Rng(0), training=True) is x


def test_dropout_keep_fraction_and_scale():
    rng = T.Rng(11)
    x = T.Tensor(np.ones((400, 250)))
    out = _tape.dropout(x, 0.9, rng, training=True).data
    kept = out != 0.0
    assert abs(kept.mean() - 0.9) < 0.01  # 1e5 entries
    npt.assert_allclose(out[kept], 1.0 / 0.9)


def test_dropout_bad_keep_prob():
    with pytest.raises(ConfigError):
        _tape.dropout(T.Tensor([1.0]), 0.0, T.Rng(0), training=True)


# ---------------------------------------------------------------------------
# backward: structure

def test_gradient_accumulates_on_reuse():
    x = T.Tensor([[3.0]], requires_grad=True)
    T.backward(_tape.sum_all(_tape.mul(x, x)))  # d(x^2)/dx = 2x
    assert x.grad[0, 0] == 6.0


def test_backward_twice_accumulates():
    x = T.Tensor([2.0], requires_grad=True)
    loss = _tape.sum_all(_tape.scale(x, 3.0))
    T.backward(loss)
    T.backward(loss)
    assert x.grad[0] == 6.0


def test_grad_does_not_touch_dot_grad():
    x = T.Tensor([2.0], requires_grad=True)
    (g,) = T.grad(_tape.sum_all(_tape.scale(x, 3.0)), [x])
    assert g[0] == 3.0 and x.grad is None


def test_grad_wrt_interior_node():
    # gradient w.r.t. an intermediate stops at that node (inner-loop use case)
    x = T.Tensor([5.0], requires_grad=True)
    y = _tape.scale(x, 2.0)
    z = _tape.sum_all(_tape.mul(y, y))
    (gy,) = T.grad(z, [y])
    assert gy[0] == 20.0  # 2*y, not chained to x


def test_backward_requires_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(_tape.scale(x, 2.0))


# ---------------------------------------------------------------------------
# finite differences, op by op

def _fd_check(build, *arrays, tol=1e-6, h=1e-5):
    """build(*tensors) -> output tensor; checks every input's gradient."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    loss = scalar_loss(build(*tensors))
    analytic = T.grad(loss, tensors)
    for i, a in enumerate(arrays):
        def f(x, i=i):
            args = list(arrays)
            args[i] = x
            ts = [T.Tensor(v) for v in args]
            return scalar_loss(build(*ts)).item()
        assert rel_err(analytic[i], numerical_grad(f, a, h)) < tol


RNG = np.random.default_rng(42)


def test_fd_affine():
    _fd_check(_tape.affine, RNG.standard_normal((5, 3)), RNG.standard_normal((3, 4)),
              RNG.standard_normal(4))


def test_fd_activations():
    x = RNG.standard_normal((4, 5)) + 0.3  # keep clear of the kink
    x[np.abs(x) < 1e-2] = 0.5
    _fd_check(lambda t: _tape.leaky_relu(t, 0.1), x)


def test_fd_cross_entropy():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((6, 4))
    y = rng.integers(0, 4, 6)
    x = T.Tensor(logits, requires_grad=True)
    loss = _tape.cross_entropy(x, y)
    (analytic,) = T.grad(loss, [x])
    numeric = numerical_grad(lambda v: _tape.cross_entropy(T.Tensor(v), y).item(), logits)
    assert rel_err(analytic, numeric) < 1e-6


def test_fd_l2_normalize():
    rng = np.random.default_rng(8)
    _fd_check(_tape.l2_normalize_rows, rng.standard_normal((5, 3)) + 0.5)


def test_fd_softmax():
    rng = np.random.default_rng(9)
    _fd_check(_tape.softmax_rows, rng.standard_normal((4, 5)))


def test_fd_row_plumbing():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 3))
    _fd_check(lambda t: _tape.gather_rows(t, [5, 0, 0, 3]), x)  # duplicates accumulate
    _fd_check(lambda t, r: _tape.write_rows(t, r, [4, 1]), x, rng.standard_normal((2, 3)))
    _fd_check(lambda a, b: _tape.concat_cols(a, b), x, rng.standard_normal((6, 2)))
    _fd_check(lambda t: _tape.slice_cols(t, 1, 3), x)
    _fd_check(lambda t: _tape.grouped_mean(t, 3), x)
    _fd_check(_tape.transpose, x)


def test_fd_arithmetic():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    _fd_check(_tape.add, a, b)
    _fd_check(_tape.mul, a, b)
    _fd_check(lambda t: _tape.scale(t, -1.7), a)
    _fd_check(_tape.add, a, rng.standard_normal(4))  # row-broadcast add


def test_fd_sym_neighbor_mean():
    # 3-node path with self loops
    nbr = np.array([[0, 1, 3], [0, 1, 2], [1, 2, 3]])
    deg = np.array([2.0, 3.0, 2.0])
    rng = np.random.default_rng(12)
    _fd_check(lambda t: _tape.sym_neighbor_mean(t, T.neighbor_groups(nbr, 3), deg),
              rng.standard_normal((3, 2)))


def test_sym_neighbor_mean_path_values():
    nbr = np.array([[0, 1, 3], [0, 1, 2], [1, 2, 3]])
    deg = np.array([2.0, 3.0, 2.0])
    out = _tape.sym_neighbor_mean(T.Tensor([[1.0], [2.0], [3.0]]), T.neighbor_groups(nbr, 3),
                              deg)
    npt.assert_allclose(out.data, [[1.5], [2.0], [2.5]], atol=1e-15)


# ---------------------------------------------------------------------------
# optimizer

def test_sgd_zero_lr_keeps_params():
    p = T.Tensor([1.0, 2.0], requires_grad=True)
    p.grad = np.array([5.0, -5.0])
    opt = T.SgdOptimizer({"p": p}, momentum=0.9, weight_decay=1e-2)
    opt.step(lr=0.0)
    npt.assert_array_equal(p.data, [1.0, 2.0])


def test_sgd_scalar_case():
    p = T.Tensor([1.0], requires_grad=True)
    p.grad = np.array([2.0])
    T.SgdOptimizer({"p": p}).step(lr=0.1)
    npt.assert_allclose(p.data, [0.8], atol=1e-15)


def test_sgd_two_steps_match_hand_recurrence():
    mom, wd, lr = 0.9, 5e-4, 0.1
    p = T.Tensor([1.5], requires_grad=True)
    opt = T.SgdOptimizer({"p": p}, momentum=mom, weight_decay=wd)
    pv, v = 1.5, 0.0
    for g in (0.3, -0.2):
        p.grad = np.array([g])
        opt.step(lr)
        v = mom * v + (g + wd * pv)
        pv = pv - lr * v
        npt.assert_allclose(p.data, [pv], atol=1e-15)


def test_sgd_skips_params_without_grad():
    p = T.Tensor([1.0], requires_grad=True)
    opt = T.SgdOptimizer({"p": p}, weight_decay=0.1)
    opt.step(lr=1.0)
    npt.assert_array_equal(p.data, [1.0])


# ---------------------------------------------------------------------------
# rng

def test_rng_identical_streams():
    a, b = T.Rng(123), T.Rng(123)
    npt.assert_array_equal(a.normal(size=10), b.normal(size=10))
    npt.assert_array_equal(a.uniform(size=10), b.uniform(size=10))


def test_rng_child_reproducible_and_independent():
    root = T.Rng(7)
    c1 = root.child("dropout", 3)
    burn = root.normal(size=5)  # advancing the parent must not affect children
    c2 = root.child("dropout", 3)
    npt.assert_array_equal(c1.normal(size=4), c2.normal(size=4))
    assert not np.array_equal(root.child("a").normal(size=4), root.child("b").normal(size=4))


def test_rng_builds_its_generator_on_the_first_draw():
    r = T.Rng(5).child("eval", 3, "sample")
    assert "_gen" not in vars(r)
    eager = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(5, spawn_key=r.key)))
    npt.assert_array_equal(r.normal(size=6), eager.normal(0.0, 1.0, 6))
    assert "_gen" in vars(r)
