"""Unit tests for the tape and the taped reference ops of ``_tape``, and for
the numerics of ``tensor``: hand-computed cases + finite differences."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import _tape
from _oracles import neighbor_groups, numerical_grad, padded_neighbor_sum, rel_err
from conceptshot import tensor as T
from conceptshot.classifier_gen import GeneratorConfig, _layer, _layer_back
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
# the tape walk: structure

def test_gradient_accumulates_on_reuse():
    x = T.Tensor([[3.0]])
    (g,) = _tape.grad(_tape.sum_all(_tape.mul(x, x)), [x])  # d(x^2)/dx = 2x
    assert g[0, 0] == 6.0


def test_grad_wrt_interior_node():
    # gradient w.r.t. an intermediate stops at that node (inner-loop use case)
    x = T.Tensor([5.0])
    y = _tape.scale(x, 2.0)
    z = _tape.sum_all(_tape.mul(y, y))
    (gy,) = _tape.grad(z, [y])
    assert gy[0] == 20.0  # 2*y, not chained to x


def test_backward_requires_scalar():
    x = T.Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        _tape.grad(_tape.scale(x, 2.0), [x])


# ---------------------------------------------------------------------------
# finite differences, op by op

def _fd_check(build, *arrays, tol=1e-6, h=1e-5):
    """build(*tensors) -> output tensor; checks every input's gradient."""
    tensors = [T.Tensor(a) for a in arrays]
    loss = scalar_loss(build(*tensors))
    analytic = _tape.grad(loss, tensors)
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
    x = T.Tensor(logits)
    loss = _tape.cross_entropy(x, y)
    (analytic,) = _tape.grad(loss, [x])
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
    _fd_check(lambda t: _tape.sym_neighbor_mean(t, neighbor_groups(nbr, 3), deg),
              rng.standard_normal((3, 2)))


def test_sym_neighbor_mean_path_values():
    nbr = np.array([[0, 1, 3], [0, 1, 2], [1, 2, 3]])
    deg = np.array([2.0, 3.0, 2.0])
    out = _tape.sym_neighbor_mean(T.Tensor([[1.0], [2.0], [3.0]]), neighbor_groups(nbr, 3),
                                  deg)
    npt.assert_allclose(out.data, [[1.5], [2.0], [2.5]], atol=1e-15)


# ---------------------------------------------------------------------------
# neighborhood sums: the comparator network, the sort, and the padded oracle

def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("k", range(1, T._NETWORK_MAX_K + 1))
def test_comparator_network_sorts_every_zero_one_input(k):
    # a comparator network that sorts every 0/1 sequence sorts every input
    wires = list(((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).T)
    for i, j in T._comparators(k):
        assert i < j
        wires[i], wires[j] = np.minimum(wires[i], wires[j]), np.maximum(wires[i], wires[j])
    assert (np.diff(np.stack(wires, axis=1), axis=1) >= 0).all()


def padded_table(rng, degrees):
    """A neighbor table of n = len(degrees) rows, row i holding degrees[i]
    entries drawn from [0, n) with repeats, then the padding n."""
    n = len(degrees)
    table = np.full((n, max(degrees)), n, dtype=np.intp)
    for i, k in enumerate(degrees):
        table[i, :k] = rng.integers(0, n, k)
    return table


def signed_values(rng, shape):
    """Values over twelve decades with 30% -0.0 and 10% +0.0 entries, so that
    a change of summation order shows in the bits."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    u = rng.uniform(size=shape)
    x[u < 0.3] = -0.0
    x[(u >= 0.3) & (u < 0.4)] = 0.0
    return x


# Up to 400 rows (drawn from the seed, uniformly), most with the first of a
# few degrees, so that groups fall on both sides of the network's selection.
neighbor_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "degrees": st.lists(st.one_of(st.integers(1, 16), st.integers(17, 40)),
                        min_size=1, max_size=3),
    "d": st.integers(1, 8),
    "stack": st.sampled_from([(), (1,), (2,), (3,)]),
})


def draw_case(case):
    rng = np.random.default_rng(case["seed"])
    n = int(rng.integers(1, 401))
    share = np.array([8.0, 2.0, 1.0][:len(case["degrees"])])
    table = padded_table(rng, rng.choice(case["degrees"], n, p=share / share.sum()))
    return rng, table, signed_values(rng, case["stack"] + (n, case["d"]))


@settings(max_examples=150, deadline=None)
@given(neighbor_cases)
def test_neighbor_sums_match_padded_oracle_and_stack_alone_bitwise(case):
    rng, table, x = draw_case(case)
    groups = neighbor_groups(table, len(table))
    got = T.neighbor_sums(x, groups)
    members = x.reshape((-1,) + x.shape[-2:])
    for m, g in zip(members, got.reshape((-1,) + got.shape[-2:])):
        npt.assert_array_equal(bits(g), bits(padded_neighbor_sum(m, table)))
        npt.assert_array_equal(bits(g), bits(T.neighbor_sums(m, groups)))


@settings(max_examples=150, deadline=None)
@given(neighbor_cases)
def test_neighbor_sums_relabeling_permutes_output_bitwise(case):
    # row i becomes row perm[i], its entries are relabeled and shuffled
    rng, table, x = draw_case(case)
    n = len(table)
    perm = rng.permutation(n)
    relabeled = np.full_like(table, n)
    for i, row in enumerate(table):
        entries = perm[row[row < n]]
        relabeled[perm[i], :entries.size] = rng.permutation(entries)
    moved = np.empty_like(x)
    moved[..., perm, :] = x
    got = T.neighbor_sums(moved, neighbor_groups(relabeled, n))
    want = T.neighbor_sums(x, neighbor_groups(table, n))
    npt.assert_array_equal(bits(got[..., perm, :]), bits(want))


@settings(max_examples=100, deadline=None)
@given(neighbor_cases, st.sampled_from([np.inf, -np.inf, np.nan]))
def test_neighbor_sums_nonfinite_row_reaches_exactly_its_neighborhoods(case, bad):
    rng, table, x = draw_case(case)
    n = len(table)
    x = np.clip(x, -1e6, 1e6)           # no finite sum overflows
    row = int(rng.integers(n))
    x[..., row, :] = bad
    with np.errstate(invalid="ignore"):
        got = T.neighbor_sums(x, neighbor_groups(table, n))
    reached = (table == row).any(axis=1)
    npt.assert_array_equal(~np.isfinite(got), np.broadcast_to(reached[:, None], got.shape))


@pytest.mark.parametrize("k", [3, 5, 10, 16])
@pytest.mark.parametrize("stack", [(), (3,)])
@pytest.mark.parametrize("d", [1, 8])
def test_network_and_sort_give_identical_bits(monkeypatch, k, stack, d):
    # the same blocks once all through the network, once all through np.sort,
    # and the padded oracle
    rng = np.random.default_rng(k * 10 + d)
    table = padded_table(rng, rng.choice([k, k + 1], 50))
    x = signed_values(rng, stack + (50, d))
    groups = neighbor_groups(table, 50)
    monkeypatch.setattr(T, "_LANES_PER_COMPARATOR", 0)
    network = T.neighbor_sums(x, groups)
    monkeypatch.setattr(T, "_LANES_PER_COMPARATOR", np.inf)
    npt.assert_array_equal(bits(network), bits(T.neighbor_sums(x, groups)))
    want = [padded_neighbor_sum(m, table) for m in x.reshape((-1, 50, d))]
    npt.assert_array_equal(bits(network), bits(np.reshape(want, network.shape)))


# ---------------------------------------------------------------------------
# leaky-ReLU masks: the branch-free select against np.where, bit for bit

# slopes and inputs at the edges of the float64 range: signed zeros,
# subnormals, values outside [0, 1] and near the largest finite float
EDGE_SLOPES = [0.0, -0.0, 0.1, -0.5, -3.0, 1.0, 7.5, 5e-324, -2.5e-310, 1e308]
EDGE_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -2.2e-310, 1e308, -1e308]


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=7),
                    elements=st.one_of(st.sampled_from(EDGE_INPUTS),
                                       st.floats(allow_nan=False))),
       slope=st.one_of(st.sampled_from(EDGE_SLOPES), st.floats(allow_nan=False)),
       view=st.sampled_from(["whole", "strided", "transposed"]))
def test_leaky_mask_has_the_bits_of_np_where(a, slope, view):
    if view == "strided":
        a = a[..., ::2]
    elif view == "transposed":
        a = a.T
    got = T.leaky_mask(a, slope)
    assert got.dtype == np.float64 and got.shape == a.shape
    npt.assert_array_equal(got.view(np.uint64), np.where(a >= 0, 1.0, slope).view(np.uint64))


@pytest.mark.parametrize("slope", [0.1, -0.0, 2.5])
def test_leaky_layers_on_exact_zeros_match_the_tape_bitwise(slope):
    # two columns of zero weights and zero biases (of both signs) give an
    # affine output with exact zeros, which the mask counts as >= 0
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 5))
    w = rng.standard_normal((5, 4))
    w[:, :2] = 0.0
    b = np.array([0.0, -0.0, 0.0, -0.0])
    affine = _tape.affine(T.Tensor(x), T.Tensor(w), T.Tensor(b))
    assert (affine.data[:, :2] == 0.0).all() and (affine.data[:, 2:] != 0.0).all()
    ref = _tape.leaky_relu(affine, slope)
    g = rng.standard_normal(ref.shape)
    want_g, = ref._vjp(g)
    out, (_, lmask, _) = _layer(x, w, b, GeneratorConfig(slope=slope), [], False)
    npt.assert_array_equal(bits(out), bits(ref.data))
    npt.assert_array_equal(bits(_layer_back(g, (x, lmask, None))[0]), bits(want_g))
    out, [(_, mask)] = T.leaky_layers([(w, b)], x, slope, "a test")
    npt.assert_array_equal(bits(out), bits(ref.data))
    npt.assert_array_equal(bits(g * mask), bits(want_g))
    npt.assert_array_equal(bits(T.leaky_layer_vjp(g, x, mask)[0]), bits(want_g))


# ---------------------------------------------------------------------------
# optimizer

def test_sgd_zero_lr_keeps_params():
    p = T.Tensor([1.0, 2.0])
    opt = T.SgdOptimizer({"p": p}, momentum=0.9, weight_decay=1e-2)
    opt.step(0.0, {"p": np.array([5.0, -5.0])})
    npt.assert_array_equal(p.data, [1.0, 2.0])


def test_sgd_scalar_case():
    p = T.Tensor([1.0])
    T.SgdOptimizer({"p": p}).step(0.1, {"p": np.array([2.0])})
    npt.assert_allclose(p.data, [0.8], atol=1e-15)


def test_sgd_two_steps_match_hand_recurrence():
    mom, wd, lr = 0.9, 5e-4, 0.1
    p = T.Tensor([1.5])
    opt = T.SgdOptimizer({"p": p}, momentum=mom, weight_decay=wd)
    pv, v = 1.5, 0.0
    for g in (0.3, -0.2):
        opt.step(lr, {"p": np.array([g])})
        v = mom * v + (g + wd * pv)
        pv = pv - lr * v
        npt.assert_allclose(p.data, [pv], atol=1e-15)


def test_sgd_skips_params_without_grad():
    p = T.Tensor([1.0])
    opt = T.SgdOptimizer({"p": p}, weight_decay=0.1)
    opt.step(1.0, {})
    npt.assert_array_equal(p.data, [1.0])


# ---------------------------------------------------------------------------
# rng

def test_rng_identical_streams():
    a, b = T.Rng(123), T.Rng(123)
    npt.assert_array_equal(a.gen.normal(size=10), b.gen.normal(size=10))
    npt.assert_array_equal(a.gen.uniform(size=10), b.gen.uniform(size=10))


def test_rng_child_reproducible_and_independent():
    root = T.Rng(7)
    c1 = root.child("dropout", 3)
    burn = root.gen.normal(size=5)  # advancing the parent must not affect children
    c2 = root.child("dropout", 3)
    npt.assert_array_equal(c1.gen.normal(size=4), c2.gen.normal(size=4))
    assert not np.array_equal(root.child("a").gen.normal(size=4),
                              root.child("b").gen.normal(size=4))


def test_rng_builds_its_generator_on_the_first_draw():
    r = T.Rng(5).child("eval", 3, "sample")
    assert "gen" not in vars(r)
    eager = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(5, spawn_key=r.key)))
    npt.assert_array_equal(r.gen.normal(size=6), eager.normal(0.0, 1.0, 6))
    assert "gen" in vars(r)
