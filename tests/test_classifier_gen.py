"""Classifier generator: propagation oracles, refinement, emission contracts."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import _tape
from _oracles import (every_row, generator_input, numerical_grad, permute_graph, rel_err,
                      scattered_pair_grads, tape_emit_for_task)
from conceptshot import classifier_gen, tensor as T
from conceptshot.classifier_gen import (GeneratorConfig, affine_groups, emit_classifier,
                                        emit_for_task, graph_embed, init_generator,
                                        pair_grads, refine_relations)
from conceptshot.data import SynthConfig, generate_synthetic
from conceptshot.encoder import EncoderConfig
from conceptshot.errors import ConfigError, DataError, NumericalError
from conceptshot.graph import ConceptGraph, NodeRecord, propagation_operator
from conceptshot.meta import Model


def chain3_graph(sem):
    nodes = [NodeRecord(0, "root", 0), NodeRecord(1, "mid", 1),
             NodeRecord(2, "leaf", 2, "meta-train")]
    return ConceptGraph(nodes, [(0, 1), (1, 2)], sem, 3)


def tree7(sem_dim=3, seed=0):
    nodes = [NodeRecord(0, "root", 0)]
    nodes += [NodeRecord(i, f"m{i}", 1) for i in (1, 2)]
    nodes += [NodeRecord(i, f"l{i}", 2, "meta-train") for i in (3, 4, 5, 6)]
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    sem = np.random.default_rng(seed).standard_normal((7, sem_dim))
    return ConceptGraph(nodes, edges, sem, 3)


def small_cfg(**kw):
    kw.setdefault("embed_widths", [4, 3])
    kw.setdefault("relation_widths", [5, 3])
    return GeneratorConfig(**kw)


def embed_one(params, cfg, prop, sem, rng, training):
    """``graph_embed``'s node matrix for one task."""
    (z,), _ = graph_embed(params, cfg, prop, generator_input(prop, sem), [rng], training,
                          every_reach(prop, cfg))
    return z


def every_reach(prop, cfg, tasks=1):
    """``graph_embed``'s row sets at every depth, each asking for every row."""
    return [every_row(prop, tasks)] * len(cfg.embed_widths)


def emit_one(params, cfg, prop, sem, class_ids, rng, training):
    """One task's (weights, bias) head, emitted alone."""
    (head,), _ = emit_for_task(params, cfg, prop, generator_input(prop, sem), [class_ids],
                               [rng], training)
    return head


# ---------------------------------------------------------------------------
# graph embedding

def test_single_hop_chain_oracle():
    """Unit weights on the 3-node path: averaging gives [1.5, 2, 2.5]."""
    g = chain3_graph(np.array([[1.0], [2.0], [3.0]]))
    cfg = GeneratorConfig(embed_widths=[1], relation_widths=[2, 1])
    params = init_generator(cfg, 1, 1, T.Rng(0))
    params["gen.embed.0.W"].data = np.array([[1.0]])
    out = embed_one(params, cfg, propagation_operator(g), g.semantics,
                    T.Rng(0), training=False)
    npt.assert_allclose(out, [[1.5], [2.0], [2.5]], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_hop_matches_bruteforce_neighbor_sums(seed):
    rng = np.random.default_rng(seed)
    g = tree7(sem_dim=3, seed=seed)
    cfg = GeneratorConfig(embed_widths=[4], relation_widths=[2, 4])
    params = init_generator(cfg, 3, 2, T.Rng(seed))
    out = embed_one(params, cfg, propagation_operator(g), g.semantics,
                    T.Rng(0), training=False)
    w, b = params["gen.embed.0.W"].data, params["gen.embed.0.b"].data
    for i in range(7):
        nbrs = [j for j in range(7) if (min(i, j), max(i, j)) in set(g.edges)] + [i]
        agg = sum(g.semantics[j] for j in nbrs) / len(nbrs)
        pre = agg @ w + b
        expect = np.where(pre >= 0, pre, 0.1 * pre)
        npt.assert_allclose(out[i], expect, atol=1e-12)


def test_zero_semantics_zero_bias_gives_zero():
    g = tree7()
    cfg = small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(1))
    out = embed_one(params, cfg, propagation_operator(g),
                    np.zeros((7, 3)), T.Rng(0), training=False)
    npt.assert_array_equal(out, np.zeros((7, 3)))


def test_semantics_width_mismatch_is_config_error():
    g = tree7()
    cfg = small_cfg()
    params = init_generator(cfg, 5, 2, T.Rng(1))  # expects width 5, graph has 3
    prop = propagation_operator(g)
    with pytest.raises(ConfigError, match="semantic width 3"):
        graph_embed(params, cfg, prop, generator_input(prop, g.semantics), [T.Rng(0)],
                    False, every_reach(prop, cfg))


def test_dropout_trains_deterministically_by_rng():
    g = tree7()
    cfg = small_cfg(keep_prob=0.8)
    params = init_generator(cfg, 3, 2, T.Rng(2))
    z = g.semantics
    prop = propagation_operator(g)
    a = embed_one(params, cfg, prop, z, T.Rng(5), training=True)
    b = embed_one(params, cfg, prop, z, T.Rng(5), training=True)
    c = embed_one(params, cfg, prop, z, T.Rng(6), training=True)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # eval mode ignores the rng entirely
    npt.assert_array_equal(
        embed_one(params, cfg, prop, z, T.Rng(5), training=False),
        embed_one(params, cfg, prop, z, T.Rng(6), training=False))


# ---------------------------------------------------------------------------
# relation refinement

def test_zero_mlp_is_pure_residual():
    cfg = small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(3))
    for k in ("gen.rel.0.W", "gen.rel.1.W"):
        params[k].data = np.zeros_like(params[k].data)
    z = np.random.default_rng(3).standard_normal((4, 3))
    (out,), _ = refine_relations(params, cfg, [z], [T.Rng(0)], training=False)
    npt.assert_array_equal(out, z)


def test_single_class_refinement_shape():
    cfg = small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(4))
    z = np.random.default_rng(4).standard_normal((1, 3))
    (out,), _ = refine_relations(params, cfg, [z], [T.Rng(0)], training=False)
    assert out.shape == (1, 3)


def test_relation_width_mismatch_rejected():
    with pytest.raises(ConfigError, match="must match"):
        GeneratorConfig(embed_widths=[4, 3], relation_widths=[5, 4])


@pytest.mark.parametrize("tasks", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 32])
def test_pair_grads_match_the_scatter_oracle_bitwise(d, tasks):
    # refine_relations' backward gathers the pair rows' gradients with two
    # ordered reductions, which add in the scatter's order from +0.0; one
    # column is summed over the full width, where eight lanes would change
    # the bits from eight classes on
    rng = np.random.default_rng(10 * d + tasks)
    for n in (*range(1, 7), 8, 12):
        for trial in range(5):
            gh = rng.standard_normal((tasks, n * n, 2 * d)) * np.exp(
                rng.uniform(-30, 30, (tasks, n * n, 2 * d)))
            u = rng.uniform(size=gh.shape)
            gh[u < 0.2] = -0.0
            gh[(u >= 0.2) & (u < 0.3)] = 0.0
            for got, want in zip(pair_grads(gh, n), scattered_pair_grads(gh, n)):
                assert got.shape == want.shape == (tasks, n, d)
                assert np.array_equal(_bits(got), _bits(want)), (n, d)


@pytest.mark.parametrize("training", [True, False])
def test_embed_and_relation_vjps_leave_their_gradient_unwritten(training):
    # the leaky layers' vjp writes only into arrays a vjp makes itself; with
    # no dropout mask the last hop's vjp meets the caller's array as it is
    g = tree7(seed=12)
    prop, cfg = propagation_operator(g), small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(12))
    rngs, rng = [T.Rng(0), T.Rng(1)], np.random.default_rng(12)
    z, embed_back = graph_embed(params, cfg, prop, generator_input(prop, g.semantics),
                                rngs, training, every_reach(prop, cfg, tasks=2))
    g_z = rng.standard_normal(z.shape)
    keep = g_z.copy()
    embed_back(g_z)
    npt.assert_array_equal(_bits(g_z), _bits(keep))
    rows, refine_back = refine_relations(params, cfg, [z[0][[3, 4]], z[1][[3, 5, 6]]],
                                         rngs, training)
    g_rows = [rng.standard_normal(r.shape) for r in rows]
    keep = [g.copy() for g in g_rows]
    refine_back(g_rows)
    for got, want in zip(g_rows, keep):
        npt.assert_array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# emission

def isolated_node_setup():
    """Graph whose node 1 is linkless: its propagation row is a self one-hot."""
    nodes = [NodeRecord(0, "a", 0), NodeRecord(1, "b", 0), NodeRecord(2, "x", 1)]
    g = ConceptGraph(nodes, [(0, 2)], np.zeros((3, 2)), 2)
    return propagation_operator(g)


@pytest.mark.parametrize("row, norm, scale", [((3.0, 4.0), 5.0, 0.2),
                                              ((5.0, 12.0), 13.0, 0.5),
                                              ((8.0, 15.0), 17.0, 1.0)])
def test_emit_345_case(row, norm, scale):
    """Pre-normalization row [3, 4] with scale 0.2 -> weights 0.12, bias 0.16
    (and the 5-12-13 and 8-15-17 rows at other scales)."""
    prop = isolated_node_setup()
    z_all = np.zeros((1, 3, 2))
    refined = [np.array([row])]
    rows, _ = emit_classifier(prop, z_all, refined, [np.array([1])], np.eye(2), np.zeros(2),
                              scale)
    weights, bias = rows[:, :1], rows[:, 1]
    assert weights[0, 0] == (row[0] / norm) * scale
    assert bias[0] == (row[1] / norm) * scale


def test_emit_scale_zero_gives_zero_head():
    g = tree7()
    cfg = small_cfg(scale=0.0)
    params = init_generator(cfg, 3, 2, T.Rng(5))
    weights, bias = emit_one(params, cfg, propagation_operator(g), g.semantics, [3, 5],
                             T.Rng(0), training=False)
    npt.assert_array_equal(weights, np.zeros((2, 2)))
    npt.assert_array_equal(bias, np.zeros(2))


@pytest.mark.parametrize("scale", [0.2, 1.0, 3.0])
def test_row_norms_bounded_by_scale(scale):
    g = tree7()
    cfg = small_cfg(scale=scale)
    for seed in range(30):
        params = init_generator(cfg, 3, 2, T.Rng(seed))
        weights, bias = emit_one(params, cfg, propagation_operator(g), g.semantics,
                                 [3, 4, 6], T.Rng(0), training=False)
        rows = np.concatenate([weights, bias[:, None]], axis=1)
        norms = np.linalg.norm(rows, axis=1)
        assert (norms <= scale + 1e-9).all()
        npt.assert_allclose(norms, scale, atol=1e-9)  # non-degenerate rows hit the cap


def test_swapping_classes_swaps_rows_exactly():
    g = tree7()
    cfg = small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(6))
    prop = propagation_operator(g)
    a = emit_one(params, cfg, prop, g.semantics, [3, 5, 6], T.Rng(0), training=False)
    b = emit_one(params, cfg, prop, g.semantics, [5, 3, 6], T.Rng(0), training=False)
    for x, y in zip(a, b):                          # weights, then bias
        npt.assert_array_equal(x[[1, 0, 2]], y)


@pytest.mark.parametrize("seed", range(5))
def test_emit_node_permutation_equivariance_exact(seed):
    rng = np.random.default_rng(seed + 100)
    g = tree7(seed=seed)
    cfg = small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(seed))
    perm = rng.permutation(7)
    gp = permute_graph(g, perm)
    ids = np.array([3, 4, 5])
    a = emit_one(params, cfg, propagation_operator(g), g.semantics, ids, T.Rng(0),
                 training=False)
    b = emit_one(params, cfg, propagation_operator(gp), gp.semantics, perm[ids], T.Rng(0),
                 training=False)
    for x, y in zip(a, b):                          # weights, then bias
        npt.assert_array_equal(x, y)


def test_emit_validates_class_ids():
    g = tree7()
    cfg = small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(9))
    with pytest.raises(DataError, match="duplicates"):
        emit_one(params, cfg, propagation_operator(g), g.semantics, [3, 3], T.Rng(0),
                 training=False)


def test_emit_checks_every_task_before_generator_work(monkeypatch):
    g = tree7()
    cfg = small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(9))
    calls = []
    monkeypatch.setattr(classifier_gen, "graph_embed", lambda *args: calls.append(args))
    prop = propagation_operator(g)
    for bad, match in (([3, 3], "duplicates"), ([3, 7], "out of range")):
        with pytest.raises(DataError, match=match):
            emit_for_task(params, cfg, prop, generator_input(prop, g.semantics),
                          [[3, 4], [5], bad], [T.Rng(k) for k in range(3)], training=True)
    assert calls == []


@pytest.mark.parametrize("ids", [[[3, 4], [1, 2], [5, 6, 3], [0]],
                                 [[0], [5, 6, 3], [1, 2], [3, 4]]])
def test_shared_embedding_emit_matches_alone_bitwise(ids):
    # tasks of several levels in one call out of training, where they share
    # one node embedding (of the union of their rows), each reading rows
    # that an earlier task rewrote (in either task order)
    g = tree7()
    cfg = small_cfg()
    params = {n: T.Tensor(p.data) for n, p in init_generator(cfg, 3, 2, T.Rng(9)).items()}
    prop = propagation_operator(g)
    heads, _ = emit_for_task(params, cfg, prop, generator_input(prop, g.semantics), ids,
                             [T.Rng(k) for k in range(4)], False)
    for i, head in zip(ids, heads):
        alone = emit_one(params, cfg, prop, g.semantics, i, T.Rng(0), training=False)
        for x, y in zip(head, alone):               # weights, then bias
            assert np.array_equal(_bits(x), _bits(y))


def test_affine_groups_are_first_fit():
    # a task joins the lowest group holding none of its rows: {2} goes back
    # to group 0 beside {1}, not after {1, 2}'s group
    ids = [np.array(i) for i in ([1], [1, 2], [2])]
    assert affine_groups(ids) == [0, 1, 0]
    ids = [np.array(i) for i in ([3, 4], [1, 2], [5, 6, 3], [0], [3, 4], [1, 5], [6], [2, 4])]
    assert affine_groups(ids) == [0, 0, 1, 0, 2, 2, 0, 1]
    assert affine_groups([]) == []


@pytest.mark.parametrize("training, keep_prob", [(True, 0.9), (True, 1.0), (False, 0.9)])
def test_emit_with_repeated_class_rows_matches_alone_bitwise(training, keep_prob):
    # six tasks in three affine groups (tasks with disjoint class rows share
    # one): [3, 4], [1, 2] and [0] in the first, where row 1 reads rows 3
    # and 4, and row 0 rows 1 and 2, each written back by another task of
    # the group; [5, 6, 3] in the second; [3, 4] again and [1, 5] in the
    # third, where row 1 reads the repeated task's rows 3 and 4.  Each task
    # reads its own refined rows only, and each head has the bits of its
    # task emitted alone from the same stream
    g = tree7()
    cfg = small_cfg(keep_prob=keep_prob)
    params = init_generator(cfg, 3, 2, T.Rng(9))
    prop = propagation_operator(g)
    ids = [[3, 4], [1, 2], [5, 6, 3], [0], [3, 4], [1, 5]]
    heads, _ = emit_for_task(params, cfg, prop, generator_input(prop, g.semantics), ids,
                             [T.Rng(k) for k in range(len(ids))], training)
    for k, (i, head) in enumerate(zip(ids, heads)):
        alone = emit_one(params, cfg, prop, g.semantics, i, T.Rng(k), training)
        for x, y in zip(head, alone):               # weights, then bias
            assert np.array_equal(_bits(x), _bits(y))


@pytest.mark.parametrize("training", [True, False])
def test_emit_with_a_task_back_in_an_earlier_group_matches_alone_bitwise(training):
    # [5, 6] and [1, 2] go back to group 0 after [3, 5] opened group 1, so
    # one affine serves tasks on both sides of another group's task; each
    # head has the bits of its task emitted alone
    g = tree7()
    cfg = small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(9))
    prop = propagation_operator(g)
    ids = [[3, 4], [3, 5], [5, 6], [1, 2]]
    assert affine_groups([np.array(i) for i in ids]) == [0, 1, 0, 0]
    heads, _ = emit_for_task(params, cfg, prop, generator_input(prop, g.semantics), ids,
                             [T.Rng(k) for k in range(len(ids))], training)
    for k, (i, head) in enumerate(zip(ids, heads)):
        alone = emit_one(params, cfg, prop, g.semantics, i, T.Rng(k), training)
        for x, y in zip(head, alone):               # weights, then bias
            assert np.array_equal(_bits(x), _bits(y))


def _emit_shared_with_overflow(monkeypatch, row):
    """Task [3, 4] emitted out of training with 1e300 in ``row`` of the node
    embedding it writes back into and an output layer scaled to overflow
    from it, and from the embedding as it is."""
    g = tree7()
    cfg = small_cfg()
    params = {n: T.Tensor(p.data) for n, p in init_generator(cfg, 3, 2, T.Rng(9)).items()}
    prop = propagation_operator(g)
    params["gen.out.W"].data = params["gen.out.W"].data * 1e10
    embed = classifier_gen.graph_embed

    def emit():
        return emit_for_task(params, cfg, prop, generator_input(prop, g.semantics),
                             [[3, 4]], [T.Rng(0)], False)[0][0]

    def overflowing_embed(*args):
        z, back = embed(*args)
        z = np.array(z)
        z[:, row] = 1e300
        return z, back

    want = emit()
    monkeypatch.setattr(classifier_gen, "graph_embed", overflowing_embed)
    return emit(), want


def test_shared_embedding_emit_checks_untouched_rows(monkeypatch):
    # node 1 is no class row, but both class rows read it in the write-back
    # propagation, and it overflows the output affine there
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="'affine'"):
        _emit_shared_with_overflow(monkeypatch, 1)


def test_shared_embedding_emit_ignores_rows_no_task_reads(monkeypatch):
    # node 6 is in no class row's neighborhood, so it reaches no output: the
    # write-back neither checks it nor moves a bit
    got, want = _emit_shared_with_overflow(monkeypatch, 6)
    for x, y in zip(got, want):                     # weights, then bias
        assert np.array_equal(_bits(x), _bits(y))


def test_shared_embedding_emit_memory_does_not_grow_with_the_block():
    # an eval block's tasks share one node matrix, broadcast: the write-back
    # reads it without a copy per task and holds one node-sized matrix for
    # all its affine groups, so 60 more tasks on a 585-node graph add less
    # than a quarter of a node matrix each (a copy per task stacked for the
    # block would add several)
    g, _ = generate_synthetic(SynthConfig(branching=8, num_levels=4, input_dim=2,
                                          semantic_dim=2, samples_per_class=1, seed=5))
    prop = propagation_operator(g)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((g.num_nodes, 32))
    w, b = 0.1 * rng.standard_normal((32, 65)), np.zeros(65)
    leaves = g.ids_at(g.entity_level)

    def peak(tasks):
        ids = [rng.choice(leaves, 5, replace=False) for _ in range(tasks)]
        refined = [rng.standard_normal((5, 32)) for _ in ids]
        block = np.broadcast_to(z, (tasks,) + z.shape)
        tracemalloc.start()
        try:
            emit_classifier(prop, block, refined, ids, w, b, 0.2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert g.num_nodes == 585
    assert peak(64) - peak(4) < 60 * z.nbytes / 4


def test_one_hot_mode_config():
    cfg = small_cfg(semantics="one-hot")
    assert cfg.semantics == "one-hot"
    with pytest.raises(ConfigError):
        small_cfg(semantics="bag-of-words")


# ---------------------------------------------------------------------------
# gradients through the full generator

@pytest.mark.parametrize("ids", [[3, 4, 6], [1, 5]])
def test_fd_through_generator(ids):
    g = tree7(sem_dim=2, seed=11)
    cfg = GeneratorConfig(embed_widths=[3, 2], relation_widths=[4, 2], scale=0.2)
    params = init_generator(cfg, 2, 2, T.Rng(11))
    prop = propagation_operator(g)
    rng = np.random.default_rng(11)
    rw = rng.standard_normal((len(ids), 2))
    rb = rng.standard_normal(len(ids))

    def forward():
        ((w, b),), grads = emit_for_task(params, cfg, prop,
                                         generator_input(prop, g.semantics), [ids],
                                         [T.Rng(0)], False)
        return float(np.sum(w * rw) + np.sum(b * rb)), grads

    targets = dict(params)
    names = list(targets)
    analytic = forward()[1]([(rw, rb)])
    assert sorted(analytic) == sorted(names)
    for n in names:
        ga, keep = analytic[n], targets[n].data.copy()

        def f(v, n=n, keep=keep):
            targets[n].data = v
            val = forward()[0]
            targets[n].data = keep
            return val

        assert rel_err(ga, numerical_grad(f, keep)) < 1e-5, n


def test_generator_gradients_under_relabeling_match_to_rounding():
    # in training the reductions over nodes (x.T @ g, the bias sums, pz.T @ ga)
    # run in node-id order, so a relabeling may move the generator's
    # gradients in the last bits, but no further; the heads keep their bits.
    # keep_prob is 1: dropout masks are drawn in node-id order
    g, _ = generate_synthetic(SynthConfig(branching=4, num_levels=4, input_dim=2,
                                          semantic_dim=16, samples_per_class=1, seed=0))
    assert g.num_nodes == 85
    cfg = GeneratorConfig(embed_widths=[64, 32], relation_widths=[64, 32], keep_prob=1.0)
    params = init_generator(cfg, 16, 64, T.Rng(0))
    rng = np.random.default_rng(0)
    ids = [rng.choice(g.ids_at(lv), n, replace=False) for lv, n in ((3, 5), (1, 4), (2, 5))]
    head_grads = [(rng.standard_normal((i.size, 64)), rng.standard_normal(i.size))
                  for i in ids]

    def emit(graph, class_ids):
        prop = propagation_operator(graph)
        heads, grads = emit_for_task(params, cfg, prop, generator_input(prop, graph.semantics),
                                     class_ids, [T.Rng(k) for k in range(3)], True)
        return heads, grads(head_grads)

    want_heads, want = emit(g, ids)
    for trial in range(5):
        perm = rng.permutation(g.num_nodes)
        heads, got = emit(permute_graph(g, perm), [perm[i] for i in ids])
        for a, b in zip(heads, want_heads):
            for x, y in zip(a, b):                  # weights, then bias
                assert np.array_equal(_bits(x), _bits(y))
        assert sorted(got) == sorted(want)
        for n in want:
            npt.assert_allclose(got[n], want[n], rtol=1e-12, atol=1e-15, err_msg=n)


def _bits(a):
    return np.asarray(a).view(np.int64)


THREE_TASKS = [np.array([40]), np.array([9, 17, 0, 33]), np.array([70, 3, 12, 64, 8])]
# the root, a level-1 concept and its leaves, in tasks of 2, 3 and 6 classes
OTHER_TASKS = [np.array([0, 61]), np.array([2, 44, 27]),
               np.array([72, 13, 55, 6, 38, 71])]


def _emit_against_tape(semantics, keep_prob, training, embed_widths=(6, 4),
                       relation_widths=(5, 4), ids=THREE_TASKS, seed=2):
    """Tasks (by default three, of 1, 4 and 5 classes) emitted in one call
    against each emitted alone by the taped stages: weights, bias and every
    generator gradient under a random upstream gradient at the heads (the
    program's ``grads``, the tape's walk), summed over the tasks in task
    order.  The root has 9 neighbors, so its sums are sorted.
    The taped stages get the raw z0 and propagate it in the call, which pins
    the model's precomputed P·z0."""
    g, _ = generate_synthetic(SynthConfig(branching=8, num_levels=3, input_dim=6,
                                          semantic_dim=5, samples_per_class=2, seed=3))
    m = Model(g, EncoderConfig(input_dim=6, widths=[4], low_layers=0),
              GeneratorConfig(embed_widths=list(embed_widths),
                              relation_widths=list(relation_widths),
                              keep_prob=keep_prob, semantics=semantics),
              seed=seed)
    upstream = np.random.default_rng(5)
    ups = [(upstream.standard_normal((i.size, 4)), upstream.standard_normal(i.size))
           for i in ids]
    gen = {n: p for n, p in m.params.items() if n.startswith("gen.")}

    heads, grads = m.emit(ids, [T.Rng(7).child(k) for k in range(len(ids))], training)
    got = grads(ups)
    z0 = np.eye(g.num_nodes) if semantics == "one-hot" else g.semantics
    want_heads = [tape_emit_for_task(m.params, m.gen_cfg, m.prop, z0, i, T.Rng(7).child(k),
                                     training)
                  for k, i in enumerate(ids)]
    total = None
    for (w, b), (uw, ub) in zip(want_heads, ups):
        loss = _tape.add(_tape.sum_all(_tape.mul(w, T.Tensor(uw))),
                         _tape.sum_all(_tape.mul(b, T.Tensor(ub))))
        total = loss if total is None else _tape.add(total, loss)
    want = _tape.grad(total, list(gen.values()))
    for a, b in zip(heads, want_heads):
        for x, y in zip(a, b):                      # weights, then bias
            assert np.array_equal(_bits(x), _bits(y.data))
    assert sorted(got) == sorted(gen)
    for n, b in zip(gen, want):
        assert np.array_equal(_bits(got[n]), _bits(b)), n


@pytest.mark.parametrize("seed", [2, 4])
@pytest.mark.parametrize("tasks", ["three", "other"])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("keep_prob", [0.9, 1.0])
@pytest.mark.parametrize("semantics", ["embeddings", "one-hot"])
def test_emit_matches_tape_bitwise(semantics, keep_prob, training, tasks, seed):
    ids = THREE_TASKS if tasks == "three" else OTHER_TASKS
    _emit_against_tape(semantics, keep_prob, training, ids=ids, seed=seed)


@pytest.mark.parametrize("training", [True, False])
def test_one_column_emit_matches_tape_bitwise(training):
    # one-column node matrices over the root's 9 neighbors, where a column
    # summed alone and one summed beside others can differ in bits
    _emit_against_tape("embeddings", 0.9, training, (1, 1), (2, 1))


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("semantics", ["embeddings", "one-hot"])
def test_stacked_relations_match_tape_bitwise(semantics, training):
    # tasks of 1, 4, 5, 4 and 5 classes: the two 4-way and the two 5-way
    # tasks each run the relation MLP and its backward as one stack
    ids = THREE_TASKS + [np.array([21, 50, 5, 66]), np.array([1, 30, 45, 60, 72])]
    _emit_against_tape(semantics, 0.9, training, ids=ids)


@pytest.mark.parametrize("keep_prob", [0.9, 1.0])
@pytest.mark.parametrize("training", [True, False])
def test_three_hop_emit_matches_tape_bitwise(training, keep_prob):
    # hops 1 and 2 propagate N(N(i)) and N(i), their vjps N^3(i) and N^2(i)
    _emit_against_tape("embeddings", keep_prob, training, (6, 5, 4), (5, 4))


@pytest.mark.parametrize("n", [85, 585])
@pytest.mark.parametrize("d_in, d_out", [(16, 64), (64, 32), (32, 65)])
def test_row_restricted_inputs_keep_the_products_bits(n, d_in, d_out):
    # The two BLAS facts the training generator's row-restricted
    # propagation rests on, on its shapes: (1) a row of a full-height
    # product x @ w has bits that depend on the row count, not on the other
    # rows' values, so +0.0 rows elsewhere leave it as it is; (2) in a
    # weight-gradient contraction x.T @ g, rows of x set to +0.0 where g's
    # rows are zeros (of either sign) leave every bit as it is, for a stack
    # of tasks and for one node matrix shared by them.
    rng = np.random.default_rng(n + d_in)
    for trial in range(20):
        x = rng.standard_normal((3, n, d_in))
        w = rng.standard_normal((d_in, d_out))
        keep = [rng.choice(n, int(rng.integers(1, 60)), replace=False) for _ in x]
        part = np.zeros_like(x)
        g = np.zeros((3, n, d_out))
        for t, r in enumerate(keep):
            part[t, r] = x[t, r]
            g[t, r] = rng.standard_normal((r.size, d_out))
        g[rng.uniform(size=g.shape) < 0.3 * (g == 0)] = -0.0
        full_out, part_out = x @ w, part @ w
        for t, r in enumerate(keep):
            assert np.array_equal(_bits(part_out[t, r]), _bits(full_out[t, r]))
        assert np.array_equal(_bits(part.swapaxes(1, 2) @ g), _bits(x.swapaxes(1, 2) @ g))
        shared, union = np.zeros((n, d_in)), np.unique(np.concatenate(keep))
        shared[union] = x[0, union]
        assert np.array_equal(_bits(shared.swapaxes(0, 1) @ g), _bits(x[0].swapaxes(0, 1) @ g))
