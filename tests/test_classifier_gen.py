"""Classifier generator: propagation oracles, refinement, emission contracts."""

import numpy as np
import numpy.testing as npt
import pytest

import _tape
from _oracles import (generator_input, numerical_grad, permute_graph, rel_err,
                      tape_emit_for_task)
from conceptshot import classifier_gen, tensor as T
from conceptshot.classifier_gen import (GeneratorConfig, emit_classifier,
                                        emit_for_task, graph_embed, init_generator,
                                        refine_relations)
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
    (z,), _, _ = graph_embed(params, cfg, prop, generator_input(prop, sem), [rng], training)
    return z


def emit_one(params, cfg, prop, sem, class_ids, rng, training):
    """One task's classifier, emitted alone."""
    (head,) = emit_for_task(params, cfg, prop, generator_input(prop, sem), [class_ids],
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
                    training=False)


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
    (out,), _, _ = refine_relations(params, cfg, [z], [T.Rng(0)], training=False)
    npt.assert_array_equal(out, z)


def test_single_class_refinement_shape():
    cfg = small_cfg()
    params = init_generator(cfg, 3, 2, T.Rng(4))
    z = np.random.default_rng(4).standard_normal((1, 3))
    (out,), _, _ = refine_relations(params, cfg, [z], [T.Rng(0)], training=False)
    assert out.shape == (1, 3)


def test_relation_width_mismatch_rejected():
    with pytest.raises(ConfigError, match="must match"):
        GeneratorConfig(embed_widths=[4, 3], relation_widths=[5, 4])


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
    eye = T.Tensor(np.eye(2))
    zero = T.Tensor(np.zeros(2))
    rows, _, _ = emit_classifier(prop, z_all, refined, [np.array([1])], eye, zero, scale)
    weights, bias = rows[:, :1], rows[:, 1]
    assert weights[0, 0] == (row[0] / norm) * scale
    assert bias[0] == (row[1] / norm) * scale


def test_emit_scale_zero_gives_zero_head():
    g = tree7()
    cfg = small_cfg(scale=0.0)
    params = init_generator(cfg, 3, 2, T.Rng(5))
    head = emit_one(params, cfg, propagation_operator(g), g.semantics, [3, 5], T.Rng(0),
                    training=False)
    npt.assert_array_equal(head.weights.data, np.zeros((2, 2)))
    npt.assert_array_equal(head.bias.data, np.zeros(2))


@pytest.mark.parametrize("scale", [0.2, 1.0, 3.0])
def test_row_norms_bounded_by_scale(scale):
    g = tree7()
    cfg = small_cfg(scale=scale)
    for seed in range(30):
        params = init_generator(cfg, 3, 2, T.Rng(seed))
        head = emit_one(params, cfg, propagation_operator(g), g.semantics, [3, 4, 6],
                        T.Rng(0), training=False)
        rows = np.concatenate([head.weights.data, head.bias.data[:, None]], axis=1)
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
    npt.assert_array_equal(a.weights.data[[1, 0, 2]], b.weights.data)
    npt.assert_array_equal(a.bias.data[[1, 0, 2]], b.bias.data)


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
    npt.assert_array_equal(a.weights.data, b.weights.data)
    npt.assert_array_equal(a.bias.data, b.bias.data)


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


def _shared(params, cfg, prop, sem):
    z = embed_one(params, cfg, prop, sem, T.Rng(0), training=False)
    return generator_input(prop, z)


@pytest.mark.parametrize("ids", [[[3, 4], [1, 2], [5, 6, 3], [0]],
                                 [[0], [5, 6, 3], [1, 2], [3, 4]]])
def test_shared_embedding_emit_matches_alone_bitwise(ids):
    # tasks of several levels in one call, each touching rows that an
    # earlier task rewrote, so the write-back buffer must be restored
    # between tasks (in either task order)
    g = tree7()
    cfg = small_cfg()
    params = {n: T.Tensor(p.data) for n, p in init_generator(cfg, 3, 2, T.Rng(9)).items()}
    prop = propagation_operator(g)
    heads = emit_for_task(params, cfg, prop, generator_input(prop, g.semantics), ids,
                          [T.Rng(k) for k in range(4)], False,
                          embedding=_shared(params, cfg, prop, g.semantics))
    for i, head in zip(ids, heads):
        alone = emit_one(params, cfg, prop, g.semantics, i, T.Rng(0), training=False)
        assert np.array_equal(_bits(head.weights.data), _bits(alone.weights.data))
        assert np.array_equal(_bits(head.bias.data), _bits(alone.bias.data))


def test_shared_embedding_emit_checks_untouched_rows():
    # node 6 overflows the output affine, and no task touches its row
    g = tree7()
    cfg = small_cfg()
    params = {n: T.Tensor(p.data) for n, p in init_generator(cfg, 3, 2, T.Rng(9)).items()}
    prop = propagation_operator(g)
    z = _shared(params, cfg, prop, g.semantics).z.data.copy()
    z[6] = 1e300
    params["gen.out.W"].data = params["gen.out.W"].data * 1e10
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="'affine'"):
        emit_for_task(params, cfg, prop, generator_input(prop, g.semantics), [[3, 4]],
                      [T.Rng(0)], False, embedding=generator_input(prop, z))


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
        head = emit_one(params, cfg, prop, g.semantics, ids, T.Rng(0),
                        training=False)
        return _tape.add(_tape.sum_all(_tape.mul(head.weights, T.Tensor(rw))),
                         _tape.sum_all(_tape.mul(head.bias, T.Tensor(rb))))

    targets = dict(params)
    names = list(targets)
    analytic = T.grad(forward(), [targets[n] for n in names])
    for n, ga in zip(names, analytic):
        keep = targets[n].data.copy()

        def f(v, n=n, keep=keep):
            targets[n].data = v
            val = forward().item()
            targets[n].data = keep
            return val

        assert rel_err(ga, numerical_grad(f, keep)) < 1e-5, n


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
    generator gradient under a random upstream gradient, summed over the
    tasks in task order.  The root has 9 neighbors, so its sums are sorted.
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

    def run(emit):
        heads = emit()
        total = None
        for head, (uw, ub) in zip(heads, ups):
            loss = _tape.add(_tape.sum_all(_tape.mul(head.weights, T.Tensor(uw))),
                             _tape.sum_all(_tape.mul(head.bias, T.Tensor(ub))))
            total = loss if total is None else _tape.add(total, loss)
        return heads, T.grad(total, list(gen.values()))

    got = run(lambda: m.emit(ids, [T.Rng(7).child(k) for k in range(len(ids))], training))
    want = run(lambda: [tape_emit_for_task(m.params, m.gen_cfg, m.prop, m.generator_input.z,
                                           i, T.Rng(7).child(k), training)
                        for k, i in enumerate(ids)])
    for a, b in zip(got[0], want[0]):
        assert np.array_equal(_bits(a.weights.data), _bits(b.weights.data))
        assert np.array_equal(_bits(a.bias.data), _bits(b.bias.data))
    for n, a, b in zip(gen, got[1], want[1]):
        assert np.array_equal(_bits(a), _bits(b)), n


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
