"""Acceptance gate: one test per shipped criterion, in order.

Criteria 7-9 train the seeded synthetic benchmark (branching 4, four levels,
64 leaf classes, 32-dim inputs, 2000 outer iterations) end to end; their runs
are cached in-module so shared variants are trained once.
"""

import json
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

import _tape
from _oracles import (generator_input, lone_episode_loss, numerical_grad,
                      permute_graph, rel_err)
from conceptshot import tensor as T
from conceptshot.classifier_gen import (GeneratorConfig, emit_classifier,
                                        emit_for_task, graph_embed, init_generator)
from conceptshot.cli import main as cli_main
from conceptshot.data import (Episode, SynthConfig, generate_synthetic,
                              sample_entity_episode)
from conceptshot.encoder import EncoderConfig
from conceptshot.graph import ConceptGraph, NodeRecord, propagation_operator
from conceptshot.meta import (EvalConfig, Model, TrainConfig, confidence_interval,
                              evaluate, train)

# frozen benchmark: 1 + 4 + 16 + 64 nodes, mid-difficulty noise profile
BENCH_DATA = dict(branching=4, num_levels=4, input_dim=32, semantic_dim=16,
                  samples_per_class=50, sigma_levels=[0.6, 0.4, 0.3, 1.0])
BENCH_ITERATIONS = 2000
BENCH_SEEDS = range(5)
_BENCH_CACHE = {}


def bench_model(seed, semantics="embeddings", scale=0.2):
    g, ds = generate_synthetic(SynthConfig(seed=seed, **BENCH_DATA))
    enc = EncoderConfig(input_dim=32, widths=[64, 64], low_layers=1)
    gen = GeneratorConfig(embed_widths=[64, 32], relation_widths=[64, 32],
                          scale=scale, semantics=semantics)
    return Model(g, enc, gen, seed=seed), ds


def bench_accuracy(seed, concept_weight=1.0, entity_weight=1.0,
                   semantics="embeddings"):
    key = (seed, concept_weight, entity_weight, semantics)
    if key not in _BENCH_CACHE:
        model, ds = bench_model(seed, semantics)
        cfg = TrainConfig(iterations=BENCH_ITERATIONS,
                          concept_weight=concept_weight,
                          entity_weight=entity_weight, seed=seed)
        train(model, ds, cfg)
        res = evaluate(model, ds, EvalConfig(n_episodes=600, seed=seed + 1000),
                       split="meta-test")
        _BENCH_CACHE[key] = res.mean
    return _BENCH_CACHE[key]


# ---------------------------------------------------------------------------
# 1. scale substitution

def test_01_desk_scale_substitution():
    """Image-corpus accuracy tables are out of reach on a desk; this suite
    substitutes exact property checks plus directional claims on the seeded
    synthetic benchmark below."""
    cfg = SynthConfig(seed=0, **BENCH_DATA)
    assert cfg.branching ** (cfg.num_levels - 1) == 64
    assert cfg.input_dim == 32
    assert BENCH_ITERATIONS == 2000
    g, ds = generate_synthetic(cfg)
    assert g.ids_at(g.entity_level).size == 64


# ---------------------------------------------------------------------------
# 2. gradient correctness

def _weighted_scalar(out, rng):
    w = T.Tensor(rng.standard_normal(out.data.shape))
    return _tape.sum_all(_tape.mul(out, w))


def _leaf(rng, *shape, off=0.0):
    x = rng.standard_normal(shape)
    if off:  # keep finite differences away from activation kinks
        x = x + off * np.sign(x)
    return T.Tensor(x, requires_grad=True)


def _op_cases(rng, seed):
    """(name, leaves, forward) triples covering every differentiable op."""
    a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
    v = _leaf(rng, 4)
    m1 = _leaf(rng, 3, 4)
    w, bias = _leaf(rng, 4, 2), _leaf(rng, 2)
    k = _leaf(rng, 3, 4, off=0.1)
    gx = _leaf(rng, 5, 3)
    wx, wr = _leaf(rng, 5, 3), _leaf(rng, 2, 3)
    nx = _leaf(rng, 4, 3)
    sx = _leaf(rng, 4, 3)
    cx = _leaf(rng, 6, 3)
    logit = _leaf(rng, 4, 3)
    labels = rng.integers(0, 3, 4)
    nodes = [NodeRecord(0, "r", 0), NodeRecord(1, "m", 1), NodeRecord(2, "m2", 1),
             NodeRecord(3, "l", 2), NodeRecord(4, "l2", 2)]
    prop = propagation_operator(ConceptGraph(
        nodes, [(0, 1), (0, 2), (1, 3), (2, 4)], np.zeros((5, 1)), 3))
    px = _leaf(rng, 5, 3)
    gather_idx = np.array([0, 2, 2, 4, 1])
    write_idx = np.array([0, 3])

    return [
        ("add", [a, b], lambda: _tape.add(a, b)),
        ("add_broadcast", [a, v], lambda: _tape.add(a, v)),
        ("mul", [a, b], lambda: _tape.mul(a, b)),
        ("mul_broadcast", [a, v], lambda: _tape.mul(a, v)),
        ("scale", [a], lambda: _tape.scale(a, -1.7)),
        ("transpose", [m1], lambda: _tape.transpose(m1)),
        ("affine", [m1, w, bias], lambda: _tape.affine(m1, w, bias)),
        ("leaky_relu", [k], lambda: _tape.leaky_relu(k, 0.1)),
        ("dropout", [a], lambda: _tape.dropout(a, 0.8, T.Rng(seed).child("dr"), True)),
        ("gather_rows", [gx], lambda: _tape.gather_rows(gx, gather_idx)),
        ("write_rows", [wx, wr], lambda: _tape.write_rows(wx, wr, write_idx)),
        ("concat_cols", [m1], lambda: _tape.concat_cols(m1, m1)),
        ("slice_cols", [a], lambda: _tape.slice_cols(a, 1, 3)),
        ("reshape", [a], lambda: _tape.reshape(a, (4, 3))),
        ("grouped_mean", [cx], lambda: _tape.grouped_mean(cx, 2)),
        ("sum_all", [a], lambda: _tape.sum_all(a)),
        ("l2_normalize_rows", [nx], lambda: _tape.l2_normalize_rows(nx)),
        ("softmax_rows", [sx], lambda: _tape.softmax_rows(sx)),
        ("cross_entropy", [logit], lambda: _tape.cross_entropy(logit, labels)),
        ("sym_neighbor_mean", [px],
         lambda: _tape.sym_neighbor_mean(px, prop.groups, prop.degrees)),
    ]


def _check_fd(leaves, forward, rng, tol):
    def scalar():
        out = forward()
        return out if out.data.ndim == 0 else _weighted_scalar(out, rng)

    rng_state = rng.bit_generator.state
    analytic = _tape.grad(scalar(), leaves)
    for leaf, g_a in zip(leaves, analytic):
        def f(x):
            old = leaf.data
            leaf.data = x
            rng.bit_generator.state = rng_state  # same scalarization weights
            val = scalar().item()
            leaf.data = old
            return val

        rng.bit_generator.state = rng_state
        g_n = numerical_grad(f, leaf.data.copy())
        assert rel_err(g_a, g_n) < tol


def test_02_finite_difference_gradients():
    t0 = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, leaves, forward in _op_cases(rng, seed):
            _check_fd(leaves, forward, np.random.default_rng(1000 + seed), 1e-4)

    # full episode objective at zero adaptation steps, all parameter groups
    g, ds = generate_synthetic(SynthConfig(branching=2, num_levels=3, input_dim=6,
                                           semantic_dim=6, samples_per_class=8,
                                           seed=0))
    enc = EncoderConfig(input_dim=6, widths=[6, 6], low_layers=1)
    gen = GeneratorConfig(embed_widths=[6, 6], relation_widths=[6, 6])
    for seed in range(20):
        model = Model(g, enc, gen, seed=seed)
        ep = sample_entity_episode(ds, g, "meta-train", 2, 1, 2, T.Rng(seed))
        names = sorted(model.params)
        tensors = [model.params[n] for n in names]

        def run():
            loss, _ = lone_episode_loss(model, ep, adapt_steps=0, inner_lr=0.01,
                                        rng=T.Rng(seed).child("drop"), training=True)
            return loss

        analytic = _tape.grad(run(), tensors)
        for t, g_a in zip(tensors, analytic):
            def f(x):
                old = t.data
                t.data = x
                val = run().item()
                t.data = old
                return val

            g_n = numerical_grad(f, t.data.copy())
            assert rel_err(g_a, g_n) < 1e-4
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 3. message passing oracle

def test_03_neighbor_averaging_oracles():
    # three-node path with unit weights: rows average to [1.5, 2, 2.5]
    nodes = [NodeRecord(0, "a", 0), NodeRecord(1, "b", 1),
             NodeRecord(2, "c", 2, "meta-train")]
    g = ConceptGraph(nodes, [(0, 1), (1, 2)],
                     np.array([[1.0], [2.0], [3.0]]), 3)
    cfg = GeneratorConfig(embed_widths=[1], relation_widths=[2, 1])
    params = init_generator(cfg, 1, 1, T.Rng(0))
    params["gen.embed.0.W"].data = np.array([[1.0]])
    prop = propagation_operator(g)
    (out,), _, _ = graph_embed(params, cfg, prop, generator_input(prop, g.semantics),
                               [T.Rng(0)], training=False)
    npt.assert_allclose(out, [[1.5], [2.0], [2.5]], rtol=0, atol=1e-12)

    # brute-force neighbor sums on 10 random hierarchies of at most 12 nodes
    for trial in range(10):
        rng = np.random.default_rng(trial)
        g = _random_hierarchy(rng)
        n = g.num_nodes
        z = rng.standard_normal((n, 3))
        got = propagation_operator(g).apply(z)
        edge_set = set(g.edges)
        for i in range(n):
            nbrs = [j for j in range(n)
                    if (min(i, j), max(i, j)) in edge_set] + [i]
            want = sum(z[j] for j in nbrs) / len(nbrs)
            npt.assert_allclose(got[i], want, rtol=0, atol=1e-12)


def _random_hierarchy(rng):
    nodes = [NodeRecord(0, "n0", 0)]
    edges = []
    parents, nid = [0], 1
    num_levels = int(rng.integers(2, 5))
    for lv in range(1, num_levels):
        layer = []
        for p in parents:
            want = int(rng.integers(1, 4)) if layer or p != parents[-1] else 1
            for _ in range(want):
                if nid >= 12:
                    break
                nodes.append(NodeRecord(nid, f"n{nid}", lv))
                edges.append((p, nid))
                layer.append(nid)
                nid += 1
        if not layer:  # node budget exhausted before this level began
            return ConceptGraph(nodes, edges, rng.standard_normal((nid, 3)), lv)
        parents = layer
    return ConceptGraph(nodes, edges, rng.standard_normal((nid, 3)), num_levels)


# ---------------------------------------------------------------------------
# 4. emitted row norms

def test_04_row_norm_contract():
    g, _ = generate_synthetic(SynthConfig(branching=3, num_levels=3, input_dim=8,
                                          semantic_dim=6, samples_per_class=4,
                                          seed=1))
    prop = propagation_operator(g)
    z0 = generator_input(prop, g.semantics)
    rng = np.random.default_rng(0)
    for trial in range(1000):
        beta = float(rng.uniform(0.0, 1.0))
        cfg = GeneratorConfig(embed_widths=[8, 6], relation_widths=[8, 6],
                              scale=beta)
        params = init_generator(cfg, 6, 4, T.Rng(trial))
        ids = rng.choice(g.num_nodes, size=3, replace=False)
        (head,) = emit_for_task(params, cfg, prop, z0, [ids], [T.Rng(trial)], True)
        rows = np.concatenate([head.weights.data, head.bias.data[:, None]], axis=1)
        assert (np.linalg.norm(rows, axis=1) <= beta + 1e-9).all()

    # a row that is [3, 4] before normalization, scaled to norm 0.2
    nodes = [NodeRecord(0, "a", 0), NodeRecord(1, "b", 0), NodeRecord(2, "x", 1)]
    lone = propagation_operator(ConceptGraph(nodes, [(0, 2)], np.zeros((3, 2)), 2))
    rows, _, _ = emit_classifier(lone, np.zeros((1, 3, 2)), [np.array([[3.0, 4.0]])],
                                 [np.array([1])], T.Tensor(np.eye(2)),
                                 T.Tensor(np.zeros(2)), 0.2)
    weights, bias = rows[:, :1], rows[:, 1]
    assert weights[0, 0] == (3.0 / 5.0) * 0.2
    assert bias[0] == (4.0 / 5.0) * 0.2
    npt.assert_allclose([weights[0, 0], bias[0]], [0.12, 0.16], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# 5. chance level exactness

def test_05_chance_level():
    model, ds = bench_model(0, scale=0.0)
    for seed in range(20):
        ep = sample_entity_episode(ds, model.graph, "meta-test", 5, 1, 15,
                                   T.Rng(seed))
        loss, _ = lone_episode_loss(model, ep, adapt_steps=0, inner_lr=0.01,
                                    rng=T.Rng(seed), training=False)
        assert abs(loss.item() - math.log(5)) <= 1e-10
    res = evaluate(model, ds, EvalConfig(n_episodes=600, adapt_steps=0, seed=7),
                   split="meta-test")
    assert abs(res.mean - 0.2) <= res.half_width + 1e-12


# ---------------------------------------------------------------------------
# 6. equivariance

def test_06_equivariance_exact():
    # (a) relabeling graph nodes relabels the emitted classifier, bitwise
    cfg = GeneratorConfig(embed_widths=[4, 3], relation_widths=[5, 3])
    for trial in range(100):
        rng = np.random.default_rng(trial)
        nodes = [NodeRecord(0, "root", 0),
                 NodeRecord(1, "m1", 1), NodeRecord(2, "m2", 1)]
        nodes += [NodeRecord(i, f"l{i}", 2, "meta-train") for i in (3, 4, 5, 6)]
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        g = ConceptGraph(nodes, edges, rng.standard_normal((7, 3)), 3)
        params = init_generator(cfg, 3, 2, T.Rng(trial))
        ids = rng.choice(7, size=3, replace=False)
        perm = rng.permutation(7)
        gp = permute_graph(g, perm)
        prop, prop_p = propagation_operator(g), propagation_operator(gp)
        (a,) = emit_for_task(params, cfg, prop, generator_input(prop, g.semantics),
                             [ids], [T.Rng(0)], training=False)
        (b,) = emit_for_task(params, cfg, prop_p, generator_input(prop_p, gp.semantics),
                             [perm[ids]], [T.Rng(0)], training=False)
        npt.assert_array_equal(a.weights.data, b.weights.data)
        npt.assert_array_equal(a.bias.data, b.bias.data)

    # (b) episode accuracy is invariant to class ordering
    g, ds = generate_synthetic(SynthConfig(branching=2, num_levels=3, input_dim=8,
                                           semantic_dim=8, samples_per_class=30,
                                           seed=5))
    enc = EncoderConfig(input_dim=8, widths=[16, 16], low_layers=1)
    gen = GeneratorConfig(embed_widths=[16, 8], relation_widths=[16, 8])
    model = Model(g, enc, gen, seed=7)
    for trial in range(100):
        rng = np.random.default_rng(trial)
        ep = sample_entity_episode(ds, g, "meta-train", 3, 1, 5, T.Rng(trial))
        perm = rng.permutation(3)
        inv = np.argsort(perm)
        ep2 = Episode(class_ids=ep.class_ids[perm], level=ep.level,
                      support_x=ep.support_x, support_y=inv[ep.support_y],
                      query_x=ep.query_x, query_y=inv[ep.query_y])
        l1, a1 = lone_episode_loss(model, ep, adapt_steps=2, inner_lr=0.01,
                                   rng=T.Rng(0), training=False)
        l2, a2 = lone_episode_loss(model, ep2, adapt_steps=2, inner_lr=0.01,
                                   rng=T.Rng(0), training=False)
        assert a1 == a2
        assert l1.item() == l2.item()


# ---------------------------------------------------------------------------
# 7-9. directional benchmark claims

@pytest.mark.slow
def test_07_concept_regularization_helps():
    t0 = time.monotonic()
    wins = 0
    for seed in BENCH_SEEDS:
        full = bench_accuracy(seed, concept_weight=1.0)
        ablated = bench_accuracy(seed, concept_weight=0.0)
        if full - ablated >= 0.02:
            wins += 1
    assert wins >= 4, f"concept regularization won on only {wins}/5 seeds"
    assert time.monotonic() - t0 < 1800.0


@pytest.mark.slow
def test_08_semantic_embeddings_help():
    greater = 0
    for seed in BENCH_SEEDS:
        emb = bench_accuracy(seed, semantics="embeddings")
        onehot = bench_accuracy(seed, semantics="one-hot")
        assert emb >= onehot - 0.005, f"seed {seed}: {emb:.4f} vs {onehot:.4f}"
        if emb > onehot:
            greater += 1
    assert greater >= 3, f"embeddings strictly better on only {greater}/5 seeds"


@pytest.mark.slow
def test_09_weak_only_training_beats_chance():
    for seed in BENCH_SEEDS:
        acc = bench_accuracy(seed, entity_weight=0.0)
        assert acc >= 0.2 + 0.10, f"seed {seed}: weak-only accuracy {acc:.4f}"


# ---------------------------------------------------------------------------
# 10. determinism

def test_10_metrics_rerun_byte_identical(tmp_path):
    cfg = {
        "paths": {k: str(tmp_path / "art" / v) for k, v in
                  [("graph", "graph.json"), ("dataset", "data.bin"),
                   ("checkpoint", "model.ckpt"), ("metrics", "metrics.csv"),
                   ("eval_csv", "eval.csv")]},
        "data": {"branching": 3, "num_levels": 3, "input_dim": 8,
                 "semantic_dim": 8, "samples_per_class": 20, "seed": 3},
        "encoder": {"widths": [8, 8], "low_layers": 1},
        "generator": {"embed_widths": [8, 8], "relation_widths": [8, 8]},
        "train": {"iterations": 40, "n_way": 2, "k_shot": 1, "n_query": 5,
                  "adapt_steps": 2, "decay_period": 20, "seed": 4},
        "eval": {"n_episodes": 40, "n_way": 2, "k_shot": 1, "n_query": 5,
                 "adapt_steps": 3, "seed": 5},
    }
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(cfg))
    blobs = []
    for _ in range(2):
        assert cli_main(["gen-data", "-c", str(cfgp)]) == 0
        assert cli_main(["train", "-c", str(cfgp)]) == 0
        assert cli_main(["eval", "-c", str(cfgp)]) == 0
        blobs.append(((tmp_path / "art" / "metrics.csv").read_bytes(),
                      (tmp_path / "art" / "eval.csv").read_bytes()))
    assert blobs[0][0] == blobs[1][0], "metrics CSV changed across reruns"
    assert blobs[0][1] == blobs[1][1], "per-episode CSV changed across reruns"


# ---------------------------------------------------------------------------
# 11. confidence interval formula

def test_11_confidence_interval_formula():
    cases = [np.array([0.0] * 300 + [1.0] * 300),
             np.linspace(0.0, 1.0, 600),
             np.random.default_rng(0).uniform(size=600)]
    for a in cases:
        mean, half = confidence_interval(a)
        n = a.size
        sd = math.sqrt(((a - a.mean()) ** 2).sum() / (n - 1))
        assert abs(half - 1.96 * sd / math.sqrt(n)) <= 1e-12
        assert mean == pytest.approx(a.mean(), abs=0)
    mean, half = confidence_interval(cases[0])
    assert half == pytest.approx(0.0400, abs=5e-4)
