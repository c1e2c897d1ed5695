"""Inner-loop adaptation, episode loss, outer training loop, evaluation."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from conceptshot import classifier_gen, graph, meta, tensor
from conceptshot.classifier_gen import GeneratorConfig, emit_for_task
from conceptshot.data import (Dataset, SynthConfig, generate_synthetic,
                              sample_concept_episode, sample_entity_episode)
from conceptshot.encoder import PREFIX, EncoderConfig, layer_pairs
from conceptshot.errors import ConfigError, DataError, NumericalError
from conceptshot.graph import ConceptGraph, NodeRecord
from conceptshot.meta import (EvalConfig, Model, TrainConfig, confidence_interval,
                              eligible_concept_levels, episode_loss, evaluate,
                              inner_adapt, load_checkpoint, metrics_columns,
                              save_checkpoint, train, train_step, write_metrics)
from conceptshot.tensor import Rng, SgdOptimizer, Tensor, layer_names

from _tape import grad, high_pairs, mul, scale, sum_all
from _oracles import (as_leaves, dense_propagation, every_row, lone_episode_grads,
                      lone_episode_loss, numerical_grad, predict, rel_err, serial_train_step,
                      tape_graph_embed, tape_inner_adapt, tape_query_loss)


@pytest.fixture(scope="module")
def world():
    return generate_synthetic(SynthConfig(branching=2, num_levels=3, input_dim=8,
                                          semantic_dim=8, samples_per_class=30,
                                          seed=5))


def make_model(g, seed=7, scale=0.2, semantics="embeddings"):
    enc = EncoderConfig(input_dim=8, widths=[16, 16], low_layers=1)
    gen = GeneratorConfig(embed_widths=[16, 8], relation_widths=[16, 8],
                          scale=scale, semantics=semantics)
    return Model(g, enc, gen, seed=seed)


def emit_one(m, class_ids, rng, training):
    """One task's (weights, bias) head, emitted alone."""
    (head,), _ = m.emit([class_ids], [rng], training)
    return head


# ---------------------------------------------------------------------------
# inner loop

def test_zero_steps_returns_initialization(world):
    g, ds = world
    m = make_model(g)
    head = emit_one(m, np.array([3, 4]), Rng(0), training=False)
    task, = inner_adapt(m, [head], [ds.features[:4]], [np.array([0, 1, 0, 1])], 0,
                        0.01)
    assert task[-2] is head[0]
    assert task[-1] is head[1]
    high = [t.data for pair in high_pairs(m.params, m.enc_cfg) for t in pair]
    assert len(task) - 2 == len(high) == 2
    for a, t in zip(task, high):
        assert a is t


def test_zero_rate_returns_initialization(world):
    g, ds = world
    m = make_model(g)
    head = emit_one(m, np.array([3, 4]), Rng(0), training=False)
    task, = inner_adapt(m, [head], [ds.features[:4]], [np.array([0, 1, 0, 1])], 5,
                        0.0)
    assert task[-2] is head[0]


def test_single_step_matches_hand_gradient(world):
    # encoder with no layers at all: the head is the only thing adapted
    g, _ = world
    enc = EncoderConfig(input_dim=4, widths=[], low_layers=0)
    gen = GeneratorConfig(embed_widths=[8, 4], relation_widths=[8, 4])
    m = Model(g, enc, gen, seed=1)
    w0 = np.array([[0.2, -0.1, 0.0, 0.3], [0.0, 0.1, -0.2, 0.1]])
    b0 = np.array([0.05, -0.05])
    x = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    y = np.array([0, 1])
    (w1, b1), = inner_adapt(m, [(w0, b0)], [x], [y], 1, 0.5)

    logits = x @ w0.T + b0
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(2), y] -= 1.0
    gl = p / 2.0
    npt.assert_allclose(w1, w0 - 0.5 * (gl.T @ x), rtol=0, atol=1e-14)
    npt.assert_allclose(b1, b0 - 0.5 * gl.sum(axis=0), rtol=0, atol=1e-14)


def test_single_step_matches_numeric_gradient(world):
    # one high encoder layer + emitted head, against finite differences of an
    # independent plain-numpy support loss
    g, ds = world
    enc = EncoderConfig(input_dim=8, widths=[6], low_layers=0)
    gen = GeneratorConfig(embed_widths=[8, 6], relation_widths=[8, 6])
    m = Model(g, enc, gen, seed=3)
    ep = sample_entity_episode(ds, g, "meta-train", 2, 3, 5, Rng(4))
    head = emit_one(m, ep.class_ids, Rng(0), training=False)
    (wh, bh), = high_pairs(m.params, m.enc_cfg)
    starts = [wh.data.copy(), bh.data.copy(), head[0].copy(), head[1].copy()]
    sizes = [a.size for a in starts]
    x64 = np.asarray(ep.support_x, dtype=np.float64)

    def loss_at(vec):
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        whv, bhv, wcv, bcv = (p.reshape(a.shape) for p, a in zip(parts, starts))
        f = x64 @ whv + bhv
        f = np.where(f > 0, f, 0.1 * f)
        z = f @ wcv.T + bcv
        z = z - z.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        return float((lse - z[np.arange(len(ep.support_y)), ep.support_y]).mean())

    vec0 = np.concatenate([a.ravel() for a in starts])
    g_fd = numerical_grad(loss_at, vec0)

    lr = 0.01
    task, = inner_adapt(m, [head], [ep.support_x], [ep.support_y], 1, lr)
    wh1, bh1, wc1, bc1 = task
    stepped = [wh1, bh1, wc1, bc1]
    implied = np.concatenate([(a - s).ravel() / lr
                              for a, s in zip(starts, stepped)])
    assert rel_err(implied, g_fd) < 1e-5


def test_adaptation_never_touches_model_params(world):
    # the steps after the first update in place: neither the model's arrays
    # nor the emitted heads' may be written, alone or in a block
    g, ds = world
    m = make_model(g)
    snap = {k: p.data.copy() for k, p in m.params.items()}
    eps = [sample_entity_episode(ds, g, "meta-train", 2, 2, 5, Rng(8 + t)) for t in range(2)]
    heads, _ = m.emit([ep.class_ids for ep in eps], [Rng(1), Rng(2)], True)
    copies = [(w.copy(), b.copy()) for w, b in heads]
    for k in (1, 2):
        inner_adapt(m, heads[:k], [ep.support_x for ep in eps[:k]],
                    [ep.support_y for ep in eps[:k]], 4, 0.05)
    for k, p in m.params.items():
        npt.assert_array_equal(p.data, snap[k])
    for (w, b), (wc, bc) in zip(heads, copies):
        npt.assert_array_equal(w, wc)
        npt.assert_array_equal(b, bc)


# (widths, low_layers): the benchmark's encoder, no frozen layer, two adapted
# layers, and the emitted head alone
PARITY_ENCODERS = [([64, 64], 1), ([64, 64], 0), ([16, 16, 16], 1), ([], 0)]


def _bits(a):
    return np.asarray(a).view(np.int64)


def _parity_tasks(world, widths, low_layers, k_shot, n_tasks=3, n_way=3):
    """A model and ``n_tasks`` different ``n_way`` tasks: each has its own
    support set and its own emitted head to start from."""
    g, ds = world
    enc = EncoderConfig(input_dim=8, widths=widths, low_layers=low_layers)
    gen = GeneratorConfig(embed_widths=[16, 8], relation_widths=[16, 8])
    m = Model(g, enc, gen, seed=3)
    eps = [sample_entity_episode(ds, g, "meta-train", n_way, k_shot, 5, Rng(4 + t))
           for t in range(n_tasks)]
    heads = [emit_one(m, ep.class_ids, Rng(5 + t), training=True)
             for t, ep in enumerate(eps)]
    return m, eps, heads


def _encoder_names(m):
    return [n for pair in layer_names(PREFIX, len(m.enc_cfg.widths)) for n in pair]


def _tape_backprop(m, ep, task, head):
    """The taped query loss of ``task``, a ``tape_inner_adapt`` result from
    the leaf head ``head``: the adapted arrays, the loss and the gradient of
    every encoder parameter and of the head, read off the tape."""
    loss, _ = tape_query_loss(m, task, ep)
    names = _encoder_names(m)
    grads = grad(loss, [m.params[n] for n in names] + list(head))
    return ([t.data for t in task], loss.data,
            dict(zip(names + ["head.W", "head.b"], grads)))


def _query_backprop(m, ep, task):
    """``episode_loss`` of ``task``, an ``inner_adapt`` result: the adapted
    arrays, the loss and the gradient of every encoder parameter and of the
    head, the adapted high layers' gradients passed unchanged to their
    starts (first-order), as ``meta._gradients`` does."""
    loss, _, vjp = episode_loss(m, ep, task)
    *enc, g_w, g_b = vjp(1.0)
    grads = {}
    for n, g in zip(_encoder_names(m), enc):
        grads[n] = grads[n] + g if n in grads else g
    return list(task), loss, {**grads, "head.W": g_w, "head.b": g_b}


@pytest.mark.parametrize("n_way", [2, 3])
@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("k_shot", [1, 3])
@pytest.mark.parametrize("widths,low_layers", PARITY_ENCODERS)
def test_inner_adapt_matches_tape_bitwise(world, widths, low_layers, k_shot, steps, n_way):
    # the first task alone, then all three tasks adapted as one block
    lr = 0.05
    m, eps, heads = _parity_tasks(world, widths, low_layers, k_shot, n_way=n_way)
    xs, ys = [ep.support_x for ep in eps], [ep.support_y for ep in eps]
    leaves = [as_leaves(head) for head in heads]
    wants = [_tape_backprop(m, ep, tape_inner_adapt(m, head, x, y, steps, lr), head)
             for ep, head, x, y in zip(eps, leaves, xs, ys)]
    alone = inner_adapt(m, heads[:1], xs[:1], ys[:1], steps, lr)
    block = inner_adapt(m, heads, xs, ys, steps, lr)
    assert len(alone) == 1 and len(block) == 3
    for ep, task, want in zip(eps[:1] + eps, alone + block, wants[:1] + wants):
        arrays, loss, grads = _query_backprop(m, ep, task)
        want_arrays, want_loss, want_grads = want
        assert len(arrays) == len(want_arrays) == 2 * (len(widths) - low_layers) + 2
        for a, w in zip(arrays, want_arrays):
            assert a.shape == w.shape and np.array_equal(_bits(a), _bits(w))
        assert np.array_equal(_bits(loss), _bits(want_loss))
        assert grads.keys() == want_grads.keys()
        for n, w in want_grads.items():
            assert grads[n].shape == w.shape, n
            assert np.array_equal(_bits(grads[n]), _bits(w)), n


def test_inner_adapt_block_tasks_are_views_of_one_array(world):
    # after a step, each adapted parameter of a block is one (tasks, ...)
    # array, and each task's array a view of it: eval's memory relies on it
    m, eps, heads = _parity_tasks(world, [16, 16], 0, 1)
    for steps in (1, 3):
        a, b = inner_adapt(m, heads[:2], [ep.support_x for ep in eps[:2]],
                           [ep.support_y for ep in eps[:2]], steps, 0.05)
        assert len(a) == len(b) == 6
        for x, y in zip(a, b):
            block = x.base
            assert block is y.base and block.shape == (2,) + x.shape
            assert block.flags.c_contiguous
            assert np.shares_memory(x, block) and np.shares_memory(y, block)
            assert not np.shares_memory(x, y)


def _inner_adapt_alone(m, head, support_x, support_y, steps, lr):
    (task,) = inner_adapt(m, [head], [support_x], [support_y], steps, lr)
    return task


def _tape_inner_adapt_leaves(m, head, support_x, support_y, steps, lr):
    return tape_inner_adapt(m, as_leaves(head), support_x, support_y, steps, lr)


@pytest.mark.parametrize("adapt", [
    pytest.param(_tape_inner_adapt_leaves, id="tape_inner_adapt"),
    pytest.param(_inner_adapt_alone, id="inner_adapt")])
def test_inner_adapt_overflow_is_numerical_error(world, adapt):
    g, ds = world
    m = make_model(g)
    ep = sample_entity_episode(ds, g, "meta-train", 3, 1, 5, Rng(4))
    head = emit_one(m, ep.class_ids, Rng(5), training=True)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite"):
        adapt(m, head, ep.support_x, ep.support_y, 5, 1e306)


def test_inner_adapt_one_overflowing_task_fails_the_block(world):
    m, eps, heads = _parity_tasks(world, [16, 16], 1, 1)
    xs, ys = [ep.support_x for ep in eps], [ep.support_y for ep in eps]
    assert len(inner_adapt(m, heads, xs, ys, 5, 0.05)) == 3
    # finite features whose logits overflow in the second step
    xs[1] = np.asarray(xs[1], dtype=np.float64) * 1e200
    for t in (0, 2):
        _inner_adapt_alone(m, heads[t], xs[t], ys[t], 5, 0.05)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="in the inner loop"):
        inner_adapt(m, heads, xs, ys, 5, 0.05)


# ---------------------------------------------------------------------------
# prediction and episode loss

@pytest.mark.parametrize("steps", [0, 2])
@pytest.mark.parametrize("low_layers", [0, 1, 2])
def test_query_node_matches_tape_bitwise(world, low_layers, steps):
    # the query loss and its vjp against the op-by-op taped chain: loss,
    # accuracy and the gradient of each of its six inputs, under an upstream
    # scale
    g, ds = world
    enc = EncoderConfig(input_dim=8, widths=[16, 16], low_layers=low_layers)
    gen = GeneratorConfig(embed_widths=[16, 8], relation_widths=[16, 8])
    m = Model(g, enc, gen, seed=3)
    for trial in range(4):
        ep = sample_entity_episode(ds, g, "meta-train", 3, 2, 7, Rng(trial))
        head = emit_one(m, ep.class_ids, Rng(10 + trial), training=True)
        task, = inner_adapt(m, [head], [ep.support_x], [ep.support_y], steps, 0.05)
        leaves = as_leaves(task)
        parents = [t for pair in layer_pairs(m.params, enc)[:low_layers] for t in pair]
        parents += leaves
        assert len(parents) == 6
        loss, acc, vjp = episode_loss(m, ep, task)
        want_loss, want_acc = tape_query_loss(m, leaves, ep)
        assert isinstance(loss, float) and want_loss.data.shape == ()
        assert np.array_equal(_bits(loss), _bits(want_loss.data))
        assert acc == want_acc
        got = vjp(0.7)
        want = grad(scale(want_loss, 0.7), parents)
        assert len(got) == len(parents)
        for t, a, w in zip(parents, got, want):
            assert a.shape == w.shape == t.data.shape
            assert np.array_equal(_bits(a), _bits(w))


def test_query_overflow_is_numerical_error(world):
    g, ds = world
    m = make_model(g)
    ep = sample_entity_episode(ds, g, "meta-train", 3, 1, 5, Rng(4))
    head = emit_one(m, ep.class_ids, Rng(5), training=True)
    task, = inner_adapt(m, [head], [ep.support_x], [ep.support_y], 2, 0.05)
    ep.query_x = np.full(ep.query_x.shape, 1e300)
    m.params["enc.0.W"].data = m.params["enc.0.W"].data * 1e10   # x @ W overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            tape_query_loss(m, as_leaves(task), ep)
        with pytest.raises(NumericalError, match="in the query loss"):
            episode_loss(m, ep, task)


@pytest.mark.parametrize("factor, match", [
    (1e300, "non-finite"), (1e308, "'propagation' in the classifier generator")])
def test_generator_overflow_is_numerical_error(world, factor, match):
    # at 1e300 the generator's forward stays finite and the update overflows;
    # at 1e308 hop 1's propagation overflows, as on the tape
    g, ds = world
    m = make_model(g)
    m.params["gen.embed.0.W"].data = m.params["gen.embed.0.W"].data * factor
    cfg = small_cfg()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=match):
        train_step(m, SgdOptimizer(m.params), ds, cfg, eligible_concept_levels(ds, g, cfg),
                   0)


def test_predict_rows_are_probabilities(world):
    g, ds = world
    m = make_model(g)
    ep = sample_entity_episode(ds, g, "meta-train", 2, 1, 6, Rng(2))
    head = emit_one(m, ep.class_ids, Rng(0), training=False)
    task, = inner_adapt(m, [head], [ep.support_x], [ep.support_y], 2, 0.01)
    probs = predict(m, task, ep.query_x)
    assert probs.data.shape == (12, 2)
    npt.assert_allclose(probs.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (probs.data > 0).all()


def test_chance_loss_is_log_n():
    g, ds = generate_synthetic(SynthConfig(branching=3, num_levels=3, input_dim=8,
                                           semantic_dim=8, samples_per_class=10,
                                           seed=6))
    m = make_model(g, scale=0.0)  # zero-norm head -> all-zero logits
    ep = sample_entity_episode(ds, g, "meta-train", 5, 1, 5, Rng(3))
    loss, acc = lone_episode_loss(m, ep, adapt_steps=0, inner_lr=0.01,
                                  rng=Rng(9), training=False)
    assert loss == pytest.approx(math.log(5), abs=1e-10)


def test_episode_loss_finite_and_positive(world):
    g, ds = world
    m = make_model(g)
    for seed in range(5):
        ep = sample_entity_episode(ds, g, "meta-train", 2, 1, 5, Rng(seed))
        loss, acc = lone_episode_loss(m, ep, adapt_steps=3, inner_lr=0.01,
                                      rng=Rng(seed), training=True)
        assert np.isfinite(loss) and loss > 0
        assert 0.0 <= acc <= 1.0


def test_episode_loss_grad_reaches_every_group(world):
    g, ds = world
    m = make_model(g)
    ep = sample_entity_episode(ds, g, "meta-train", 2, 1, 5, Rng(1))
    grads = lone_episode_grads(m, ep, adapt_steps=0, inner_lr=0.01, rng=Rng(1),
                               training=False)
    assert sorted(grads) == sorted(m.params)
    for n in ["enc.0.W", "enc.1.W", "gen.embed.0.W", "gen.rel.0.W", "gen.out.W"]:
        assert np.abs(grads[n]).max() > 0, n


def test_class_order_invariance(world):
    g, ds = world
    m = make_model(g)
    rng = Rng(13)
    ep = sample_entity_episode(ds, g, "meta-train", 3, 2, 5, rng)
    perm = np.array([2, 0, 1])
    inv = np.argsort(perm)
    from conceptshot.data import Episode
    ep2 = Episode(class_ids=ep.class_ids[perm],
                  support_x=ep.support_x, support_y=inv[ep.support_y],
                  query_x=ep.query_x, query_y=inv[ep.query_y])
    l1, a1 = lone_episode_loss(m, ep, adapt_steps=2, inner_lr=0.01,
                               rng=Rng(0), training=False)
    l2, a2 = lone_episode_loss(m, ep2, adapt_steps=2, inner_lr=0.01,
                               rng=Rng(0), training=False)
    assert l1 == l2
    assert a1 == a2


# ---------------------------------------------------------------------------
# outer loop

def small_cfg(**kw):
    base = dict(iterations=10, decay_period=100, n_way=2, k_shot=1, n_query=5,
                adapt_steps=2, seed=11)
    base.update(kw)
    return TrainConfig(**base)


def test_objective_decomposition(world):
    g, ds = world
    cfg = small_cfg(entity_weight=0.7, concept_weight=1.3)
    levels = eligible_concept_levels(ds, g, cfg)
    assert levels == [(1, 2)]
    ma, mb = make_model(g, seed=7), make_model(g, seed=7)
    opt = SgdOptimizer(ma.params, cfg.momentum, cfg.weight_decay)
    rec = train_step(ma, opt, ds, cfg, levels, iteration=5)

    base = Rng(cfg.seed).child("train", 5)
    ep = sample_entity_episode(ds, g, "meta-train", 2, 1, 5,
                               base.child("sample", "entity", 0))
    el, _ = lone_episode_loss(mb, ep, adapt_steps=2, inner_lr=cfg.inner_lr,
                              rng=base.child("drop", "entity", 0), training=True)
    assert el == rec["entity_loss"]
    total = 0.7 * el
    for level, n_way in levels:
        ep = sample_concept_episode(ds, g, level, n_way, 1, 5,
                                    base.child("sample", f"concept{level}", 0))
        cl, _ = lone_episode_loss(mb, ep, adapt_steps=2, inner_lr=cfg.inner_lr,
                                  rng=base.child("drop", f"concept{level}", 0),
                                  training=True)
        assert cl == rec[f"concept{level}_loss"]
        total += 1.3 * cl
    assert abs(total - rec["total_loss"]) <= 1e-12


@pytest.fixture(scope="module")
def deep_world():
    # abstract levels of 3 and 9 classes: at 4 ways the entity term and the
    # level-2 term are 4-way, the level-1 term 3-way
    return generate_synthetic(SynthConfig(branching=3, num_levels=4, input_dim=8,
                                          semantic_dim=8, samples_per_class=10,
                                          seed=4))


# (TrainConfig overrides, episode shapes per step)
STEP_CASES = {
    "two_shapes": (dict(), 2),
    "one_shape": (dict(n_way=3), 1),
    "two_per_term": (dict(episodes_per_term=2), 2),
    "no_entity": (dict(entity_weight=0.0), 2),
    "level_weight_zero": (dict(level_weights={1: 0.0}), 1),
}


class RecordingSgd(SgdOptimizer):
    """An optimizer that keeps the gradients of its last step."""

    def step(self, lr, grads):
        self.grads = grads
        super().step(lr, grads)


def _step_cfg(overrides):
    base = dict(iterations=2, decay_period=100, n_way=4, k_shot=1, n_query=3,
                adapt_steps=2, inner_lr=0.05, entity_weight=0.8, seed=11)
    return TrainConfig(**{**base, **overrides})


@pytest.mark.parametrize("case", list(STEP_CASES))
def test_train_step_matches_serial_oracle_bitwise(deep_world, case):
    # the blocked step against one episode at a time with a taped query path:
    # the record, every gradient, the parameters and the velocities, twice
    g, ds = deep_world
    cfg = _step_cfg(STEP_CASES[case][0])
    levels = eligible_concept_levels(ds, g, cfg)
    assert [lv for lv, _ in levels] == [1, 2]
    ma, mb = make_model(g, seed=7), make_model(g, seed=7)
    opts = [RecordingSgd(m.params, cfg.momentum, cfg.weight_decay) for m in (ma, mb)]
    for it in range(2):
        rec = train_step(ma, opts[0], ds, cfg, levels, it)
        want = serial_train_step(mb, opts[1], ds, cfg, levels, it)
        assert list(rec) == list(want)
        for k, v in want.items():
            assert np.array_equal(_bits(float(rec[k])), _bits(float(v))), k
        assert opts[0].grads.keys() == opts[1].grads.keys() == mb.params.keys()
        for n, p in mb.params.items():
            for a, w in ((opts[0].grads[n], opts[1].grads[n]), (ma.params[n].data, p.data),
                         (opts[0].velocities[n], opts[1].velocities[n])):
                assert a.shape == w.shape, n
                assert np.array_equal(_bits(a), _bits(w)), n


@pytest.mark.parametrize("case", list(STEP_CASES))
def test_train_step_adapts_once_per_shape_and_scores_each_episode(deep_world,
                                                                  monkeypatch, case):
    # bench/run.py --trace 1 checks one episode_loss call per active episode;
    # the generator embeds the graph once per step, for every episode
    g, ds = deep_world
    overrides, shapes = STEP_CASES[case]
    cfg = _step_cfg(overrides)
    levels = eligible_concept_levels(ds, g, cfg)
    active = (cfg.entity_weight > 0) + sum(cfg.weight_for(lv) > 0 for lv, _ in levels)
    calls = {"episode_loss": 0, "inner_adapt": 0, "graph_embed": 0}
    for owner, name in ((meta, "episode_loss"), (meta, "inner_adapt"),
                        (classifier_gen, "graph_embed")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    m = make_model(g)
    train_step(m, SgdOptimizer(m.params), ds, cfg, levels, 0)
    assert calls == {"episode_loss": active * cfg.episodes_per_term,
                     "inner_adapt": shapes, "graph_embed": 1}


def test_train_step_propagates_only_the_rows_heads_read(deep_world, monkeypatch):
    # each of the step's propagations (the hops after the first, one
    # write-back for every episode's class rows, and their vjps) sums fewer
    # rows than the node matrices it is given hold: a fallback to
    # propagating every row fails this
    g, ds = deep_world
    cfg = _step_cfg({})
    levels = eligible_concept_levels(ds, g, cfg)
    m = make_model(g)
    summed, sums = [], graph.neighbor_sums

    def counting(values, groups):
        out = sums(values, groups)
        summed.append((out[..., 0].size, values[..., 0].size))
        return out

    monkeypatch.setattr(graph, "neighbor_sums", counting)
    train_step(m, SgdOptimizer(m.params), ds, cfg, levels, 0)
    hops = len(m.gen_cfg.embed_widths)
    assert len(summed) == 2 * (hops - 1) + 1 + 1
    assert all(0 < rows < held for rows, held in summed), summed


def test_only_a_vjp_builds_the_last_depth_of_reach(deep_world, monkeypatch):
    # per emit, a training step builds N(i) up to the hop count's depth, the
    # last one for the hop vjps; an evaluation runs no vjp and stops one
    # depth short
    g, ds = deep_world
    cfg = _step_cfg({})
    m = make_model(g)
    hops = len(m.gen_cfg.embed_widths)
    assert hops >= 2
    calls = {"emit": 0, "neighborhoods": 0}
    neighborhoods, emit = graph.Propagation.neighborhoods, meta.emit_for_task

    def counting_neighborhoods(self, rows):
        calls["neighborhoods"] += 1
        return neighborhoods(self, rows)

    def counting_emit(*args):
        calls["emit"] += 1
        return emit(*args)

    monkeypatch.setattr(graph.Propagation, "neighborhoods", counting_neighborhoods)
    monkeypatch.setattr(meta, "emit_for_task", counting_emit)
    train_step(m, SgdOptimizer(m.params), ds, cfg, eligible_concept_levels(ds, g, cfg), 0)
    assert calls == {"emit": 1, "neighborhoods": hops}
    calls.update(emit=0, neighborhoods=0)
    evaluate(m, ds, EvalConfig(n_episodes=3, n_way=3, k_shot=1, n_query=3,
                               adapt_steps=2, seed=1), split="meta-train")
    assert calls["emit"] >= 1
    assert calls["neighborhoods"] == (hops - 1) * calls["emit"]


@pytest.mark.parametrize("case", list(STEP_CASES))
def test_train_step_and_evaluate_build_no_tensor(deep_world, monkeypatch, case):
    # a Tensor is a parameter: a training step and an evaluation build none
    # (bench/run.py --trace 1 reports the count as tensor.nodes_created)
    g, ds = deep_world
    cfg = _step_cfg(STEP_CASES[case][0])
    m = make_model(g)
    built = []
    init = tensor.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tensor.Tensor, "__init__", counting_init)
    rec = train_step(m, SgdOptimizer(m.params), ds, cfg,
                     eligible_concept_levels(ds, g, cfg), 0)
    res = evaluate(m, ds, EvalConfig(n_episodes=3, n_way=3, k_shot=1, n_query=3,
                                     adapt_steps=2, seed=1), split="meta-train")
    assert np.isfinite(rec["total_loss"]) and res.accuracies.shape == (3,)
    assert built == []
    Tensor(np.zeros(1))
    assert len(built) == 1


def test_zero_entity_weight_ignores_entity_stream(world):
    g, ds = world
    cfg = small_cfg(entity_weight=0.0)
    levels = eligible_concept_levels(ds, g, cfg)
    m = make_model(g)
    opt = SgdOptimizer(m.params, cfg.momentum, cfg.weight_decay)
    rec = train_step(m, opt, ds, cfg, levels, 0)
    assert math.isnan(rec["entity_loss"])
    assert np.isfinite(rec["concept1_loss"])
    assert rec["total_loss"] == rec["concept1_loss"]


def test_all_zero_weights_rejected(world):
    g, ds = world
    cfg = small_cfg(entity_weight=0.0, concept_weight=0.0)
    m = make_model(g)
    opt = SgdOptimizer(m.params)
    with pytest.raises(ConfigError, match="nothing to train"):
        train_step(m, opt, ds, cfg, [], 0)


def test_concept_weight_without_levels_rejected():
    g, ds = generate_synthetic(SynthConfig(branching=2, num_levels=2, input_dim=8,
                                           semantic_dim=8, samples_per_class=12,
                                           seed=2))
    cfg = small_cfg(entity_weight=0.0)
    m = make_model(g)
    opt = SgdOptimizer(m.params)
    assert eligible_concept_levels(ds, g, cfg) == []
    with pytest.raises(ConfigError, match="no abstract level"):
        train_step(m, opt, ds, cfg, [], 0)


def test_zero_iterations_leaves_params(world):
    g, ds = world
    m = make_model(g)
    snap = {k: p.data.copy() for k, p in m.params.items()}
    records, _ = train(m, ds, small_cfg(iterations=0))
    assert records == []
    for k, p in m.params.items():
        npt.assert_array_equal(p.data, snap[k])


def test_training_is_deterministic(world):
    g, ds = world
    finals = []
    for _ in range(2):
        m = make_model(g, seed=7)
        records, _ = train(m, ds, small_cfg())
        finals.append({k: p.data.copy() for k, p in m.params.items()})
    for k in finals[0]:
        npt.assert_array_equal(finals[0][k], finals[1][k])


def test_training_reduces_entity_loss(world):
    g, ds = world
    m = make_model(g, seed=7)
    records, _ = train(m, ds, small_cfg(iterations=300, decay_period=100, seed=1))
    start = records[0]["entity_loss"]
    settled = np.mean([r["entity_loss"] for r in records[-50:]])
    assert settled < start


def test_metrics_file_is_reproducible(tmp_path, world):
    g, ds = world
    blobs = []
    for run in range(2):
        m = make_model(g, seed=7)
        path = tmp_path / f"metrics{run}.csv"
        train(m, ds, small_cfg(), metrics_path=path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    header = blobs[0].decode().splitlines()[0]
    assert header == ",".join(metrics_columns([(1, 2)]))


def test_write_metrics_formats_nan(tmp_path):
    p = tmp_path / "m.csv"
    write_metrics(p, ["iteration", "entity_loss"],
                  [{"iteration": 0, "entity_loss": float("nan")}])
    assert p.read_text() == "iteration,entity_loss\n0,nan\n"


def test_write_metrics_keeps_the_old_file_on_error(tmp_path):
    p = tmp_path / "m.csv"
    write_metrics(p, ["iteration"], [{"iteration": 0}])
    with pytest.raises(ValueError):
        write_metrics(p, ["iteration"], [{"iteration": 1}, {"iteration": "bad"}])
    assert p.read_bytes() == b"iteration\n0\n"
    assert [q.name for q in tmp_path.iterdir()] == ["m.csv"]


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_is_pure(world):
    g, ds = world
    m = make_model(g)
    snap = {k: (p.data, p.data.copy()) for k, p in m.params.items()}
    res = evaluate(m, ds, EvalConfig(n_episodes=8, n_way=2, k_shot=1, n_query=5,
                                     adapt_steps=2, seed=3), split="meta-train")
    assert res.accuracies.shape == (8,)
    for k, p in m.params.items():
        assert p.data is snap[k][0]
        npt.assert_array_equal(p.data, snap[k][1])


def test_evaluate_embeds_once_and_records_no_tape(world, monkeypatch):
    # the 5 episodes are one block: one embedding, out of training, for the
    # rows of the block's 5 tasks
    g, ds = world
    m = make_model(g)
    calls, losses = [], []
    embed, run_episode = classifier_gen.graph_embed, meta.episode_loss

    def counting_embed(params, cfg, prop, z0, rngs, training, reach):
        calls.append((training, len(rngs), len(reach[0])))
        return embed(params, cfg, prop, z0, rngs, training, reach)

    def keeping_episode(*args, **kwargs):
        out = run_episode(*args, **kwargs)
        losses.append(out[0])
        return out

    monkeypatch.setattr(classifier_gen, "graph_embed", counting_embed)
    monkeypatch.setattr(meta, "episode_loss", keeping_episode)
    evaluate(m, ds, EvalConfig(n_episodes=5, n_way=2, k_shot=1, n_query=5,
                               adapt_steps=1, seed=3), split="meta-train")
    assert calls == [(False, 5, 5)]
    assert len(losses) == 5
    assert all(isinstance(loss, float) for loss in losses)


@pytest.fixture(scope="module")
def wide_world():
    return generate_synthetic(SynthConfig(branching=4, num_levels=3, input_dim=8,
                                          semantic_dim=8, samples_per_class=12,
                                          seed=6))


def _evaluate_emitting(m, ds, monkeypatch, n_episodes, level, n_way=3):
    """``evaluate`` on ``n_episodes`` episodes: each ``emit_for_task`` call
    it made with its arguments and heads, the ``rows`` of each P applied
    meanwhile (a write-back's as well), and its result."""
    emitted, applied = [], []
    apply = graph.Propagation.apply

    def keeping_emit(*args):
        out = emit_for_task(*args)
        emitted.append((args, out[0]))
        return out

    def counting_apply(self, x, rows, written=None):
        applied.append(rows)
        return apply(self, x, rows, written)

    monkeypatch.setattr(meta, "emit_for_task", keeping_emit)
    monkeypatch.setattr(graph.Propagation, "apply", counting_apply)
    res = evaluate(m, ds, EvalConfig(n_episodes=n_episodes, n_way=n_way, k_shot=1,
                                     n_query=2, adapt_steps=1, seed=2),
                   split="meta-train", level=level)
    monkeypatch.undo()
    return emitted, applied, res


def _assert_heads_alone(emitted):
    # every head of a block's emit, out of training, has the bits of its task
    # emitted alone from scratch
    for args, heads in emitted:
        assert args[6:] == (False,)
        assert len(heads) == len(args[4]) == len(args[5])
        for ids, drop, head in zip(args[4], args[5], heads):
            (alone,), _ = emit_for_task(*args[:4], [ids], [drop], *args[6:])
            for x, y in zip(head, alone):           # weights, then bias
                assert np.array_equal(_bits(x), _bits(y))


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("n_way", [2, 3])
@pytest.mark.parametrize("level", [None, 1])
@pytest.mark.parametrize("semantics", ["embeddings", "one-hot"])
def test_evaluate_emits_the_bits_of_emit_for_task(wide_world, monkeypatch, semantics,
                                                  level, n_way, seed):
    # the 6 episodes are one block, emitted by one call, as a training step
    # emits its episodes: the second hop (the model holds the first hop's
    # P z0) propagates only the union of the block's N(i), and one
    # write-back propagates each episode's own class rows i only
    g, ds = wide_world
    m = make_model(g, seed=seed, semantics=semantics)
    emitted, applied, _ = _evaluate_emitting(m, ds, monkeypatch, 6, level, n_way)
    assert len(emitted) == 1 and len(emitted[0][1]) == 6
    ids = [np.asarray(i) for i in emitted[0][0][4]]
    assert len(m.gen_cfg.embed_widths) == 2 and len(applied) == 1 + 1
    (hop,), write_back = applied
    assert np.array_equal(hop, np.unique(np.concatenate(m.prop.neighborhoods(ids))))
    assert len(write_back) == 6
    assert all(np.array_equal(r, i) for r, i in zip(write_back, ids))
    _assert_heads_alone(emitted)


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("n_way", [2, 3])
@pytest.mark.parametrize("n_episodes", [1, 5, 16, 17, meta._BLOCK + 1])
@pytest.mark.parametrize("level", [None, 1])
@pytest.mark.parametrize("semantics", ["embeddings", "one-hot"])
def test_evaluate_block_heads_match_emit_alone_bitwise(wide_world, monkeypatch, semantics,
                                                       level, n_episodes, n_way, seed):
    # one emit per block of ``_BLOCK`` episodes: one more episode than a
    # block makes a full block, then a block of 1
    g, ds = wide_world
    m = make_model(g, seed=seed, semantics=semantics)
    emitted, _, _ = _evaluate_emitting(m, ds, monkeypatch, n_episodes, level, n_way)
    block = meta._BLOCK
    assert [len(heads) for _, heads in emitted] == [block] * (n_episodes // block) + (
        [n_episodes % block] if n_episodes % block else [])
    _assert_heads_alone(emitted)


def _irregular_forest(seed=11):
    """A 33-node forest that no balanced tree gives: two roots, a level-1
    node without children (5), and one (2) with 20 children, whose degree
    of 22 (its parent and self loop included) sends its neighborhood sums
    through ``np.sort``.  Every node has 8 samples around its prototype."""
    rng = np.random.default_rng(seed)
    nodes = [NodeRecord(0, "r0", 0), NodeRecord(1, "r1", 0)]
    nodes += [NodeRecord(i, f"m{i}", 1, "weak") for i in (2, 3, 4, 5)]
    edges = [(0, 2), (0, 3), (1, 4), (1, 5)]
    for parent, count in ((2, 20), (3, 4), (4, 3)):
        for _ in range(count):
            nid = len(nodes)
            nodes.append(NodeRecord(nid, f"l{nid}", 2,
                                    "meta-test" if nid % 4 == 0 else "meta-train"))
            edges.append((parent, nid))
    protos = rng.standard_normal((len(nodes), 8))
    for i, j in edges:                  # a child near its parent
        protos[j] = protos[i] + 0.5 * protos[j]
    ids = np.repeat(np.arange(len(nodes)), 8)
    feats = protos[ids] + 0.3 * rng.standard_normal((ids.size, 8))
    g = ConceptGraph(nodes, edges, rng.standard_normal((len(nodes), 8)), 3)
    return g, Dataset(feats, ids)


@pytest.mark.parametrize("level", [None, 1])
def test_irregular_forest_trains_and_evaluates(monkeypatch, level):
    # 20 training steps, then more eval episodes than one block, at the
    # entity level and at level 1: every metric is finite and each block
    # head has the bits of its task emitted alone
    g, ds = _irregular_forest()
    m = make_model(g)
    assert max(m.prop.ks) > tensor._NETWORK_MAX_K
    cfg = TrainConfig(iterations=20, n_way=3, k_shot=1, n_query=3, adapt_steps=2, seed=4)
    assert eligible_concept_levels(ds, g, cfg) == [(0, 2), (1, 3)]
    records, _ = train(m, ds, cfg)
    assert len(records) == 20
    assert all(np.isfinite(v) for rec in records for v in rec.values())
    emitted, _, res = _evaluate_emitting(m, ds, monkeypatch, meta._BLOCK + 6, level)
    assert [len(heads) for _, heads in emitted] == [meta._BLOCK, 6]
    assert np.isfinite(res.mean) and np.isfinite(res.half_width)
    _assert_heads_alone(emitted)


def _episode_accuracies(m, ds, cfg, level):
    """Each evaluation episode scored alone by ``episode_loss``."""
    g = m.graph
    rng = Rng(cfg.seed).child("eval")
    want = []
    for i in range(cfg.n_episodes):
        ep_rng = rng.child(i)
        if level is None:
            ep = sample_entity_episode(ds, g, "meta-train", cfg.n_way, cfg.k_shot,
                                       cfg.n_query, ep_rng.child("sample"))
        else:
            ep = sample_concept_episode(ds, g, level, cfg.n_way, cfg.k_shot,
                                        cfg.n_query, ep_rng.child("sample"))
        _, acc = lone_episode_loss(m, ep, adapt_steps=cfg.adapt_steps,
                                   inner_lr=cfg.inner_lr, rng=ep_rng.child("drop"),
                                   training=False)
        want.append(acc)
    return np.array(want)


@pytest.mark.parametrize("level", [None, 1])
def test_evaluate_matches_episode_loss_bitwise(world, level):
    g, ds = world
    m = make_model(g)
    cfg = EvalConfig(n_episodes=6, n_way=2, k_shot=2, n_query=4, adapt_steps=3,
                     inner_lr=0.05, seed=9)
    res = evaluate(m, ds, cfg, split="meta-train", level=level)
    assert np.array_equal(res.accuracies, _episode_accuracies(m, ds, cfg, level))


@pytest.mark.parametrize("n_episodes", [meta._BLOCK + 1, 2 * meta._BLOCK + 1])
def test_evaluate_blocks_match_episode_loss_bitwise(world, monkeypatch, n_episodes):
    # more episodes than one block: a full block, then a part of one
    g, ds = world
    m = make_model(g)
    cfg = EvalConfig(n_episodes=n_episodes, n_way=2, k_shot=2, n_query=4,
                     adapt_steps=3, inner_lr=0.05, seed=4)
    assert n_episodes > meta._BLOCK
    res = evaluate(m, ds, cfg, split="meta-train")
    assert np.array_equal(_bits(res.accuracies),
                          _bits(_episode_accuracies(m, ds, cfg, None)))
    monkeypatch.setattr(meta, "_BLOCK", 1)
    alone = evaluate(m, ds, cfg, split="meta-train")
    assert np.array_equal(_bits(alone.accuracies), _bits(res.accuracies))


def test_evaluate_overflow_is_numerical_error(world):
    g, ds = world
    m = make_model(g)
    cfg = EvalConfig(n_episodes=3, n_way=2, k_shot=1, n_query=5, adapt_steps=5,
                     inner_lr=1e306, seed=3)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite"):
        evaluate(m, ds, cfg, split="meta-train")


def test_evaluate_deterministic(world):
    g, ds = world
    m = make_model(g)
    cfg = EvalConfig(n_episodes=6, n_way=2, k_shot=1, n_query=5, adapt_steps=1,
                     seed=5)
    r1 = evaluate(m, ds, cfg, split="meta-train")
    r2 = evaluate(m, ds, cfg, split="meta-train")
    npt.assert_array_equal(r1.accuracies, r2.accuracies)
    assert (r1.mean, r1.half_width) == (r2.mean, r2.half_width)


def test_confidence_interval_closed_form():
    accs = np.array([0.0] * 300 + [1.0] * 300)
    mean, half = confidence_interval(accs)
    assert mean == 0.5
    expected = 1.96 * (0.5 * math.sqrt(600.0 / 599.0)) / math.sqrt(600.0)
    assert abs(half - expected) <= 1e-12
    assert half == pytest.approx(0.0400, abs=5e-4)


def test_confidence_interval_degenerate():
    assert confidence_interval([0.25] * 10) == (0.25, 0.0)
    assert confidence_interval([0.7]) == (0.7, 0.0)


# ---------------------------------------------------------------------------
# configuration guards

def test_one_hot_mode_uses_indicator_rows(world):
    g, _ = world
    enc = EncoderConfig(input_dim=8, widths=[16, 16], low_layers=1)
    gen = GeneratorConfig(embed_widths=[16, 8], relation_widths=[16, 8],
                          semantics="one-hot")
    m = Model(g, enc, gen, seed=7)
    npt.assert_array_equal(m.generator_input, dense_propagation(m.prop))   # P·I, bitwise
    assert m.params["gen.embed.0.W"].data.shape == (g.num_nodes, 16)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("semantics", ["embeddings", "one-hot"])
def test_generator_input_matches_raw_z0_bitwise(world, semantics, training):
    # the model's P z0, propagated once, against the taped hops propagating
    # the raw z0 in the call: the embedding and every generator gradient
    g, _ = world
    m = make_model(g, semantics=semantics)
    reach = [every_row(m.prop)] * (len(m.gen_cfg.embed_widths) + 1)
    (z,), back = classifier_gen.graph_embed(m.params, m.gen_cfg, m.prop,
                                            m.generator_input, [Rng(3)], training, reach)
    weights = np.cos(np.arange(z.size)).reshape(z.shape)
    got = back(weights[None])
    z0 = np.eye(g.num_nodes) if semantics == "one-hot" else g.semantics
    want = tape_graph_embed(m.params, m.gen_cfg, m.prop, z0, Rng(3), training)
    embed = [n for n in m.params if n.startswith("gen.embed")]
    assert np.array_equal(_bits(z), _bits(want.data))
    assert len(got) == len(embed) == 2 * len(m.gen_cfg.embed_widths)
    for n, w in zip(embed, grad(sum_all(mul(want, Tensor(weights))),
                                [m.params[n] for n in embed])):
        assert np.array_equal(_bits(got[n]), _bits(w))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(iterations=-1)
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(decay_factor=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(entity_weight=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(level_weights={1: -2.0})
    with pytest.raises(ConfigError):
        EvalConfig(n_episodes=0)
    for bad in (float("nan"), float("inf"), "fast"):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(inner_lr=bad)
        with pytest.raises(ConfigError, match="finite"):
            EvalConfig(inner_lr=bad)
    with pytest.raises(ConfigError, match="finite"):
        TrainConfig(outer_lr=float("-inf"))
    with pytest.raises(ConfigError, match="finite"):
        TrainConfig(level_weights={1: float("nan")})
    for bad in (2.5, 1.0, True, "3"):
        for name in ("n_episodes", "n_way", "k_shot", "adapt_steps", "seed"):
            with pytest.raises(ConfigError, match="integer"):
                EvalConfig(**{name: bad})
        for name in ("iterations", "adapt_steps", "episodes_per_term",
                     "decay_period", "n_query"):
            with pytest.raises(ConfigError, match="integer"):
                TrainConfig(**{name: bad})
    assert TrainConfig(level_weights={1: 2.0}).weight_for(1) == 2.0
    assert TrainConfig(concept_weight=0.5).weight_for(3) == 0.5
    assert TrainConfig(outer_lr=0.1).lr_at(999) == pytest.approx(0.01)
    assert TrainConfig(outer_lr=0.1).lr_at(499) == 0.1


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path, world):
    g, ds = world
    m = make_model(g, seed=7)
    opt = SgdOptimizer(m.params, 0.9, 5e-4)
    train_step(m, opt, ds, small_cfg(), [(1, 2)], 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, opt, iteration=1, config_hash="abc", seed=11)
    snap = {k: p.data.copy() for k, p in m.params.items()}
    vel = {k: v.copy() for k, v in opt.velocities.items()}

    m2 = make_model(g, seed=99)  # different init, then restore
    opt2 = SgdOptimizer(m2.params, 0.9, 5e-4)
    header = load_checkpoint(path, m2, opt2, expected_hash="abc")
    assert header["iteration"] == 1 and header["seed"] == 11
    for k in snap:
        npt.assert_array_equal(m2.params[k].data, snap[k])
        npt.assert_array_equal(opt2.velocities[k], vel[k])


def test_checkpoint_hash_guard(tmp_path, world):
    g, _ = world
    m = make_model(g)
    opt = SgdOptimizer(m.params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, opt, config_hash="abc")
    with pytest.raises(DataError, match="different configuration"):
        load_checkpoint(path, m, expected_hash="xyz")


def test_checkpoint_errors(tmp_path, world):
    g, _ = world
    m = make_model(g)
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "none.ckpt", m)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(DataError, match="not a checkpoint"):
        load_checkpoint(bad, m)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, m, SgdOptimizer(m.params))
    good.write_bytes(good.read_bytes()[:-16])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(good, m, SgdOptimizer(m.params))


@pytest.mark.parametrize("table", ["parameter", "velocity"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_non_finite_table_writes_nothing(tmp_path, world, table, value):
    # every table is checked before any is written: a bad last table leaves
    # every parameter and velocity as it was
    g, _ = world
    m = make_model(g)
    opt = SgdOptimizer(m.params)
    last = sorted(m.params)[-1]
    if table == "parameter":
        m.params[last].data = m.params[last].data.copy()
        m.params[last].data.flat[0] = value
    else:
        opt.velocities[last].flat[0] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, opt)
    m2 = make_model(g, seed=99)
    opt2 = SgdOptimizer(m2.params)
    snap = {k: p.data for k, p in m2.params.items()}
    vel = {k: v.copy() for k, v in opt2.velocities.items()}
    name = f"parameter '{last}'" if table == "parameter" else f"velocity of '{last}'"
    with pytest.raises(DataError, match=f"{name} holds non-finite values"):
        load_checkpoint(path, m2, opt2)
    for k, p in m2.params.items():
        assert p.data is snap[k]
        npt.assert_array_equal(opt2.velocities[k], vel[k])


def test_checkpoint_every_prefix_and_trailing_bytes(tmp_path, world):
    g, _ = world
    m = Model(g, EncoderConfig(input_dim=8, widths=[2], low_layers=0),
              GeneratorConfig(embed_widths=[2, 2], relation_widths=[2, 2]))
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, m, SgdOptimizer(m.params))
    blob = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        with pytest.raises(DataError):  # velocities are checked without an optimizer too
            load_checkpoint(bad, m)
    bad.write_bytes(blob + b"\0")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(bad, m)
    load_checkpoint(good, m, SgdOptimizer(m.params))


def test_checkpoint_malformed_header(tmp_path, world):
    g, _ = world
    m = make_model(g)
    with pytest.raises(DataError, match="cannot read"):
        load_checkpoint(tmp_path, m)
    bad = tmp_path / "bad.ckpt"
    for header in (b"\xff\xfe{}", b"[1, 2]", b'{"version": 1}',
                   b'{"version": 1, "config_hash": "", "params": [["x", "y"]]}'):
        bad.write_bytes(b"CSCK" + len(header).to_bytes(4, "little") + header)
        with pytest.raises(DataError, match="malformed"):
            load_checkpoint(bad, m)
