"""Episodic meta-training and evaluation.

A :class:`Model` bundles three parameter groups: the low encoder layers
(shared across tasks, never adapted), the high encoder layers (re-fit on every
task's support set), and the graph-driven classifier generator.  Solving one
episode means: emit an initial classifier for the episode's classes from the
concept graph, run a few plain gradient-descent steps on the support set, and
score the query set.  The outer loop minimizes a weighted sum of the query
losses of one entity episode and one concept episode per abstract level, which
pushes gradient into all three groups at once.

The meta-gradient is first-order (first-order MAML, Finn et al. 2017; see
:func:`_gradients`): the outer gradient reaches the generator through the
emitted classifier with no second-derivative terms.  There is no tape.  Each
stage returns plain arrays and a closure for its vjp, and
:func:`train_step` runs them in one fixed order: one generator pass emits the
classifiers of all the step's episodes, one inner-loop block per episode
shape adapts them, one :func:`episode_loss` call per episode scores it, and
the episodes' query-loss gradients flow back through the same stages in
reverse, every parameter's contributions summed left to right in episode
order.  Each closure repeats the arithmetic of the op-by-op reference chain
(``tests/_tape.py``) in its order, so the gradients have its bits.

The inner loop adapts a block of same-shaped tasks at once, stacked along a
leading axis: each task's bits equal those of the loop run on it alone, and
every intermediate is checked for non-finite values.  After its first step
the loop updates the adapted arrays in place, and the forward and gradient
passes (``tensor.leaky_layers``, ``leaky_layer_vjp``) write the bias,
activation and softmax into arrays they made themselves: each such write is
the IEEE operation the reference does on the same operands, into an array of
the same memory layout, so no bit moves.  From the emit to the gradient a
task's parameters are one flat list of arrays (the adapted high layers' W
and b, then the head's), and the inner loop and the query loss run one
forward on it, :func:`_task_loss`.
Evaluation never backpropagates; it emits and adapts its episodes in blocks,
each block emitted by one generator pass as a training step's episodes are:
one embedding per block, restricted to the rows the block's heads read.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .artifact import read_binary, write_binary, write_text_atomic
from .classifier_gen import GeneratorConfig, emit_for_task, init_generator
from .data import (Dataset, Episode, eligible_concept_levels, sample_concept_episode,
                   sample_entity_episode)
from .encoder import PREFIX, EncoderConfig, layer_pairs
from .errors import ConfigError, DataError, require_at_least, require_types
from .graph import ConceptGraph, propagation_operator
from .tensor import (Rng, SgdOptimizer, checked, class_labels, init_layers, layer_names,
                     leaky_layer_vjp, leaky_layers, quiet_fp, stable_exp_parts)


# the episode shape that training and evaluation both carry: each must be >= 1
_EPISODE_SHAPE = ("n_way", "k_shot", "n_query")


@dataclass
class TrainConfig:
    iterations: int = 2000
    outer_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    decay_factor: float = 0.1
    decay_period: int = 500
    inner_lr: float = 0.01
    adapt_steps: int = 5
    entity_weight: float = 1.0
    concept_weight: float = 1.0
    # per-level overrides of concept_weight, keyed by level (an int, or its
    # JSON string); every key must be an abstract level of the graph (checked
    # by train()), with or without enough classes
    level_weights: dict = field(default_factory=dict)
    episodes_per_term: int = 1
    n_way: int = 5
    k_shot: int = 1
    n_query: int = 15
    seed: int = 0

    def __post_init__(self):
        require_types(self, "train", level_weights="float")
        levels = {}
        for k, v in self.level_weights.items():
            try:
                levels[int(k)] = float(v)
            except (TypeError, ValueError):
                raise ConfigError(f"train.level_weights key {k!r} is not an integer level")
        self.level_weights = levels
        require_at_least(self, "train", 0, "iterations", "outer_lr", "inner_lr",
                         "weight_decay", "entity_weight", "concept_weight", "adapt_steps",
                         "seed")
        require_at_least(self, "train", 1, "decay_period", "episodes_per_term",
                         *_EPISODE_SHAPE)
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"train.momentum must be in [0, 1), got {self.momentum}")
        if not (0.0 < self.decay_factor <= 1.0):
            raise ConfigError(
                f"train.decay_factor must be in (0, 1], got {self.decay_factor}")
        if any(v < 0 for v in self.level_weights.values()):
            raise ConfigError("train.level_weights must be non-negative")

    def weight_for(self, level: int) -> float:
        return float(self.level_weights.get(level, self.concept_weight))

    def lr_at(self, iteration: int) -> float:
        return self.outer_lr * self.decay_factor ** (iteration // self.decay_period)


@dataclass
class EvalConfig:
    n_episodes: int = 600
    n_way: int = 5
    k_shot: int = 1
    n_query: int = 15
    adapt_steps: int = 20
    inner_lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        require_types(self, "eval")
        require_at_least(self, "eval", 1, "n_episodes", *_EPISODE_SHAPE)
        require_at_least(self, "eval", 0, "adapt_steps", "inner_lr", "seed")


class Model:
    """Graph + propagation structure + all trainable parameters.

    ``generator_input`` is P·z0, the generator's input z0 propagated once:
    z0 is the graph's semantic vectors, or in one-hot semantics mode the
    identity matrix (one indicator column per node).
    """

    def __init__(self, graph: ConceptGraph, enc_cfg: EncoderConfig,
                 gen_cfg: GeneratorConfig, *, seed: int = 0):
        sem = (np.eye(graph.num_nodes) if gen_cfg.semantics == "one-hot"
               else graph.semantics)
        self.graph = graph
        self.enc_cfg = enc_cfg
        self.gen_cfg = gen_cfg
        self.prop = propagation_operator(graph)
        # the generator's input never changes, so neither does its first hop's P·z0
        self.generator_input = checked(self.prop.apply(sem, [np.arange(graph.num_nodes)]),
                                       "propagation", "the generator input")
        rng = Rng(seed).child("init")
        self.params = init_layers(rng.child("encoder"), PREFIX, enc_cfg.input_dim,
                                  enc_cfg.widths)
        self.params.update(init_generator(gen_cfg, sem.shape[1], enc_cfg.feature_dim,
                                          rng.child("generator")))

    def emit(self, class_ids: list, rngs: list, training: bool):
        """(one (weights, bias) head per task of ``class_ids``, each with its
        stream of ``rngs``, and the generator gradients' closure), from one
        generator pass (see :func:`classifier_gen.emit_for_task`)."""
        return emit_for_task(self.params, self.gen_cfg, self.prop,
                             self.generator_input, class_ids, rngs, training)


def _T(a):
    """The transpose of each matrix in a stack (of a matrix, for 2-D input)."""
    return a.swapaxes(-1, -2)


def _encoder_arrays(model: Model) -> list:
    """The encoder's W and b arrays, layer after layer."""
    return [t.data for pair in layer_pairs(model.params, model.enc_cfg) for t in pair]


def _cross_entropy(logits, y, where: str):
    """The sorted-denominator cross-entropy of (stacked) ``logits`` per task
    against ``y``, all the block's labels in one flat vector, and its
    gradient at the logits before the 1/n scale."""
    n, n_cls = logits.shape[-2:]
    rows = np.arange(y.size)
    z, e, s = stable_exp_parts(checked(logits, "affine", where))
    loss = checked((np.log(s[..., 0]) - z.reshape(-1, n_cls)[rows, y].reshape(-1, n))
                   .mean(axis=-1), "cross_entropy", where)
    g = np.divide(e, s, out=e)
    g.reshape(-1, n_cls)[rows, y] -= 1.0
    return loss, g


def _task_loss(params: list, x, y, slope: float, where: str):
    """The forward shared by the inner loop and the query loss, on a matrix
    or a stack: the leaky layers of the (W, b) pairs of the flat ``params``
    but the last, then the head's logits ``feats @ W.T + b`` (the last
    pair) and their :func:`_cross_entropy` against ``y``.  Returns (loss,
    its gradient at the logits before the 1/n scale, the logits, vjp).

    ``vjp(g)`` maps ``g`` at the logits to one gradient per array of
    ``params``, in its order, by the reference ops' vjps; each layer's vjp
    writes into an array made here."""
    feats, saved = leaky_layers(zip(params[:-2:2], params[1:-2:2]), x, slope, where)
    w, b = params[-2:]
    logits = feats @ _T(w)
    logits += b[..., None, :]
    loss, g = _cross_entropy(logits, y, where)

    def vjp(g):
        grads = [_T(_T(feats) @ g), g.sum(axis=-2)]
        g_out = g @ w
        for i in reversed(range(len(saved))):
            g, gw, gb = leaky_layer_vjp(g_out, *saved[i], out=g_out)
            grads[:0] = [gw, gb]
            if i:
                g_out = g @ _T(params[2 * i])
        return grads

    return loss, g, logits, vjp


@quiet_fp
def inner_adapt(model: Model, heads, support_xs, support_ys, steps: int,
                lr: float) -> list:
    """Fit {high encoder, head} to each task's support set with ``steps``
    plain gradient-descent steps.  Returns one flat list per task: each
    adapted high layer's W and b in layer order, then the head's weights
    and bias.  ``steps=0`` or ``lr=0`` returns the model's arrays and the
    head's own.

    The tasks form one block: their support sets and emitted (weights,
    bias) heads must share one shape, and are stacked along a leading axis
    (the high encoder's start is the same for every task and is
    broadcast).  The forward and gradient passes (:func:`_task_loss`)
    repeat the reference ops' own expressions in the same order (affine,
    leaky ReLU, the sorted-denominator cross-entropy, then ``t + (-lr *
    g)``); the stacked matmul runs one product per task and every reduction
    runs along one task's own axis, so each task's adapted values are the
    ones the reference loop gives it alone, bit for bit, whatever the
    block.  Every intermediate is checked for non-finite values; one bad
    task fails the whole block.

    Each step scales its fresh gradients by -lr in place.  The first step
    adds them to the model's high-layer arrays and the emitted heads' into
    new (tasks, ...) arrays, and every later step adds into those, so
    neither the model nor the heads are written and a block holds one
    array per adapted parameter.  The new arrays are C-contiguous like the
    reference loop's sums: a matmul operand's strides pick the BLAS kernel,
    and with it the bits.  Each task's adapted arrays are views of them."""
    cfg = model.enc_cfg
    enc = _encoder_arrays(model)
    low, high = enc[:2 * cfg.low_layers], enc[2 * cfg.low_layers:]
    if not (steps and lr):
        return [high + list(head) for head in heads]
    x, _ = leaky_layers(zip(low[::2], low[1::2]),
                        np.asarray(np.stack(support_xs), dtype=np.float64), cfg.slope,
                        "the inner loop")
    vals = high + [np.stack(t) for t in zip(*heads)]
    n, n_cls = x.shape[-2], vals[-1].shape[-1]
    y = np.concatenate([class_labels(sy, n, n_cls) for sy in support_ys])
    for step in range(steps):
        _, g, _, vjp = _task_loss(vals, x, y, cfg.slope, "the inner loop")
        g *= 1.0 / n
        grads = vjp(g)
        for d in grads:
            d *= -lr
        # step 0 must not write into the model's or the heads' arrays
        vals = [checked(np.add(v, d, out=v if step else None), "add", "the inner loop")
                for v, d in zip(vals, grads)]
    return [list(task) for task in zip(*vals)]


def adapt_episodes(model: Model, eps, heads, steps: int, lr: float) -> list:
    """Adapt the episodes of ``eps`` from their emitted ``heads``, those that
    share a shape as one :func:`inner_adapt` block; one flat array list per
    episode, in order, each with the bits it gets alone."""
    blocks = {}                     # episode shape -> its positions, in order
    for k, (ep, (w, _)) in enumerate(zip(eps, heads)):
        blocks.setdefault((ep.support_x.shape, w.shape), []).append(k)
    tasks = {}
    for ks in blocks.values():
        tasks.update(zip(ks, inner_adapt(model, [heads[k] for k in ks],
                                         [eps[k].support_x for k in ks],
                                         [eps[k].support_y for k in ks], steps, lr)))
    return [tasks[k] for k in range(len(eps))]


@quiet_fp
def episode_loss(model: Model, ep: Episode, task: list):
    """Query loss of ``ep`` under ``task``, its :func:`adapt_episodes`
    array list.  Returns (loss, query accuracy, vjp).

    The query set is scored by the inner loop's forward code
    (:func:`_task_loss`) after the low encoder layers, each intermediate
    checked for non-finite values.  ``vjp(c)`` gives the gradients of ``c *
    loss`` by the inner loop's gradient code: one per low layer's W and b,
    in layer order, then one per array of ``task``, with the bits of the
    op-by-op reference chain.
    """
    cfg = model.enc_cfg
    params = _encoder_arrays(model)[:2 * cfg.low_layers] + task
    x = np.asarray(ep.query_x, dtype=np.float64)
    y = class_labels(ep.query_y, len(x), len(task[-1]))
    loss, p, logits, vjp = _task_loss(params, x, y, cfg.slope, "the query loss")
    acc = float((logits.argmax(axis=1) == ep.query_y).mean())
    return loss.item(), acc, lambda c: vjp(p * (c / len(x)))


# ---------------------------------------------------------------------------
# outer loop

def _gradients(model: Model, vjps, weights, emit_grads) -> dict:
    """Every parameter's gradient of the sum of ``weights[k]`` times episode
    k's query loss, by name, from the episodes' :func:`episode_loss` vjps
    in episode order and the step's :meth:`Model.emit` closure.  Each
    encoder parameter adds its episodes' contributions left to right,
    starting from the first."""
    names = [n for pair in layer_names(PREFIX, len(model.enc_cfg.widths)) for n in pair]
    grads, heads = {}, []
    for vjp, c in zip(vjps, weights):
        *enc, g_w, g_b = vjp(c)
        # the first-order step: each adapted array passes its gradient to its
        # start unchanged, so the high layers' add to the model's parameters
        # and the heads' go back through the generator
        for name, g in zip(names, enc):
            grads[name] = grads[name] + g if name in grads else g
        heads.append((g_w, g_b))
    grads.update(emit_grads(heads))
    return grads


def train_step(model: Model, opt: SgdOptimizer, ds: Dataset, cfg: TrainConfig,
               levels, iteration: int) -> dict:
    """One outer update: sample episodes for every active loss term, combine
    them with their weights, backpropagate, and step the optimizer.

    The terms are one table of (name, weight, sampler): the entity term, then
    a concept term per level of ``levels``, those of positive weight.  Term t
    is the slice [t*n, (t+1)*n) of one flat list of episodes, n =
    ``cfg.episodes_per_term``.  All randomness is re-derived from (cfg.seed,
    iteration), so any term can be replayed in isolation and a step resumed.
    One :meth:`Model.emit` call emits the episodes, :func:`adapt_episodes`
    adapts them (one :func:`inner_adapt` block per shape) and one
    :func:`episode_loss` call scores each, with the bits it gets alone.  A
    term's loss adds its episodes' left to right and scales by 1/n, the
    step's adds the weighted terms' left to right, and each episode weighs w
    * (1/n) in the gradient (:func:`_gradients`).
    """
    if cfg.concept_weight > 0 and not levels:
        raise ConfigError("concept weight is positive but no abstract level has "
                          "enough classes for an episode")
    shape = (cfg.k_shot, cfg.n_query)
    terms = [("entity", cfg.entity_weight, functools.partial(
        sample_entity_episode, ds, model.graph, "meta-train", cfg.n_way, *shape))]
    terms += [(f"concept{level}", cfg.weight_for(level), functools.partial(
        sample_concept_episode, ds, model.graph, level, n_way, *shape))
              for level, n_way in levels]
    terms = [(name, float(w), sample) for name, w, sample in terms if w > 0]
    if not terms:
        raise ConfigError("all loss weights are zero; nothing to train")

    n, it_rng = cfg.episodes_per_term, Rng(cfg.seed).child("train", iteration)
    runs = [(name, b, sample) for name, _, sample in terms for b in range(n)]
    eps = [sample(it_rng.child("sample", name, b)) for name, b, sample in runs]
    drops = [it_rng.child("drop", name, b) for name, b, _ in runs]
    heads, emit_grads = model.emit([ep.class_ids for ep in eps], drops, True)
    adapted = adapt_episodes(model, eps, heads, cfg.adapt_steps, cfg.inner_lr)
    losses, accs, vjps = zip(*[episode_loss(model, ep, task)
                               for ep, task in zip(eps, adapted)])
    # every column starts as NaN (an inactive term's stay so); the total goes last
    rec = {c: float("nan") for c in metrics_columns(levels) if c != "total_loss"}
    rec.update(iteration=iteration, lr=cfg.lr_at(iteration))
    parts, weights = [], []
    for t, (name, w, _) in enumerate(terms):
        term = slice(t * n, (t + 1) * n)
        mean = functools.reduce(operator.add, losses[term]) * (1.0 / n)
        rec[f"{name}_loss"], rec[f"{name}_acc"] = mean, float(np.mean(accs[term]))
        parts.append(mean * w)
        weights += [w * (1.0 / n)] * n
    rec["total_loss"] = functools.reduce(operator.add, parts)
    opt.step(rec["lr"], _gradients(model, vjps, weights, emit_grads))
    return rec


def metrics_columns(levels):
    cols = ["iteration", "lr", "total_loss", "entity_loss", "entity_acc"]
    for level, _ in levels:
        cols += [f"concept{level}_loss", f"concept{level}_acc"]
    return cols


def _fmt_cell(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    return "nan" if np.isnan(v) else repr(v)


def write_metrics(path, columns, records):
    write_text_atomic(path, [",".join(columns) + "\n"] + [
        ",".join(_fmt_cell(rec[c]) for c in columns) + "\n"
        for rec in records])


def train(model: Model, ds: Dataset, cfg: TrainConfig, *, metrics_path=None,
          checkpoint_path=None, config_hash: str = "", log=None):
    """Run the full outer loop; returns (metric records, optimizer).

    The metrics file is a CSV with one row per iteration and fixed columns
    (see :func:`metrics_columns`); reruns with the same inputs reproduce it
    byte for byte.
    """
    ds.validate_against(model.graph)
    abstract = range(model.graph.entity_level)
    unknown = sorted(set(cfg.level_weights) - set(abstract))
    if unknown:
        raise ConfigError(f"train.level_weights names level(s) {unknown}, which are "
                          f"not abstract levels of the graph ({list(abstract)})")
    levels = eligible_concept_levels(ds, model.graph, cfg)
    opt = SgdOptimizer(model.params, cfg.momentum, cfg.weight_decay)
    records = []
    for it in range(cfg.iterations):
        rec = train_step(model, opt, ds, cfg, levels, it)
        records.append(rec)
        if log and (it % 100 == 0 or it == cfg.iterations - 1):
            log(f"iter {it:5d}  lr {rec['lr']:.4g}  total {rec['total_loss']:.4f}")
    if metrics_path is not None:
        write_metrics(metrics_path, metrics_columns(levels), records)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, opt, iteration=cfg.iterations,
                        config_hash=config_hash, seed=cfg.seed)
    return records, opt


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalResult:
    mean: float
    half_width: float
    accuracies: np.ndarray


def confidence_interval(accuracies):
    """(mean, 95% half-width) with the half-width 1.96 * sample std / sqrt(n)."""
    a = np.asarray(accuracies, dtype=np.float64)
    m = float(a.mean())
    if a.size < 2:
        return m, 0.0
    return m, float(1.96 * a.std(ddof=1) / np.sqrt(a.size))


# Eval episodes emitted and adapted together; the results do not depend on it.
# 64 runs a whole benchmark eval chunk (40 or 20 episodes) as one block.  With
# the in-place inner loop a block holds, per episode and adapted 64-wide layer,
# its adapted (64, 64) weights and one step's gradient: 2 x 32 KB, about 4 MB
# for a block of 64 episodes with one such layer, as in the benchmark.
_BLOCK = 64


def evaluate(model: Model, ds: Dataset, cfg: EvalConfig, *, split: str = "meta-test",
             level: int | None = None) -> EvalResult:
    """Frozen-parameter episodic evaluation.

    Dropout is disabled and model parameters are never written; each episode
    draws its own random streams from (cfg.seed, episode index), so the
    per-episode accuracy vector is independent of execution order.
    Episodes come in blocks of ``_BLOCK``: a block's episodes are sampled,
    then emitted by one :meth:`Model.emit` call and adapted by
    :func:`adapt_episodes`, then scored one by one by :func:`episode_loss`;
    each episode gets the bits it gets alone.  The emit is a training
    step's without dropout: one node embedding per block, propagated only
    on the rows its heads read, and one write-back for the block's class
    rows (see :func:`classifier_gen.emit_classifier`).  A non-finite value
    in a row no head reads reaches no output and is not checked, as in
    training.
    """
    try:
        accs = np.empty(cfg.n_episodes)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"eval.n_episodes = {cfg.n_episodes} is too large for the "
                          f"vector of episode accuracies ({exc})") from None
    g = model.graph
    sample, where = ((sample_entity_episode, split) if level in (None, g.entity_level)
                     else (sample_concept_episode, level))
    rng = Rng(cfg.seed).child("eval")
    for start in range(0, cfg.n_episodes, _BLOCK):
        block = range(start, min(start + _BLOCK, cfg.n_episodes))
        eps = [sample(ds, g, where, cfg.n_way, cfg.k_shot, cfg.n_query,
                      rng.child(i, "sample")) for i in block]
        # only the heads and the accuracies: no vjp closure outlives its call,
        # which keeps the arrays it holds out of the peak memory
        heads = model.emit([ep.class_ids for ep in eps],
                           [rng.child(i, "drop") for i in block], False)[0]
        adapted = adapt_episodes(model, eps, heads, cfg.adapt_steps, cfg.inner_lr)
        for i, (ep, task) in enumerate(zip(eps, adapted), start):
            accs[i] = episode_loss(model, ep, task)[1]
    mean, half = confidence_interval(accs)
    return EvalResult(mean=mean, half_width=half, accuracies=accs)


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"CSCK"


def save_checkpoint(path, model: Model, opt: SgdOptimizer, *, iteration: int = 0,
                    config_hash: str = "", seed: int = 0):
    """The ``artifact`` framing: a header of names, shapes and counters, then
    every parameter and every optimizer velocity as raw float64, in
    sorted-name order."""
    names = sorted(model.params)
    header = {
        "format": "conceptshot-checkpoint",
        "version": 1,
        "config_hash": config_hash,
        "iteration": int(iteration),
        "seed": int(seed),
        "params": [[n, list(model.params[n].data.shape)] for n in names],
    }
    tables = [model.params[n].data for n in names] + [opt.velocities[n] for n in names]
    write_binary(path, _CKPT_MAGIC, header, [t.astype("<f8", copy=False) for t in tables])


def load_checkpoint(path, model: Model, opt: SgdOptimizer | None = None,
                    expected_hash: str | None = None) -> dict:
    """Restore parameters (and velocities, if ``opt`` given) in place.  A
    non-finite value in any table is a ``DataError`` and writes nothing."""
    names = sorted(model.params)

    def layout(header):
        version = header.get("version")
        entries = [(n, tuple(int(d) for d in s)) for n, s in header["params"]]
        config_hash = header["config_hash"]
        if version != 1:
            raise DataError(f"unsupported checkpoint version {version}")
        if expected_hash is not None and config_hash != expected_hash:
            raise DataError("checkpoint was produced under a different configuration "
                            f"(hash {config_hash!r} != {expected_hash!r})")
        if [n for n, _ in entries] != names:
            raise DataError("checkpoint parameter names do not match the model")
        for n, shape in entries:
            if model.params[n].data.shape != shape:
                raise DataError(f"checkpoint parameter '{n}' has shape {shape}, "
                                f"model expects {model.params[n].data.shape}")
        return [("<f8", shape) for _, shape in entries] * 2   # params, then velocities

    header, tables = read_binary(path, _CKPT_MAGIC, "checkpoint", layout)
    kinds = [f"parameter '{n}'" for n in names] + [f"velocity of '{n}'" for n in names]
    for kind, value in zip(kinds, tables):      # all checked before any is written
        if not np.isfinite(value).all():
            raise DataError(f"checkpoint {kind} holds non-finite values")
    for n, value in zip(names, tables):
        model.params[n].data = value
    if opt is not None:
        opt.velocities.update(zip(names, tables[len(names):]))
    return header
