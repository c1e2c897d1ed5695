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
passes write the bias, activation and softmax into arrays they made
themselves: each such write is the IEEE operation the reference does on the
same operands, into an array of the same memory layout, so no bit moves.
Evaluation never backpropagates; it emits and adapts its episodes in blocks,
each block emitted by one generator pass as a training step's episodes are:
one embedding per block, restricted to the rows the block's heads read.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .artifact import read_binary, write_binary, write_text_atomic
from .classifier_gen import GeneratorConfig, TaskClassifier, emit_for_task, init_generator
from .data import (Dataset, Episode, concept_levels_with, sample_concept_episode,
                   sample_entity_episode)
from .encoder import EncoderConfig, init_encoder, layer_names, layer_pairs
from .errors import ConfigError, DataError
from .graph import ConceptGraph, propagation_operator
from .tensor import (Rng, SgdOptimizer, checked, class_labels, leaky_mask, quiet_fp,
                     stable_exp_parts)


_KINDS = {"int": "an integer", "float": "a finite number", "bool": "true or false",
          "str": "a string", "list": "a list", "dict": "an object"}


def _is_kind(value, kind: str) -> bool:
    if isinstance(value, bool):                  # a bool is not a number
        return kind == "bool"
    if kind == "int":
        return isinstance(value, int)
    if kind == "float":
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, {"bool": bool, "str": str, "list": list, "dict": dict}[kind])


def require_types(cfg, **entries):
    """Every int, float, bool, str, list and dict field of ``cfg`` must hold a
    value of that type; a float must also be finite, since a NaN would slip
    past checks such as ``x < 0``.  Each keyword names a list or dict field
    and the type its entries (a dict's values) must have."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.type in _KINDS and not _is_kind(v, f.type):
            raise ConfigError(f"{f.name} must be {_KINDS[f.type]}, got {v!r}")
        kind = entries.get(f.name)
        for key, e in (v.items() if isinstance(v, dict) else enumerate(v)) if kind else ():
            if not _is_kind(e, kind):
                raise ConfigError(f"{f.name}[{key!r}] must be {_KINDS[kind]}, got {e!r}")


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
    # per-level overrides of concept_weight; every key must be an abstract
    # level of the graph (checked by train()), with or without enough classes
    level_weights: dict = field(default_factory=dict)
    episodes_per_term: int = 1
    n_way: int = 5
    k_shot: int = 1
    n_query: int = 15
    seed: int = 0

    def __post_init__(self):
        require_types(self, level_weights="float")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        for name in ("outer_lr", "inner_lr", "weight_decay",
                     "entity_weight", "concept_weight", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (0.0 < self.decay_factor <= 1.0):
            raise ConfigError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.decay_period < 1:
            raise ConfigError(f"decay_period must be >= 1, got {self.decay_period}")
        if self.adapt_steps < 0:
            raise ConfigError(f"adapt_steps must be >= 0, got {self.adapt_steps}")
        if self.episodes_per_term < 1:
            raise ConfigError(
                f"episodes_per_term must be >= 1, got {self.episodes_per_term}")
        if min(self.n_way, self.k_shot, self.n_query) < 1:
            raise ConfigError("n_way, k_shot and n_query must be positive")
        if any(v < 0 for v in self.level_weights.values()):
            raise ConfigError("level_weights must be non-negative")

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
        require_types(self)
        if self.n_episodes < 1:
            raise ConfigError(f"n_episodes must be >= 1, got {self.n_episodes}")
        if min(self.n_way, self.k_shot, self.n_query) < 1:
            raise ConfigError("n_way, k_shot and n_query must be positive")
        if min(self.adapt_steps, self.inner_lr, self.seed) < 0:
            raise ConfigError("adapt_steps, inner_lr and seed must be non-negative")


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
        self.params = {}
        self.params.update(init_encoder(enc_cfg, rng.child("encoder")))
        self.params.update(init_generator(gen_cfg, sem.shape[1], enc_cfg.feature_dim,
                                          rng.child("generator")))

    def emit(self, class_ids: list, rngs: list, training: bool):
        """(one classifier per task of ``class_ids``, each with its stream of
        ``rngs``, and the generator gradients' closure), from one generator
        pass (see :func:`classifier_gen.emit_for_task`)."""
        return emit_for_task(self.params, self.gen_cfg, self.prop,
                             self.generator_input, class_ids, rngs, training)


@dataclass
class AdaptedState:
    """Task-local parameters, as arrays; never written back into the model."""
    high: list                   # adapted (W, b) pairs of the high encoder
    classifier: TaskClassifier


def _T(a):
    """The transpose of each matrix in a stack (of a matrix, for 2-D input)."""
    return a.swapaxes(-1, -2)


def _layers_forward(pairs, x, slope: float, where: str = "the inner loop"):
    """The encoder layers (affine, leaky ReLU) on (stacked) arrays: the
    output, and each layer's input and leaky-ReLU mask for :func:`_vjps`;
    ``leaky_mask`` builds the mask without ``np.where``'s branch per entry."""
    saved = []
    for w, b in pairs:
        a = x @ w
        a += b
        mask = leaky_mask(checked(a, "affine", where), slope)
        saved.append((x, mask))
        x = checked(np.multiply(a, mask, out=a), "leaky_relu", where)
    return x, saved


def _cross_entropy(logits, y, where: str = "the inner loop"):
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


def _vjps(ws, saved, feats, w, g):
    """The reference ops' vjps on (stacked) arrays: each layer's (W, b)
    gradient, then the head's, from ``g`` at the logits ``feats @ w.T + b``;
    ``ws`` and ``saved`` are the layers' weights and their forward record.
    Biases keep a leading axis of one."""
    grads = [_T(_T(feats) @ g), g.sum(axis=-2, keepdims=True)]
    g_out = g @ w
    for i in reversed(range(len(saved))):
        x_in, mask = saved[i]
        g = np.multiply(g_out, mask, out=g_out)
        grads[:0] = [_T(x_in) @ g, g.sum(axis=-2, keepdims=True)]
        if i:
            g_out = g @ _T(ws[i])
    return grads


@quiet_fp
def inner_adapt(model: Model, clfs, support_xs, support_ys, steps: int,
                lr: float) -> list:
    """Fit {high encoder, classifier} to each task's support set with
    ``steps`` plain gradient-descent steps; one :class:`AdaptedState` per
    task.  ``steps=0`` or ``lr=0`` returns the initializations unchanged.

    The tasks form one block: their support sets and emitted classifiers
    must share one shape, and are stacked along a leading axis (the high
    encoder's start is the same for every task and is broadcast).  The
    forward and gradient passes repeat the reference ops' own expressions in
    the same order (affine, leaky ReLU, the sorted-denominator
    cross-entropy, then ``t + (-lr * g)``); the stacked matmul runs one
    product per task and every reduction runs along one task's own axis, so
    each task's adapted values are the ones the reference loop gives it
    alone, bit for bit, whatever the block.  Every intermediate is checked
    for non-finite values; one bad task fails the whole block.

    Each step scales its fresh gradients by -lr in place.  The first step
    adds them to the model's high-layer arrays and the emitted heads' into
    new (tasks, ...) arrays, and every later step adds into those, so
    neither the model nor the heads are written and a block holds one
    array per adapted parameter.  The new arrays are C-contiguous like the
    reference loop's sums: a matmul operand's strides pick the BLAS kernel,
    and with it the bits.  Each task's adapted arrays are views of them."""
    cfg = model.enc_cfg
    pairs = [(w.data, b.data) for w, b in layer_pairs(model.params, cfg)]
    high = pairs[cfg.low_layers:]
    if not (steps and lr):
        return [AdaptedState(high=list(high), classifier=clf) for clf in clfs]
    x, _ = _layers_forward(pairs[:cfg.low_layers],
                           np.asarray(np.stack(support_xs), dtype=np.float64), cfg.slope)
    starts = [t for pair in high for t in pair]
    vals = starts + [np.stack([c.weights for c in clfs]),
                     np.stack([c.bias[None] for c in clfs])]
    n, n_cls = x.shape[-2], vals[-2].shape[-2]
    y = np.concatenate([class_labels(sy, n, n_cls) for sy in support_ys])
    for step in range(steps):
        feats, saved = _layers_forward(zip(vals[:-2:2], vals[1:-2:2]), x, cfg.slope)
        w, b = vals[-2:]
        logits = feats @ _T(w)
        logits += b
        _, g = _cross_entropy(logits, y)
        g *= 1.0 / n
        grads = _vjps(vals[:-2:2], saved, feats, w, g)
        for d in grads:
            d *= -lr
        # step 0 must not write into the model's or the heads' arrays
        vals = [checked(np.add(v, d, out=v if step else None), "add", "the inner loop")
                for v, d in zip(vals, grads)]
    states = []
    for j, clf in enumerate(clfs):
        out = [v.reshape(len(clfs), *t.shape)[j]
               for v, t in zip(vals, starts + [clf.weights, clf.bias])]
        states.append(AdaptedState(
            high=[tuple(out[i:i + 2]) for i in range(0, len(out) - 2, 2)],
            classifier=TaskClassifier(out[-2], out[-1], clf.class_ids)))
    return states


def adapt_episodes(model: Model, eps, heads, steps: int, lr: float) -> list:
    """Adapt the episodes of ``eps`` from their emitted ``heads``, those that
    share a shape as one :func:`inner_adapt` block; one
    :class:`AdaptedState` per episode, in order, each with the bits it gets
    alone."""
    blocks = {}                     # episode shape -> its positions, in order
    for k, (ep, head) in enumerate(zip(eps, heads)):
        blocks.setdefault((ep.support_x.shape, head.weights.shape), []).append(k)
    states = {}
    for ks in blocks.values():
        states.update(zip(ks, inner_adapt(model, [heads[k] for k in ks],
                                          [eps[k].support_x for k in ks],
                                          [eps[k].support_y for k in ks], steps, lr)))
    return [states[k] for k in range(len(eps))]


@quiet_fp
def episode_loss(model: Model, ep: Episode, adapted: AdaptedState):
    """Query loss of ``ep`` under ``adapted``, its :func:`adapt_episodes`
    result.  Returns (loss, query accuracy, vjp).

    The query set is scored by the inner loop's forward code, each
    intermediate checked for non-finite values.  ``vjp(c)`` gives the
    gradients of ``c * loss`` by the inner loop's gradient code: one per
    low and adapted high (W, b), in layer order, then the classifier's W
    and b, with the bits of the op-by-op reference chain.
    """
    cfg, clf = model.enc_cfg, adapted.classifier
    pairs = [(w.data, b.data) for w, b in layer_pairs(model.params, cfg)[:cfg.low_layers]]
    pairs += adapted.high
    shapes = [t.shape for pair in pairs for t in pair] + [clf.weights.shape, clf.bias.shape]
    feats, saved = _layers_forward(pairs, np.asarray(ep.query_x, dtype=np.float64),
                                   cfg.slope, "the query loss")
    logits = feats @ clf.weights.T
    logits += clf.bias
    loss, p = _cross_entropy(logits, class_labels(ep.query_y, *logits.shape),
                             "the query loss")
    n = logits.shape[0]

    def vjp(c):
        grads = _vjps([w for w, _ in pairs], saved, feats, clf.weights, p * (c / n))
        return [d.reshape(shape) for d, shape in zip(grads, shapes)]

    acc = float((logits.argmax(axis=1) == ep.query_y).mean())
    return loss.item(), acc, vjp


# ---------------------------------------------------------------------------
# outer loop

def eligible_concept_levels(ds: Dataset, g: ConceptGraph, cfg: TrainConfig):
    """(level, way count) pairs for every abstract level that can fill an
    episode; way count is capped by the classes available at that level."""
    pairs = concept_levels_with(ds, g, cfg.k_shot, cfg.n_query)
    return [(level, min(cfg.n_way, n)) for level, n in pairs]


def _weighted_terms(terms):
    """(the step's loss, each term's mean, each episode loss's weight in the
    loss) for ``terms``, a list of (weight, the term's episode losses).  A
    term's mean adds its losses left to right and scales by 1/n (exact when
    n = 1), the loss adds the weighted means left to right, and each episode
    loss weighs w * (1/n)."""
    scales = [(float(w), 1.0 / len(losses)) for w, losses in terms]
    means = [functools.reduce(operator.add, losses) * s
             for (_, losses), (_, s) in zip(terms, scales)]
    total = functools.reduce(operator.add, [m * w for m, (w, _) in zip(means, scales)])
    return total, means, [w * s for (w, s), (_, losses) in zip(scales, terms)
                          for _ in losses]


def _gradients(model: Model, vjps, weights, emit_grads) -> dict:
    """Every parameter's gradient of the sum of ``weights[k]`` times episode
    k's query loss, by name, from the episodes' :func:`episode_loss` vjps
    in episode order and the step's :meth:`Model.emit` closure.  Each
    encoder parameter adds its episodes' contributions left to right,
    starting from the first."""
    names = [n for pair in layer_names(model.enc_cfg) for n in pair]
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

    All randomness is re-derived from (cfg.seed, iteration), so any term can
    be replayed in isolation and the step itself is resumable.  Every term's
    episodes are sampled first, in term order, then emitted together by one
    :meth:`Model.emit` call and adapted by :func:`adapt_episodes` (one
    :func:`inner_adapt` block per episode shape), and each is scored by one
    :func:`episode_loss` call, in term order again.  Each episode keeps the
    bits it would get alone.  The gradient runs back through the same
    stages (:func:`_gradients`).
    """
    it_rng = Rng(cfg.seed).child("train", iteration)
    rec = {"iteration": iteration, "lr": cfg.lr_at(iteration),
           "entity_loss": float("nan"), "entity_acc": float("nan")}
    terms = []                      # (name, weight, its episodes)

    def add_term(name, weight, sample):
        terms.append((name, weight, [sample(it_rng.child("sample", name, b))
                                     for b in range(cfg.episodes_per_term)]))

    if cfg.entity_weight > 0:
        add_term("entity", cfg.entity_weight,
                 lambda r: sample_entity_episode(ds, model.graph, "meta-train",
                                                 cfg.n_way, cfg.k_shot, cfg.n_query, r))
    if cfg.concept_weight > 0 and not levels:
        raise ConfigError("concept weight is positive but no abstract level has "
                          "enough classes for an episode")
    for level, n_way in levels:
        w = cfg.weight_for(level)
        rec[f"concept{level}_loss"] = rec[f"concept{level}_acc"] = float("nan")
        if w > 0:
            add_term(f"concept{level}", w,
                     lambda r, lv=level, n=n_way: sample_concept_episode(
                         ds, model.graph, lv, n, cfg.k_shot, cfg.n_query, r))
    if not terms:
        raise ConfigError("all loss weights are zero; nothing to train")

    eps = [ep for _, _, term_eps in terms for ep in term_eps]
    heads, emit_grads = model.emit(
        [ep.class_ids for ep in eps],
        [it_rng.child("drop", name, b) for name, _, term_eps in terms
         for b in range(len(term_eps))], True)
    states = iter(adapt_episodes(model, eps, heads, cfg.adapt_steps, cfg.inner_lr))
    scored, vjps = [], []           # (weight, the term's episode losses); vjps in order
    for name, weight, term_eps in terms:
        losses, accs, term_vjps = zip(*[episode_loss(model, ep, next(states))
                                        for ep in term_eps])
        scored.append((weight, losses))
        vjps += term_vjps
        rec[f"{name}_acc"] = float(np.mean(accs))
    rec["total_loss"], means, weights = _weighted_terms(scored)
    for (name, _, _), mean in zip(terms, means):
        rec[f"{name}_loss"] = mean
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
        ",".join(_fmt_cell(rec.get(c, float("nan"))) for c in columns) + "\n"
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
    on the rows its heads read, and one write-back per episode (see
    :func:`classifier_gen.emit_for_task`).  A non-finite value in a row no
    head reads reaches no output and is not checked, as in training.
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
        for i, (ep, state) in enumerate(zip(eps, adapted), start):
            accs[i] = episode_loss(model, ep, adapted=state)[1]
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
