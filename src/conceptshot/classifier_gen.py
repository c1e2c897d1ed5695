"""Task classifier generation from the concept graph.

Three stages:

1. ``graph_embed``   -- propagation hops over all nodes:
                        Z <- dropout(leaky_relu(P Z W + b)) per hop,
2. ``refine_relations`` -- every ordered pair of the task's rows (including
                        i = i) goes through a small MLP; each row gets the
                        mean of its pair outputs added back (residual),
3. ``emit_classifier`` -- the refined rows written back into the node matrix,
                        one more propagation + affine, rows L2-normalized
                        and scaled to norm ``scale``; the task's rows are
                        split into per-class weights (first ``feature_dim``
                        columns) and bias (last column).  Tasks that share a
                        frozen embedding reuse one write-back buffer and
                        re-propagate only the rows their classes touch.

The stages run on plain arrays off the tape, checked as the tape checks
(``tensor.checked``).  Each takes a list of tasks and returns (output, the
Tensors it reads, backward), where backward repeats the tape ops' vjps in the
tape's order; ``emit_for_task`` chains the stages over every task of a
training step or eval block into one node.  Each task keeps the bits it gets
alone: P acts per column, products run one per task (tasks of one class count
share one relation-MLP stack), each task draws its dropout masks from its own
stream in the taped order, and per-task gradients are summed left to right in
task order.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .graph import Propagation, task_ids
from .tensor import Rng, Tensor, attach, checked, glorot_uniform, quiet_fp


@dataclass
class GeneratorConfig:
    embed_widths: list = field(default_factory=lambda: [64, 32])
    relation_widths: list = field(default_factory=lambda: [64, 32])
    scale: float = 0.2               # emitted classifier row norm
    keep_prob: float = 0.9
    slope: float = 0.1
    semantics: str = "embeddings"    # or "one-hot"

    def __post_init__(self):
        if not self.embed_widths or any(w < 1 for w in self.embed_widths):
            raise ConfigError(f"embed_widths must be positive, got {self.embed_widths}")
        if len(self.relation_widths) != 2 or any(w < 1 for w in self.relation_widths):
            raise ConfigError(f"relation_widths must be two positive ints, "
                              f"got {self.relation_widths}")
        if self.relation_widths[-1] != self.embed_widths[-1]:
            raise ConfigError(
                f"relation output width {self.relation_widths[-1]} must match the last "
                f"embed width {self.embed_widths[-1]} (residual connection)")
        if self.scale < 0:
            raise ConfigError(f"scale must be non-negative, got {self.scale}")
        if not (0.0 < self.keep_prob <= 1.0):
            raise ConfigError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.semantics not in ("embeddings", "one-hot"):
            raise ConfigError(f"unknown semantics mode '{self.semantics}'")


@dataclass
class TaskClassifier:
    """Per-episode linear head: logits = x @ weights.T + bias."""
    weights: Tensor          # (n_way, feature_dim)
    bias: Tensor             # (n_way,)
    class_ids: np.ndarray


def init_generator(cfg: GeneratorConfig, semantic_dim: int, feature_dim: int,
                   rng: Rng) -> dict:
    """Parameters for hops, relation MLP and the (feature_dim+1)-wide output layer."""
    params = {}
    d = semantic_dim
    for h, w in enumerate(cfg.embed_widths):
        params[f"gen.embed.{h}.W"] = glorot_uniform(rng, d, w)
        params[f"gen.embed.{h}.b"] = Tensor(np.zeros(w), requires_grad=True)
        d = w
    rel_in = 2 * cfg.embed_widths[-1]
    for i, w in enumerate(cfg.relation_widths):
        params[f"gen.rel.{i}.W"] = glorot_uniform(rng, rel_in, w)
        params[f"gen.rel.{i}.b"] = Tensor(np.zeros(w), requires_grad=True)
        rel_in = w
    params["gen.out.W"] = glorot_uniform(rng, cfg.embed_widths[-1], feature_dim + 1)
    params["gen.out.b"] = Tensor(np.zeros(feature_dim + 1), requires_grad=True)
    return params


class SharedEmbedding(NamedTuple):
    """A node matrix many calls share and its propagation P·z, computed once:
    the generator's input, or a ``graph_embed`` output out of training."""
    z: Tensor
    propagated: Tensor


_WHERE = "the classifier generator"


def _fold(grads):
    """Per-task gradients summed left to right, in task order."""
    return functools.reduce(operator.add, grads)


def _propagate(f, x):
    """``f`` (P or its vjp) on each (N, d) matrix of a stack: all tasks'
    columns in one call.  A lone column sums in lanes whose bits depend on
    the neighborhood width, so one-column tasks go one at a time."""
    if x.ndim == 2 or x.shape[2] == 1:
        return f(x) if x.ndim == 2 else np.stack([f(m) for m in x])
    t, n, d = x.shape
    cols = f(x.transpose(1, 0, 2).reshape(n, t * d))
    return np.ascontiguousarray(cols.reshape(n, t, d).transpose(1, 0, 2))


def _layer(x, w, b, cfg: GeneratorConfig, rngs, training: bool):
    """affine, leaky ReLU, then (training) each task's dropout, on plain
    arrays, one task's or stacked; the output and the record for the vjps."""
    a = checked(x @ w + b, "affine", _WHERE)
    lmask = np.where(a >= 0, 1.0, float(cfg.slope))
    out, dmask = checked(a * lmask, "leaky_relu", _WHERE), None
    if training and cfg.keep_prob < 1.0:
        dmask = [(r.uniform(size=out.shape[-2:]) < cfg.keep_prob) / cfg.keep_prob
                 for r in rngs]
        dmask = dmask[0] if x.ndim == 2 and len(rngs) == 1 else np.stack(dmask)
        out = checked(out * dmask, "dropout", _WHERE)
    return out, (x, lmask, dmask)


def _layer_back(g, rec):
    """The gradient at the affine output, then the W and b gradients."""
    x, lmask, dmask = rec
    g = (g if dmask is None else g * dmask) * lmask
    return g, x.swapaxes(-1, -2) @ g, g.sum(axis=-2)


@quiet_fp
def graph_embed(params: dict, cfg: GeneratorConfig, prop: Propagation,
                z0: SharedEmbedding, rngs: list, training: bool):
    """Hop stack over all nodes, for the tasks whose dropout streams are
    ``rngs``; deterministic when ``training`` is False.  The output is a
    (tasks, nodes, width) stack.

    ``z0`` is the generator input and its P·z0, computed once by the model,
    which the first hop uses as is: the bits of propagating z0 here.  The
    tasks share hop 0's affine and leaky ReLU and each later propagation.
    Nothing backpropagates into ``z0``."""
    z, p = z0
    if z.data.shape[1] != params["gen.embed.0.W"].data.shape[0]:
        raise ConfigError(
            f"semantic width {z.data.shape[1]} does not match the first hop's "
            f"input width {params['gen.embed.0.W'].data.shape[0]}")
    hops = [(params[f"gen.embed.{h}.W"], params[f"gen.embed.{h}.b"])
            for h in range(len(cfg.embed_widths))]
    x, recs = p.data, []
    for h, (w, b) in enumerate(hops):
        if h:
            x = checked(_propagate(prop.apply, x), "propagation", _WHERE)
        x, rec = _layer(x, w.data, b.data, cfg, rngs, training)
        recs.append(rec)

    def back(g):
        grads = []
        for h in reversed(range(len(hops))):
            g, gw, gb = _layer_back(g, recs[h])
            grads += [_fold(gw), _fold(gb)]
            if h:
                g = _propagate(prop.apply_vjp, g @ hops[h][0].data.T)
        return grads

    ps = [t for pair in reversed(hops) for t in pair]
    return np.broadcast_to(x, (len(rngs),) + x.shape[-2:]), ps, back


@quiet_fp
def refine_relations(params: dict, cfg: GeneratorConfig, z_tasks: list,
                     rngs: list, training: bool):
    """Residual pairwise refinement over each task's rows.

    All n^2 ordered pairs (i, j) -- i = j included -- are concatenated and
    pushed through the MLP; row i receives the mean over j of the outputs.
    ``z_tasks`` is a list of row arrays, one per stream of ``rngs``; the
    tasks that share a class count run the MLP, the sorted mean and the
    backward as one stack, each reduction along one task's own axis.
    """
    layers = [(params[f"gen.rel.{i}.W"], params[f"gen.rel.{i}.b"])
              for i in range(len(cfg.relation_widths))]
    stacks = {}                     # n -> its tasks' positions
    for k, zt in enumerate(z_tasks):
        stacks.setdefault(len(zt), []).append(k)
    pairs = {n: (np.repeat(np.arange(n), n), np.tile(np.arange(n), n)) for n in stacks}
    out, recs = [None] * len(z_tasks), {}
    for n, ks in stacks.items():
        zs, (left, right) = np.stack([z_tasks[k] for k in ks]), pairs[n]
        h, recs[n] = np.concatenate([zs[:, left], zs[:, right]], axis=2), []
        for w, b in layers:
            h, saved = _layer(h, w.data, b.data, cfg, [rngs[k] for k in ks], training)
            recs[n].append(saved)
        mean = checked(np.sort(h.reshape(len(ks), n, n, -1), axis=2).sum(axis=2) / n,
                       "grouped_mean", _WHERE)
        for k, o in zip(ks, checked(zs + mean, "add", _WHERE)):
            out[k] = o

    def back(g_out):
        g_in, per_task = [None] * len(z_tasks), [None] * len(z_tasks)
        for n, ks in stacks.items():
            g = np.stack([g_out[k] for k in ks])
            gh, grads = np.repeat(g / n, n, axis=1), []
            for (w, _), r in zip(reversed(layers), reversed(recs[n])):
                gh, gw, gb = _layer_back(gh, r)
                grads, gh = grads + [gw, gb], gh @ w.data.T
            d, (left, right) = g.shape[2], pairs[n]
            gl, gr = np.zeros_like(g), np.zeros_like(g)
            np.add.at(gl, (slice(None), left), gh[..., :d])
            np.add.at(gr, (slice(None), right), gh[..., d:])
            g = (g + gl) + gr               # residual, left rows, right rows
            for j, k in enumerate(ks):
                g_in[k], per_task[k] = g[j], [x[j] for x in grads]
        return g_in, [_fold(gs) for gs in zip(*per_task)]

    return out, [t for pair in reversed(layers) for t in pair], back


def _heads(rows: Tensor, ids, feature_dim: int) -> list:
    """Each task's classifier: slice nodes of the emitted rows."""
    def part(key):
        def vjp(g):
            gx = np.zeros_like(rows.data)
            gx[key] = g
            return (gx,)
        return attach(rows.data[key].copy(), (rows,), vjp, "slice")

    ends = np.cumsum([i.size for i in ids])
    return [TaskClassifier(part((slice(e - i.size, e), slice(0, feature_dim))),
                           part((slice(e - i.size, e), feature_dim)), i)
            for i, e in zip(ids, ends)]


@quiet_fp
def emit_classifier(prop: Propagation, z_all, refined: list, class_ids: list,
                    w_out: Tensor, b_out: Tensor, norm_scale: float, propagated=None):
    """Write-back, final propagation + affine, row normalization scaled to
    ``norm_scale``.

    ``z_all`` is a stack of node matrices, one per task, beside lists of
    refined rows and of class id arrays.  Each task's refined rows are
    written back into its node matrix, which is propagated, and the output
    layer runs on the task's rows of the result; the output holds every
    task's rows, task after task.

    ``propagated``, when given, is P·z for the one node matrix z all tasks
    share, and nothing backpropagates.  The write-back then runs the tasks
    through one buffer each for z, P·z and the affine output: a task writes
    its rows in, re-propagates the rows they touch (``Propagation.reapply``),
    runs the affine on every row (a row's bits depend on the row count) and
    restores the touched rows.  A task's touched rows are checked as it
    runs, a shared row the first time a task leaves it untouched.
    """
    w, b = w_out.data, b_out.data
    if propagated is not None:
        z = z_all[0]
        z_buf, pz, a = np.array(z), propagated.copy(), np.empty((len(z), w.shape[1]))
        unchecked, rows = np.ones(len(z), dtype=bool), []   # shared rows not yet checked
        for r, i in zip(refined, class_ids):
            z_buf[i] = r
            hit, values = prop.reapply(z_buf, i)
            pz[hit] = values
            look, unchecked = unchecked | hit, unchecked & hit
            checked(pz[look], "propagation", _WHERE)
            np.matmul(pz, w, out=a)         # the bias goes on the rows used
            checked(a[look] + b, "affine", _WHERE)
            rows.append(a[i] + b)
            z_buf[i], pz[hit] = z[i], propagated[hit]
        rows = np.concatenate(rows)
    else:
        z = np.array(z_all)
        for m, r, i in zip(z, refined, class_ids):
            m[i] = r
        pz = checked(_propagate(prop.apply, z), "propagation", _WHERE)
        a = checked(pz @ w + b, "affine", _WHERE)
        rows = np.concatenate([m[i] for m, i in zip(a, class_ids)])
    norms = np.sqrt(np.sum(rows * rows, axis=1, keepdims=True))
    denom = np.maximum(norms, 1e-12)         # zero rows stay zero
    out = checked(checked(rows / denom, "l2_normalize_rows", _WHERE) * float(norm_scale),
                  "scale", _WHERE)

    def back(g):
        g = g * float(norm_scale)
        dot = np.sum(rows * g, axis=1, keepdims=True)
        g = np.split(np.where(norms > 1e-12, g / denom - rows * dot / denom ** 3, g / denom),
                     np.cumsum([i.size for i in class_ids])[:-1])
        ga = np.zeros(a.shape)
        for m, gt, i in zip(ga, g, class_ids):
            m[i] += gt
        g_z = _propagate(prop.apply_vjp, ga @ w.T)
        g_refined = [m[i] for m, i in zip(g_z, class_ids)]
        for m, i in zip(g_z, class_ids):
            m[i] = 0.0
        return g_z, g_refined, [_fold(pz.swapaxes(1, 2) @ ga), _fold(ga.sum(axis=1))]

    return out, [w_out, b_out], back


def emit_for_task(params: dict, cfg: GeneratorConfig, prop: Propagation,
                  z0: SharedEmbedding, class_ids: list, rngs: list, training: bool,
                  embedding: SharedEmbedding | None = None) -> list:
    """Full pipeline: embed all nodes, refine each task's rows, emit the heads.

    Given a list of class id arrays and one stream per task, emits every
    task in one pass, as one node, and returns one classifier per task, each
    with the bits it gets alone.  Every task's ids are checked first.  ``z0``
    is the generator input (see :func:`graph_embed`).

    ``embedding``, when given, is used instead of embedding the nodes again,
    and its propagation lets the write-back re-propagate only each task's
    touched rows (see :func:`emit_classifier`); out of training both are the
    same for every task, and nothing backpropagates through them.
    """
    ids = [task_ids(i, prop.size) for i in class_ids]
    if embedding is None:
        z, embed_params, embed_back = graph_embed(params, cfg, prop, z0, rngs, training)
    else:
        z = np.broadcast_to(embedding.z.data, (len(ids),) + embedding.z.shape)
        embed_params = []
    refined, rel_params, refine_back = refine_relations(
        params, cfg, [m[i] for m, i in zip(z, ids)], rngs, training)
    rows, out_params, emit_back = emit_classifier(
        prop, z, refined, ids, params["gen.out.W"], params["gen.out.b"], cfg.scale,
        None if embedding is None else embedding.propagated.data)
    parents = out_params + rel_params + embed_params
    if embedding is not None and any(t.requires_grad for t in parents + [embedding.z]):
        raise ValueError("a shared embedding carries no gradient")

    def grads(g):
        g_z, g_refined, out_grads = emit_back(g)
        g_tasks, rel_grads = refine_back(g_refined)
        g_select = np.zeros(z.shape)        # the row selection's vjp
        for m, gt, i in zip(g_select, g_tasks, ids):
            m[i] += gt
        return out_grads + rel_grads + embed_back(g_z + g_select)

    return _heads(attach(rows, parents, grads, "emit_for_task"), ids,
                  params["gen.out.W"].data.shape[1] - 1)
