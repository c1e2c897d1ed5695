"""Task classifier generation from the concept graph.

Three stages:

1. ``graph_embed``   -- propagation hops over the nodes:
                        Z <- dropout(leaky_relu(P Z W + b)) per hop,
2. ``refine_relations`` -- every ordered pair of the task's rows (including
                        i = i) goes through a small MLP; each row gets the
                        mean of its pair outputs added back (residual),
3. ``emit_classifier`` -- the refined rows written back into the node matrix,
                        one more propagation + affine, rows L2-normalized
                        and scaled to norm ``scale``; the task's rows are
                        split into its head: per-class weights (first
                        ``feature_dim`` columns) and bias (last column).
                        One write-back propagation serves every task of a
                        call, in training and in eval alike, and one
                        affine every group of tasks with disjoint class
                        rows.

The stages run on plain arrays, each intermediate checked for non-finite
values; hops and relation MLP are ``tensor``'s leaky layers plus dropout.
Each takes a list of tasks and returns its output and its vjp, a closure
that maps the gradient at the output to the gradients at its inputs and
parameters (by name) with the arithmetic of the op-by-op reference chain,
in its order; ``emit_for_task`` chains the stages over every task of a
training step or eval block.  Each task keeps the bits it gets alone: P
acts on each node matrix of a task stack on its own, products run one per
task (tasks of one class count share one relation-MLP stack), each task
draws its dropout masks from its own stream in the reference order, and
per-task gradients are summed left to right in task order.

P and Pᵀ run only on the rows a head depends on (see ``graph_embed`` and
``emit_classifier``), with the bits of propagating every row; a non-finite
value in a row no head depends on reaches no output and is not checked.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_at_least, require_types
from .graph import Propagation, task_ids
from .tensor import (Rng, Tensor, checked, glorot_uniform, init_layers, layer_names,
                     leaky_layer_vjp, leaky_layers, quiet_fp)


@dataclass
class GeneratorConfig:
    embed_widths: list = field(default_factory=lambda: [64, 32])
    relation_widths: list = field(default_factory=lambda: [64, 32])
    scale: float = 0.2               # emitted classifier row norm
    keep_prob: float = 0.9
    slope: float = 0.1
    semantics: str = "embeddings"    # or "one-hot"

    def __post_init__(self):
        require_types(self, "generator", embed_widths="int", relation_widths="int")
        if not self.embed_widths or any(w < 1 for w in self.embed_widths):
            raise ConfigError(
                f"generator.embed_widths must be positive, got {self.embed_widths}")
        if len(self.relation_widths) != 2 or any(w < 1 for w in self.relation_widths):
            raise ConfigError(f"generator.relation_widths must be two positive ints, "
                              f"got {self.relation_widths}")
        if self.relation_widths[-1] != self.embed_widths[-1]:
            raise ConfigError(
                f"generator.relation_widths[-1]={self.relation_widths[-1]} must match "
                f"generator.embed_widths[-1]={self.embed_widths[-1]} (residual connection)")
        require_at_least(self, "generator", 0, "scale")
        if not (0.0 < self.keep_prob <= 1.0):
            raise ConfigError(f"generator.keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.semantics not in ("embeddings", "one-hot"):
            raise ConfigError(f"generator.semantics must be 'embeddings' or 'one-hot', "
                              f"got {self.semantics!r}")


def init_generator(cfg: GeneratorConfig, semantic_dim: int, feature_dim: int,
                   rng: Rng) -> dict:
    """Parameters for hops, relation MLP and the (feature_dim+1)-wide output layer."""
    params = init_layers(rng, "gen.embed", semantic_dim, cfg.embed_widths)
    params.update(init_layers(rng, "gen.rel", 2 * cfg.embed_widths[-1],
                              cfg.relation_widths))
    params["gen.out.W"] = glorot_uniform(rng, cfg.embed_widths[-1], feature_dim + 1)
    params["gen.out.b"] = Tensor(np.zeros(feature_dim + 1))
    return params


_WHERE = "the classifier generator"


def _fold(grads):
    """Per-task gradients summed left to right, in task order."""
    return functools.reduce(operator.add, grads)


def _layer(x, w, b, cfg: GeneratorConfig, rngs, training: bool):
    """``tensor.leaky_layers`` on one layer, then (training) each task's
    dropout, on a matrix shared by the tasks or a stack of one per task; the
    output and the vjps' record.  The dropout writes into the leaky ReLU's
    output unless one shared matrix meets the tasks' masks."""
    out, [(_, lmask)] = leaky_layers([(w, b)], x, cfg.slope, _WHERE)
    dmask = None
    if training and cfg.keep_prob < 1.0:
        dmask = np.empty((len(rngs),) + out.shape[-2:])
        for r, m in zip(rngs, dmask):
            r.gen.random(out=m)
        dmask = np.divide(dmask < cfg.keep_prob, cfg.keep_prob, out=dmask)
        out = checked(np.multiply(out, dmask, out=out if out.shape == dmask.shape else None),
                      "dropout", _WHERE)
    return out, (x, lmask, dmask)


def _layer_back(g, rec):
    """The gradient at the affine output, then the W and b gradients."""
    x, lmask, dmask = rec
    return leaky_layer_vjp(g if dmask is None else g * dmask, x, lmask)


@quiet_fp
def graph_embed(params: dict, cfg: GeneratorConfig, prop: Propagation,
                pz0, rngs: list, training: bool, reach: list):
    """Hop stack over all nodes, for the tasks whose dropout streams are
    ``rngs``; deterministic when ``training`` is False.  The output is a
    (tasks, nodes, width) stack; the vjp gives the hop parameters'
    gradients.

    ``pz0`` is P·z0, the generator input z0 propagated once by the model,
    which the first hop uses as is: the bits of propagating z0 here.  The
    tasks share hop 0's affine and leaky ReLU and each later propagation.
    Nothing backpropagates into ``pz0``.

    ``reach`` is each task's row sets [i, N(i), N(N(i)), ...] from
    :func:`emit_for_task`: the rows a head reads at each depth, and that its
    gradient reaches.  The output is exact on N(i) only, which is all the
    write-back reads.  Of L hops, hop h >= 1 propagates only the rows that
    the later hops read, ``reach[L - h]`` (their union while the tasks share
    one node matrix: with no dropout, as in eval), and its vjp only
    ``reach[L - h + 1]``, the rows its nonzero gradient reaches; depth L,
    read by the vjp alone, may be appended after the forward.  The affines
    run on every row (a row's bits depend on the row count), and the +0.0
    rows of a propagation meet only gradient rows that are exactly zero, so
    every computed bit is that of the full hops."""
    if pz0.shape[1] != params["gen.embed.0.W"].data.shape[0]:
        raise ConfigError(
            f"semantic width {pz0.shape[1]} does not match the first hop's "
            f"input width {params['gen.embed.0.W'].data.shape[0]}")
    names = layer_names("gen.embed", len(cfg.embed_widths))
    ws = [params[w].data for w, _ in names]
    hops, x, recs = len(names), pz0, []
    for h, (w, b) in enumerate(names):
        if h:
            rows = reach[hops - h]
            if x.ndim == 2:                             # one matrix for every task
                rows = [np.unique(np.concatenate(rows))]
            x = checked(prop.apply(x, rows), "propagation", _WHERE)
        x, rec = _layer(x, ws[h], params[b].data, cfg, rngs, training)
        recs.append(rec)

    def back(g):
        grads = {}
        for h in reversed(range(hops)):
            g, gw, gb = _layer_back(g, recs[h])
            grads[names[h][0]], grads[names[h][1]] = _fold(gw), _fold(gb)
            if h:
                g = prop.apply_vjp(g @ ws[h].T, reach[hops - h + 1])
        return grads

    return np.broadcast_to(x, (len(rngs),) + x.shape[-2:]), back


@quiet_fp
def refine_relations(params: dict, cfg: GeneratorConfig, z_tasks: list,
                     rngs: list, training: bool):
    """Residual pairwise refinement over each task's rows.

    All n^2 ordered pairs (i, j) -- i = j included -- are concatenated and
    pushed through the MLP; row i receives the mean over j of the outputs.
    ``z_tasks`` is a list of row arrays, one per stream of ``rngs``; the
    tasks that share a class count run the MLP, the sorted mean and the
    vjp as one stack, each reduction along one task's own axis.  The vjp
    maps the rows' gradients to (the input rows' gradients, the MLP
    parameters' gradients).
    """
    names = layer_names("gen.rel", len(cfg.relation_widths))
    layers = [(params[w].data, params[b].data) for w, b in names]
    stacks = {}                     # n -> its tasks' positions
    for k, zt in enumerate(z_tasks):
        stacks.setdefault(len(zt), []).append(k)
    pairs = {n: (np.repeat(np.arange(n), n), np.tile(np.arange(n), n)) for n in stacks}
    out, recs = [None] * len(z_tasks), {}
    for n, ks in stacks.items():
        zs, (left, right) = np.stack([z_tasks[k] for k in ks]), pairs[n]
        h, recs[n] = np.concatenate([zs[:, left], zs[:, right]], axis=2), []
        for w, b in layers:
            h, saved = _layer(h, w, b, cfg, [rngs[k] for k in ks], training)
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
                grads, gh = grads + [gw, gb], gh @ w.T
            d, (left, right) = g.shape[2], pairs[n]
            gl, gr = np.zeros_like(g), np.zeros_like(g)
            np.add.at(gl, (slice(None), left), gh[..., :d])
            np.add.at(gr, (slice(None), right), gh[..., d:])
            g = (g + gl) + gr               # residual, left rows, right rows
            for j, k in enumerate(ks):
                g_in[k], per_task[k] = g[j], [x[j] for x in grads]
        return g_in, dict(zip([n for pair in reversed(names) for n in pair],
                              [_fold(gs) for gs in zip(*per_task)]))

    return out, back


@quiet_fp
def emit_classifier(prop: Propagation, z_all, refined: list, class_ids: list,
                    w, b, norm_scale: float, near: list):
    """Write-back, final propagation + affine (``w``, ``b``), row
    normalization scaled to ``norm_scale``; the vjp maps the rows'
    gradient to those of ``z_all``, the refined rows, ``w`` and ``b``.

    ``z_all`` is a stack of node matrices, one per task (in eval, one
    shared matrix broadcast, read as that matrix), beside lists of refined
    rows and of class id arrays.  One write-back propagation sums every
    task's class rows i, each reading its task's refined rows at i and its
    node matrix elsewhere; no node matrix is copied.  The affine runs on
    every row (a row's bits depend on the row count, not on the other
    rows' values) once per group of tasks with disjoint class rows, a task
    joining the group after the last one that holds one of its rows: one
    node-sized matrix, kept across groups, takes each group's propagated
    rows at their ids.  The output holds every task's rows, task after
    task.  Every propagated row is checked before any output row (where
    one task overflows the affine and a later one the propagation, the
    error names the propagation).  The vjp rebuilds the +0.0 P·z stack
    from the kept rows, and its Pᵀ runs on ``near``, each task's N(i).
    """
    x = z_all[0] if z_all.strides[0] == 0 else z_all
    pz_rows = checked(prop.apply(x, class_ids, refined), "propagation", _WHERE)
    uses, group = np.zeros(prop.size, dtype=np.intp), []
    for i in class_ids:
        group.append(uses[i].max(initial=0))
        uses[i] = group[-1] + 1
    sizes, ids = [i.size for i in class_ids], np.concatenate(class_ids)
    group, cuts = np.repeat(group, sizes), np.cumsum(sizes)[:-1]
    nodes, rows = np.zeros((prop.size, w.shape[0])), np.empty((ids.size, w.shape[1]))
    for k in range(group.max(initial=-1) + 1):
        at = np.flatnonzero(group == k)
        nodes[ids[at]] = pz_rows[at]
        rows[at] = (nodes @ w)[ids[at]]
    rows = checked(rows + b, "affine", _WHERE)
    norms = np.sqrt(np.sum(rows * rows, axis=1, keepdims=True))
    denom = np.maximum(norms, 1e-12)         # zero rows stay zero
    out = checked(checked(rows / denom, "l2_normalize_rows", _WHERE) * float(norm_scale),
                  "scale", _WHERE)

    def back(g):
        g = g * float(norm_scale)
        dot = np.sum(rows * g, axis=1, keepdims=True)
        g = np.split(np.where(norms > 1e-12, g / denom - rows * dot / denom ** 3, g / denom),
                     cuts)
        ga = np.zeros((len(class_ids), prop.size, w.shape[1]))
        pz = np.zeros((len(class_ids), prop.size, w.shape[0]))
        for m, gt, p, pr, i in zip(ga, g, pz, np.split(pz_rows, cuts), class_ids):
            m[i] += gt
            p[i] = pr
        g_z = prop.apply_vjp(ga @ w.T, near)
        g_refined = [m[i] for m, i in zip(g_z, class_ids)]
        for m, i in zip(g_z, class_ids):
            m[i] = 0.0
        return g_z, g_refined, _fold(pz.swapaxes(1, 2) @ ga), _fold(ga.sum(axis=1))

    return out, back


def emit_for_task(params: dict, cfg: GeneratorConfig, prop: Propagation,
                  pz0, class_ids: list, rngs: list, training: bool):
    """Full pipeline: embed the nodes, refine each task's rows, emit the heads.

    Given a list of class id arrays and one stream per task, emits every
    task in one pass and returns (one head per task, each with the bits it
    gets alone, grads).  A head is a (weights, bias) pair like every other
    layer: logits = x @ weights.T + bias, weights (n_way, feature_dim) and
    bias (n_way,).  ``grads`` maps a list of (weights, bias) gradients, one
    per head, to the gradient of every generator parameter, by name.  Every
    task's ids are checked first.  ``pz0`` is the propagated generator
    input (see :func:`graph_embed`).  Training and eval take the one path:
    the nodes are embedded once per call, on the rows the call's heads
    read, and one write-back serves every task (see
    :func:`emit_classifier`).
    """
    ids = [task_ids(i, prop.size) for i in class_ids]
    reach = [ids, prop.neighborhoods(ids)]  # i, N(i), N(N(i)), ...: see graph_embed
    for _ in cfg.embed_widths[2:]:
        reach.append(prop.neighborhoods(reach[-1]))
    z, embed_back = graph_embed(params, cfg, prop, pz0, rngs, training, reach)
    refined, refine_back = refine_relations(
        params, cfg, [m[i] for m, i in zip(z, ids)], rngs, training)
    rows, emit_back = emit_classifier(
        prop, z, refined, ids, params["gen.out.W"].data, params["gen.out.b"].data,
        cfg.scale, reach[1])
    fd, ends = rows.shape[1] - 1, np.cumsum([i.size for i in ids])
    spans = [slice(e - i.size, e) for i, e in zip(ids, ends)]

    def grads(head_grads):
        if len(reach) == len(cfg.embed_widths):     # depth L, read by the vjps alone
            reach.append(prop.neighborhoods(reach[-1]))
        # assigned, not added to zeros: the emit vjp's scatter into zeros
        # turns a -0.0 into +0.0 all the same
        g = np.empty(rows.shape)
        for rs, (gw, gb) in zip(spans, head_grads):
            g[rs, :fd] = gw
            g[rs, fd] = gb
        g_z, g_refined, g_w, g_b = emit_back(g)
        g_tasks, rel_grads = refine_back(g_refined)
        g_select = np.zeros(z.shape)        # the row selection's vjp
        for m, gt, i in zip(g_select, g_tasks, ids):
            m[i] += gt
        return {"gen.out.W": g_w, "gen.out.b": g_b, **rel_grads,
                **embed_back(g_z + g_select)}

    return [(rows[rs, :fd].copy(), rows[rs, fd].copy()) for rs in spans], grads
