"""Shared test oracles: central finite differences, error metrics, graph
relabeling and equality, the ``json.dumps`` graph text that
``graph.save_graph`` replaces, the generator input a model forms, every-row sets
for the row-restricted propagation, the dense propagation matrix, the degree
groups of a neighbor table and the padded neighborhood sum that
``tensor.neighbor_sums`` replaces, the pair-gradient scatters that
``classifier_gen.pair_grads`` replaces, the per-call class filter and the
per-class gathers and ``np.arange`` draw that ``data._sample_episode``
replaces, the taped inner
loop that ``meta.inner_adapt`` replaces, the taped query path that
``meta.episode_loss`` replaces, the query loss of one episode adapted
alone and the program's gradient of it, the taped classifier generator (and
its row selection) that ``classifier_gen`` replaces, and the
one-episode-at-a-time training step that ``meta.train_step`` replaces.  The
taped chains are built from the reference ops of ``_tape``."""

import json

import numpy as np


def numerical_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at ndarray x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(x)
        flat[i] = keep - h
        down = f(x)
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return g


def rel_err(analytic, numeric):
    """Max elementwise |a - n| / max(1, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def permute_graph(g, perm):
    """Relabel node ids by perm (old id -> new id), keeping everything consistent."""
    from conceptshot.graph import ConceptGraph, NodeRecord
    nodes = [NodeRecord(int(perm[n.id]), n.name, n.level, n.split) for n in g.nodes]
    edges = [(int(perm[i]), int(perm[j])) for i, j in g.edges]
    sem = np.empty_like(g.semantics)
    sem[perm] = g.semantics
    return ConceptGraph(nodes, edges, sem, g.num_levels)


def graphs_equal(a, b):
    """Whether two concept graphs have the same levels, nodes, edges and
    semantics, bit for bit: a zero's sign counts."""
    return (a.num_levels == b.num_levels and a.nodes == b.nodes and a.edges == b.edges
            and a.semantics.shape == b.semantics.shape
            and a.semantics.tobytes() == b.semantics.tobytes())


def indented_graph_json(g) -> str:
    """The graph document as ``json.dumps(doc, indent=1)`` and a newline
    write it: the text ``graph.save_graph`` renders itself."""
    doc = {
        "format": "conceptshot-graph",
        "version": 1,
        "num_levels": g.num_levels,
        "nodes": [{"id": n.id, "name": n.name, "level": n.level, "split": n.split}
                  for n in g.nodes],
        "edges": [[i, j] for i, j in g.edges],
        "semantics": {"dim": int(g.semantics.shape[1]), "values": g.semantics.tolist()},
    }
    return json.dumps(doc, indent=1) + "\n"


def every_row(prop, count=1):
    """Row sets asking ``prop.apply``/``apply_vjp`` for every row of each of
    ``count`` node matrices."""
    return [np.arange(prop.size)] * count


def generator_input(prop, sem):
    """The generator input ``meta.Model`` forms from node semantics ``sem``:
    their propagation P·z0."""
    return prop.apply(np.asarray(sem, dtype=np.float64), every_row(prop))


def dense_propagation(prop):
    """The propagation operator P of ``prop`` as a dense matrix."""
    p = np.zeros((prop.size, prop.size))
    for i in range(prop.size):
        for j in prop.nbr_idx[i]:
            if j < prop.size:
                p[i, j] = 1.0 / prop.degrees[i]
    return p


def neighbor_groups(nbr_idx, pad: int) -> list:
    """The rows of a padded neighbor table grouped by their number of
    entries k: a list of ``(rows, idx)`` with ``idx`` the (r, k) entries of
    those rows, ``pad`` left out.  Row positions are those of ``nbr_idx``."""
    nbr_idx = np.asarray(nbr_idx, dtype=np.intp)
    counts = (nbr_idx != pad).sum(axis=1)
    groups = []
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        groups.append((rows, nbr_idx[rows, :k]))
    return groups


def padded_neighbor_sum(values, nbr_idx):
    """Neighborhood sums the padded way: every row of ``nbr_idx`` (n as
    padding) gathers max_deg rows of ``values`` with a ``+0.0`` row in the
    padding slots, the whole (n, max_deg, d) block is sorted along the
    neighbors, and its slices are added left to right from ``+0.0``."""
    padded = np.concatenate([values, np.zeros((1, values.shape[1]))], axis=0)
    block = np.sort(padded[nbr_idx], axis=1)
    out = np.zeros((len(nbr_idx), values.shape[1]))
    for j in range(block.shape[1]):
        out = out + block[:, j]
    return out


def scattered_pair_grads(gh, n):
    """The pair gradients of a (tasks, n·n, 2d) stack gathered back to each
    task's n rows by two ``np.add.at`` scatters over the pairs' left and
    right rows, the way ``classifier_gen.pair_grads`` replaces."""
    d = gh.shape[-1] // 2
    gl, gr = np.zeros((gh.shape[0], n, d)), np.zeros((gh.shape[0], n, d))
    np.add.at(gl, (slice(None), np.repeat(np.arange(n), n)), gh[..., :d])
    np.add.at(gr, (slice(None), np.tile(np.arange(n), n)), gh[..., d:])
    return gl, gr


def eligible_classes(ds, candidates, need):
    """The episode sampler's class filter the per-call way: sort the
    candidate ids and keep each one with at least ``need`` samples."""
    return np.array([c for c in sorted(candidates) if ds.indices_for(c).size >= need],
                    dtype=np.intp)


def per_class_sample_episode(ds, candidates, n_way, k_shot, n_query, rng, what,
                             arange=False):
    """The episode sampler one class at a time: each class's features and
    labels indexed and filled on their own, then concatenated; with
    ``arange``, each class's samples are drawn from an explicit
    ``np.arange`` of its pool positions."""
    from conceptshot.data import Episode, _eligible
    from conceptshot.errors import DataError

    need = k_shot + n_query
    eligible = _eligible(ds, candidates, need)
    if eligible.size < n_way:
        raise DataError(
            f"need {n_way} classes with >={need} samples {what}, found {eligible.size}")
    ids = rng.gen.choice(eligible, size=n_way, replace=False)
    sx, sy, qx, qy = [], [], [], []
    for pos, c in enumerate(ids):
        pool = ds.indices_for(c)
        draw = np.arange(pool.size) if arange else pool.size
        picked = pool[rng.gen.choice(draw, size=need, replace=False)]
        sx.append(ds.features[picked[:k_shot]])
        qx.append(ds.features[picked[k_shot:]])
        sy.append(np.full(k_shot, pos, dtype=np.intp))
        qy.append(np.full(n_query, pos, dtype=np.intp))
    return Episode(class_ids=np.asarray(ids),
                   support_x=np.concatenate(sx), support_y=np.concatenate(sy),
                   query_x=np.concatenate(qx), query_y=np.concatenate(qy))


def tape_inner_adapt(model, head, support_x, support_y, steps, lr):
    """The inner loop built on the tape from ``head``, a (weights, bias) pair
    of tape nodes or leaves: each step differentiates the support loss with
    ``grad`` and adds the detached step ``-lr * g`` as a constant, so every
    adapted node is a chain of ``add`` nodes over its start.  Returns the
    task's flat list: the high layers' W and b, then the head's."""
    from _tape import add, cross_entropy, embed_low, grad, high_pairs
    from conceptshot.tensor import Tensor

    task = [t for pair in high_pairs(model.params, model.enc_cfg) for t in pair]
    task += list(head)
    if steps and lr:
        low = embed_low(model.params, model.enc_cfg, Tensor(support_x))
        for _ in range(steps):
            loss = cross_entropy(head_logits(task, task_features(model, task, low)),
                                 support_y)
            task = [add(t, Tensor(-lr * g)) for t, g in zip(task, grad(loss, task))]
    return task


def _lone_episode(model, ep, adapt_steps, inner_lr, rng, training):
    from conceptshot.meta import adapt_episodes, episode_loss
    heads, emit_grads = model.emit([ep.class_ids], [rng], training)
    (task,) = adapt_episodes(model, [ep], heads, adapt_steps, inner_lr)
    return episode_loss(model, ep, task), emit_grads


def lone_episode_loss(model, ep, adapt_steps, inner_lr, rng, training):
    """(loss, accuracy): ``meta.episode_loss`` of one episode emitted and
    adapted alone, by ``adapt_steps`` steps of ``inner_lr`` from stream
    ``rng``."""
    (loss, acc, _), _ = _lone_episode(model, ep, adapt_steps, inner_lr, rng, training)
    return loss, acc


def lone_episode_grads(model, ep, adapt_steps, inner_lr, rng, training):
    """Every parameter's gradient, by name, of ``lone_episode_loss``: the
    program's own chain of vjps (``meta._gradients``)."""
    from conceptshot.meta import _gradients
    (_, _, vjp), emit_grads = _lone_episode(model, ep, adapt_steps, inner_lr, rng,
                                            training)
    return _gradients(model, [vjp], [1.0], emit_grads)


def as_leaves(task):
    """A task's flat array list with each array a tape leaf."""
    from conceptshot.tensor import Tensor
    return [Tensor(a) for a in task]


def head_logits(task, feats):
    """The head's logits on the tape: feats @ W.T + b, the head being the
    last (W, b) pair of the flat list ``task``."""
    from _tape import affine, transpose
    return affine(feats, transpose(task[-2]), task[-1])


def task_features(model, task, low):
    """The adapted high layers of the flat list ``task`` on the tape, after
    ``low``, the low encoder's output."""
    from _tape import apply_layers
    return apply_layers(zip(task[:-2:2], task[1:-2:2]), low, model.enc_cfg.slope)


def predict(model, task, x):
    """Per-row class probabilities for a query batch (rows sum to 1), under
    a task's flat array list."""
    from _tape import embed_low, softmax_rows
    from conceptshot.tensor import Tensor
    task = as_leaves(task)
    low = embed_low(model.params, model.enc_cfg, Tensor(np.asarray(x, dtype=np.float64)))
    return softmax_rows(head_logits(task, task_features(model, task, low)))


def tape_query_loss(model, task, ep):
    """An adapted episode's query loss built op by op on the tape, and its
    query accuracy; ``task`` is its flat list of tape nodes or leaves."""
    from _tape import cross_entropy, embed_low
    from conceptshot.tensor import Tensor
    low = embed_low(model.params, model.enc_cfg, Tensor(ep.query_x))
    logits = head_logits(task, task_features(model, task, low))
    return (cross_entropy(logits, ep.query_y),
            float((logits.data.argmax(axis=1) == ep.query_y).mean()))


def tape_graph_embed(params, cfg, prop, z0, rng, training):
    """The generator's hop stack built op by op on the tape from ``z0``, the
    raw node matrix."""
    from _tape import affine, dropout, leaky_relu, sym_neighbor_mean
    from conceptshot.tensor import Tensor
    z, groups = Tensor(z0), neighbor_groups(prop.nbr_idx, prop.size)
    for h in range(len(cfg.embed_widths)):
        p = sym_neighbor_mean(z, groups, prop.degrees)
        z = leaky_relu(affine(p, params[f"gen.embed.{h}.W"],
                              params[f"gen.embed.{h}.b"]), cfg.slope)
        z = dropout(z, cfg.keep_prob, rng, training)
    return z


def tape_refine_relations(params, cfg, z_task, rng, training):
    """The residual pairwise refinement built op by op on the tape."""
    from _tape import (add, affine, concat_cols, dropout, gather_rows, grouped_mean,
                       leaky_relu)
    n = z_task.data.shape[0]
    left = gather_rows(z_task, np.repeat(np.arange(n), n))
    right = gather_rows(z_task, np.tile(np.arange(n), n))
    h = concat_cols(left, right)
    for i in range(len(cfg.relation_widths)):
        h = leaky_relu(affine(h, params[f"gen.rel.{i}.W"], params[f"gen.rel.{i}.b"]),
                       cfg.slope)
        h = dropout(h, cfg.keep_prob, rng, training)
    return add(z_task, grouped_mean(h, n))


def tape_emit_classifier(prop, z_all, refined, class_ids, w_out, b_out, norm_scale):
    """The write-back, final propagation, affine, row normalization and
    split into the (weights, bias) head, op by op."""
    from _tape import (affine, gather_rows, l2_normalize_rows, reshape, scale, slice_cols,
                       sym_neighbor_mean, write_rows)
    ids = np.asarray(class_ids, dtype=np.intp)
    feature_dim = w_out.data.shape[1] - 1
    z = write_rows(z_all, refined, ids)
    p = sym_neighbor_mean(z, neighbor_groups(prop.nbr_idx, prop.size), prop.degrees)
    rows = gather_rows(affine(p, w_out, b_out), ids)
    rows = scale(l2_normalize_rows(rows), norm_scale)
    weights = slice_cols(rows, 0, feature_dim)
    bias = reshape(slice_cols(rows, feature_dim, feature_dim + 1), (ids.size,))
    return weights, bias


def select_task_rows(x, class_ids):
    """An episode's rows of ``x`` on the tape, its class ids checked first."""
    from _tape import gather_rows
    from conceptshot.graph import task_ids
    return gather_rows(x, task_ids(class_ids, x.data.shape[0]))


def tape_emit_for_task(params, cfg, prop, z0, class_ids, rng, training):
    """One task's (weights, bias) head emitted by the taped stages above
    from ``z0``, the raw node matrix."""
    z = tape_graph_embed(params, cfg, prop, z0, rng, training)
    refined = tape_refine_relations(params, cfg, select_task_rows(z, class_ids), rng,
                                    training)
    return tape_emit_classifier(prop, z, refined, class_ids, params["gen.out.W"],
                                params["gen.out.b"], cfg.scale)


def serial_train_step(model, opt, ds, cfg, levels, iteration):
    """The training step one episode at a time: each episode is sampled,
    emitted by ``tape_emit_for_task``, adapted alone by ``tape_inner_adapt``
    and scored by ``tape_query_loss``, term after term, and the gradients
    are read off the tape; same random streams, record, loss combination
    and update."""
    from _tape import add, grad, scale
    from conceptshot.data import sample_concept_episode, sample_entity_episode
    from conceptshot.errors import ConfigError
    from conceptshot.tensor import Rng

    it_rng = Rng(cfg.seed).child("train", iteration)
    z0 = (np.eye(model.graph.num_nodes) if model.gen_cfg.semantics == "one-hot"
          else model.graph.semantics)
    rec = {"iteration": iteration, "lr": cfg.lr_at(iteration)}

    def run_term(name, n_way, sample):
        losses, accs = [], []
        for b in range(cfg.episodes_per_term):
            ep = sample(n_way, it_rng.child("sample", name, b))
            head = tape_emit_for_task(model.params, model.gen_cfg, model.prop, z0,
                                      ep.class_ids, it_rng.child("drop", name, b), True)
            task = tape_inner_adapt(model, head, ep.support_x, ep.support_y,
                                    cfg.adapt_steps, cfg.inner_lr)
            loss, acc = tape_query_loss(model, task, ep)
            losses.append(loss)
            accs.append(acc)
        total = losses[0]
        for t in losses[1:]:
            total = add(total, t)
        if len(losses) > 1:
            total = scale(total, 1.0 / len(losses))
        return total, float(np.mean(accs))

    parts = []
    rec["entity_loss"] = rec["entity_acc"] = float("nan")
    if cfg.entity_weight > 0:
        term, acc = run_term("entity", cfg.n_way,
                             lambda n, r: sample_entity_episode(
                                 ds, model.graph, "meta-train", n,
                                 cfg.k_shot, cfg.n_query, r))
        rec["entity_loss"], rec["entity_acc"] = term.item(), acc
        parts.append((cfg.entity_weight, term))
    if cfg.concept_weight > 0 and not levels:
        raise ConfigError("no abstract level")
    for level, n_way in levels:
        w = cfg.weight_for(level)
        rec[f"concept{level}_loss"] = rec[f"concept{level}_acc"] = float("nan")
        if w <= 0:
            continue
        term, acc = run_term(f"concept{level}", n_way,
                             lambda n, r, lv=level: sample_concept_episode(
                                 ds, model.graph, lv, n, cfg.k_shot, cfg.n_query, r))
        rec[f"concept{level}_loss"], rec[f"concept{level}_acc"] = term.item(), acc
        parts.append((w, term))
    if not parts:
        raise ConfigError("nothing to train")
    total = None
    for w, term in parts:
        piece = scale(term, w)
        total = piece if total is None else add(total, piece)
    rec["total_loss"] = total.item()
    opt.step(rec["lr"], dict(zip(model.params, grad(total, list(model.params.values())))))
    return rec
