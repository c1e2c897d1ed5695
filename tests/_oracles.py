"""Shared test oracles: central finite differences, error metrics, graph
relabeling, the generator input a model forms, the dense propagation
matrix, the padded neighborhood sum that ``tensor.neighbor_sums`` replaces,
the per-call class filter and the ``np.arange`` draw that
``data._sample_episode`` replaces, the taped inner loop that
``meta.inner_adapt`` replaces, the taped query path that
``meta.episode_loss`` replaces, the query loss of one episode adapted
alone, the taped classifier generator (and its row selection) that
``classifier_gen`` replaces, and the one-episode-at-a-time
training step that ``meta.train_step`` replaces.  The taped chains are
built from the reference ops of ``_tape``."""

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


def generator_input(prop, sem):
    """The generator input ``meta.Model`` forms from node semantics ``sem``:
    z0 and its propagation P·z0."""
    from conceptshot.classifier_gen import SharedEmbedding
    from conceptshot.tensor import Tensor
    z = Tensor(sem)
    return SharedEmbedding(z, Tensor(prop.apply(z.data)))


def dense_propagation(prop):
    """The propagation operator P of ``prop`` as a dense matrix."""
    p = np.zeros((prop.size, prop.size))
    for i in range(prop.size):
        for j in prop.nbr_idx[i]:
            if j < prop.size:
                p[i, j] = 1.0 / prop.degrees[i]
    return p


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


def eligible_classes(ds, candidates, need):
    """The episode sampler's class filter the per-call way: sort the
    candidate ids and keep each one with at least ``need`` samples."""
    return np.array([c for c in sorted(candidates) if ds.indices_for(c).size >= need],
                    dtype=np.intp)


def arange_sample_episode(ds, candidates, level, n_way, k_shot, n_query, rng, what):
    """The episode sampler drawing each class's samples from an explicit
    ``np.arange`` of its pool positions."""
    from conceptshot.data import Episode, _eligible
    from conceptshot.errors import DataError

    need = k_shot + n_query
    eligible = _eligible(ds, candidates, need)
    if eligible.size < n_way:
        raise DataError(
            f"need {n_way} classes with >={need} samples {what}, found {eligible.size}")
    ids = rng.choice(eligible, n_way, replace=False)
    sx, sy, qx, qy = [], [], [], []
    for pos, c in enumerate(ids):
        pool = ds.indices_for(c)
        picked = pool[rng.choice(np.arange(pool.size), need, replace=False)]
        sx.append(ds.features[picked[:k_shot]])
        qx.append(ds.features[picked[k_shot:]])
        sy.append(np.full(k_shot, pos, dtype=np.intp))
        qy.append(np.full(n_query, pos, dtype=np.intp))
    return Episode(class_ids=np.asarray(ids), level=level,
                   support_x=np.concatenate(sx), support_y=np.concatenate(sy),
                   query_x=np.concatenate(qx), query_y=np.concatenate(qy))


def tape_inner_adapt(model, clf, support_x, support_y, steps, lr):
    """The inner loop built on the tape: each step differentiates the support
    loss with ``grad`` and adds the detached step ``-lr * g`` as a constant,
    so every adapted tensor is a chain of ``add`` nodes over its start."""
    from _tape import add, affine, apply_layers, cross_entropy, embed_low, grad, transpose
    from conceptshot.classifier_gen import TaskClassifier
    from conceptshot.encoder import high_pairs
    from conceptshot.meta import AdaptedState
    from conceptshot.tensor import Tensor

    high = list(high_pairs(model.params, model.enc_cfg))
    w, b = clf.weights, clf.bias
    if steps and lr:
        low = embed_low(model.params, model.enc_cfg, Tensor(support_x))
        for _ in range(steps):
            feats = apply_layers(high, low, model.enc_cfg.slope)
            loss = cross_entropy(affine(feats, transpose(w), b), support_y)
            leaves = [t for pair in high for t in pair] + [w, b]
            stepped = [add(t, Tensor(-lr * g))
                       for t, g in zip(leaves, grad(loss, leaves))]
            high = [tuple(stepped[2 * i:2 * i + 2]) for i in range(len(high))]
            w, b = stepped[-2], stepped[-1]
    return AdaptedState(high=high, classifier=TaskClassifier(w, b, clf.class_ids))


def lone_episode_loss(model, ep, adapt_steps, inner_lr, rng, training):
    """``meta.episode_loss`` of one episode emitted and adapted alone, by
    ``adapt_steps`` steps of ``inner_lr`` from stream ``rng``."""
    from conceptshot.meta import adapt_episodes, episode_loss
    (state,) = adapt_episodes(model, [ep], [rng], training, adapt_steps, inner_lr)
    return episode_loss(model, ep, state)


def head_logits(clf, feats):
    """The head's logits on the tape: feats @ W.T + b."""
    from _tape import affine, transpose
    return affine(feats, transpose(clf.weights), clf.bias)


def task_features(model, adapted, x):
    """The low encoder, then the adapted high layers, on the tape."""
    from _tape import apply_layers, embed_low
    return apply_layers(adapted.high, embed_low(model.params, model.enc_cfg, x),
                        model.enc_cfg.slope)


def predict(model, adapted, x):
    """Per-row class probabilities for a query batch (rows sum to 1)."""
    from _tape import softmax_rows
    from conceptshot.tensor import Tensor
    feats = task_features(model, adapted, Tensor(np.asarray(x, dtype=np.float64)))
    return softmax_rows(head_logits(adapted.classifier, feats))


def tape_query_loss(model, adapted, ep):
    """An adapted episode's query loss built op by op on the tape, and its
    query accuracy."""
    from _tape import cross_entropy
    from conceptshot.tensor import Tensor
    logits = head_logits(adapted.classifier,
                         task_features(model, adapted, Tensor(ep.query_x)))
    return (cross_entropy(logits, ep.query_y),
            float((logits.data.argmax(axis=1) == ep.query_y).mean()))


def tape_graph_embed(params, cfg, prop, z0, rng, training):
    """The generator's hop stack built op by op on the tape."""
    from _tape import affine, dropout, leaky_relu, sym_neighbor_mean
    from conceptshot.tensor import Tensor
    z, p = (z0, None) if isinstance(z0, Tensor) else z0
    for h in range(len(cfg.embed_widths)):
        if h or p is None:
            p = sym_neighbor_mean(z, prop.groups, prop.degrees)
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
    split, op by op."""
    from conceptshot.classifier_gen import TaskClassifier
    from _tape import (affine, gather_rows, l2_normalize_rows, reshape, scale, slice_cols,
                       sym_neighbor_mean, write_rows)
    ids = np.asarray(class_ids, dtype=np.intp)
    feature_dim = w_out.data.shape[1] - 1
    z = write_rows(z_all, refined, ids)
    rows = gather_rows(affine(sym_neighbor_mean(z, prop.groups, prop.degrees), w_out, b_out),
                       ids)
    rows = scale(l2_normalize_rows(rows), norm_scale)
    weights = slice_cols(rows, 0, feature_dim)
    bias = reshape(slice_cols(rows, feature_dim, feature_dim + 1), (ids.size,))
    return TaskClassifier(weights=weights, bias=bias, class_ids=ids)


def select_task_rows(x, class_ids):
    """An episode's rows of ``x`` on the tape, its class ids checked first."""
    from _tape import gather_rows
    from conceptshot.graph import task_ids
    return gather_rows(x, task_ids(class_ids, x.data.shape[0]))


def tape_emit_for_task(params, cfg, prop, z0, class_ids, rng, training):
    """One task's classifier emitted by the taped stages above; ``z0`` is a
    raw node matrix or a generator input with its P·z0."""
    z = tape_graph_embed(params, cfg, prop, z0, rng, training)
    refined = tape_refine_relations(params, cfg, select_task_rows(z, class_ids), rng,
                                    training)
    return tape_emit_classifier(prop, z, refined, class_ids, params["gen.out.W"],
                                params["gen.out.b"], cfg.scale)


def serial_train_step(model, opt, ds, cfg, levels, iteration):
    """The training step one episode at a time: each episode is sampled,
    emitted by ``tape_emit_for_task``, adapted alone and scored by
    ``tape_query_loss``, term after term; same random streams, record, loss
    combination and update."""
    from _tape import add, scale
    from conceptshot.data import sample_concept_episode, sample_entity_episode
    from conceptshot.errors import ConfigError
    from conceptshot.meta import inner_adapt
    from conceptshot.tensor import Rng, backward

    it_rng = Rng(cfg.seed).child("train", iteration)
    rec = {"iteration": iteration, "lr": cfg.lr_at(iteration)}

    def run_term(name, n_way, sample):
        losses, accs = [], []
        for b in range(cfg.episodes_per_term):
            ep = sample(n_way, it_rng.child("sample", name, b))
            clf = tape_emit_for_task(model.params, model.gen_cfg, model.prop,
                                     model.generator_input, ep.class_ids,
                                     it_rng.child("drop", name, b), True)
            (state,) = inner_adapt(model, [clf], [ep.support_x], [ep.support_y],
                                   cfg.adapt_steps, cfg.inner_lr)
            loss, acc = tape_query_loss(model, state, ep)
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
    opt.zero_grad()
    backward(total)
    opt.step(rec["lr"])
    return rec
