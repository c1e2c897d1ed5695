"""Shared test oracles: central finite differences, error metrics, graph
relabeling, the padded neighborhood sum that ``tensor.sym_neighbor_mean``
replaces, the per-call class filter that ``data._sample_episode`` replaces,
and the taped inner loop that ``meta.inner_adapt`` replaces."""

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


def padded_neighbor_sum(values, nbr_idx):
    """Neighborhood sums the padded way: every row of ``nbr_idx`` (n as
    padding) gathers max_deg rows of ``values`` with a ``+0.0`` row in the
    padding slots, and the whole (n, max_deg, d) block is sorted along the
    neighbors and summed."""
    padded = np.concatenate([values, np.zeros((1, values.shape[1]))], axis=0)
    return np.sort(padded[nbr_idx], axis=1).sum(axis=1)


def eligible_classes(ds, candidates, need):
    """The episode sampler's class filter the per-call way: sort the
    candidate ids and keep each one with at least ``need`` samples."""
    return np.array([c for c in sorted(candidates) if ds.indices_for(c).size >= need],
                    dtype=np.intp)


def tape_inner_adapt(model, clf, support_x, support_y, steps, lr):
    """The inner loop built on the tape: each step differentiates the support
    loss with ``grad`` and adds the detached step ``-lr * g`` as a constant,
    so every adapted tensor is a chain of ``add`` nodes over its start."""
    from conceptshot.classifier_gen import TaskClassifier
    from conceptshot.encoder import apply_layers, embed_low, high_pairs
    from conceptshot.meta import AdaptedState
    from conceptshot.tensor import Tensor, add, affine, cross_entropy, grad, transpose

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
