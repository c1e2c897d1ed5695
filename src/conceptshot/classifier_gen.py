"""Task classifier generation from the concept graph.

Three stages, all differentiable end to end:

1. ``graph_embed``   -- propagation hops over all nodes:
                        Z <- dropout(leaky_relu(P Z W + b)) per hop,
2. ``refine_relations`` -- every ordered pair of the task's rows (including
                        i = i) goes through a small MLP; each row gets the
                        mean of its pair outputs added back (residual),
3. ``emit_classifier`` -- one more propagation + affine, rows L2-normalized
                        and scaled to norm ``scale``; the task's rows are
                        split into per-class weights (first ``feature_dim``
                        columns) and bias (last column).  Tasks that share a
                        frozen embedding re-propagate only the rows their
                        refined classes touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .graph import Propagation, select_task_rows
from .tensor import (Rng, Tensor, affine, dropout, gather_rows, glorot_uniform,
                     grouped_mean, l2_normalize_rows, leaky_relu, concat_cols,
                     reshape, scale as t_scale, slice_cols, add, write_rows)


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


def graph_embed(params: dict, cfg: GeneratorConfig, prop: Propagation,
                z0: Tensor | SharedEmbedding, rng: Rng, training: bool) -> Tensor:
    """Hop stack over all nodes; deterministic when ``training`` is False.

    ``z0`` is a Tensor, or a :class:`SharedEmbedding` whose P·z0 (computed
    once by the model) the first hop uses as is: the same bits."""
    z, p = (z0, None) if isinstance(z0, Tensor) else z0
    if z.data.shape[1] != params["gen.embed.0.W"].data.shape[0]:
        raise ConfigError(
            f"semantic width {z.data.shape[1]} does not match the first hop's "
            f"input width {params['gen.embed.0.W'].data.shape[0]}")
    for h in range(len(cfg.embed_widths)):
        if h or p is None:
            p = prop.apply(z)
        z = leaky_relu(affine(p, params[f"gen.embed.{h}.W"],
                              params[f"gen.embed.{h}.b"]), cfg.slope)
        z = dropout(z, cfg.keep_prob, rng, training)
    return z


def refine_relations(params: dict, cfg: GeneratorConfig, z_task: Tensor,
                     rng: Rng, training: bool) -> Tensor:
    """Residual pairwise refinement over the task's rows.

    All n^2 ordered pairs (i, j) -- i = j included -- are concatenated and
    pushed through the MLP; row i receives the mean over j of the outputs.
    """
    n = z_task.data.shape[0]
    left = gather_rows(z_task, np.repeat(np.arange(n), n))
    right = gather_rows(z_task, np.tile(np.arange(n), n))
    h = concat_cols(left, right)
    for i in range(len(cfg.relation_widths)):
        h = leaky_relu(affine(h, params[f"gen.rel.{i}.W"], params[f"gen.rel.{i}.b"]),
                       cfg.slope)
        h = dropout(h, cfg.keep_prob, rng, training)
    return add(z_task, grouped_mean(h, n))


def emit_classifier(prop: Propagation, z_all: Tensor, refined: Tensor, class_ids,
                    w_out: Tensor, b_out: Tensor, norm_scale: float,
                    placement: str = "write_back", propagated=None) -> TaskClassifier:
    """Final propagation + affine + row normalization, scaled to ``norm_scale``.

    ``write_back`` places the refined task rows back into the full node matrix
    before the final propagation; ``task_only`` applies the output layer to the
    refined rows directly, skipping propagation for non-task rows.

    ``propagated``, when given, is P·``z_all`` as a plain array, shared by
    tasks that never backpropagate: the write-back then re-propagates only
    the rows whose neighborhood meets the task's rows (``Propagation.reapply``,
    at most a few rows per task) instead of the whole graph.  The affine
    still runs on every row, because a product's row bits depend on its row
    count; so the emitted rows are the bits of the full propagation.
    """
    ids = np.asarray(class_ids, dtype=np.intp)
    feature_dim = w_out.data.shape[1] - 1
    if placement == "write_back":
        z = write_rows(z_all, refined, ids)
        if propagated is None:
            p = prop.apply(z)
        elif z.requires_grad:
            raise ValueError("a shared propagation carries no gradient")
        else:
            p = Tensor(prop.reapply(propagated, z.data, ids))
        rows = gather_rows(affine(p, w_out, b_out), ids)
    elif placement == "task_only":
        rows = affine(refined, w_out, b_out)
    else:
        raise ConfigError(f"unknown refine placement '{placement}'")
    rows = t_scale(l2_normalize_rows(rows), norm_scale)
    weights = slice_cols(rows, 0, feature_dim)
    bias = reshape(slice_cols(rows, feature_dim, feature_dim + 1), (ids.size,))
    return TaskClassifier(weights=weights, bias=bias, class_ids=ids)


class SharedEmbedding(NamedTuple):
    """A node matrix many calls share and its propagation P·z, computed once:
    the generator's input, or a ``graph_embed`` output out of training."""
    z: Tensor
    propagated: Tensor


def emit_for_task(params: dict, cfg: GeneratorConfig, prop: Propagation,
                  z0: Tensor | SharedEmbedding, class_ids, rng: Rng, training: bool,
                  placement: str = "write_back",
                  embedding: SharedEmbedding | None = None) -> TaskClassifier:
    """Full pipeline: embed all nodes, refine the task's rows, emit the head.

    ``embedding``, when given, is used instead of embedding the nodes again,
    and its propagation lets the emit re-propagate only the task's touched
    rows (see :func:`emit_classifier`); out of training both are the same
    for every task.
    """
    if embedding is None:
        z, propagated = graph_embed(params, cfg, prop, z0, rng, training), None
    else:
        z, propagated = embedding.z, embedding.propagated.data
    z_task = select_task_rows(z, class_ids)      # validates ids
    refined = refine_relations(params, cfg, z_task, rng, training)
    return emit_classifier(prop, z, refined, class_ids,
                           params["gen.out.W"], params["gen.out.b"],
                           cfg.scale, placement, propagated)
