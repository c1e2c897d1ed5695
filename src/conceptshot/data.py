"""Datasets, episodic sampling, and the synthetic hierarchy generator.

A dataset is a flat table of feature vectors labeled by graph node id:
entity samples carry leaf ids, weakly-labeled samples carry the id of an
internal (concept) node.  Episodes are N-way K-shot tasks with a disjoint
query set, drawn either from leaf classes of one meta split or from the
concept classes of one abstract level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifact import read_binary, write_binary
from .errors import ConfigError, DataError
from .graph import ConceptGraph, NodeRecord
from .tensor import Rng

_DS_MAGIC = b"CSDS"
_DS_FORMAT = "conceptshot-dataset"


class Dataset:
    """Feature table (float32) with per-sample graph node ids."""

    def __init__(self, features, node_ids):
        self.features = np.ascontiguousarray(features, dtype=np.float32)
        self.node_ids = np.ascontiguousarray(node_ids, dtype=np.int32)
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {self.features.shape}")
        if self.node_ids.shape != (self.features.shape[0],):
            raise DataError("node_ids length does not match feature rows")
        if not np.all(np.isfinite(self.features)):
            raise DataError("dataset features contain non-finite values")
        if self.node_ids.size and self.node_ids.min() < 0:
            raise DataError(f"sample references node id {int(self.node_ids.min())}")
        self._by_class = None
        self._counts = None

    @property
    def num_samples(self):
        return self.features.shape[0]

    @property
    def input_dim(self):
        return self.features.shape[1]

    def indices_for(self, class_id):
        if self._by_class is None:
            order = np.argsort(self.node_ids, kind="stable")
            ids, starts = np.unique(self.node_ids[order], return_index=True)
            splits = np.split(order, starts[1:])
            self._by_class = {int(c): np.sort(idx) for c, idx in zip(ids, splits)}
        return self._by_class.get(int(class_id), np.empty(0, dtype=np.intp))

    def class_counts(self):
        """Samples per node id, indexed by id up to the largest id present,
        as a read-only array: one bincount, built on the first call."""
        if self._counts is None:
            self._counts = np.bincount(self.node_ids)
            self._counts.flags.writeable = False
        return self._counts

    def validate_against(self, g: ConceptGraph):
        if self.node_ids.size and self.node_ids.max() >= g.num_nodes:
            bad = int(self.node_ids.max())
            raise DataError(f"sample references node id {bad} absent from the graph")


@dataclass
class Episode:
    class_ids: np.ndarray    # graph node ids, one per way
    level: int
    support_x: np.ndarray    # (n_way * k_shot, d)
    support_y: np.ndarray    # labels in [0, n_way)
    query_x: np.ndarray
    query_y: np.ndarray


def _check_way_shot(n_way, k_shot, n_query):
    if n_way < 1 or k_shot < 1 or n_query < 1:
        raise ConfigError(
            f"episode shape must be positive, got n_way={n_way} k_shot={k_shot} "
            f"n_query={n_query}")


def _eligible(ds, candidates, need):
    """The ids of ``candidates``, an id-ordered array, with at least
    ``need`` samples each, in id order."""
    counts = ds.class_counts()
    cand = candidates[candidates < counts.size]     # larger ids have no samples
    return cand[counts[cand] >= need]


def _sample_episode(ds, candidates, level, n_way, k_shot, n_query, rng, what):
    need = k_shot + n_query
    eligible = _eligible(ds, candidates, need)
    if eligible.size < n_way:
        raise DataError(
            f"need {n_way} classes with >={need} samples {what}, found {eligible.size}")
    ids = rng.choice(eligible, n_way, replace=False)
    sx, sy, qx, qy = [], [], [], []
    for pos, c in enumerate(ids):
        pool = ds.indices_for(c)
        picked = pool[rng.choice(pool.size, need, replace=False)]
        sx.append(ds.features[picked[:k_shot]])
        qx.append(ds.features[picked[k_shot:]])
        sy.append(np.full(k_shot, pos, dtype=np.intp))
        qy.append(np.full(n_query, pos, dtype=np.intp))
    return Episode(class_ids=np.asarray(ids), level=level,
                   support_x=np.concatenate(sx), support_y=np.concatenate(sy),
                   query_x=np.concatenate(qx), query_y=np.concatenate(qy))


def sample_entity_episode(ds: Dataset, g: ConceptGraph, split: str, n_way: int,
                          k_shot: int, n_query: int, rng: Rng) -> Episode:
    """N-way episode over leaf classes of one meta split."""
    _check_way_shot(n_way, k_shot, n_query)
    if split not in ("meta-train", "meta-test"):
        raise ConfigError(f"entity episodes need split meta-train/meta-test, got '{split}'")
    return _sample_episode(ds, g.ids_at(g.entity_level, split), g.entity_level,
                           n_way, k_shot, n_query, rng, f"in split '{split}'")


def sample_concept_episode(ds: Dataset, g: ConceptGraph, level: int, n_way: int,
                           k_shot: int, n_query: int, rng: Rng) -> Episode:
    """N-way episode over the concept classes of one abstract level."""
    _check_way_shot(n_way, k_shot, n_query)
    if not (0 <= level < g.entity_level):
        raise DataError("concept episodes must use non-leaf levels "
                        f"(got level {level}, entities at {g.entity_level})")
    return _sample_episode(ds, g.ids_at(level), level,
                           n_way, k_shot, n_query, rng, f"at level {level}")


def concept_levels_with(ds: Dataset, g: ConceptGraph, k_shot: int, n_query: int,
                        min_ways: int = 2):
    """Abstract levels eligible for concept episodes, with the way count each
    supports (capped at nothing here; callers cap at their n_way)."""
    need = k_shot + n_query
    out = []
    for level in range(g.entity_level):
        n = _eligible(ds, g.ids_at(level), need).size
        if n >= min_ways:
            out.append((level, n))
    return out


# ---------------------------------------------------------------------------
# synthetic hierarchy

@dataclass
class SynthConfig:
    """Balanced-tree generator: level l has branching**l nodes.

    ``sigma_levels`` has ``num_levels`` entries: entry i < num_levels-1 is the
    std of child prototype offsets from level i to i+1; the last entry is the
    observation noise around leaf prototypes.  All zeros collapses every class
    onto the root prototype with noiseless samples.
    """
    branching: int = 2
    num_levels: int = 3
    input_dim: int = 16
    semantic_dim: int = 16
    sigma_levels: list = None
    samples_per_class: int = 50
    semantic_noise: float = 0.02
    train_fraction: float = 0.8
    mix_mode: bool = False
    weak_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.branching < 2 or self.num_levels < 2:
            raise ConfigError("need branching >= 2 and num_levels >= 2")
        if self.sigma_levels is None:
            self.sigma_levels = [1.0 * 0.5 ** i for i in range(self.num_levels - 1)]
            self.sigma_levels.append(self.sigma_levels[-1])
        if len(self.sigma_levels) != self.num_levels:
            raise ConfigError(
                f"sigma_levels needs {self.num_levels} entries, got {len(self.sigma_levels)}")
        if any(s < 0 for s in self.sigma_levels):
            raise ConfigError("sigma_levels must be non-negative")
        if self.samples_per_class < 1 or self.input_dim < 1 or self.semantic_dim < 1:
            raise ConfigError("samples_per_class, input_dim, semantic_dim must be positive")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if not (0.0 <= self.weak_fraction < 1.0):
            raise ConfigError(f"weak_fraction must be in [0,1), got {self.weak_fraction}")
        if self.mix_mode:
            leaves = self.branching ** (self.num_levels - 1)
            if leaves - round(self.weak_fraction * leaves) < 2:
                raise ConfigError(f"weak_fraction={self.weak_fraction} leaves fewer than "
                                  f"two of {leaves} leaves for meta-train and meta-test")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def generate_synthetic(cfg: SynthConfig):
    """Pure function of the config (seed included): (ConceptGraph, Dataset)."""
    rng = Rng(cfg.seed)
    proto_rng, sample_rng = rng.child("prototypes"), rng.child("samples")
    sem_rng, split_rng = rng.child("semantics"), rng.child("splits")

    sizes = [cfg.branching ** l for l in range(cfg.num_levels)]
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    m = int(starts[-1])
    entity_level = cfg.num_levels - 1

    nodes, edges = [], []
    for level in range(cfg.num_levels):
        for k in range(sizes[level]):
            nid = int(starts[level] + k)
            nodes.append(NodeRecord(nid, f"c{level}_{k}", level))
            if level > 0:
                edges.append((int(starts[level - 1] + k // cfg.branching), nid))

    protos = np.zeros((m, cfg.input_dim))
    protos[0] = proto_rng.normal(size=cfg.input_dim)
    for level in range(1, cfg.num_levels):
        off = proto_rng.normal(size=(sizes[level], cfg.input_dim),
                               scale=cfg.sigma_levels[level - 1])
        parents = starts[level - 1] + np.arange(sizes[level]) // cfg.branching
        protos[starts[level]:starts[level + 1]] = protos[parents] + off

    leaves = list(range(int(starts[entity_level]), m))
    order = [leaves[i] for i in split_rng.permutation(len(leaves))]
    n_weak = round(cfg.weak_fraction * len(leaves)) if cfg.mix_mode else 0
    weak_only = set(order[:n_weak])
    rest = order[n_weak:]
    n_train = max(1, min(len(rest) - 1, round(cfg.train_fraction * len(rest))))
    train_set = set(rest[:n_train])
    for nid in leaves:
        nodes[nid].split = ("weak" if nid in weak_only
                            else "meta-train" if nid in train_set else "meta-test")
    for nid in range(int(starts[entity_level])):
        nodes[nid].split = "weak"

    proj = sem_rng.normal(size=(cfg.input_dim, cfg.semantic_dim)) / np.sqrt(cfg.input_dim)
    semantics = protos @ proj
    if cfg.semantic_noise:
        semantics = semantics + cfg.semantic_noise * sem_rng.normal(
            size=(m, cfg.semantic_dim))

    graph = ConceptGraph(nodes, edges, semantics, cfg.num_levels)

    # the node at (level, k) has the span contiguous leaves from
    # starts[entity_level] + k * span; a concept sample is one of them
    noise, n, d = cfg.sigma_levels[-1], cfg.samples_per_class, cfg.input_dim
    feats, kept = [], []
    for level in range(cfg.num_levels):
        span = cfg.branching ** (entity_level - level)
        for k in range(sizes[level]):
            nid = int(starts[level] + k)
            if nid in weak_only:
                continue
            leaf = (nid if level == entity_level
                    else starts[entity_level] + k * span + sample_rng.integers(0, span, n))
            block = protos[leaf] + noise * sample_rng.normal(size=(n, d))
            feats.append(block.astype(np.float32))  # no float64 copy of the whole table
            kept.append(nid)
    ds = Dataset(np.concatenate(feats), np.repeat(np.array(kept, dtype=np.int32), n))
    return graph, ds


# ---------------------------------------------------------------------------
# serialization

def save_dataset(ds: Dataset, path):
    """The ``artifact`` framing: a header of the table sizes, then the
    float32 features and the int32 node ids."""
    n, d = ds.features.shape
    write_binary(path, _DS_MAGIC,
                 {"format": _DS_FORMAT, "version": 2, "rows": n, "dim": d},
                 [ds.features.astype("<f4", copy=False),
                  ds.node_ids.astype("<i4", copy=False)])


def _dataset_layout(header):
    if header.get("format") != _DS_FORMAT or header.get("version") != 2:
        raise DataError(f"unsupported dataset format {header.get('format')!r} "
                        f"version {header.get('version')!r}")
    n, d = header["rows"], header["dim"]
    return [("<f4", (n, d)), ("<i4", (n,))]


def load_dataset(path) -> Dataset:
    _, (feats, ids) = read_binary(path, _DS_MAGIC, "dataset", _dataset_layout)
    return Dataset(feats, ids)


def summarize(ds: Dataset, g: ConceptGraph) -> str:
    """Plain-text report of the samples (deterministic; no timestamps); the
    graph's own structure is :func:`graph.describe`'s."""
    lines = [f"samples: {ds.num_samples}   input dim: {ds.input_dim}"]
    for level in range(g.num_levels):
        ids = g.ids_at(level)
        n = sum(ds.indices_for(i).size for i in ids)
        tag = " (entities)" if level == g.entity_level else ""
        lines.append(f"level {level}{tag}: {ids.size} classes, {n} samples")
    within, between = class_separation(ds, g)
    if within is not None:
        lines.append(f"mean within-class distance: {within:.4f}")
        lines.append(f"mean between-class prototype distance: {between:.4f}")
    return "\n".join(lines)


def class_separation(ds: Dataset, g: ConceptGraph):
    """(mean within-entity-class pairwise distance, mean distance between class means)."""
    means, within = [], []
    for c in g.ids_at(g.entity_level):
        idx = ds.indices_for(c)
        if idx.size < 2:
            continue
        x = ds.features[idx].astype(np.float64)
        means.append(x.mean(axis=0))
        diffs = x[:, None, :] - x[None, :, :]
        d = np.sqrt((diffs ** 2).sum(-1))
        within.append(d[np.triu_indices(x.shape[0], 1)].mean())
    if len(means) < 2:
        return None, None
    mu = np.stack(means)
    diffs = mu[:, None, :] - mu[None, :, :]
    d = np.sqrt((diffs ** 2).sum(-1))
    return float(np.mean(within)), float(d[np.triu_indices(len(means), 1)].mean())
