"""Datasets, episodic sampling, and the synthetic hierarchy generator.

A dataset is a flat table of feature vectors labeled by graph node id:
entity samples hold leaf ids, weakly-labeled samples hold the id of an
internal (concept) node.  Episodes are N-way K-shot tasks with a disjoint
query set, drawn either from leaf classes of one meta split or from the
concept classes of one abstract level; ``eligible_concept_levels`` lists the
abstract levels with enough classes for a training config's concept
episodes.

``SynthConfig`` checks its sizes before deriving anything from them: the
tree's node count must fit the dataset's int32 node ids, and every array
``generate_synthetic`` allocates (prototypes, semantics, the projection,
the feature table) must have a byte size numpy can index (``np.intp``).
The node count is summed level by level in exact integers and stops once it
passes the bound, so no size is ever computed from a huge level count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifact import read_binary, write_binary
from .errors import ConfigError, DataError, require_at_least, require_types
from .graph import ConceptGraph, NodeRecord
from .tensor import Rng, quiet_fp

_DS_MAGIC = b"CSDS"
_MAX_NODES = int(np.iinfo(np.int32).max)
_MAX_BYTES = int(np.iinfo(np.intp).max)
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
    support_x: np.ndarray    # (n_way * k_shot, d)
    support_y: np.ndarray    # labels in [0, n_way)
    query_x: np.ndarray
    query_y: np.ndarray


def _eligible(ds, candidates, need):
    """The ids of ``candidates``, an id-ordered array, with at least
    ``need`` samples each, in id order."""
    counts = ds.class_counts()
    cand = candidates[candidates < counts.size]     # larger ids have no samples
    return cand[counts[cand] >= need]


def _sample_episode(ds, candidates, n_way, k_shot, n_query, rng, what):
    need = k_shot + n_query
    eligible = _eligible(ds, candidates, need)
    if eligible.size < n_way:
        raise DataError(
            f"need {n_way} classes with >={need} samples {what}, found {eligible.size}")
    ids = rng.gen.choice(eligible, size=n_way, replace=False)
    picked = np.stack([pool[rng.gen.choice(pool.size, size=need, replace=False)]
                       for pool in map(ds.indices_for, ids)])   # (n_way, need)
    way = np.arange(n_way, dtype=np.intp)
    return Episode(class_ids=np.asarray(ids),
                   support_x=ds.features[picked[:, :k_shot].ravel()],
                   support_y=np.repeat(way, k_shot),
                   query_x=ds.features[picked[:, k_shot:].ravel()],
                   query_y=np.repeat(way, n_query))


def sample_entity_episode(ds: Dataset, g: ConceptGraph, split: str, n_way: int,
                          k_shot: int, n_query: int, rng: Rng) -> Episode:
    """N-way episode over leaf classes of one meta split (shape checked by the config)."""
    if split not in ("meta-train", "meta-test"):
        raise ConfigError(f"entity episodes need split meta-train/meta-test, got '{split}'")
    return _sample_episode(ds, g.ids_at(g.entity_level, split), n_way, k_shot,
                           n_query, rng, f"in split '{split}'")


def sample_concept_episode(ds: Dataset, g: ConceptGraph, level: int, n_way: int,
                           k_shot: int, n_query: int, rng: Rng) -> Episode:
    """N-way episode over the concept classes of one abstract level (shape as above)."""
    if not (0 <= level < g.entity_level):
        raise DataError("concept episodes must use non-leaf levels "
                        f"(got level {level}, entities at {g.entity_level})")
    return _sample_episode(ds, g.ids_at(level), n_way, k_shot, n_query, rng,
                           f"at level {level}")


def eligible_concept_levels(ds: Dataset, g: ConceptGraph, cfg):
    """(level, way count) pairs for every abstract level that can fill a
    concept episode of ``cfg``'s shape (a ``meta.TrainConfig``): at least two
    classes with ``k_shot + n_query`` samples each; the way count is the
    number of such classes, capped at ``n_way``."""
    need = cfg.k_shot + cfg.n_query
    out = []
    for level in range(g.entity_level):
        n = _eligible(ds, g.ids_at(level), need).size
        if n >= 2:
            out.append((level, min(cfg.n_way, n)))
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
        require_types(self, "data", sigma_levels="float")
        require_at_least(self, "data", 2, "branching", "num_levels")
        require_at_least(self, "data", 1, "samples_per_class", "input_dim", "semantic_dim")
        require_at_least(self, "data", 0, "seed", "semantic_noise")
        self._check_sizes()
        if self.sigma_levels is None:
            self.sigma_levels = [1.0 * 0.5 ** i for i in range(self.num_levels - 1)]
            self.sigma_levels.append(self.sigma_levels[-1])
        if len(self.sigma_levels) != self.num_levels:
            raise ConfigError(f"data.sigma_levels needs {self.num_levels} entries, "
                              f"got {len(self.sigma_levels)}")
        if any(s < 0 for s in self.sigma_levels):
            raise ConfigError("data.sigma_levels must be non-negative")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(
                f"data.train_fraction must be in (0, 1), got {self.train_fraction}")
        if not (0.0 <= self.weak_fraction < 1.0):
            raise ConfigError(
                f"data.weak_fraction must be in [0, 1), got {self.weak_fraction}")
        if self.mix_mode:
            leaves = self.branching ** (self.num_levels - 1)
            if leaves - round(self.weak_fraction * leaves) < 2:
                raise ConfigError(f"data.weak_fraction={self.weak_fraction} leaves fewer "
                                  f"than two of {leaves} leaves for meta-train and "
                                  f"meta-test")

    def _check_sizes(self):
        """The node count against int32 ids, the largest array against
        ``np.intp`` (see the module docstring)."""
        m, size = 0, 1
        for _ in range(self.num_levels):
            m += size
            if m > _MAX_NODES:
                raise ConfigError(
                    f"data.branching={self.branching} and data.num_levels="
                    f"{self.num_levels} make more than {_MAX_NODES} nodes, past the "
                    f"dataset's int32 node ids")
            size *= self.branching
        n, d, s = self.samples_per_class, self.input_dim, self.semantic_dim
        largest = max(8 * m * max(d, s), 8 * d * s, 4 * m * n * d)
        if largest > _MAX_BYTES:
            raise ConfigError(
                f"data sizes too large: {m} nodes, data.samples_per_class={n}, "
                f"data.input_dim={d} and data.semantic_dim={s} need an array of {largest} "
                f"bytes, past numpy's limit of {_MAX_BYTES}")


@quiet_fp
def generate_synthetic(cfg: SynthConfig):
    """Pure function of the config (seed included): (ConceptGraph, Dataset).
    Overflow is silent; the graph and dataset reject its non-finite values."""
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
    protos[0] = proto_rng.gen.normal(size=cfg.input_dim)
    for level in range(1, cfg.num_levels):
        off = proto_rng.gen.normal(scale=cfg.sigma_levels[level - 1],
                                   size=(sizes[level], cfg.input_dim))
        parents = starts[level - 1] + np.arange(sizes[level]) // cfg.branching
        protos[starts[level]:starts[level + 1]] = protos[parents] + off

    leaves = list(range(int(starts[entity_level]), m))
    order = [leaves[i] for i in split_rng.gen.permutation(len(leaves))]
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

    proj = sem_rng.gen.normal(size=(cfg.input_dim, cfg.semantic_dim)) / np.sqrt(cfg.input_dim)
    semantics = protos @ proj
    if cfg.semantic_noise:
        semantics = semantics + cfg.semantic_noise * sem_rng.gen.normal(
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
                    else starts[entity_level] + k * span + sample_rng.gen.integers(0, span, n))
            block = protos[leaf] + noise * sample_rng.gen.normal(size=(n, d))
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
