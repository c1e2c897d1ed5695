"""Concept hierarchy: nodes across abstraction levels, undirected parent links,
per-node semantic vectors, and the row-normalized propagation operator.

Level 0 is the most abstract; the last level (``entity_level``) holds the
leaf entity classes that few-shot episodes are built from.  All edges connect
adjacent levels and the parent-link graph must be acyclic (a forest).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifact import write_text_atomic
from .errors import DataError
from .tensor import neighbor_groups, neighbor_sums

VALID_SPLITS = ("meta-train", "meta-test", "weak", "none")

_FORMAT_NAME = "conceptshot-graph"


@dataclass
class NodeRecord:
    id: int
    name: str
    level: int
    split: str = "none"


class ConceptGraph:
    """Validated hierarchy with semantics; raises DataError on any violation."""

    def __init__(self, nodes, edges, semantics, num_levels):
        edges = [(int(i), int(j)) for i, j in edges]
        self.nodes = sorted((NodeRecord(**n) if isinstance(n, dict) else n for n in nodes),
                            key=lambda n: n.id)
        self.edges = sorted({(min(i, j), max(i, j)) for i, j in edges})
        self.semantics = np.asarray(semantics, dtype=np.float64)
        self.num_levels = int(num_levels)
        self._validate(edges)
        self._nbrs = None
        self._ids = None

    # -- derived views ------------------------------------------------------

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def entity_level(self):
        return self.num_levels - 1

    def ids_at(self, level, split=None):
        """The ids at ``level`` (of ``split``, when given) in id order, as a
        read-only array; the arrays of every level and split are built on
        the first call."""
        if self._ids is None:
            ids = {}
            for n in self.nodes:
                for key in (n.level, (n.level, n.split)):
                    ids.setdefault(key, []).append(n.id)
            self._ids = {k: np.array(v, dtype=np.intp) for k, v in ids.items()}
            for a in self._ids.values():
                a.flags.writeable = False
        return self._ids.get(level if split is None else (level, split),
                             np.empty(0, dtype=np.intp))

    def neighbors(self, node_id):
        if self._nbrs is None:
            nbrs = [[] for _ in self.nodes]
            for i, j in self.edges:
                nbrs[i].append(j)
                nbrs[j].append(i)
            self._nbrs = [sorted(v) for v in nbrs]
        return self._nbrs[node_id]

    # -- validation ---------------------------------------------------------

    def _validate(self, raw_edges):
        if self.num_levels < 1:
            raise DataError(f"num_levels must be >= 1, got {self.num_levels}")
        if not self.nodes:
            raise DataError("graph has no nodes")
        ids = [n.id for n in self.nodes]
        if ids != list(range(len(ids))):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            if dup:
                raise DataError(f"duplicate node id {dup[0]}")
            raise DataError(f"node ids must be exactly 0..{len(ids) - 1}")
        for n in self.nodes:
            if not (0 <= n.level < self.num_levels):
                raise DataError(f"node {n.id} has level {n.level} outside [0, {self.num_levels})")
            if n.split not in VALID_SPLITS:
                raise DataError(f"node {n.id} has unknown split '{n.split}'")
            if n.split in ("meta-train", "meta-test") and n.level != self.entity_level:
                raise DataError(f"node {n.id} is non-leaf but tagged entity split '{n.split}'")
        m = len(self.nodes)
        if len({(min(i, j), max(i, j)) for i, j in raw_edges}) != len(raw_edges):
            raise DataError("duplicate edge in edge list")
        parent = list(range(m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.edges:
            if not (0 <= i < m and 0 <= j < m):
                raise DataError(f"edge {i}-{j} references an unknown node")
            if i == j:
                raise DataError(f"edge {i}-{j} is a self loop")
            li, lj = self.nodes[i].level, self.nodes[j].level
            if li == lj:
                raise DataError(f"edge {i}-{j} connects nodes at the same level {li}")
            if abs(li - lj) != 1:
                raise DataError(f"edge {i}-{j} skips levels ({li} to {lj})")
            ri, rj = find(i), find(j)
            if ri == rj:
                raise DataError(f"cycle detected: edge {i}-{j} closes a loop in the hierarchy")
            parent[ri] = rj
        has_edge = set()
        for i, j in self.edges:
            has_edge.add(i)
            has_edge.add(j)
        for n in self.nodes:
            if n.level == self.entity_level and self.num_levels > 1 and n.id not in has_edge:
                raise DataError(f"entity node {n.id} has no parent")
        if self.semantics.ndim != 2 or self.semantics.shape[0] != m:
            raise DataError(
                f"semantics shape {self.semantics.shape} does not match {m} nodes")
        if not np.all(np.isfinite(self.semantics)):
            raise DataError("semantics contain non-finite values")

    def __eq__(self, other):
        return (isinstance(other, ConceptGraph)
                and self.num_levels == other.num_levels
                and self.nodes == other.nodes
                and self.edges == other.edges
                and self.semantics.shape == other.semantics.shape
                and np.array_equal(self.semantics, other.semantics))


# ---------------------------------------------------------------------------
# propagation operator

class Propagation:
    """Row-stochastic neighborhood-averaging operator P = D^-1 (A + I).

    The structure never changes, so its degree groups (the
    ``tensor.neighbor_groups`` of ``nbr_idx``) are built once, here, and
    every ``apply`` and its vjp reuse them.  ``apply`` and ``apply_vjp`` run
    the operator and its transpose on plain arrays only, on one (n, d) node
    matrix or on any (..., n, d) stack of them, with order-canonical
    summation (``tensor.neighbor_sums``).  ``reapply`` re-propagates only
    the rows that a rewrite of a few input rows changes.
    """

    def __init__(self, nbr_idx, degrees, size):
        self.nbr_idx = nbr_idx
        self.degrees = degrees
        self.size = size
        self.groups = neighbor_groups(nbr_idx, size)

    def apply(self, x):
        """P·x for each (n, d) node matrix of the (..., n, d) array ``x``;
        each matrix of a stack gets the bits it gets alone."""
        return neighbor_sums(x, self.groups) / self.degrees[:, None]

    def apply_vjp(self, g):
        """The vjp of ``apply``: P is symmetric in structure, so Pᵀ·g reuses
        the same groups."""
        return neighbor_sums(g / self.degrees[:, None], self.groups)

    def reapply(self, values, ids):
        """(row mask, P·values on those rows) for the rows of P·values that
        a rewrite of the rows ``ids`` changes: r changes only where N(r)
        meets ``ids``, and the structure is symmetric, so those are N(ids).
        They are summed by the same aggregation routine and divided by the
        same degrees, so each has the bits of ``apply(values)``.  No tape."""
        hit = np.zeros(self.size + 1, dtype=bool)
        hit[self.nbr_idx[ids]] = True
        hit = hit[:-1]
        return hit, (neighbor_sums(values, neighbor_groups(self.nbr_idx[hit], self.size))
                     / self.degrees[hit, None])


def propagation_operator(g: ConceptGraph) -> Propagation:
    """Build P = D^-1 (A + I) from the graph adjacency; the self loop gives
    every node, an isolated one included, a degree of at least 1."""
    m = g.num_nodes
    lists = [sorted(g.neighbors(i) + [i]) for i in range(m)]
    degrees = np.array([len(v) for v in lists], dtype=np.float64)
    maxdeg = max(len(v) for v in lists)
    nbr_idx = np.full((m, maxdeg), m, dtype=np.intp)
    for i, v in enumerate(lists):
        nbr_idx[i, :len(v)] = v
    return Propagation(nbr_idx, degrees, m)


def task_ids(class_ids, rows: int) -> np.ndarray:
    """An episode's class ids as an index array, checked to be distinct and
    in range for ``rows`` rows (DataError)."""
    ids = np.asarray(class_ids, dtype=np.intp)
    if len(set(ids.tolist())) != ids.size:
        raise DataError(f"selection: class ids contain duplicates: {sorted(ids.tolist())}")
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise DataError(f"selection: class id {int(ids.max())} out of range for {rows} rows")
    return ids


# ---------------------------------------------------------------------------
# serialization

def save_graph(g: ConceptGraph, path):
    """Write the graph as a JSON document, semantics at full precision."""
    doc = {
        "format": _FORMAT_NAME,
        "version": 1,
        "num_levels": g.num_levels,
        "nodes": [{"id": n.id, "name": n.name, "level": n.level, "split": n.split}
                  for n in g.nodes],
        "edges": [[i, j] for i, j in g.edges],
        "semantics": {"dim": int(g.semantics.shape[1]), "values": g.semantics.tolist()},
    }
    write_text_atomic(path, [json.dumps(doc, indent=1), "\n"])


def load_graph(path) -> ConceptGraph:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"graph file not found: {path}")
    except OSError as e:
        raise DataError(f"cannot read graph file {path}: {e}")
    except UnicodeDecodeError as e:
        raise DataError(f"graph file {path} is not UTF-8 text: {e}")
    except json.JSONDecodeError as e:
        raise DataError(f"graph file {path} is not valid JSON: {e}")
    except RecursionError:
        raise DataError(f"graph file {path} is nested too deep to parse")
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_NAME:
        raise DataError(f"{path} is not a {_FORMAT_NAME} file")
    sem = doc.get("semantics", {})
    if not isinstance(sem, dict):
        raise DataError(f"malformed graph document {path}: semantics must be an object")
    try:
        semantics = np.asarray(sem["values"], dtype=np.float64)
        nodes = [NodeRecord(id=int(n["id"]), name=str(n["name"]), level=int(n["level"]),
                            split=str(n.get("split", "none")))
                 for n in doc["nodes"]]
        edges = [(int(i), int(j)) for i, j in doc["edges"]]
        num_levels = doc["num_levels"]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed graph document {path}: {e}")
    if not isinstance(num_levels, int) or isinstance(num_levels, bool):
        raise DataError(f"malformed graph document {path}: "
                        f"num_levels must be an integer, got {num_levels!r}")
    return ConceptGraph(nodes, edges, semantics, num_levels)


def describe(g: ConceptGraph) -> str:
    """Human-readable structure summary (used by the inspect-graph subcommand)."""
    lines = [f"nodes: {g.num_nodes}   edges: {len(g.edges)}   levels: {g.num_levels}"
             f"   semantic dim: {g.semantics.shape[1]}"]
    for lv in range(g.num_levels):
        tag = " (entities)" if lv == g.entity_level else ""
        lines.append(f"level {lv}{tag}: {g.ids_at(lv).size} nodes")
    for split in VALID_SPLITS:
        n = g.ids_at(g.entity_level, split).size
        if n:
            lines.append(f"entity split '{split}': {n} classes")
    return "\n".join(lines)
