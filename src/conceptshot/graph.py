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

from .artifact import read_json, write_text_atomic
from .errors import DataError
from .tensor import neighbor_sums

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
        self.nodes = sorted(nodes, key=lambda n: n.id)
        self.edges = sorted({(min(i, j), max(i, j)) for i, j in edges})
        self.semantics = np.asarray(semantics, dtype=np.float64)
        self.num_levels = int(num_levels)
        self._validate(edges)
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


# ---------------------------------------------------------------------------
# propagation operator

class Propagation:
    """Row-stochastic neighborhood-averaging operator P = D^-1 (A + I).

    ``apply`` and ``apply_vjp`` run the operator and its transpose on plain
    arrays only, on one (n, d) node matrix or on any (..., n, d) stack of
    them, on ``rows``, one id array per matrix of the stack: they sum those
    rows only, grouped by degree on the spot, with order-canonical
    summation (``tensor.neighbor_sums``), and leave every other row +0.0.
    A sum's bits depend on its own entries only, so each computed row has
    the bits it has whichever other rows are asked for.
    """

    def __init__(self, nbr_idx, degrees, size):
        self.nbr_idx = nbr_idx
        self.degrees = degrees
        self.size = size
        self.ks = np.unique(degrees).astype(np.intp)

    def apply(self, x, rows, written=None):
        """P·x on ``rows`` of each (n, d) node matrix of the (..., n, d)
        array ``x``; the other rows are +0.0.

        With ``written``, one (rows, d) array per id array of ``rows``, the
        call is a write-back: node matrix t reads ``written[t]`` at its rows
        ``rows[t]`` in place of x's, and the output is the computed rows
        only, row set after row set.  There ``x`` is a stack of one matrix
        per row set, or one (n, d) matrix that every row set reads."""
        return self._scatter(x, rows, True, written)

    def apply_vjp(self, g, rows):
        """The vjp of ``apply``: P is symmetric in structure, so Pᵀ·g sums
        the same neighborhoods of g·D^-1; ``rows`` as in ``apply``."""
        return self._scatter(g / self.degrees[:, None], rows, False)

    def neighborhoods(self, rows) -> list:
        """N(r), sorted, for each id array r of ``rows``: the rows of P·x
        that read a row of r, and those Pᵀ·g reaches from r (the structure
        is symmetric)."""
        out = []
        for r in rows:
            hit = np.zeros(self.size + 1, dtype=bool)
            hit[self.nbr_idx[r]] = True
            out.append(np.flatnonzero(hit[:-1]))
        return out

    def _scatter(self, values, rows, divide: bool, written=None):
        """The neighborhood sums of ``values``, divided by the degrees when
        ``divide``, on ``rows``, one id array per (n, d) matrix of the stack
        ``values``, in a +0.0 array shaped as ``values``.  The rows are
        grouped by degree on the flattened stack, each entry offset to its
        own matrix.  ``written`` as in ``apply``: its rows follow the
        flattened stack, a neighbor that its row set wrote is read there,
        and the sums are returned as they are."""
        src, n, d = np.concatenate(rows), self.size, values.shape[-1]
        task = np.repeat(np.arange(len(rows)), [r.size for r in rows])
        off, flat = task * n if values.ndim > 2 else 0 * task, values.reshape(-1, d)
        if written is not None:
            slot = np.full(len(rows) * n, -1)
            slot[task * n + src] = np.arange(flat.shape[0], flat.shape[0] + src.size)
            flat = np.concatenate([flat, *written])
        deg, groups = self.degrees[src], []
        for k in self.ks:
            pos = np.flatnonzero(deg == k)
            if pos.size:
                nbrs = self.nbr_idx[src[pos], :k]
                idx = nbrs + off[pos, None]
                if written is not None:
                    at = slot[nbrs + task[pos, None] * n]
                    idx = np.where(at >= 0, at, idx)
                groups.append((pos, idx))
        sums = neighbor_sums(flat, groups)
        sums = sums / deg[:, None] if divide else sums
        if written is not None:
            return sums
        out = np.zeros(values.shape)
        out.reshape(-1, d)[src + off] = sums
        return out


def propagation_operator(g: ConceptGraph) -> Propagation:
    """Build P = D^-1 (A + I) from the graph's edges: row i of the neighbor
    table holds i and its neighbors in id order, padded with m; the self loop
    gives every node, an isolated one included, a degree of at least 1."""
    m = g.num_nodes
    lists = [[i] for i in range(m)]
    for i, j in g.edges:
        lists[i].append(j)
        lists[j].append(i)
    degrees = np.array([len(v) for v in lists], dtype=np.float64)
    nbr_idx = np.full((m, max(len(v) for v in lists)), m, dtype=np.intp)
    for i, v in enumerate(lists):
        nbr_idx[i, :len(v)] = sorted(v)
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
    doc = read_json(path, "graph", DataError)
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
