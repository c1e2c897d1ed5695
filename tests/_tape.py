"""The taped reference ops: differentiable ops built one node each on a
small tape, with the arithmetic the program's vjp closures in ``src/``
repeat.  Finite differences check their vjps, and the bitwise oracles in
``_oracles`` build the op-by-op taped chains from them that the program's
explicit gradients are pinned to.

A :class:`Node` is a tape node: its value, its parents and its vjp.  A
model parameter (``tensor.Tensor``), or any other object with a ``data``
array, enters the tape as a leaf.  ``grad`` walks the tape from a scalar
root (iterative topological sort, no recursion limit) and reads off the
gradients of the nodes it is asked for."""

import numpy as np

from conceptshot.encoder import layer_pairs
from conceptshot.errors import ConfigError, NumericalError
from conceptshot.tensor import Rng, class_labels, neighbor_sums, stable_exp_parts


class Node:
    """A tape node: a float64 value, checked for NaN/Inf, the nodes it was
    computed from and the vjp that maps its gradient to one per parent."""

    __slots__ = ("data", "_parents", "_vjp", "_op")

    def __init__(self, data, parents=(), vjp=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(self.data).all():
            raise NumericalError(f"non-finite values produced by '{op}'")
        self._parents = tuple(parents)
        self._vjp = vjp
        self._op = op

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return self.data.item()


def attach(value, parents, vjp, op: str) -> Node:
    """``value``, computed from ``parents``, as one node whose ``vjp`` maps
    its gradient to one gradient per parent."""
    return Node(value, parents, vjp, op)


def _parents(node):
    return node._parents if isinstance(node, Node) else ()


def _topo(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in _parents(node):
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents precede users; root last


def _backprop(root) -> dict:
    """{id(node): gradient} of every node of ``root``'s tape: each node's
    contributions are summed in the walk's order, starting from the first."""
    if root.data.size != 1:
        raise ValueError("backpropagation requires a scalar root")
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(_topo(root)):
        g = grads.get(id(node))
        if g is None or not _parents(node):
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None:
                continue
            pg = np.broadcast_to(pg, p.data.shape) if pg.shape != p.data.shape else pg
            grads[id(p)] = grads[id(p)] + pg if id(p) in grads else pg
    return grads


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def grad(root, wrt) -> list:
    """d(root)/d(t) for each node or leaf in ``wrt`` (zeros for one the root
    does not depend on)."""
    grads = _backprop(root)
    return [grads.get(id(t), np.zeros_like(t.data)) for t in wrt]


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b):
    out = a.data + b.data
    return attach(out, (a, b),
                  lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
                  "add")


def mul(a, b):
    out = a.data * b.data
    return attach(out, (a, b),
                  lambda g: (_unbroadcast(g * b.data, a.data.shape),
                             _unbroadcast(g * a.data, b.data.shape)),
                  "mul")


def scale(x, c: float):
    c = float(c)
    return attach(x.data * c, (x,), lambda g: (g * c,), "scale")


def transpose(x):
    return attach(x.data.T, (x,), lambda g: (g.T,), "transpose")


def affine(x, w, b):
    """x @ w + b with b broadcast over rows (fused for tape economy)."""
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"affine dimension mismatch: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"affine bias shape {b.data.shape} != ({w.data.shape[1]},)")
    out = x.data @ w.data + b.data
    return attach(out, (x, w, b),
                  lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)),
                  "affine")


# ---------------------------------------------------------------------------
# nonlinearities

def leaky_relu(x, slope: float = 0.1):
    mask = np.where(x.data >= 0, 1.0, float(slope))
    return attach(x.data * mask, (x,), lambda g: (g * mask,), "leaky_relu")


def dropout(x, keep_prob: float, rng: Rng, training: bool):
    """Inverted dropout: kept entries scaled by 1/keep_prob; identity in eval mode."""
    if not (0.0 < keep_prob <= 1.0):
        raise ConfigError(f"dropout keep_prob must be in (0, 1], got {keep_prob}")
    if not training or keep_prob == 1.0:
        return x
    mask = (rng.gen.uniform(size=x.data.shape) < keep_prob) / keep_prob
    return attach(x.data * mask, (x,), lambda g: (g * mask,), "dropout")


# ---------------------------------------------------------------------------
# rows / columns plumbing

def gather_rows(x, idx):
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("gather_rows expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError(f"gather_rows index out of range for {x.data.shape[0]} rows")

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)  # duplicate indices accumulate
        return (gx,)

    return attach(x.data[idx], (x,), vjp, "gather_rows")


def write_rows(x, rows, idx):
    """Copy of x with rows[i] written at idx[i]; differentiable in both args."""
    idx = np.asarray(idx, dtype=np.intp)
    if len(set(idx.tolist())) != idx.size:
        raise ValueError("write_rows requires distinct row indices")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError(f"write_rows index out of range for {x.data.shape[0]} rows")
    out = x.data.copy()
    out[idx] = rows.data

    def vjp(g):
        gx = g.copy()
        gx[idx] = 0.0
        return gx, g[idx]

    return attach(out, (x, rows), vjp, "write_rows")


def concat_cols(*xs):
    out = np.concatenate([x.data for x in xs], axis=1)
    widths = [x.data.shape[1] for x in xs]

    def vjp(g):
        pieces, at = [], 0
        for w in widths:
            pieces.append(g[:, at:at + w])
            at += w
        return tuple(pieces)

    return attach(out, xs, vjp, "concat_cols")


def slice_cols(x, start: int, stop: int):
    if not (0 <= start <= stop <= x.data.shape[1]):
        raise IndexError(f"slice_cols [{start}:{stop}] out of range for width {x.data.shape[1]}")

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return attach(x.data[:, start:stop].copy(), (x,), vjp, "slice_cols")


def reshape(x, shape):
    orig = x.data.shape
    return attach(x.data.reshape(shape), (x,), lambda g: (g.reshape(orig),), "reshape")


def grouped_mean(x, group_size: int):
    """Mean over consecutive row blocks: (G*B, d) -> (G, d).

    Each block's contributions are sorted by value before summation, so the
    result does not depend on the order of rows within a block.
    """
    total, d = x.data.shape
    if group_size <= 0 or total % group_size:
        raise ValueError(f"grouped_mean: {total} rows not divisible into blocks of {group_size}")
    blocks = x.data.reshape(-1, group_size, d)
    out = np.sort(blocks, axis=1).sum(axis=1) / group_size

    def vjp(g):
        return (np.repeat(g / group_size, group_size, axis=0),)

    return attach(out, (x,), vjp, "grouped_mean")


def sum_all(x):
    return attach(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),), "sum_all")


# ---------------------------------------------------------------------------
# normalization / losses

def l2_normalize_rows(x, eps: float = 1e-12):
    """Each row divided by max(row L2 norm, eps); zero rows stay zero."""
    norms = np.sqrt(np.sum(x.data * x.data, axis=1, keepdims=True))
    denom = np.maximum(norms, eps)
    out = x.data / denom

    def vjp(g):
        dot = np.sum(x.data * g, axis=1, keepdims=True)
        # norm branch: g/n - x (x.g)/n^3 ; clamped branch: constant denominator
        gx = np.where(norms > eps, g / denom - x.data * dot / denom ** 3, g / denom)
        return (gx,)

    return attach(out, (x,), vjp, "l2_normalize_rows")


def softmax_rows(x):
    _, e, s = stable_exp_parts(x.data)
    p = e / s

    def vjp(g):
        dot = np.sum(g * p, axis=1, keepdims=True)
        return (p * (g - dot),)

    return attach(p, (x,), vjp, "softmax_rows")


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy; numerically stabilized by row-max subtraction."""
    n, c = logits.data.shape
    y = class_labels(labels, n, c)
    z, e, s = stable_exp_parts(logits.data)
    lse = np.log(s[:, 0])
    out = (lse - z[np.arange(n), y]).mean()

    def vjp(g):
        p = e / s
        p[np.arange(n), y] -= 1.0
        return (p * (float(g) / n),)

    return attach(out, (logits,), vjp, "cross_entropy")


# ---------------------------------------------------------------------------
# graph neighborhood averaging

def sym_neighbor_mean(x, groups, degrees):
    """Row-normalized neighborhood sum over a *symmetric* adjacency structure:
    out[i] = sum(x[j] for j in N(i)) / deg[i], with ``groups`` the
    ``_oracles.neighbor_groups`` table of the structure and ``degrees`` the
    true neighbor counts.  Symmetry makes the vjp reuse the same groups."""
    degrees = np.asarray(degrees, dtype=np.float64)
    if (degrees <= 0).any():
        raise NumericalError("neighborhood averaging with a zero-degree node")
    out = neighbor_sums(x.data, groups) / degrees[:, None]

    def vjp(g):
        return (neighbor_sums(g / degrees[:, None], groups),)

    return attach(out, (x,), vjp, "sym_neighbor_mean")


# ---------------------------------------------------------------------------
# the encoder on the tape

def apply_layers(pairs, x, slope: float = 0.1):
    for w, b in pairs:
        x = leaky_relu(affine(x, w, b), slope)
    return x


def embed_low(params: dict, cfg, x):
    """Task-frozen portion of the encoder (identity when low_layers == 0)."""
    return apply_layers(layer_pairs(params, cfg)[:cfg.low_layers], x, cfg.slope)


def high_pairs(params: dict, cfg):
    """The (W, b) parameters the inner loop adapts."""
    return layer_pairs(params, cfg)[cfg.low_layers:]
