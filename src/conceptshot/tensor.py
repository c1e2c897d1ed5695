"""Minimal reverse-mode autodiff over float64 numpy arrays.

Everything downstream (encoder, graph classifier generator, episodic
training) is built from the ops in this module.  Design points:

* values are float64 ndarrays; every op output is checked for NaN/Inf and
  raises ``NumericalError`` instead of propagating garbage,
* the backward pass walks an explicit tape (iterative topo sort, no
  recursion limits),
* reductions that aggregate an *unordered* set of contributions (graph
  neighborhoods, relation-pair means, softmax denominators) sort the
  contributions by value before summing, which makes those ops bitwise
  insensitive to input ordering -- required for the exact permutation
  equivariance contracts.  Graph neighborhoods are grouped by degree and
  only those of three or more are sorted: two terms add to the same bits
  in either order,
* gradients are plain ndarrays and there is no grad-of-grad support:
  meta-gradients are first-order.  The inner loop in ``meta`` steps plain
  arrays off the tape and hands each adapted array back through ``carry``,
  whose vjp is the identity to the array it started from; the query loss and
  the classifier generator are computed off the tape too, on plain arrays
  passed through ``checked``, and each enters it through one ``attach`` node
  whose vjp repeats the tape ops' vjps in the tape's order.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = [
    "Rng", "Tensor", "backward", "grad",
    "add", "mul", "scale", "transpose", "affine",
    "leaky_relu", "dropout", "softmax_rows", "cross_entropy",
    "l2_normalize_rows", "gather_rows", "write_rows", "neighbor_groups",
    "neighbor_sums", "sym_neighbor_mean", "concat_cols", "slice_cols", "reshape",
    "grouped_mean", "sum_all", "carry", "attach", "checked",
    "class_labels", "stable_exp_parts", "glorot_uniform", "SgdOptimizer",
]


def _key_int(k):
    if isinstance(k, str):
        return zlib.crc32(k.encode())
    return int(k)


class Rng:
    """Deterministic random stream: same seed + same call sequence -> same values.

    ``child(*keys)`` derives an independent stream from (seed, key path)
    without advancing this one, so sub-streams can be re-derived exactly.
    The generator is built on the first draw: a stream that is never drawn
    from costs only its key.
    """

    def __init__(self, seed, _key=()):
        self.seed = int(seed)
        self.key = tuple(_key)

    @functools.cached_property
    def _gen(self):
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.key)))

    def child(self, *keys) -> "Rng":
        return Rng(self.seed, self.key + tuple(_key_int(k) for k in keys))

    def uniform(self, size=None, low=0.0, high=1.0):
        return self._gen.uniform(low, high, size)

    def normal(self, size=None, scale=1.0):
        return self._gen.normal(0.0, scale, size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size)

    def choice(self, a, size, replace=False):
        return self._gen.choice(a, size=size, replace=replace)

    def permutation(self, n):
        return self._gen.permutation(n)


class Tensor:
    """Node in the computation tape: a float64 array plus backward metadata."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None, _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(self.data).all():
            raise NumericalError(f"non-finite values produced by '{_op}'")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.requires_grad})"


def _node(data, parents, vjp, op):
    rg = any(p.requires_grad for p in parents)
    return Tensor(data, rg, tuple(parents) if rg else (), vjp if rg else None, op)


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
                 "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)),
                 "mul")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(x.data * c, (x,), lambda g: (g * c,), "scale")


def transpose(x: Tensor) -> Tensor:
    return _node(x.data.T, (x,), lambda g: (g.T,), "transpose")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over rows (fused for tape economy)."""
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"affine dimension mismatch: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"affine bias shape {b.data.shape} != ({w.data.shape[1]},)")
    out = x.data @ w.data + b.data
    return _node(out, (x, w, b),
                 lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)),
                 "affine")


# ---------------------------------------------------------------------------
# nonlinearities

def leaky_relu(x: Tensor, slope: float = 0.1) -> Tensor:
    mask = np.where(x.data >= 0, 1.0, float(slope))
    return _node(x.data * mask, (x,), lambda g: (g * mask,), "leaky_relu")


def dropout(x: Tensor, keep_prob: float, rng: Rng, training: bool) -> Tensor:
    """Inverted dropout: kept entries scaled by 1/keep_prob; identity in eval mode."""
    if not (0.0 < keep_prob <= 1.0):
        raise ConfigError(f"dropout keep_prob must be in (0, 1], got {keep_prob}")
    if not training or keep_prob == 1.0:
        return x
    mask = (rng.uniform(size=x.data.shape) < keep_prob) / keep_prob
    return _node(x.data * mask, (x,), lambda g: (g * mask,), "dropout")


# ---------------------------------------------------------------------------
# rows / columns plumbing

def gather_rows(x: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("gather_rows expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError(f"gather_rows index out of range for {x.data.shape[0]} rows")

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)  # duplicate indices accumulate
        return (gx,)

    return _node(x.data[idx], (x,), vjp, "gather_rows")


def write_rows(x: Tensor, rows: Tensor, idx) -> Tensor:
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

    return _node(out, (x, rows), vjp, "write_rows")


def concat_cols(*xs: Tensor) -> Tensor:
    out = np.concatenate([x.data for x in xs], axis=1)
    widths = [x.data.shape[1] for x in xs]

    def vjp(g):
        pieces, at = [], 0
        for w in widths:
            pieces.append(g[:, at:at + w])
            at += w
        return tuple(pieces)

    return _node(out, xs, vjp, "concat_cols")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= x.data.shape[1]):
        raise IndexError(f"slice_cols [{start}:{stop}] out of range for width {x.data.shape[1]}")

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return _node(x.data[:, start:stop].copy(), (x,), vjp, "slice_cols")


def reshape(x: Tensor, shape) -> Tensor:
    orig = x.data.shape
    return _node(x.data.reshape(shape), (x,), lambda g: (g.reshape(orig),), "reshape")


def grouped_mean(x: Tensor, group_size: int) -> Tensor:
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

    return _node(out, (x,), vjp, "grouped_mean")


def sum_all(x: Tensor) -> Tensor:
    return _node(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),), "sum_all")


def carry(value, init: Tensor) -> Tensor:
    """``value`` as a node whose vjp is the identity back to ``init``.

    A first-order update chain init + c1 + ... + ck with constant steps ci
    has exactly this gradient, so the steps can be taken on plain arrays and
    attached once at the end.
    """
    value = np.asarray(value, dtype=np.float64)
    if value.shape != init.data.shape:
        raise ValueError(f"carry shape {value.shape} != {init.data.shape}")
    return _node(value, (init,), lambda g: (g,), "carry")


def attach(value, parents, vjp, op: str) -> Tensor:
    """``value``, computed off the tape from ``parents``, as one node whose
    ``vjp`` maps its gradient to one gradient per parent."""
    return _node(value, parents, vjp, op)


def checked(a, op: str, where: str):
    """``a``, computed off the tape, checked for NaN/Inf as a tape op's output."""
    if not np.isfinite(a).all():
        raise NumericalError(f"non-finite values produced by '{op}' in {where}")
    return a


# ---------------------------------------------------------------------------
# normalization / losses

def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Each row divided by max(row L2 norm, eps); zero rows stay zero."""
    norms = np.sqrt(np.sum(x.data * x.data, axis=1, keepdims=True))
    denom = np.maximum(norms, eps)
    out = x.data / denom

    def vjp(g):
        dot = np.sum(x.data * g, axis=1, keepdims=True)
        # norm branch: g/n - x (x.g)/n^3 ; clamped branch: constant denominator
        gx = np.where(norms > eps, g / denom - x.data * dot / denom ** 3, g / denom)
        return (gx,)

    return _node(out, (x,), vjp, "l2_normalize_rows")


def stable_exp_parts(logits):
    """(logits - row max, its exp, the row sums of the exp sorted first);
    rows run along the last axis, so a stack of logit matrices works too."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    # sort before summing: denominator is invariant to class column order
    s = np.sort(e, axis=-1).sum(axis=-1, keepdims=True)
    return z, e, s


def softmax_rows(x: Tensor) -> Tensor:
    _, e, s = stable_exp_parts(x.data)
    p = e / s

    def vjp(g):
        dot = np.sum(g * p, axis=1, keepdims=True)
        return (p * (g - dot),)

    return _node(p, (x,), vjp, "softmax_rows")


def class_labels(labels, n: int, c: int) -> np.ndarray:
    """``labels`` as an index vector, checked against n logit rows of c classes."""
    y = np.asarray(labels, dtype=np.intp)
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match {n} logit rows")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise IndexError(f"label out of range for {c} classes")
    return y


def cross_entropy(logits: Tensor, labels) -> Tensor:
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

    return _node(out, (logits,), vjp, "cross_entropy")


# ---------------------------------------------------------------------------
# graph neighborhood averaging

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


def neighbor_sums(values, groups) -> np.ndarray:
    """Each grouped row's neighborhood sum of ``values``: every group sums its
    (r, k, d) block along k, sorted by value first when k >= 3.  A row's bits
    depend only on its own entries, not on the other rows of its group."""
    out = np.empty((sum(rows.size for rows, _ in groups), values.shape[1]))
    for rows, idx in groups:
        contrib = values[idx]                          # (r, k, d)
        if idx.shape[1] > 2:
            contrib = np.sort(contrib, axis=1)
        out[rows] = contrib.sum(axis=1)
    return out


def sym_neighbor_mean(x: Tensor, groups, degrees) -> Tensor:
    """Row-normalized neighborhood sum over a *symmetric* adjacency structure.

    ``groups`` is the :func:`neighbor_groups` table of the structure, built
    once by its owner (``graph.Propagation``) and reused by every call;
    ``degrees`` the true neighbor counts.
    out[i] = sum(x[j] for j in N(i)) / deg[i].

    :func:`neighbor_sums` is the one aggregation routine: rows with k entries
    sum an (r, k, d) block along k, sorted by value first when k >= 3, so
    the result is bitwise invariant under node relabeling (for k <= 2,
    ``a + b == b + a`` exactly).  Each sum has the bits of the sorted row
    padded with ``+0.0`` to max_deg: numpy's sum starts from ``+0.0``, so
    no partial sum is ``-0.0`` and adding ``+0.0`` to it is exact.  (Not
    so for one column and eight or more entries: numpy sums a padded
    one-column row in eight lanes, whose bits depend on max_deg.)
    Symmetry of the structure is assumed (undirected edges), which makes the
    backward pass reuse the same groups.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    if (degrees <= 0).any():
        raise NumericalError("neighborhood averaging with a zero-degree node")
    out = neighbor_sums(x.data, groups) / degrees[:, None]

    def vjp(g):
        return (neighbor_sums(g / degrees[:, None], groups),)

    return _node(out, (x,), vjp, "sym_neighbor_mean")


# ---------------------------------------------------------------------------
# parameters and optimization

def glorot_uniform(rng: Rng, n_in: int, n_out: int) -> Tensor:
    """Weight init: uniform in [-a, a], a = sqrt(6 / (n_in + n_out))."""
    a = np.sqrt(6.0 / (n_in + n_out))
    return Tensor(rng.uniform(size=(n_in, n_out), low=-a, high=a), requires_grad=True)


class SgdOptimizer:
    """SGD with momentum and decoupled-from-nothing weight decay (classic L2-in-grad).

    v <- momentum * v + (grad + weight_decay * param)
    param <- param - lr * v
    """

    def __init__(self, params: dict, momentum: float = 0.0, weight_decay: float = 0.0):
        self.params = params
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocities = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float):
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            v = self.momentum * self.velocities[name] + g
            self.velocities[name] = v
            p.data = p.data - lr * v
            if not np.isfinite(p.data).all():
                raise NumericalError(f"parameter '{name}' became non-finite after SGD step")

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# backward machinery

def _topo(root: Tensor):
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
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents precede users; root last


def _backprop(root: Tensor):
    """Return the tape order (parents first) and {id(node): grad ndarray}."""
    if root.data.size != 1:
        raise ValueError("backward/grad require a scalar root")
    order = _topo(root)
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node._vjp is None:
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            pg = np.broadcast_to(pg, p.data.shape) if pg.shape != p.data.shape else pg
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
    return order, grads


def backward(root: Tensor):
    """Accumulate d(root)/d(leaf) into ``.grad`` of every requires-grad leaf."""
    order, grads = _backprop(root)
    for node in order:
        if node.requires_grad and not node._parents and id(node) in grads:
            node.grad = grads[id(node)] if node.grad is None else node.grad + grads[id(node)]


def grad(root: Tensor, wrt) -> list:
    """d(root)/d(t) for each tensor in ``wrt`` without touching ``.grad``
    (zeros for one the root does not depend on)."""
    _, grads = _backprop(root)
    return [grads.get(id(t), np.zeros_like(t.data)) for t in wrt]
