"""Minimal reverse-mode autodiff over float64 numpy arrays.

Design points:

* the program computes on plain arrays and records three kinds of node:
  leaves (parameters and constants); ``carry`` nodes, through which the
  inner loop in ``meta`` hands back each adapted array with the identity
  vjp to its start; and ``attach`` nodes, through which the classifier
  generator, the query loss and the sum of the loss terms each enter the
  tape as one node whose vjp repeats the op-by-op taped chain's vjps in
  order.  The op-by-op reference ops live beside the tests (``tests/_tape.py``),
* every node's value, and every off-tape array passed through ``checked``,
  is checked for NaN/Inf and raises ``NumericalError`` instead of
  propagating garbage,
* the backward pass walks an explicit tape (iterative topo sort, no
  recursion limits),
* sums over an *unordered* set of contributions (graph neighborhoods,
  softmax denominators) sort them by value first, which makes them bitwise
  insensitive to input ordering -- required for the exact permutation
  equivariance contracts (see ``neighbor_sums``),
* there is no grad-of-grad support: meta-gradients are first-order.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .errors import NumericalError

__all__ = [
    "Rng", "Tensor", "attach", "carry", "checked", "quiet_fp", "class_labels",
    "stable_exp_parts", "neighbor_groups", "neighbor_sums", "glorot_uniform",
    "SgdOptimizer", "backward", "grad",
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


def carry(value, init: Tensor) -> Tensor:
    """``value`` as a node whose vjp is the identity back to ``init``.

    A first-order update chain init + c1 + ... + ck with constant steps ci
    has exactly this gradient, so the steps can be taken on plain arrays and
    attached once at the end.
    """
    value = np.asarray(value, dtype=np.float64)
    if value.shape != init.data.shape:
        raise ValueError(f"carry shape {value.shape} != {init.data.shape}")
    return attach(value, (init,), lambda g: (g,), "carry")


def attach(value, parents, vjp, op: str) -> Tensor:
    """``value``, computed off the tape from ``parents``, as one node whose
    ``vjp`` maps its gradient to one gradient per parent.  A node none of
    whose parents requires grad records no parents and no vjp."""
    rg = any(p.requires_grad for p in parents)
    return Tensor(value, rg, tuple(parents) if rg else (), vjp if rg else None, op)


def checked(a, op: str, where: str):
    """``a``, computed off the tape, checked for NaN/Inf as a tape op's output."""
    if not np.isfinite(a).all():
        raise NumericalError(f"non-finite values produced by '{op}' in {where}")
    return a


# A decorator for the functions whose off-tape arrays ``checked`` guards: no
# numpy warnings for what ``checked`` reports as a NumericalError ("raise"
# would end in a FloatingPointError instead).
quiet_fp = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def stable_exp_parts(logits):
    """(logits - row max, its exp, the row sums of the exp sorted first);
    rows run along the last axis, so a stack of logit matrices works too."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    # sort before summing: denominator is invariant to class column order
    s = np.sort(e, axis=-1).sum(axis=-1, keepdims=True)
    return z, e, s


def class_labels(labels, n: int, c: int) -> np.ndarray:
    """``labels`` as an index vector, checked against n logit rows of c classes."""
    y = np.asarray(labels, dtype=np.intp)
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match {n} logit rows")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise IndexError(f"label out of range for {c} classes")
    return y


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
    depend only on its own entries, not on the other rows of its group.

    The sums are bitwise invariant under node relabeling: sorted for k >= 3,
    and for k <= 2 ``a + b == b + a`` exactly.  Each sum has the bits of the
    sorted row padded with ``+0.0`` to max_deg: numpy's sum starts from
    ``+0.0``, so no partial sum is ``-0.0`` and adding ``+0.0`` to it is
    exact.  (Not so for one column and eight or more entries: numpy sums a
    padded one-column row in eight lanes, whose bits depend on max_deg.)"""
    out = np.empty((sum(rows.size for rows, _ in groups), values.shape[1]))
    for rows, idx in groups:
        contrib = values[idx]                          # (r, k, d)
        if idx.shape[1] > 2:
            contrib = np.sort(contrib, axis=1)
        out[rows] = contrib.sum(axis=1)
    return out


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
