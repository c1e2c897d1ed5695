"""Numerics shared by the model: parameters, checks, sorted sums, SGD.

Design points:

* a parameter is a :class:`Tensor`: a float64 array, checked for NaN/Inf
  when built.  There is no tape: each stage of the model returns plain
  arrays and the closure that maps the gradient at its output to the
  gradients at its inputs, and ``meta.train_step`` chains those closures
  in one fixed order (first-order meta-gradients, no grad-of-grad).  The
  op-by-op reference ops those closures are pinned to live beside the
  tests (``tests/_tape.py``),
* every array passed through ``checked`` is checked for NaN/Inf and raises
  ``NumericalError`` instead of propagating garbage,
* sums over an *unordered* set of contributions (graph neighborhoods,
  softmax denominators) sort them by value first, which makes them bitwise
  insensitive to input ordering -- required for the exact permutation
  equivariance contracts (see ``neighbor_sums``).
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .errors import NumericalError

__all__ = [
    "Rng", "Tensor", "checked", "quiet_fp", "leaky_mask", "class_labels",
    "stable_exp_parts", "neighbor_sums", "glorot_uniform", "SgdOptimizer",
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

    def uniform_into(self, out):
        """Fill the float64 array ``out`` with the draws ``uniform(size=out.shape)``
        would return (``0.0 + 1.0 * d`` is ``d``), and return it."""
        return self._gen.random(out=out)

    def normal(self, size=None, scale=1.0):
        return self._gen.normal(0.0, scale, size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size)

    def choice(self, a, size, replace=False):
        return self._gen.choice(a, size=size, replace=replace)

    def permutation(self, n):
        return self._gen.permutation(n)


class Tensor:
    """A model parameter: a float64 array, checked for NaN/Inf when built."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(self.data).all():
            raise NumericalError("non-finite values in a parameter")


def checked(a, op: str, where: str):
    """``a``, the output of ``op`` in ``where``, checked for NaN/Inf."""
    if not np.isfinite(a).all():
        raise NumericalError(f"non-finite values produced by '{op}' in {where}")
    return a


# A decorator for the functions whose arrays ``checked`` guards: no
# numpy warnings for what ``checked`` reports as a NumericalError ("raise"
# would end in a FloatingPointError instead).
quiet_fp = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def leaky_mask(a, slope) -> np.ndarray:
    """``np.where(a >= 0, 1.0, slope)`` bit for bit, for any float64 slope,
    with no branch per entry (``np.where``'s is slow on near-random signs):
    each entry selects one of the two bit patterns by integer arithmetic."""
    low, one = np.array([slope, 1.0]).view(np.uint64)
    m = (a >= 0).astype(np.uint64)
    m *= one ^ low
    m ^= low
    return m.view(np.float64)


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

# Blocks of at least this many lanes (the entries of one neighbor slice) per
# comparator sort faster through the network than through ``np.sort``: the
# crossover measured on a 2-vCPU x86 host lay between 16 and 64 for k <= 16.
_LANES_PER_COMPARATOR = 64
_NETWORK_MAX_K = 16


@functools.cache
def _comparators(k: int) -> tuple:
    """Batcher's odd-even merge sorting network on k wires, as (i, j) pairs
    with i < j, in order: putting min on i and max on j at each pair sorts
    any k values."""
    pairs, p = [], 1
    while p < k:
        q = p
        while q:
            for j in range(q % p, k - q, 2 * q):
                pairs += [(i + j, i + j + q) for i in range(min(q, k - j - q))
                          if (i + j) // (2 * p) == (i + j + q) // (2 * p)]
            q //= 2
        p *= 2
    return tuple(pairs)


def _sorted_slices(block) -> list:
    """The k slices of a (..., k, r, d) block, sorted by value along k: by
    the comparator network (whole-slice ``np.minimum``/``np.maximum``) where
    k <= ``_NETWORK_MAX_K`` and each comparator has at least
    ``_LANES_PER_COMPARATOR`` lanes, by one ``np.sort`` otherwise.  Both
    give the same sorted values but for the signs of zeros, which a sum from
    ``+0.0`` does not see.  The network writes into ``block``."""
    k = block.shape[-3]
    network = _comparators(k) if k <= _NETWORK_MAX_K else None
    if network is None or block.size < _LANES_PER_COMPARATOR * len(network) * k:
        block, network = np.sort(block, axis=-3), ()
    parts = [block[..., j, :, :] for j in range(k)]
    for i, j in network:
        low = np.minimum(parts[i], parts[j])
        np.maximum(parts[i], parts[j], out=parts[j])
        parts[i] = low
    return parts


def neighbor_sums(values, groups) -> np.ndarray:
    """Each grouped row's neighborhood sum of ``values``, a (..., n, d) stack
    of node matrices, each summed on its own.

    A group's k neighbor slices are gathered at once as a (..., k, r, d)
    block, sorted by value along k when k >= 3 (``_sorted_slices``: the
    comparator network or ``np.sort``, whichever is faster for the block)
    and added left to right from ``+0.0``.  A sum's bits depend only on its
    own entries, not on the other rows, columns or stack members of the call
    nor on the padding width of the table.

    The sums are bitwise invariant under node relabeling: sorted for k >= 3,
    and for k <= 2 ``a + b == b + a`` exactly.  Starting from ``+0.0``, no
    partial sum is ``-0.0``, so zeros of either sign, in any order, add
    nothing: each sum has the bits of its sorted row padded with ``+0.0``
    to any width and added the same way."""
    out = np.empty(values.shape[:-2] + (sum(rows.size for rows, _ in groups),
                                        values.shape[-1]))
    for rows, idx in groups:
        block = np.take(values, idx.T, axis=-2)         # (..., k, r, d), a copy
        if idx.shape[1] > 2:
            parts = _sorted_slices(block)
        else:                                           # a + b == b + a
            parts = [block[..., j, :, :] for j in range(idx.shape[1])]
        acc = parts[0]
        acc += 0.0
        for part in parts[1:]:
            acc += part
        out[..., rows, :] = acc
    return out


# ---------------------------------------------------------------------------
# parameters and optimization

def glorot_uniform(rng: Rng, n_in: int, n_out: int) -> Tensor:
    """Weight init: uniform in [-a, a], a = sqrt(6 / (n_in + n_out))."""
    a = np.sqrt(6.0 / (n_in + n_out))
    return Tensor(rng.uniform(size=(n_in, n_out), low=-a, high=a))


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

    def step(self, lr: float, grads: dict):
        """One update from ``grads``, a gradient per parameter name; a
        parameter without one is left as it is."""
        for name, p in self.params.items():
            if name not in grads:
                continue
            g = grads[name] + self.weight_decay * p.data
            v = self.momentum * self.velocities[name] + g
            self.velocities[name] = v
            p.data = p.data - lr * v
            if not np.isfinite(p.data).all():
                raise NumericalError(f"parameter '{name}' became non-finite after SGD step")
