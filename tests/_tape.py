"""The taped reference ops: differentiable ops built one node each on
``tensor.attach``, with the arithmetic the off-tape code in ``src/``
repeats.  Finite differences check their vjps, and the bitwise oracles in
``_oracles`` build the op-by-op taped chains from them that the program's
off-tape paths are pinned to.  ``grad`` reads gradients off the tape without
touching ``.grad``."""

import numpy as np

from conceptshot.encoder import layer_pairs
from conceptshot.errors import ConfigError, NumericalError
from conceptshot.tensor import (Rng, Tensor, _backprop, attach, class_labels, neighbor_sums,
                                stable_exp_parts)


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def grad(root: Tensor, wrt) -> list:
    """d(root)/d(t) for each tensor in ``wrt`` without touching ``.grad``
    (zeros for one the root does not depend on)."""
    _, grads = _backprop(root)
    return [grads.get(id(t), np.zeros_like(t.data)) for t in wrt]


# ---------------------------------------------------------------------------
# arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return attach(out, (a, b),
                  lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
                  "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return attach(out, (a, b),
                  lambda g: (_unbroadcast(g * b.data, a.data.shape),
                             _unbroadcast(g * a.data, b.data.shape)),
                  "mul")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return attach(x.data * c, (x,), lambda g: (g * c,), "scale")


def transpose(x: Tensor) -> Tensor:
    return attach(x.data.T, (x,), lambda g: (g.T,), "transpose")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
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

def leaky_relu(x: Tensor, slope: float = 0.1) -> Tensor:
    mask = np.where(x.data >= 0, 1.0, float(slope))
    return attach(x.data * mask, (x,), lambda g: (g * mask,), "leaky_relu")


def dropout(x: Tensor, keep_prob: float, rng: Rng, training: bool) -> Tensor:
    """Inverted dropout: kept entries scaled by 1/keep_prob; identity in eval mode."""
    if not (0.0 < keep_prob <= 1.0):
        raise ConfigError(f"dropout keep_prob must be in (0, 1], got {keep_prob}")
    if not training or keep_prob == 1.0:
        return x
    mask = (rng.uniform(size=x.data.shape) < keep_prob) / keep_prob
    return attach(x.data * mask, (x,), lambda g: (g * mask,), "dropout")


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

    return attach(x.data[idx], (x,), vjp, "gather_rows")


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

    return attach(out, (x, rows), vjp, "write_rows")


def concat_cols(*xs: Tensor) -> Tensor:
    out = np.concatenate([x.data for x in xs], axis=1)
    widths = [x.data.shape[1] for x in xs]

    def vjp(g):
        pieces, at = [], 0
        for w in widths:
            pieces.append(g[:, at:at + w])
            at += w
        return tuple(pieces)

    return attach(out, xs, vjp, "concat_cols")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= x.data.shape[1]):
        raise IndexError(f"slice_cols [{start}:{stop}] out of range for width {x.data.shape[1]}")

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return attach(x.data[:, start:stop].copy(), (x,), vjp, "slice_cols")


def reshape(x: Tensor, shape) -> Tensor:
    orig = x.data.shape
    return attach(x.data.reshape(shape), (x,), lambda g: (g.reshape(orig),), "reshape")


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

    return attach(out, (x,), vjp, "grouped_mean")


def sum_all(x: Tensor) -> Tensor:
    return attach(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),), "sum_all")


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

    return attach(out, (x,), vjp, "l2_normalize_rows")


def softmax_rows(x: Tensor) -> Tensor:
    _, e, s = stable_exp_parts(x.data)
    p = e / s

    def vjp(g):
        dot = np.sum(g * p, axis=1, keepdims=True)
        return (p * (g - dot),)

    return attach(p, (x,), vjp, "softmax_rows")


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

    return attach(out, (logits,), vjp, "cross_entropy")


# ---------------------------------------------------------------------------
# graph neighborhood averaging

def sym_neighbor_mean(x: Tensor, groups, degrees) -> Tensor:
    """Row-normalized neighborhood sum over a *symmetric* adjacency structure:
    out[i] = sum(x[j] for j in N(i)) / deg[i], with ``groups`` the
    ``tensor.neighbor_groups`` table of the structure and ``degrees`` the true
    neighbor counts.  Symmetry makes the vjp reuse the same groups."""
    degrees = np.asarray(degrees, dtype=np.float64)
    if (degrees <= 0).any():
        raise NumericalError("neighborhood averaging with a zero-degree node")
    out = neighbor_sums(x.data, groups) / degrees[:, None]

    def vjp(g):
        return (neighbor_sums(g / degrees[:, None], groups),)

    return attach(out, (x,), vjp, "sym_neighbor_mean")


# ---------------------------------------------------------------------------
# the encoder on the tape

def apply_layers(pairs, x: Tensor, slope: float = 0.1) -> Tensor:
    for w, b in pairs:
        x = leaky_relu(affine(x, w, b), slope)
    return x


def embed_low(params: dict, cfg, x: Tensor) -> Tensor:
    """Task-frozen portion of the encoder (identity when low_layers == 0)."""
    return apply_layers(layer_pairs(params, cfg)[:cfg.low_layers], x, cfg.slope)
