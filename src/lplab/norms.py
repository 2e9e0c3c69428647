"""L^p and sup norms on sampled fields, conjugate exponents, dual pairings.

Exponents are plain floats; ``INFINITY`` (``math.inf``) is the distinguished
sup-norm value.  On a grid every node with positive weight carries mass, so
the essential supremum is realized as a plain maximum over those nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError
from .grid import RegionMask, ScalarField, VectorField, _require_shared_grid

__all__ = [
    "INFINITY",
    "conjugate_exponent",
    "lp_norm",
    "product_lp_norm",
    "dual_pairing",
    "holder_minkowski_check",
]

INFINITY = math.inf


def _check_exponent(p: float) -> float:
    p = float(p)
    if p == INFINITY:
        return p
    if not math.isfinite(p) or p < 1.0:
        raise InvalidArgumentError(f"exponent must be >= 1 or INFINITY, got {p}")
    return p


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1; q = INFINITY when p = 1."""
    p = _check_exponent(p)
    if p == INFINITY:
        raise InvalidArgumentError("conjugate of the sup exponent is not defined here")
    if p == 1.0:
        return INFINITY
    return p / (p - 1.0)


def _lp_norms(rows: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Product L^p norm (sum_j integral |u_i^(j)|^p)^(1/p) of each row of a (k, m, N) stack.

    Computed in a two-row scratch block instead of a stack-sized temporary.
    numpy's einsum sums a lone row in another order than a stack of rows, so
    blocks of two keep every norm bitwise equal to one contraction over the
    whole stack; an odd last row shares its block with the row before it.  A
    row whose sum of p-th powers overflows, or underflows while the row is
    nonzero, is recomputed as s * (sum w |u/s|^p)^(1/p) with s = max |u|.
    """
    count = rows.shape[0]
    size = min(2, count)
    block = np.empty((size,) + rows.shape[1:])
    sums = np.empty(count)
    for start in range(0, count, 2):
        first = min(start, count - size)
        pair = slice(first, first + size)
        np.abs(rows[pair], out=block)
        if p != 1.0:
            with np.errstate(over="ignore"):  # an overflowed row is recomputed below
                block **= p
        sums[pair] = np.einsum("n,ijn->i", w, block)
    norms = sums ** (1.0 / p)
    for i in np.flatnonzero(~(np.isfinite(sums) & (sums >= np.finfo(float).tiny))):
        scale = float(np.abs(rows[i]).max())
        if scale > 0.0:
            scaled = np.abs(rows[i]) / scale
            scaled **= p
            norms[i] = scale * float(np.einsum("n,jn->", w, scaled)) ** (1.0 / p)
    return norms


def lp_norm(f: ScalarField, p: float, region: RegionMask | None = None) -> float:
    """(sum w |f|^p)^(1/p) over the included nodes; max |f| when p = INFINITY.

    Zero-weight nodes are null sets and do not contribute to the sup norm.
    """
    p = _check_exponent(p)
    inc = _require_shared_grid(f, region)
    vals = f.samples[inc]
    w = f.grid.weights[inc]
    if vals.size == 0:
        return 0.0
    if p == INFINITY:
        carrier = w > 0.0
        if not carrier.any():
            return 0.0
        return float(np.abs(vals[carrier]).max())
    return float(_lp_norms(vals[None, None], w, p)[0])


def product_lp_norm(u: VectorField, p: float) -> float:
    """Norm on the m-fold product space.

    (sum_j ||u_j||_p^p)^(1/p) for finite p, and sum_j ||u_j||_inf for
    p = INFINITY.  Reduces to ``lp_norm`` when m = 1.
    """
    p = _check_exponent(p)
    if p == INFINITY:
        return float(sum(lp_norm(c, INFINITY) for c in u.components))
    return float(_lp_norms(u.matrix()[None], u.grid.weights, p)[0])


def dual_pairing(f: ScalarField, g: ScalarField, region: RegionMask | None = None) -> float:
    """Bilinear pairing: the weighted sum of f*g over the included nodes."""
    if g.grid is not f.grid:
        raise GridMismatchError("paired fields live on different grids")
    inc = _require_shared_grid(f, region)
    w = f.grid.weights[inc]
    return float(np.dot(w, f.samples[inc] * g.samples[inc]))


def holder_minkowski_check(f: ScalarField, g: ScalarField, p: float) -> tuple[float, float]:
    """Slack of the Hoelder and Minkowski inequalities for one field pair.

    Returns ``(holder_margin, minkowski_margin)`` where

        holder_margin    = ||f||_p ||g||_q - |<f, g>|   (q conjugate to p)
        minkowski_margin = ||f||_p + ||g||_p - ||f + g||_p

    Both are nonnegative up to rounding (>= -1e-12 in practice).
    """
    p = _check_exponent(p)
    if p == INFINITY:
        raise InvalidArgumentError("the auxiliary check needs a finite exponent")
    q = conjugate_exponent(p)
    holder = lp_norm(f, p) * lp_norm(g, q) - abs(dual_pairing(f, g))
    minkowski = lp_norm(f, p) + lp_norm(g, p) - lp_norm(f + g, p)
    return float(holder), float(minkowski)
