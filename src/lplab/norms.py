"""L^p and sup norms on sampled fields, conjugate exponents, dual pairings.

Exponents are plain floats; ``INFINITY`` (``math.inf``) is the distinguished
sup-norm value.  On a grid every node with positive weight carries mass, so
the essential supremum is realized as a plain maximum over those nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError
from .grid import (
    RegionMask, ScalarField, VectorField, _number, _require_shared_grid, _unit_scaled,
    _weighted_sum,
)

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
    """p as a float (grid._number) once it is >= 1 or INFINITY, or refused."""
    p = _number("exponent", p)
    if not p >= 1.0:  # NaN included
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


def _abs_power(x: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """|x|^p into out.  At p = 2 one square: x x rounds as |x| |x| does, the bits of |x|**2."""
    if p == 2.0:
        return np.square(x, out=out)
    np.abs(x, out=out)
    if p != 1.0:
        out **= p
    return out


def _gather(rows: np.ndarray, nodes: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """rows at a region's nodes (the last axis), the one read of member rows on a region.

    rows themselves when nodes is None (the whole grid); otherwise gathered
    into out.  In numpy's default "raise" mode take writes through a hidden
    temporary the size of out; the nodes are valid indices, so "clip" changes no value.
    """
    if nodes is None:
        return rows
    return np.take(rows, nodes, axis=-1, out=out, mode="clip")


def _lp_norms(
    rows: np.ndarray, w: np.ndarray, p: float, centre=None, nodes=None
) -> np.ndarray:
    """Product L^p norm (sum_j integral |u_i^(j)|^p)^(1/p) of each row of a (k, m, N) stack.

    With a node list, each row is read at those nodes only, and w and the
    centre hold one entry per listed node.  With a centre of shape (m, n),
    each row is read as u_i - centre.
    Computed in a two-row scratch block instead of a stack-sized temporary,
    and a pair read at a node list is gathered straight into that block.
    numpy's einsum sums a lone row in another order than a stack of rows, so
    blocks of two keep every norm bitwise equal to one contraction over the
    whole stack; an odd last row shares its block with the row before it.  A
    row whose sum of p-th powers overflows or underflows is recomputed at its
    own binary scale: 2^e (sum w |u 2^-e|^p)^(1/p) (_unit_scaled).
    """
    count, m = rows.shape[:2]
    size = min(2, count)
    block = np.empty((size, m, w.size))
    sums = np.empty(count)
    for start in range(0, count, 2):
        first = min(start, count - size)
        pair = slice(first, first + size)
        read = _gather(rows[pair], nodes, block)
        if centre is not None:
            read = np.subtract(read, centre, out=block)
        with np.errstate(over="ignore"):  # an overflowed row is recomputed below
            _abs_power(read, p, block)
        sums[pair] = np.einsum("n,ijn->i", w, block)
    norms = sums ** (1.0 / p)
    for i in np.flatnonzero(~(np.isfinite(sums) & (sums >= np.finfo(float).tiny))):
        row = _gather(rows[i], nodes, block[0])
        unit, e = _unit_scaled(row if centre is None else row - centre)
        _abs_power(unit, p, unit)
        norms[i] = np.ldexp(float(np.einsum("n,jn->", w, unit)) ** (1.0 / p), e)
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
    return _weighted_sum(f.grid.weights[inc], f.samples[inc] * g.samples[inc])


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
