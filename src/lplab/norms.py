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
    return float(np.dot(w, np.abs(vals) ** p) ** (1.0 / p))


def product_lp_norm(u: VectorField, p: float) -> float:
    """Norm on the m-fold product space.

    (sum_j ||u_j||_p^p)^(1/p) for finite p, and sum_j ||u_j||_inf for
    p = INFINITY.  Reduces to ``lp_norm`` when m = 1.
    """
    p = _check_exponent(p)
    if p == INFINITY:
        return float(sum(lp_norm(c, INFINITY) for c in u.components))
    w = u.grid.weights
    total = 0.0
    for c in u.components:
        total += float(np.dot(w, np.abs(c.samples) ** p))
    return float(total ** (1.0 / p))


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
