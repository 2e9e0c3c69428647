"""Weighted quadrature grids and sampled scalar/vector fields.

The continuous objects of interest (a nonnegative measure on R^n, measurable
functions, measurable regions) are represented by a finite node list with
nonnegative cell weights, sample arrays at the nodes, and boolean node masks.
Every integral in the package is a finite weighted sum over such a grid.

All values are immutable after construction (sample and weight arrays are
marked read-only) and every operation here is pure, so shared instances are
safe to use concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError

__all__ = [
    "QuadratureGrid",
    "RegionMask",
    "ScalarField",
    "VectorField",
    "build_uniform_grid",
    "integrate",
    "truncate_region",
]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass
class QuadratureGrid:
    """Finite stand-in for (R^n, mu): nodes with nonnegative cell weights.

    Attributes:
        dimension: n, the ambient dimension.
        nodes: (N, n) array of pairwise-distinct points.
        weights: (N,) array of nonnegative cell measures.
        domain_box: (n, 2) per-axis (lower, upper) bounds.
        resolution: per-axis node counts for tensor-product grids, if known.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray
    domain_box: np.ndarray
    resolution: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        weights = np.asarray(self.weights, dtype=float).ravel()
        box = np.asarray(self.domain_box, dtype=float).reshape(-1, 2)
        if self.dimension < 1:
            raise InvalidArgumentError(f"dimension must be >= 1, got {self.dimension}")
        if nodes.shape[1] != self.dimension or box.shape[0] != self.dimension:
            raise InvalidArgumentError(
                f"nodes/domain_box do not match dimension {self.dimension}"
            )
        if nodes.shape[0] < 1 or nodes.shape[0] != weights.shape[0]:
            raise InvalidArgumentError(
                f"need >= 1 node and matching weights, got {nodes.shape[0]} nodes "
                f"and {weights.shape[0]} weights"
            )
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(box)):
            raise InvalidArgumentError("grid nodes and bounds must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise InvalidArgumentError("weights must be finite and nonnegative")
        # Nodes in strictly increasing lexicographic order, as every uniform
        # grid lists them, are distinct; otherwise, sorted, equal nodes are
        # neighbours.
        if not _strictly_increasing(nodes):
            ordered = nodes[np.lexsort(nodes.T[::-1])]
            if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
                raise InvalidArgumentError("grid nodes must be pairwise distinct")
        self.nodes = _frozen(nodes)
        self.weights = _frozen(weights)
        self.domain_box = _frozen(box)
        if self.resolution is not None:
            self.resolution = tuple(int(r) for r in self.resolution)

    @functools.cached_property
    def _node_norms(self) -> np.ndarray:
        """Euclidean norm of every node, computed once per grid (truncate_region reads it)."""
        return _frozen(_euclidean_norms(self.nodes))

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def axis_length(self, axis: int = 0) -> float:
        lo, hi = self.domain_box[axis]
        return float(hi - lo)

    def axis_resolution(self, axis: int = 0) -> int:
        """Node count along one axis (distinct coordinate values if unknown)."""
        if self.resolution is not None:
            return self.resolution[axis]
        return int(np.unique(self.nodes[:, axis]).size)


def _strictly_increasing(nodes: np.ndarray) -> bool:
    """Whether each row of an (N, n) array is lexicographically below the next.

    Decided from the last column back: a pair is increasing from column j on
    when it increases in column j, or ties there and increases after it.
    """
    before, after = nodes[:-1], nodes[1:]
    increasing = before[:, -1] < after[:, -1]
    for j in range(nodes.shape[1] - 2, -1, -1):
        increasing = (before[:, j] < after[:, j]) | ((before[:, j] == after[:, j]) & increasing)
    return bool(increasing.all())


def _uniform_axes(domain_box, resolution) -> tuple[np.ndarray, tuple[int, ...]]:
    """The box as an (n, 2) array and the node count per axis, both validated."""
    box = np.asarray(domain_box, dtype=float).reshape(-1, 2)
    n = box.shape[0]
    if np.isscalar(resolution):
        res = (int(resolution),) * n
    else:
        res = tuple(int(r) for r in resolution)
    if len(res) != n:
        raise InvalidArgumentError(f"resolution needs {n} entries, got {len(res)}")
    if any(r < 1 for r in res):
        raise InvalidArgumentError(f"resolution must be >= 1 per axis, got {res}")
    if not np.all(np.isfinite(box)) or np.any(box[:, 0] >= box[:, 1]):
        raise InvalidArgumentError(f"bounds must be finite with lower < upper: {box.tolist()}")
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(~np.isfinite(box[:, 1] - box[:, 0]))
    if wide.size:
        lo, hi = box[wide[0]]
        raise InvalidArgumentError(
            f"axis {wide[0]} of the box is too wide: its width {hi:g} - ({lo:g}) overflows "
            "the float range"
        )
    return box, res


def build_uniform_grid(domain_box, resolution) -> QuadratureGrid:
    """Tensor-product midpoint grid on a box; each weight is its cell volume.

    Args:
        domain_box: sequence of (lower, upper) pairs, one per axis.
        resolution: node count per axis (an int applies to every axis).

    The weights sum to the box volume exactly up to rounding.  Node i of an
    axis sits at lo + (i + 1/2) width / r, formed at the width's binary
    scale (_unit_scaled): the bits of that formula wherever its products are
    normal floats, and finite on an axis where (r - 1/2) width overflows.  A
    cell volume that overflows the float range is refused.
    """
    box, res = _uniform_axes(domain_box, resolution)
    axes, widths = [], []
    for (lo, hi), r in zip(box.tolist(), res):
        widths.append((hi - lo) / r)
        unit, e = _unit_scaled(hi - lo)
        axes.append(lo + np.ldexp((np.arange(r) + 0.5) * unit / r, e))
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    cell = math.prod(widths)
    if not math.isfinite(cell):
        raise InvalidArgumentError(
            f"the cell volume of the box {box.tolist()} at resolution {list(res)} overflows "
            f"the float range: the product of the cell widths {widths}"
        )
    weights = np.full(nodes.shape[0], cell)
    return QuadratureGrid(box.shape[0], nodes, weights, box, res)


@dataclass
class RegionMask:
    """Measurable region: a boolean inclusion flag per grid node."""

    grid: QuadratureGrid
    included: np.ndarray

    def __post_init__(self) -> None:
        included = np.asarray(self.included, dtype=bool).ravel()
        if included.shape[0] != self.grid.node_count:
            raise InvalidArgumentError(
                f"mask length {included.shape[0]} != node count {self.grid.node_count}"
            )
        self.included = _frozen(included)

    @classmethod
    def full(cls, grid: QuadratureGrid) -> "RegionMask":
        return cls(grid, np.ones(grid.node_count, dtype=bool))

    @classmethod
    def empty(cls, grid: QuadratureGrid) -> "RegionMask":
        return cls(grid, np.zeros(grid.node_count, dtype=bool))

    def measure(self) -> float:
        return float(self.grid.weights[self.included].sum())


def _require_finite(samples) -> None:
    """Refuse samples, an array or a number, that hold a NaN or an infinity."""
    if not np.all(np.isfinite(samples)):
        raise InvalidArgumentError("field samples must be finite (no NaN/Inf)")


@dataclass
class ScalarField:
    """Real-valued function sampled at the grid nodes. Samples must be finite."""

    grid: QuadratureGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float).ravel()
        if samples.shape[0] != self.grid.node_count:
            raise InvalidArgumentError(
                f"sample length {samples.shape[0]} != node count {self.grid.node_count}"
            )
        _require_finite(samples)
        self.samples = _frozen(samples)

    @classmethod
    def constant(cls, grid: QuadratureGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.node_count, float(value)))

    def _binary(self, other: "ScalarField", op) -> "ScalarField":
        if other.grid is not self.grid:
            raise GridMismatchError("fields live on different grids")
        return ScalarField(self.grid, op(self.samples, other.samples))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return self._binary(other, np.add)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self._binary(other, np.subtract)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.samples * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.samples)


@dataclass
class VectorField:
    """m-tuple of scalar fields sharing one grid."""

    components: list

    def __post_init__(self) -> None:
        if len(self.components) < 1:
            raise InvalidArgumentError("a vector field needs at least one component")
        grid = self.components[0].grid
        for c in self.components[1:]:
            if c.grid is not grid:
                raise GridMismatchError("all components must reference the identical grid")

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def grid(self) -> QuadratureGrid:
        return self.components[0].grid

    def matrix(self) -> np.ndarray:
        """Samples stacked as an (m, N) array."""
        return np.stack([c.samples for c in self.components])

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, scalar: float) -> "VectorField":
        return VectorField([c * scalar for c in self.components])

    __rmul__ = __mul__


def _require_shared_grid(f: ScalarField, region: RegionMask | None):
    """Index selecting the region's nodes; without a region, every node.

    The region-less index is a plain slice, so the weights and samples are
    read in place instead of copied through a full boolean mask.
    """
    if region is None:
        return slice(None)
    if region.grid is not f.grid:
        raise GridMismatchError("field and region live on different grids")
    return region.included


def _weighted_sum(w: np.ndarray, v: np.ndarray) -> float:
    """sum_j w_j v_j, the one quadrature sum of the package.

    numpy's add.reduce sums pairwise, so the rounding error grows like
    log N rather than N, and it calls no BLAS: the bits do not depend on the
    BLAS thread count, and callers on two threads start no BLAS threads.
    """
    return float(np.add.reduce(w * v))


_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


def _euclidean_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of an (N, n) array.

    np.linalg.norm's value wherever the sum of squares is a normal float.
    sqrt is monotone and sqrt(tiny) is exact, so a norm below sqrt(tiny)
    comes from a sum that fell below the normal range.  Such a row, and one
    whose sum overflows, is summed at its own binary scale instead.
    """
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(points, axis=1)
        rows = np.flatnonzero((norms < _SQRT_TINY) | (norms == np.inf))
        unit, e = _unit_scaled(points[rows], axis=1)
        norms[rows] = np.ldexp(np.sqrt(np.add.reduce(unit * unit, axis=1)), e)
    return norms


def _unit_scaled(x, axis=None):
    """(x 2^-e, e), with e the exponent that brings the largest |x| into [1/2, 1).

    Along axis, if given, e is taken per slice and has x's shape less that
    axis; e is 0 where the largest |x| is 0.  Scaling by a power of two is
    exact, and commutes with rounding, while no value is subnormal or
    infinite (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., section 2.1).  So the largest square or p-th power of x 2^-e is a
    normal float, and a result formed from them scales back by 2^e exactly
    unless that result itself leaves the range.
    """
    e = np.frexp(np.max(np.abs(x), axis=axis, keepdims=True))[1]
    return np.ldexp(x, -e), e.squeeze(axis)


def _rounding_budget(n: int, scale):
    """gamma_n * scale, with gamma_n = n u / (1 - n u) and u the unit roundoff.

    A sum of n terms whose absolute values add up to at most scale, summed
    in any order, is within this of its exact value (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 3.1); n also counts
    the roundings that made each term.  Every verdict that asks "is this
    difference rounding noise?" compares it with this budget, computed from
    the data it compares, so the verdict is the same for lambda times that
    data.  scale may be an array.
    """
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu) * scale


def integrate(f: ScalarField, region: RegionMask | None = None) -> float:
    """Weighted sum of the samples over the included nodes. Linear in f."""
    inc = _require_shared_grid(f, region)
    return _weighted_sum(f.grid.weights[inc], f.samples[inc])


def truncate_region(region: RegionMask, radius: float) -> RegionMask:
    """Intersect a region with the open Euclidean ball of the given radius.

    Monotone in the radius: a larger ball never removes nodes.
    """
    if not np.isfinite(radius) or radius <= 0.0:
        raise InvalidArgumentError(f"truncation radius must be positive, got {radius}")
    return RegionMask(region.grid, region.included & (region.grid._node_norms < radius))
