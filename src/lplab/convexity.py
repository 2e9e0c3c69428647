"""Liminf inequalities for convex compositions along weakly convergent data.

Checks, on concrete sequences, that

    liminf_i  integral_Omega f(u_i) dmu  >=  integral_Omega f(u) dmu

for nonnegative continuous convex f on a convex set K containing all sampled
values, with three routes:

  * finite p (weak convergence hypothesis),
  * the sup-norm case via truncations Omega_R = Omega intersect {|x| < R}
    with monotone limit-side integrals,
  * the closed-K scenario with the nonnegativity of f dropped, where only
    the conclusion is checked.

"liminf" over an infinite sequence is realized as the infimum over the tail
half of a finite horizon; reports expose the full per-index curve so users
can judge stabilization.  The first two routes also replay the proof chain
on the realized data: Cesaro means of an extracted subsequence must decay,
the convexity inequality must hold nodewise at every k, and the integral of
the pointwise tail infimum must not exceed the tail infimum of the
integrals.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainViolationError,
    ExtractionStalledError,
    InternalConsistencyError,
    InvalidArgumentError,
    LevelStalledError,
    PreconditionViolationError,
)
from .extraction import ExtractionTrace, _check_levels, _select
from .gallery import (
    CONVERGING,
    VectorSequenceSpec,
    _halves,
    _probed_pool,
    default_probe_dictionary,
)
from .grid import (
    RegionMask,
    VectorField,
    _euclidean_norms,
    _finite,
    _finite_array,
    _flag,
    _lo_hi_pairs,
    _positive,
    _require_shared_grid,
    _rounding_budget,
    _slack,
    _spec,
    _unit_scaled,
    _weighted_sum,
    truncate_region,
)
from .norms import INFINITY, _check_exponent, _gather, _lp_norms

__all__ = [
    "SQUARED_NORM",
    "POWER",
    "MAX_AFFINE",
    "CUSTOM_FUNCTION",
    "WHOLE_SPACE",
    "BOX",
    "BALL",
    "HALFSPACES",
    "ConvexFunctionSpec",
    "ConvexSetSpec",
    "CesaroReplay",
    "LiminfReport",
    "WeakStarReport",
    "evaluate_composite",
    "jensen_check",
    "liminf_verify",
    "weak_star_verify",
    "mazur_scenario_verify",
]

SQUARED_NORM = "squared_norm"
POWER = "power"
MAX_AFFINE = "max_affine"
CUSTOM_FUNCTION = "custom"

WHOLE_SPACE = "whole_space"
BOX = "box"
BALL = "ball"
HALFSPACES = "halfspaces"

# Finite-horizon slack of the final liminf margin, relative to the integrals
# it compares: a tail infimum over a finite horizon only approximates the
# liminf.  Every other cutoff here is a rounding budget (grid._rounding_budget).
_PASS_TOL = 1e-6

# Held while a custom evaluator runs.  weak_star_verify evaluates f on two
# threads, and a user's evaluator may keep state or be shared by several
# specs; reentrant, so an evaluator may call another custom spec.
_EVALUATOR_LOCK = threading.RLock()


@dataclass
class ConvexFunctionSpec:
    """Convex integrand on R^m.

    Kinds: ``squared_norm`` (|w|^2), ``power`` (|w|^q for q >= 1),
    ``max_affine`` (max(0, max_i a_i . w + b_i)), or ``custom`` with a
    vectorized evaluator mapping an (N, m) array to an (N,) array.  The
    evaluator is never called on two threads at once.
    """

    kind: str
    power: float = 2.0
    planes: list | None = None
    evaluator: Callable | None = None
    nonnegative: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (SQUARED_NORM, POWER, MAX_AFFINE, CUSTOM_FUNCTION):
            raise InvalidArgumentError(f"unknown convex function kind {self.kind!r}")
        self.power = _finite("power", self.power)
        self.nonnegative = _flag("nonnegative", self.nonnegative)
        if self.kind == POWER and self.power < 1.0:
            raise InvalidArgumentError(f"power must be >= 1 for convexity, got {self.power}")
        if self.kind == MAX_AFFINE:
            self.planes = _affine_pairs("max_affine plane", self.planes)
        if self.kind == CUSTOM_FUNCTION and self.evaluator is None:
            raise InvalidArgumentError("custom convex functions need an evaluator")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == SQUARED_NORM:
            return np.einsum("ij,ij->i", points, points)
        if self.kind == POWER:
            with np.errstate(over="ignore"):  # inf, as squared_norm's sum gives: callers refuse it
                return _euclidean_norms(points) ** self.power
        if self.kind == MAX_AFFINE:
            vals = np.zeros(points.shape[0])
            for a, b in self.planes:
                vals = np.maximum(vals, points @ a + b)
            return vals
        with _EVALUATOR_LOCK:
            out = np.asarray(self.evaluator(points), dtype=float).ravel()
        if out.shape[0] != points.shape[0]:
            raise InvalidArgumentError("custom evaluator returned the wrong length")
        return out

    @classmethod
    def from_config(cls, raw: dict) -> "ConvexFunctionSpec":
        kind, raw, params = _spec("convex function f", raw)
        return cls(
            kind=kind,
            power=params.get("power", 2.0),
            planes=params.get("planes"),
            nonnegative=raw.get("nonnegative", True),
        )


def _affine_pairs(what: str, raw) -> list:
    """raw as a nonempty list of (a, b) with a a nonempty finite vector and b finite.

    what names one pair, such as "halfspace"; a refusal names it.  A pair is
    a list or tuple of two entries; a is read by grid._finite_array, b by
    grid._finite.
    """
    if not isinstance(raw, (list, tuple, type(None))) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in raw or ()
    ):
        raise InvalidArgumentError(f"{what}s must be (a, b) pairs, got {raw!r}")
    if not raw:
        raise InvalidArgumentError(f"{what}s need at least one (a, b) pair")
    pairs = [
        (_finite_array(f"{what} normal", a).ravel(), _finite(f"{what} offset", b)) for a, b in raw
    ]
    if any(a.size == 0 for a, _ in pairs):
        raise InvalidArgumentError(f"{what} normal must be nonempty, got []")
    return pairs


@dataclass
class ConvexSetSpec:
    """Convex subset K of R^m with a vectorized membership test."""

    kind: str
    bounds: np.ndarray | None = None
    center: np.ndarray | tuple = (0.0,)  # the origin, in every component
    radius: float = 1.0
    halfspaces: list | None = None
    closed: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (WHOLE_SPACE, BOX, BALL, HALFSPACES):
            raise InvalidArgumentError(f"unknown convex set kind {self.kind!r}")
        # A non-finite parameter would misread membership, so none is accepted.
        if self.kind == BOX:
            self.bounds = _lo_hi_pairs("box bounds", self.bounds)
            if not np.all(self.bounds[:, 0] <= self.bounds[:, 1]):
                raise InvalidArgumentError(f"box bounds need lo <= hi, got {self.bounds.tolist()}")
        if self.kind == BALL:
            self.center = _finite_array("ball center", self.center).ravel()
            self.radius = _positive("ball radius", self.radius)
        if self.kind == HALFSPACES:
            self.halfspaces = _affine_pairs("halfspace", self.halfspaces)
        self.closed = _flag("closed", self.closed)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership of each point in K, up to the rounding of the point and the test.

        Each comparison is exact first.  Only if one fails is it repeated with
        the slack gamma_(m+2) times K's own scale: the bounds of a box, the
        radius plus the centre of a ball, |a|.|x| for a halfspace a.x <= b.
        Every point lies in a box when each component's extremes do, which
        the same exact comparisons decide from 2m values.  Every point lies
        in a ball when the corner of their bounding box farthest from the
        centre does, its distance computed as each point's is
        (grid._euclidean_norms): rounding is monotone, so no point's computed
        distance exceeds the corner's by more than the slack.  Any other case
        is decided node by node.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == WHOLE_SPACE:
            return np.ones(points.shape[0], dtype=bool)

        def at_most(value, bound, scale):
            ok = value <= bound
            if ok.all():
                return ok
            return value <= bound + _rounding_budget(points.shape[1] + 2, scale())

        if self.kind == BOX:
            def extent():
                return np.abs(self.bounds).max(axis=1)

            lo, hi = self.bounds[:, 0], self.bounds[:, 1]
            if points.size and np.all(lo <= points.min(axis=0)) and np.all(
                points.max(axis=0) <= hi
            ):
                return np.ones(points.shape[0], dtype=bool)
            return np.all(at_most(lo, points, extent) & at_most(points, hi, extent), axis=1)
        if self.kind == BALL:
            with np.errstate(over="ignore"):  # an offset that overflows is far outside
                if points.size:  # the farthest corner's offset, component by component
                    far = np.abs([points.min(axis=0), points.max(axis=0)] - self.center).max(axis=0)
                    if _euclidean_norms(far[None])[0] <= self.radius:
                        return np.ones(points.shape[0], dtype=bool)
                distance = _euclidean_norms(points - self.center)
            return at_most(distance, self.radius, lambda: self.radius + np.abs(self.center).max())
        ok = np.ones(points.shape[0], dtype=bool)
        for a, b in self.halfspaces:
            ok &= at_most(points @ a, b, lambda: np.abs(points) @ np.abs(a))
        return ok

    @classmethod
    def from_config(cls, raw: dict) -> "ConvexSetSpec":
        kind, raw, params = _spec("convex set K", raw)
        return cls(
            kind=kind,
            radius=params.get("radius", 1.0),
            closed=raw.get("closed", True),
            **{name: params[name] for name in ("bounds", "center", "halfspaces") if name in params},
        )


def _check_membership(points: np.ndarray, K: ConvexSetSpec, region: RegionMask, label: str):
    ok = K.contains(points)
    if not ok.all():
        local = int(np.argmin(ok))
        node_index = int(np.flatnonzero(region.included)[local])
        node = region.grid.nodes[node_index]
        raise DomainViolationError(
            f"{label}: sample {points[local].tolist()} at node {node_index} "
            f"{node.tolist()} is outside K",
            node_index=node_index,
            node=node,
        )


def evaluate_composite(
    f: ConvexFunctionSpec,
    u: VectorField,
    region: RegionMask | None = None,
    K: ConvexSetSpec | None = None,
) -> float:
    """Integral of f(u(x)) over the region by nodewise evaluation.

    When K is given, every included sample is checked for membership and a
    violation names the offending node.
    """
    region = region if region is not None else RegionMask.full(u.grid)
    _require_shared_grid(u, region)
    points = u.matrix().T[region.included]
    if K is not None:
        _check_membership(points, K, region, "composite integrand")
    if points.shape[0] == 0:  # f need not take an empty array
        return 0.0
    return _weighted_sum(region.grid.weights[region.included], f(points))


def _mean(values: np.ndarray, axis=None):
    """values.mean(axis), except that a mean which overflows although its
    terms are finite is taken again at the terms' binary scale."""
    mean = values.mean(axis=axis)
    redo = ~np.isfinite(mean) & np.isfinite(values).all(axis=axis)
    if redo.any():
        scaled, e = _unit_scaled(values, axis=axis)
        mean = np.where(redo, np.ldexp(scaled.mean(axis=axis), e), mean)
    return mean


def jensen_check(f: ConvexFunctionSpec, points, K: ConvexSetSpec | None = None) -> float:
    """Mean of f minus f of the mean over a point set; >= 0 for convex f.

    A mean whose sum overflows although its terms are finite is taken at
    their binary scale.  Either term that is not finite, as when f
    overflows, is refused by name.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 1:
        raise InvalidArgumentError("need at least one point")
    if K is not None:
        ok = K.contains(points)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise DomainViolationError(
                f"point {points[bad].tolist()} is outside K", node_index=bad
            )
    with np.errstate(over="ignore"):  # a mean that overflows is refused below
        mean_of_f = float(_mean(f(points)))
        f_of_mean = float(f(_mean(points, axis=0)[None, :])[0])
    for what, value in (("the mean of f over", mean_of_f), ("f at the mean of", f_of_mean)):
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{what} the points is {value}, not finite")
    return mean_of_f - f_of_mean


@dataclass
class CesaroReplay:
    """Proof-chain replay along an extracted subsequence.

    ``jensen_slack[k]`` and ``fatou_slack`` are the rounding budgets a
    negative margin is held to, and zero where the margin is not negative
    (grid._slack).
    """

    indices: list
    cesaro_norms: np.ndarray
    slope: float | None
    converged: bool
    jensen_margins: np.ndarray
    fatou_margin: float | None
    jensen_slack: np.ndarray | float = 0.0
    fatou_slack: float = 0.0

    def ok(self) -> bool:
        checks = [self.converged, bool(np.all(self.jensen_margins >= -self.jensen_slack))]
        if self.fatou_margin is not None:
            checks.append(self.fatou_margin >= -self.fatou_slack)
        return all(checks)


@dataclass
class LiminfReport:
    """Per-index integrals, their running tail infimum, and the final margin."""

    indices: np.ndarray
    alphas: np.ndarray
    tail_infimum: np.ndarray
    limit_integral: float
    margin: float
    passed: bool
    probe: object = None
    replay: CesaroReplay | None = None

    def rows(self):
        return [
            (int(i), float(a), float(t), self.limit_integral, self.margin)
            for i, a, t in zip(self.indices, self.alphas, self.tail_infimum)
        ]


@dataclass
class WeakStarReport:
    """Truncated verifications at increasing radii."""

    radii: list
    reports: list
    limit_integrals: list
    monotone: bool
    passed: bool


def _replay_trace(
    pool: np.ndarray,
    nodes: np.ndarray | None,
    limit: VectorField,
    region: RegionMask,
    p: float,
    szlenk_levels: int,
) -> ExtractionTrace | None:
    """The extraction the proof chain replays, or None when it stalls before 8 picks.

    nodes lists the region's nodes, or is None when the region covers the
    grid.  Both extractions read the members centred on the limit.  The p = 1
    one is restricted to the region and reads each member at its nodes as it
    goes: outside them the centred members would be zero and add nothing to
    any selection sum.  The p > 1 one reads the whole grid.  _select decides
    whether a run shares the selection with its extraction phase.  The replay
    reads only the picks and the Cesaro curve, so a p = 1 selection the run
    does not keep computes no pairings: its trace's are NaN and it never
    leaves the verification.
    """
    centre = limit.matrix()
    if p == 1.0:
        inc = region.included
        w, centre, levels = region.grid.weights[inc], centre[:, inc], szlenk_levels
    else:
        w, nodes, levels = limit.grid.weights, None, None
    try:
        return _select(pool, p, w, levels, centre, nodes, False)[1]
    except (ExtractionStalledError, LevelStalledError) as err:
        trace = getattr(err, "trace", None)
        return trace if trace is not None and trace.length >= 8 else None


def _admissible_values(
    f: ConvexFunctionSpec, points: np.ndarray, region: RegionMask, K: ConvexSetSpec, where: str
) -> np.ndarray:
    """f at the points after the values-in-K and nonnegativity hypotheses.

    The region holds a node (_check_region_nodes), so f never takes an empty array.
    """
    try:
        _check_membership(points, K, region, where)
    except DomainViolationError as err:
        raise PreconditionViolationError(
            f"values-in-K hypothesis failed: {err}", hypothesis="values in K"
        ) from err
    values = f(points)
    # f may dip below zero by the rounding of its largest value, no further.
    if f.nonnegative and values.min() < 0.0 and values.min() < -_rounding_budget(
        points.shape[1] + 2, float(np.abs(values).max())
    ):
        raise PreconditionViolationError(
            f"nonnegativity hypothesis failed: f reaches {values.min()} on {where}",
            hypothesis="nonnegativity of f",
        )
    return values


def _verify_on_region(
    pool: np.ndarray,
    limit: VectorField,
    f: ConvexFunctionSpec,
    K: ConvexSetSpec,
    region: RegionMask,
    probe,
    p: float | None = None,
    szlenk_levels: int = 3,
) -> LiminfReport:
    """The tail-infimum comparison on the region, replaying the proof chain when p is given.

    The extraction reads only pool values, so it runs first.  One pass over
    the members then turns each member's admissible f values into alpha_i
    and, at a pick, feeds the same values to the nodewise Jensen step.
    A region that covers the grid reads the pool's rows; any other reads
    each member at its nodes into one scratch row, never a copy of the pool.
    """
    horizon, m = pool.shape[:2]
    inc = region.included
    weights = region.grid.weights[inc]
    nodes = None if inc.all() else np.flatnonzero(inc)
    trace = None if p is None else _replay_trace(pool, nodes, limit, region, p, szlenk_levels)

    def integrate(points: np.ndarray, where: str) -> tuple[np.ndarray, float]:
        values = _admissible_values(f, points, region, K, where)
        value = _weighted_sum(weights, values)
        if not math.isfinite(value):
            raise InvalidArgumentError(f"the integral of f over {where} is {value}, not finite")
        return values, value

    centre = limit.matrix()
    _, limit_integral = integrate(centre.T[inc], "the limit field")
    picks = list(trace.indices) if trace is not None else []
    jensen_margins = np.empty(len(picks))
    jensen_slack = np.zeros(len(picks))
    tail_start = len(picks) // 2
    tail_integral_min = math.inf
    # Running means of the picked points and of their f values, each with a
    # scratch row for the step; f's row then takes the Jensen margins
    # mean_f - f(mean).  A mean is updated as mean (k-1)/k + x/k, so no
    # intermediate exceeds max(|mean|, |x|): running sums overflow near the
    # float limit while every alpha_i is finite.
    n = weights.size
    mean_points, points_step = np.zeros((2, n, m))
    mean_f, f_step = np.zeros((2, n))
    # Both tail minima start at +inf; a trace's last pick lies in the tail half.
    tail_min_field = np.full(n, math.inf)
    row = np.empty((m, n))
    alphas = np.empty(horizon)
    k = 0
    for i in range(1, horizon + 1):
        points = _gather(pool[i - 1], nodes, row).T
        fv, alphas[i - 1] = integrate(points, f"sequence member {i}")
        if k == len(picks) or picks[k] != i:
            continue
        k += 1
        # Jensen nodewise along the extracted family, on the region nodes only.
        for mean, x, step in ((mean_points, points, points_step), (mean_f, fv, f_step)):
            mean *= (k - 1) / k
            mean += np.divide(x, k, out=step)
        f_mean = f(mean_points)
        jensen_margins[k - 1] = float(np.subtract(mean_f, f_mean, out=f_step).min())
        if jensen_margins[k - 1] < 0.0:
            # Both means take 4 roundings per update, and |w|^2 of a mean
            # doubles its error and adds m: within gamma_(12k+m) of mean f.
            jensen_slack[k - 1] = _rounding_budget(12 * k + m, float(mean_f.max()))
        if k > tail_start:
            tail_integral_min = min(tail_integral_min, _weighted_sum(weights, f_mean))
            np.minimum(tail_min_field, f_mean, out=tail_min_field)

    tail_infimum = np.minimum.accumulate(alphas[::-1])[::-1]
    margin = float(tail_infimum[horizon // 2] - limit_integral)
    passed = margin >= 0.0 or margin >= -_PASS_TOL * max(
        abs(limit_integral), float(alphas.max())
    )
    # A replay that stalled before 8 picks reads as an empty one, which fails.
    chain = None if p is None else CesaroReplay([], np.zeros(0), None, False, np.zeros(0), None)
    if trace is not None:
        # A centred replay read the members as u_i - u.
        centre_norm = _lp_norms(centre[None], limit.grid.weights, p)[0] if centre.any() else 0.0
        zero, slope, converged = trace._cesaro_slope(centre_norm)
        if not zero and slope is None:  # no fit: recorded as flat
            slope = 0.0
        fatou_margin = tail_integral_min - _weighted_sum(weights, tail_min_field)
        # Two sums of n nonnegative terms, neither above tail_integral_min.
        fatou_slack = _slack(fatou_margin, 2 * n + 2, tail_integral_min)
        chain = CesaroReplay(
            picks, trace.cesaro_norms, slope, converged, jensen_margins, fatou_margin,
            jensen_slack, fatou_slack,
        )
    if chain is not None:
        passed = passed and chain.ok()
    return LiminfReport(
        indices=np.arange(1, horizon + 1),
        alphas=alphas,
        tail_infimum=tail_infimum,
        limit_integral=limit_integral,
        margin=margin,
        passed=passed,
        probe=probe,
        replay=chain,
    )


def _check_dimensions(f: ConvexFunctionSpec, K: ConvexSetSpec, m: int) -> None:
    """Refuse parameters of f and K that do not fit values in R^m.

    Plane and halfspace normals need m entries.  Box bounds and ball centres
    need m entries or one, which then applies to every component.
    """
    normals = [("max_affine plane", a) for a, _ in f.planes] if f.kind == MAX_AFFINE else []
    if K.kind == HALFSPACES:
        normals += [("halfspace", a) for a, _ in K.halfspaces]
    for what, a in normals:
        if a.size != m:
            raise InvalidArgumentError(
                f"{what} normal {a.tolist()} has {a.size} entries, not m = {m}"
            )
    if K.kind == BOX:
        what, size = "box bounds", K.bounds.shape[0]
    elif K.kind == BALL:
        what, size = "ball centre", K.center.size
    else:
        return
    if size not in (1, m):
        raise InvalidArgumentError(f"{what} give {size} components, neither 1 nor m = {m}")


def _check_r_schedule(r_schedule) -> list:
    """The radii as floats (grid._positive), once they are nonempty and strictly increasing."""
    radii = [_positive("R schedule radius", r) for r in r_schedule]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidArgumentError(f"R schedule must be nonempty and strictly increasing: {radii}")
    return radii


def _check_region_nodes(
    region: RegionMask, first_radius: float | None = None, truncated: RegionMask | None = None
) -> None:
    """Refuse a region, or its truncation at the first radius, that holds no node.

    truncated is that truncation when the caller has built it already.  Radii
    increase, so a nonempty first truncation leaves every later one nonempty.
    """
    if not region.included.any():
        raise InvalidArgumentError("the region holds no grid node")
    if first_radius is None:
        return
    if truncated is None:
        truncated = truncate_region(region, first_radius)
    if not truncated.included.any():
        raise InvalidArgumentError(
            f"the region truncated at radius {first_radius:g} holds no grid node"
        )


def _require_nonnegative(f: ConvexFunctionSpec) -> None:
    if not f.nonnegative:
        raise PreconditionViolationError(
            "nonnegativity hypothesis failed: f is declared sign-indefinite",
            hypothesis="nonnegativity of f",
        )


def _converging_pool(
    seq: VectorSequenceSpec, limit: VectorField, f: ConvexFunctionSpec, K: ConvexSetSpec,
    region: RegionMask, p: float, horizon: int, dictionary: list | None,
):
    """The member pool and its probe report, once the hypotheses every route shares hold.

    f and K must fit values in R^m, with m the limit's component count, and the
    region must hold a node.  The probe reads weak convergence for finite p and
    weak* convergence for p = infinity.
    """
    _require_shared_grid(limit, region)
    _check_dimensions(f, K, limit.m)
    _check_region_nodes(region)
    if dictionary is None:
        dictionary = default_probe_dictionary(limit.grid)
    pool, probe = _probed_pool(seq, limit, p, dictionary, horizon)
    if probe.verdict != CONVERGING:
        name = "weak* convergence probe" if p == INFINITY else "weak convergence probe"
        raise PreconditionViolationError(
            f"{name} hypothesis failed: verdict {probe.verdict!r}", hypothesis=name
        )
    return pool, probe


def liminf_verify(
    seq: VectorSequenceSpec,
    limit: VectorField,
    f: ConvexFunctionSpec,
    K: ConvexSetSpec,
    region: RegionMask,
    p: float,
    horizon: int,
    dictionary: list | None = None,
    szlenk_levels: int = 3,
) -> LiminfReport:
    """Tail-infimum comparison of integral f(u_i) against integral f(u).

    Hypotheses are enforced before any verdict: f must be declared (and is
    spot-checked) nonnegative, all sampled values of the sequence and the
    limit must lie in K, and the weak-convergence probe must return
    ``converging``; failures raise a precondition violation naming the
    hypothesis.  The proof chain (Cesaro extraction, nodewise convexity
    inequality at every k, pointwise-tail versus integral-tail infimum) is
    replayed on the realized data and folded into the verdict.
    """
    p = _check_exponent(p)
    if p == INFINITY:
        raise InvalidArgumentError(
            "the sup-norm route is weak_star_verify / mazur_scenario_verify"
        )
    if p == 1.0:
        szlenk_levels = _check_levels(szlenk_levels)
    _require_nonnegative(f)
    pool, probe = _converging_pool(seq, limit, f, K, region, p, horizon, dictionary)
    return _verify_on_region(pool, limit, f, K, region, probe, p, szlenk_levels)


def weak_star_verify(
    seq: VectorSequenceSpec,
    limit: VectorField,
    f: ConvexFunctionSpec,
    K: ConvexSetSpec,
    region: RegionMask,
    horizon: int,
    r_schedule,
    dictionary: list | None = None,
    szlenk_levels: int = 3,
) -> WeakStarReport:
    """Sup-norm route: verify on truncations Omega_R for an increasing R list.

    Each truncation runs the p = 1 verification with the extraction
    restricted to the truncated region; the limit-side integrals must be
    non-decreasing in R, realizing the monotone-convergence step.  A first
    truncation that holds no node is refused before the pool is built.
    Radii whose truncations hold the same node set share one report, so each
    distinct truncation is verified once.  The distinct truncations are
    verified on up to two threads, split by node count, with the reports and
    errors of a run in radius order.
    """
    radii = _check_r_schedule(r_schedule)
    szlenk_levels = _check_levels(szlenk_levels)
    _require_nonnegative(f)
    truncations = [truncate_region(region, radius) for radius in radii]
    _check_region_nodes(region, radii[0], truncations[0])
    pool, probe = _converging_pool(seq, limit, f, K, region, INFINITY, horizon, dictionary)
    # One entry per run of consecutive radii with equal node masks.
    distinct, group = [], []
    for truncation in truncations:
        if not distinct or not np.array_equal(truncation.included, distinct[-1].included):
            distinct.append(truncation)
        group.append(len(distinct) - 1)
    verified = [None] * len(distinct)

    def verify(lo: int, hi: int) -> None:
        # Everything the verification reads is passed in: a worker thread
        # does not see the caller's run memo, so its _shared calls compute
        # without storing.
        for k in range(lo, hi):
            verified[k] = _verify_on_region(
                pool, limit, f, K, distinct[k], probe, 1.0, szlenk_levels
            )

    _halves([int(t.included.sum()) for t in distinct], verify)
    reports = [verified[k] for k in group]
    limit_integrals = [report.limit_integral for report in reports]
    # Each integral sums at most N terms w f, f rounded m + 1 times.
    n = limit.grid.node_count + limit.m + 2
    monotone = all(
        b >= a or b >= a - _rounding_budget(n, abs(a) + abs(b))
        for a, b in zip(limit_integrals, limit_integrals[1:])
    )
    if not monotone:
        raise InternalConsistencyError(
            f"limit-side integrals decreased along the R schedule: {limit_integrals}"
        )
    passed = all(r.passed for r in reports)
    return WeakStarReport(
        radii=radii,
        reports=reports,
        limit_integrals=limit_integrals,
        monotone=monotone,
        passed=passed,
    )


def mazur_scenario_verify(
    seq: VectorSequenceSpec,
    limit: VectorField,
    f: ConvexFunctionSpec,
    K: ConvexSetSpec,
    region: RegionMask,
    horizon: int,
    dictionary: list | None = None,
) -> LiminfReport:
    """Closed-K scenario: nonnegativity of f dropped, only the conclusion checked.

    Requires K closed and a converging weak* probe; there is no proof replay
    because this route's argument lives outside the package.
    """
    if not K.closed:
        raise PreconditionViolationError(
            "the closed-K scenario needs a closed convex set",
            hypothesis="closedness of K",
        )
    pool, probe = _converging_pool(seq, limit, f, K, region, INFINITY, horizon, dictionary)
    return _verify_on_region(pool, limit, f, K, region, probe)
