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
from .extraction import _banach_saks_select, _szlenk_select
from .gallery import (
    CONVERGING,
    VectorSequenceSpec,
    _centred,
    _loglog_slope,
    _probed_pool,
    default_probe_dictionary,
)
from .grid import RegionMask, VectorField, truncate_region
from .norms import INFINITY, _check_exponent

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

_MEMBERSHIP_TOL = 1e-12
_JENSEN_TOL = 1e-12
_PASS_TOL = 1e-6  # relative tolerance of the final liminf margin


@dataclass
class ConvexFunctionSpec:
    """Convex integrand on R^m.

    Kinds: ``squared_norm`` (|w|^2), ``power`` (|w|^q for q >= 1),
    ``max_affine`` (max(0, max_i a_i . w + b_i)), or ``custom`` with a
    vectorized evaluator mapping an (N, m) array to an (N,) array.
    """

    kind: str
    power: float = 2.0
    planes: list | None = None
    evaluator: Callable | None = None
    nonnegative: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (SQUARED_NORM, POWER, MAX_AFFINE, CUSTOM_FUNCTION):
            raise InvalidArgumentError(f"unknown convex function kind {self.kind!r}")
        if self.kind == POWER and self.power < 1.0:
            raise InvalidArgumentError(f"power must be >= 1 for convexity, got {self.power}")
        if self.kind == MAX_AFFINE:
            if not self.planes:
                raise InvalidArgumentError("max_affine needs at least one (a, b) plane")
            self.planes = [(np.asarray(a, dtype=float).ravel(), float(b)) for a, b in self.planes]
        if self.kind == CUSTOM_FUNCTION and self.evaluator is None:
            raise InvalidArgumentError("custom convex functions need an evaluator")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == SQUARED_NORM:
            return np.einsum("ij,ij->i", points, points)
        if self.kind == POWER:
            return np.linalg.norm(points, axis=1) ** self.power
        if self.kind == MAX_AFFINE:
            vals = np.zeros(points.shape[0])
            for a, b in self.planes:
                vals = np.maximum(vals, points @ a + b)
            return vals
        out = np.asarray(self.evaluator(points), dtype=float).ravel()
        if out.shape[0] != points.shape[0]:
            raise InvalidArgumentError("custom evaluator returned the wrong length")
        return out

    @classmethod
    def from_config(cls, raw: dict) -> "ConvexFunctionSpec":
        params = dict(raw.get("params") or {})
        planes = params.get("planes")
        if planes is not None:
            planes = [(np.asarray(a, dtype=float), float(b)) for a, b in planes]
        return cls(
            kind=str(raw["kind"]).lower(),
            power=float(params.get("power", 2.0)),
            planes=planes,
            nonnegative=bool(raw.get("nonnegative", True)),
        )


@dataclass
class ConvexSetSpec:
    """Convex subset K of R^m with a vectorized membership test."""

    kind: str
    bounds: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float = 1.0
    halfspaces: list | None = None
    closed: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (WHOLE_SPACE, BOX, BALL, HALFSPACES):
            raise InvalidArgumentError(f"unknown convex set kind {self.kind!r}")
        if self.kind == BOX:
            self.bounds = np.asarray(self.bounds, dtype=float).reshape(-1, 2)
        if self.kind == BALL:
            self.center = np.asarray(self.center, dtype=float).ravel()
            if self.radius <= 0:
                raise InvalidArgumentError(f"ball radius must be positive, got {self.radius}")
        if self.kind == HALFSPACES:
            if not self.halfspaces:
                raise InvalidArgumentError("halfspace sets need at least one (a, b)")
            self.halfspaces = [
                (np.asarray(a, dtype=float).ravel(), float(b)) for a, b in self.halfspaces
            ]

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == WHOLE_SPACE:
            return np.ones(points.shape[0], dtype=bool)
        if self.kind == BOX:
            lo = self.bounds[:, 0] - _MEMBERSHIP_TOL
            hi = self.bounds[:, 1] + _MEMBERSHIP_TOL
            return np.all((points >= lo) & (points <= hi), axis=1)
        if self.kind == BALL:
            return np.linalg.norm(points - self.center, axis=1) <= self.radius + _MEMBERSHIP_TOL
        ok = np.ones(points.shape[0], dtype=bool)
        for a, b in self.halfspaces:
            ok &= points @ a <= b + _MEMBERSHIP_TOL
        return ok

    @classmethod
    def from_config(cls, raw: dict) -> "ConvexSetSpec":
        params = dict(raw.get("params") or {})
        return cls(
            kind=str(raw["kind"]).lower(),
            bounds=params.get("bounds"),
            center=params.get("center", [0.0]),
            radius=float(params.get("radius", 1.0)),
            halfspaces=params.get("halfspaces"),
            closed=bool(raw.get("closed", True)),
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


def _require_region_grid(u: VectorField, region: RegionMask) -> None:
    if region.grid is not u.grid:
        raise InvalidArgumentError("field and region live on different grids")


def _composite_values(
    f: ConvexFunctionSpec,
    points: np.ndarray,
    region: RegionMask,
    K: ConvexSetSpec | None,
    label: str,
) -> np.ndarray:
    """f at the (n_region, m) points sampled at the region's nodes, after the K check."""
    if K is not None:
        _check_membership(points, K, region, label)
    if points.shape[0] == 0:
        return np.zeros(0)
    return f(points)


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
    _require_region_grid(u, region)
    points = u.matrix().T[region.included]
    values = _composite_values(f, points, region, K, "composite integrand")
    if values.size == 0:
        return 0.0
    return float(np.dot(region.grid.weights[region.included], values))


def jensen_check(f: ConvexFunctionSpec, points, K: ConvexSetSpec | None = None) -> float:
    """Mean of f minus f of the mean over a point set; >= 0 for convex f."""
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
    mean_of_f = float(f(points).mean())
    f_of_mean = float(f(points.mean(axis=0)[None, :])[0])
    return mean_of_f - f_of_mean


@dataclass
class CesaroReplay:
    """Proof-chain replay along an extracted subsequence."""

    indices: list
    cesaro_norms: np.ndarray
    slope: float | None
    converged: bool
    jensen_margins: np.ndarray
    fatou_margin: float | None

    def ok(self) -> bool:
        checks = [self.converged]
        if self.jensen_margins.size:
            checks.append(bool(self.jensen_margins.min() >= -_JENSEN_TOL))
        if self.fatou_margin is not None:
            checks.append(self.fatou_margin >= -_JENSEN_TOL)
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


def _replay(
    pool: np.ndarray,
    members: np.ndarray,
    limit: VectorField,
    f: ConvexFunctionSpec,
    region: RegionMask,
    p: float,
    szlenk_levels: int,
) -> CesaroReplay:
    """Replay the proof chain; members is the pool at the region's nodes."""
    limit_samples = limit.matrix()
    inc = region.included
    w = region.grid.weights[inc]
    try:
        if p == 1.0:
            # The p = 1 extraction is restricted to the region.  Outside it the
            # centred members would be zero and add nothing to any selection
            # sum, so the extraction reads the region's nodes only.
            centred = _centred(members, limit_samples[:, inc])
            _, trace = _szlenk_select(centred, w, szlenk_levels)
        else:
            centred = _centred(pool, limit_samples)
            trace = _banach_saks_select(centred, p, limit.grid.weights)
    except (ExtractionStalledError, LevelStalledError) as err:
        trace = getattr(err, "trace", None)
        if trace is None or trace.length < 8:
            return CesaroReplay(
                indices=[],
                cesaro_norms=np.zeros(0),
                slope=None,
                converged=False,
                jensen_margins=np.zeros(0),
                fatou_margin=None,
            )

    values = trace.cesaro_norms
    if float(values.max()) <= 1e-12:
        slope, converged = None, True
    else:
        slope = _loglog_slope(np.arange(1, values.size + 1, dtype=float), values)
        if slope is None:
            slope = 0.0
        converged = slope < -0.05

    # Jensen nodewise along the extracted family, on the region nodes only.
    length = trace.length
    running_points = None
    running_f = None
    jensen_margins = np.empty(length)
    tail_start = length // 2
    tail_min_field = None
    tail_integral_min = math.inf
    for k, idx in enumerate(trace.indices, start=1):
        pts = members[idx - 1].T
        fv = f(pts)
        if running_points is None:
            running_points = pts.copy()
            running_f = fv.copy()
        else:
            running_points += pts
            running_f += fv
        if fv.size == 0:
            jensen_margins[k - 1] = 0.0
            continue
        f_mean = f(running_points / k)
        jensen_margins[k - 1] = float((running_f / k - f_mean).min())
        if k > tail_start:
            integral = float(np.dot(w, f_mean))
            tail_integral_min = min(tail_integral_min, integral)
            tail_min_field = (
                f_mean.copy() if tail_min_field is None else np.minimum(tail_min_field, f_mean)
            )
    if tail_min_field is not None:
        fatou_margin = tail_integral_min - float(np.dot(w, tail_min_field))
    else:
        fatou_margin = 0.0
    return CesaroReplay(
        indices=list(trace.indices),
        cesaro_norms=values,
        slope=slope,
        converged=converged,
        jensen_margins=jensen_margins,
        fatou_margin=fatou_margin,
    )


def _admissible_values(
    f: ConvexFunctionSpec, points: np.ndarray, region: RegionMask, K: ConvexSetSpec, where: str
) -> np.ndarray:
    """f at the points after the values-in-K and nonnegativity hypotheses."""
    try:
        values = _composite_values(f, points, region, K, where)
    except DomainViolationError as err:
        raise PreconditionViolationError(
            f"values-in-K hypothesis failed: {err}", hypothesis="values in K"
        ) from err
    if f.nonnegative and values.size and values.min() < -_MEMBERSHIP_TOL:
        raise PreconditionViolationError(
            f"nonnegativity hypothesis failed: f reaches {values.min()} on {where}",
            hypothesis="nonnegativity of f",
        )
    return values


def _verify_on_region(
    members: np.ndarray,
    limit: VectorField,
    f: ConvexFunctionSpec,
    K: ConvexSetSpec,
    region: RegionMask,
    probe,
    replay: Callable[[], CesaroReplay] | None,
) -> LiminfReport:
    """The tail-infimum comparison on the region; replay runs once every integral is finite."""
    horizon = members.shape[0]
    inc = region.included
    weights = region.grid.weights[inc]

    def integral(points: np.ndarray, where: str) -> float:
        values = _admissible_values(f, points, region, K, where)
        value = float(np.dot(weights, values)) if values.size else 0.0
        if not math.isfinite(value):
            raise InvalidArgumentError(f"the integral of f over {where} is {value}, not finite")
        return value

    limit_integral = integral(limit.matrix().T[inc], "the limit field")
    alphas = np.empty(horizon)
    for i in range(1, horizon + 1):
        alphas[i - 1] = integral(members[i - 1].T, f"sequence member {i}")
    chain = replay() if replay is not None else None
    tail_infimum = np.minimum.accumulate(alphas[::-1])[::-1]
    margin = float(alphas[horizon // 2 :].min() - limit_integral)
    passed = margin >= -_PASS_TOL * (1.0 + abs(limit_integral))
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


def _replay_and_verify(
    pool: np.ndarray,
    limit: VectorField,
    f: ConvexFunctionSpec,
    K: ConvexSetSpec,
    region: RegionMask,
    probe,
    p: float,
    szlenk_levels: int,
) -> LiminfReport:
    # The region's gather is freed on return, before a caller looping over
    # regions makes the next one.
    members = np.compress(region.included, pool, axis=2)
    return _verify_on_region(
        members, limit, f, K, region, probe,
        lambda: _replay(pool, members, limit, f, region, p, szlenk_levels),
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
    """The radii as floats, once they are nonempty, finite, positive and strictly increasing."""
    radii = [float(r) for r in r_schedule]
    if not radii or not all(0 < r < math.inf for r in radii) or any(
        b <= a for a, b in zip(radii, radii[1:])
    ):
        raise InvalidArgumentError(
            f"R schedule must be finite, positive and strictly increasing: {radii}"
        )
    return radii


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

    f and K must fit values in R^m, with m the limit's component count.  The
    probe reads weak convergence for finite p and weak* convergence for p = infinity.
    """
    _require_region_grid(limit, region)
    _check_dimensions(f, K, limit.m)
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
    _require_nonnegative(f)
    pool, probe = _converging_pool(seq, limit, f, K, region, p, horizon, dictionary)
    return _replay_and_verify(pool, limit, f, K, region, probe, p, szlenk_levels)


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
    non-decreasing in R, realizing the monotone-convergence step.
    """
    radii = _check_r_schedule(r_schedule)
    _require_nonnegative(f)
    pool, probe = _converging_pool(seq, limit, f, K, region, INFINITY, horizon, dictionary)
    reports = []
    limit_integrals = []
    for radius in radii:
        truncated = truncate_region(region, radius)
        report = _replay_and_verify(pool, limit, f, K, truncated, probe, 1.0, szlenk_levels)
        reports.append(report)
        limit_integrals.append(report.limit_integral)
    monotone = all(
        b >= a - 1e-12 * (1.0 + abs(a))
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
    members = np.compress(region.included, pool, axis=2)
    return _verify_on_region(members, limit, f, K, region, probe, None)
