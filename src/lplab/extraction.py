"""Subsequence extraction with Cesaro-mean analytics.

Two routes, matching the exponent:

  * p > 1: recursive selection.  Given the partial sum s_k of the picks so
    far, the next index is the smallest pool index whose pairing with
    |s_k|^(p-1) sgn(s_k) stays <= 1 in every component.  The input pool is
    normalized so every member's product norm is <= 1, which is what makes
    the threshold 1 achievable.
  * p = 1: level/diagonal selection.  Level l greedily keeps candidates whose
    running Cesaro L^1 means stay below max(1/l, k^(-1/2)); the k^(-1/2)
    envelope is the Cauchy-Schwarz bound for unit-norm families and matches
    the plain 1/l target once k >= l^2.  The diagonal walks level r at
    position r and then continues inside the deepest level.

Also here: the pointwise power inequality |a+b|^p <= |a|^p +
p|a|^(p-1)sgn(a) b + A|b|^p + B(p,a,b) with computable constants, and the
per-step growth bound it implies for the partial sums.

Finite pools stand in for infinite sequences, so a selection can legitimately
run out of candidates; that is reported as a structured error carrying the
partial result, never silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExtractionStalledError,
    InvalidArgumentError,
    LevelStalledError,
    PreconditionViolationError,
)
from .gallery import VectorSequenceSpec, _loglog_slope, member_pool
from .grid import QuadratureGrid
from .norms import _lp_norms

__all__ = [
    "InequalityConstants",
    "ExtractionTrace",
    "SzlenkSchedule",
    "GrowthBoundReport",
    "generalized_binomial",
    "floor_exponent",
    "remainder_term",
    "estimate_a_constant",
    "check_pointwise_inequality",
    "verify_growth_bound",
    "banach_saks_extract",
    "szlenk_extract",
    "cesaro_curve",
    "decay_rate_fit",
]

_PAIRING_SLACK = 1e-12  # absolute float slack on the selection threshold 1


def generalized_binomial(p: float, i: int) -> float:
    """Binomial coefficient p(p-1)...(p-i+1)/i! for real p; 1 at i = 0."""
    if i < 0:
        raise InvalidArgumentError(f"binomial order must be >= 0, got {i}")
    out = 1.0
    for j in range(int(i)):
        out *= (p - j) / (j + 1)
    return out


def floor_exponent(p: float) -> int:
    """Largest natural number strictly less than p (p > 1)."""
    if not (math.isfinite(p) and p > 1.0):
        raise InvalidArgumentError(f"floor exponent needs p > 1, got {p}")
    e = math.floor(p)
    if e == p:
        e -= 1
    return int(e)


def remainder_term(p: float, a, b):
    """Higher-order remainder sum_{i=2}^{E(p)} binom(p,i) |a|^(p-i) |b|^i.

    Identically zero for p in (1, 2].  Accepts scalars or arrays.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise InvalidArgumentError(f"remainder term needs finite p > 1, got {p}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    total = np.zeros(np.broadcast(a, b).shape)
    if p > 2.0:
        for i in range(2, floor_exponent(p) + 1):
            total = total + generalized_binomial(p, i) * np.abs(a) ** (p - i) * np.abs(b) ** i
    if total.ndim == 0:
        return float(total)
    return total


def estimate_a_constant(
    p: float,
    t_max: float = 100.0,
    step: float = 1e-3,
    safety: float = 1.01,
) -> float:
    """Constant A making the pointwise power inequality hold.

    Every term of the inequality is jointly p-homogeneous in (a, b), so the
    b = 1 slice is exhaustive: A is the supremum over t in [-t_max, t_max] of

        |t+1|^p - |t|^p - p |t|^(p-1) sgn(t) - B(p, t, 1)

    scanned at the given step and multiplied by a safety factor.  The value
    a = 0, b = 1 forces A >= 1.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise InvalidArgumentError(f"the constant is defined for p > 1, got {p}")
    if t_max <= 0 or step <= 0:
        raise InvalidArgumentError("scan range and step must be positive")
    count = int(round(2.0 * t_max / step)) + 1
    t = np.linspace(-t_max, t_max, count)
    g = (
        np.abs(t + 1.0) ** p
        - np.abs(t) ** p
        - p * np.abs(t) ** (p - 1.0) * np.sign(t)
        - remainder_term(p, t, 1.0)
    )
    sup = float(g.max())
    if not math.isfinite(sup):
        raise InvalidArgumentError(f"residual scan diverged for p = {p}")
    return safety * sup


@dataclass
class InequalityConstants:
    """Constants (E(p), A, B) of the pointwise power inequality at one p."""

    p: float
    e_p: int
    a: float
    b: float
    scan_range: float
    scan_step: float

    def __post_init__(self) -> None:
        if self.e_p != floor_exponent(self.p):
            raise InvalidArgumentError(
                f"e_p must be the largest natural below p, got {self.e_p} for p={self.p}"
            )
        expected_b = remainder_term(self.p, 1.0, 1.0)
        if abs(self.b - expected_b) > 1e-9 * (1.0 + abs(expected_b)):
            raise InvalidArgumentError(f"b must equal the binomial sum, got {self.b}")
        if self.a < 1.0:
            raise InvalidArgumentError(f"a must be >= 1, got {self.a}")

    @classmethod
    def build(cls, p: float, t_max: float = 100.0, step: float = 1e-3) -> "InequalityConstants":
        e = floor_exponent(p)
        b = remainder_term(p, 1.0, 1.0)
        a = estimate_a_constant(p, t_max=t_max, step=step)
        return cls(p=p, e_p=e, a=a, b=b, scan_range=t_max, scan_step=step)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "E_p": self.e_p,
            "A": self.a,
            "B": self.b,
            "scan_range": self.scan_range,
            "scan_step": self.scan_step,
        }


def check_pointwise_inequality(p: float, a, b, consts: InequalityConstants):
    """Margin RHS - LHS of the pointwise inequality; >= 0 up to rounding.

    RHS = |a|^p + p|a|^(p-1) sgn(a) b + A |b|^p + B(p,a,b), LHS = |a+b|^p.
    Accepts scalars or arrays.
    """
    if consts.p != p:
        raise InvalidArgumentError(f"constants were built for p={consts.p}, not {p}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rhs = (
        np.abs(a) ** p
        + p * np.abs(a) ** (p - 1.0) * np.sign(a) * b
        + consts.a * np.abs(b) ** p
        + remainder_term(p, a, b)
    )
    margin = rhs - np.abs(a + b) ** p
    if margin.ndim == 0:
        return float(margin)
    return margin


@dataclass
class ExtractionTrace:
    """Record of one extraction run.

    ``pairings[k, j]`` is the selection pairing of step k+1 in component j
    (zero on the first row: the first pick pairs against an empty sum);
    ``partial_norms[k, j]`` is the integral of |s_(k+1)^(j)|^p; and
    ``cesaro_norms[k]`` is the product norm of s_(k+1)/(k+1).
    """

    p: float
    method: str
    indices: list
    pairings: np.ndarray
    partial_norms: np.ndarray
    cesaro_norms: np.ndarray
    normalization: float
    member_norm_sup: float
    pool_size: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=int)
        if idx.size < 1:
            raise InvalidArgumentError("a trace needs at least one selected index")
        if np.any(np.diff(idx) <= 0):
            raise InvalidArgumentError("selected indices must be strictly increasing")
        if idx[0] < 1 or idx[-1] > self.pool_size:
            raise InvalidArgumentError("selected indices must come from the pool")
        if np.any(self.pairings > 1.0 + _PAIRING_SLACK):
            raise InvalidArgumentError("a stored pairing exceeds the threshold 1")
        self.indices = [int(i) for i in idx]

    @property
    def length(self) -> int:
        return len(self.indices)

    @property
    def m(self) -> int:
        return self.pairings.shape[1]

    def rows(self, bound_margins: np.ndarray | None = None):
        """CSV-ready rows (k, selected_index, max_pairing, partial_norm_p,
        cesaro_norm, bound_margin)."""
        out = []
        for k in range(self.length):
            margin = float(bound_margins[k]) if bound_margins is not None else math.nan
            out.append(
                (
                    k + 1,
                    self.indices[k],
                    float(self.pairings[k].max()),
                    float(self.partial_norms[k].sum()),
                    float(self.cesaro_norms[k]),
                    margin,
                )
            )
        return out


def banach_saks_extract(
    seq: VectorSequenceSpec,
    p: float,
    grid: QuadratureGrid,
    horizon: int,
) -> ExtractionTrace:
    """Recursive threshold selection for p > 1.

    The pool u_1..u_horizon is divided by max(1, sup of product norms) first.
    The first pick is index 1; after k picks with partial sum s_k, the next
    pick is the smallest unused index i whose componentwise pairings

        <|s_k^(j)|^(p-1) sgn(s_k^(j)), u_i^(j)>   (j = 1..m)

    all stay <= 1.  Raises ``ExtractionStalledError`` (partial trace attached)
    when unexamined candidates remain but none qualifies.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise InvalidArgumentError(
            f"recursive selection needs finite p > 1 (got {p}); the p = 1 route "
            "is szlenk_extract"
        )
    return _banach_saks_select(member_pool(seq, grid, horizon), p, grid.weights)


def _member_row(pool: np.ndarray, factor: float, i: int, out: np.ndarray) -> np.ndarray:
    """Member i of pool / factor, divided into out when factor is not 1."""
    if factor == 1.0:
        return pool[i - 1]
    return np.divide(pool[i - 1], factor, out=out)


def _banach_saks_select(pool: np.ndarray, p: float, w: np.ndarray) -> ExtractionTrace:
    """Recursive threshold selection over a (horizon, m, N) member pool."""
    horizon = pool.shape[0]
    member_norms = _lp_norms(pool, w, p)
    sup = float(member_norms.max())
    factor = max(1.0, sup)
    m = pool.shape[1]

    # Two scratch rows hold phi_w = |s|^(p-1) sgn(s) w and |s|^p, each filled
    # by the same ufuncs in the same order as the expressions they replace;
    # a member read when factor > 1 is divided into scratch.
    phi_w = np.empty_like(pool[0])
    scratch = np.empty_like(pool[0])

    def partial_norms() -> np.ndarray:
        powered = np.abs(s, out=scratch)
        powered **= p
        return np.einsum("n,jn->j", w, powered)

    indices = [1]
    s = _member_row(pool, factor, 1, scratch).copy()
    pairings = [np.zeros(m)]
    partials = [partial_norms()]
    cesaro = [float(partials[0].sum()) ** (1.0 / p)]

    def _trace() -> ExtractionTrace:
        return ExtractionTrace(
            p=p,
            method="banach_saks",
            indices=list(indices),
            pairings=np.stack(pairings),
            partial_norms=np.stack(partials),
            cesaro_norms=np.asarray(cesaro),
            normalization=factor,
            member_norm_sup=sup / factor,
            pool_size=horizon,
        )

    while indices[-1] < horizon:
        np.abs(s, out=phi_w)
        phi_w **= p - 1.0
        phi_w *= np.sign(s, out=scratch)
        phi_w *= w
        accepted = None
        for cand in range(indices[-1] + 1, horizon + 1):
            u = _member_row(pool, factor, cand, scratch)
            t = np.einsum("jn,jn->j", phi_w, u)
            if np.all(t <= 1.0 + _PAIRING_SLACK):
                accepted = (cand, t)
                break
        if accepted is None:
            raise ExtractionStalledError(
                f"no qualifying index after {indices[-1]} within pool of {horizon} "
                f"(selected {len(indices)} so far); the horizon is too short",
                trace=_trace(),
            )
        cand, t = accepted
        indices.append(cand)
        s += u
        k = len(indices)
        pairings.append(t)
        partials.append(partial_norms())
        cesaro.append(float(partials[-1].sum()) ** (1.0 / p) / k)
    return _trace()


@dataclass
class GrowthBoundReport:
    """Margins of the partial-sum growth bounds along a trace.

    ``aggregate_margins[k, j]`` is (A+p)(k+1) + B(k+1)^(p-2) + 1 minus the
    integral of |s_(k+1)^(j)|^p; ``stepwise_margins[k, j]`` is the slack of
    the one-step recursion with C(k) = A + B k^(p-2).
    """

    p: float
    aggregate_margins: np.ndarray
    stepwise_margins: np.ndarray

    def aggregate_ok(self, tol: float = 1e-9) -> bool:
        k = np.arange(1, self.aggregate_margins.shape[0] + 1)[:, None]
        return bool(np.all(self.aggregate_margins >= -tol * (1.0 + k)))

    def stepwise_ok(self, tol: float = 1e-9) -> bool:
        return bool(np.all(self.stepwise_margins >= -tol))

    def per_step_minimum(self) -> np.ndarray:
        return self.aggregate_margins.min(axis=1)


def verify_growth_bound(
    trace: ExtractionTrace,
    consts: InequalityConstants,
    p: float,
) -> GrowthBoundReport:
    """Check the growth of integral |s_k|^p along a normalized extraction.

    Requires a trace built under the unit normalization (member norms <= 1).
    The aggregate bound (A+p)k + Bk^(p-2) + 1 is checked per component and
    step, alongside the stepwise recursion

        integral |s_k|^p <= A + B k^(p-2) + p t_k + integral |s_(k-1)|^p.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise InvalidArgumentError(f"growth bound needs finite p > 1, got {p}")
    if trace.p != p or consts.p != p:
        raise InvalidArgumentError(
            f"exponent mismatch: trace p={trace.p}, constants p={consts.p}, asked {p}"
        )
    if trace.member_norm_sup > 1.0 + 1e-9:
        raise PreconditionViolationError(
            f"trace was built without unit normalization "
            f"(member norm sup = {trace.member_norm_sup})",
            hypothesis="unit normalization of the pool",
        )
    k = np.arange(1, trace.length + 1, dtype=float)[:, None]
    a, b = consts.a, consts.b
    aggregate = (a + p) * k + b * k ** (p - 2.0) + 1.0 - trace.partial_norms
    ck = a + b * k ** (p - 2.0)
    previous = np.vstack([np.zeros(trace.m), trace.partial_norms[:-1]])
    stepwise = ck + p * trace.pairings + previous - trace.partial_norms
    return GrowthBoundReport(p=p, aggregate_margins=aggregate, stepwise_margins=stepwise)


@dataclass
class SzlenkCheckpoint:
    level: int
    k: int
    cesaro_norm: float
    target: float

    @property
    def margin(self) -> float:
        return self.target - self.cesaro_norm


@dataclass
class SplitCheck:
    """Numerical instance of the prefix/tail splitting inequality."""

    prefix: int
    k: int
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass
class SzlenkSchedule:
    """Nested level index lists with the diagonal drawn through them."""

    levels: list
    targets: list
    diagonal: list
    checkpoints: list
    splitting_checks: list

    def __post_init__(self) -> None:
        previous = None
        for lst in self.levels:
            if previous is not None and not _is_subsequence(lst, previous):
                raise InvalidArgumentError("levels must be nested subsequences")
            previous = lst
        if np.any(np.diff(np.asarray(self.diagonal)) <= 0):
            raise InvalidArgumentError("the diagonal must be strictly increasing")

    def checkpoints_ok(self, tol: float = 1e-9) -> bool:
        return all(c.margin >= -tol for c in self.checkpoints)


def _is_subsequence(sub: list, parent: list) -> bool:
    it = iter(parent)
    return all(any(x == y for y in it) for x in sub)


def szlenk_extract(
    seq: VectorSequenceSpec,
    grid: QuadratureGrid,
    levels: int,
    horizon: int,
) -> tuple[SzlenkSchedule, ExtractionTrace]:
    """Level/diagonal selection for the p = 1 route.

    Requires a weakly null input (probe it first).  The pool is divided by
    max(1, sup of L^1 product norms).  Level l keeps, scanning the previous
    level in order, the candidates whose running Cesaro L^1 means stay below
    max(1/l, k^(-1/2)); level targets are certified on the diagonal at the
    checkpoints k = round(K l/levels) and the prefix/tail splitting
    inequality is evaluated at the final k for every prefix l < levels.
    Raises ``LevelStalledError`` when a level keeps fewer members than its
    own index (the diagonal could not pass through it).
    """
    if levels < 1:
        raise InvalidArgumentError(f"need at least one level, got {levels}")
    return _szlenk_select(member_pool(seq, grid, horizon), grid.weights, levels)


def _szlenk_select(
    pool: np.ndarray, w: np.ndarray, levels: int
) -> tuple[SzlenkSchedule, ExtractionTrace]:
    """Level/diagonal selection over a (horizon, m, N) member pool."""
    horizon = pool.shape[0]
    member_norms = _lp_norms(pool, w, 1.0)
    sup = float(member_norms.max())
    factor = max(1.0, sup)
    m = pool.shape[1]

    # One scratch row for every per-candidate and per-pick temporary: on large
    # grids a fresh temporary each time costs several times the arithmetic.
    # A member read when factor > 1 is divided into its own row.
    scratch = np.empty_like(pool[0])
    member = np.empty_like(pool[0])
    level_lists = []
    previous = list(range(1, horizon + 1))
    for level in range(1, levels + 1):
        target = 1.0 / level
        chosen = []
        s = np.zeros_like(pool[0])
        for idx in previous:
            k = len(chosen) + 1
            u = _member_row(pool, factor, idx, member)
            np.add(s, u, out=scratch)
            trial = float(np.einsum("n,jn->", w, np.abs(scratch, out=scratch))) / k
            if trial <= max(target, k ** -0.5) + 1e-12:
                chosen.append(idx)
                s += u
        if len(chosen) < level:
            raise LevelStalledError(
                f"level {level} kept only {len(chosen)} members within the pool "
                f"of {horizon}; cannot host the diagonal",
                level=level,
                completed=level_lists,
            )
        level_lists.append(chosen)
        previous = chosen

    length = len(level_lists[-1])
    diagonal = [level_lists[min(r, levels) - 1][r - 1] for r in range(1, length + 1)]

    s = np.zeros_like(pool[0])
    pairings = []
    partials = []
    cesaro = []
    prefix_snapshots = {}
    for r, idx in enumerate(diagonal, start=1):
        u = _member_row(pool, factor, idx, member)
        if r == 1:
            pairings.append(np.zeros(m))
        else:
            np.sign(s, out=scratch)
            scratch *= w
            pairings.append(np.einsum("jn,jn->j", scratch, u))
        s += u
        partial = np.einsum("n,jn->j", w, np.abs(s, out=scratch))
        partials.append(partial)
        cesaro.append(float(partial.sum()) / r)
        if r <= levels:
            prefix_snapshots[r] = s.copy()

    cesaro_arr = np.asarray(cesaro)
    checkpoints = []
    for level in range(1, levels + 1):
        k = min(length, max(level, round(length * level / levels)))
        checkpoints.append(
            SzlenkCheckpoint(
                level=level,
                k=k,
                cesaro_norm=float(cesaro_arr[k - 1]),
                target=1.0 / level,
            )
        )

    splitting = []
    for prefix in range(1, levels):
        if prefix >= length:
            break
        head = prefix_snapshots[prefix]
        tail = s - head
        lhs = cesaro_arr[length - 1]
        rhs = float(np.einsum("n,jn->", w, np.abs(head))) / length + float(
            np.einsum("n,jn->", w, np.abs(tail))
        ) / (length - prefix)
        splitting.append(SplitCheck(prefix=prefix, k=length, lhs=float(lhs), rhs=rhs))

    schedule = SzlenkSchedule(
        levels=level_lists,
        targets=[1.0 / level for level in range(1, levels + 1)],
        diagonal=diagonal,
        checkpoints=checkpoints,
        splitting_checks=splitting,
    )
    trace = ExtractionTrace(
        p=1.0,
        method="szlenk_diagonal",
        indices=diagonal,
        pairings=np.stack(pairings),
        partial_norms=np.stack(partials),
        cesaro_norms=cesaro_arr,
        normalization=factor,
        member_norm_sup=sup / factor,
        pool_size=horizon,
    )
    return schedule, trace


def cesaro_curve(trace: ExtractionTrace, p: float | None = None) -> list:
    """(k, ||s_k/k||) pairs recorded along the extraction."""
    if p is not None and p != trace.p:
        raise InvalidArgumentError(
            f"trace holds the exponent-{trace.p} curve; cannot return p={p}"
        )
    return [(k + 1, float(v)) for k, v in enumerate(trace.cesaro_norms)]


def decay_rate_fit(curve) -> float:
    """Least-squares log-log slope over the second half of a positive curve."""
    pts = np.asarray([(float(k), float(v)) for k, v in curve])
    if pts.shape[0] < 8:
        raise InvalidArgumentError(f"need >= 8 curve points, got {pts.shape[0]}")
    if np.any(pts[:, 1] <= 0.0):
        raise InvalidArgumentError(
            "curve has nonpositive values; convergence is already exact"
        )
    half = pts[pts.shape[0] // 2 :]
    return _loglog_slope(half[:, 0], half[:, 1])
