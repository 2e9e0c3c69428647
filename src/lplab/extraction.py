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

Both routes differ only in the rule that picks the next index.  They share
one walk over the picks: it reads the normalized members, keeps the partial
sum s_k, records each pick's pairings, integrals of |s_k|^p and ||s_k/k||,
and builds the trace.

Also here, as the one module that knows it: the pointwise power inequality
|a+b|^p <= |a|^p + p|a|^(p-1)sgn(a) b + A|b|^p + B(p,a,b) with computable
constants, its check on an (a, b) grid, and the growth bounds it implies for
the partial sums.

Finite pools stand in for infinite sequences, so a selection can legitimately
run out of candidates; that is reported as a structured error carrying the
partial result, never silently truncated.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExtractionStalledError,
    InvalidArgumentError,
    LevelStalledError,
    PreconditionViolationError,
)
from .gallery import (
    _FLAT_SLOPE,
    VectorSequenceSpec,
    _check_array_budget,
    _loglog_slope,
    _memo_open,
    _shared,
    member_pool,
)
from .grid import QuadratureGrid, _rounding_budget
from .norms import _abs_power, _gather, _lp_norms

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

# Absolute float slack on a selection threshold: normalized members are
# compared with 1 (p > 1) or with a level's 1/l (p = 1).
_SELECTION_SLACK = 1e-12

# Default half-range and step of the A scan, for library and command line alike.
_SCAN_RANGE, _SCAN_STEP = 100.0, 1e-3

# Points per block of the lemma-1 scans: each float64 temporary is 64 KiB, so
# it stays in cache and is reused instead of mapped, faulted in and unmapped.
_BLOCK = 8192

# Largest relative deviation from p-homogeneity the lemma-1 check passes.
_HOMOGENEITY_TOL = 1e-9


def _require_p_above_one(p: float, what: str) -> None:
    """Refuse an exponent that is not a finite p > 1, naming what needs it."""
    if not (math.isfinite(p) and p > 1.0):  # NaN included
        raise InvalidArgumentError(f"{what} needs finite p > 1, got {p}")


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
    _require_p_above_one(p, "the floor exponent")
    e = math.floor(p)
    if e == p:
        e -= 1
    return int(e)


def remainder_term(p: float, a, b):
    """Higher-order remainder sum_{i=2}^{E(p)} binom(p,i) |a|^(p-i) |b|^i.

    Identically zero for p in (1, 2].  Accepts scalars or arrays.  A p whose
    2^p overflows (p >= 1024) is refused before any binomial is formed: 2^p
    sums every binom(p, i), and B(p) leaves out only terms far below it.
    """
    _require_p_above_one(p, "the remainder term")
    with np.errstate(over="ignore"):
        if not math.isfinite(np.power(2.0, p)):
            raise InvalidArgumentError(f"B(p) at p = {p:g} is not finite: 2^p overflows")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    total = np.zeros(np.broadcast(a, b).shape)
    if p > 2.0:
        # binom(p, i) carried from one term to the next: generalized_binomial's
        # multiplications in its order, one per term instead of i.
        binomial = p  # binom(p, 1), exactly as generalized_binomial forms it
        for i in range(2, floor_exponent(p) + 1):
            binomial *= (p - (i - 1)) / i
            total = total + binomial * np.abs(a) ** (p - i) * np.abs(b) ** i
    if total.ndim == 0:
        return float(total)
    return total


def estimate_a_constant(
    p: float,
    t_max: float = _SCAN_RANGE,
    step: float = _SCAN_STEP,
    safety: float = 1.01,
) -> float:
    """Constant A making the pointwise power inequality hold.

    Every term of the inequality is jointly p-homogeneous in (a, b), so the
    b = 1 slice is exhaustive: A is the supremum over t in [-t_max, t_max] of

        |t+1|^p - |t|^p - p |t|^(p-1) sgn(t) - B(p, t, 1)

    scanned at the given step and multiplied by a safety factor.  The value
    a = 0, b = 1 forces A >= 1.  A scan whose points take more than
    ``POOL_BUDGET_BYTES`` is refused before it is allocated, and one whose
    terms overflow the float range is refused as diverged: at once when its
    end point's term (t_max + 1)^p or 2^p does, before any binomial is formed.
    """
    _require_p_above_one(p, "the constant A")
    if not (t_max > 0 and step > 0):  # NaN included
        raise InvalidArgumentError("scan range and step must be positive")
    _check_array_budget(
        f"the A scan over [-{t_max:g}, {t_max:g}] at step {step:g}", 2.0 * t_max / step + 1.0
    )
    with np.errstate(over="ignore"):
        end = np.power(t_max + 1.0, p)
    if not math.isfinite(end):
        raise InvalidArgumentError(
            f"the A scan at p = {p:g} is not finite: its term (t_max + 1)^p at t_max = "
            f"{t_max:g} overflows the float range"
        )
    return _a_constant(float(p), float(t_max), float(step), float(safety))


def _lemma1_terms(p: float, a, b):
    """(|a|^p, p|a|^(p-1), |b|^p, |a+b|^p): the powers the lemma-1 terms are built from.

    Each reader applies its own sgn(a) b or |b| factor to p|a|^(p-1).
    |a+b|^p is formed first and p|a|^(p-1) in place, so an A scan block
    holds at most four arrays of its size here.
    """
    power_sum = np.abs(a + b) ** p
    abs_a = np.abs(a)
    slope_a = abs_a ** (p - 1.0)
    slope_a *= p
    return abs_a ** p, slope_a, np.abs(b) ** p, power_sum


def _a_residual(p: float, t: np.ndarray) -> np.ndarray:
    """|t+1|^p - |t|^p - p|t|^(p-1) sgn(t) - B(p, t, 1): the b = 1 residual that A bounds.

    Subtracted in that order, in place, so at most five arrays of t's shape
    are held at once.
    """
    rest = remainder_term(p, t, 1.0)
    power_a, slope_a, _, g = _lemma1_terms(p, t, 1.0)
    slope_a *= np.sign(t)
    g -= power_a
    g -= slope_a
    g -= rest
    return g


def _blocks(count: int, size: int):
    """Consecutive slices of range(count), each of at most size items."""
    for start in range(0, count, size):
        yield slice(start, min(start + size, count))


@functools.lru_cache(maxsize=64)
def _a_constant(p: float, t_max: float, step: float, safety: float) -> float:
    """The scan behind estimate_a_constant, cached: a suite asks for A(2) five times.

    g is evaluated block by block, elementwise as over the whole scan, so
    every value keeps its bits; a NaN or inf in any block reaches the sup.
    """
    count = int(round(2.0 * t_max / step)) + 1
    t = np.linspace(-t_max, t_max, count)
    maxima = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as divergence
        for block in _blocks(count, _BLOCK):
            maxima.append(_a_residual(p, t[block]).max())
    sup = float(np.max(maxima))
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
    def build(
        cls, p: float, t_max: float = _SCAN_RANGE, step: float = _SCAN_STEP
    ) -> "InequalityConstants":
        e = floor_exponent(p)
        a = estimate_a_constant(p, t_max=t_max, step=step)  # refuses an overflowing p first
        b = remainder_term(p, 1.0, 1.0)
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
    power_a, slope_a, power_b, power_sum = _lemma1_terms(p, a, b)
    rhs = power_a + slope_a * np.sign(a) * b + consts.a * power_b + remainder_term(p, a, b)
    margin = rhs - power_sum
    if margin.ndim == 0:
        return float(margin)
    return margin


def _lemma1_scale(p: float, a, b, A: float):
    """|a|^p + p|a|^(p-1)|b| + A|b|^p + |a+b|^p: the size of the lemma-1 terms at (a, b)."""
    power_a, slope_a, power_b, power_sum = _lemma1_terms(p, a, b)
    return power_a + slope_a * np.abs(b) + A * power_b + power_sum


def _lemma1_check(
    consts: InequalityConstants, axis: np.ndarray, a: np.ndarray, b: np.ndarray, lam: np.ndarray
) -> tuple[float, float, bool]:
    """(worst grid margin, homogeneity deviation, pass) of the inequality at consts.

    The grid is every (a, b) with a and b on axis.  A grid margin passes at
    >= 0, or within the rounding budget of its terms at n = 2E(p) + 5, the
    most roundings behind any term: B's last term takes 2E(p) + 2 from its
    binomial, powers and products and three from the sums; p|a|^(p-1)
    sgn(a) b takes 3 + 4; and |a+b|^p takes ceil(p) + 2 = E(p) + 3, since
    its rounded a + b is raised to the p.  At a negative margin B <=
    |a+b|^p + p|a|^(p-1)|b|, so the scale bounds B too.  The homogeneity
    deviation compares the margins at the sample points (lam a, lam b) and
    (a, b), relative to lam^p times the scale, and passes at <= 1e-9.
    Terms that overflow the float range are refused, not failed.
    """
    p = consts.p
    # a runs down the rows and b along the columns, a block of rows of a at a
    # time: each term reads the operands of the whole meshgrid in the same
    # order, so every margin keeps its bits.
    columns = axis[None, :]
    minima, grid_ok = [], True
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for block in _blocks(axis.size, max(1, _BLOCK // axis.size)):
            rows = axis[block, None]
            margins = check_pointwise_inequality(p, rows, columns, consts)
            minima.append(margins.min())
            i, j = np.nonzero(margins < 0.0)  # only these compute the scale of their terms
            sizes = _lemma1_scale(p, rows[i, 0], axis[j], consts.a)
            budget = _rounding_budget(2 * consts.e_p + 5, sizes)
            grid_ok = grid_ok and bool(np.all(margins[i, j] >= -budget))
        worst = float(np.min(minima))
        scaled = check_pointwise_inequality(p, lam * a, lam * b, consts)
        base = check_pointwise_inequality(p, a, b, consts)
        scale = lam ** p * (_lemma1_scale(p, a, b, consts.a) + 1e-300)
        dev = float(np.max(np.abs(scaled - lam ** p * base) / scale))
    if not (math.isfinite(worst) and math.isfinite(dev)):
        raise InvalidArgumentError(
            f"the lemma-1 check at p = {p:g} is not finite (worst margin {worst}, "
            f"homogeneity deviation {dev}): its terms overflow the float range"
        )
    return worst, dev, grid_ok and dev <= _HOMOGENEITY_TOL


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
        if np.any(self.pairings > 1.0 + _SELECTION_SLACK):
            raise InvalidArgumentError("a stored pairing exceeds the threshold 1")
        self.indices = [int(i) for i in idx]

    @property
    def length(self) -> int:
        return len(self.indices)

    @property
    def m(self) -> int:
        return self.pairings.shape[1]

    def _cesaro_slope(self, centre_norm: float = 0.0) -> tuple[bool, float | None, bool]:
        """(zero, slope, converged): how the recorded Cesaro curve ||s_k / k|| reads.

        zero says whether the curve is zero up to rounding.  Its scale bounds
        the norms of the members the curve averages: member_norm_sup, plus
        twice centre_norm / normalization when they were read as u_i - u
        with ||u|| = centre_norm.  Each s_k / k is then within gamma_(k+2)
        scale of its exact value, so a curve that is exactly zero reads at
        most the budget of its last k: an all-zero pool reads zero, and a
        pool of tiny members fits its slope.  Otherwise slope is the log-log
        slope of the curve, None when fewer than two values are positive.
        The curve has converged when it is zero or its slope is below
        _FLAT_SLOPE; a curve with no slope fit reads as flat.
        """
        values = self.cesaro_norms
        scale = self.member_norm_sup + 2.0 * centre_norm / self.normalization
        if float(values.max()) <= _rounding_budget(values.size + 2, scale):
            return True, None, True
        slope = _loglog_slope(np.arange(1, values.size + 1, dtype=float), values)
        return False, slope, slope is not None and slope < _FLAT_SLOPE

    def rows(self, bound_margins: np.ndarray | None = None):
        """CSV-ready rows (k, selected_index, max_pairing, partial_norm_p,
        cesaro_norm, bound_margin).

        max_pairing is the largest pairing over the components that the
        selection rule constrains, those whose integral of |s_(k-1)^(j)|^p is
        positive, and 0 where there are none, as at the first pick: a
        component whose partial sum is zero pairs to 0 with every member.
        """
        out, previous = [], np.zeros(self.m)
        for k in range(self.length):
            margin = float(bound_margins[k]) if bound_margins is not None else math.nan
            constrained = self.pairings[k][previous > 0.0]
            previous = self.partial_norms[k]
            out.append(
                (
                    k + 1,
                    self.indices[k],
                    float(constrained.max()) if constrained.size else 0.0,
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
    _require_p_above_one(p, "recursive selection (the p = 1 route is szlenk_extract)")
    return _select(member_pool(seq, grid, horizon), p, grid.weights)[1]


class _CesaroWalk:
    """Partial sums s_k of picks from a (horizon, m, N) member pool.

    Members are read as (u_i - centre) / factor with factor = max(1, sup of
    their product L^p norms); a centre that is all zero is not subtracted.
    With a node list, members are read at those nodes only, gathered row by
    row on read, and w and the centre hold one entry per listed node.
    Each pick records its pairing with phi_w = |s_(k-1)|^(p-1) sgn(s_(k-1)) w
    (zero for the first pick), the integrals of |s_k|^p and ||s_k/k||.  With
    pairings False, a pick whose scan passes no pairing records NaN instead
    of computing one, for a caller that reads only the picks and the curve.

    At p = 2, the Hilbert case, phi_w is s w and |s|^2 is s s: copysign(|s|^1, s)
    is s bit for bit, signed zeros included, and s s rounds as |s| |s| does.
    One pass each replaces four and two, and every bit of the general formulas stays.
    """

    def __init__(
        self, pool: np.ndarray, w: np.ndarray, p: float, centre=None, nodes=None, pairings=True
    ) -> None:
        self.pool, self.w, self.p, self.horizon = pool, w, p, pool.shape[0]
        self.record_pairings = pairings
        self.centre = centre if centre is not None and centre.any() else None
        self.nodes = nodes
        self.sup = float(_lp_norms(pool, w, p, self.centre, nodes).max())
        self.factor = max(1.0, self.sup)
        # One row each for s_k, for the member last read, and a scratch row for
        # phi_w and other temporaries (a scan may use it between picks): on large
        # grids a fresh temporary each time costs several times the arithmetic.
        self.s, self.scratch, self._row = np.zeros((3, pool.shape[1], w.size))
        # Member _held as read: the pool's own row when reading changes nothing.
        self._held, self._read = None, None
        self.indices, self.pairings, self.partials, self.cesaro = [], [], [], []

    def member(self, i: int) -> np.ndarray:
        """Member i as read by the walk; the pool's own row when reading changes nothing."""
        if self._held != i:
            row = _gather(self.pool[i - 1], self.nodes, self._row)
            if self.centre is not None:
                row = np.subtract(row, self.centre, out=self._row)
            if self.factor != 1.0:
                row = np.divide(row, self.factor, out=self._row)
            self._held, self._read = i, row
        return self._read

    def phi_w(self) -> np.ndarray:
        """|s_k|^(p-1) sgn(s_k) w, in the scratch row."""
        if self.p == 2.0:
            return np.multiply(self.s, self.w, out=self.scratch)
        if self.p == 1.0:
            np.sign(self.s, out=self.scratch)
        else:
            np.abs(self.s, out=self.scratch)
            self.scratch **= self.p - 1.0
            np.copysign(self.scratch, self.s, out=self.scratch)
        self.scratch *= self.w
        return self.scratch

    def add(self, i: int, pairing: np.ndarray | None = None, ahead=None) -> np.ndarray | None:
        """Pick member i; a scan that already paired it with phi_w passes the pairing.

        A scan that already holds s + u_i in a row of its own and the integrals
        of |s + u_i|^p passes them as ahead = (row, integrals): the row becomes
        s, and the row that held s is returned for the scan's next sum.
        """
        u = self.member(i)
        if not self.indices:
            pairing = np.zeros(self.pool.shape[1])
        elif pairing is None and self.record_pairings:
            pairing = np.einsum("jn,jn->j", self.phi_w(), u)
        elif pairing is None:
            pairing = np.full(self.pool.shape[1], math.nan)
        spare = None
        if ahead is None:
            self.s += u
            with np.errstate(over="ignore"):  # an overflow is refused below
                partial = np.einsum("n,jn->j", self.w, _abs_power(self.s, self.p, self.scratch))
        else:
            (self.s, partial), spare = ahead, self.s
        # The integrals of |s_k|^p are nonnegative: their sum is finite exactly when
        # each is, and a finite integral keeps |s_k|^(p-1), and so phi_w, finite.
        total = float(partial.sum())
        if not math.isfinite(total):
            raise InvalidArgumentError(
                f"the Cesaro walk at p = {self.p:g} overflows at pick k = {len(self.indices) + 1}"
            )
        self.indices.append(i)
        self.pairings.append(pairing)
        self.partials.append(partial)
        self.cesaro.append(total ** (1.0 / self.p) / len(self.indices))
        return spare

    def trace(self, method: str) -> ExtractionTrace:
        return ExtractionTrace(
            p=self.p,
            method=method,
            indices=list(self.indices),
            pairings=np.stack(self.pairings),
            partial_norms=np.stack(self.partials),
            cesaro_norms=np.asarray(self.cesaro),
            normalization=self.factor,
            member_norm_sup=self.sup / self.factor,
            pool_size=self.horizon,
        )


def _banach_saks_select(
    pool: np.ndarray, p: float, w: np.ndarray, centre: np.ndarray | None = None
) -> ExtractionTrace:
    """Recursive threshold selection over a (horizon, m, N) member pool."""
    walk = _CesaroWalk(pool, w, p, centre)
    horizon = walk.horizon
    walk.add(1)
    while walk.indices[-1] < horizon:
        phi_w = walk.phi_w()
        for cand in range(walk.indices[-1] + 1, horizon + 1):
            t = np.einsum("jn,jn->j", phi_w, walk.member(cand))
            if np.all(t <= 1.0 + _SELECTION_SLACK):
                break
        else:
            raise ExtractionStalledError(
                f"no qualifying index after {walk.indices[-1]} within pool of {horizon} "
                f"(selected {len(walk.indices)} so far); the horizon is too short",
                trace=walk.trace("banach_saks"),
            )
        walk.add(cand, t)
    return walk.trace("banach_saks")


@dataclass
class GrowthBoundReport:
    """Margins of the partial-sum growth bounds along a trace.

    ``aggregate_margins[k, j]`` is (A+p)(k+1) + B sum_(i<=k+1) i^(p-2) + 1
    minus the integral of |s_(k+1)^(j)|^p; ``stepwise_margins[k, j]`` is the
    slack of the one-step recursion with C(k) = A + B k^(p-2).
    ``aggregate_slack`` and ``stepwise_slack`` are the rounding budgets a
    negative margin is held to; each is zero where its margin is not
    negative, since it is computed only for a negative one.
    """

    p: float
    aggregate_margins: np.ndarray
    stepwise_margins: np.ndarray
    aggregate_slack: np.ndarray | float = 0.0
    stepwise_slack: np.ndarray | float = 0.0

    def aggregate_ok(self) -> bool:
        return bool(np.all(self.aggregate_margins >= -self.aggregate_slack))

    def stepwise_ok(self) -> bool:
        return bool(np.all(self.stepwise_margins >= -self.stepwise_slack))

    def per_step_minimum(self) -> np.ndarray:
        return self.aggregate_margins.min(axis=1)


def verify_growth_bound(
    trace: ExtractionTrace,
    consts: InequalityConstants,
    p: float,
) -> GrowthBoundReport:
    """Check the growth of integral |s_k|^p along a normalized extraction.

    Requires a trace built under the unit normalization (member norms <= 1).
    The stepwise recursion

        integral |s_k|^p <= A + B k^(p-2) + p t_k + integral |s_(k-1)|^p

    is checked per component and step, alongside the aggregate bound that
    summing it over steps 1..k proves, with every pairing t_i <= 1:

        integral |s_k|^p <= (A+p)k + B sum_(i<=k) i^(p-2) + 1.

    The sum grows like B k^(p-1)/(p-1), not like B k^(p-2); the two agree
    where B = 0, which is p <= 2.  The recorded integrals and pairings are the
    data compared, so a negative margin is held to the rounding budget of
    forming the bound from them, at the scale of its terms: B's sum takes
    k + 1 roundings and the aggregate three more, C(k) takes three and the
    stepwise bound three more.
    """
    _require_p_above_one(p, "the growth bound")
    if trace.p != p or consts.p != p:
        raise InvalidArgumentError(
            f"exponent mismatch: trace p={trace.p}, constants p={consts.p}, asked {p}"
        )
    if trace.member_norm_sup > 1.0:  # sup / max(1, sup) is at most 1 exactly
        raise PreconditionViolationError(
            f"trace was built without unit normalization "
            f"(member norm sup = {trace.member_norm_sup})",
            hypothesis="unit normalization of the pool",
        )
    k = np.arange(1, trace.length + 1, dtype=float)[:, None]
    a, b = consts.a, consts.b
    powers = k ** (p - 2.0)
    bound = (a + p) * k + b * np.cumsum(powers, axis=0) + 1.0
    partial = trace.partial_norms
    aggregate = bound - partial
    ck = a + b * powers
    previous = np.vstack([np.zeros(trace.m), partial[:-1]])
    stepwise = ck + p * trace.pairings + previous - partial
    aggregate_slack, stepwise_slack = np.zeros_like(aggregate), np.zeros_like(stepwise)
    i, j = np.nonzero(aggregate < 0.0)
    aggregate_slack[i, j] = _rounding_budget(k[i, 0] + 4, bound[i, 0] + partial[i, j])
    i, j = np.nonzero(stepwise < 0.0)
    scale = ck[i, 0] + p * np.abs(trace.pairings[i, j]) + previous[i, j] + partial[i, j]
    stepwise_slack[i, j] = _rounding_budget(6, scale)
    return GrowthBoundReport(p, aggregate, stepwise, aggregate_slack, stepwise_slack)


@dataclass
class SzlenkCheckpoint:
    """The diagonal's Cesaro L^1 norm at step k against level's target 1/level."""

    level: int
    k: int
    cesaro_norm: float
    target: float
    slack: float = 0.0

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
    slack: float = 0.0

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass
class SzlenkSchedule:
    """Nested level index lists with the diagonal drawn through them.

    Each checkpoint and splitting check carries ``slack``, the rounding
    budget its margin is held to: gamma_(mN+3) times the sum of the two
    sides it compares, each a recorded L^1 norm (a sum of m N nonnegative
    terms) or a level's target.  It is zero where the margin is not
    negative, since it is computed only for a negative one.
    """

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

    def checkpoints_ok(self) -> bool:
        return all(c.margin >= -c.slack for c in self.checkpoints + self.splitting_checks)


def _held_to_rounding(check, n: int, scale: float):
    """check, with its slack gamma_n scale if its margin is negative."""
    if check.margin < 0.0:
        check.slack = _rounding_budget(n, scale)
    return check


def _is_subsequence(sub: list, parent: list) -> bool:
    it = iter(parent)
    return all(any(x == y for y in it) for x in sub)


def _check_levels(levels) -> None:
    """Refuse a level count that is not an integer >= 1."""
    if isinstance(levels, bool) or not isinstance(levels, numbers.Integral):
        raise InvalidArgumentError(f"the level count must be an integer, got {levels!r}")
    if levels < 1:
        raise InvalidArgumentError(f"need at least one level, got {levels}")


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
    One pass over the pool reads each member once and offers it down the
    chain of levels: level 1 first, then each level the members it keeps.
    Levels that have kept the same members share one running sum and
    compute one running mean per offered member; the levels that reject it
    split off with a copy of the sum.  The diagonal's walk records each pick
    as the level it reads keeps it.  Raises ``LevelStalledError`` when a
    level keeps fewer members than its own index (the diagonal could not
    pass through it).
    """
    _check_levels(levels)
    return _select(member_pool(seq, grid, horizon), 1.0, grid.weights, levels)


def _l1(w: np.ndarray, rows: np.ndarray, out=None) -> tuple[float, np.ndarray]:
    """(Product L^1 norm of an (m, N) array, the integrals of |rows| per component).

    out, if given, takes |rows|.  The norm adds the integrals in order, one
    reading for the level scans and the splitting checks on every region:
    numpy's scalar contraction sums another way on a region of one node, and
    numpy's pairwise sum does from m = 8 on.
    """
    integrals = np.einsum("n,jn->j", w, np.abs(rows, out=out))
    norm = 0.0
    for value in integrals.tolist():
        norm += value
    return norm, integrals


def _szlenk_trial(
    w: np.ndarray, s: np.ndarray, u: np.ndarray, k: int, out: np.ndarray, total=None
) -> tuple[float, np.ndarray]:
    """(||s + u||_1 / k, the integrals of |s + u| per component): a level scan's running mean.

    s + u goes to total, or to the scratch row out when total is None; out
    takes |s + u|.
    """
    norm, integrals = _l1(w, np.add(s, u, out=out if total is None else total), out)
    return norm / k, integrals


def _szlenk_select(
    pool: np.ndarray,
    w: np.ndarray,
    levels: int,
    centre: np.ndarray | None = None,
    nodes: np.ndarray | None = None,
    pairings: bool = True,
) -> tuple[SzlenkSchedule, ExtractionTrace]:
    """Level/diagonal selection over a (horizon, m, N) member pool, read at nodes if given.

    One pass reads each member once and offers it to level 1; each level
    offers the members it keeps to the next.  Levels that have kept the same
    members form a band: one sum, one trial per offered member, compared with
    each level's threshold.  The thresholds fall with the level, so the
    levels that keep a member are a leading run of the band, and the rest go
    on as a band of their own with a copy of the sum before it: the same
    in-place adds from zero that a rescan of their list makes.  While one
    band holds every level, its sum is the walk's s and a kept member's s + u
    goes to the walk.  At the first split the keepers take that row and the
    walk keeps s; from then on the walk adds the diagonal's k-th pick, level
    min(k, levels)'s k-th member, where that level keeps it.  pairings False
    leaves the trace's pairings NaN after the first pick (_CesaroWalk).
    """
    walk = _CesaroWalk(pool, w, 1.0, centre, nodes, pairings)
    # [first level, last level, kept members, their sum] per band, in level order.
    bands, ahead, heads = [[1, levels, [], walk.s]], np.zeros_like(walk.s), {}
    for idx in range(1, walk.horizon + 1):
        u = walk.member(idx)
        for b, band in enumerate(bands):
            first, last, chosen, s = band
            k, walking = len(chosen) + 1, len(bands) == 1
            trial, integrals = _szlenk_trial(w, s, u, k, walk.scratch, ahead if walking else None)
            root, kept = k ** -0.5, first
            while kept <= last and trial <= max(1.0 / kept, root) + _SELECTION_SLACK:
                kept += 1
            if kept == first:
                break
            if kept <= last:  # levels kept..last reject u and go on as a band of their own
                bands.insert(b + 1, [kept, last, list(chosen), s.copy()])
                band[1] = kept - 1
            chosen.append(idx)
            diagonal = first <= min(k, levels) < kept  # u is the diagonal's k-th pick
            if not walking:
                s += u
                if diagonal:
                    walk.add(idx)
            elif diagonal:
                ahead = walk.add(idx, ahead=(ahead, integrals))
                band[3] = walk.s
            else:  # the first split: a level l <= k rejects u, as 1/(l - 1) > k^(-1/2)
                band[3] = ahead
            if diagonal and k < levels:
                heads[k] = walk.s.copy()
            if kept <= last:
                break

    level_lists = [list(band[2]) for band in bands for _ in range(band[0], band[1] + 1)]
    for level, chosen in enumerate(level_lists, start=1):
        if len(chosen) < level:
            raise LevelStalledError(
                f"level {level} kept only {len(chosen)} members within the pool "
                f"of {walk.horizon}; cannot host the diagonal",
                level=level,
                completed=level_lists[: level - 1],
            )
    trace = walk.trace("szlenk_diagonal")
    cesaro, length = trace.cesaro_norms, trace.length

    n, checkpoints = walk.s.size + 3, []
    for level in range(1, levels + 1):
        k = min(length, max(level, round(length * level / levels)))
        check = SzlenkCheckpoint(level, k, float(cesaro[k - 1]), 1.0 / level)
        checkpoints.append(_held_to_rounding(check, n, check.cesaro_norm + check.target))
    splitting = []
    for prefix in range(1, min(levels, length)):
        head = heads[prefix]
        rhs = _l1(w, head)[0] / length + _l1(w, walk.s - head)[0] / (length - prefix)
        check = SplitCheck(prefix, length, float(cesaro[-1]), rhs)
        splitting.append(_held_to_rounding(check, n, check.lhs + check.rhs))

    schedule = SzlenkSchedule(
        levels=level_lists,
        targets=[1.0 / level for level in range(1, levels + 1)],
        diagonal=list(walk.indices),
        checkpoints=checkpoints,
        splitting_checks=splitting,
    )
    return schedule, trace


def _select(
    pool: np.ndarray,
    p: float,
    w: np.ndarray,
    levels: int | None = None,
    centre=None,
    nodes=None,
    pairings: bool = True,
) -> tuple[SzlenkSchedule | None, ExtractionTrace]:
    """(schedule, trace) of the selection at p over a (horizon, m, N) member pool.

    p = 1 runs the level/diagonal selection with the given level count,
    p > 1 the recursive threshold selection, whose schedule is None.  A
    selection that reads the pool itself, on the whole grid (nodes None) with
    no centre or an all-zero one, is computed once per run, per pool, p and
    level count: one key gives one result, bit for bit.  Any other selection
    is computed on every call.  pairings False asks for a p = 1 trace whose
    pairings after the first pick are NaN, not computed; a selection the run
    keeps records them all, since an extraction phase may read them.
    """

    def select(pairings: bool):
        if p == 1.0:
            return _szlenk_select(pool, w, levels, centre, nodes, pairings)
        return None, _banach_saks_select(pool, p, w, centre)

    if nodes is None and (centre is None or not centre.any()) and _memo_open():
        return _shared(lambda: select(True), "selection", pool, p, levels)
    return select(pairings)


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
