"""Canonical function sequences and weak/weak* convergence probes.

The gallery provides deterministic families indexed by i >= 1:

  * ``oscillatory``  amplitude * sin(2*pi*i*base*x1),
  * ``rademacher``   amplitude * (dyadic +-1 sign pattern of depth i),
  * ``spike``        a mass-one indicator slab shrinking like 1/i,
  * ``constant``     amplitude * value, independent of i,
  * ``custom``       caller-supplied sample table per index.

The dyadic family equals sign(sin(2^i * pi * t)) of the box's unit coordinate
t = (x1 - lo) / length while the grid can resolve that depth; deeper indices
continue with products of the resolvable sign patterns, which keeps values in
{-1, +1}, keeps the family weakly null, and keeps it exactly orthogonal on
dyadic grids of any box.  A resolution guard refuses any index whose finest
oscillation the grid cannot represent (at least 8 nodes per cycle), so that
aliasing cannot fake convergence.

Weak convergence against all of L^q is undecidable numerically; the probes
test a finite dictionary and classify the residual decay, reporting
``inconclusive`` when neither the convergence nor the divergence criterion
triggers.
"""

from __future__ import annotations

import contextlib
import contextvars
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError, PoolBudgetError
from .grid import (
    QuadratureGrid,
    ScalarField,
    VectorField,
    _finite_array,
    _given,
    _integer,
    _number,
    _require_finite,
    _rounding_budget,
    _spec,
    _weighted_sum,
)
from .norms import INFINITY, _check_exponent

__all__ = [
    "OSCILLATORY",
    "RADEMACHER",
    "SPIKE",
    "CONSTANT",
    "CUSTOM",
    "CONVERGING",
    "NOT_CONVERGING",
    "INCONCLUSIVE",
    "SequenceSpec",
    "VectorSequenceSpec",
    "ProbeReport",
    "generate",
    "generate_vector",
    "member_pool",
    "weak_probe",
    "weak_star_probe",
    "default_probe_dictionary",
]

OSCILLATORY = "oscillatory"
RADEMACHER = "rademacher"
SPIKE = "spike"
CONSTANT = "constant"
CUSTOM = "custom"
_KINDS = (OSCILLATORY, RADEMACHER, SPIKE, CONSTANT, CUSTOM)

CONVERGING = "converging"
NOT_CONVERGING = "not-converging"
INCONCLUSIVE = "inconclusive"

# Verdict thresholds: residual must drop by this factor for "converging";
# a flat curve bounded below by the same floor reads "not-converging".  The
# liminf replay and the cesaro phase read a Cesaro curve as converged below
# the same flat slope (ExtractionTrace._cesaro_slope).
_DECAY_FACTOR = 1e-2
_FLAT_SLOPE = -0.05

# Largest member pool, in bytes, that member_pool allocates.  A larger pool is
# refused before anything is allocated, never chunked: every stage reads the
# whole pool.
POOL_BUDGET_BYTES = 256 * 2 ** 20


@dataclass
class SequenceSpec:
    """Declarative generator of the i-th member of a scalar sequence."""

    kind: str
    amplitude: float = 1.0
    base: float = 1.0
    value: float = 0.0
    table: dict | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"unknown sequence kind {self.kind!r}")
        if self.kind == CUSTOM and self.table is None:
            raise InvalidArgumentError("custom sequences need a sample table")
        self.amplitude = _number("amplitude", self.amplitude)
        self.base = _number("base", self.base)
        self.value = _number("value", self.value)

    @classmethod
    def from_config(cls, raw: dict) -> "SequenceSpec":
        kind, raw, params = _spec("sequence spec", raw)
        table = params.get("table")
        if table is not None:
            entries = _given("custom table", table).items()
            table = {_table_key(k): _finite_array(f"custom table entry {k}", v) for k, v in entries}
        return cls(
            kind=kind,
            amplitude=raw.get("amplitude", 1.0),
            base=params.get("base", 1.0),
            value=params.get("value", 0.0),
            table=table,
        )


def _table_key(key) -> int:
    """The member index a custom-table key names: an int, or a string of its decimal digits.

    Every JSON key is a string; no other string reads as a number.
    """
    index = int(key) if isinstance(key, str) and key.isdecimal() else key
    return _integer("custom table key", index, 1)


@dataclass
class VectorSequenceSpec:
    """Componentwise sequence in the m-fold product space."""

    components: list

    def __post_init__(self) -> None:
        if len(self.components) < 1:
            raise InvalidArgumentError("need at least one component spec")

    @property
    def m(self) -> int:
        return len(self.components)


@dataclass
class ProbeReport:
    """Residual curve of a weak/weak* probe and the resulting verdict."""

    indices: np.ndarray
    residuals: np.ndarray
    verdict: str
    slope: float

    def __post_init__(self) -> None:
        if np.any(self.residuals < 0.0):
            raise InvalidArgumentError("probe residuals must be nonnegative")

    def rows(self):
        return [(int(i), float(r), self.verdict) for i, r in zip(self.indices, self.residuals)]


def _dyadic_sign(x: np.ndarray, level: int) -> np.ndarray:
    # Parity of floor(2^level * x); ldexp is an exact power-of-two scaling.
    # The integer y is even exactly when floor(y / 2) * 2 gives y back, every
    # step exact, and this costs a fraction of the float remainder y % 2.
    y = np.floor(np.ldexp(x, level))
    half = np.floor(np.ldexp(y, -1))
    half *= 2.0
    return np.where(half == y, 1.0, -1.0)


def _max_dyadic_level(n1: int) -> int:
    # Deepest level m whose 2^(m-1) cycles over the unit box keep >= 8 nodes
    # per cycle: 2^(m-1) <= n1 / 8 exactly when 2^(m-1) <= n1 // 8.
    return (n1 // 8).bit_length()


def _walsh_masks(horizon: int, max_level: int) -> list:
    """Bit masks of dyadic levels used by gallery indices 1..horizon, in one pass.

    Indices 1..max_level are the single levels; later indices take the other
    masks in increasing order.  The list stops at the last sign pattern, so
    it is shorter than horizon when the grid cannot resolve every index.
    """
    masks = [1 << level for level in range(min(horizon, max_level))]
    t = 3
    while len(masks) < horizon and t < 1 << max_level:
        if t & (t - 1):  # skip pure powers of two, already used
            masks.append(t)
        t += 1
    return masks


def _kind_rows(spec: SequenceSpec, grid: QuadratureGrid, indices: range):
    """``(check, write)`` for sample rows i in indices of the sequence, one branch per kind.

    ``check(i)`` raises generate's refusal of any index i without writing
    row i: the grid cannot resolve i (aliasing guard), a custom table has no
    usable entry for i, or row i would hold a non-finite sample.  Every kind
    but custom refuses from some index on, so its check at one index covers
    every earlier one.  ``write(rows, i, first)``, i in the step-1 range
    indices, fills ``rows[i - indices.start]`` with row i and runs no guard,
    a custom write included: call it only for an i that check has cleared.
    Called for i = first, first + 1, ... in turn, a write may read the rows
    it wrote since first: a Rademacher row whose mask less its lowest level
    is such a row's is that row times one sign row.  The setup shared by the
    indices runs here and never raises; with empty indices, for check alone,
    it allocates no row-sized array.
    """
    x1 = grid.nodes[:, 0]
    n1 = grid.axis_resolution(0)
    lo, length = grid.domain_box[0, 0], grid.axis_length(0)

    if spec.kind == OSCILLATORY:
        # The phase is linear in x1: finite at the extreme nodes, finite at every node.
        ends = np.array([x1.min(), x1.max()])

        def check(i: int) -> None:
            # A negative base aliases as its absolute value does: sin is odd.
            cycles = abs(i * spec.base * length)
            if 8.0 * cycles > n1:
                raise InvalidArgumentError(
                    f"resolution {n1} cannot resolve {cycles:g} cycles "
                    f"(need >= 8 nodes per cycle); refusing index {i}"
                )
            phase = np.multiply(2.0 * np.pi * i * spec.base, ends)
            _require_finite(np.sin(phase) * spec.amplitude)

        def write(rows: np.ndarray, i: int, first: int) -> None:
            out = rows[i - indices.start]
            np.multiply(2.0 * np.pi * i * spec.base, x1, out=out)
            np.sin(out, out=out)
            out *= spec.amplitude

    elif spec.kind == RADEMACHER:
        max_level = _max_dyadic_level(n1)

        def check(i: int) -> None:
            if max_level < 1:
                raise InvalidArgumentError(
                    f"resolution {n1} cannot resolve any dyadic sign pattern"
                )
            if i >= 1 << max_level:
                raise InvalidArgumentError(
                    f"grid resolution supports only {(1 << max_level) - 1} dyadic sign "
                    f"patterns; index {i} is out of range"
                )
            _require_finite(spec.amplitude)

        masks = _walsh_masks(indices.stop - 1, max_level)
        index_of = {mask: i for i, mask in enumerate(masks, 1)}
        # One sign row per level the indices' masks use, computed here and
        # only read by write, so fill threads share no mutable state.  The
        # signs read the box's own unit coordinate, so every box carries the
        # same family; on [0, 1] it is x1 bit for bit.
        used = 0
        for mask in masks[indices.start - 1 :]:
            used |= mask
        if used:
            unit = x1 - lo
            unit /= length
        signs = {
            level: _dyadic_sign(unit, level)
            for level in range(1, used.bit_length() + 1) if used >> (level - 1) & 1
        }

        def write(rows: np.ndarray, i: int, first: int) -> None:
            # Row i is the amplitude times the mask's level sign rows.  Every
            # factor is +-1, so each product is exact and the row is
            # +-amplitude whatever the order, signed zeros included: the row of
            # the mask less its lowest level, once written, needs one multiply.
            out = rows[i - indices.start]
            mask = masks[i - 1]
            lowest = mask & -mask
            below = index_of.get(mask ^ lowest, 0)
            if below >= first:
                np.multiply(rows[below - indices.start], signs[lowest.bit_length()], out=out)
                return
            levels = [level for level in range(1, mask.bit_length() + 1) if mask >> (level - 1) & 1]
            np.multiply(signs[levels[0]], spec.amplitude, out=out)
            for level in levels[1:]:
                out *= signs[level]

    elif spec.kind == SPIKE:
        def support(i: int) -> tuple[np.ndarray, float]:
            slab = x1 < lo + length / i
            return slab, float(grid.weights[slab].sum())

        def check(i: int) -> None:
            if i > n1:
                raise InvalidArgumentError(
                    f"resolution {n1} cannot resolve a width-1/{i} spike"
                )
            mass = support(i)[1]
            if mass <= 0.0:
                raise InvalidArgumentError(f"spike support carries no mass at index {i}")
            _require_finite(spec.amplitude / mass)

        def write(rows: np.ndarray, i: int, first: int) -> None:
            # Height chosen so the slab integrates to `amplitude` exactly; this
            # equals amplitude * i * indicator when i divides the axis resolution.
            slab, mass = support(i)
            out = rows[i - indices.start]
            out.fill(0.0)
            out[slab] = spec.amplitude / mass

    elif spec.kind == CONSTANT:
        def check(i: int) -> None:
            _require_finite(spec.amplitude * spec.value)

        def write(rows: np.ndarray, i: int, first: int) -> None:
            rows[i - indices.start].fill(spec.amplitude * spec.value)

    else:  # CUSTOM
        def entry(i: int) -> np.ndarray:
            return np.asarray(spec.table[i], dtype=float).ravel()

        def check(i: int) -> None:
            try:
                samples = entry(i)
            except KeyError:
                raise InvalidArgumentError(f"custom table has no entry for index {i}") from None
            if samples.size != grid.node_count:
                raise InvalidArgumentError(
                    f"sample length {samples.size} != node count {grid.node_count}"
                )
            # amplitude * max |sample| bounds every product, exactly: rounding is monotone.
            _require_finite(spec.amplitude * float(max(samples.max(), -samples.min())))

        def write(rows: np.ndarray, i: int, first: int) -> None:
            np.multiply(spec.amplitude, entry(i), out=rows[i - indices.start])

    return check, write


def _check_members(seq: VectorSequenceSpec, grid: QuadratureGrid, horizon: int) -> None:
    """Raise generate's first refusal of a member 1..horizon, in (i, j) order, writing no row.

    Each non-custom guard runs once, at the horizon: it refuses from some
    index on, so a pass there covers every earlier index.  If all of them
    pass, only the custom tables, which can lack or spoil any entry, are
    guarded index by index.  If one refuses (a warning raised as an error
    included), every guard runs at every index until the first refusal.
    """
    checks = [(spec.kind, _kind_rows(spec, grid, range(1, 1))[0]) for spec in seq.components]
    try:
        for kind, check in checks:
            if kind != CUSTOM:
                check(horizon)
        indexed = [check for kind, check in checks if kind == CUSTOM]
    except Exception:
        indexed = [check for _, check in checks]
    for i in range(1, horizon + 1):
        for check in indexed:
            check(i)


def generate(spec: SequenceSpec, i: int, grid: QuadratureGrid) -> ScalarField:
    """Sample the i-th member of the sequence on the grid.

    Deterministic: identical (spec, i, grid) always produce identical samples.
    Raises when the grid cannot resolve the requested index (aliasing guard)
    or when a custom table has no entry for i.
    """
    i = _integer("sequence index", i, 1)
    check, write = _kind_rows(spec, grid, range(i, i + 1))
    check(i)
    out = np.empty(grid.node_count)
    write(out[None], i, i)
    return ScalarField(grid, out)


def generate_vector(spec: VectorSequenceSpec, i: int, grid: QuadratureGrid) -> VectorField:
    return VectorField([generate(c, i, grid) for c in spec.components])


def _check_array_budget(what: str, count: float) -> None:
    """Refuse an array of count float64 values over POOL_BUDGET_BYTES before it is allocated."""
    requested = 8.0 * count
    if not requested <= POOL_BUDGET_BYTES:
        raise InvalidArgumentError(
            f"{what} needs {requested:.4g} bytes, over the budget of {POOL_BUDGET_BYTES} bytes"
        )


def _check_pool_budget(horizon: int, m: int, node_count: int) -> None:
    requested = horizon * m * node_count * 8
    if requested > POOL_BUDGET_BYTES:
        raise PoolBudgetError(
            f"a pool of horizon {horizon}, m = {m} on N = {node_count} nodes needs "
            f"{requested} bytes, over the budget of {POOL_BUDGET_BYTES} bytes",
            horizon=horizon,
            m=m,
            node_count=node_count,
            requested_bytes=requested,
            budget_bytes=POOL_BUDGET_BYTES,
        )


# The run memo: results computed inside a _shared_pools() scope, keyed as
# _shared matches them; None outside every scope.
_MEMO: contextvars.ContextVar = contextvars.ContextVar("lplab_run_memo", default=None)


@contextlib.contextmanager
def _shared_pools():
    """Scope in which ``_shared`` computes each result once, kept until it closes."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memo_open() -> bool:
    """Whether ``_shared`` keeps what it computes here: in a scope, on the scope's thread."""
    return _MEMO.get() is not None


def _shared(compute, *key):
    """compute(), computed once per key inside a ``_shared_pools`` scope.

    Numbers, strings and None in the key match by value, any other object by
    identity.  The memo keeps each key beside its result, so no object a key
    names is freed, and its id reused, while the scope lasts.  A compute that
    raises stores nothing, so a later call raises again.  Outside every
    scope, and on a worker thread, which does not see the caller's context,
    it computes on every call.
    """
    memo = _MEMO.get()
    if memo is None:
        return compute()
    match = tuple(
        k if k is None or isinstance(k, (numbers.Number, str)) else (id(k),) for k in key
    )
    if match not in memo:
        memo[match] = (key, compute())
    return memo[match][1]


def member_pool(seq: VectorSequenceSpec, grid: QuadratureGrid, horizon: int) -> np.ndarray:
    """Members u_1..u_horizon as one read-only (horizon, m, N) array.

    Row [i-1, j] is bitwise equal to ``generate(seq.components[j], i,
    grid).samples``: both write rows through one writer per component.
    Before anything is allocated, ``_check_members`` raises the refusal
    generate raises first in (index, component) order, so a refused pool
    writes no row and starts no thread; the writers run no guard.  The
    sign rows of the dyadic levels are computed once per build; a
    Rademacher row whose mask less its lowest level is a row the same fill
    half has written is that row times one sign row, any other the product
    of its levels' sign rows.  The pool is filled on up to two threads, with
    the same bits.
    A pool larger than ``POOL_BUDGET_BYTES`` is refused with
    ``PoolBudgetError`` before anything is allocated.  Each call builds its
    own pool, except inside one scenario run of the command line, which
    builds it once for all its phases.
    """
    return _shared(lambda: _build_pool(seq, grid, horizon), "pool", seq, grid, horizon)


def _usable_cpus() -> int:
    """CPUs this process may run on, at least 1."""
    import os

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _halves(costs: list, work) -> None:
    """Run work(lo, hi) over len(costs) items in two contiguous halves, on two threads.

    The split leaves the costlier half as cheap as it can, at the lower index
    on a tie, so n equal costs split at n // 2.  The upper half runs on a
    short-lived thread and the lower half on the calling one; both end before
    this returns.  When both halves raise, the lower half's error is the one
    raised, so errors keep their index order.  With fewer than two usable
    CPUs, or n < 2, work(0, n) runs alone.
    """
    import itertools
    import threading

    n = len(costs)
    if n < 2 or _usable_cpus() < 2:
        work(0, n)
        return
    below = list(itertools.accumulate(costs, initial=0))
    mid = min(range(1, n), key=lambda k: max(below[k], below[n] - below[k]))
    upper_error = []

    def upper() -> None:
        try:
            work(mid, n)
        except BaseException as err:
            upper_error.append(err)

    thread = threading.Thread(target=upper)
    thread.start()
    try:
        work(0, mid)
    finally:
        thread.join()
    if upper_error:
        raise upper_error[0]


def _build_pool(seq: VectorSequenceSpec, grid: QuadratureGrid, horizon: int) -> np.ndarray:
    horizon = _integer("pool horizon", horizon, 1)
    _check_pool_budget(horizon, seq.m, grid.node_count)
    _check_members(seq, grid, horizon)
    writers = [_kind_rows(comp, grid, range(1, horizon + 1))[1] for comp in seq.components]
    pool = np.empty((horizon, seq.m, grid.node_count))
    columns = list(pool.swapaxes(0, 1))

    def fill(lo: int, hi: int) -> None:
        for i in range(lo + 1, hi + 1):
            for rows, write in zip(columns, writers):
                write(rows, i, lo + 1)

    _halves([1] * horizon, fill)
    pool.setflags(write=False)
    return pool


def default_probe_dictionary(grid: QuadratureGrid) -> list:
    """Constant 1, every coordinate function, and x1^2.

    Bounded on the box, hence in every L^q there, including L^1.  A field
    whose samples, or samples times the cell weights, overflow the float
    range on the box is refused, naming the field.  Inside one scenario run
    of the command line every call on a grid returns one list, so the
    phases' probes share it.
    """

    def build() -> list:
        named = [("1", np.full(grid.node_count, 1.0))]
        named += [(f"x{axis + 1}", grid.nodes[:, axis].copy()) for axis in range(grid.dimension)]
        widest = grid.weights.max()
        with np.errstate(over="ignore", invalid="ignore"):
            named.append(("x1^2", grid.nodes[:, 0] ** 2))
            for name, samples in named:
                # Every |v w| is at most max |v| max w, so only a field whose
                # bound is not finite needs its products formed.  Weights are
                # finite, so a product is finite only where the sample is.
                bound = max(samples.max(), -samples.min()) * widest
                if not np.isfinite(bound) and not np.isfinite(samples * grid.weights).all():
                    raise InvalidArgumentError(
                        f"the probe field {name} overflows on the box "
                        f"{grid.domain_box.tolist()}: its samples times the cell weights "
                        "are not finite"
                    )
        return [ScalarField(grid, samples) for _, samples in named]

    return _shared(build, "dictionary", grid)


def _loglog_slope(ks: np.ndarray, values: np.ndarray) -> float | None:
    """Least-squares slope of log(values) against log(ks) over positive values.

    None when fewer than two values are positive: no line is determined.
    """
    pos = values > 0.0
    if int(pos.sum()) < 2:
        return None
    return float(np.polyfit(np.log(ks[pos]), np.log(values[pos]), 1)[0])


def _classify(residuals: np.ndarray, slope: float, zero_floor) -> str:
    """Verdict of a probe's residual curve from its shape.

    A curve whose shape does not read ``converging`` still does when every
    residual is rounding noise, at most zero_floor(); it is called only then.
    """
    first_pos = int(np.argmax(residuals > 0.0))
    initial = residuals[first_pos]
    final = residuals[-1]
    if slope < 0.0 and final < _DECAY_FACTOR * initial:
        return CONVERGING
    if residuals.max() <= zero_floor():
        return CONVERGING
    tail_floor = residuals[residuals.size // 2 :].min()
    if slope >= _FLAT_SLOPE and tail_floor >= _DECAY_FACTOR * initial:
        return NOT_CONVERGING
    return INCONCLUSIVE


def _centred(samples: np.ndarray, limit_samples: np.ndarray) -> np.ndarray:
    """samples - limit_samples, broadcast over leading axes.

    Subtracting a zero limit changes no bit, so the samples come back as they
    are instead of through a pool-sized temporary.
    """
    return samples - limit_samples if limit_samples.any() else samples


def _probe_pairings(pool: np.ndarray, limit: VectorField, weighted: np.ndarray) -> np.ndarray:
    """Pairings <u_i^(j) - u^(j), v> as an (m, horizon, d) array.

    weighted is the (d, N) stack of dictionary samples times the weights.
    The members are split over up to two threads (``_halves``).  einsum sums
    a stack of two rows or more in the order it sums each row of the whole
    pool (a lone row with one field it sums in another order), and a probe's
    horizon is at least 8, so the pairings are the same bits on one CPU.  No
    BLAS call is made: a threaded BLAS call leaves a worker busy-waiting for
    about 0.1 s of CPU, which the weak* truncation threads that follow would
    compete with.
    """
    horizon, m = pool.shape[:2]
    pairings = np.empty((m, horizon, weighted.shape[0]))

    def pair(lo: int, hi: int) -> None:
        for j, lim in enumerate(limit.components):
            rows = _centred(pool[lo:hi, j], lim.samples)
            np.einsum("in,dn->id", rows, weighted, out=pairings[j, lo:hi])

    _halves([1] * horizon, pair)
    return pairings


def _check_probe_horizon(horizon) -> int:
    """The horizon as an int of at least 8: the probe fits its slope to at least 8 residuals."""
    return _integer("probe horizon", horizon, 8)


def _probed_pool(
    seq: VectorSequenceSpec,
    limit: VectorField,
    p: float,
    dictionary: list,
    horizon: int,
) -> tuple[np.ndarray, ProbeReport]:
    """Check the probe's arguments, build the member pool and probe it."""
    _check_exponent(p)
    horizon = _check_probe_horizon(horizon)
    if not dictionary:
        raise InvalidArgumentError("the probe dictionary must be nonempty")
    if limit.m != seq.m:
        raise InvalidArgumentError(
            f"limit has {limit.m} components, sequence has {seq.m}"
        )
    grid = limit.grid
    for v in dictionary:
        if v.grid is not grid:
            raise GridMismatchError("dictionary fields live on a different grid")

    pool = member_pool(seq, grid, horizon)

    def zero_floor() -> float:
        # A pairing sums N terms w v (u - l), each rounded three times, with
        # |u - l| <= S and sum w |v| <= V.
        size = max(pool.max(), -pool.min()) + max(
            max(lim.samples.max(), -lim.samples.min()) for lim in limit.components
        )
        reach = max(_weighted_sum(grid.weights, np.abs(v.samples)) for v in dictionary)
        return _rounding_budget(grid.node_count + 3, float(size) * reach)

    def probe() -> ProbeReport:
        weighted = np.stack([v.samples for v in dictionary]) * grid.weights
        residuals = np.abs(_probe_pairings(pool, limit, weighted)).max(axis=(0, 2))
        slope = _loglog_slope(np.arange(1, horizon + 1, dtype=float), residuals)
        if slope is None:
            slope = 0.0
        verdict = _classify(residuals, slope, zero_floor)
        return ProbeReport(np.arange(1, horizon + 1), residuals, verdict, slope)

    # The residuals do not depend on p, which only names the dual space.
    return pool, _shared(probe, "probe", seq, limit, horizon, dictionary)


def weak_probe(
    seq: VectorSequenceSpec,
    limit: VectorField,
    p: float,
    dictionary: list,
    horizon: int,
) -> ProbeReport:
    """Pairing residuals of u_i - u against a finite dictionary.

    residual_i = max over components j and dictionary members v of
    |<u_i^(j) - u^(j), v>|.  The verdict is ``converging`` when the log-log
    fitted slope is negative and the final residual has dropped below 1e-2 of
    the initial one, ``not-converging`` when the curve is flat and bounded
    away from zero over the last half of the horizon, else ``inconclusive``.
    A curve of rounding noise reads ``converging`` too: the zero floor is
    gamma_(N+3) S V, the rounding budget of one pairing on N nodes, with S =
    max |u_i| + max |u| over the members and the limit and V the largest
    sum_n w_n |v_n| over the dictionary.  It scales with the data, so the
    verdict of lambda u_i is the verdict of u_i, and it is computed only for
    a curve whose shape does not already read ``converging``.
    The pairings are split by member over up to two threads and call no
    BLAS, so the residuals are the same bits on one CPU or two and under any
    BLAS thread count.
    """
    return _probed_pool(seq, limit, p, dictionary, horizon)[1]


def weak_star_probe(
    seq: VectorSequenceSpec,
    limit: VectorField,
    dictionary: list,
    horizon: int,
) -> ProbeReport:
    """Weak* variant: bounded sequences paired against an L^1 dictionary."""
    return weak_probe(seq, limit, INFINITY, dictionary, horizon)
