import dataclasses
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lplab import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    ExtractionStalledError,
    InequalityConstants,
    InvalidArgumentError,
    LevelStalledError,
    PreconditionViolationError,
    RegionMask,
    ScalarField,
    SequenceSpec,
    VectorField,
    VectorSequenceSpec,
    banach_saks_extract,
    build_uniform_grid,
    cesaro_curve,
    check_pointwise_inequality,
    decay_rate_fit,
    estimate_a_constant,
    floor_exponent,
    generalized_binomial,
    generate,
    generate_vector,
    liminf_verify,
    remainder_term,
    szlenk_extract,
    truncate_region,
    verify_growth_bound,
    weak_star_verify,
)
from lplab import extraction, gallery
from lplab.extraction import _banach_saks_select
from lplab.grid import _rounding_budget
from lplab.norms import _lp_norms


@pytest.fixture(scope="module")
def grid():
    return build_uniform_grid([[0.0, 1.0]], 2048)


def test_generalized_binomial_values():
    assert generalized_binomial(3.0, 2) == pytest.approx(3.0)
    assert generalized_binomial(2.5, 2) == pytest.approx(1.875)
    assert generalized_binomial(5.0, 0) == 1.0
    assert generalized_binomial(3.7, 1) == pytest.approx(3.7)


def test_floor_exponent():
    assert floor_exponent(3.0) == 2
    assert floor_exponent(2.5) == 2
    assert floor_exponent(2.0) == 1
    assert floor_exponent(1.0001) == 1
    with pytest.raises(InvalidArgumentError):
        floor_exponent(1.0)


def test_remainder_term():
    assert remainder_term(1.5, 3.0, -4.0) == 0.0
    assert remainder_term(2.0, 3.0, -4.0) == 0.0
    # p = 3 keeps the single i = 2 term: binom(3,2) |a| |b|^2
    assert remainder_term(3.0, 2.0, 1.0) == pytest.approx(6.0)
    assert remainder_term(3.0, 0.0, 5.0) == 0.0
    out = remainder_term(3.0, np.array([2.0, 0.0]), np.array([1.0, 5.0]))
    assert np.allclose(out, [6.0, 0.0])


def test_remainder_term_keeps_the_bits_of_its_binomials():
    # The binomials are carried from term to term; each must be generalized_binomial's.
    a, b = np.linspace(-3.0, 3.0, 61), 0.75
    for p in (2.5, 3.0, 7.3, 12.0, 57.5):
        expected = np.zeros(a.shape)
        for i in range(2, floor_exponent(p) + 1):
            expected = expected + generalized_binomial(p, i) * np.abs(a) ** (p - i) * b ** i
        assert np.array_equal(remainder_term(p, a, b), expected), p


@pytest.mark.parametrize(
    "call",
    [
        lambda: estimate_a_constant(1e7, 1e-300, 1e-300),
        lambda: remainder_term(1029.5, 1e-3, 1e-3),
    ],
    ids=["a-scan-p=1e7-tiny-range", "remainder-p=1029.5"],
)
def test_a_p_whose_2_to_the_p_overflows_is_refused_before_its_binomials(call):
    # (t_max + 1)^p stays finite on a tiny range, but B(p) does not: the loop
    # over E(p) binomials ran past 5 s, or returned NaN with a numpy warning.
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="is not finite"):
            call()
    assert time.perf_counter() - start < 1.0


def test_constant_a_for_p2_is_exact():
    # (t+1)^2 - t^2 - 2t = 1 identically, so the scan supremum is 1
    assert estimate_a_constant(2.0) == pytest.approx(1.01, abs=1e-9)


def test_constant_a_is_scanned_once_per_argument_tuple():
    first = estimate_a_constant(2.5, t_max=20.0)
    hits = extraction._a_constant.cache_info().hits
    assert estimate_a_constant(2.5, 20, 1e-3, 1.01) == first
    assert extraction._a_constant.cache_info().hits == hits + 1
    # the cached value is the scan's, bit for bit
    assert extraction._a_constant.__wrapped__(2.5, 20.0, 1e-3, 1.01) == first


def _one_array_a(p: float, t_max: float, step: float) -> float:
    """A from g over the whole scan as one array, the reference for the blocked scan."""
    t = np.linspace(-t_max, t_max, int(round(2.0 * t_max / step)) + 1)
    g = (
        np.abs(t + 1.0) ** p
        - np.abs(t) ** p
        - p * np.abs(t) ** (p - 1.0) * np.sign(t)
        - remainder_term(p, t, 1.0)
    )
    return 1.01 * float(g.max())


@pytest.mark.parametrize("p", [1.0001, 1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 7.5, 8.0, 12.0])
def test_the_blocked_a_scan_equals_the_one_array_formula(p):
    # 200 001, 20 001 and 7 points: none is a multiple of the block.
    for t_max, step in ((100.0, 1e-3), (10.0, 1e-3), (1.5, 0.5)):
        assert extraction._a_constant.__wrapped__(p, t_max, step, 1.01) == _one_array_a(
            p, t_max, step
        ), (t_max, step)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_a_scan_with_a_nan_or_inf_in_one_block_is_refused(bad, monkeypatch):
    # One point far from both ends of the scan, in a block of its own: g there
    # is NaN or +inf, and the sup over the block maxima still reads it.
    def remainder(p, a, b):
        out = np.zeros(np.shape(a))
        out[np.asarray(a) == 50.0] = bad
        return out

    monkeypatch.setattr(extraction, "remainder_term", remainder)
    with pytest.raises(InvalidArgumentError, match="diverged"):
        extraction._a_constant.__wrapped__(2.5, 100.0, 1e-3, 1.01)


def test_the_a_scan_holds_its_points_and_a_few_blocks_at_a_time():
    # The default scan's 200 001 points take 1.6 MB.  Evaluated as one array,
    # g held four to five temporaries of that size at once; in blocks of
    # 8 192 points it holds the points and about five 64 KiB temporaries.
    points = 200_001
    extraction._a_constant.cache_clear()
    tracemalloc.start()
    try:
        estimate_a_constant(3.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * points + 8 * 64 * 1024


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 3.0, 3.5])
def test_constant_a_at_least_one(p):
    assert estimate_a_constant(p) >= 1.0


def test_constant_a_against_finer_scan():
    # independent oracle: a denser scan on a narrower window
    a = estimate_a_constant(3.0)
    t = np.linspace(-50.0, 50.0, 1_000_001)
    g = (
        np.abs(t + 1.0) ** 3
        - np.abs(t) ** 3
        - 3.0 * t * np.abs(t)
        - 3.0 * np.abs(t)
    )
    assert a >= float(g.max())


def test_constants_dataclass_invariants():
    consts = InequalityConstants.build(3.0)
    assert consts.e_p == 2
    assert consts.b == pytest.approx(3.0)
    assert consts.a >= 1.0
    exported = consts.to_json_dict()
    assert set(exported) == {"p", "E_p", "A", "B", "scan_range", "scan_step"}
    with pytest.raises(InvalidArgumentError):
        InequalityConstants(p=3.0, e_p=1, a=1.5, b=3.0, scan_range=100.0, scan_step=1e-3)
    with pytest.raises(InvalidArgumentError):
        InequalityConstants(p=3.0, e_p=2, a=0.5, b=3.0, scan_range=100.0, scan_step=1e-3)


def test_pointwise_margin_examples():
    consts = InequalityConstants.build(2.0)
    assert check_pointwise_inequality(2.0, 1.0, 0.0, consts) == pytest.approx(0.0, abs=1e-12)
    assert check_pointwise_inequality(2.0, 0.0, 2.0, consts) == pytest.approx(
        consts.a * 4.0 - 4.0, abs=1e-12
    )


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 3.0, 3.5])
def test_pointwise_margins_on_coarse_grid(p):
    consts = InequalityConstants.build(p)
    vals = np.arange(-10.0, 10.0 + 0.25, 0.5)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    margins = check_pointwise_inequality(p, a.ravel(), b.ravel(), consts)
    assert float(margins.min()) >= -1e-9


def test_margin_homogeneity():
    rng = np.random.default_rng(21)
    for p in (1.5, 2.5, 3.5):
        consts = InequalityConstants.build(p)
        a = rng.uniform(-10, 10, 200)
        b = rng.uniform(-10, 10, 200)
        lam = rng.uniform(0.1, 10.0, 200)
        scaled = check_pointwise_inequality(p, lam * a, lam * b, consts)
        base = check_pointwise_inequality(p, a, b, consts)
        scale = lam ** p * (
            np.abs(a) ** p
            + p * np.abs(a) ** (p - 1) * np.abs(b)
            + consts.a * np.abs(b) ** p
            + np.abs(a + b) ** p
        )
        assert np.max(np.abs(scaled - lam ** p * base) / scale) <= 1e-9


def test_extract_zero_sequence(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="constant", value=0.0)])
    trace = banach_saks_extract(seq, 2.0, grid, 16)
    assert trace.indices == list(range(1, 17))
    assert not trace.cesaro_norms.any()
    assert not trace.pairings.any()


def test_extract_oscillatory_matches_orthonormal_oracle(grid):
    # oracle: ||s_k||_2^2 = k/2 exactly for orthogonal unit-period sines,
    # so the Cesaro curve is 1/sqrt(2k)
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    trace = banach_saks_extract(seq, 2.0, grid, 64)
    assert trace.indices == list(range(1, 65))
    assert float(np.abs(trace.pairings).max()) <= 1e-12
    ks = np.arange(1, 65)
    assert np.allclose(trace.cesaro_norms, 1.0 / np.sqrt(2.0 * ks), rtol=0.05)
    assert decay_rate_fit(cesaro_curve(trace)) == pytest.approx(-0.5, abs=0.05)


def test_extract_normalizes_oversized_members(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory", amplitude=7.0)])
    trace = banach_saks_extract(seq, 2.0, grid, 16)
    assert trace.normalization > 1.0
    assert trace.member_norm_sup <= 1.0 + 1e-12


def test_extract_vector_components(grid):
    seq = VectorSequenceSpec(
        [SequenceSpec(kind="oscillatory"), SequenceSpec(kind="rademacher")]
    )
    trace = banach_saks_extract(seq, 2.0, grid, 64)
    assert trace.pairings.shape == (64, 2)
    assert float(trace.pairings.max()) <= 1.0 + 1e-12
    assert trace.cesaro_norms[-1] < 0.2 * trace.cesaro_norms[0]


def test_extract_stalls_on_constant_sequence(grid):
    # a constant nonzero sequence is not weakly null; the running sums grow
    # until the threshold rejects every remaining candidate
    seq = VectorSequenceSpec([SequenceSpec(kind="constant", value=1.0)])
    with pytest.raises(ExtractionStalledError) as excinfo:
        banach_saks_extract(seq, 2.0, grid, 16)
    partial = excinfo.value.trace
    assert partial is not None
    assert partial.length >= 1
    assert partial.indices[0] == 1


def test_extract_rejects_p_one(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    with pytest.raises(InvalidArgumentError):
        banach_saks_extract(seq, 1.0, grid, 16)


def _two_pick_trace(**changes):
    """A valid trace of picks 1 and 2 from a pool of 4, with the given fields changed."""
    fields = dict(
        p=2.0, method="banach_saks", indices=[1, 2], pairings=np.zeros((2, 1)),
        partial_norms=np.ones((2, 1)), cesaro_norms=np.ones(2), normalization=1.0,
        member_norm_sup=1.0, pool_size=4,
    )
    return extraction.ExtractionTrace(**{**fields, **changes})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generalized_binomial(2.0, -1), "order must be >= 0"),
        (lambda: estimate_a_constant(2.0, t_max=0.0), "must be positive"),
        (lambda: estimate_a_constant(2.0, step=float("nan")), "must be positive"),
        (lambda: InequalityConstants(3.0, 2, 2.0, 0.0, 100.0, 1e-3), "the binomial sum"),
        (
            lambda: check_pointwise_inequality(3.0, 1.0, 1.0, InequalityConstants.build(2.0)),
            "built for p=2.0, not 3.0",
        ),
        (lambda: _two_pick_trace(indices=[]), "at least one selected index"),
        (lambda: _two_pick_trace(indices=[2, 1]), "strictly increasing"),
        (lambda: _two_pick_trace(indices=[1, 5]), "from the pool"),
        (lambda: _two_pick_trace(pairings=np.full((2, 1), 2.0)), "exceeds the threshold"),
        (
            lambda: verify_growth_bound(_two_pick_trace(), InequalityConstants.build(3.0), 2.0),
            "exponent mismatch",
        ),
        (lambda: extraction.SzlenkSchedule([[1, 2], [3]], [1.0, 0.5], [1, 3], [], []), "nested"),
        (
            lambda: extraction.SzlenkSchedule([[1, 2, 3], [1, 3]], [1.0, 0.5], [3, 1], [], []),
            "diagonal must be strictly increasing",
        ),
    ],
    ids=[
        "binomial-order", "scan-range", "scan-step", "constant-b", "constants-p",
        "no-pick", "picks-out-of-order", "pick-outside-pool", "pairing-above-1",
        "growth-exponents", "levels-not-nested", "diagonal-out-of-order",
    ],
)
def test_constants_traces_and_schedules_refuse_inconsistent_input(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()


def test_growth_bound_on_oscillatory(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    for p in (1.5, 2.0):
        trace = banach_saks_extract(seq, p, grid, 64)
        consts = InequalityConstants.build(p)
        report = verify_growth_bound(trace, consts, p)
        assert report.aggregate_ok()
        assert report.stepwise_ok()
        # first step: integral |s_1|^p <= 1 <= (A+p) + B + 1
        assert report.aggregate_margins[0].min() > 0.0


def test_growth_stepwise_recursion_above_two(grid):
    # the one-step recursion holds for p > 2; check it on a partial trace
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    try:
        trace = banach_saks_extract(seq, 3.0, grid, 48)
    except ExtractionStalledError as err:
        trace = err.trace
    consts = InequalityConstants.build(3.0)
    report = verify_growth_bound(trace, consts, 3.0)
    assert report.stepwise_ok()


@pytest.mark.parametrize("p", [2.25, 2.5, 2.75, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0])
def test_growth_bound_holds_along_rademacher_picks_above_two(p):
    # 4 096 nodes, horizon 64: the integrals of |s_k|^p outgrow
    # (A+p)k + B k^(p-2) + 1, whose margin read -1.09 at p = 2.5 and -19.2 at
    # p = 3.  The bound with B sum_(i<=k) i^(p-2) holds at every p.
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    try:
        trace = banach_saks_extract(seq, p, build_uniform_grid([[0.0, 1.0]], 4096), 64)
    except ExtractionStalledError as err:
        trace = err.trace
    report = verify_growth_bound(trace, InequalityConstants.build(p), p)
    assert report.stepwise_ok() and report.aggregate_ok(), float(report.aggregate_margins.min())


@pytest.mark.parametrize("ulps, ok", [(0, True), (3, True), (2**20, False)])
def test_a_stepwise_margin_of_rounding_size_passes_at_p_20(ulps, ok):
    # A trace along which the stepwise recursion holds with equality, pairings
    # 0, and the last integral raised by some ulps.  At p = 20 and k = 64 the
    # integrals reach about 1e39: a few of their ulps, and the aggregate
    # margin's own rounding (about -1.5e23 at 0 ulps), are noise far above
    # any absolute tolerance; 2^20 ulps exceed both budgets.
    p, length = 20.0, 64
    consts = InequalityConstants.build(p)
    k = np.arange(1, length + 1, dtype=float)[:, None]
    ck = consts.a + consts.b * k ** (p - 2.0)
    partial = np.cumsum(ck, axis=0)  # each sum adds C(k) + p 0 to the one before, in order
    partial[-1] += ulps * np.spacing(partial[-1])
    trace = extraction.ExtractionTrace(
        p, "banach_saks", list(range(1, length + 1)), np.zeros((length, 1)), partial,
        partial[:, 0] ** (1.0 / p) / k[:, 0], 1.0, 1.0, length,
    )
    report = verify_growth_bound(trace, consts, p)
    assert (report.stepwise_margins[-1, 0] < 0.0) == (ulps > 0)
    assert report.stepwise_ok() == ok and report.aggregate_ok() == ok


def test_growth_bound_requires_normalized_trace(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    trace = banach_saks_extract(seq, 2.0, grid, 16)
    trace.member_norm_sup = 1.5
    with pytest.raises(PreconditionViolationError):
        verify_growth_bound(trace, InequalityConstants.build(2.0), 2.0)


def test_szlenk_zero_sequence(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="constant", value=0.0)])
    schedule, trace = szlenk_extract(seq, grid, 3, 32)
    assert not trace.cesaro_norms.any()
    assert schedule.checkpoints_ok()


def test_szlenk_rademacher_levels(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    schedule, trace = szlenk_extract(seq, grid, 4, 128)
    # exact nesting
    for parent, child in zip(schedule.levels, schedule.levels[1:]):
        iterator = iter(parent)
        assert all(any(x == y for y in iterator) for x in child)
    assert schedule.checkpoints_ok()
    assert all(s.margin >= -1e-12 for s in schedule.splitting_checks)
    assert np.all(np.diff(trace.indices) > 0)
    # the final Cesaro norm meets the deepest target
    assert trace.cesaro_norms[-1] <= 1.0 / 4.0 + 1e-9


def test_szlenk_diagonal_walks_levels(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    schedule, trace = szlenk_extract(seq, grid, 3, 64)
    for r, idx in enumerate(trace.indices, start=1):
        level = schedule.levels[min(r, 3) - 1]
        assert idx == level[r - 1]


def test_szlenk_stalls_on_constant_sequence(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="constant", value=1.0)])
    with pytest.raises(LevelStalledError) as excinfo:
        szlenk_extract(seq, grid, 3, 32)
    assert excinfo.value.level == 2
    assert len(excinfo.value.completed) == 1


def test_cesaro_curve_exposes_trace(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    trace = banach_saks_extract(seq, 2.0, grid, 16)
    curve = cesaro_curve(trace)
    assert [k for k, _ in curve] == list(range(1, 17))
    with pytest.raises(InvalidArgumentError):
        cesaro_curve(trace, p=3.0)


def test_decay_rate_fit_power_laws():
    ks = np.arange(1, 65, dtype=float)
    assert decay_rate_fit(list(zip(ks, 3.0 / ks))) == pytest.approx(-1.0, abs=0.02)
    assert decay_rate_fit(list(zip(ks, 0.7 / np.sqrt(ks)))) == pytest.approx(-0.5, abs=0.02)
    assert decay_rate_fit(list(zip(ks, np.full_like(ks, 2.0)))) == pytest.approx(0.0, abs=0.02)


def test_decay_rate_fit_validation():
    ks = np.arange(1, 5, dtype=float)
    with pytest.raises(InvalidArgumentError):
        decay_rate_fit(list(zip(ks, 1.0 / ks)))
    ks = np.arange(1, 17, dtype=float)
    values = 1.0 / ks
    values[3] = 0.0
    with pytest.raises(InvalidArgumentError):
        decay_rate_fit(list(zip(ks, values)))


@pytest.mark.parametrize("kind", ["oscillatory", "rademacher"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_cesaro_decay_across_exponents(kind, p):
    # weakly null gallery members: the Cesaro curve must fall below 10% of
    # its initial value by k = 256
    g = build_uniform_grid([[0.0, 1.0]], 4096)
    seq = VectorSequenceSpec([SequenceSpec(kind=kind)])
    if p == 1.0:
        _, trace = szlenk_extract(seq, g, 4, 256)
    else:
        trace = banach_saks_extract(seq, p, g, 256)
    k_index = min(trace.length, 256) - 1
    assert trace.cesaro_norms[k_index] < 0.1 * trace.cesaro_norms[0]


def test_extraction_above_two_stalls_honestly(grid):
    # with the threshold kept at 1, nonlinear selection functionals reject
    # every near-spectrum candidate for p = 3 at desk-scale pools; the stall
    # is structured and carries a monotone partial trace
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    with pytest.raises(ExtractionStalledError) as excinfo:
        banach_saks_extract(seq, 3.0, grid, 96)
    partial = excinfo.value.trace
    assert partial.length >= 8
    assert np.all(np.diff(partial.indices) > 0)
    assert float(partial.pairings.max()) <= 1.0 + 1e-12


def _naive_rows(pool, w, p, indices, centre=0.0):
    """Trace rows recomputed from s_k = sum of (u_i - centre)/factor over the picks."""
    u = pool - centre
    norms = ((np.abs(u) ** p) * w).sum(axis=(1, 2)) ** (1.0 / p)
    sup = float(norms.max())
    factor = max(1.0, sup)
    picked = u[np.asarray(indices) - 1] / factor
    s = np.cumsum(picked, axis=0)
    previous = np.concatenate([np.zeros_like(s[:1]), s[:-1]])
    pairings = (np.abs(previous) ** (p - 1.0) * np.sign(previous) * picked * w).sum(axis=2)
    partials = ((np.abs(s) ** p) * w).sum(axis=2)
    cesaro = partials.sum(axis=1) ** (1.0 / p) / np.arange(1, len(indices) + 1)
    return pairings, partials, cesaro, factor, sup / factor


def _amplitude_two_pair(grid, horizon):
    # Amplitude 2 puts every member norm above 1; the cosine offset keeps the
    # second component's pairings away from zero.
    x = grid.nodes[:, 0]
    rademacher = SequenceSpec(kind="rademacher", amplitude=2.0)
    table = {
        i: generate(rademacher, i, grid).samples + 0.1 * np.cos(2.0 * np.pi * x)
        for i in range(1, horizon + 1)
    }
    return VectorSequenceSpec(
        [SequenceSpec(kind="oscillatory", amplitude=2.0), SequenceSpec(kind="custom", table=table)]
    )


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.5])
def test_trace_rows_match_a_naive_recomputation(grid, p):
    horizon = 48
    seq = _amplitude_two_pair(grid, horizon)
    if p == 1.0:
        trace = szlenk_extract(seq, grid, 3, horizon)[1]
    else:
        try:
            trace = banach_saks_extract(seq, p, grid, horizon)
        except ExtractionStalledError as err:
            trace = err.trace
    assert trace.length >= 8
    pool = np.stack([generate_vector(seq, i, grid).matrix() for i in range(1, horizon + 1)])
    pairings, partials, cesaro, factor, sup = _naive_rows(pool, grid.weights, p, trace.indices)
    assert factor > 1.0
    scale = np.abs(pairings).max()
    np.testing.assert_allclose(trace.pairings, pairings, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(trace.partial_norms, partials, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(trace.cesaro_norms, cesaro, rtol=1e-12, atol=0.0)
    assert trace.normalization == pytest.approx(factor, rel=1e-12, abs=0.0)
    assert trace.member_norm_sup == pytest.approx(sup, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_replay_cesaro_norms_centre_members_on_the_limit(grid, p):
    horizon = 128
    x = grid.nodes[:, 0]
    if p == 1.0:
        centre = [0.25]
        tables = [lambda i: 0.25 + 3.0 * np.sin(2.0 * np.pi * i * x)]
        region = truncate_region(RegionMask.full(grid), 0.6)
    else:
        centre = [0.5, -0.3]
        rademacher = SequenceSpec(kind="rademacher", amplitude=2.0)
        tables = [
            lambda i: 0.5 + 2.0 * np.sin(2.0 * np.pi * i * x),
            lambda i: -0.3 + generate(rademacher, i, grid).samples,
        ]
        region = RegionMask.full(grid)
    seq = VectorSequenceSpec(
        [SequenceSpec(kind="custom", table={i: t(i) for i in range(1, horizon + 1)}) for t in tables]
    )
    limit = VectorField([ScalarField.constant(grid, c) for c in centre])
    f = ConvexFunctionSpec(kind="squared_norm")
    K = ConvexSetSpec(kind="whole_space")
    replay = liminf_verify(seq, limit, f, K, region, p, horizon).replay
    assert len(replay.indices) >= 8

    # The p = 1 extraction reads the region's nodes, the p > 1 one the whole grid.
    inc = region.included if p == 1.0 else np.ones(grid.node_count, dtype=bool)
    pool = np.stack([generate_vector(seq, i, grid).matrix() for i in range(1, horizon + 1)])
    centre = limit.matrix()[:, inc]
    *_, cesaro, factor, _ = _naive_rows(pool[:, :, inc], grid.weights[inc], p, replay.indices, centre)
    assert factor > 1.0
    np.testing.assert_allclose(replay.cesaro_norms, cesaro, rtol=1e-12, atol=0.0)


def _general_formula_walk(pool, w, p, centre):
    """The threshold walk in plain numpy with the general formulas: abs, ** and copysign.

    Returns the trace's arrays and whether the walk stalled before the horizon.
    """
    u = pool if centre is None else pool - centre
    powered = np.abs(u)
    powered **= p
    sup = float((np.einsum("n,ijn->i", w, powered) ** (1.0 / p)).max())
    factor = max(1.0, sup)
    u = u / factor
    s = np.zeros(pool.shape[1:])
    indices, pairings, partials, cesaro = [], [], [], []
    pick, t = 1, np.zeros(pool.shape[1])
    while True:
        s = s + u[pick - 1]
        indices.append(pick)
        pairings.append(t)
        partials.append(np.einsum("n,jn->j", w, np.abs(s) ** p))
        cesaro.append(float(partials[-1].sum()) ** (1.0 / p) / len(indices))
        if pick == len(u):
            break
        phi_w = np.copysign(np.abs(s) ** (p - 1.0), s) * w
        for pick in range(indices[-1] + 1, len(u) + 1):
            t = np.einsum("jn,jn->j", phi_w, u[pick - 1])
            if np.all(t <= 1.0 + 1e-12):
                break
        else:
            break
    stalled = indices[-1] < len(u)
    arrays = (indices, np.stack(pairings), np.stack(partials), np.asarray(cesaro))
    return arrays, factor, sup / factor, stalled


@pytest.mark.parametrize("centred", [False, True])
def test_hilbert_walk_is_bitwise_the_general_formula_walk(grid, centred):
    # At p = 2 the walk takes phi_w as s w and |s|^2 as s s; both must keep the
    # bits of the general formulas, not merely agree to rounding.
    horizon = 48
    seq = _amplitude_two_pair(grid, horizon)
    pool = np.stack([generate_vector(seq, i, grid).matrix() for i in range(1, horizon + 1)])
    x = grid.nodes[:, 0]
    centre = np.stack([0.3 * np.cos(2.0 * np.pi * x), -0.2 + 0.1 * x]) if centred else None
    arrays, factor, sup, stalled = _general_formula_walk(pool, grid.weights, 2.0, centre)
    try:
        trace = _banach_saks_select(pool, 2.0, grid.weights, centre)
        assert not stalled
    except ExtractionStalledError as err:
        assert stalled
        trace = err.trace
    assert factor > 1.0 and len(arrays[0]) >= 8
    indices, pairings, partials, cesaro = arrays
    assert trace.indices == indices
    assert np.array_equal(trace.pairings, pairings)
    assert np.array_equal(trace.partial_norms, partials)
    assert np.array_equal(trace.cesaro_norms, cesaro)
    assert trace.normalization == factor
    assert trace.member_norm_sup == sup


def _bits(value):
    """value with every float and array replaced by its bits, for a bitwise comparison."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return value


def _szlenk_select_rescanning_every_level(pool, w, levels, centre=None):
    """The level/diagonal selection with every level computing every trial itself."""
    walk = extraction._CesaroWalk(pool, w, 1.0, centre)
    horizon = walk.horizon

    def l1(rows, out=None):
        return float(np.einsum("n,jn->", w, np.abs(rows, out=out)))

    level_lists = []
    previous = list(range(1, horizon + 1))
    for level in range(1, levels + 1):
        target = 1.0 / level
        chosen = []
        s = np.zeros_like(walk.s)
        for idx in previous:
            k = len(chosen) + 1
            u = walk.member(idx)
            trial = l1(np.add(s, u, out=walk.scratch), out=walk.scratch) / k
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
    heads = {}
    for r, idx in enumerate(diagonal, start=1):
        walk.add(idx)
        if r < levels:
            heads[r] = walk.s.copy()
    trace = walk.trace("szlenk_diagonal")
    cesaro = trace.cesaro_norms
    # A negative margin carries gamma_(m N + 3) times the sum of the two sides it compares.
    n = walk.s.size + 3
    checkpoints = []
    for level in range(1, levels + 1):
        k = min(length, max(level, round(length * level / levels)))
        check = extraction.SzlenkCheckpoint(level, k, float(cesaro[k - 1]), 1.0 / level)
        if check.margin < 0.0:
            check.slack = _rounding_budget(n, check.cesaro_norm + check.target)
        checkpoints.append(check)
    splitting = []
    for prefix in range(1, min(levels, length)):
        head = heads[prefix]
        rhs = l1(head) / length + l1(walk.s - head) / (length - prefix)
        check = extraction.SplitCheck(prefix, length, float(cesaro[-1]), rhs)
        if check.margin < 0.0:
            check.slack = _rounding_budget(n, check.lhs + check.rhs)
        splitting.append(check)
    schedule = extraction.SzlenkSchedule(
        levels=level_lists,
        targets=[1.0 / level for level in range(1, levels + 1)],
        diagonal=diagonal,
        checkpoints=checkpoints,
        splitting_checks=splitting,
    )
    return schedule, trace


def _oracle_pool(kind, m, horizon, n, seed, centred):
    """A (horizon, m, n) pool of ±1 signs, offset Gaussians or spikes, weights and a centre."""
    rng = np.random.default_rng(seed)
    if kind == "signs":
        pool = rng.choice([-1.0, 1.0], size=(horizon, m, n))
    elif kind == "gaussian":
        pool = rng.normal(loc=rng.uniform(-0.5, 0.5), size=(horizon, m, n))
    else:
        pool = np.zeros((horizon, m, n))
        for i in range(horizon):
            pool[i, rng.integers(m), rng.integers(n)] = rng.uniform(0.5, 2.0) * n
    w = rng.uniform(0.5, 1.5, n) / n
    centre = rng.normal(scale=0.2, size=(m, n)) if centred else None
    return pool, w, centre


def _select_or_stall(select, pool, w, levels, centre):
    try:
        return "selected", _bits(select(pool, w, levels, centre))
    except LevelStalledError as err:
        return "stalled", str(err), err.level, _bits(err.completed)


def _recomputed_trials(level_lists, horizon):
    """Trials a level scan computes when each level reuses the trials of the level above."""
    count = horizon
    for above, below in zip(level_lists, level_lists[1:]):
        kept = next((j for j, (a, b) in enumerate(zip(above, below)) if a != b), len(below))
        if kept < len(above):  # the first rejection is candidate `kept` of the level above
            count += len(above) - kept - 1
    return count


_ORACLE_CASES = dict(
    kind=st.sampled_from(["signs", "gaussian", "spikes"]),
    m=st.integers(1, 12),
    horizon=st.integers(2, 40),
    n=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
    centred=st.booleans(),
    levels=st.integers(1, 6),
)
# Each reaches a path of the scan: a level that keeps every member, a level that
# rejects after reusing a prefix, and a stall.  The last four end the diagonal's
# share of level 1's list at pick 1, at pick 2, mid-list, and at the diagonal's
# own end, short of level 1's.
_ORACLE_EXAMPLES = [
    ("signs", 1, 40, 64, 0, False, 4),
    ("gaussian", 2, 30, 32, 1, True, 3),
    ("spikes", 3, 40, 16, 2, False, 6),
    ("spikes", 1, 8, 8, 0, False, 6),
    ("gaussian", 3, 30, 32, 3, True, 6),
    ("gaussian", 1, 40, 32, 3, True, 2),
    ("gaussian", 8, 40, 32, 11, False, 2),
    ("signs", 8, 40, 32, 2, True, 4),
    ("signs", 12, 40, 32, 34, True, 6),
]


def _with_oracle_examples(test):
    for case in _ORACLE_EXAMPLES:
        test = example(**dict(zip(_ORACLE_CASES, case)))(test)
    return test


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(**_ORACLE_CASES)
@_with_oracle_examples
def test_szlenk_select_is_bitwise_the_scan_that_rescans_every_level(
    kind, m, horizon, n, seed, centred, levels
):
    # Levels that have kept the same members share one trial per member; the
    # picks, the trace and every stall must stay those of a full rescan, and
    # each member is read once, whether the selection stalls or not.
    pool, w, centre = _oracle_pool(kind, m, horizon, n, seed, centred)
    calls, reads = [], []
    real_trial = extraction._szlenk_trial
    real_member = extraction._CesaroWalk.member

    def member(walk, i):
        reads.append(walk._held != i)
        return real_member(walk, i)

    with mock.patch.object(
        extraction, "_szlenk_trial", lambda *a: calls.append(1) or real_trial(*a)
    ), mock.patch.object(extraction._CesaroWalk, "member", member):
        got = _select_or_stall(extraction._szlenk_select, pool, w, levels, centre)
    assert got == _select_or_stall(_szlenk_select_rescanning_every_level, pool, w, levels, centre)
    assert sum(reads) == horizon
    if got[0] == "selected":
        level_lists = extraction._szlenk_select(pool, w, levels, centre)[0].levels
        assert len(calls) == _recomputed_trials(level_lists, horizon)


def test_oracle_examples_reach_every_path_of_the_level_scan():
    partial_reuse = stalled = False
    shares = set()  # (picks the diagonal shares with level 1, diagonal length, level 1 length)
    for kind, m, horizon, n, seed, centred, levels in _ORACLE_EXAMPLES:
        pool, w, centre = _oracle_pool(kind, m, horizon, n, seed, centred)
        try:
            schedule = extraction._szlenk_select(pool, w, levels, centre)[0]
        except LevelStalledError:
            stalled = True
            continue
        level_lists = schedule.levels
        for above, below in zip(level_lists, level_lists[1:]):
            partial_reuse |= 0 < len(below) < len(above) and below[0] == above[0]
        diagonal, first = schedule.diagonal, level_lists[0]
        shared = next((r for r, (a, b) in enumerate(zip(diagonal, first)) if a != b), len(diagonal))
        shares.add((shared, len(diagonal), len(first)))
    assert partial_reuse and stalled
    left = {shared for shared, length, _ in shares if shared < length}
    assert {1, 2} <= left and any(2 < shared < length - 2 for shared, length, _ in shares)
    assert any(shared == length < first for shared, length, first in shares)
    assert any(shared == length == first for shared, length, first in shares)


@pytest.mark.parametrize("horizon", [33, 48])
@pytest.mark.parametrize("amplitude", [1.0, 2.0])
@pytest.mark.parametrize("centred", [False, True])
@pytest.mark.parametrize("m", [1, 2])
def test_reads_at_a_node_list_are_bitwise_reads_of_the_gathered_pool(
    m, centred, amplitude, horizon
):
    # A region's members are gathered row by row on read; every norm, pick and
    # trace must be that of the same call on the region's copy of the pool.
    # Past 8192 nodes einsum's summation order depends on the layout it reads.
    grid = build_uniform_grid([[0.0, 1.0]], 32768)
    x = grid.nodes[:, 0]
    kinds = ["rademacher", "oscillatory"][:m]
    seq = VectorSequenceSpec([SequenceSpec(kind=k, amplitude=amplitude) for k in kinds])
    pool = gallery.member_pool(seq, grid, horizon)
    nodes = np.flatnonzero((x < 0.3) | (x > 0.6))
    w = grid.weights[nodes]
    centre = np.zeros((m, nodes.size))
    if centred:
        centre += 0.3 * np.cos(2.0 * np.pi * x[nodes])
    gathered = np.take(pool, nodes, axis=2)
    for p in (1.0, 1.5, 2.0):
        for c in (None, centre):
            got = _lp_norms(pool, w, p, c, nodes)
            assert _bits(got) == _bits(_lp_norms(gathered, w, p, c)), (p, c is None)
    factor = extraction._CesaroWalk(pool, w, 1.0, centre, nodes).factor
    assert factor == extraction._CesaroWalk(gathered, w, 1.0, centre).factor
    assert (factor > 1.0) == (m == 2 or amplitude == 2.0)
    expected = _select_or_stall(extraction._szlenk_select, gathered, w, 3, centre)
    assert expected[0] == "selected"

    def select_at_nodes(*args):
        return extraction._szlenk_select(*args, nodes)

    assert _select_or_stall(select_at_nodes, pool, w, 3, centre) == expected


def test_levels_that_keep_every_member_compute_each_trial_once(monkeypatch):
    # Walsh functions: ||s_k||_1 <= ||s_k||_2 = sqrt(k), so every level keeps
    # every member and levels 2..4 compute no trial of their own.
    grid = build_uniform_grid([[0.0, 1.0]], 256)
    horizon, levels = 48, 4
    calls = []
    real_trial = extraction._szlenk_trial
    monkeypatch.setattr(extraction, "_szlenk_trial", lambda *a: calls.append(1) or real_trial(*a))
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    schedule, _ = szlenk_extract(seq, grid, levels, horizon)
    assert schedule.levels == [list(range(1, horizon + 1))] * levels
    assert len(calls) == horizon


@pytest.mark.parametrize("m", range(2, 13))
def test_a_trial_reads_the_splitting_checks_l1_norm_on_one_node(m):
    # A weak* truncation may hold one node, where numpy's scalar contraction
    # adds the m products in another order than the trial's in-order sum.
    rng = np.random.default_rng(m)
    for _ in range(50):
        w = rng.uniform(0.1, 1.0, 1)
        s, u = rng.normal(size=(2, m, 1))
        trial, integrals = extraction._szlenk_trial(w, s, u, 1, np.empty((m, 1)))
        norm, per_component = extraction._l1(w, s + u)
        assert trial == norm
        assert np.array_equal(integrals, per_component)


def test_a_weak_star_run_gathers_each_truncation_row_once_per_pass(monkeypatch):
    # Rademacher signs on 256 x 256 nodes at horizon 48, as the weak* bench
    # runs them: R = 0.5 and 1 hold part of the grid and are read by gathers,
    # R = 2 holds it all.  Per truncation: 24 pair reads for the member norms,
    # 48 in level 1, which is the diagonal, and 48 in the integral loop; the
    # diagonal re-reading level 1's picks took 48 more.
    grid2 = build_uniform_grid([[0.0, 1.0], [0.0, 1.0]], [256, 256])
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    limit = VectorField([ScalarField.constant(grid2, 0.0)])
    f = ConvexFunctionSpec(kind="squared_norm")
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
    takes = []
    real_take = np.take
    monkeypatch.setattr(np, "take", lambda *a, **k: takes.append(1) or real_take(*a, **k))
    report = weak_star_verify(seq, limit, f, K, RegionMask.full(grid2), 48, [0.5, 1.0, 2.0])
    assert report.passed
    assert all(r.replay.indices == list(range(1, 49)) for r in report.reports)
    assert len(takes) == 2 * (24 + 48 + 48)


def _count_selections(monkeypatch, name):
    """Pools passed to the named selection, by the library or by the liminf replay."""
    calls = []
    real = getattr(extraction, name)

    def counting(pool, *rest):
        calls.append(pool)
        return real(pool, *rest)

    monkeypatch.setattr(extraction, name, counting)
    return calls


def test_library_selections_compute_each_time_outside_a_run(grid, monkeypatch):
    calls = _count_selections(monkeypatch, "_banach_saks_select")
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    first = banach_saks_extract(seq, 2.0, grid, 32)
    second = banach_saks_extract(seq, 2.0, grid, 32)
    assert len(calls) == 2 and _bits(first) == _bits(second)
    calls.clear()
    with gallery._shared_pools():
        shared = [banach_saks_extract(seq, 2.0, grid, 32) for _ in range(2)]
        banach_saks_extract(seq, 3.0, grid, 32)  # another p is another selection
    assert len(calls) == 2 and shared[0] is shared[1]
    assert _bits(shared[0]) == _bits(first)


def test_a_stalled_selection_is_not_kept(grid, monkeypatch):
    calls = _count_selections(monkeypatch, "_banach_saks_select")
    seq = VectorSequenceSpec([SequenceSpec(kind="constant", value=1.0)])
    with gallery._shared_pools():
        for _ in range(2):
            with pytest.raises(ExtractionStalledError):
                banach_saks_extract(seq, 2.0, grid, 16)
    assert len(calls) == 2


def test_a_p1_replay_over_the_whole_grid_shares_the_selection(grid, monkeypatch):
    # Either call may come first in a scope; the one selection it keeps has
    # the bits each call computes alone, the replay's copied weights included.
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    limit = VectorField([ScalarField.constant(grid, 0.0)])
    f, K = ConvexFunctionSpec(kind="squared_norm"), ConvexSetSpec(kind="box", bounds=[[-1, 1]])
    region = RegionMask.full(grid)
    alone = szlenk_extract(seq, grid, 4, 64)
    report = liminf_verify(seq, limit, f, K, region, 1.0, 64, szlenk_levels=4)
    calls = _count_selections(monkeypatch, "_szlenk_select")
    for replay_first in (False, True):
        with gallery._shared_pools():
            if replay_first:
                shared = liminf_verify(seq, limit, f, K, region, 1.0, 64, szlenk_levels=4)
            extracted = szlenk_extract(seq, grid, 4, 64)
            if not replay_first:
                shared = liminf_verify(seq, limit, f, K, region, 1.0, 64, szlenk_levels=4)
            liminf_verify(seq, limit, f, K, region, 1.0, 64, szlenk_levels=3)
        assert _bits(extracted) == _bits(alone)
        assert _bits(shared) == _bits(report)
    assert len(calls) == 4  # levels 4 and 3, in each scope


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_a_replay_centred_on_a_nonzero_limit_selects_for_itself(grid, monkeypatch, p):
    # Small enough an offset that the uncentred selection does not stall.
    horizon = 128
    x = grid.nodes[:, 0]
    table = {i: 0.05 + np.sin(2.0 * np.pi * i * x) for i in range(1, horizon + 1)}
    seq = VectorSequenceSpec([SequenceSpec(kind="custom", table=table)])
    limit = VectorField([ScalarField.constant(grid, 0.05)])
    f, K = ConvexFunctionSpec(kind="squared_norm"), ConvexSetSpec(kind="whole_space")
    region = RegionMask.full(grid)
    alone = liminf_verify(seq, limit, f, K, region, p, horizon)
    name = "_szlenk_select" if p == 1.0 else "_banach_saks_select"
    calls = _count_selections(monkeypatch, name)
    with gallery._shared_pools():
        if p == 1.0:
            szlenk_extract(seq, grid, 3, horizon)
        else:
            banach_saks_extract(seq, p, grid, horizon)
        shared = liminf_verify(seq, limit, f, K, region, p, horizon)
    assert len(calls) == 2
    assert _bits(shared) == _bits(alone)
