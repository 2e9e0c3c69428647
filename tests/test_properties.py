"""Property tests of the paper's inequalities over generated inputs."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    ExtractionStalledError,
    InequalityConstants,
    RegionMask,
    ScalarField,
    SequenceSpec,
    VectorField,
    VectorSequenceSpec,
    banach_saks_extract,
    build_uniform_grid,
    check_pointwise_inequality,
    jensen_check,
    liminf_verify,
    remainder_term,
    verify_growth_bound,
)

# Bounded example counts keep the whole suite fast; derandomized runs make
# every failure reproducible.
_SETTINGS = dict(deadline=None, derandomize=True, database=None)

_coord = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _functions(draw, m):
    kind = draw(st.sampled_from(["max_affine", "power", "squared_norm"]))
    if kind == "max_affine":
        planes = draw(st.lists(
            st.tuples(st.lists(_coord, min_size=m, max_size=m), _coord),
            min_size=1, max_size=4,
        ))
        return ConvexFunctionSpec(kind=kind, planes=planes)
    if kind == "power":
        return ConvexFunctionSpec(kind=kind, power=draw(st.floats(1.0, 3.0)))
    return ConvexFunctionSpec(kind=kind)


@st.composite
def _jensen_inputs(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    flat = draw(st.lists(_coord, min_size=n * m, max_size=n * m))
    return draw(_functions(m)), np.asarray(flat).reshape(n, m)


@settings(max_examples=150, **_SETTINGS)
@given(_jensen_inputs())
def test_jensen_margin_is_nonnegative(inputs):
    f, points = inputs
    assert jensen_check(f, points) >= -1e-12


_GRID = build_uniform_grid([[0.0, 1.0]], 256)


@st.composite
def _liminf_scenarios(draw):
    """A constant sequence with its own limit, or a sine sequence with limit 0."""
    if draw(st.booleans()):
        value = draw(st.floats(-3.0, 3.0))
        seq = SequenceSpec(kind="constant", value=value)
        limit = value
        horizon = draw(st.integers(8, 32))
    else:
        base = draw(st.sampled_from([1.0, 2.0]))
        seq = SequenceSpec(kind="oscillatory", amplitude=draw(st.floats(0.1, 3.0)), base=base)
        limit = 0.0
        # 256 nodes resolve up to 32 cycles
        horizon = draw(st.integers(8, int(32 / base)))
    f = draw(_functions(1))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    return VectorSequenceSpec([seq]), limit, f, p, horizon


@settings(max_examples=30, **_SETTINGS)
@given(_liminf_scenarios())
def test_tail_infimum_recursion_and_monotonicity(scenario):
    seq, limit_value, f, p, horizon = scenario
    report = liminf_verify(
        seq,
        VectorField([ScalarField.constant(_GRID, limit_value)]),
        f,
        ConvexSetSpec(kind="whole_space"),
        RegionMask.full(_GRID),
        p,
        horizon,
        dictionary=[ScalarField.constant(_GRID, 1.0)],
    )
    alphas, tail = report.alphas, report.tail_infimum
    assert tail[-1] == alphas[-1]
    for i in range(horizon - 1):
        assert tail[i] == min(alphas[i], tail[i + 1])
    assert np.all(np.diff(tail) >= 0.0)
    assert np.all(tail <= alphas)


@functools.lru_cache(maxsize=None)
def _constants(p):
    return InequalityConstants.build(p)


# p in (1, 4] on a grid of 1/64 steps, so shrinking and repeats reuse the constants
_exponents = st.integers(1, 192).map(lambda k: 1.0 + k / 64.0)
_pairs = st.lists(
    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=1, max_size=16
)


@settings(max_examples=60, **_SETTINGS)
@given(_exponents, _pairs)
def test_pointwise_inequality_margin_is_nonnegative(p, pairs):
    a, b = np.asarray(pairs).T
    assert check_pointwise_inequality(p, a, b, _constants(p)).min() >= -1e-9


@settings(max_examples=60, **_SETTINGS)
@given(_exponents, _pairs, st.floats(0.1, 10.0))
def test_pointwise_inequality_is_p_homogeneous(p, pairs, lam):
    # every term scales by lam^p; the tolerance is relative to the terms' size
    consts = _constants(p)
    a, b = np.asarray(pairs).T
    scaled = check_pointwise_inequality(p, lam * a, lam * b, consts)
    base = check_pointwise_inequality(p, a, b, consts)
    size = lam ** p * (
        np.abs(a) ** p + p * np.abs(a) ** (p - 1.0) * np.abs(b) + consts.a * np.abs(b) ** p
        + remainder_term(p, np.abs(a), np.abs(b)) + np.abs(a + b) ** p
    )
    assert np.all(np.abs(scaled - lam ** p * base) <= 1e-9 * size + 1e-300)


_POOL_GRID = build_uniform_grid([[0.0, 1.0]], 32)


@st.composite
def _custom_pools(draw):
    """Custom tables of uniform samples in [-scale, scale] with m components.

    The samples come from a drawn seed, which keeps each example cheap; the
    extraction normalizes the pool when a member's norm exceeds 1.
    """
    m = draw(st.integers(1, 2))
    horizon = draw(st.integers(8, 24))
    scale = draw(st.floats(0.1, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    samples = rng.uniform(-scale, scale, (horizon, m, _POOL_GRID.node_count))
    components = [
        SequenceSpec(kind="custom", table={i: samples[i - 1, j] for i in range(1, horizon + 1)})
        for j in range(m)
    ]
    return VectorSequenceSpec(components), horizon


@settings(max_examples=40, **_SETTINGS)
@given(_exponents, _custom_pools())
def test_growth_bound_margins_on_random_normalized_pools(p, pool):
    seq, horizon = pool
    try:
        trace = banach_saks_extract(seq, p, _POOL_GRID, horizon)
    except ExtractionStalledError as err:
        trace = err.trace
    assert trace.member_norm_sup <= 1.0 + 1e-12
    report = verify_growth_bound(trace, _constants(p), p)
    assert report.stepwise_ok()
    assert report.aggregate_ok()
