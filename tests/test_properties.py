"""Property tests of the paper's inequalities over generated inputs."""

import contextlib
import copy
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    conjugate_exponent,
    dual_pairing,
    evaluate_composite,
    generate_vector,
    holder_minkowski_check,
    jensen_check,
    liminf_verify,
    lp_norm,
    remainder_term,
    verify_growth_bound,
)
from lplab.cli import main

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
    """A constant sequence with its own limit, or a sine sequence with limit 0.

    Sine amplitudes are 10^k, k in [-150, 154], with the two ends drawn often:
    f values up to about 1e308, where running sums along the picks would
    overflow.  A power |w|^q keeps k q <= 308 so that its values stay finite.
    """
    f = draw(_functions(1))
    scale = 1.0
    if draw(st.booleans()):
        value = draw(st.floats(-3.0, 3.0))
        seq = SequenceSpec(kind="constant", value=value)
        limit = value
        horizon = draw(st.integers(8, 32))
    else:
        base = draw(st.sampled_from([1.0, 2.0]))
        top = min(154, int(308 / f.power)) if f.kind == "power" else 154
        scale = 10.0 ** draw(st.sampled_from([-150, top]) | st.integers(-150, top))
        seq = SequenceSpec(kind="oscillatory", amplitude=scale, base=base)
        limit = 0.0
        # 256 nodes resolve up to 32 cycles
        horizon = draw(st.integers(8, int(32 / base)))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    return VectorSequenceSpec([seq]), limit, f, p, horizon, scale


@settings(max_examples=30, **_SETTINGS)
@given(_liminf_scenarios())
@example((  # f values near 1e308 on every pick: running sums would overflow
    VectorSequenceSpec([SequenceSpec(kind="oscillatory", amplitude=1e154)]),
    0.0, ConvexFunctionSpec(kind="squared_norm"), 2.0, 12, 1e154,
))
def test_tail_infimum_recursion_and_monotonicity(scenario):
    seq, limit_value, f, p, horizon, scale = scenario
    K, region = ConvexSetSpec(kind="whole_space"), RegionMask.full(_GRID)
    # The probe's zero-residual threshold is absolute, so a sine of amplitude
    # 1e100 pairs with the constant 1 to rounding noise far above it.  The
    # dictionary is scaled down with the amplitude; the probe is not under test.
    report = liminf_verify(
        seq,
        VectorField([ScalarField.constant(_GRID, limit_value)]),
        f,
        K,
        region,
        p,
        horizon,
        dictionary=[ScalarField.constant(_GRID, 1.0 / scale)],
    )
    alphas, tail = report.alphas, report.tail_infimum
    assert tail[-1] == alphas[-1]
    for i in range(horizon - 1):
        assert tail[i] == min(alphas[i], tail[i + 1])
    assert np.all(np.diff(tail) >= 0.0)
    assert np.all(tail <= alphas)

    members = [generate_vector(seq, i, _GRID) for i in range(1, horizon + 1)]
    for i, u in enumerate(members):
        assert alphas[i] == evaluate_composite(f, u, region, K)
    f_max = max(float(f(u.matrix().T).max()) for u in members)
    replay = report.replay
    assert np.all(replay.jensen_margins >= -1e-12 * f_max)
    if replay.fatou_margin is not None:
        assert replay.fatou_margin >= -1e-12 * f_max


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


_samples = st.lists(
    st.integers(-1000, 1000).map(lambda k: k / 8.0),
    min_size=_POOL_GRID.node_count, max_size=_POOL_GRID.node_count,
)
_powers_of_ten = st.integers(-150, 150).map(lambda k: 10.0 ** k)
_scaled_samples = st.builds(lambda s, scale: np.asarray(s) * scale, _samples, _powers_of_ten)


@settings(max_examples=60, **_SETTINGS)
@given(st.floats(1.0, 6.0), _scaled_samples, _scaled_samples)
def test_holder_and_minkowski_margins_are_nonnegative(p, f, g):
    f, g = ScalarField(_POOL_GRID, f), ScalarField(_POOL_GRID, g)
    holder, minkowski = holder_minkowski_check(f, g, p)
    q = conjugate_exponent(p)
    assert holder >= -1e-12 * (lp_norm(f, p) * lp_norm(g, q) + abs(dual_pairing(f, g)))
    assert minkowski >= -1e-12 * (lp_norm(f, p) + lp_norm(g, p))


@settings(max_examples=60, **_SETTINGS)
@given(st.floats(1.0, 6.0), _samples, _powers_of_ten)
def test_lp_norm_is_absolutely_homogeneous(p, f, lam):
    f = ScalarField(_POOL_GRID, np.asarray(f))
    assert lp_norm(f * lam, p) == pytest.approx(lam * lp_norm(f, p), rel=1e-12, abs=0.0)


_DELETE = object()

# A valid small scenario and, per documented field, values to put in its place:
# other valid ones, wrong types, out-of-range and non-finite numbers.
_VALID_SCENARIO = {
    "name": "fuzz",
    "grid": {"dimension": 1, "box": [[0.0, 1.0]], "resolution": [64]},
    "p": 2.0,
    "m": 1,
    "sequence": [{"kind": "oscillatory", "amplitude": 1.0, "params": {"base": 1.0}}],
    "limit": [{"kind": "constant", "amplitude": 0.0, "params": {"value": 0.0}}],
    "region": {"type": "full"},
    "horizon": 8,
    "extraction": "p>1",
    "levels": 2,
    "f": {"kind": "squared_norm", "nonnegative": True},
    "expect": {"probe_verdict": "inconclusive"},
}
_FIELD_VALUES = {
    "name": ["other", "", 5, None, "a/b"],
    "grid": [
        {"dimension": 2, "box": [[0.0, 1.0], [0.0, 1.0]], "resolution": [16, 8]},
        {"box": [[0.0, 1.0]], "resolution": 32},
        {"box": [[1.0, 0.0]], "resolution": [64]},
        {"box": [[0.0, 1.0]], "resolution": [0]},
        {"box": [[0.0, 1.0]], "resolution": [-4]},
        {"box": [[0.0, float("nan")]], "resolution": [64]},
        {"box": [[0.0, 1.0]], "resolution": [64], "dimension": 2},
        {"resolution": [64]},
        "grid",
    ],
    "p": [1.0, 1.5, 3.0, "infinity", "inf", "bogus", 0.5, -1, None, True,
          float("nan"), float("inf")],
    "m": [2, 0, -1, "two", 1.5],
    "sequence": [
        [{"kind": "rademacher"}],
        [{"kind": "spike", "amplitude": 2.0}],
        [{"kind": "constant", "params": {"value": 0.5}}],
        [{"kind": "oscillatory", "params": {"base": 2.0}}],
        [{"kind": "oscillatory"}, {"kind": "rademacher"}],
        [{"kind": "oscillatory", "amplitude": 1e200}],
        [{"kind": "oscillatory", "amplitude": float("nan")}],
        [{"kind": "oscillatory", "params": {"base": 0.0}}],
        [{"kind": "oscillatory", "params": {"base": -1.0}}],
        [{"kind": "custom", "params": {"table": {"1": [1.0]}}}],
        [{"kind": "custom", "params": {"table": [1.0]}}],
        [{"kind": "oscillatory", "amplitude": "big"}],
        [{"kind": "nope"}],
        [{}],
        [],
    ],
    "limit": [
        [{"kind": "constant", "params": {"value": 0.3}}],
        [{"kind": "oscillatory"}],
        [{"kind": "constant"}, {"kind": "constant"}],
        [{"kind": "constant", "params": {"value": float("inf")}}],
        [],
    ],
    "region": [
        {"type": "ball", "radius": 0.5},
        {"type": "ball", "radius": -1.0},
        {"type": "ball"},
        {"type": "box", "bounds": [[0.0, 0.5]]},
        {"type": "box", "bounds": [[0.6, 0.4]]},
        {"type": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
        {"type": "weird"},
    ],
    "horizon": [16, 7, 0, -3, "8", 8.5, 10 ** 9, float("nan")],
    "extraction": ["p=1", "none", "x", 1],
    "levels": [1, 8, 0, -1, "3", 2.5],
    "f": [
        {"kind": "power", "params": {"power": 3.0}},
        {"kind": "max_affine", "params": {"planes": [[[1.0], 0.0]]}},
        {"kind": "max_affine", "params": {"planes": []}},
        {"kind": "squared_norm", "nonnegative": False},
        {"kind": "squared_norm", "K": {"kind": "ball", "params": {"radius": 0.1}}},
        {"kind": "squared_norm", "K": {"kind": "box", "params": {"bounds": [[-1.0, 1.0]]},
                                       "closed": True}},
        {"kind": "squared_norm", "K": {"kind": "halfspaces", "params": {"halfspaces": []}}},
        {"kind": "bogus"},
        {},
        None,
    ],
    "R_schedule": [[0.5, 2.0], [1.0], [], [2.0, 1.0], [-1.0], [float("nan")],
                   [float("inf")], "x", 3.0],
    "expect": [
        {},
        {"probe_verdict": "converging", "cesaro_slope": [-1.0, 0.0]},
        {"tail_inf_range": [0.0, 1.0]},
        {"liminf_refusal": True},
        {"cesaro_drop": 0.5},
        {"probe_verdict": 3},
        "x",
    ],
}
_mutations = st.lists(
    st.sampled_from(sorted(_FIELD_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(_FIELD_VALUES[key] + [_DELETE]))
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=120, **_SETTINGS)
@given(_mutations)
def test_config_fuzz_exits_with_a_documented_code(mutations):
    raw = copy.deepcopy(_VALID_SCENARIO)
    for key, value in mutations:
        if value is _DELETE:
            raw.pop(key, None)
        else:
            raw[key] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(raw))
        rc = main(["run", "--config", str(path), "--output-dir", str(Path(tmp) / "out")])
    assert rc in (0, 1, 2)


# A valid verify-lemma1 argv, flag by flag, and values to replace it with.
# Valid values keep the A scan at or below 2 001 points, the (a, b) grid at
# or below 41 x 41 and the samples at or below 100, so no draw starts a long
# scan.  Invalid ones are zero, negative, NaN, infinite or past the pool
# budget, and p reaches 400, where the inequality's terms overflow.
_VALID_LEMMA1_ARGV = {
    "--p": ["2"], "--range": ["10"], "--step": ["0.01"], "--ab-range": ["2"],
    "--ab-step": ["0.1"], "--homogeneity-samples": ["100"], "--seed": ["7"],
}
_LEMMA1_ARGV_VALUES = {
    "--p": [["1.5", "3"], ["1.0001"], ["12"], ["140"], ["160"], ["400"], ["1"], ["0.5"],
            ["0"], ["-2"], ["nan"], ["inf"]],
    "--range": [["1"], ["0"], ["-1"], ["nan"], ["inf"], ["1e300"]],
    "--step": [["0.1"], ["0"], ["-0.01"], ["nan"], ["inf"], ["1e-300"]],
    "--ab-range": [["1"], ["0"], ["-1"], ["nan"], ["inf"], ["1e300"]],
    "--ab-step": [["0.5"], ["0"], ["-0.1"], ["nan"], ["inf"], ["1e-300"], ["1e300"]],
    "--homogeneity-samples": [["1"], ["0"], ["-1"], [str(10 ** 30)], ["x"]],
    "--seed": [["0"], ["-1"], ["-20260810"], [str(2 ** 70)], ["x"]],
}
_lemma1_argv_mutations = st.lists(
    st.sampled_from(sorted(_LEMMA1_ARGV_VALUES)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(_LEMMA1_ARGV_VALUES[flag]))
    ),
    min_size=1, max_size=3,
)


def _main_quietly(argv):
    """main(argv) -> (exit code, stdout, stderr, warnings raised)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), caught


def _assert_documented_exit(rc, err, caught):
    assert rc in (0, 1, 2)
    assert "internal error" not in err and "Warning" not in err
    assert not caught, [str(w.message) for w in caught]


@settings(max_examples=120, **_SETTINGS)
@given(_lemma1_argv_mutations)
def test_verify_lemma1_argv_fuzz_exits_with_a_documented_code(mutations):
    flags = {**_VALID_LEMMA1_ARGV, **dict(mutations)}
    argv = ["verify-lemma1"] + [arg for flag, values in flags.items() for arg in (flag, *values)]
    rc, _, err, caught = _main_quietly(argv)
    _assert_documented_exit(rc, err, caught)


@settings(max_examples=8, **_SETTINGS)
@given(st.integers(-(2 ** 70), 2 ** 70), st.booleans())
def test_suite_argv_fuzz_refuses_before_any_scenario_runs(seed, into_a_file):
    # Only draws refused before a scenario runs: a negative seed, or an
    # output directory that is a file.
    assume(seed < 0 or into_a_file)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out"
        if into_a_file:
            target.write_text("")
        argv = ["suite", "--output-dir", str(target), "--seed", str(seed)]
        rc, out, err, caught = _main_quietly(argv)
    _assert_documented_exit(rc, err, caught)
    assert rc == 2 and out == ""
