"""Property tests of the convexity module over generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    RegionMask,
    ScalarField,
    SequenceSpec,
    VectorField,
    VectorSequenceSpec,
    build_uniform_grid,
    jensen_check,
    liminf_verify,
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
