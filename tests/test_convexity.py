import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lplab import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    DomainViolationError,
    InvalidArgumentError,
    PreconditionViolationError,
    RegionMask,
    ScalarField,
    SequenceSpec,
    VectorField,
    VectorSequenceSpec,
    build_uniform_grid,
    evaluate_composite,
    generate,
    jensen_check,
    liminf_verify,
    mazur_scenario_verify,
    member_pool,
    szlenk_extract,
    truncate_region,
    weak_star_verify,
)
from lplab import convexity, gallery
from lplab.cli import build_config
from lplab.grid import _rounding_budget


@pytest.fixture(scope="module")
def grid():
    return build_uniform_grid([[0.0, 1.0]], 2048)


def _zero_limit(grid, m=1):
    return VectorField([ScalarField.constant(grid, 0.0) for _ in range(m)])


def _squared():
    return ConvexFunctionSpec(kind="squared_norm")


def _whole():
    return ConvexSetSpec(kind="whole_space")


def test_evaluate_composite_zero_field(grid):
    assert evaluate_composite(_squared(), _zero_limit(grid)) == 0.0


def test_evaluate_composite_sine_energy():
    # oracle: integral of sin^2(2 pi x) over [0, 1] is 1/2
    g = build_uniform_grid([[0.0, 1.0]], 4096)
    u = VectorField([ScalarField(g, np.sin(2.0 * np.pi * g.nodes[:, 0]))])
    assert evaluate_composite(_squared(), u) == pytest.approx(0.5, abs=1e-4)


def test_evaluate_composite_max_affine_clamps(grid):
    f = ConvexFunctionSpec(kind="max_affine", planes=[([1.0], 0.0)])
    u = VectorField([ScalarField.constant(grid, -3.0)])
    assert evaluate_composite(f, u) == 0.0


def test_evaluate_composite_names_offending_node(grid):
    K = ConvexSetSpec(kind="ball", center=[0.0], radius=0.5)
    u = VectorField([ScalarField.constant(grid, 1.0)])
    with pytest.raises(DomainViolationError) as excinfo:
        evaluate_composite(_squared(), u, RegionMask.full(grid), K)
    assert excinfo.value.node_index == 0
    assert "node 0" in str(excinfo.value)


def test_power_and_custom_kinds(grid):
    u = VectorField([ScalarField.constant(grid, -2.0)])
    f = ConvexFunctionSpec(kind="power", power=3.0)
    assert evaluate_composite(f, u) == pytest.approx(8.0, rel=1e-12)
    affine = ConvexFunctionSpec(
        kind="custom", evaluator=lambda pts: pts[:, 0], nonnegative=False
    )
    assert evaluate_composite(affine, u) == pytest.approx(-2.0, rel=1e-12)
    assert evaluate_composite(affine, u, RegionMask.empty(grid)) == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ConvexFunctionSpec(kind="cubic"), "unknown convex function kind"),
        (lambda: ConvexFunctionSpec(kind="power", power=0.5), "power must be >= 1"),
        (lambda: ConvexFunctionSpec(kind="max_affine"), "at least one"),
        (lambda: ConvexFunctionSpec(kind="custom"), "need an evaluator"),
        (
            lambda: ConvexFunctionSpec(kind="custom", evaluator=lambda pts: pts[:1, 0])(
                [[1.0], [2.0]]
            ),
            "wrong length",
        ),
        (lambda: ConvexSetSpec(kind="simplex"), "unknown convex set kind"),
        (lambda: ConvexSetSpec(kind="ball", center=[0.0], radius=0.0), "must be positive"),
    ],
    ids=["f-kind", "f-power", "f-planes", "f-evaluator", "f-length", "K-kind", "K-radius"],
)
def test_f_and_K_refuse_what_they_cannot_represent(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()


def test_a_ball_without_a_centre_is_centred_at_the_origin():
    for K in (ConvexSetSpec(kind="ball"), ConvexSetSpec.from_config({"kind": "ball"})):
        assert K.center.tolist() == [0.0]
        assert K.contains([[0.5], [-1.5]]).tolist() == [True, False]


@pytest.mark.parametrize("lam", [1e-200, 1.0, 1e200])
def test_a_power_f_reads_the_norm_at_every_scale(lam):
    # The squares of 3 lam and 4 lam underflow or overflow at the ends.
    f = ConvexFunctionSpec(kind="power", power=1.0)
    assert f([[3.0 * lam, 4.0 * lam], [0.0, 0.0]]) == pytest.approx([5.0 * lam, 0.0], rel=1e-15)
    # |w|^2 of 5e200 overflows to inf, as the squared norm's sum does, with no warning.
    squares = ConvexFunctionSpec(kind="power", power=2.0)([[3.0 * lam, 4.0 * lam]])
    assert squares == pytest.approx(_squared()([[3.0 * lam, 4.0 * lam]]), rel=1e-15)


def test_jensen_single_point_and_variance():
    assert jensen_check(_squared(), [[2.0]]) == pytest.approx(0.0, abs=1e-15)
    # oracle: mean of squares minus square of mean is the variance (here 1)
    assert jensen_check(_squared(), [[-1.0], [1.0]]) == pytest.approx(1.0, abs=1e-15)


def test_jensen_refuses_an_empty_point_set():
    with pytest.raises(InvalidArgumentError, match="need at least one point"):
        jensen_check(_squared(), np.empty((0, 1)))


@pytest.mark.parametrize(
    "f, points, what",
    [
        (_squared(), [[1e200], [1e200]], "the mean of f over the points is inf"),
        (_squared(), [[np.nan], [1.0]], "the mean of f over the points is nan"),
        (
            ConvexFunctionSpec(
                kind="custom", evaluator=lambda p: np.where(p[:, 0] == 0.0, np.inf, 1.0)
            ),
            [[-1.0], [1.0]],
            "f at the mean of the points is inf",
        ),
    ],
    ids=["f-overflows", "nan-point", "inf-at-the-mean"],
)
def test_jensen_refuses_a_term_that_is_not_finite_without_warnings(f, points, what):
    # Not inf - inf = nan: the term that left the float range is named.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=f"^{what}, not finite$"):
            jensen_check(f, points)


@pytest.mark.parametrize(
    "f, points, expected",
    [
        # f is about 1e308 at both points; the sum of f overflows, its mean does not
        (_squared(), [[1e154], [1e154]], 0.0),
        (_squared(), [[1e154], [1.3e154]], (0.15e154) ** 2),
        # and the sum of the points overflows in one component only
        (ConvexFunctionSpec(kind="max_affine", planes=[([1.0, 0.0], 0.0)]),
         [[1.7e308, 1.0], [1.7e308, 3.0]], 0.0),
    ],
    ids=["equal-terms", "variance", "points-near-the-limit"],
)
def test_jensen_takes_an_overflowing_mean_of_finite_terms_at_their_scale(f, points, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jensen_check(f, points) == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(
        st.lists(st.floats(-1e154, 1e154), min_size=2, max_size=2),
        min_size=1, max_size=6,
    ),
    kind=st.sampled_from(["squared_norm", "max_affine"]),
)
def test_jensen_keeps_the_plain_means_bits_in_range(rows, kind):
    f = _squared() if kind == "squared_norm" else ConvexFunctionSpec(
        kind="max_affine", planes=[([1.0, -0.5], 0.25), ([-2.0, 1.0], 0.0)]
    )
    points = np.asarray(rows)
    with np.errstate(over="ignore"):
        mean_of_f = float(f(points).mean())
        f_of_mean = float(f(points.mean(axis=0)[None, :])[0])
    assume(math.isfinite(mean_of_f) and math.isfinite(f_of_mean))  # the old formula's range
    got = jensen_check(f, points)
    assert np.float64(got).view(np.uint64) == np.float64(mean_of_f - f_of_mean).view(np.uint64)


def test_jensen_point_outside_K():
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
    with pytest.raises(DomainViolationError):
        jensen_check(_squared(), [[0.5], [2.0]], K)


def test_jensen_random_margins_max_affine():
    rng = np.random.default_rng(31)
    f = ConvexFunctionSpec(
        kind="max_affine", planes=[([1.0, -0.5], 0.2), ([-1.0, 1.0], 0.0)]
    )
    K = ConvexSetSpec(kind="ball", center=[0.0, 0.0], radius=2.0)
    for _ in range(1000):
        pts = rng.uniform(-1.0, 1.0, size=(rng.integers(1, 8), 2))
        assert jensen_check(f, pts, K) >= -1e-12


def test_membership_midpoint_convexity():
    rng = np.random.default_rng(32)
    sets = [
        ConvexSetSpec(kind="box", bounds=[[-1.0, 2.0], [0.0, 1.0]]),
        ConvexSetSpec(kind="ball", center=[0.5, -0.5], radius=1.5),
        ConvexSetSpec(kind="halfspaces", halfspaces=[([1.0, 1.0], 1.0), ([-1.0, 0.0], 0.5)]),
    ]
    for K in sets:
        pts = rng.uniform(-2.0, 2.0, size=(400, 2))
        members = pts[K.contains(pts)]
        if len(members) < 2:
            continue
        mids = 0.5 * (members[:-1] + members[1:])
        assert K.contains(mids).all()


@pytest.mark.parametrize("lam", [1e-200, 1e-150, 1e-13, 1.0, 1e100, 1e200])
@pytest.mark.parametrize("kind", ["box", "ball", "halfspaces"])
def test_membership_slack_scales_with_K(kind, lam):
    # K scaled by lam: a point one ulp past the boundary is rounding and
    # belongs; a point twice as far out as the boundary never does.
    K = {
        "box": ConvexSetSpec(kind="box", bounds=[[-lam, lam], [-lam, lam]]),
        "ball": ConvexSetSpec(kind="ball", center=[0.0, 0.0], radius=lam),
        "halfspaces": ConvexSetSpec(kind="halfspaces", halfspaces=[([1.0, 1.0], lam)]),
    }[kind]
    assert K.contains([[np.nextafter(lam, np.inf), 0.0]]).all()
    assert not K.contains([[2.0 * lam, 0.0]]).any()


def _per_node_membership(K, points):
    """Membership of each point by the per-node formula: exact, then with K's slack."""
    def at_most(value, bound, scale):
        ok = value <= bound
        return ok if ok.all() else value <= bound + _rounding_budget(points.shape[1] + 2, scale)

    if K.kind == "box":
        extent = np.abs(K.bounds).max(axis=1)
        lo, hi = K.bounds[:, 0], K.bounds[:, 1]
        return np.all(at_most(lo, points, extent) & at_most(points, hi, extent), axis=1)
    distance = np.linalg.norm(points - K.center, axis=1)
    return at_most(distance, K.radius, K.radius + np.abs(K.center).max())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["box", "ball"]),
    m=st.integers(1, 9),
    lam=st.sampled_from([1e-150, 1e-13, 1.0, 1e100]),
    places=st.lists(
        st.sampled_from(["inside", "boundary", "ulp-out", "out"]), min_size=1, max_size=12
    ),
    seed=st.integers(0, 2**32 - 1),
    one_row=st.booleans(),
    transposed=st.booleans(),
)
def test_membership_decides_and_names_a_node_as_the_per_node_formula(
    kind, m, lam, places, seed, one_row, transposed
):
    # Values exactly on the boundary of K = lam [-1, 1]^m or the ball of
    # radius lam, one ulp outside it or twice as far: the decision for the
    # whole region and the node a violation names are those of the per-node test.
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.5, 0.5, (len(places), m)) * (lam / m)
    edge = {"boundary": lam, "ulp-out": np.nextafter(lam, np.inf), "out": 2.0 * lam}
    for row, place in zip(points, places):
        if place != "inside":
            row[rng.integers(m)] = rng.choice([-1.0, 1.0]) * edge[place]
    if transposed:  # the layout of a member row read at the region's nodes
        points = np.ascontiguousarray(points.T).T
    if kind == "box":
        K = ConvexSetSpec(kind="box", bounds=[[-lam, lam]] * (1 if one_row else m))
    else:
        K = ConvexSetSpec(kind="ball", center=[0.0] * (1 if one_row else m), radius=lam)
    expected = _per_node_membership(K, points)
    assert np.array_equal(K.contains(points), expected)

    grid2 = build_uniform_grid([[0.0, 1.0]], 2 * len(places))
    region = RegionMask(grid2, np.arange(grid2.node_count) % 2 == 1)
    if expected.all():
        convexity._check_membership(points, K, region, "member 3")
        return
    local = int(np.argmin(expected))
    node = 2 * local + 1
    with pytest.raises(DomainViolationError) as info:
        convexity._check_membership(points, K, region, "member 3")
    assert str(info.value) == (
        f"member 3: sample {points[local].tolist()} at node {node} "
        f"{grid2.nodes[node].tolist()} is outside K"
    )
    assert info.value.node_index == node


def _ball_membership_node_by_node(K, points):
    """Membership in the ball K, one node and one term at a time, as contains rounds.

    Each offset is scaled to the radius's binary scale outside [2^-500, 2^500],
    squared, and the squares are added in component order; a node is then
    compared exactly, or with K's slack once any node fails.
    """
    m = points.shape[1]
    e = 0 if 2.0 ** -500 <= K.radius <= 2.0 ** 500 else math.frexp(K.radius)[1]
    centre = np.broadcast_to(K.center, (m,))
    distances = []
    with np.errstate(over="ignore"):
        for row in points:
            total = np.float64(0.0)
            for x, c in zip(row, centre):
                offset = np.ldexp(np.float64(x) - c, -e)
                total += offset * offset
            distances.append(np.ldexp(np.sqrt(total), e))
    distances = np.asarray(distances)
    ok = distances <= K.radius
    if ok.all():
        return ok
    return distances <= K.radius + _rounding_budget(m + 2, K.radius + np.abs(K.center).max())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 4),
    radius=st.sampled_from(
        [2.0 ** -700, 2.0 ** -500, 1e-150, 0.75, 1.0, 3.0, 1e150, 2.0 ** 500, 2.0 ** 700, 1e307]
    ),
    shifted=st.booleans(),
    one_row=st.booleans(),
    spread=st.booleans(),
    places=st.lists(
        st.sampled_from(["inside", "sphere", "ulp-out", "just-out", "out", "nan", "inf"]),
        min_size=1, max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
    transposed=st.booleans(),
)
def test_ball_membership_equals_the_node_by_node_test(
    m, radius, shifted, one_row, spread, places, seed, transposed
):
    # A region whose bounding box's farthest corner lies in the ball is
    # accepted from that corner; any other is decided node by node.  Without
    # spread, every node lies inside or on the sphere, so the corner decides.
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-2.0, 2.0, 1 if one_row else m) * radius if shifted else np.zeros(1)
    if not spread:
        places = ["inside" if place == "inside" else "sphere" for place in places]
    points = np.broadcast_to(centre, (len(places), m)) + rng.uniform(
        -0.5, 0.5, (len(places), m)
    ) * (radius / m)
    edge = {
        "sphere": radius,
        "ulp-out": np.nextafter(radius, np.inf),
        "just-out": radius * (1.0 + 2.0 ** -30),  # far beyond the slack
        "out": 2.0 * radius,
        "inf": np.inf,
    }
    for row, place in zip(points, places):
        if place == "nan":
            row[rng.integers(m)] = np.nan
        elif place != "inside":
            j = rng.integers(m)
            row[:] = np.broadcast_to(centre, (m,))
            row[j] += rng.choice([-1.0, 1.0]) * edge[place]
    if transposed:  # the layout of a member row read at the region's nodes
        points = np.ascontiguousarray(points.T).T
    K = ConvexSetSpec(kind="ball", center=centre, radius=radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = K.contains(points)
    assert np.array_equal(inside, _ball_membership_node_by_node(K, points))


def test_liminf_constant_sequence_margin_zero(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="constant", value=2.0)])
    limit = VectorField([ScalarField.constant(grid, 2.0)])
    report = liminf_verify(seq, limit, _squared(), _whole(), RegionMask.full(grid), 2.0, 32)
    assert report.passed
    assert abs(report.margin) <= 1e-12
    assert report.replay.converged


def test_liminf_oscillatory_strict_inequality(grid):
    # oracle: alpha_i = integral sin^2 = 1/2 while the limit side is 0
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    report = liminf_verify(
        seq, _zero_limit(grid), _squared(), _whole(), RegionMask.full(grid), 2.0, 128
    )
    assert report.passed
    assert report.margin == pytest.approx(0.5, abs=1e-6)
    assert float(report.replay.jensen_margins.min()) >= -1e-12
    assert report.replay.fatou_margin >= -1e-12


def test_liminf_vector_composite(grid):
    # oracle: 1/2 from the sine energy plus 1 from the unit sign pattern
    seq = VectorSequenceSpec(
        [SequenceSpec(kind="oscillatory"), SequenceSpec(kind="rademacher")]
    )
    report = liminf_verify(
        seq, _zero_limit(grid, 2), _squared(), _whole(), RegionMask.full(grid), 2.0, 128
    )
    assert report.passed
    assert float(report.alphas[64:].min()) == pytest.approx(1.5, abs=1e-9)


def test_liminf_tail_infimum_recursion(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    report = liminf_verify(
        seq, _zero_limit(grid), _squared(), _whole(), RegionMask.full(grid), 2.0, 32,
        dictionary=[ScalarField.constant(grid, 1.0)],
    )
    tail = report.tail_infimum
    for i in range(len(tail) - 1):
        assert tail[i] == min(report.alphas[i], tail[i + 1])


def test_liminf_refuses_spike(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="spike")])
    with pytest.raises(PreconditionViolationError) as excinfo:
        liminf_verify(
            seq, _zero_limit(grid), _squared(), _whole(), RegionMask.full(grid), 1.0, 64
        )
    assert excinfo.value.hypothesis == "weak convergence probe"


def test_liminf_refuses_the_sup_norm(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    with pytest.raises(InvalidArgumentError, match="the sup-norm route is weak_star_verify"):
        liminf_verify(
            seq, _zero_limit(grid), _squared(), _whole(), RegionMask.full(grid), np.inf, 32
        )


def test_liminf_refuses_sign_indefinite_f(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    f = ConvexFunctionSpec(kind="custom", evaluator=lambda pts: pts[:, 0], nonnegative=False)
    with pytest.raises(PreconditionViolationError) as excinfo:
        liminf_verify(
            seq, _zero_limit(grid), f, _whole(), RegionMask.full(grid), 2.0, 32
        )
    assert excinfo.value.hypothesis == "nonnegativity of f"


def test_liminf_refuses_lying_nonnegative_claim(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    f = ConvexFunctionSpec(kind="custom", evaluator=lambda pts: pts[:, 0], nonnegative=True)
    with pytest.raises(PreconditionViolationError) as excinfo:
        liminf_verify(
            seq, _zero_limit(grid), f, _whole(), RegionMask.full(grid), 2.0, 32,
            dictionary=[ScalarField.constant(grid, 1.0)],
        )
    assert excinfo.value.hypothesis == "nonnegativity of f"


def test_liminf_refuses_values_outside_K(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory", amplitude=3.0)])
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
    with pytest.raises(PreconditionViolationError) as excinfo:
        liminf_verify(
            seq, _zero_limit(grid), _squared(), K, RegionMask.full(grid), 2.0, 32,
            dictionary=[ScalarField.constant(grid, 1.0)],
        )
    assert excinfo.value.hypothesis == "values in K"


def test_liminf_scaling_covariance(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    region = RegionMask.full(grid)
    one = [ScalarField.constant(grid, 1.0)]
    base = liminf_verify(seq, _zero_limit(grid), _squared(), _whole(), region, 2.0, 32,
                         dictionary=one)
    lam = 3.5
    scaled_f = ConvexFunctionSpec(
        kind="custom",
        evaluator=lambda pts, lam=lam: lam * np.einsum("ij,ij->i", pts, pts),
        nonnegative=True,
    )
    scaled = liminf_verify(seq, _zero_limit(grid), scaled_f, _whole(), region, 2.0, 32,
                           dictionary=one)
    assert np.allclose(scaled.alphas, lam * base.alphas, rtol=1e-12)
    assert scaled.limit_integral == pytest.approx(lam * base.limit_integral, abs=1e-12)
    assert scaled.passed == base.passed


def test_liminf_region_additivity(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    left = RegionMask(grid, grid.nodes[:, 0] < 0.5)
    right = RegionMask(grid, grid.nodes[:, 0] >= 0.5)
    union = RegionMask(grid, left.included | right.included)
    one = [ScalarField.constant(grid, 1.0)]
    r_left = liminf_verify(seq, _zero_limit(grid), _squared(), _whole(), left, 2.0, 32,
                           dictionary=one)
    r_right = liminf_verify(seq, _zero_limit(grid), _squared(), _whole(), right, 2.0, 32,
                            dictionary=one)
    r_union = liminf_verify(seq, _zero_limit(grid), _squared(), _whole(), union, 2.0, 32,
                            dictionary=one)
    assert np.allclose(r_union.alphas, r_left.alphas + r_right.alphas, atol=1e-12)


def test_weak_star_rademacher_schedule(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
    report = weak_star_verify(
        seq, _zero_limit(grid), _squared(), K, RegionMask.full(grid), 64, [0.5, 1.0, 2.0]
    )
    assert report.passed
    assert report.monotone
    assert report.limit_integrals == [0.0, 0.0, 0.0]
    assert all(r.passed for r in report.reports)


def test_weak_star_limit_integrals_monotone(grid):
    # constant-in-i sequence converging to u(x) = x: the limit-side integrals
    # integral_{Omega_R} x^2 dx must grow with R
    x = grid.nodes[:, 0]
    table = {i: x.copy() for i in range(1, 33)}
    seq = VectorSequenceSpec([SequenceSpec(kind="custom", table=table)])
    limit = VectorField([ScalarField(grid, x)])
    report = weak_star_verify(
        seq, limit, _squared(), _whole(), RegionMask.full(grid), 32, [0.25, 0.5, 2.0]
    )
    vals = report.limit_integrals
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_weak_star_requires_increasing_schedule(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    with pytest.raises(InvalidArgumentError):
        weak_star_verify(
            seq, _zero_limit(grid), _squared(), _whole(), RegionMask.full(grid), 32, [1.0, 0.5]
        )


def test_mazur_affine_cancellation(grid):
    # odd dyadic patterns integrate to zero: every alpha_i vanishes
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    f = ConvexFunctionSpec(kind="custom", evaluator=lambda pts: pts[:, 0], nonnegative=False)
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]], closed=True)
    report = mazur_scenario_verify(
        seq, _zero_limit(grid), f, K, RegionMask.full(grid), 64
    )
    assert report.passed
    assert abs(report.margin) <= 1e-12
    assert report.replay is None


def test_mazur_max_affine_scenario(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    f = ConvexFunctionSpec(kind="max_affine", planes=[([1.0], -0.5)])
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]], closed=True)
    report = mazur_scenario_verify(
        seq, _zero_limit(grid), f, K, RegionMask.full(grid), 64
    )
    assert report.passed


def test_mazur_agrees_with_truncation_route(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]], closed=True)
    region = RegionMask.full(grid)
    mazur = mazur_scenario_verify(seq, _zero_limit(grid), _squared(), K, region, 64)
    truncated = weak_star_verify(
        seq, _zero_limit(grid), _squared(), K, region, 64, [2.0]
    )
    assert mazur.passed == truncated.passed
    assert mazur.margin == pytest.approx(truncated.reports[-1].margin, abs=1e-12)


def test_mazur_requires_closed_K(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]], closed=False)
    with pytest.raises(PreconditionViolationError) as excinfo:
        mazur_scenario_verify(
            seq, _zero_limit(grid), _squared(), K, RegionMask.full(grid), 64
        )
    assert excinfo.value.hypothesis == "closedness of K"


def test_evaluate_composite_on_plane_grid():
    g2 = build_uniform_grid([[0.0, 1.0], [0.0, 1.0]], [64, 64])
    u = VectorField([
        ScalarField(g2, g2.nodes[:, 0]),
        ScalarField(g2, g2.nodes[:, 1]),
    ])
    # oracle: integral of x^2 + y^2 over the unit square is 2/3
    value = evaluate_composite(ConvexFunctionSpec(kind="squared_norm"), u)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-4)


def _liminf_route(seq, limit, f, K, region, horizon, dictionary=None):
    return liminf_verify(seq, limit, f, K, region, 2.0, horizon, dictionary)


def _weak_star_route(seq, limit, f, K, region, horizon, dictionary=None):
    return weak_star_verify(seq, limit, f, K, region, horizon, [0.5, 1.0, 2.0], dictionary)


def _mazur_route(seq, limit, f, K, region, horizon, dictionary=None):
    return mazur_scenario_verify(seq, limit, f, K, region, horizon, dictionary)


_ROUTES = {
    "liminf": (_liminf_route, "weak convergence probe"),
    "weak_star": (_weak_star_route, "weak* convergence probe"),
    "mazur": (_mazur_route, "weak* convergence probe"),
}
_UNIT_BOX = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
_FIRST_COORDINATE = dict(kind="custom", evaluator=lambda pts: pts[:, 0])


def _refuse_pool_builds(monkeypatch):
    def refuse(*args):
        raise AssertionError("a member pool was built")

    monkeypatch.setattr(gallery, "_build_pool", refuse)


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_routes_refuse_an_empty_region_before_building_the_pool(grid, monkeypatch, route):
    verify, _ = _ROUTES[route]
    _refuse_pool_builds(monkeypatch)
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    with pytest.raises(InvalidArgumentError, match="the region holds no grid node"):
        verify(seq, _zero_limit(grid), _squared(), _UNIT_BOX, RegionMask.empty(grid), 64)


def test_liminf_p1_refuses_a_ball_holding_no_node(grid, monkeypatch):
    _refuse_pool_builds(monkeypatch)
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    region = truncate_region(RegionMask.full(grid), 1e-9)
    with pytest.raises(InvalidArgumentError, match="the region holds no grid node"):
        liminf_verify(seq, _zero_limit(grid), _squared(), _UNIT_BOX, region, 1.0, 64)


@pytest.mark.parametrize(
    "box, radii, named",
    [
        ([[3.0, 4.0]], [0.5, 1.0, 2.0], 0.5),  # every ball about the origin misses the box
        ([[0.0, 1.0]], [1e-9, 0.5, 2.0], 1e-9),  # the first ball alone holds no node
    ],
)
def test_weak_star_refuses_an_empty_first_truncation(monkeypatch, box, radii, named):
    grid = build_uniform_grid(box, 4096)
    _refuse_pool_builds(monkeypatch)
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    with pytest.raises(InvalidArgumentError) as info:
        weak_star_verify(
            seq, _zero_limit(grid), _squared(), _UNIT_BOX, RegionMask.full(grid), 64, radii
        )
    assert str(info.value) == f"the region truncated at radius {named:g} holds no grid node"


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_routes_refuse_spike_with_their_probe(grid, route):
    verify, probe_hypothesis = _ROUTES[route]
    seq = VectorSequenceSpec([SequenceSpec(kind="spike")])
    with pytest.raises(PreconditionViolationError) as excinfo:
        verify(seq, _zero_limit(grid), _squared(), _whole(), RegionMask.full(grid), 64)
    assert excinfo.value.hypothesis == probe_hypothesis


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_routes_refuse_limit_outside_K(grid, route):
    verify, _ = _ROUTES[route]
    seq = VectorSequenceSpec([SequenceSpec(kind="constant", value=2.0)])
    limit = VectorField([ScalarField.constant(grid, 2.0)])
    with pytest.raises(PreconditionViolationError) as excinfo:
        verify(seq, limit, _squared(), _UNIT_BOX, RegionMask.full(grid), 32)
    assert excinfo.value.hypothesis == "values in K"
    assert "limit" in str(excinfo.value)


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_routes_refuse_member_outside_K(grid, route):
    verify, _ = _ROUTES[route]
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher", amplitude=3.0)])
    with pytest.raises(PreconditionViolationError) as excinfo:
        verify(seq, _zero_limit(grid), _squared(), _UNIT_BOX, RegionMask.full(grid), 64)
    assert excinfo.value.hypothesis == "values in K"
    assert "sequence member 1" in str(excinfo.value)


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_routes_refuse_false_nonnegativity_claim(grid, route):
    verify, _ = _ROUTES[route]
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    f = ConvexFunctionSpec(**_FIRST_COORDINATE, nonnegative=True)
    with pytest.raises(PreconditionViolationError) as excinfo:
        verify(seq, _zero_limit(grid), f, _UNIT_BOX, RegionMask.full(grid), 64)
    assert excinfo.value.hypothesis == "nonnegativity of f"


@pytest.mark.parametrize("route", ["liminf", "weak_star"])
def test_routes_refuse_declared_sign_indefinite_f(grid, route):
    verify, _ = _ROUTES[route]
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    f = ConvexFunctionSpec(**_FIRST_COORDINATE, nonnegative=False)
    with pytest.raises(PreconditionViolationError) as excinfo:
        verify(seq, _zero_limit(grid), f, _UNIT_BOX, RegionMask.full(grid), 64)
    assert excinfo.value.hypothesis == "nonnegativity of f"


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize(
    "f,K",
    [
        (ConvexFunctionSpec(kind="max_affine", planes=[([1.0, 2.0], 0.0)]), _UNIT_BOX),
        (_squared(), ConvexSetSpec(kind="halfspaces", halfspaces=[([1.0, 0.0], 1.0)])),
        (_squared(), ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0], [-1.0, 1.0]])),
        (_squared(), ConvexSetSpec(kind="ball", center=[0.0, 0.0], radius=2.0)),
    ],
    ids=["plane", "halfspace", "box", "ball"],
)
def test_routes_refuse_f_and_K_of_another_dimension(grid, route, f, K):
    verify, _ = _ROUTES[route]
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    with pytest.raises(InvalidArgumentError, match="m = 1"):
        verify(seq, _zero_limit(grid), f, K, RegionMask.full(grid), 64)


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_routes_broadcast_one_component_box_and_ball(grid, route):
    # One bound pair or one centre entry applies to every component; the
    # default ball centre [0.0] relies on it.
    verify, _ = _ROUTES[route]
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")] * 2)
    for K in (
        ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]]),
        ConvexSetSpec.from_config({"kind": "ball", "params": {"radius": 1.5}}),
    ):
        result = verify(seq, _zero_limit(grid, 2), _squared(), K, RegionMask.full(grid), 64)
        assert result.passed


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_routes_refuse_an_empty_dictionary(grid, route):
    # Only a missing dictionary means the default one; an empty one is
    # refused as weak_probe refuses it.
    verify, _ = _ROUTES[route]
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    with pytest.raises(InvalidArgumentError, match="dictionary must be nonempty"):
        verify(seq, _zero_limit(grid), _squared(), _UNIT_BOX, RegionMask.full(grid), 64, [])
    assert verify(seq, _zero_limit(grid), _squared(), _UNIT_BOX, RegionMask.full(grid), 64).passed


def test_weak_star_route_evaluates_f_once_per_member_and_pick(monkeypatch):
    raw = resources.files("lplab.scenarios").joinpath("a6-rademacher-weakstar.json")
    cfg = build_config(json.loads(raw.read_text()))
    calls = []
    call = ConvexFunctionSpec.__call__
    monkeypatch.setattr(
        ConvexFunctionSpec, "__call__", lambda f, points: calls.append(1) or call(f, points)
    )
    result = weak_star_verify(
        cfg.sequence, cfg.limit, cfg.f, cfg.K, cfg.region, cfg.horizon, cfg.r_schedule
    )
    # per distinct truncation: the limit field, every member, and the running mean at each pick
    distinct = list({id(r): r for r in result.reports}.values())
    assert len(distinct) == 2  # R = 1 and R = 2 both hold every node
    picks = [len(r.replay.indices) for r in distinct]
    assert min(picks) >= 8
    assert len(calls) == sum(1 + cfg.horizon + k for k in picks)


@pytest.mark.parametrize(
    "radii, runs",
    [(None, 2), ([2.0, 3.0, 4.0], 1), ([0.25, 0.5, 1.0], 3)],
    ids=["a6", "beyond-the-box", "distinct"],
)
def test_weak_star_route_verifies_each_distinct_truncation_once(monkeypatch, radii, runs):
    raw = resources.files("lplab.scenarios").joinpath("a6-rademacher-weakstar.json")
    cfg = build_config(json.loads(raw.read_text()))
    radii = radii or cfg.r_schedule
    verified = []  # (region, report) per verification
    real = convexity._verify_on_region

    def recording(*args):
        verified.append((args[4], real(*args)))
        return verified[-1][1]

    monkeypatch.setattr(convexity, "_verify_on_region", recording)
    result = weak_star_verify(
        cfg.sequence, cfg.limit, cfg.f, cfg.K, cfg.region, cfg.horizon, radii
    )
    assert len(verified) == runs
    # every radius gets the report of the one verification of its node set
    for radius, report in zip(radii, result.reports):
        mask = truncate_region(cfg.region, radius).included
        [shared] = [rep for region, rep in verified if np.array_equal(region.included, mask)]
        assert report is shared
    assert result.limit_integrals == [report.limit_integral for report in result.reports]


@pytest.mark.parametrize(
    "levels, message",
    [
        (0, "need at least one level"),
        (2.5, "must be an integer"),
        (-1, "need at least one level"),
        (True, "must be an integer"),
    ],
)
def test_every_p1_route_checks_the_level_count(grid, monkeypatch, levels, message):
    # The check comes before any member is generated.
    builds = []
    real_build = gallery._build_pool
    monkeypatch.setattr(gallery, "_build_pool", lambda *a: builds.append(a) or real_build(*a))
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    args = (seq, _zero_limit(grid), _squared(), _UNIT_BOX, RegionMask.full(grid))
    with pytest.raises(InvalidArgumentError, match=message):
        weak_star_verify(*args, 64, [1.0], szlenk_levels=levels)
    with pytest.raises(InvalidArgumentError, match=message):
        liminf_verify(*args, 1.0, 64, szlenk_levels=levels)
    with pytest.raises(InvalidArgumentError, match=message):
        szlenk_extract(seq, grid, levels, 64)
    assert builds == []


def _naive_chain(f, points, picks, weights):
    """Jensen margins at every k and the Fatou margin, each mean summed afresh.

    points[i - 1] holds member i at the region's nodes, shape (n, m).
    """
    jensen, tail = [], []
    for k in range(1, len(picks) + 1):
        picked = np.stack([points[i - 1] for i in picks[:k]])
        f_of_mean = f(picked.mean(axis=0))
        jensen.append((np.mean([f(x) for x in picked], axis=0) - f_of_mean).min())
        if k > len(picks) // 2:
            tail.append(f_of_mean)
    fatou = min(float(weights @ t) for t in tail) - float(weights @ np.min(tail, axis=0))
    return np.asarray(jensen), fatou


def _custom(table_of, horizon):
    return SequenceSpec(kind="custom", table={i: table_of(i) for i in range(1, horizon + 1)})


@pytest.mark.parametrize("case", ["m2-p2-ball", "p1-truncated"])
def test_replay_matches_a_naive_recomputation(grid, case):
    x = grid.nodes[:, 0]
    horizon = 128
    if case == "m2-p2-ball":
        centre = [0.5, -0.3]
        rademacher = SequenceSpec(kind="rademacher")
        seq = VectorSequenceSpec([
            _custom(lambda i: 0.5 + np.sin(2.0 * np.pi * i * x), horizon),
            _custom(lambda i: -0.3 + 0.5 * generate(rademacher, i, grid).samples, horizon),
        ])
        f, p = _squared(), 2.0
        K = ConvexSetSpec(kind="ball", center=centre, radius=2.0)
        region = truncate_region(RegionMask.full(grid), 0.7)
    else:
        centre = [0.25]
        seq = VectorSequenceSpec([_custom(lambda i: 0.25 + 0.5 * np.sin(2.0 * np.pi * i * x),
                                          horizon)])
        f, p = ConvexFunctionSpec(kind="max_affine", planes=[([1.0], 0.0), ([-2.0], 0.1)]), 1.0
        K = _whole()
        region = truncate_region(RegionMask.full(grid), 0.6)
    limit = VectorField([ScalarField.constant(grid, c) for c in centre])
    report = liminf_verify(seq, limit, f, K, region, p, horizon)
    replay = report.replay
    assert len(replay.indices) >= 8

    inc = region.included
    points = member_pool(seq, grid, horizon)[:, :, inc].transpose(0, 2, 1)
    jensen, fatou = _naive_chain(f, points, replay.indices, grid.weights[inc])
    f_max = max(float(f(u).max()) for u in points)
    np.testing.assert_allclose(replay.jensen_margins, jensen, rtol=0.0, atol=1e-12 * f_max)
    assert replay.fatou_margin == pytest.approx(fatou, rel=0.0, abs=1e-12 * f_max)
    assert replay.ok()


_BLAS_RUN = """
from lplab import *
grid = build_uniform_grid([[0.0, 1.0]], 16384)
seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory", amplitude=1.3)])
limit = VectorField([ScalarField.constant(grid, 0.0)])
f, K = ConvexFunctionSpec(kind="squared_norm"), ConvexSetSpec(kind="whole_space")
report = liminf_verify(seq, limit, f, K, RegionMask.full(grid), 2.0, 128)
print(repr(report.alphas.tolist()), repr(report.margin))
print(repr(report.probe.residuals.tolist()))
"""


def test_integrals_do_not_depend_on_the_blas_thread_count():
    # Above 10 000 nodes OpenBLAS splits a dot product over its threads, which
    # changes the order of the sum; the package's weighted sums and the
    # probe's pairings call no BLAS.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_RUN], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def _left_half(grid):
    return RegionMask(grid, grid.nodes[:, 0] < 0.5)


def test_a_replay_with_one_positive_cesaro_mean_fits_no_slope_and_fails(grid):
    # u_1 = 1, u_2 = -1, then zeros: every Szlenk level keeps every member and
    # s_k = 0 from k = 2 on, so one Cesaro mean is positive and no line is fit.
    horizon = 16
    pool = np.zeros((horizon, 1, grid.node_count))
    pool[0], pool[1] = 1.0, -1.0
    region = _left_half(grid)
    measure = region.measure()
    report = convexity._verify_on_region(
        pool, _zero_limit(grid), _squared(), _whole(), region, None, 1.0, 3
    )
    replay = report.replay
    assert replay.indices == list(range(1, horizon + 1))
    assert replay.cesaro_norms.tolist() == [measure] + [0.0] * (horizon - 1)
    assert replay.slope == 0.0 and replay.converged is False
    assert not replay.ok() and report.passed is False
    assert report.alphas.tolist() == [measure, measure] + [0.0] * (horizon - 2)
    assert report.margin == 0.0 and report.limit_integral == 0.0
    assert replay.jensen_margins.min() >= 0.0
    assert replay.fatou_margin == 0.0


def test_a_replay_that_stalls_before_eight_picks_reports_an_empty_chain(grid):
    # Every member is 2 on a region of measure 1/2, so of unit L^1 norm: level
    # 2 keeps only member 1, since the mean of two stays at 1 > max(1/2,
    # 2^(-1/2)).  The stall carries no trace, so the chain is empty.
    horizon = 16
    pool = np.full((horizon, 1, grid.node_count), 2.0)
    region = _left_half(grid)
    measure = region.measure()
    report = convexity._verify_on_region(
        pool, _zero_limit(grid), _squared(), _whole(), region, None, 1.0, 3
    )
    replay = report.replay
    assert replay.indices == [] and replay.cesaro_norms.size == 0
    assert replay.slope is None and replay.converged is False
    assert replay.jensen_margins.size == 0 and replay.fatou_margin is None
    assert report.passed is False
    assert report.alphas.tolist() == [4.0 * measure] * horizon
    assert report.tail_infimum.tolist() == [4.0 * measure] * horizon
    assert report.margin == 4.0 * measure
