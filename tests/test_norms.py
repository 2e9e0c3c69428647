import numpy as np
import pytest

from lplab import (
    INFINITY,
    GridMismatchError,
    InvalidArgumentError,
    RegionMask,
    ScalarField,
    VectorField,
    build_uniform_grid,
    conjugate_exponent,
    dual_pairing,
    holder_minkowski_check,
    integrate,
    lp_norm,
    product_lp_norm,
)


@pytest.fixture(scope="module")
def grid():
    return build_uniform_grid([[0.0, 1.0]], 1000)


def _random_field(grid, rng):
    return ScalarField(grid, rng.normal(size=grid.node_count))


def test_conjugate_examples():
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(1.0) == INFINITY
    q = conjugate_exponent(4.0)
    assert q == pytest.approx(4.0 / 3.0)
    assert conjugate_exponent(q) == pytest.approx(4.0, abs=1e-12)


def test_conjugate_rejects_sup_exponent_and_bad_p():
    with pytest.raises(InvalidArgumentError):
        conjugate_exponent(INFINITY)
    with pytest.raises(InvalidArgumentError):
        conjugate_exponent(0.5)


def test_lp_norm_constant(grid):
    f = ScalarField.constant(grid, 2.0)
    assert lp_norm(f, 3.0) == pytest.approx(2.0, abs=1e-12)


def test_lp_norm_linear_oracle(grid):
    # oracle: integral of x^2 over [0, 1] is 1/3, so the 2-norm is 1/sqrt(3)
    f = ScalarField(grid, grid.nodes[:, 0])
    assert lp_norm(f, 2.0) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-4)


def test_sup_norm_of_negative_constant(grid):
    assert lp_norm(ScalarField.constant(grid, -5.0), INFINITY) == 5.0


def test_lp_norm_zero_iff_zero_and_homogeneous(grid):
    rng = np.random.default_rng(3)
    assert lp_norm(ScalarField.constant(grid, 0.0), 2.0) == 0.0
    for p in (1.0, 1.5, 2.0, INFINITY):
        f = _random_field(grid, rng)
        c = float(rng.normal())
        assert lp_norm(c * f, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12)
        assert lp_norm(f, p) > 0.0


def test_lp_norm_of_a_tiny_constant_does_not_underflow():
    g = build_uniform_grid([[0.0, 1.0]], 32)
    norm = lp_norm(ScalarField.constant(g, 1e-60), 6.0)
    assert norm == pytest.approx(1e-60, rel=1e-12, abs=0.0)


def test_holder_minkowski_margins_at_extreme_magnitudes_are_finite():
    # f = 1e-60 and g = 1e60 at one node: both inequalities hold with equality
    g = build_uniform_grid([[0.0, 1.0]], 32)
    f, h = np.zeros(32), np.zeros(32)
    f[3], h[3] = 1e-60, 1e60
    f, h = ScalarField(g, f), ScalarField(g, h)
    holder, minkowski = holder_minkowski_check(f, h, 6.0)
    assert holder == pytest.approx(0.0, abs=1e-12 * dual_pairing(f, h))
    assert minkowski == pytest.approx(0.0, abs=1e-12 * lp_norm(h, 6.0))


def test_product_lp_norm_of_huge_components_does_not_overflow():
    g = build_uniform_grid([[0.0, 1.0]], 32)
    u = VectorField([ScalarField.constant(g, 1e200), ScalarField.constant(g, 1e200)])
    norm = product_lp_norm(u, 2.0)
    assert norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-12, abs=0.0)


def test_lp_norm_region_mismatch(grid):
    other = build_uniform_grid([[0.0, 1.0]], 1000)
    with pytest.raises(GridMismatchError):
        lp_norm(ScalarField.constant(grid, 1.0), 2.0, RegionMask.full(other))


def test_product_norm_two_constants(grid):
    u = VectorField([ScalarField.constant(grid, 1.0)] * 2)
    assert product_lp_norm(u, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_product_norm_reduces_to_lp_for_single_component(grid):
    rng = np.random.default_rng(4)
    for p in (1.0, 1.5, 2.0, 3.0, INFINITY):
        f = _random_field(grid, rng)
        assert product_lp_norm(VectorField([f]), p) == pytest.approx(
            lp_norm(f, p), rel=1e-12
        )


def test_product_sup_norm_sums_components(grid):
    u = VectorField([ScalarField.constant(grid, 1.0), ScalarField.constant(grid, 2.0)])
    assert product_lp_norm(u, INFINITY) == pytest.approx(3.0)


def test_product_norm_equals_stacked_norm(grid):
    # for finite p the product norm is the norm over a disjoint union of grids
    rng = np.random.default_rng(5)
    for p in (1.0, 2.0, 2.5):
        comps = [_random_field(grid, rng) for _ in range(3)]
        u = VectorField(comps)
        stacked = sum(
            float(np.dot(grid.weights, np.abs(c.samples) ** p)) for c in comps
        )
        assert product_lp_norm(u, p) == pytest.approx(stacked ** (1.0 / p), rel=1e-12)


def test_pairing_constants(grid):
    one = ScalarField.constant(grid, 1.0)
    assert dual_pairing(one, one) == pytest.approx(1.0, abs=1e-12)


def test_pairing_full_period_sine_vanishes(grid):
    # oracle: the antiderivative -cos(2 pi x)/(2 pi) closes over one period
    f = ScalarField(grid, np.sin(2.0 * np.pi * grid.nodes[:, 0]))
    assert abs(dual_pairing(f, ScalarField.constant(grid, 1.0))) <= 1e-6


def test_pairing_bilinear_symmetric(grid):
    rng = np.random.default_rng(6)
    f, g, h = (_random_field(grid, rng) for _ in range(3))
    a, b = rng.normal(size=2)
    left = dual_pairing(ScalarField(grid, a * f.samples + b * g.samples), h)
    assert left == pytest.approx(a * dual_pairing(f, h) + b * dual_pairing(g, h), rel=1e-12, abs=1e-12)
    assert dual_pairing(f, g) == pytest.approx(dual_pairing(g, f), rel=1e-15)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_holder_bound_on_random_pairs(grid, p):
    rng = np.random.default_rng(int(p * 10))
    q = conjugate_exponent(p)
    for _ in range(40):
        f, g = _random_field(grid, rng), _random_field(grid, rng)
        assert abs(dual_pairing(f, g)) <= lp_norm(f, p) * lp_norm(g, q) + 1e-12


def test_holder_minkowski_equality_cases(grid):
    rng = np.random.default_rng(9)
    f = _random_field(grid, rng)
    _, mink = holder_minkowski_check(f, f, 2.0)
    assert abs(mink) <= 1e-12
    # disjoint supports are additive in the 1-norm
    half = grid.nodes[:, 0] < 0.5
    a = ScalarField(grid, np.where(half, 1.0, 0.0))
    b = ScalarField(grid, np.where(half, 0.0, 2.0))
    _, mink1 = holder_minkowski_check(a, b, 1.0)
    assert abs(mink1) <= 1e-12


def test_holder_minkowski_random_margins(grid):
    # oracle for p = 2 is the Cauchy-Schwarz inequality
    rng = np.random.default_rng(10)
    for _ in range(50):
        f, g = _random_field(grid, rng), _random_field(grid, rng)
        holder, mink = holder_minkowski_check(f, g, 2.0)
        assert holder >= -1e-12
        assert mink >= -1e-12


def test_holder_minkowski_needs_finite_p(grid):
    f = ScalarField.constant(grid, 1.0)
    with pytest.raises(InvalidArgumentError):
        holder_minkowski_check(f, f, INFINITY)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INFINITY])
def test_product_triangle_inequality(grid, p):
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = VectorField([_random_field(grid, rng) for _ in range(2)])
        v = VectorField([_random_field(grid, rng) for _ in range(2)])
        margin = product_lp_norm(u, p) + product_lp_norm(v, p) - product_lp_norm(u + v, p)
        assert margin >= -1e-12


def test_lp_norm_monotone_in_region(grid):
    rng = np.random.default_rng(12)
    f = _random_field(grid, rng)
    small = RegionMask(grid, grid.nodes[:, 0] < 0.3)
    large = RegionMask(grid, grid.nodes[:, 0] < 0.8)
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(f, p, large) >= lp_norm(f, p, small) - 1e-15


def test_lp_norm_power_identity(grid):
    rng = np.random.default_rng(13)
    f = _random_field(grid, rng)
    for p in (1.0, 2.0, 2.5):
        powered = integrate(ScalarField(grid, np.abs(f.samples) ** p))
        assert lp_norm(f, p) ** p == pytest.approx(powered, rel=1e-12)


def test_empty_region_norms(grid):
    f = ScalarField.constant(grid, 3.0)
    empty = RegionMask.empty(grid)
    assert lp_norm(f, 2.0, empty) == 0.0
    assert lp_norm(f, INFINITY, empty) == 0.0


@pytest.mark.parametrize("n", [7, 1000, 65536])
def test_regionless_calls_equal_full_region_bitwise(n, monkeypatch):
    g = build_uniform_grid([[0.0, 1.0]], n)
    rng = np.random.default_rng(n)
    f, h = _random_field(g, rng), _random_field(g, rng)
    full = RegionMask.full(g)
    expected = [integrate(f, full), dual_pairing(f, h, full)] + [
        lp_norm(f, p, full) for p in (1.0, 2.0, 3.5, INFINITY)
    ]

    def no_mask(*args, **kwargs):
        raise AssertionError("a region-less call built a full mask")

    monkeypatch.setattr(RegionMask, "full", classmethod(no_mask))
    got = [integrate(f), dual_pairing(f, h)] + [lp_norm(f, p) for p in (1.0, 2.0, 3.5, INFINITY)]
    assert got == expected
