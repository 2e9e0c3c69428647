import math
import warnings

import numpy as np
import pytest

from lplab import (
    GridMismatchError,
    InvalidArgumentError,
    QuadratureGrid,
    RegionMask,
    ScalarField,
    VectorField,
    build_uniform_grid,
    integrate,
    truncate_region,
)


def test_unit_interval_midpoints():
    g = build_uniform_grid([[0.0, 1.0]], 4)
    assert np.allclose(g.nodes.ravel(), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(g.weights, 0.25)


def test_tensor_product_square():
    g = build_uniform_grid([[0.0, 1.0], [0.0, 1.0]], [3, 3])
    assert g.node_count == 9
    assert np.allclose(g.weights, 1.0 / 9.0)


def test_total_mass_equals_box_volume():
    g = build_uniform_grid([[-2.0, 2.0]], 8)
    assert abs(g.total_mass - 4.0) <= 1e-12 * 4.0
    g2 = build_uniform_grid([[0.0, 2.0], [-1.0, 3.0]], [5, 7])
    assert abs(g2.total_mass - 8.0) <= 1e-12 * 8.0


@pytest.mark.parametrize(
    "box,res",
    [
        ([[0.0, 1.0]], 0),
        ([[1.0, 0.0]], 4),
        ([[0.0, float("inf")]], 4),
        ([[float("nan"), 1.0]], 4),
        ([[0.0, 1e160], [0.0, 1e160]], 16),  # each cell width is finite, their product not
        ([[0.0, 1.0]], [4, 4]),  # a count for an axis the box does not have
    ],
)
def test_build_rejects_bad_input(box, res):
    with pytest.raises(InvalidArgumentError):
        build_uniform_grid(box, res)


def test_a_box_whose_width_overflows_is_refused_naming_its_axis():
    # Both bounds are finite, but 1e308 - (-1e308) is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="axis 1 of the box is too wide"):
            build_uniform_grid([[0.0, 1.0], [-1e308, 1e308]], 4)


def test_an_axis_whose_far_nodes_overflow_takes_the_cell_width_first():
    # 255.5 * 1e307 overflows, 1e307 / 256 does not.
    grid = build_uniform_grid([[0.0, 1e307]], 256)
    expected = (np.arange(256) + 0.5) * (1e307 / 256)
    assert np.array_equal(grid.nodes[:, 0], expected)
    assert grid.weights[0] == 1e307 / 256


def test_grid_invariants_enforced():
    with pytest.raises(InvalidArgumentError, match="dimension must be >= 1"):
        QuadratureGrid(0, np.zeros((1, 0)), [1.0], np.zeros((0, 2)))
    with pytest.raises(InvalidArgumentError, match="do not match dimension"):
        QuadratureGrid(2, [[0.25], [0.75]], [0.5, 0.5], [[0.0, 1.0]])
    with pytest.raises(InvalidArgumentError, match="matching weights"):
        QuadratureGrid(1, [[0.25], [0.75]], [1.0], [[0.0, 1.0]])
    with pytest.raises(InvalidArgumentError, match="must be finite"):
        QuadratureGrid(1, [[0.25], [np.inf]], [0.5, 0.5], [[0.0, 1.0]])
    with pytest.raises(InvalidArgumentError):
        QuadratureGrid(1, [[0.5], [0.5]], [0.5, 0.5], [[0.0, 1.0]])
    with pytest.raises(InvalidArgumentError):
        QuadratureGrid(1, [[0.25], [0.75]], [0.5, -0.5], [[0.0, 1.0]])
    # equal 2-D nodes that are not neighbours in the given order
    box2 = [[0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(InvalidArgumentError, match="distinct"):
        QuadratureGrid(2, [[0.5, 0.25], [0.25, 0.5], [0.5, 0.25]], [0.1] * 3, box2)
    # nodes sharing one coordinate are distinct
    g = QuadratureGrid(2, [[0.5, 0.75], [0.25, 0.5], [0.5, 0.25]], [0.1] * 3, box2)
    assert g.node_count == 3


def test_uniform_grid_needs_no_distinctness_scan(monkeypatch):
    # a uniform grid lists its nodes in strictly increasing lexicographic
    # order, which one pass confirms: neither np.unique(axis=0) nor a sort runs
    def no_scan(*args, **kwargs):
        raise AssertionError("the nodes of a uniform grid were sorted or scanned")

    monkeypatch.setattr(np, "unique", no_scan)
    monkeypatch.setattr(np, "lexsort", no_scan)
    for box, res in (([[0.0, 1.0]], 64), ([[0.0, 1.0], [-1.0, 1.0]], [16, 8]),
                     ([[0.0, 1.0]] * 3, [4, 3, 2])):
        g = build_uniform_grid(box, res)
        assert g.node_count == math.prod([res] if isinstance(res, int) else res)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_accepts_shuffled_distinct_nodes_and_refuses_duplicates_in_any_order(n):
    # Nodes out of order are sorted to find equal neighbours: shuffled
    # distinct nodes are accepted, and a duplicate is refused whether the
    # nodes are sorted, shuffled, or hold it at both ends.
    rng = np.random.default_rng(n)
    nodes = build_uniform_grid([[0.0, 1.0]] * n, [9, 5, 4][:n]).nodes
    weights, box = np.ones(nodes.shape[0]), [[0.0, 1.0]] * n
    shuffled = nodes[rng.permutation(nodes.shape[0])]
    assert np.array_equal(QuadratureGrid(n, shuffled, weights, box).nodes, shuffled)
    count = nodes.shape[0]
    duplicated = np.vstack([nodes, nodes[7]])  # row count is node 7 again
    for order in (np.r_[0:8, count, 8:count],  # sorted: the twins are neighbours
                  rng.permutation(count + 1),
                  np.r_[7, 0:7, 8:count + 1]):  # the twins at either end
        with pytest.raises(InvalidArgumentError, match="distinct"):
            QuadratureGrid(n, duplicated[order], np.ones(count + 1), box)
    # -0.0 and 0.0 are one node, in increasing order or not
    for pair in ([[-0.0] * n, [0.0] * n], [[0.0] * n, [-0.0] * n]):
        with pytest.raises(InvalidArgumentError, match="distinct"):
            QuadratureGrid(n, pair, [1.0, 1.0], [[-1.0, 1.0]] * n)


def test_uniform_grid_rejects_collapsed_axis():
    # two ulps of width cannot hold 100 distinct midpoints, on the first axis
    # of a 1-D grid or on the second axis of a 2-D grid
    for box, res in (
        ([[1.0, 1.0 + 4.5e-16]], 100),
        ([[0.0, 1.0], [1.0, 1.0 + 4.5e-16]], [4, 100]),
    ):
        with pytest.raises(InvalidArgumentError, match="distinct"):
            build_uniform_grid(box, res)


def test_field_rejects_nonfinite_samples():
    g = build_uniform_grid([[0.0, 1.0]], 4)
    with pytest.raises(InvalidArgumentError):
        ScalarField(g, [1.0, 2.0, np.nan, 0.0])
    with pytest.raises(InvalidArgumentError):
        ScalarField(g, [1.0, np.inf, 0.0, 0.0])
    with pytest.raises(InvalidArgumentError):
        ScalarField(g, [1.0, 2.0])


def test_vector_field_requires_shared_grid():
    g1 = build_uniform_grid([[0.0, 1.0]], 4)
    g2 = build_uniform_grid([[0.0, 1.0]], 4)
    with pytest.raises(GridMismatchError):
        VectorField([ScalarField.constant(g1, 1.0), ScalarField.constant(g2, 1.0)])
    with pytest.raises(InvalidArgumentError):
        VectorField([])


def test_integrate_constant_is_total_mass():
    g = build_uniform_grid([[0.0, 1.0]], 64)
    assert integrate(ScalarField.constant(g, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_integrate_linear_matches_antiderivative():
    # oracle: integral of x over [0, 1] is x^2/2 evaluated at 1, i.e. 0.5
    g = build_uniform_grid([[0.0, 1.0]], 1000)
    f = ScalarField(g, g.nodes[:, 0])
    assert integrate(f) == pytest.approx(0.5, abs=1e-6)


def test_integrate_empty_region_is_zero():
    g = build_uniform_grid([[0.0, 1.0]], 16)
    f = ScalarField(g, np.sin(g.nodes[:, 0]))
    assert integrate(f, RegionMask.empty(g)) == 0.0


def test_integrate_grid_mismatch():
    g1 = build_uniform_grid([[0.0, 1.0]], 16)
    g2 = build_uniform_grid([[0.0, 1.0]], 16)
    with pytest.raises(GridMismatchError):
        integrate(ScalarField.constant(g1, 1.0), RegionMask.full(g2))
    with pytest.raises(GridMismatchError):
        ScalarField.constant(g1, 1.0) + ScalarField.constant(g2, 1.0)


def test_integrate_is_linear():
    g = build_uniform_grid([[0.0, 1.0]], 128)
    rng = np.random.default_rng(7)
    for _ in range(25):
        f = ScalarField(g, rng.normal(size=g.node_count))
        h = ScalarField(g, rng.normal(size=g.node_count))
        a, b = rng.normal(size=2)
        combo = integrate(ScalarField(g, a * f.samples + b * h.samples))
        split = a * integrate(f) + b * integrate(h)
        assert combo == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_vector_field_arithmetic_is_componentwise():
    g = build_uniform_grid([[0.0, 1.0]], 8)
    u = VectorField([ScalarField(g, g.nodes[:, 0]), ScalarField.constant(g, 2.0)])
    v = VectorField([ScalarField.constant(g, 1.0), -ScalarField.constant(g, 3.0)])
    assert np.array_equal((u - v).matrix(), u.matrix() - v.matrix())
    assert np.array_equal((0.5 * u).matrix(), (u * 0.5).matrix())
    assert np.array_equal((u * 0.5).matrix(), 0.5 * u.matrix())
    assert np.array_equal(v.matrix()[1], np.full(8, -3.0))


def test_integrate_nonnegative_field():
    g = build_uniform_grid([[0.0, 1.0]], 128)
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = ScalarField(g, np.abs(rng.normal(size=g.node_count)))
        assert integrate(f) >= 0.0


def test_truncate_ball_containing_domain_is_identity():
    g = build_uniform_grid([[0.0, 1.0]], 32)
    full = RegionMask.full(g)
    assert np.array_equal(truncate_region(full, 2.0).included, full.included)


def test_truncate_definition():
    g = build_uniform_grid([[-2.0, 2.0]], 32)
    cut = truncate_region(RegionMask.full(g), 1.0)
    expected = np.abs(g.nodes[:, 0]) < 1.0
    assert np.array_equal(cut.included, expected)


def test_truncate_monotone_in_radius():
    g = build_uniform_grid([[-2.0, 2.0], [-2.0, 2.0]], [16, 16])
    full = RegionMask.full(g)
    previous = 0.0
    for radius in (0.5, 1.0, 1.5, 2.0, 3.0):
        cut = truncate_region(full, radius)
        assert cut.measure() >= previous
        previous = cut.measure()


def test_truncate_converges_to_region_beyond_circumradius():
    g = build_uniform_grid([[-1.0, 1.0], [-1.0, 1.0]], [8, 8])
    region = RegionMask(g, g.nodes[:, 0] > 0.0)
    circum = float(np.linalg.norm(g.nodes, axis=1).max())
    cut = truncate_region(region, circum + 1.0)
    assert np.array_equal(cut.included, region.included)


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_truncate_rejects_bad_radius(radius):
    g = build_uniform_grid([[0.0, 1.0]], 8)
    with pytest.raises(InvalidArgumentError):
        truncate_region(RegionMask.full(g), radius)


def test_mask_length_must_match():
    g = build_uniform_grid([[0.0, 1.0]], 8)
    with pytest.raises(InvalidArgumentError):
        RegionMask(g, np.ones(5, dtype=bool))


def test_values_are_immutable():
    g = build_uniform_grid([[0.0, 1.0]], 8)
    f = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError):
        f.samples[0] = 2.0
    with pytest.raises(ValueError):
        g.weights[0] = 2.0


def test_node_norms_are_computed_once_per_grid(monkeypatch):
    calls = []
    real_norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or real_norm(*a, **k))
    grid = build_uniform_grid([[-1.0, 1.0], [-1.0, 1.0]], 16)
    full = RegionMask.full(grid)
    cuts = [truncate_region(full, radius) for radius in (0.5, 1.0, 2.0)]
    cuts.append(truncate_region(cuts[-1], 0.75))
    assert len(calls) == 1
    truncate_region(RegionMask.full(build_uniform_grid([[-1.0, 1.0], [-1.0, 1.0]], 16)), 1.0)
    assert len(calls) == 2
    monkeypatch.undo()
    norms = np.linalg.norm(grid.nodes, axis=1)
    for cut, radius in zip(cuts, (0.5, 1.0, 2.0)):
        assert np.array_equal(cut.included, norms < radius)
    assert np.array_equal(cuts[-1].included, norms < 0.75)
    assert not grid._node_norms.flags.writeable


def _truncation_counts(c):
    """Node counts of a6's truncations, R = 0.5, 1 and 2, with the box and radii dilated by c."""
    full = RegionMask.full(build_uniform_grid([[0.0, c]], 4096))
    return [int(truncate_region(full, radius * c).included.sum()) for radius in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("c", [1e-200, 1e-160, 1e160, 1e300])
def test_truncations_of_a_dilated_box_hold_the_same_nodes(c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _truncation_counts(c) == _truncation_counts(1.0) == [2048, 4096, 4096]


@pytest.mark.parametrize(
    "box, resolution",
    [([[0.0, 1.0]], 4096), ([[0.0, 1.0]], 65536), ([[0.0, 1.0]] * 2, 256), ([[-1.0, 1.0]] * 2, 64)],
)
def test_node_norms_keep_the_bits_of_the_sum_of_squares_in_range(box, resolution):
    grid = build_uniform_grid(box, resolution)
    assert np.array_equal(
        grid._node_norms.view(np.uint64), np.linalg.norm(grid.nodes, axis=1).view(np.uint64)
    )


def test_node_norms_rescale_rows_out_of_range():
    nodes = [[3e200, 4e200], [3e-200, 4e-200], [-3e-170, 0.0], [0.0, 0.0], [3.0, 4.0]]
    grid = QuadratureGrid(2, nodes, np.ones(5), [[-1e201, 1e201]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = grid._node_norms
    assert norms[:3] == pytest.approx([5e200, 5e-200, 3e-170], rel=4e-16)
    assert norms[3:].tolist() == [0.0, 5.0]
