import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lplab import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    GridMismatchError,
    InvalidArgumentError,
    QuadratureGrid,
    RegionMask,
    ScalarField,
    SequenceSpec,
    VectorField,
    build_uniform_grid,
    conjugate_exponent,
    estimate_a_constant,
    floor_exponent,
    integrate,
    truncate_region,
)
from lplab import grid as grid_module
from lplab.grid import _euclidean_norms, _finite, _finite_array, _rounding_budget, _slack


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
        ([[0.0, 1.0, 2.0]], 4),  # an entry that is not a (lo, hi) pair
        ([], 4),
        # a count that is not an integer: truncated or converted, it would run on other nodes
        ([[0.0, 1.0]], 2.5),
        ([[0.0, 1.0]], [256.9]),
        ([[0.0, 1.0]], [True]),
        ([[0.0, 1.0]], "4"),
    ],
)
def test_build_rejects_bad_input(box, res):
    with pytest.raises(InvalidArgumentError):
        build_uniform_grid(box, res)


@pytest.mark.parametrize("res", [1, 4.0, np.int64(4), [np.int32(4)], np.float32(4.0)])
def test_build_takes_an_integral_count_of_any_integer_type(res):
    grid = build_uniform_grid([[0.0, 1.0]], res)
    count = int(np.ravel(res)[0])
    assert grid.resolution == (count,) and grid.node_count == count


def test_a_non_integral_count_is_refused_by_name():
    with pytest.raises(InvalidArgumentError, match=r"^resolution must be an integer, got 2\.5$"):
        build_uniform_grid([[0.0, 1.0]], 2.5)


@pytest.mark.parametrize(
    "resolution, message",
    [
        # read with int() it was (1024,) on 2 nodes, and the aliasing guard
        # then let 100 cycles be sampled at 2 nodes
        ((1024.7,), "resolution must be an integer, got 1024.7"),
        ((1024,), r"resolution \(1024,\) does not tile 2 nodes"),
        ((2, 1), r"resolution \(2, 1\) does not tile 2 nodes"),  # an axis the grid lacks
        ((0,), "resolution must be >= 1, got 0"),
        ((True,), "resolution must be an integer, got True"),
    ],
)
def test_a_given_resolution_must_count_the_grid_nodes(resolution, message):
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        QuadratureGrid(1, [0.25, 0.75], [0.5, 0.5], [[0.0, 1.0]], resolution=resolution)
    grid = QuadratureGrid(1, [0.25, 0.75], [0.5, 0.5], [[0.0, 1.0]], resolution=(2.0,))
    assert grid.resolution == (2,) and type(grid.resolution[0]) is int


@pytest.mark.parametrize(
    "margins, scale, expected",
    [
        (0.0, 3.0, 0.0),  # a zero margin holds without slack
        (1.0, 3.0, 0.0),
        (-1e-300, 3.0, _rounding_budget(5, 3.0)),
        ([-1.0, 0.0, 2.0, -0.5], [1.0, 2.0, 3.0, 4.0], [_rounding_budget(5, 1.0), 0.0, 0.0,
                                                        _rounding_budget(5, 4.0)]),
    ],
)
def test_slack_is_the_rounding_budget_at_a_negative_margin_only(margins, scale, expected):
    slack = _slack(np.asarray(margins), 5, np.asarray(scale))
    assert np.array_equal(slack, expected)
    assert isinstance(slack, float) == (np.ndim(margins) == 0)  # a number for a number


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


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), math.inf, True, "1.0"])
def test_truncate_rejects_bad_radius(radius):
    g = build_uniform_grid([[0.0, 1.0]], 8)
    with pytest.raises(InvalidArgumentError, match="^truncation radius must be"):
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
    monkeypatch.setattr(
        "lplab.grid._euclidean_norms", lambda *a, **k: calls.append(1) or _euclidean_norms(*a, **k)
    )
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


@pytest.mark.parametrize("m", range(1, 41))
def test_euclidean_norms_keep_their_bits_in_every_layout(m):
    # numpy adds a C-ordered row's squares pairwise from 8 terms on and an
    # F-ordered array's column by column; the one norm adds them in order.
    rng = np.random.default_rng(m)
    points = rng.standard_normal((64, m)) * np.exp2(rng.integers(-8, 9, (64, 1)))
    points[:3] *= [[1e-160], [1e170], [0.0]]  # rows the rescale reads
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _euclidean_norms(np.ascontiguousarray(points))
        transposed = _euclidean_norms(np.asfortranarray(points))
    assert np.array_equal(norms.view(np.uint64), transposed.view(np.uint64))
    if m < 8:
        in_range = np.linalg.norm(points[3:], axis=1)
        assert np.array_equal(norms[3:].view(np.uint64), in_range.view(np.uint64))


# The number rule (grid._number): a real number, numpy scalars included, is
# one; a bool, a string and None are not, wherever the library reads one.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: conjugate_exponent(True), "exponent must be a number, got True"),
        (lambda: floor_exponent("3"), "the p of the floor exponent must be a number, got '3'"),
        (lambda: SequenceSpec("oscillatory", amplitude="2"), "amplitude must be a number, got '2'"),
        (lambda: ConvexFunctionSpec("squared_norm", nonnegative="false"),
         "nonnegative must be true or false, got 'false'"),
        (lambda: ConvexSetSpec("ball", closed="no"), "closed must be true or false, got 'no'"),
        (lambda: build_uniform_grid([[0.0, 1.0]], np.float32(16.5)),
         "resolution must be an integer, got np.float32(16.5)"),
        (lambda: build_uniform_grid([[False, True]], 16), "grid box must be a number, got False"),
        (lambda: ConvexSetSpec("ball", center=[10 ** 400]), "ball center must be finite, got inf"),
        (lambda: ScalarField.constant(build_uniform_grid([[0.0, 1.0]], 4), "2"),
         "constant value must be a number, got '2'"),
    ],
    ids=["conjugate-of-true", "floor-of-a-string", "string-amplitude", "string-nonnegative",
         "string-closed", "float32-non-integral-count", "bool-box", "int-beyond-float-centre",
         "string-constant"],
)
def test_every_library_reader_refuses_what_is_not_a_number_by_name(call, message):
    with pytest.raises(InvalidArgumentError, match="^" + re.escape(message) + "$"):
        call()


def test_an_array_nested_deeper_than_numpy_builds_is_refused_by_name():
    # numpy builds at most 64 dimensions (32 before numpy 2) and leaves the
    # deeper lists as entries; its flat iterator, once used here, stops at 32
    # dimensions and raised RuntimeError, which exited 3 from a configuration.
    centre = 0.5
    for _ in range(70):
        centre = [centre]
    message = r"^ball center must be a number, got \[+0\.5\]+$"
    with pytest.raises(InvalidArgumentError, match=message):
        ConvexSetSpec("ball", center=centre)


def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def _finite_array_per_entry(what, raw):
    """The per-entry rule: every entry of the object array read by _finite, in ravel order."""
    entries = np.array(raw, dtype=object)
    return np.array([_finite(what, x) for x in entries.ravel()]).reshape(entries.shape)


_ENTRIES = {
    "floats-and-ints": [[0.1, -1.25], [3, 2**60 + 1]],
    "a-number": 7,
    "numpy-scalars": [np.float32(0.1), np.int64(-3), np.float64(2.5), np.float16(1e-3)],
    "a-fraction": [Fraction(1, 3), 2],
    "the-largest-ints": [2**1024 - 2**970 - 1, -(2**1024 - 2**970 - 1)],  # round to the max float
    "an-array": np.array([[1.5, -0.0], [5e-324, 1e308]]),
    "empty": [],
    "nested-33-deep": _nested(0.5, 33),
    "nested-70-deep": _nested(0.5, 70),
    "a-bool": [1.0, True],
    "a-numpy-bool": [np.True_],
    "a-string": [1.0, "2"],
    "a-list": [[1.0, 2.0], [3.0]],
    "none": [1.0, None],
    "nan": [1.0, float("nan")],
    "inf": [float("inf")],
    "numpy-nan": [np.float32("nan")],
    "an-int-beyond-the-float-range": [1.0, 2**1024 - 2**970],  # rounds to 2**1024
    "a-negative-int-beyond": [-(10**400)],
    "a-longdouble-beyond-the-float-range": [np.longdouble(2.0) ** 1100],
    "a-bool-before-an-int-beyond": [True, 10**400],
    "an-int-beyond-before-a-string": [10**400, "a"],
    "nan-before-a-string": [float("nan"), "a"],
    "a-string-before-nan": ["a", float("nan")],
}


@pytest.mark.parametrize("raw", list(_ENTRIES.values()), ids=list(_ENTRIES))
def test_finite_array_reads_as_the_per_entry_rule_and_calls_it_only_to_refuse(raw, monkeypatch):
    # One conversion reads valid entries without _finite; the bits and the
    # refusal stay those of the rule.
    def outcome(read):
        try:
            values = read("entry", raw)
        except InvalidArgumentError as err:
            return "refused", str(err)
        return values.dtype.str, values.shape, values.tobytes()

    expected = outcome(_finite_array_per_entry)
    calls = []
    monkeypatch.setattr(grid_module, "_finite", lambda *args: calls.append(args) or _finite(*args))
    assert outcome(_finite_array) == expected
    assert bool(calls) == (expected[0] == "refused")


def test_a_numpy_scalar_parameter_gives_the_float64_result():
    grid = build_uniform_grid([[0.0, 1.0]], np.float32(16.0))
    assert grid.resolution == (16,) and type(grid.resolution[0]) is int
    region = RegionMask.full(grid)
    assert np.array_equal(
        truncate_region(region, np.float32(0.5)).included, truncate_region(region, 0.5).included
    )
    assert estimate_a_constant(2.0, np.float32(10.0)) == estimate_a_constant(2.0, 10.0)
    assert floor_exponent(np.float32(2.5)) == 2
