import re

import numpy as np
import pytest

from lplab import (
    CONVERGING,
    INCONCLUSIVE,
    NOT_CONVERGING,
    GridMismatchError,
    InvalidArgumentError,
    ProbeReport,
    QuadratureGrid,
    ScalarField,
    SequenceSpec,
    VectorField,
    VectorSequenceSpec,
    build_uniform_grid,
    default_probe_dictionary,
    generate,
    lp_norm,
    member_pool,
    szlenk_extract,
    weak_probe,
    weak_star_probe,
)
from lplab import gallery


@pytest.fixture(scope="module")
def grid():
    return build_uniform_grid([[0.0, 1.0]], 4096)


def _zero_limit(grid, m=1):
    return VectorField([ScalarField.constant(grid, 0.0) for _ in range(m)])


def test_constant_zero(grid):
    spec = SequenceSpec(kind="constant", value=0.0)
    for i in (1, 5, 50):
        assert not generate(spec, i, grid).samples.any()


def test_oscillatory_matches_formula(grid):
    spec = SequenceSpec(kind="oscillatory", base=1.0)
    f = generate(spec, 2, grid)
    assert np.allclose(f.samples, np.sin(4.0 * np.pi * grid.nodes[:, 0]))


def test_generate_is_deterministic(grid):
    spec = SequenceSpec(kind="rademacher")
    a = generate(spec, 17, grid).samples
    b = generate(spec, 17, grid).samples
    assert np.array_equal(a, b)


def test_spike_has_unit_mass(grid):
    spec = SequenceSpec(kind="spike")
    # resolution 4096 is divisible by 4: the spike is exactly 4 on [0, 1/4)
    f = generate(spec, 4, grid)
    assert lp_norm(f, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert f.samples.max() == pytest.approx(4.0, abs=1e-9)
    # unit mass holds for every resolvable index, divisible or not
    for i in (3, 7, 100, 999):
        assert lp_norm(generate(spec, i, grid), 1.0) == pytest.approx(1.0, abs=1e-9)


def test_custom_table_and_missing_index(grid):
    table = {1: np.ones(grid.node_count), 3: np.zeros(grid.node_count)}
    spec = SequenceSpec(kind="custom", amplitude=2.0, table=table)
    assert np.allclose(generate(spec, 1, grid).samples, 2.0)
    with pytest.raises(InvalidArgumentError):
        generate(spec, 2, grid)


def test_aliasing_guard_refuses(grid):
    # 4096 nodes resolve at most 512 oscillatory cycles
    with pytest.raises(InvalidArgumentError):
        generate(SequenceSpec(kind="oscillatory"), 513, grid)
    coarse = build_uniform_grid([[0.0, 1.0]], 16)
    with pytest.raises(InvalidArgumentError):
        generate(SequenceSpec(kind="spike"), 17, coarse)
    # the dyadic family on 16 nodes has max depth 2: 2^2 - 1 = 3 members
    assert generate(SequenceSpec(kind="rademacher"), 3, coarse) is not None
    with pytest.raises(InvalidArgumentError):
        generate(SequenceSpec(kind="rademacher"), 4, coarse)
    # without its resolution, the grid's axis reads its 16 distinct coordinates
    bare = QuadratureGrid(1, coarse.nodes, coarse.weights, coarse.domain_box)
    assert bare.axis_resolution(0) == 16
    assert generate(SequenceSpec(kind="rademacher"), 3, bare) is not None
    for kind, i in (("spike", 17), ("rademacher", 4)):
        with pytest.raises(InvalidArgumentError):
            generate(SequenceSpec(kind=kind), i, bare)


@pytest.mark.parametrize(
    "kind, resolution, last, refusal",
    [
        ("spike", 16, 16, "resolution 16 cannot resolve a width-1/17 spike"),
        ("spike", 17, 17, "resolution 17 cannot resolve a width-1/18 spike"),
        ("rademacher", 7, 0, "resolution 7 cannot resolve any dyadic sign pattern"),
        ("rademacher", 8, 1, "grid resolution supports only 1 dyadic sign patterns; index 2"),
        ("rademacher", 15, 1, "grid resolution supports only 1 dyadic sign patterns; index 2"),
        ("rademacher", 16, 3, "grid resolution supports only 3 dyadic sign patterns; index 4"),
    ],
)
def test_the_aliasing_guard_refuses_from_the_first_index_the_grid_cannot_resolve(
    kind, resolution, last, refusal
):
    # A spike needs i <= n1; the dyadic family has one level from 8 nodes on.
    grid = build_uniform_grid([[0.0, 1.0]], resolution)
    spec = SequenceSpec(kind=kind)
    if last:
        member = generate(spec, last, grid)
        if kind == "spike":  # at i = n1 the slab is the first node alone, of mass 1
            assert np.flatnonzero(member.samples).tolist() == [0]
            assert lp_norm(member, 1.0) == pytest.approx(1.0, rel=1e-15)
    if resolution in (8, 15):  # the one level: +1 on the lower half, -1 on the upper
        x1 = grid.nodes[:, 0]
        assert generate(spec, 1, grid).samples.tolist() == np.where(x1 < 0.5, 1.0, -1.0).tolist()
    with pytest.raises(InvalidArgumentError, match="^" + re.escape(refusal)):
        generate(spec, last + 1, grid)


def test_dyadic_signs_match_sine_formula(grid):
    # the generated pattern equals sign(sin(2^i pi x)) at resolvable depths
    spec = SequenceSpec(kind="rademacher")
    for i in (1, 2, 5):
        f = generate(spec, i, grid)
        expected = np.sign(np.sin(2.0 ** i * np.pi * grid.nodes[:, 0]))
        assert np.array_equal(f.samples, expected)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _dyadic_sign_by_remainder(x, level):
    y = np.floor(np.ldexp(x, level))
    return np.where(y % 2 == 0, 1.0, -1.0)


def test_dyadic_parity_equals_the_float_remainder():
    rng = np.random.default_rng(20261019)
    x = rng.uniform(-1e3, 1e3, 4096)
    x[:4] = [0.0, -0.0, 1e3, -1e3]
    nodes = build_uniform_grid([[0.0, 1.0], [0.0, 1.0]], [256, 256]).nodes[:, 0]
    for samples in (x, nodes):
        for level in range(61):
            got = gallery._dyadic_sign(samples, level)
            assert np.array_equal(_bits(got), _bits(_dyadic_sign_by_remainder(samples, level)))


@pytest.mark.parametrize("amplitude", [1.0, -1.0, 0.75, -2.5e-300, 0.0, -0.0])
def test_rademacher_rows_are_bitwise_the_fill_then_multiply_writer(amplitude):
    # The writer this one replaced: a row of ones, each level's signs multiplied
    # in, lowest level first, then the amplitude.
    grid2 = build_uniform_grid([[0.0, 1.0], [0.0, 1.0]], [256, 4])
    x1 = grid2.nodes[:, 0]
    max_level = gallery._max_dyadic_level(256)
    masks = gallery._walsh_masks(63, max_level)
    spec = SequenceSpec(kind="rademacher", amplitude=amplitude)
    pool = gallery.member_pool(VectorSequenceSpec([spec]), grid2, 63)
    for i in range(1, 64):
        expected = np.ones(grid2.node_count)
        for level in range(1, masks[i - 1].bit_length() + 1):
            if masks[i - 1] >> (level - 1) & 1:
                expected *= _dyadic_sign_by_remainder(x1, level)
        expected *= amplitude
        assert np.array_equal(_bits(pool[i - 1, 0]), _bits(expected)), i
        assert np.array_equal(_bits(generate(spec, i, grid2).samples), _bits(expected)), i


def _walsh_oracle(x1, mask, amplitude):
    """The product of the mask's level sign rows, by the float remainder, times amplitude."""
    expected = np.ones(x1.shape[0])
    for level in range(1, mask.bit_length() + 1):
        if mask >> (level - 1) & 1:
            expected *= _dyadic_sign_by_remainder(x1, level)
    return expected * amplitude


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("shape", [[256], [128, 4]], ids=["1d", "2d"])
@pytest.mark.parametrize("amplitude", [1.0, -1.0, 0.0, -0.0, -2.5e-300])
def test_rademacher_pools_are_bitwise_the_product_of_signs_on_one_and_two_cpus(
    monkeypatch, cpus, shape, amplitude
):
    # On two CPUs the upper half starts at row h // 2 + 1, and at h = 21 and
    # at the largest h that row's predecessor lies below the split: on 256
    # nodes, mask 9 over mask 8 (row 4) and mask 31 over mask 30 (row 31).
    monkeypatch.setattr(gallery, "_usable_cpus", lambda: cpus)
    grid2 = build_uniform_grid([[0.0, 1.0], [-1.0, 1.0]][: len(shape)], shape)
    x1 = grid2.nodes[:, 0]
    max_level = gallery._max_dyadic_level(shape[0])
    spec = SequenceSpec(kind="rademacher", amplitude=amplitude)
    for horizon in (1, 2, 9, 21, (1 << max_level) - 1):
        masks = gallery._walsh_masks(horizon, max_level)
        pool = member_pool(VectorSequenceSpec([spec]), grid2, horizon)
        for i in range(1, horizon + 1):
            expected = _bits(_walsh_oracle(x1, masks[i - 1], amplitude))
            assert np.array_equal(_bits(pool[i - 1, 0]), expected), (horizon, i)


def test_a_rademacher_row_is_its_lowest_level_predecessor_times_one_sign_row():
    # Rows below `first` hold NaN, as rows the other fill half owns may; each
    # written row is then rescaled by 2^i (exact), so a row that reuses row p
    # reads as its oracle times 2^p and names the row it was formed from.
    grid = build_uniform_grid([[0.0, 1.0]], 256)
    x1 = grid.nodes[:, 0]
    horizon = 63
    masks = gallery._walsh_masks(horizon, gallery._max_dyadic_level(256))
    _, write = gallery._kind_rows(SequenceSpec(kind="rademacher"), grid, range(1, horizon + 1))
    for first in (1, 10, 32):
        rows = np.full((horizon, grid.node_count), np.nan)
        for i in range(first, horizon + 1):
            write(rows, i, first)
            oracle = _walsh_oracle(x1, masks[i - 1], 1.0)
            mask = masks[i - 1]
            below = masks.index(mask & (mask - 1)) + 1 if mask & (mask - 1) else 0
            scale = 2.0 ** below if below >= first else 1.0
            assert np.array_equal(_bits(rows[i - 1]), _bits(oracle * scale)), (first, i)
            rows[i - 1] = oracle * 2.0 ** i


def test_dyadic_family_is_orthonormal(grid):
    spec = SequenceSpec(kind="rademacher")
    members = [generate(spec, i, grid) for i in range(1, 65)]
    w = grid.weights
    for a in range(0, 64, 7):
        for b in range(a, 64, 11):
            inner = float(np.dot(w, members[a].samples * members[b].samples))
            assert inner == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)
    assert all(np.all(np.abs(m.samples) == 1.0) for m in members)


@pytest.mark.parametrize("box", [[0.0, 0.5], [0.25, 0.75], [0.0, 2.0]])
def test_dyadic_family_is_orthogonal_on_every_box(box):
    # The signs read the box's own unit coordinate: 4096 nodes resolve 10
    # levels on any box, and all 1023 sign patterns are distinct and
    # orthogonal there.  Every Gram entry sums +-w terms exactly.
    boxed = build_uniform_grid([box], 4096)
    max_level = gallery._max_dyadic_level(4096)
    count = (1 << max_level) - 1
    assert count == 1023
    spec = SequenceSpec(kind="rademacher")
    rows = gallery.member_pool(VectorSequenceSpec([spec]), boxed, count)[:, 0]
    assert len({row.tobytes() for row in rows}) == count
    gram = (rows * boxed.weights) @ rows.T
    length = box[1] - box[0]
    assert np.array_equal(gram, length * np.eye(count))
    with pytest.raises(InvalidArgumentError, match="index 1024 is out of range"):
        generate(spec, count + 1, boxed)


def test_weak_probe_oscillatory_converges(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    report = weak_probe(seq, _zero_limit(grid), 2.0, default_probe_dictionary(grid), 128)
    assert report.verdict == CONVERGING
    assert report.slope < 0.0


def test_weak_probe_oscillatory_pure_mean_dictionary(grid):
    # against the constant alone the pairings vanish for every index
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    report = weak_probe(seq, _zero_limit(grid), 2.0, [ScalarField.constant(grid, 1.0)], 64)
    assert report.verdict == CONVERGING
    assert report.residuals.max() <= 1e-12


def test_weak_probe_constant_sequence(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="constant", value=3.0)])
    limit = VectorField([ScalarField.constant(grid, 3.0)])
    report = weak_probe(seq, limit, 2.0, default_probe_dictionary(grid), 32)
    assert report.verdict == CONVERGING
    assert report.residuals.max() == 0.0


def test_weak_probe_spike_not_converging(grid):
    # oracle: the spike integrates to exactly 1 against the constant 1
    seq = VectorSequenceSpec([SequenceSpec(kind="spike")])
    report = weak_probe(seq, _zero_limit(grid), 1.0, [ScalarField.constant(grid, 1.0)], 64)
    assert report.verdict == NOT_CONVERGING
    assert np.allclose(report.residuals, 1.0, atol=1e-9)


def test_weak_star_rademacher_halving_residuals(grid):
    # oracle: integral of r_i(x) x dx = -2^(-i-1), halving per level
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    x = ScalarField(grid, grid.nodes[:, 0])
    one = ScalarField.constant(grid, 1.0)
    report = weak_star_probe(seq, _zero_limit(grid), [one, x], 32)
    assert report.verdict == CONVERGING
    for i in range(1, 11):  # resolvable pure depths at 4096 nodes
        assert report.residuals[i - 1] == pytest.approx(2.0 ** (-i - 1), abs=1e-12)


def test_weak_star_oscillatory_indicator_dictionary(grid):
    # oracle: integral of sin(2 pi i x) over [0, 1/2] is (1 - cos(pi i))/(2 pi i)
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    half = ScalarField(grid, (grid.nodes[:, 0] < 0.5).astype(float))
    report = weak_star_probe(seq, _zero_limit(grid), [half], 64)
    assert report.verdict == CONVERGING
    assert report.residuals[0] == pytest.approx(1.0 / np.pi, abs=1e-4)
    assert report.residuals[2] == pytest.approx(1.0 / (3.0 * np.pi), abs=1e-4)


def test_residuals_invariant_under_zero_dictionary_member(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    base = default_probe_dictionary(grid)
    with_zero = base + [ScalarField.constant(grid, 0.0)]
    r1 = weak_probe(seq, _zero_limit(grid), 2.0, base, 32).residuals
    r2 = weak_probe(seq, _zero_limit(grid), 2.0, with_zero, 32).residuals
    assert np.array_equal(r1, r2)


def test_gallery_kinds_converge_at_reference_resolution(grid):
    # dyadic cancellation certifies at horizon 64; the 1/i oscillatory decay
    # needs horizon 128 to clear the hundredfold-drop criterion
    rad = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    osc = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    dictionary = default_probe_dictionary(grid)
    assert weak_star_probe(rad, _zero_limit(grid), dictionary, 64).verdict == CONVERGING
    assert weak_probe(osc, _zero_limit(grid), 2.0, dictionary, 128).verdict == CONVERGING


def test_probe_validation(grid):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    with pytest.raises(InvalidArgumentError):
        weak_probe(seq, _zero_limit(grid), 2.0, default_probe_dictionary(grid), 4)
    with pytest.raises(InvalidArgumentError):
        weak_probe(seq, _zero_limit(grid), 2.0, [], 32)
    with pytest.raises(InvalidArgumentError):
        weak_probe(seq, _zero_limit(grid, m=2), 2.0, default_probe_dictionary(grid), 32)
    other = build_uniform_grid([[0.0, 1.0]], grid.node_count)
    with pytest.raises(GridMismatchError, match="dictionary fields"):
        weak_probe(seq, _zero_limit(grid), 2.0, default_probe_dictionary(other), 32)


_NULL_GRID = QuadratureGrid(1, [0.25, 0.75], [0.0, 0.0], [[0.0, 1.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: SequenceSpec(kind="custom"), "need a sample table"),
        (lambda g: VectorSequenceSpec([]), "at least one component"),
        (lambda g: generate(SequenceSpec(kind="oscillatory"), 0, g), "index must be >= 1"),
        (lambda g: generate(SequenceSpec(kind="spike"), 1, _NULL_GRID), "carries no mass"),
        (
            lambda g: member_pool(VectorSequenceSpec([SequenceSpec(kind="spike")]), g, 0),
            "horizon must be >= 1",
        ),
        (
            lambda g: ProbeReport(np.arange(1, 3), np.array([0.5, -0.5]), CONVERGING, 0.0),
            "residuals must be nonnegative",
        ),
        (lambda g: generate(SequenceSpec(kind="oscillatory"), 1.5, g), "index must be an integer"),
        (
            lambda g: member_pool(VectorSequenceSpec([SequenceSpec(kind="spike")]), g, True),
            "horizon must be an integer",
        ),
        (
            lambda g: weak_probe(
                VectorSequenceSpec([SequenceSpec(kind="oscillatory")]), _zero_limit(g), 2.0,
                default_probe_dictionary(g), 8.5,
            ),
            "^probe horizon must be an integer, got 8.5$",
        ),
    ],
    ids=["custom-without-table", "no-component", "index-0", "null-spike", "horizon-0",
         "negative-residual", "index-1.5", "horizon-true", "probe-horizon-8.5"],
)
def test_specs_members_and_reports_refuse_what_they_cannot_represent(grid, call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call(grid)


def test_vector_probe_takes_component_maximum(grid):
    seq = VectorSequenceSpec(
        [SequenceSpec(kind="oscillatory"), SequenceSpec(kind="constant", value=0.0)]
    )
    report = weak_probe(seq, _zero_limit(grid, m=2), 2.0, default_probe_dictionary(grid), 64)
    solo = weak_probe(
        VectorSequenceSpec([SequenceSpec(kind="oscillatory")]),
        _zero_limit(grid),
        2.0,
        default_probe_dictionary(grid),
        64,
    )
    assert np.array_equal(report.residuals, solo.residuals)


_BELOW_A_HUNDREDTH = float(np.nextafter(0.01, 0.0))


@pytest.mark.parametrize(
    "residuals, slope, floor, verdict",
    [
        # the decay rule: converging once the final residual is below 1e-2 of the first
        ([1.0, 0.5, 0.1, 0.01], -1.0, 0.0, INCONCLUSIVE),
        ([1.0, 0.5, 0.1, _BELOW_A_HUNDREDTH], -1.0, 0.0, CONVERGING),
        # the zero floor: a curve of rounding noise, at most the floor, converges
        ([1e-20] * 4, 0.0, 1e-20, CONVERGING),
        ([1e-20] * 4, 0.0, float(np.nextafter(1e-20, 0.0)), NOT_CONVERGING),
        # the flat slope
        ([1.0] * 4, -0.05, 0.0, NOT_CONVERGING),
        ([1.0] * 4, float(np.nextafter(-0.05, -1.0)), 0.0, INCONCLUSIVE),
        # the tail floor: not converging while the tail stays at 1e-2 of the first
        ([1.0, 1.0, 0.01, 1.0], 0.0, 0.0, NOT_CONVERGING),
        ([1.0, 1.0, _BELOW_A_HUNDREDTH, 1.0], 0.0, 0.0, INCONCLUSIVE),
    ],
    ids=["final-at-a-hundredth", "final-below", "at-the-zero-floor", "above-the-zero-floor",
         "at-the-flat-slope", "below-the-flat-slope", "tail-at-a-hundredth", "tail-below"],
)
def test_the_probe_verdict_on_each_side_of_each_threshold(residuals, slope, floor, verdict):
    assert gallery._classify(np.array(residuals), slope, lambda: floor) == verdict


def test_inconclusive_is_reachable(grid):
    # slow 1/i decay at a short horizon: neither criterion triggers
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    x = ScalarField(grid, grid.nodes[:, 0])
    report = weak_probe(seq, _zero_limit(grid), 2.0, [x], 16)
    assert report.verdict == INCONCLUSIVE


@pytest.mark.parametrize("upper, name", [(1e150, "x1^2"), (1e200, "x1")])
def test_default_dictionary_refuses_a_field_that_overflows_on_the_box(upper, name):
    # On [0, 1e150] x1^2 w overflows; on [0, 1e200] x1 w already does.
    grid = build_uniform_grid([[0.0, upper]], 4096)
    with pytest.raises(InvalidArgumentError) as info:
        default_probe_dictionary(grid)
    assert str(info.value).startswith(
        f"the probe field {name} overflows on the box {[[0.0, upper]]}"
    )


def test_default_dictionary_keeps_fields_whose_products_are_finite():
    # max |x1| times max w overflows, but no single x1 w or x1^2 w does.
    grid = QuadratureGrid(1, [0.0, 1e150], [1e200, 1e-200], [[0.0, 1e150]])
    assert [v.samples.tolist() for v in default_probe_dictionary(grid)] == [
        [1.0, 1.0], [0.0, 1e150], [0.0, 1e150 ** 2]
    ]


def test_a_count_given_as_an_integral_float_runs_as_its_int(grid):
    # Every library count reads through grid._integer, as a configuration's does.
    spec = SequenceSpec(kind="oscillatory")
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    dictionary = default_probe_dictionary(grid)
    assert np.array_equal(generate(spec, 2.0, grid).samples, generate(spec, 2, grid).samples)
    assert np.array_equal(member_pool(seq, grid, 1.0), member_pool(seq, grid, 1))
    by_float, by_int = (weak_probe(seq, _zero_limit(grid), 2.0, dictionary, h) for h in (16.0, 16))
    assert np.array_equal(by_float.residuals, by_int.residuals)
    assert (by_float.verdict, by_float.slope) == (by_int.verdict, by_int.slope)
    assert by_float.indices.tolist() == list(range(1, 17))
    (schedule, trace), (schedule_int, trace_int) = (
        szlenk_extract(seq, grid, levels, 64) for levels in (3.0, 3)
    )
    assert schedule.levels == schedule_int.levels and schedule.diagonal == schedule_int.diagonal
    assert np.array_equal(trace.cesaro_norms, trace_int.cesaro_norms)
