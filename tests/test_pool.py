import numpy as np
import pytest

from lplab import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    InvalidArgumentError,
    PoolBudgetError,
    RegionMask,
    ScalarField,
    SequenceSpec,
    VectorField,
    VectorSequenceSpec,
    build_uniform_grid,
    default_probe_dictionary,
    dual_pairing,
    generate,
    member_pool,
    weak_probe,
)
from lplab import convexity, extraction, gallery
from lplab.gallery import _max_dyadic_level


@pytest.fixture(scope="module")
def grid():
    return build_uniform_grid([[0.0, 1.0]], 256)


def _zero_limit(grid, m=1):
    return VectorField([ScalarField.constant(grid, 0.0) for _ in range(m)])


def _every_kind(grid):
    table = {i: np.cos(i * grid.nodes[:, 0]) for i in range(1, 41)}
    return [
        SequenceSpec(kind="oscillatory", amplitude=-1.5, base=0.5),
        SequenceSpec(kind="rademacher", amplitude=0.75),
        SequenceSpec(kind="spike", amplitude=2.0),
        SequenceSpec(kind="constant", amplitude=3.0, value=-0.25),
        SequenceSpec(kind="custom", amplitude=-2.5, table=table),
    ]


def test_pool_rows_equal_generate_for_every_kind(grid):
    # 256 nodes resolve 6 dyadic levels, so indices 7..40 are Walsh products
    assert _max_dyadic_level(256, 1.0) == 6
    seq = VectorSequenceSpec(_every_kind(grid))
    pool = member_pool(seq, grid, 40)
    assert pool.shape == (40, 5, grid.node_count)
    assert not pool.flags.writeable
    for i in range(1, 41):
        for j, comp in enumerate(seq.components):
            assert np.array_equal(pool[i - 1, j], generate(comp, i, grid).samples), (i, j)


def test_pool_rademacher_on_2d_grid_equals_generate():
    grid2 = build_uniform_grid([[0.0, 1.0], [-1.0, 1.0]], [64, 8])
    spec = SequenceSpec(kind="rademacher", amplitude=-1.0)
    pool = member_pool(VectorSequenceSpec([spec]), grid2, 15)
    for i in range(1, 16):
        assert np.array_equal(pool[i - 1, 0], generate(spec, i, grid2).samples)


def _first_error(spec, grid, horizon) -> str:
    for i in range(1, horizon + 1):
        try:
            generate(spec, i, grid)
        except InvalidArgumentError as err:
            return str(err)
    raise AssertionError("every index generated")


@pytest.mark.parametrize(
    "spec, horizon",
    [
        (SequenceSpec(kind="oscillatory"), 40),  # 256 nodes resolve 32 cycles
        (SequenceSpec(kind="rademacher"), 64),  # 6 levels give 63 patterns
        (SequenceSpec(kind="spike"), 257),
        (SequenceSpec(kind="custom", table={1: np.ones(256), 2: np.ones(256)}), 8),
        (SequenceSpec(kind="custom", table={1: np.full(256, np.nan)}), 8),
        (SequenceSpec(kind="rademacher", amplitude=np.nan), 8),
    ],
    ids=["aliasing-oscillatory", "aliasing-rademacher", "aliasing-spike",
         "missing-table", "nan-table", "nan-amplitude"],
)
def test_pool_raises_the_errors_generate_raises(grid, spec, horizon):
    seq = VectorSequenceSpec([SequenceSpec(kind="constant"), spec])
    with pytest.raises(InvalidArgumentError) as info:
        member_pool(seq, grid, horizon)
    assert str(info.value) == _first_error(spec, grid, horizon)


def test_pool_probe_matches_per_member_reference():
    grid2 = build_uniform_grid([[0.0, 1.0], [0.0, 2.0]], [256, 16])
    seq = VectorSequenceSpec([
        SequenceSpec(kind="oscillatory", base=1.0),
        SequenceSpec(kind="rademacher", amplitude=0.5),
    ])
    x2 = grid2.nodes[:, 1]
    limit = VectorField([ScalarField(grid2, 0.1 * x2), ScalarField(grid2, np.cos(x2))])
    dictionary = default_probe_dictionary(grid2)
    report = weak_probe(seq, limit, 2.0, dictionary, 24)
    reference = np.zeros(24)
    for i in range(1, 25):
        for j, comp in enumerate(seq.components):
            diff = generate(comp, i, grid2) - limit.components[j]
            for v in dictionary:
                reference[i - 1] = max(reference[i - 1], abs(dual_pairing(diff, v)))
    assert np.allclose(report.residuals, reference, rtol=1e-12, atol=0.0)


def _count_pools(monkeypatch):
    builds = []
    signs = []
    real_pool = gallery.member_pool
    real_sign = gallery._dyadic_sign

    def counting_pool(*args, **kwargs):
        signs.append(0)
        builds.append(args)
        return real_pool(*args, **kwargs)

    def counting_sign(*args, **kwargs):
        signs[-1] += 1
        return real_sign(*args, **kwargs)

    for module in (gallery, extraction, convexity):
        if hasattr(module, "member_pool"):
            monkeypatch.setattr(module, "member_pool", counting_pool)
    monkeypatch.setattr(gallery, "_dyadic_sign", counting_sign)
    return builds, signs


def test_each_entry_point_builds_one_pool(grid, monkeypatch):
    osc = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    rad = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    f = ConvexFunctionSpec(kind="squared_norm")
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
    full = RegionMask.full(grid)
    dictionary = default_probe_dictionary(grid)
    one = ScalarField.constant(grid, 1.0)  # pairs to zero with every oscillatory member
    calls = [
        lambda: gallery.weak_probe(osc, _zero_limit(grid), 2.0, dictionary, 16),
        lambda: gallery.weak_star_probe(rad, _zero_limit(grid), dictionary, 48),
        lambda: extraction.banach_saks_extract(osc, 2.0, grid, 16),
        lambda: extraction.szlenk_extract(rad, grid, 3, 48),
        lambda: convexity.liminf_verify(osc, _zero_limit(grid), f, K, full, 2.0, 32, [one]),
        lambda: convexity.weak_star_verify(rad, _zero_limit(grid), f, K, full, 48, [0.5, 2.0]),
        lambda: convexity.mazur_scenario_verify(rad, _zero_limit(grid), f, K, full, 48),
    ]
    max_level = _max_dyadic_level(256, 1.0)
    for call in calls:
        builds, signs = _count_pools(monkeypatch)
        call()
        assert len(builds) == 1
        assert signs[0] <= max_level
        monkeypatch.undo()


def test_pool_budget_refuses_before_allocating(monkeypatch):
    # 2048 members on 65 536 nodes would take 1 GiB
    big = build_uniform_grid([[0.0, 1.0]], 65536)
    seq = VectorSequenceSpec([SequenceSpec(kind="constant", value=1.0)])

    def no_generation(*args, **kwargs):
        raise AssertionError("a member was generated before the budget check")

    monkeypatch.setattr(gallery, "generate", no_generation)
    with pytest.raises(PoolBudgetError) as info:
        member_pool(seq, big, 2048)
    err = info.value
    assert (err.horizon, err.m, err.node_count) == (2048, 1, 65536)
    assert err.requested_bytes == 2048 * 65536 * 8
    assert err.budget_bytes == gallery.POOL_BUDGET_BYTES
    assert "2048" in str(err) and "65536" in str(err)


def test_pool_budget_bounds():
    # above the largest bundled benchmark pool (256 members on 65 536 nodes),
    # below a 512 x 512 grid at horizon 256 with two components
    assert gallery.POOL_BUDGET_BYTES >= 256 * 65536 * 8
    assert gallery.POOL_BUDGET_BYTES < 256 * 2 * 512 * 512 * 8
