import gc
import importlib.util
import json
import os
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

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
from lplab.cli import build_config, main, run_scenario
from lplab.gallery import _max_dyadic_level
from lplab.norms import _lp_norms


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


@pytest.mark.parametrize("horizon", [1, 2, 3, 5, 9, 17])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_member_norms_bitwise_equal_to_whole_pool_contraction(p, m, horizon):
    # Past 8192 nodes numpy's einsum sums a lone row in another order than a
    # stack of rows; the norm decides whether the pool is rescaled.
    rng = np.random.default_rng(7)
    n = 3 * 8192 + 5
    pool = rng.standard_normal((horizon, m, n)) * 1.7
    w = rng.uniform(0.5, 1.5, n) / n
    if p == 1.0:
        expected = np.einsum("n,ijn->i", w, np.abs(pool))
    else:
        powered = np.abs(pool)
        powered **= p
        expected = np.einsum("n,ijn->i", w, powered) ** (1.0 / p)
    assert np.array_equal(_lp_norms(pool, w, p), expected)


def _scenario(**overrides):
    raw = {
        "name": "shared",
        "grid": {"dimension": 1, "box": [[0.0, 1.0]], "resolution": [512]},
        "p": 2.0,
        "sequence": [{"kind": "oscillatory"}],
        "limit": [{"kind": "constant"}],
        "horizon": 32,
        "extraction": "p>1",
    }
    raw.update(overrides)
    return build_config(raw)


_SQUARED_IN_BOX = {
    "kind": "squared_norm", "K": {"kind": "box", "params": {"bounds": [[-1.0, 1.0]]}},
}

_ROUTE_SCENARIOS = {
    # 32 members on 512 nodes are too few for the probe to call it converging
    "p>1 extract": dict(expect={"probe_verdict": "inconclusive"}),
    "p=1 extract and liminf": dict(
        p=1.0, sequence=[{"kind": "rademacher"}], horizon=48, extraction="p=1",
        levels=3, f=_SQUARED_IN_BOX,
    ),
    "weak*": dict(
        p="infinity", sequence=[{"kind": "rademacher"}], horizon=48, extraction="none",
        R_schedule=[0.5, 2.0], f=_SQUARED_IN_BOX,
    ),
    "closed K": dict(
        p="infinity", sequence=[{"kind": "rademacher"}], horizon=48, extraction="none",
        f=_SQUARED_IN_BOX,
    ),
}


def _count_builds(monkeypatch):
    built = []
    real_build = gallery._build_pool

    def counting_build(*args):
        pool = real_build(*args)
        built.append(weakref.ref(pool))
        return pool

    monkeypatch.setattr(gallery, "_build_pool", counting_build)
    return built


@pytest.mark.parametrize("route", sorted(_ROUTE_SCENARIOS))
def test_run_scenario_builds_one_pool_for_all_phases(route, tmp_path, monkeypatch):
    cfg = _scenario(**_ROUTE_SCENARIOS[route])
    built = _count_builds(monkeypatch)
    manifest = run_scenario(cfg, output_dir=tmp_path)
    assert manifest.passed
    # the probe and at least one later phase read the pool
    assert len([p for p in manifest.phases if p["name"] in ("probe", "extraction", "liminf")]) >= 2
    assert len(built) == 1
    # the run's scope is closed and nothing else holds the pool
    assert gallery._POOLS.get() is None
    gc.collect()
    assert built[0]() is None


def test_library_calls_outside_a_run_build_their_own_pools(grid, monkeypatch):
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    built = _count_builds(monkeypatch)
    first = extraction.banach_saks_extract(seq, 2.0, grid, 16)
    second = extraction.banach_saks_extract(seq, 2.0, grid, 16)
    assert len(built) == 2
    assert first.indices == second.indices


def test_a_failed_build_is_not_shared(tmp_path, monkeypatch, capsys):
    # The table lacks index 5.  The command line refuses it as a configuration
    # error before any phase; inside a run's scope every call tries the build
    # again and raises again.
    table = {str(i): [0.5 * (-1) ** i] * 64 for i in range(1, 9) if i != 5}
    raw = {
        "name": "gap",
        "grid": {"dimension": 1, "box": [[0.0, 1.0]], "resolution": [64]},
        "p": 2.0,
        "sequence": [{"kind": "custom", "params": {"table": table}}],
        "limit": [{"kind": "constant"}],
        "horizon": 8,
        "extraction": "p>1",
        "f": {"kind": "squared_norm"},
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(raw))
    attempts = []
    real_build = gallery._build_pool
    monkeypatch.setattr(gallery, "_build_pool", lambda *a: attempts.append(a) or real_build(*a))
    for command in ("probe", "extract", "liminf", "run"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--output-dir", str(out)]) == 2
        assert "no entry for index 5" in capsys.readouterr().err
        assert not out.exists()
    assert attempts == []

    grid = build_uniform_grid([[0.0, 1.0]], 64)
    gapped = {i: np.full(64, 0.5) for i in range(1, 9) if i != 5}
    seq = VectorSequenceSpec([SequenceSpec(kind="custom", table=gapped)])
    with gallery._shared_pools():
        for _ in range(2):
            with pytest.raises(InvalidArgumentError, match="no entry for index 5"):
                member_pool(seq, grid, 8)
    assert len(attempts) == 2


def _cpus(monkeypatch, count):
    """Make the process see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _count_threads(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def counting_start(self):
        started.append(self)
        return real_start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@pytest.mark.parametrize("max_level", range(1, 11))
def test_walsh_masks_list_every_index_mask(max_level):
    patterns = (1 << max_level) - 1
    masks = gallery._walsh_masks(patterns + 3, max_level)
    assert masks == [gallery._walsh_mask(i, max_level) for i in range(1, patterns + 1)]
    assert gallery._walsh_masks(max_level + 2, max_level) == masks[: max_level + 2]


@pytest.mark.parametrize(
    "kinds, horizon, failing",
    [
        (["oscillatory"], 40, 0),  # indices past 32 fail in the upper half only
        (["oscillatory"], 80, 0),  # and in both halves
        (["oscillatory-slow", "rademacher"], 64, 1),  # index 64 is past the 63 patterns
        (["oscillatory-slow", "rademacher"], 200, 1),  # before index 129 of component 0
        (["oscillatory", "rademacher"], 200, 0),  # index 33 before index 64
    ],
)
def test_split_fill_raises_the_serial_error(grid, monkeypatch, kinds, horizon, failing):
    specs = {
        "oscillatory": SequenceSpec(kind="oscillatory"),
        "oscillatory-slow": SequenceSpec(kind="oscillatory", base=0.25),
        "rademacher": SequenceSpec(kind="rademacher", amplitude=-2.0),
    }
    seq = VectorSequenceSpec([specs[k] for k in kinds])
    messages = []
    for count in (1, 2):
        _cpus(monkeypatch, count)
        started = _count_threads(monkeypatch)
        with pytest.raises(InvalidArgumentError) as info:
            member_pool(seq, grid, horizon)
        messages.append(str(info.value))
        assert len(started) == count - 1
        assert not any(t.is_alive() for t in started)
        monkeypatch.undo()
    assert messages == [_first_error(seq.components[failing], grid, horizon)] * 2


def test_pool_with_a_spike_generates_on_the_calling_thread_only(grid, monkeypatch):
    # generate is a public entry point; the bench wraps it with a span stack
    # that is not thread-safe.
    _cpus(monkeypatch, 2)
    started = _count_threads(monkeypatch)
    threads = []
    real_generate = gallery.generate

    def recording_generate(*args):
        threads.append(threading.current_thread())
        return real_generate(*args)

    monkeypatch.setattr(gallery, "generate", recording_generate)
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory"), SequenceSpec(kind="spike")])
    pool = member_pool(seq, grid, 24)
    assert started == []
    assert len(threads) == 24
    assert all(t is threading.main_thread() for t in threads)
    for i in range(1, 25):
        assert np.array_equal(pool[i - 1, 1], real_generate(seq.components[1], i, grid).samples)


def test_rademacher_pool_fills_on_the_calling_thread(grid, monkeypatch):
    _cpus(monkeypatch, 2)
    started = _count_threads(monkeypatch)
    member_pool(VectorSequenceSpec([SequenceSpec(kind="rademacher")]), grid, 40)
    assert started == []


def test_one_cpu_fills_without_threads_to_the_same_bits(monkeypatch):
    grid2 = build_uniform_grid([[0.0, 1.0], [0.0, 1.0]], [256, 32])
    seq = VectorSequenceSpec([
        SequenceSpec(kind="oscillatory", amplitude=1.5),
        SequenceSpec(kind="rademacher", amplitude=-0.5),
    ])
    pools = []
    for count in (2, 1):
        _cpus(monkeypatch, count)
        started = _count_threads(monkeypatch)
        pools.append(member_pool(seq, grid2, 31))
        assert len(started) == count - 1
        monkeypatch.undo()
    assert np.array_equal(pools[0], pools[1])


def test_concurrent_split_builds_keep_their_bits(monkeypatch):
    # Four callers, each splitting its fill, with a short switch interval: a
    # row written by the wrong half would change the bits.
    grid2 = build_uniform_grid([[0.0, 1.0], [0.0, 1.0]], [128, 16])
    seq = VectorSequenceSpec([
        SequenceSpec(kind="oscillatory", amplitude=1.5),
        SequenceSpec(kind="rademacher", amplitude=-0.5),
    ])

    _cpus(monkeypatch, 1)
    expected = gallery._build_pool(seq, grid2, 15)
    _cpus(monkeypatch, 2)
    mismatches = []

    def caller():
        for _ in range(5):
            pool = gallery._build_pool(seq, grid2, 15)
            if not np.array_equal(pool, expected):
                mismatches.append(pool)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert mismatches == []


@pytest.mark.parametrize("p", [1.0, 2.0, 6.0])
@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
def test_member_norms_rescale_rows_past_the_float_range(p, scale):
    # 1e-310 is subnormal itself, so its samples keep about 13 digits.
    rng = np.random.default_rng(3)
    n = 64
    unit = rng.uniform(-1.0, 1.0, (3, 2, n))
    unit[1] = 0.0
    w = np.full(n, 1.0 / n)
    expected = _lp_norms(unit, w, p)
    norms = _lp_norms(unit * scale, w, p)
    assert norms == pytest.approx(expected * scale, rel=1e-12, abs=0.0)
    assert norms[1] == 0.0


@pytest.mark.parametrize("route", ["banach_saks", "szlenk"])
def test_selections_read_a_rescaled_pool_without_a_pool_sized_temporary(route):
    # Amplitude 2 gives member norms sqrt(2) (p = 2) and 4/pi (p = 1), over 1.
    grid = build_uniform_grid([[0.0, 1.0]], 4096)
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory", amplitude=2.0)])
    with gallery._shared_pools():
        pool = member_pool(seq, grid, 32)
        tracemalloc.start()
        try:
            if route == "banach_saks":
                trace = extraction.banach_saks_extract(seq, 2.0, grid, 32)
            else:
                trace = extraction.szlenk_extract(seq, grid, 2, 32)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert trace.normalization > 1.0
    assert trace.member_norm_sup <= 1.0
    assert peak < pool.nbytes


def test_bench_spans_stay_balanced_over_the_bundled_scenarios(tmp_path):
    # The bench's recorder keeps one span stack for the process: a pool or
    # norm thread calling a wrapped entry point would leave it unbalanced.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from lplab import cli

    recorder = spans.Recorder()
    recorder.install()
    snapshots = []
    try:
        for run in range(2):
            for entry in cli._bundled_scenarios():
                cfg = cli.build_config(json.loads(entry.read_text()))
                cli.run_scenario(cfg, output_dir=tmp_path / str(run))
            snapshots.append((dict(recorder.calls), dict(recorder.counts)))
    finally:
        recorder.uninstall()
    assert recorder.restored()
    assert recorder._stack == []
    (calls1, counts1), (calls2, counts2) = snapshots
    assert calls1 and counts1
    assert {k: v - calls1.get(k, 0) for k, v in calls2.items()} == calls1
    assert {k: v - counts1.get(k, 0) for k, v in counts2.items()} == counts1
