import dataclasses
import gc
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from lplab import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    InvalidArgumentError,
    PoolBudgetError,
    PreconditionViolationError,
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
    szlenk_extract,
    truncate_region,
    weak_probe,
    weak_star_verify,
)
from lplab import cli, convexity, extraction, gallery
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
    assert _max_dyadic_level(256) == 6
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


def _first_error(specs, grid, horizon) -> str:
    """generate's first refusal among specs' members 1..horizon, in (i, j) order."""
    for i in range(1, horizon + 1):
        for spec in specs:
            try:
                generate(spec, i, grid)
            except InvalidArgumentError as err:
                return str(err)
    raise AssertionError("every index generated")


_REFUSALS = [
    (SequenceSpec(kind="oscillatory"), 40, "aliasing-oscillatory"),  # 256 nodes resolve 32 cycles
    (SequenceSpec(kind="rademacher"), 64, "aliasing-rademacher"),  # 6 levels give 63 patterns
    (SequenceSpec(kind="spike"), 257, "aliasing-spike"),
    (SequenceSpec(kind="custom", table={1: np.ones(256), 2: np.ones(256)}), 8, "missing-table"),
    (SequenceSpec(kind="custom", table={1: np.full(256, np.nan)}), 8, "nan-table"),
    (SequenceSpec(kind="rademacher", amplitude=np.nan), 8, "nan-amplitude"),
    # the custom guard refuses a product that overflows, before writing it
    (SequenceSpec(kind="custom", amplitude=1e300, table={1: np.full(256, 1e10)}), 8,
     "overflowing-custom"),
    (SequenceSpec(kind="custom", amplitude=0.0, table={1: np.full(256, np.inf)}), 8,
     "zero-times-inf-custom"),
    # a custom table's gap at index 5 comes before the Rademacher refusal at 64,
    # which alone sends the check to every guard at every index
    ((SequenceSpec(kind="custom", table={i: np.ones(256) for i in range(1, 65) if i != 5}),
      SequenceSpec(kind="rademacher")), 64, "custom-gap-before-rademacher"),
    # a custom pool is refused at its first bad entry: a short row at 6, not the gap at 9
    (SequenceSpec(kind="custom", table={
        i: np.ones(255 if i == 6 else 256) for i in range(1, 17) if i != 9
    }), 16, "custom-first-bad-entry"),
]


@pytest.mark.parametrize(
    "spec, horizon, cpus",
    [(spec, horizon, 1) for spec, horizon, _ in _REFUSALS]
    + [(spec, horizon, 2) for spec, horizon, _ in _REFUSALS],
    ids=[name for *_, name in _REFUSALS] + [f"{name}-on-2-cpus" for *_, name in _REFUSALS],
)
def test_pool_raises_the_errors_generate_raises(grid, monkeypatch, spec, horizon, cpus):
    _cpus(monkeypatch, cpus)
    specs = [SequenceSpec(kind="constant"), *(spec if isinstance(spec, tuple) else [spec])]
    with pytest.raises(InvalidArgumentError) as info:
        member_pool(VectorSequenceSpec(specs), grid, horizon)
    assert str(info.value) == _first_error(specs, grid, horizon)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("kind, horizon", [("oscillatory", 600), ("rademacher", 1100)])
def test_a_refused_pool_allocates_and_fills_nothing(monkeypatch, kind, horizon, cpus):
    # 4 096 nodes resolve 512 cycles and 1 023 sign patterns; the full pools
    # would take 18.8 and 34.4 MiB.
    grid = build_uniform_grid([[0.0, 1.0]], 4096)
    _cpus(monkeypatch, cpus)
    started = _count_threads(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError, match="out of range$|refusing index 513$"):
            member_pool(VectorSequenceSpec([SequenceSpec(kind=kind)]), grid, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert started == []


def _counting_guards(monkeypatch):
    """(kind, i) of every guard call a pool build makes, through _kind_rows' check."""
    calls = []
    real_rows = gallery._kind_rows

    def counting_rows(spec, grid, indices):
        check, write = real_rows(spec, grid, indices)

        def counted(i):
            calls.append((spec.kind, i))
            return check(i)

        return counted, write

    monkeypatch.setattr(gallery, "_kind_rows", counting_rows)
    return calls


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_pool_that_no_guard_refuses_runs_each_guard_once(grid, monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    calls = _counting_guards(monkeypatch)
    kinds = ("oscillatory", "rademacher")
    seq = VectorSequenceSpec([SequenceSpec(kind=kind) for kind in kinds])
    pool = member_pool(seq, grid, 32)
    assert calls == [(kind, 32) for kind in kinds]
    for i in range(1, 33):
        for j, comp in enumerate(seq.components):
            assert np.array_equal(pool[i - 1, j], generate(comp, i, grid).samples), (i, j)
    # A refused horizon sends every row through its guard before it is written.
    calls.clear()
    with pytest.raises(InvalidArgumentError, match="refusing index 33$"):
        member_pool(seq, grid, 40)
    assert calls[0] == ("oscillatory", 40)
    if cpus == 1:
        rows = [(kind, i) for i in range(1, 33) for kind in kinds]
        assert calls[1:] == rows + [("oscillatory", 33)]


@pytest.mark.parametrize("cpus, mid", [(1, 63), (2, 31)])
def test_each_fill_half_lets_its_writes_read_only_its_own_rows(grid, monkeypatch, cpus, mid):
    # A write may read the rows written since its `first` (the Walsh
    # predecessor rule), so each half must pass its own first row: the other
    # half's rows may not be written yet.
    _cpus(monkeypatch, cpus)
    firsts = []
    real_rows = gallery._kind_rows

    def recording_rows(spec, grid, indices):
        check, write = real_rows(spec, grid, indices)

        def recording_write(rows, i, first):
            firsts.append((i, first))
            write(rows, i, first)

        return check, recording_write

    monkeypatch.setattr(gallery, "_kind_rows", recording_rows)
    member_pool(VectorSequenceSpec([SequenceSpec(kind="rademacher")]), grid, 63)
    assert sorted(firsts) == [(i, 1 if i <= mid else mid + 1) for i in range(1, 64)]


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


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.parametrize("horizon", [9, 33])
@pytest.mark.parametrize("fields", ["default", "one-field"])
@pytest.mark.parametrize("centre", ["zero", "nonzero"])
@pytest.mark.parametrize("m", [1, 2])
def test_probe_residuals_are_bitwise_equal_on_one_and_two_cpus(
    monkeypatch, m, centre, fields, horizon
):
    # Past 8192 nodes einsum sums a lone one-field row in another order than a
    # stack; each half of a probe holds at least 4 rows.
    grid16k = build_uniform_grid([[0.0, 1.0]], 16384)
    x = grid16k.nodes[:, 0]
    seq = VectorSequenceSpec([
        SequenceSpec(kind="oscillatory", amplitude=1.5),
        SequenceSpec(kind="rademacher", amplitude=-0.5),
    ][:m])
    if centre == "zero":
        limit = _zero_limit(grid16k, m)
    else:
        limit = VectorField([ScalarField(grid16k, 0.1 * x), ScalarField(grid16k, np.cos(x))][:m])
    if fields == "default":
        dictionary = default_probe_dictionary(grid16k)
    else:
        dictionary = [ScalarField(grid16k, x.copy())]
    reports = []
    for count in (1, 2):
        _cpus(monkeypatch, count)
        started = _count_threads(monkeypatch)
        reports.append(weak_probe(seq, limit, 2.0, dictionary, horizon))
        assert len(started) == 2 * (count - 1)  # the fill's and the probe's
        assert not any(t.is_alive() for t in started)
        monkeypatch.undo()
    assert _bits(reports[0]) == _bits(reports[1])
    # The two halves equal one contraction over the whole stack.
    _cpus(monkeypatch, 2)
    pool = member_pool(seq, grid16k, horizon)
    weighted = np.stack([v.samples for v in dictionary]) * grid16k.weights
    whole = [
        np.einsum("in,dn->id", gallery._centred(pool[:, j], lim.samples), weighted)
        for j, lim in enumerate(limit.components)
    ]
    assert np.array_equal(gallery._probe_pairings(pool, limit, weighted), np.array(whole))


_SPIN_RUN = """
import resource, time
from lplab import *

def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime

time.sleep(0.3)  # OpenBLAS also spins for a while right after numpy is imported
grid = build_uniform_grid([[0.0, 1.0]], 65536)
seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
limit = VectorField([ScalarField.constant(grid, 0.0)])
weak_probe(seq, limit, 2.0, default_probe_dictionary(grid), 32)
before = cpu_seconds()
time.sleep(0.2)
print(cpu_seconds() - before)
"""


@pytest.mark.skipif(_usable_cpus() < 2, reason="a BLAS worker spins only beside another CPU")
def test_no_worker_keeps_spinning_after_a_probe():
    # A threaded BLAS matmul over this pool leaves an OpenBLAS worker
    # busy-waiting for about 0.1 s of CPU after it returns.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", _SPIN_RUN], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert float(done.stdout) < 0.02


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
    max_level = _max_dyadic_level(256)
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
    # stack of rows; the norm decides whether the pool is rescaled.  The
    # centred case is the one the liminf replay reads.
    rng = np.random.default_rng(7)
    n = 3 * 8192 + 5
    pool = rng.standard_normal((horizon, m, n)) * 1.7
    w = rng.uniform(0.5, 1.5, n) / n
    for centre in (None, rng.standard_normal((m, n)) * 0.5):
        powered = np.abs(pool if centre is None else pool - centre)
        if p == 1.0:
            expected = np.einsum("n,ijn->i", w, powered)
        else:
            powered **= p
            expected = np.einsum("n,ijn->i", w, powered) ** (1.0 / p)
        assert np.array_equal(_lp_norms(pool, w, p, centre), expected)


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
    assert gallery._MEMO.get() is None
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


def test_equal_but_distinct_specs_build_their_own_pools(grid, monkeypatch):
    # Specs match by identity.  The memo keeps each temporary alive, so its
    # id cannot be reused by the next one while the scope lasts.
    built = _count_builds(monkeypatch)
    with gallery._shared_pools():
        for _ in range(3):
            member_pool(VectorSequenceSpec([SequenceSpec(kind="oscillatory")]), grid, 16)
        assert all(ref() is not None for ref in built)
    assert len(built) == 3


def test_a_scope_builds_the_default_dictionary_once_per_grid(grid):
    with gallery._shared_pools():
        assert default_probe_dictionary(grid) is default_probe_dictionary(grid)
    assert default_probe_dictionary(grid) is not default_probe_dictionary(grid)


def test_a_worker_thread_computes_without_storing(monkeypatch):
    _cpus(monkeypatch, 2)
    computed = []

    def work(lo, hi):
        for _ in range(2):
            gallery._shared(lambda: computed.append(lo) or lo, "half", lo)

    with gallery._shared_pools():
        gallery._halves([1, 1], work)
        # The calling thread stored its half; the worker stored nothing.
        assert gallery._shared(lambda: "again", "half", 0) == 0
        assert gallery._shared(lambda: "again", "half", 1) == "again"
    assert sorted(computed) == [0, 1, 1]


def test_a_run_that_raises_closes_its_scope_and_frees_its_pool(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)

    def failing_pairings(*args):
        raise RuntimeError("pairing failed")

    monkeypatch.setattr(gallery, "_probe_pairings", failing_pairings)
    try:
        run_scenario(_scenario(), output_dir=tmp_path)
    except RuntimeError as err:
        assert str(err) == "pairing failed"
    else:
        pytest.fail("the run did not raise")
    assert len(built) == 1
    assert gallery._MEMO.get() is None
    gc.collect()
    assert built[0]() is None


def test_the_package_holds_one_context_variable():
    # The run memo is the one run-scope cache; another would need its own.
    import ast

    calls = 0
    for path in sorted(Path(gallery.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls += name == "ContextVar"
    assert calls == 1


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


def _walsh_mask(i, max_level):
    """Mask of index i by the per-index rule: the single levels, then every other mask in order."""
    if i <= max_level:
        return 1 << (i - 1)
    return [t for t in range(3, 1 << max_level) if t & (t - 1)][i - max_level - 1]


@pytest.mark.parametrize("max_level", range(1, 11))
def test_walsh_masks_list_every_index_mask(max_level):
    patterns = (1 << max_level) - 1
    masks = gallery._walsh_masks(patterns + 3, max_level)
    assert masks == [_walsh_mask(i, max_level) for i in range(1, patterns + 1)]
    assert gallery._walsh_masks(max_level + 2, max_level) == masks[: max_level + 2]


def test_generate_computes_only_the_sign_rows_of_its_mask(grid, monkeypatch):
    levels = []
    real_sign = gallery._dyadic_sign

    def recording_sign(x, level):
        levels.append(level)
        return real_sign(x, level)

    monkeypatch.setattr(gallery, "_dyadic_sign", recording_sign)
    spec = SequenceSpec(kind="rademacher")
    for i in (1, 6, 7, 48, 63):
        levels.clear()
        generate(spec, i, grid)
        mask = _walsh_mask(i, 6)
        assert levels == [lv for lv in range(1, 7) if mask >> (lv - 1) & 1], i


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
    _assert_serial_error(monkeypatch, seq, grid, horizon, failing)


def test_split_fill_raises_an_earlier_error_on_a_grid_with_no_sign_pattern(monkeypatch):
    # 4 nodes resolve no sign pattern, but index 1 of the table fails first.
    grid = build_uniform_grid([[0.0, 1.0]], 4)
    seq = VectorSequenceSpec([
        SequenceSpec(kind="oscillatory", base=0.25),
        SequenceSpec(kind="custom", table={2: np.ones(4)}),
        SequenceSpec(kind="rademacher"),
    ])
    _assert_serial_error(monkeypatch, seq, grid, 2, 1)


def _assert_serial_error(monkeypatch, seq, grid, horizon, failing):
    """On 1 and 2 CPUs the pool raises the first error of component `failing` generate raises.

    The refusal comes before the fill, so no fill thread starts.
    """
    messages = []
    for count in (1, 2):
        _cpus(monkeypatch, count)
        started = _count_threads(monkeypatch)
        with pytest.raises(InvalidArgumentError) as info:
            member_pool(seq, grid, horizon)
        messages.append(str(info.value))
        assert started == []
        monkeypatch.undo()
    assert messages == [_first_error([seq.components[failing]], grid, horizon)] * 2


def test_pool_never_calls_generate(grid, monkeypatch):
    seq = VectorSequenceSpec(_every_kind(grid))
    expected = [[generate(comp, i, grid).samples for comp in seq.components] for i in range(1, 41)]

    def refuse(*args):
        raise AssertionError("the pool fill called generate")

    monkeypatch.setattr(gallery, "generate", refuse)
    assert np.array_equal(member_pool(seq, grid, 40), np.array(expected))


@pytest.mark.parametrize(
    "kinds", [["oscillatory", "spike"], ["oscillatory", "constant", "custom"]], ids="+".join
)
def test_mixed_pool_fills_on_two_threads_to_the_one_cpu_bits(grid, monkeypatch, kinds):
    specs = {spec.kind: spec for spec in _every_kind(grid)}
    seq = VectorSequenceSpec([specs[k] for k in kinds])
    pools = []
    for count in (1, 2):
        _cpus(monkeypatch, count)
        started = _count_threads(monkeypatch)
        pools.append(member_pool(seq, grid, 24))
        assert len(started) == count - 1
        monkeypatch.undo()
    assert np.array_equal(pools[0], pools[1])


def test_rademacher_pool_fills_on_two_threads_to_the_one_cpu_bits(grid, monkeypatch):
    # A pool of sign products alone splits too: the page faults of a fresh
    # pool are shared by both threads.
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher", amplitude=-0.5)])
    pools = []
    for count in (2, 1):
        _cpus(monkeypatch, count)
        started = _count_threads(monkeypatch)
        pools.append(member_pool(seq, grid, 40))
        assert len(started) == count - 1
        assert not any(t.is_alive() for t in started)
        monkeypatch.undo()
    assert np.array_equal(pools[0], pools[1])


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
        SequenceSpec(kind="spike", amplitude=2.0),
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


@pytest.mark.parametrize("region", ["full", "ball"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("m", [1, 2])
def test_replay_centres_members_on_read_without_a_pool_sized_copy(m, p, region):
    grid = build_uniform_grid([[0.0, 1.0]], 4096)
    x = grid.nodes[:, 0]
    kinds = ["oscillatory", "rademacher"][:m]
    seq = VectorSequenceSpec([SequenceSpec(kind=kind) for kind in kinds])
    limit = VectorField(
        [ScalarField(grid, 0.4 + 0.3 * (j + 1) * np.cos(2.0 * np.pi * x)) for j in range(m)]
    )
    pool = member_pool(seq, grid, 64) + limit.matrix()
    mask = RegionMask.full(grid)
    if region == "ball":
        mask = truncate_region(mask, 0.6)
    nodes = None if mask.included.all() else np.flatnonzero(mask.included)
    tracemalloc.start()
    try:
        trace = convexity._replay_trace(pool, nodes, limit, mask, p, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace is not None
    assert peak < 0.5 * pool.nbytes


@pytest.mark.parametrize("m", [1, 2])
def test_liminf_on_a_half_grid_region_reads_rows_without_a_region_copy(m):
    # A copy of the pool at the region's nodes would be 0.5 x the pool; the
    # scratch rows of the replay and of the integral loop are a few rows each.
    grid = build_uniform_grid([[0.0, 1.0]], 4096)
    seq = VectorSequenceSpec(
        [SequenceSpec(kind=kind) for kind in ["rademacher", "oscillatory"][:m]]
    )
    limit = VectorField([ScalarField(grid, np.zeros(grid.node_count)) for _ in range(m)])
    f = ConvexFunctionSpec(kind="squared_norm")
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
    region = RegionMask(grid, grid.nodes[:, 0] < 0.5)
    pool = member_pool(seq, grid, 64)
    tracemalloc.start()
    try:
        report = convexity._verify_on_region(pool, limit, f, K, region, None, 1.0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.replay is not None and len(report.replay.indices) >= 8
    assert peak < 0.25 * pool.nbytes


@pytest.mark.parametrize("radius", [None, 2.0])
def test_a_region_covering_the_grid_reads_the_pool_without_a_gather(radius):
    # R = 2 covers [0, 1] as the full region does; a gather would copy the pool.
    grid = build_uniform_grid([[0.0, 1.0]], 4096)
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    limit = VectorField([ScalarField(grid, np.zeros(grid.node_count))])
    f = ConvexFunctionSpec(kind="squared_norm")
    K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
    region = RegionMask.full(grid)
    if radius is not None:
        region = truncate_region(region, radius)
    assert region.included.all()
    pool = member_pool(seq, grid, 64)
    tracemalloc.start()
    try:
        report = convexity._verify_on_region(pool, limit, f, K, region, None, 1.0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.replay is not None and report.replay.indices
    assert peak < 0.5 * pool.nbytes


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


def _perfbench(module: str):
    """A module of the bench, loaded from its file; perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{module}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{module}", path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def test_bench_spans_stay_balanced_over_the_bundled_scenarios(tmp_path):
    # The bench's recorder keeps one span stack for the process: a pool or
    # norm thread calling a wrapped entry point would leave it unbalanced.
    spans = _perfbench("spans")
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


def test_bench_spans_stay_balanced_over_a_split_mixed_pool(grid, monkeypatch):
    # Neither a spike row written on the fill's second thread nor a pairing
    # made on the probe's may enter a span.
    spans = _perfbench("spans")
    _cpus(monkeypatch, 2)
    started = _count_threads(monkeypatch)
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory"), SequenceSpec(kind="spike")])
    recorder = spans.Recorder()
    recorder.install()
    try:
        gallery.weak_probe(seq, _zero_limit(grid, 2), 2.0, default_probe_dictionary(grid), 24)
    finally:
        recorder.uninstall()
    assert len(started) == 2  # the fill's and the probe's
    assert recorder.restored()
    assert recorder._stack == []
    assert recorder.calls == {"gallery.probe": 1}


@pytest.mark.parametrize(
    "workload, variant",
    [
        pytest.param("suite", 0, id="suite"),
        pytest.param("extract-p2-64k", 0, id="extract-p2-64k"),
        *(pytest.param("extract-p2-64k", v, id=f"extract-p2-64k-{v}") for v in (1, 2, 3)),
        pytest.param("weakstar-2d", 0, id="weakstar-2d"),
        *(pytest.param("weakstar-2d", v, id=f"weakstar-2d-{v}") for v in (1, 2, 3)),
    ],
)
def test_bench_workloads_match_their_recorded_references(tmp_path, workload, variant):
    # Run in this process and compared by the bench's own equivalence rule.
    # Every p = 2 variant runs: amplitude -1 sends negative members through
    # the walk's p = 2 identities.  Every weak* variant runs too: ball K and
    # amplitude -1 reach the level scans and the truncations.
    workloads, check = _perfbench("workloads"), _perfbench("check")
    config = workloads.scenario_config(workload, variant)
    if config is None:
        seed = workloads.lplab_seed(workload, variant)
        code = main(["suite", "--output-dir", str(tmp_path), "--seed", str(seed)])
    else:
        code = 0 if run_scenario(build_config(config), output_dir=tmp_path).passed else 1
    reference = check.load_reference(Path(__file__).resolve().parents[1], workload, variant)
    assert check.mismatches(code, check.read_outputs(tmp_path), reference) == []


@pytest.mark.parametrize(
    "costs, mid",
    [([12867, 51473, 65536], 2), *(([1] * n, n // 2) for n in (2, 3, 4, 5, 48))],
)
def test_halves_splits_where_the_cumulative_cost_crosses_half(monkeypatch, costs, mid):
    # The first costs are weakstar-2d's truncations at R = 0.5, 1 and 2.
    _cpus(monkeypatch, 2)
    calls = []
    gallery._halves(costs, lambda lo, hi: calls.append((lo, hi)))
    assert sorted(calls) == [(0, mid), (mid, len(costs))]


@pytest.mark.parametrize("failing, raised", [({0, 2}, 0), ({2}, 2)])
def test_halves_raises_the_lower_halfs_error_first(monkeypatch, failing, raised):
    # A worker thread's error is raised on the calling thread, not lost.
    _cpus(monkeypatch, 2)

    def work(lo, hi):
        if lo in failing:
            raise RuntimeError(lo)

    with pytest.raises(RuntimeError) as info:
        gallery._halves([1] * 4, work)
    assert info.value.args == (raised,)


def _bits(value):
    """value with every float and array replaced by its bits, for a bitwise comparison."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return value


def _weak_star_case(K_kind="box", m=1, bumps=None):
    """Rademacher families about a nonzero constant limit on a 256 x 4 grid, horizon 24.

    bumps maps a member index i to a radius: member i leaves K at the nodes
    of at least that norm.
    """
    grid2 = build_uniform_grid([[0.0, 1.0], [0.0, 1.0]], [256, 4])
    norms = np.linalg.norm(grid2.nodes, axis=1)
    rademacher = SequenceSpec(kind="rademacher")
    horizon = 24
    centres, amplitudes = [0.25, -0.5][:m], [0.5, 0.25][:m]

    def member(i, centre, amplitude):
        row = centre + amplitude * generate(rademacher, i, grid2).samples
        if bumps and i in bumps:
            row = row + 5.0 * (norms >= bumps[i])
        return row

    seq = VectorSequenceSpec([
        SequenceSpec(kind="custom", table={i: member(i, c, a) for i in range(1, horizon + 1)})
        for c, a in zip(centres, amplitudes)
    ])
    limit = VectorField([ScalarField.constant(grid2, c) for c in centres])
    if K_kind == "box":
        K = ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
    else:
        K = ConvexSetSpec(kind="ball", center=[0.0], radius=1.5)
    f = ConvexFunctionSpec(kind="squared_norm")
    return seq, limit, f, K, RegionMask.full(grid2), horizon


@pytest.mark.parametrize(
    "radii, distinct",
    [([0.5, 1.0, 2.0], 3), ([0.25, 0.5, 1.0, 2.0], 4), ([1.0], 1), ([0.5, 1.5, 2.0], 2)],
    ids=["3-radii", "4-radii", "1-radius", "twin-radii"],  # R = 1.5 and 2 hold every node
)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("K_kind", ["box", "ball"])
def test_weak_star_reports_are_bitwise_equal_on_one_and_two_cpus(
    monkeypatch, K_kind, m, radii, distinct
):
    case = _weak_star_case(K_kind, m)
    results = []
    for count in (1, 2):
        _cpus(monkeypatch, count)
        started = _count_threads(monkeypatch)
        results.append(weak_star_verify(*case, radii))
        # one thread each for the pool fill, the probe and the distinct truncations
        assert len(started) == (count - 1) * (3 if distinct > 1 else 2)
        assert len({id(r) for r in results[-1].reports}) == distinct
        assert not any(t.is_alive() for t in started)
        monkeypatch.undo()
    assert results[0].passed
    assert all(r.replay is not None for r in results[0].reports)
    assert _bits(results[0]) == _bits(results[1])


def _p1_pairings(pool, w, trace):
    """<sgn(s_(k-1)) w, u_k> at each pick of a p = 1 trace, recomputed from the pool."""
    s, pairings = np.zeros(pool.shape[1:]), [np.zeros(pool.shape[1])]
    for k, i in enumerate(trace.indices):
        u = pool[i - 1] / trace.normalization
        if k:
            pairings.append(np.einsum("jn,jn->j", np.sign(s) * w, u))
        s += u
    return np.stack(pairings)


def test_weak_star_replays_compute_no_p1_pairing_while_szlenk_traces_keep_theirs(monkeypatch):
    # The replay reads the picks and the Cesaro curve only; a selection of
    # the library's own keeps every pairing, bit for bit.
    grid2 = build_uniform_grid([[0.0, 1.0], [0.0, 1.0]], [256, 4])
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    limit = VectorField([ScalarField.constant(grid2, 0.0)])
    f, K = ConvexFunctionSpec(kind="squared_norm"), ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]])
    pairings = []
    real_phi_w = extraction._CesaroWalk.phi_w
    monkeypatch.setattr(
        extraction._CesaroWalk, "phi_w", lambda walk: pairings.append(walk.p) or real_phi_w(walk)
    )
    _cpus(monkeypatch, 2)
    result = weak_star_verify(seq, limit, f, K, RegionMask.full(grid2), 24, [0.5, 1.0, 2.0])
    assert result.passed and len({id(r) for r in result.reports}) == 3
    assert pairings == []
    trace = szlenk_extract(seq, grid2, 3, 24)[1]
    assert pairings == [1.0] * (trace.length - 1)
    expected = _p1_pairings(member_pool(seq, grid2, 24), grid2.weights, trace)
    assert _bits(trace.pairings) == _bits(expected)


def test_a6_weak_star_report_equals_one_verification_per_radius():
    # a6's R = 1 and R = 2 hold every node and share one verification; each
    # radius verified on its own truncation gives every bit of the report.
    entry = resources.files("lplab.scenarios").joinpath("a6-rademacher-weakstar.json")
    cfg = build_config(json.loads(entry.read_text()))
    args = (cfg.sequence, cfg.limit, cfg.f, cfg.K, cfg.region)
    result = weak_star_verify(*args, cfg.horizon, cfg.r_schedule, szlenk_levels=cfg.levels)
    pool, probe = convexity._converging_pool(*args, np.inf, cfg.horizon, None)
    expected = [
        convexity._verify_on_region(
            pool, cfg.limit, cfg.f, cfg.K, truncate_region(cfg.region, radius), probe, 1.0,
            cfg.levels,
        )
        for radius in cfg.r_schedule
    ]
    assert len({id(report) for report in result.reports}) == 2
    assert all(report.replay is not None for report in expected)
    assert _bits(result.reports) == _bits(expected)
    assert _bits(result.limit_integrals) == _bits([r.limit_integral for r in expected])
    assert result.radii == cfg.r_schedule and result.monotone and result.passed


@pytest.mark.parametrize(
    "bumps, member",
    [
        ({1: 1.0, 2: 0.5}, 2),  # K is left only outside Omega_0.5; R = 2 alone fails at member 1
        ({1: 1.0, 2: 0.5, 3: 0.0}, 3),  # K is left in every truncation, first at member 3 in R = 0.5
    ],
    ids=["outside-0.5", "every-truncation"],
)
def test_weak_star_raises_the_one_cpu_error_on_two_cpus(monkeypatch, bumps, member):
    # Two CPUs split [0.5, 1, 2] into {0.5, 1} and {2}, whose errors differ.
    case = _weak_star_case(bumps=bumps)
    errors = []
    for count in (1, 2):
        _cpus(monkeypatch, count)
        started = _count_threads(monkeypatch)
        with pytest.raises(PreconditionViolationError) as info:
            weak_star_verify(*case, [0.5, 1.0, 2.0])
        errors.append((type(info.value), str(info.value)))
        assert len(started) == 3 * (count - 1)  # the pool's, the probe's and the truncations'
        assert not any(t.is_alive() for t in started)
        monkeypatch.undo()
    assert errors[0] == errors[1]
    assert f"sequence member {member}: " in errors[0][1]


def test_a_custom_evaluator_never_runs_on_two_threads(monkeypatch):
    inside, seen = [], []

    def evaluator(points):
        inside.append(threading.get_ident())
        seen.append(len(inside))
        time.sleep(1e-4)  # room for the other thread to come in
        values = np.einsum("ij,ij->i", points, points)
        inside.pop()
        return values

    seq, limit, _, K, region, horizon = _weak_star_case()
    f = ConvexFunctionSpec(kind="custom", evaluator=evaluator)
    _cpus(monkeypatch, 2)
    started = _count_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = weak_star_verify(seq, limit, f, K, region, horizon, [0.5, 1.0, 2.0])
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 3  # the pool's, the probe's and the truncations'
    assert result.passed
    assert seen and max(seen) == 1


def test_concurrent_weak_star_calls_keep_their_bits(monkeypatch):
    # Four callers, each splitting its truncations, with a short switch
    # interval: a report stored at the wrong radius would change the bits.
    case = _weak_star_case("ball", 2)
    radii = [0.25, 0.5, 1.0, 2.0]
    _cpus(monkeypatch, 1)
    expected = _bits(weak_star_verify(*case, radii))
    _cpus(monkeypatch, 2)
    mismatches = []

    def caller():
        for _ in range(3):
            bits = _bits(weak_star_verify(*case, radii))
            if bits != expected:
                mismatches.append(bits)

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


def _count_probe_pairings(monkeypatch):
    """Calls of the probe's pairing step: one per probe computed."""
    calls = []
    real_pairings = gallery._probe_pairings
    monkeypatch.setattr(gallery, "_probe_pairings", lambda *a: calls.append(1) or real_pairings(*a))
    return calls


@pytest.mark.parametrize(
    "scenario", ["weakstar-2d", "a4-composite-liminf", "a6-rademacher-weakstar"]
)
def test_a_scenario_run_probes_once(tmp_path, monkeypatch, scenario):
    if scenario == "weakstar-2d":
        raw = _perfbench("workloads").scenario_config(scenario, 0, tiny=True)
    else:
        entry = resources.files("lplab.scenarios").joinpath(f"{scenario}.json")
        raw = json.loads(entry.read_text())
    cfg = build_config(raw)
    pairings = _count_probe_pairings(monkeypatch)
    probes = []
    real_probe = cli.weak_probe
    monkeypatch.setattr(cli, "weak_probe", lambda *a: probes.append(1) or real_probe(*a))
    manifest = run_scenario(cfg, output_dir=tmp_path)
    assert manifest.passed
    assert [p["name"] for p in manifest.phases][-1] == "liminf"
    assert len(probes) == 1  # the probe phase calls weak_probe by name
    assert len(pairings) == 1


def test_library_probes_outside_a_run_compute_each_time(grid, monkeypatch):
    pairings = _count_probe_pairings(monkeypatch)
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    limit = _zero_limit(grid)
    f, K = ConvexFunctionSpec(kind="squared_norm"), ConvexSetSpec(kind="box", bounds=[[-1, 1]])
    first = weak_probe(seq, limit, 2.0, default_probe_dictionary(grid), 32)
    second = weak_probe(seq, limit, 2.0, default_probe_dictionary(grid), 32)
    report = convexity.liminf_verify(seq, limit, f, K, RegionMask.full(grid), 2.0, 32)
    assert len(pairings) == 3
    assert _bits(first) == _bits(second) == _bits(report.probe)
    # Inside a scope a probe is shared by the dictionary object: the same
    # list twice is one probe, and the liminf gate's default dictionary is
    # the scope's one list.  The default dictionary and `one` are two probes.
    pairings.clear()
    one = [ScalarField.constant(grid, 1.0)]
    with gallery._shared_pools():
        for dictionary in (default_probe_dictionary(grid), one, one, None):
            if dictionary is None:
                convexity.liminf_verify(seq, limit, f, K, RegionMask.full(grid), 2.0, 32)
            else:
                weak_probe(seq, limit, 2.0, dictionary, 32)
    assert len(pairings) == 2


def _count_selections(monkeypatch, name):
    """Calls of the named selection, by the extraction phase or by the liminf replay."""
    calls = []
    real = getattr(extraction, name)
    monkeypatch.setattr(extraction, name, lambda *a: calls.append(1) or real(*a))
    return calls


def _csv_bodies(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).glob("*.csv"))}


def test_a_suite_replays_the_extraction_phase_selection(tmp_path, monkeypatch):
    # composite-liminf and zero-smoke have zero limits, so the liminf replay is
    # the extraction phase's selection: 4 p > 1 selections instead of 6, with
    # the CSVs of a suite that selects every time.
    calls = _count_selections(monkeypatch, "_banach_saks_select")
    assert main(["suite", "--output-dir", str(tmp_path / "shared")]) == 0
    assert len(calls) == 4
    calls.clear()
    monkeypatch.setattr(extraction, "_shared", lambda compute, *key: compute())
    assert main(["suite", "--output-dir", str(tmp_path / "each")]) == 0
    assert len(calls) == 6
    assert _csv_bodies(tmp_path / "shared") == _csv_bodies(tmp_path / "each")


def test_a_p1_run_replays_the_extraction_phase_selection(tmp_path, monkeypatch):
    entry = resources.files("lplab.scenarios").joinpath("a6-rademacher-weakstar.json")
    raw = dict(json.loads(entry.read_text()), p=1.0, extraction="p=1", levels=4)
    del raw["R_schedule"]
    calls = _count_selections(monkeypatch, "_szlenk_select")
    manifest = run_scenario(build_config(raw), output_dir=tmp_path / "shared")
    assert [p["status"] for p in manifest.phases] == ["pass"] * 4  # probe, extraction, cesaro, liminf
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(extraction, "_shared", lambda compute, *key: compute())
    run_scenario(build_config(raw), output_dir=tmp_path / "each")
    assert len(calls) == 2
    assert _csv_bodies(tmp_path / "shared") == _csv_bodies(tmp_path / "each")
