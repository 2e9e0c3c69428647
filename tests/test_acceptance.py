"""Acceptance gate: one test per criterion, printed pass/fail lines included.

Every tolerance here is pinned; lines are printed so a plain `pytest -s`
run doubles as an acceptance report.
"""

import time

import numpy as np

from lplab import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    InequalityConstants,
    PreconditionViolationError,
    RegionMask,
    ScalarField,
    SequenceSpec,
    VectorField,
    VectorSequenceSpec,
    banach_saks_extract,
    build_uniform_grid,
    check_pointwise_inequality,
    liminf_verify,
    szlenk_extract,
    verify_growth_bound,
    weak_probe,
    weak_star_verify,
)
from lplab.cli import main

P_LIST = (1.1, 1.5, 2.0, 2.5, 3.0, 3.5)


def _report(criterion, ok, detail=""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_c1_pointwise_inequality_grid():
    start = time.perf_counter()
    grid_1d = np.arange(-10.0, 10.0 + 0.025, 0.05)
    a, b = np.meshgrid(grid_1d, grid_1d, indexing="ij")
    a, b = a.ravel(), b.ravel()
    worst = np.inf
    for p in P_LIST:
        consts = InequalityConstants.build(p)
        margins = check_pointwise_inequality(p, a, b, consts)
        worst = min(worst, float(margins.min()))
    elapsed = time.perf_counter() - start
    _report(
        "C1 pointwise-inequality grid",
        worst >= -1e-9 and elapsed < 30.0,
        f"worst_margin={worst:.3e} elapsed={elapsed:.1f}s",
    )


def test_c2_homogeneity_of_margin():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst_dev = 0.0
    for p in P_LIST:
        consts = InequalityConstants.build(p)
        a = rng.uniform(-10.0, 10.0, 10_000)
        b = rng.uniform(-10.0, 10.0, 10_000)
        lam = rng.uniform(0.1, 10.0, 10_000)
        scaled = check_pointwise_inequality(p, lam * a, lam * b, consts)
        base = check_pointwise_inequality(p, a, b, consts)
        # relative to the term magnitude: the margin itself crosses zero
        scale = lam ** p * (
            np.abs(a) ** p
            + p * np.abs(a) ** (p - 1.0) * np.abs(b)
            + consts.a * np.abs(b) ** p
            + np.abs(a + b) ** p
        )
        worst_dev = max(worst_dev, float(np.max(np.abs(scaled - lam ** p * base) / scale)))
    elapsed = time.perf_counter() - start
    _report(
        "C2 homogeneity of the margin",
        worst_dev <= 1e-9 and elapsed < 10.0,
        f"worst_relative_dev={worst_dev:.3e} elapsed={elapsed:.1f}s",
    )


def test_c3_oscillatory_extraction_l2():
    start = time.perf_counter()
    grid = build_uniform_grid([[0.0, 1.0]], 8192)
    seq = VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    trace = banach_saks_extract(seq, 2.0, grid, 256)  # raises if stalled
    pairings_ok = float(trace.pairings.max()) <= 1.0 + 1e-12
    consts = InequalityConstants.build(2.0)
    growth = verify_growth_bound(trace, consts, 2.0)
    ks = np.arange(8, 129)
    window = trace.cesaro_norms[7:128]
    slope = float(np.polyfit(np.log(ks), np.log(window), 1)[0])
    # oracle: ||s_k/k||_2 = 1/sqrt(2k) for an orthonormal family
    oracle_ok = bool(np.allclose(window, 1.0 / np.sqrt(2.0 * ks), rtol=0.05))
    elapsed = time.perf_counter() - start
    _report(
        "C3 recursive extraction, oscillatory L2",
        trace.length == 256
        and pairings_ok
        and growth.aggregate_ok()
        and growth.stepwise_ok()
        and abs(slope + 0.5) <= 0.1
        and oracle_ok
        and elapsed < 60.0,
        f"slope={slope:.3f} elapsed={elapsed:.1f}s",
    )


def test_c4_vector_extraction_two_components():
    grid = build_uniform_grid([[0.0, 1.0]], 8192)
    seq = VectorSequenceSpec(
        [SequenceSpec(kind="oscillatory"), SequenceSpec(kind="rademacher")]
    )
    trace = banach_saks_extract(seq, 2.0, grid, 256)
    pairings_ok = float(trace.pairings.max()) <= 1.0 + 1e-12
    growth = verify_growth_bound(trace, InequalityConstants.build(2.0), 2.0)
    drop = float(trace.cesaro_norms[-1] / trace.cesaro_norms[0])
    _report(
        "C4 vector extraction (m=2)",
        trace.length == 256
        and pairings_ok
        and growth.aggregate_ok()
        and growth.stepwise_ok()
        and drop < 0.1,
        f"cesaro_drop={drop:.4f}",
    )


def test_c5_szlenk_levels_rademacher():
    start = time.perf_counter()
    grid = build_uniform_grid([[0.0, 1.0]], 4096)
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    schedule, trace = szlenk_extract(seq, grid, 4, 512)
    nesting_ok = True
    for parent, child in zip(schedule.levels, schedule.levels[1:]):
        iterator = iter(parent)
        nesting_ok = nesting_ok and all(any(x == y for y in iterator) for x in child)
    checkpoints_ok = schedule.checkpoints_ok()
    elapsed = time.perf_counter() - start
    detail = " ".join(
        f"l={c.level}:k={c.k}:norm={c.cesaro_norm:.4f}<=1/{c.level}" for c in schedule.checkpoints
    )
    _report(
        "C5 level/diagonal extraction, p=1",
        nesting_ok and checkpoints_ok and elapsed < 60.0,
        f"{detail} elapsed={elapsed:.1f}s",
    )


def test_c6_composite_liminf_scenario():
    grid = build_uniform_grid([[0.0, 1.0]], 4096)
    seq = VectorSequenceSpec(
        [SequenceSpec(kind="oscillatory"), SequenceSpec(kind="rademacher")]
    )
    limit = VectorField([ScalarField.constant(grid, 0.0)] * 2)
    report = liminf_verify(
        seq,
        limit,
        ConvexFunctionSpec(kind="squared_norm"),
        ConvexSetSpec(kind="whole_space"),
        RegionMask.full(grid),
        2.0,
        128,
    )
    tail = float(report.alphas[64:].min())
    jensen_min = float(report.replay.jensen_margins.min())
    _report(
        "C6 composite liminf scenario",
        report.passed
        and 1.49 <= tail <= 1.51
        and report.margin >= 0.0
        and jensen_min >= -1e-12,
        f"tail_inf={tail:.6f} margin={report.margin:.4f} jensen_min={jensen_min:.2e}",
    )


def test_c7_spike_negative_control():
    grid = build_uniform_grid([[0.0, 1.0]], 8192)
    seq = VectorSequenceSpec([SequenceSpec(kind="spike")])
    limit = VectorField([ScalarField.constant(grid, 0.0)])
    probe = weak_probe(seq, limit, 1.0, [ScalarField.constant(grid, 1.0)], 64)
    residuals_ok = bool(np.all(np.abs(probe.residuals - 1.0) <= 1e-9))
    refused = False
    hypothesis = ""
    try:
        liminf_verify(
            seq,
            limit,
            ConvexFunctionSpec(kind="squared_norm"),
            ConvexSetSpec(kind="whole_space"),
            RegionMask.full(grid),
            1.0,
            64,
        )
    except PreconditionViolationError as err:
        refused = True
        hypothesis = err.hypothesis
    _report(
        "C7 spike negative control",
        probe.verdict == "not-converging"
        and residuals_ok
        and refused
        and "probe" in hypothesis,
        f"verdict={probe.verdict} hypothesis={hypothesis!r}",
    )


def test_c8_weak_star_truncation_schedule():
    grid = build_uniform_grid([[0.0, 1.0]], 4096)
    seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
    limit = VectorField([ScalarField.constant(grid, 0.0)])
    report = weak_star_verify(
        seq,
        limit,
        ConvexFunctionSpec(kind="squared_norm"),
        ConvexSetSpec(kind="box", bounds=[[-1.0, 1.0]]),
        RegionMask.full(grid),
        64,
        [0.5, 1.0, 2.0],
    )
    monotone_ok = all(
        b >= a - 1e-12 for a, b in zip(report.limit_integrals, report.limit_integrals[1:])
    )
    _report(
        "C8 weak* truncation schedule",
        report.passed and all(r.passed for r in report.reports) and monotone_ok,
        f"limit_integrals={report.limit_integrals}",
    )


def test_c9_suite_determinism(tmp_path, capsys):
    rc_first = main(["suite", "--output-dir", str(tmp_path / "run1")])
    rc_second = main(["suite", "--output-dir", str(tmp_path / "run2")])
    capsys.readouterr()
    identical = True
    names = sorted(p.name for p in (tmp_path / "run1").iterdir() if p.suffix == ".csv")
    mismatched = []
    for name in names:
        if (tmp_path / "run1" / name).read_bytes() != (tmp_path / "run2" / name).read_bytes():
            identical = False
            mismatched.append(name)
    _report(
        "C9 suite determinism",
        rc_first == 0 and rc_second == 0 and identical and len(names) > 0,
        f"exit=({rc_first},{rc_second}) csv_files={len(names)} mismatched={mismatched}",
    )
