"""Metamorphic relations of the bundled scenarios.

The paper's statements are homogeneous: if u_i converges weakly to u, then
lambda u_i converges weakly to lambda u, and the liminf inequality for a
degree-d integrand holds for lambda u_i exactly when it holds for u_i.  So
every verdict of a scenario must be the same after every amplitude, and the
convex set K, is multiplied by lambda, and a selection must make the same
picks.  Negating the sequence, with a
symmetric f and K, must leave every output unchanged, and so must swapping
the components of (L^p)^m in the sequence and the limit.  Appending a zero
component to both, (L^p)^m -> (L^p)^(m+1), is the paper's own reduction to
m = 1 and must leave every verdict unchanged.  Dilating the domain
x -> c x, with the truncation radii, maps a dyadic family onto itself, and
an oscillatory one too once its base is divided by c, so the Rademacher
scenarios and a1 keep every verdict and their Cesaro slope.
Translating the box keeps every phase status of the routes without
truncation, whose balls are centred at the origin, and doubling the
resolution keeps every phase status of every scenario.
"""

import copy
import json
import re
import warnings

import numpy as np
import pytest

from lplab import (
    ScalarField,
    SequenceSpec,
    VectorSequenceSpec,
    build_uniform_grid,
    cli,
    extraction,
    generate_vector,
)
from lplab.errors import ExtractionStalledError, LevelStalledError
from lplab.gallery import CONVERGING, _loglog_slope, weak_probe
from lplab.grid import _rounding_budget

_SCENARIOS = {
    entry.name.split("-")[0]: json.loads(entry.read_text()) for entry in cli._bundled_scenarios()
}
_LAMBDAS = (1e-150, 1e-13, 1e-6, 1e3, 1e100)


def _scaled(raw: dict, lam: float) -> dict:
    """raw with every amplitude and K scaled by lam, and the tail window by lam^(deg f)."""
    raw = copy.deepcopy(raw)
    for comp in raw["sequence"] + raw["limit"]:
        comp["amplitude"] = lam * comp.get("amplitude", 1.0)
    f = raw.get("f")
    if f is None:
        return raw
    K = f.get("K", {"kind": "whole_space"})
    params = K.setdefault("params", {})
    if K["kind"] == "box":
        params["bounds"] = [[lam * lo, lam * hi] for lo, hi in params["bounds"]]
    elif K["kind"] == "ball":
        params["center"] = [lam * c for c in params.get("center", [0.0])]
        params["radius"] = lam * params.get("radius", 1.0)
    elif K["kind"] == "halfspaces":
        params["halfspaces"] = [[a, lam * b] for a, b in params["halfspaces"]]
    window = raw.get("expect", {}).get("tail_inf_range")
    if window is not None:
        degree = {"squared_norm": 2.0, "power": f.get("params", {}).get("power", 2.0)}[f["kind"]]
        raw["expect"]["tail_inf_range"] = [lam ** degree * x for x in window]
    return raw


def _outcome(raw: dict, out) -> tuple[dict, float | None]:
    """Phase statuses, probe verdict and refusal hypothesis of one run, and its Cesaro slope.

    The slope is refitted from the trace's full-precision column, and is None
    when the run fitted none.
    """
    manifest = cli.run_scenario(cli.build_config(raw), output_dir=out)
    details = {phase["name"]: phase["detail"] for phase in manifest.phases}
    refusal = re.match(r"refused(?: as expected)?: (.*?) hypothesis failed", details.get("liminf", ""))
    outcome = {
        "statuses": [(phase["name"], phase["status"]) for phase in manifest.phases],
        "verdict": re.search(r"verdict=(\S+)", details["probe"]).group(1),
        "hypothesis": refusal.group(1) if refusal else None,
    }
    slope = None
    if details.get("cesaro", "").startswith("slope="):
        lines = (out / f"{raw['name']}.trace.csv").read_text().splitlines()
        column = lines[0].split(",").index("cesaro_norm")
        values = np.array([float(line.split(",")[column]) for line in lines[1:]])
        slope = _loglog_slope(np.arange(1, values.size + 1, dtype=float), values)
    return outcome, slope


@pytest.fixture(scope="module")
def unscaled(tmp_path_factory):
    """run(key): output directory, outcome and slope of a bundled scenario, run once."""
    runs = {}

    def run(key: str):
        if key not in runs:
            out = tmp_path_factory.mktemp(key)
            runs[key] = (out, *_outcome(_SCENARIOS[key], out))
        return runs[key]

    return run


@pytest.mark.parametrize("key", sorted(_SCENARIOS))
def test_every_verdict_is_invariant_under_scaling(key, unscaled, tmp_path):
    raw = _SCENARIOS[key]
    _, expected, expected_slope = unscaled(key)
    for lam in _LAMBDAS:
        outcome, slope = _outcome(_scaled(raw, lam), tmp_path / f"{lam:g}")
        assert outcome == expected, f"lambda = {lam:g}"
        if expected_slope is not None:
            assert slope == pytest.approx(expected_slope, rel=0.0, abs=1e-9), f"lambda = {lam:g}"


def test_values_outside_a_scaled_box_are_refused_at_every_scale(tmp_path):
    # a6 at amplitude 2 leaves K = [-1, 1]; scaled together, lambda K never
    # holds the members of amplitude 2 lambda.
    raw = copy.deepcopy(_SCENARIOS["a6"])
    raw["sequence"][0]["amplitude"] = 2.0
    for lam in (1.0,) + _LAMBDAS:
        outcome, _ = _outcome(_scaled(raw, lam), tmp_path / f"{lam:g}")
        assert outcome["hypothesis"] == "values-in-K", f"lambda = {lam:g}"
        assert ("liminf", "fail") in outcome["statuses"], f"lambda = {lam:g}"


def _non_orthogonal_pool(p: float) -> tuple[np.ndarray, np.ndarray]:
    """(pool, weights) of a family whose pairings are not rounding noise, at sup norm < 1.

    p = 2: 0.3 sin(2 pi (i+1) x) + 0.9 sgn(sin 2 pi x) / sqrt(i) on 512 midpoints,
    horizon 60; p = 1: 0.6 sgn(sin 2 pi i x) + 0.6 sgn(sin 2 pi x) / i^0.3 on
    1024 midpoints, horizon 64.  Each is a (horizon, 1, N) pool.
    """
    n, horizon = (512, 60) if p == 2.0 else (1024, 64)
    x = (np.arange(n) + 0.5) / n
    i = np.arange(1, horizon + 1)[:, None]
    step = np.sign(np.sin(2.0 * np.pi * x))
    if p == 2.0:
        rows = 0.3 * np.sin(2.0 * np.pi * (i + 1) * x) + 0.9 * step / np.sqrt(i)
    else:
        rows = 0.6 * np.sign(np.sin(2.0 * np.pi * i * x)) + 0.6 * step / i ** 0.3
    return rows[:, None, :], np.full(n, 1.0 / n)


def _picks(pool: np.ndarray, p: float, w: np.ndarray) -> tuple:
    """(outcome, picks, members kept per level) of the selection at p, three levels at p = 1."""
    try:
        schedule, trace = extraction._select(pool, p, w, 3 if p == 1.0 else None)
    except ExtractionStalledError as err:
        return "stalled", err.trace.indices, None
    except LevelStalledError as err:
        return "level stalled", err.level, None
    return "picked", trace.indices, schedule and [len(level) for level in schedule.levels]


@pytest.mark.parametrize(
    "p, expected",
    [(2.0, ("stalled", 31, None)), (1.0, ("picked", 41, [64, 60, 41]))],
)
def test_the_amplitude_decides_no_pick(p, expected):
    # The selection thresholds scale with the pool's sup norm below 1, so
    # lambda u_i picks as u_i does.  Unscaled, lambda <= 1/2 picked every member.
    pool, w = _non_orthogonal_pool(p)
    outcomes = [_picks(lam * pool, p, w) for lam in (2.0 ** -30, 0.25, 1.0, 4.0, 2.0 ** 30)]
    assert all(outcome == outcomes[2] for outcome in outcomes)
    outcome, picks, kept = outcomes[2]
    assert (outcome, len(picks), kept) == expected


def _a6_variant(variant: str) -> dict:
    """a6 with K the ball of radius 0.5, which its members leave, or with f = |w|."""
    raw = copy.deepcopy(_SCENARIOS["a6"])
    if variant == "ball-K":
        raw["f"]["K"] = {"kind": "ball", "params": {"center": [0.0], "radius": 0.5}, "closed": True}
    else:
        raw["f"].update(kind="power", params={"power": 1.0})
    return raw


@pytest.mark.parametrize("variant", ["ball-K", "power-f"])
def test_a_ball_K_and_a_power_f_keep_every_verdict_at_the_ends_of_the_float_range(
    variant, tmp_path
):
    # Both square the values they read, which leave the float range at lambda
    # = 1e-200 and 1e200 unless they are rescaled.
    raw = _a6_variant(variant)
    expected, _ = _outcome(raw, tmp_path / "1")
    assert expected["hypothesis"] == ("values-in-K" if variant == "ball-K" else None)
    for lam in (1e-200, 1e200):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome, _ = _outcome(_scaled(raw, lam), tmp_path / f"{lam:g}")
        assert outcome == expected, f"lambda = {lam:g}"
        assert not [w for w in caught if w.category is RuntimeWarning], f"lambda = {lam:g}"


@pytest.mark.parametrize("base", [1.0, 2.0])
def test_a_large_sine_reads_as_a_unit_sine(base):
    grid = build_uniform_grid([[0.0, 1.0]], 256)
    limit = generate_vector(
        VectorSequenceSpec([SequenceSpec(kind="constant", amplitude=0.0)]), 1, grid
    )
    dictionary = [ScalarField.constant(grid, 1.0)]
    verdicts = [
        weak_probe(
            VectorSequenceSpec([SequenceSpec(kind="oscillatory", amplitude=amplitude, base=base)]),
            limit, 2.0, dictionary, 16,
        ).verdict
        for amplitude in (1.0, 1e50)
    ]
    assert verdicts == [CONVERGING, CONVERGING]


@pytest.mark.parametrize("key", sorted(_SCENARIOS))
def test_every_csv_is_invariant_under_a_sign_flip(key, unscaled, tmp_path):
    flipped = copy.deepcopy(_SCENARIOS[key])
    for comp in flipped["sequence"]:
        comp["amplitude"] = -comp.get("amplitude", 1.0)
    cli.run_scenario(cli.build_config(flipped), output_dir=tmp_path)
    plus = unscaled(key)[0]
    csvs = sorted(path.name for path in plus.glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (tmp_path / name).read_bytes() == (plus / name).read_bytes()


@pytest.mark.parametrize("key", ["a2", "a4"])
def test_every_csv_is_invariant_under_a_component_swap(key, unscaled, tmp_path):
    swapped = copy.deepcopy(_SCENARIOS[key])
    for side in ("sequence", "limit"):
        swapped[side].reverse()
    outcome, _ = _outcome(swapped, tmp_path)
    plus, expected, _ = unscaled(key)
    assert outcome == expected
    csvs = sorted(path.name for path in plus.glob("*.csv"))
    assert csvs == sorted(path.name for path in tmp_path.glob("*.csv"))
    for name in csvs:
        assert (tmp_path / name).read_bytes() == (plus / name).read_bytes()


_ZERO = {"kind": "constant", "amplitude": 0.0, "params": {"value": 0.0}}


def _pairing_budgets(trace: list[list[str]], header: list[str], p: float, nodes: int):
    """Rounding budget of each row's max_pairing: twice gamma_(nodes+4) times its scale.

    A pairing of |s_(k-1)|^(p-1) sgn(s_(k-1)) w with a member of norm <= 1 is a
    sum over the nodes of terms whose absolute values add up to at most
    (integral of |s_(k-1)|^p)^((p-1)/p) (Hoelder), and each term takes up to
    four roundings.  Two summation orders differ by at most twice the budget.
    The first pick pairs against an empty sum and reads exactly 0.
    """
    partial = [float(row[header.index("partial_norm_p")]) for row in trace]
    scales = [0.0] + [x ** ((p - 1.0) / p) for x in partial[:-1]]
    return 2.0 * _rounding_budget(nodes + 4, np.array(scales))


@pytest.mark.parametrize("key", sorted(_SCENARIOS))
def test_every_csv_is_invariant_under_zero_padding(key, unscaled, tmp_path):
    padded = copy.deepcopy(_SCENARIOS[key])
    for side in ("sequence", "limit"):
        padded[side].append(copy.deepcopy(_ZERO))
    padded["m"] = padded.get("m", 1) + 1
    outcome, _ = _outcome(padded, tmp_path)
    plus, expected, _ = unscaled(key)
    assert outcome == expected
    csvs = sorted(path.name for path in plus.glob("*.csv"))
    assert csvs == sorted(path.name for path in tmp_path.glob("*.csv"))
    for name in csvs:
        if not name.endswith(".trace.csv"):
            assert (tmp_path / name).read_bytes() == (plus / name).read_bytes(), name
            continue
        # max_pairing sums over the nodes in another order once m changes.
        header, *rows = [line.split(",") for line in (plus / name).read_text().splitlines()]
        header_padded, *rows_padded = [
            line.split(",") for line in (tmp_path / name).read_text().splitlines()
        ]
        assert header_padded == header and len(rows_padded) == len(rows)
        column = header.index("max_pairing")

        def other_columns(rows):
            return [row[:column] + row[column + 1 :] for row in rows]

        assert other_columns(rows_padded) == other_columns(rows)
        nodes = int(np.prod(padded["grid"]["resolution"]))
        p = float(padded["p"])
        budgets = _pairing_budgets(rows, header, p, nodes)
        gaps = np.array(
            [abs(float(a[column]) - float(b[column])) for a, b in zip(rows_padded, rows)]
        )
        assert np.all(gaps <= budgets), f"k = {int(np.argmax(gaps > budgets)) + 1}"


def _dilated(raw: dict, c: float) -> dict:
    """raw with the grid box and the truncation radii multiplied by c, each oscillatory base by 1/c.

    sin(2 pi i (base/c) (c x)) is the member at x, so every family maps onto itself.
    """
    raw = copy.deepcopy(raw)
    raw["grid"]["box"] = [[c * lo, c * hi] for lo, hi in raw["grid"]["box"]]
    if "R_schedule" in raw:
        raw["R_schedule"] = [c * r for r in raw["R_schedule"]]
    for comp in raw["sequence"] + raw["limit"]:
        if comp["kind"] == "oscillatory":
            params = comp.setdefault("params", {})
            params["base"] = params.get("base", 1.0) / c
    return raw


def _assert_invariant_under_dilation(key, unscaled, tmp_path):
    _, expected, expected_slope = unscaled(key)
    for c in (1e-100, 2.0 ** -8, 0.25, 0.5, 2.0, 3.0, 4.0):
        outcome, slope = _outcome(_dilated(_SCENARIOS[key], c), tmp_path / f"{c:g}")
        assert outcome == expected, f"c = {c:g}"
        if expected_slope is not None:
            assert slope == pytest.approx(expected_slope, rel=0.0, abs=1e-9), f"c = {c:g}"


@pytest.mark.parametrize("key", ["a3", "a6"])
def test_every_rademacher_verdict_is_invariant_under_dilation(key, unscaled, tmp_path):
    _assert_invariant_under_dilation(key, unscaled, tmp_path)


def test_the_oscillatory_verdict_is_invariant_under_dilation_with_the_base_over_c(
    unscaled, tmp_path
):
    _assert_invariant_under_dilation("a1", unscaled, tmp_path)


@pytest.mark.parametrize("key", ["a0", "a1", "a2", "a3", "a4", "a5"])
def test_every_phase_status_is_invariant_under_translation(key, unscaled, tmp_path):
    # [0, 1] -> [3, 4].  a6 truncates about the origin, so there the relation
    # is the refusal that names the first radius (test_cli).
    moved = copy.deepcopy(_SCENARIOS[key])
    moved["grid"]["box"] = [[lo + 3.0, hi + 3.0] for lo, hi in moved["grid"]["box"]]
    outcome, _ = _outcome(moved, tmp_path)
    assert outcome["statuses"] == unscaled(key)[1]["statuses"]


@pytest.mark.parametrize("key", sorted(_SCENARIOS))
def test_every_phase_status_is_invariant_under_resolution_doubling(key, unscaled, tmp_path):
    finer = copy.deepcopy(_SCENARIOS[key])
    finer["grid"]["resolution"] = [2 * n for n in finer["grid"]["resolution"]]
    outcome, _ = _outcome(finer, tmp_path)
    assert outcome["statuses"] == unscaled(key)[1]["statuses"]
