"""Scenario-driven command line: probe, extract, verify, report.

Subcommands:

  verify-lemma1   build the pointwise-inequality constants and grid-check them
  probe           weak/weak* probe of a configured sequence
  extract         subsequence extraction with trace CSV
  liminf          liminf verification (finite p, truncated sup-norm, closed-K)
  suite           run every bundled scenario; exit 0 iff all pass

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage,
configuration, or I/O error, or a phase that raised a library error, 3 an
internal error.  CSV bodies are deterministic (full 17-digit
precision, no timestamps); wall-clock data lives only in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .convexity import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    _check_dimensions,
    _check_r_schedule,
    _check_region_nodes,
    liminf_verify,
    mazur_scenario_verify,
    weak_star_verify,
)
from .errors import (
    ConfigError,
    ExtractionStalledError,
    InternalConsistencyError,
    InvalidArgumentError,
    LabError,
    LevelStalledError,
    PreconditionViolationError,
)
from .extraction import (
    _SCAN_RANGE,
    _SCAN_STEP,
    InequalityConstants,
    _lemma1_check,
    banach_saks_extract,
    szlenk_extract,
    verify_growth_bound,
)
from .gallery import (
    _FLAT_SLOPE,
    CONVERGING,
    INCONCLUSIVE,
    NOT_CONVERGING,
    SequenceSpec,
    VectorSequenceSpec,
    _check_array_budget,
    _check_members,
    _check_pool_budget,
    _shared_pools,
    _usable_cpus,
    default_probe_dictionary,
    generate_vector,
    weak_probe,
)
from .grid import RegionMask, _uniform_axes, build_uniform_grid, truncate_region
from .norms import INFINITY

__all__ = ["ScenarioConfig", "RunManifest", "load_config", "run_scenario", "main"]

# verify-lemma1's defaults; the suite's lemma-1 rows use them too, with its own --seed.
_LEMMA1_DEFAULTS = {
    "p": (1.1, 1.5, 2.0, 2.5, 3.0, 3.5), "range": _SCAN_RANGE, "step": _SCAN_STEP,
    "ab_range": 10.0, "ab_step": 0.05, "homogeneity_samples": 10000, "seed": 20260810,
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@dataclass
class ScenarioConfig:
    """Validated scenario description plus the raw dictionary it came from."""

    name: str
    raw: dict
    grid: object
    p: float
    m: int
    sequence: VectorSequenceSpec
    limit: object
    region: RegionMask
    horizon: int
    extraction_mode: str
    f: ConvexFunctionSpec | None
    K: ConvexSetSpec | None
    r_schedule: list | None
    levels: int
    expect: dict
    output_dir: str

    @property
    def digest(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@functools.cache
def _environment() -> dict:
    """Python, numpy and BLAS versions and the usable CPU count, read once per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpus": _usable_cpus(),
    }


@dataclass
class RunManifest:
    """Per-phase outcomes, output paths and environment of one scenario run."""

    name: str
    config_digest: str
    tool_version: str
    phases: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def add_phase(self, name: str, status: str, seconds: float, detail: str = ""):
        self.phases.append(
            {"name": name, "status": status, "seconds": round(seconds, 6), "detail": detail}
        )

    @property
    def passed(self) -> bool:
        return all(p["status"] in ("pass", "skipped") for p in self.phases)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config_digest": self.config_digest,
            "tool_version": self.tool_version,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "passed": self.passed,
            "phases": self.phases,
            "outputs": self.outputs,
            "environment": _environment(),
        }


def _parse_exponent(raw) -> float:
    if isinstance(raw, str):
        if raw.lower() in ("inf", "infinity"):
            return INFINITY
        raise ConfigError(f"field 'p': unknown exponent {raw!r}")
    p = float(raw)
    if not p >= 1.0:  # NaN included
        raise ConfigError(f"field 'p': exponent must be >= 1 or 'infinity', got {p}")
    return p


def _build_region(raw, grid) -> RegionMask:
    kind = str(raw.get("type", "full")).lower()
    if kind == "full":
        return RegionMask.full(grid)
    if kind == "ball":
        return truncate_region(RegionMask.full(grid), float(raw["radius"]))
    if kind == "box":
        bounds = np.asarray(raw["bounds"], dtype=float).reshape(-1, 2)
        if bounds.shape[0] != grid.dimension:
            raise ConfigError("field 'region.bounds': wrong dimension")
        included = np.all(
            (grid.nodes >= bounds[:, 0]) & (grid.nodes <= bounds[:, 1]), axis=1
        )
        return RegionMask(grid, included)
    raise ConfigError(f"field 'region.type': unknown region {kind!r}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _integer_field(raw: dict, key: str, default=None) -> int:
    """raw[key] as an int; a bool, a string or a non-integral number is refused."""
    value = raw[key] if default is None else raw.get(key, default)
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"field '{key}' must be an integer, got {value!r}")
    return int(value)


def _check_expect(expect: dict) -> None:
    """Refuse ``expect`` fields the phases could not compare against."""
    for key in ("cesaro_slope", "tail_inf_range"):
        window = expect.get(key)
        if window is not None and not (
            isinstance(window, (list, tuple))
            and len(window) == 2
            and all(_is_number(x) for x in window)
            and window[0] <= window[1]
        ):
            raise ConfigError(
                f"field 'expect.{key}' must be two numbers [lo, hi] with lo <= hi, got {window!r}"
            )
    drop = expect.get("cesaro_drop")
    if drop is not None and not (_is_number(drop) and drop >= 0.0):  # NaN included
        raise ConfigError(f"field 'expect.cesaro_drop' must be a number >= 0, got {drop!r}")
    verdict = expect.get("probe_verdict")
    if verdict is not None and verdict not in (CONVERGING, NOT_CONVERGING, INCONCLUSIVE):
        raise ConfigError(f"field 'expect.probe_verdict': unknown verdict {verdict!r}")
    refusal = expect.get("liminf_refusal")
    if refusal is not None and not isinstance(refusal, bool):
        raise ConfigError(f"field 'expect.liminf_refusal' must be true or false, got {refusal!r}")


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} line {err.lineno}: {err.msg}") from err
    return build_config(raw)


def build_config(raw: dict) -> ScenarioConfig:
    try:
        name = str(raw["name"])
        if Path(name).name != name:  # every output is <output dir>/<name>.<kind>
            raise ConfigError(f"field 'name' must be a file name, got {name!r}")
        graw = raw["grid"]
        _, resolution = _uniform_axes(graw["box"], graw["resolution"])
        if int(graw.get("dimension", len(resolution))) != len(resolution):
            raise ConfigError("field 'grid.dimension' disagrees with the box")
        p = _parse_exponent(raw["p"])
        seq = VectorSequenceSpec(
            [SequenceSpec.from_config(c) for c in raw["sequence"]]
        )
        m = _integer_field(raw, "m", seq.m)
        if m != seq.m:
            raise ConfigError(f"field 'm' = {m} disagrees with {seq.m} sequence components")
        horizon = _integer_field(raw, "horizon")
        if horizon < 8:
            raise ConfigError(f"field 'horizon' must be >= 8, got {horizon}")
        # refuse an oversized pool before the grid or any member is allocated
        _check_pool_budget(horizon, m, math.prod(resolution))
        grid = build_uniform_grid(graw["box"], graw["resolution"])
        limit_specs = [SequenceSpec.from_config(c) for c in raw["limit"]]
        if len(limit_specs) != m:
            raise ConfigError("field 'limit' must have one spec per component")
        limit = generate_vector(VectorSequenceSpec(limit_specs), 1, grid)
        region = _build_region(raw.get("region", {}), grid)
        mode = str(raw.get("extraction", "none")).lower()
        if mode not in ("p>1", "p=1", "none"):
            raise ConfigError(f"field 'extraction': unknown mode {mode!r}")
        if mode == "p>1" and not (p != INFINITY and p > 1.0):
            raise ConfigError(f"extraction mode 'p>1' needs finite p > 1, got p={raw['p']}")
        if mode == "p=1" and p != 1.0:
            raise ConfigError(f"extraction mode 'p=1' needs p = 1, got p={raw['p']}")
        fraw = raw.get("f")
        f = ConvexFunctionSpec.from_config(fraw) if fraw else None
        K = ConvexSetSpec.from_config(fraw["K"]) if fraw and "K" in fraw else (
            ConvexSetSpec(kind="whole_space") if fraw else None
        )
        if f is not None:
            _check_dimensions(f, K, m)
        r_schedule = raw.get("R_schedule")
        if r_schedule is not None:
            if p != INFINITY:
                raise ConfigError("field 'R_schedule' applies to sup-norm scenarios only")
            r_schedule = _check_r_schedule(r_schedule)
        _check_region_nodes(region, r_schedule[0] if r_schedule else None)
        levels = _integer_field(raw, "levels", 4)
        if levels < 1:
            raise ConfigError(f"field 'levels' must be >= 1, got {levels}")
        expect = dict(raw.get("expect") or {})
        _check_expect(expect)
        output_dir = str(raw.get("output_dir", "."))
        # surface generation refusals as configuration errors up front
        _check_members(seq, grid, horizon)
    except KeyError as err:
        raise ConfigError(f"missing config field {err.args[0]!r}") from None
    except AttributeError as err:  # a string or number where an object belongs
        raise ConfigError(f"invalid config value: expected an object: {err}") from err
    except (TypeError, ValueError, InvalidArgumentError) as err:
        raise ConfigError(f"invalid config value: {err}") from err
    return ScenarioConfig(
        name=name,
        raw=raw,
        grid=grid,
        p=p,
        m=m,
        sequence=seq,
        limit=limit,
        region=region,
        horizon=horizon,
        extraction_mode=mode,
        f=f,
        K=K,
        r_schedule=r_schedule,
        levels=levels,
        expect=expect,
        output_dir=output_dir,
    )


def _probe_phase(cfg: ScenarioConfig):
    dictionary = default_probe_dictionary(cfg.grid)
    report = weak_probe(cfg.sequence, cfg.limit, cfg.p, dictionary, cfg.horizon)
    expected = cfg.expect.get("probe_verdict", CONVERGING)
    ok = report.verdict == expected
    detail = f"verdict={report.verdict} slope={report.slope:.3g} expected={expected}"
    return report, ok, detail


def _extract_phase(cfg: ScenarioConfig):
    try:
        if cfg.extraction_mode == "p=1":
            schedule, trace = szlenk_extract(cfg.sequence, cfg.grid, cfg.levels, cfg.horizon)
            ok = schedule.checkpoints_ok()
            worst = min(c.margin for c in schedule.checkpoints)
            detail = f"levels={cfg.levels} picks={trace.length} worst_checkpoint_margin={worst:.3g}"
            return trace, ok, detail
        trace = banach_saks_extract(cfg.sequence, cfg.p, cfg.grid, cfg.horizon)
    except (ExtractionStalledError, LevelStalledError) as err:
        return getattr(err, "trace", None), False, str(err)
    detail = f"picks={trace.length} max_pairing={float(trace.pairings.max()):.3g}"
    return trace, True, detail


def _growth_phase(cfg: ScenarioConfig, trace):
    consts = InequalityConstants.build(cfg.p)
    report = verify_growth_bound(trace, consts, cfg.p)
    ok = report.aggregate_ok() and report.stepwise_ok()
    detail = (
        f"A={consts.a:.6g} B={consts.b:.6g} "
        f"min_margin={float(report.aggregate_margins.min()):.3g}"
    )
    return report.per_step_minimum(), ok, detail


def _cesaro_phase(cfg: ScenarioConfig, trace):
    values = trace.cesaro_norms
    zero, slope, converged = trace._cesaro_slope()
    if zero:
        detail = "curve identically zero (convergence exact)"
    elif slope is None:
        detail = "fewer than two positive points; no slope fit"
    else:
        detail = f"slope={slope:.4f}"
    window = cfg.expect.get("cesaro_slope")
    drop = cfg.expect.get("cesaro_drop")
    if window is None and drop is None:  # no expectation: the liminf replay's rule
        if not converged:
            detail += f" not below the flat slope {_FLAT_SLOPE}"
        return slope, converged, detail
    ok = True
    if window is not None and slope is not None:
        ok = ok and (window[0] <= slope <= window[1])
        detail += f" window={window}"
    if drop is not None:
        positive = values[values > 0.0]
        ratio = float(values[-1] / positive[0]) if positive.size else 0.0
        ok = ok and ratio <= drop
        detail += f" drop={ratio:.4f}<= {drop}"
    return slope, ok, detail


def _liminf_phase(cfg: ScenarioConfig):
    expect_refusal = bool(cfg.expect.get("liminf_refusal", False))
    try:
        if cfg.p == INFINITY and cfg.r_schedule is not None:
            result = weak_star_verify(
                cfg.sequence, cfg.limit, cfg.f, cfg.K, cfg.region,
                cfg.horizon, cfg.r_schedule, szlenk_levels=cfg.levels,
            )
            report = result.reports[-1]
            ok = result.passed
            detail = (
                f"radii={result.radii} limit_integrals={[f'{v:.6g}' for v in result.limit_integrals]}"
                f" monotone={result.monotone}"
            )
        elif cfg.p == INFINITY:
            report = mazur_scenario_verify(
                cfg.sequence, cfg.limit, cfg.f, cfg.K, cfg.region, cfg.horizon
            )
            ok = report.passed
            detail = f"margin={report.margin:.6g}"
        else:
            report = liminf_verify(
                cfg.sequence, cfg.limit, cfg.f, cfg.K, cfg.region, cfg.p, cfg.horizon,
                szlenk_levels=cfg.levels,
            )
            ok = report.passed
            detail = f"margin={report.margin:.6g}"
            if report.replay is not None and report.replay.jensen_margins.size:
                detail += f" jensen_min={float(report.replay.jensen_margins.min()):.3g}"
    except (PreconditionViolationError, InternalConsistencyError) as err:
        if expect_refusal:
            return None, True, f"refused as expected: {err}"
        return None, False, f"refused: {err}"
    if expect_refusal:
        return report, False, "expected a refusal but verification ran"
    window = cfg.expect.get("tail_inf_range")
    if window is not None:
        tail = float(report.tail_infimum[cfg.horizon // 2])
        ok = ok and (window[0] <= tail <= window[1])
        detail += f" tail_inf={tail:.6g} window={window}"
    return report, ok, detail


def _run_phase(manifest: RunManifest, name: str, phase, *args):
    """Time ``phase(*args) -> (result, ok, detail)``, record pass or fail, return the result.

    A ``LabError`` it raises is recorded as ``error`` with its message, and None returned.
    """
    start = time.perf_counter()
    try:
        result, ok, detail = phase(*args)
    except LabError as err:
        manifest.add_phase(name, "error", time.perf_counter() - start, str(err))
        return None
    manifest.add_phase(name, "pass" if ok else "fail", time.perf_counter() - start, detail)
    return result


def _write_output(manifest: RunManifest, path: Path, header, rows) -> None:
    _write_csv(path, header, rows)
    manifest.outputs.append(str(path))


@_shared_pools()
def run_scenario(cfg: ScenarioConfig, output_dir=None, phases=("probe", "extract", "liminf")) -> RunManifest:
    """Execute the configured phases in order, writing CSV reports and the manifest.

    Later phases that depend on a failed hypothesis are skipped and marked.
    The phases share one member pool, built by the first phase that needs it
    and dropped when the run returns.
    """
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(cfg.name, cfg.digest, __version__)

    probe_report = None
    if "probe" in phases:
        probe_report = _run_phase(manifest, "probe", _probe_phase, cfg)
        if probe_report is not None:
            _write_output(
                manifest, out / f"{cfg.name}.probe.csv",
                ("index", "residual", "verdict"), probe_report.rows(),
            )

    if "extract" in phases and cfg.extraction_mode != "none":
        trace = None
        if probe_report is not None and probe_report.verdict == NOT_CONVERGING:
            manifest.add_phase(
                "extraction", "skipped", 0.0, "weak-convergence hypothesis refuted by the probe"
            )
        else:
            trace = _run_phase(manifest, "extraction", _extract_phase, cfg)

        bound_margins = None
        if cfg.extraction_mode == "p>1":
            if trace is None:
                manifest.add_phase("growth_bound", "skipped", 0.0, "no trace")
            else:
                bound_margins = _run_phase(manifest, "growth_bound", _growth_phase, cfg, trace)

        if trace is None:
            manifest.add_phase("cesaro", "skipped", 0.0, "no trace")
        else:
            _run_phase(manifest, "cesaro", _cesaro_phase, cfg, trace)
            _write_output(
                manifest, out / f"{cfg.name}.trace.csv",
                ("k", "selected_index", "max_pairing", "partial_norm_p", "cesaro_norm", "bound_margin"),
                trace.rows(bound_margins),
            )

    if "liminf" in phases and cfg.f is not None:
        report = _run_phase(manifest, "liminf", _liminf_phase, cfg)
        if report is not None:
            _write_output(
                manifest, out / f"{cfg.name}.liminf.csv",
                ("i", "alpha_i", "tail_inf", "limit_integral", "margin"), report.rows(),
            )

    manifest_path = out / f"{cfg.name}.manifest.json"
    manifest_path.write_text(json.dumps(manifest.to_dict(), indent=2) + "\n")
    manifest.outputs.append(str(manifest_path))
    return manifest


def _exit_code(manifest: RunManifest) -> int:
    """2 if any phase is an error, otherwise 0 if every check passed, else 1."""
    if any(phase["status"] == "error" for phase in manifest.phases):
        return 2
    return 0 if manifest.passed else 1


def _cmd_scenario(args, phases) -> int:
    manifest = run_scenario(load_config(args.config), output_dir=args.output_dir, phases=phases)
    for phase in manifest.phases:
        print(f"{manifest.name}: {phase['name']}: {phase['status']} ({phase['detail']})")
    return _exit_code(manifest)


def _lemma1_rows(args):
    """(constants, worst grid margin, homogeneity deviation, pass) per p of verify-lemma1's args.

    ``extraction._lemma1_check`` reads each row on the (a, b) grid and the
    seeded homogeneity samples.  Every argument is checked before a scan
    starts: ranges and steps must be finite and positive, the seed >= 0, at
    least one homogeneity sample is drawn, and the (a, b) grid must hold
    more than one point.  An array over the pool budget is refused before it
    is allocated.
    """
    for flag in ("--range", "--step", "--ab-range", "--ab-step"):
        value = getattr(args, flag[2:].replace("-", "_"))
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidArgumentError(f"{flag} must be finite and positive, got {value}")
    ab_range, ab_step, samples = args.ab_range, args.ab_step, args.homogeneity_samples
    if samples < 1:
        raise InvalidArgumentError(f"--homogeneity-samples must be >= 1, got {samples}")
    if args.seed < 0:
        raise InvalidArgumentError(f"--seed must be >= 0, got {args.seed}")
    side = 2.0 * ab_range / ab_step + 1.0
    grid_name = f"the (a, b) grid of --ab-range {ab_range:g} and --ab-step {ab_step:g}"
    _check_array_budget(grid_name, side * side)
    _check_array_budget(f"--homogeneity-samples {samples}", samples)
    grid_1d = np.arange(-ab_range, ab_range + ab_step / 2, ab_step)
    if grid_1d.size < 2:
        raise InvalidArgumentError(f"{grid_name} holds a single point")
    rows = []
    rng = np.random.default_rng(args.seed)
    for p in args.p:
        consts = InequalityConstants.build(p, t_max=args.range, step=args.step)
        a = rng.uniform(-ab_range, ab_range, samples)
        b = rng.uniform(-ab_range, ab_range, samples)
        lam = rng.uniform(0.1, 10.0, samples)
        rows.append((consts, *_lemma1_check(consts, grid_1d, a, b, lam)))
    return rows


def _cmd_verify_lemma1(args) -> int:
    rows = _lemma1_rows(args)
    ok = True
    for c, worst, dev, line_ok in rows:
        ok = ok and line_ok
        print(
            f"p={c.p:g} E(p)={c.e_p} A={c.a:.6g} B={c.b:.6g} worst_margin={worst:.3e} "
            f"homogeneity_dev={dev:.3e} [{'ok' if line_ok else 'FAIL'}]"
        )
    if args.json:
        consts = [row[0].to_json_dict() for row in rows]
        Path(args.json).write_text(json.dumps(consts, indent=2) + "\n")
    return 0 if ok else 1


def _bundled_scenarios():
    root = resources.files("lplab.scenarios")
    return sorted(
        (entry for entry in root.iterdir() if entry.name.endswith(".json")),
        key=lambda entry: entry.name,
    )


def _cmd_suite(args) -> int:
    # The rows check --seed first, so a refused seed makes no output directory.
    rows = _lemma1_rows(argparse.Namespace(**{**_LEMMA1_DEFAULTS, "seed": args.seed}))
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    lemma_ok = all(row[3] for row in rows)
    code = 0 if lemma_ok else 1
    _write_csv(
        out / "lemma1.csv",
        ("p", "E_p", "A", "B", "worst_margin", "homogeneity_dev"),
        [(c.p, c.e_p, c.a, c.b, worst, dev) for c, worst, dev, _ in rows],
    )
    print(f"lemma1 constants and grid check: {'PASS' if lemma_ok else 'FAIL'}")

    for entry in _bundled_scenarios():
        raw = json.loads(entry.read_text())
        cfg = build_config(raw)
        manifest = run_scenario(cfg, output_dir=out)
        status = "PASS" if manifest.passed else "FAIL"
        code = max(code, _exit_code(manifest))
        summary = ", ".join(f"{p['name']}={p['status']}" for p in manifest.phases)
        print(f"scenario {cfg.name}: {status} ({summary})")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lplab",
        description="Cesaro-mean extraction and convex integral inequalities "
        "on discretized function spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lem = sub.add_parser("verify-lemma1", help="pointwise inequality constants and grid check")
    lem.add_argument("--p", type=float, nargs="+")
    lem.add_argument("--range", type=float, help="scan half-range for A")
    lem.add_argument("--step", type=float, help="scan step for A")
    lem.add_argument("--ab-range", type=float)
    lem.add_argument("--ab-step", type=float)
    lem.add_argument("--homogeneity-samples", type=int)
    lem.add_argument("--seed", type=int)
    lem.add_argument("--json", default=None, help="write the constants to this JSON file")
    lem.set_defaults(func=_cmd_verify_lemma1, **_LEMMA1_DEFAULTS)

    for name, phases, help_text in (
        ("probe", ("probe",), "weak/weak* probe only"),
        ("extract", ("probe", "extract"), "extraction with trace CSV"),
        ("liminf", ("probe", "liminf"), "liminf verification"),
        ("run", ("probe", "extract", "liminf"), "full scenario pipeline"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--output-dir", default=None)
        cmd.set_defaults(func=lambda args, ph=phases: _cmd_scenario(args, ph))

    suite = sub.add_parser("suite", help="run all bundled scenarios")
    suite.add_argument("--output-dir", default="suite-out")
    suite.add_argument("--seed", type=int, default=_LEMMA1_DEFAULTS["seed"])
    suite.set_defaults(func=_cmd_suite)

    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (LabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault of the program, not of its input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
