import json
import tracemalloc
import warnings

import pytest

from lplab import cli, gallery
from lplab.cli import build_config, load_config, main
from lplab.errors import ConfigError, InvalidArgumentError


def _custom_table(drop=None, entry=None):
    """Overrides for a custom sequence of 8 constant members on the 512-node grid."""
    table = {i: [0.5 * (-1) ** i] * 512 for i in range(1, 9) if i != drop}
    if entry is not None:
        table[entry[0]] = entry[1]
    return {"horizon": 8, "sequence": [{"kind": "custom", "params": {"table": table}}]}


def _base_config(**overrides):
    raw = {
        "name": "unit",
        "grid": {"dimension": 1, "box": [[0.0, 1.0]], "resolution": [512]},
        "p": 2.0,
        "m": 1,
        "sequence": [{"kind": "oscillatory", "amplitude": 1.0, "params": {"base": 1.0}}],
        "limit": [{"kind": "constant", "amplitude": 0.0, "params": {"value": 0.0}}],
        "region": {"type": "full"},
        "horizon": 32,
        "extraction": "p>1",
    }
    raw.update(overrides)
    return raw


def test_config_roundtrip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_base_config()))
    cfg = load_config(path)
    assert cfg.name == "unit"
    assert cfg.horizon == 32
    assert cfg.extraction_mode == "p>1"


def test_config_digest_is_stable():
    cfg1 = build_config(_base_config())
    cfg2 = build_config(_base_config())
    assert cfg1.digest == cfg2.digest


@pytest.mark.parametrize(
    "overrides",
    [
        {"p": 1.0},  # extraction mode inconsistent with p
        {"p": 0.5},
        {"horizon": 4},
        {"extraction": "bogus"},
        {"sequence": [{"kind": "nonsense"}]},
        {"m": 3},
        {"R_schedule": [1.0]},  # R schedule without the sup exponent
        {"horizon": 128},  # 512 nodes cannot resolve 128 oscillation cycles
        # a 512 MiB member pool, over the pool budget
        {"grid": {"dimension": 1, "box": [[0.0, 1.0]], "resolution": [1 << 20]},
         "horizon": 64},
        # strings or numbers where the schema has an object
        {"sequence": ["oscillatory"]},
        {"limit": [0.0]},
        {"region": "full"},
        {"f": "squared_norm"},
        {"f": {"kind": "squared_norm", "K": "whole_space"}},
        # expect fields the phases could not compare against
        {"expect": {"cesaro_slope": 5}},
        {"expect": {"cesaro_slope": [-0.4, -0.6]}},
        {"expect": {"tail_inf_range": [0.0, "1"]}},
        {"expect": {"cesaro_drop": [0.5]}},
        {"expect": {"probe_verdict": "converged"}},
        {"expect": {"liminf_refusal": "yes"}},
        # f and K parameters of another dimension than m = 1
        {"f": {"kind": "max_affine", "params": {"planes": [[[1.0, 2.0], 0.0]]}}},
        {"f": {"kind": "squared_norm",
               "K": {"kind": "halfspaces", "params": {"halfspaces": [[[1.0, 0.0], 1.0]]}}}},
        {"f": {"kind": "squared_norm",
               "K": {"kind": "box", "params": {"bounds": [[-1.0, 1.0], [-1.0, 1.0]]}}}},
        {"f": {"kind": "squared_norm",
               "K": {"kind": "ball", "params": {"center": [0.0, 0.0]}}}},
        # values a phase would refuse only after the probe ran
        {"name": "a/b"},  # the outputs could not be written
        {"levels": 0},
        {"p": float("nan"), "extraction": "none"},
        {"p": "infinity", "extraction": "none", "R_schedule": [2.0, 1.0]},
        # an empty schedule would silently run the closed-K route
        {"p": "infinity", "extraction": "none", "R_schedule": []},
        {"p": "infinity", "extraction": "none", "R_schedule": [float("nan")]},
        # custom tables with a gap, a wrong-length entry, a non-finite entry
        _custom_table(drop=5),
        _custom_table(entry=(3, [1.0, 2.0])),
        _custom_table(entry=(6, [float("nan")] * 512)),
    ],
)
def test_config_validation_errors(overrides):
    with pytest.raises(ConfigError):
        build_config(_base_config(**overrides))


def test_config_accepts_one_component_box_and_ball_for_every_m():
    seq = [{"kind": "oscillatory"}] * 2
    limit = [{"kind": "constant"}] * 2
    for K in ({"kind": "box", "params": {"bounds": [[-1.0, 1.0]]}}, {"kind": "ball"}):
        cfg = build_config(_base_config(
            m=2, sequence=seq, limit=limit, f={"kind": "squared_norm", "K": K},
        ))
        assert cfg.K.kind == K["kind"]


def test_cli_run_bad_expect_exits_2_before_any_phase(tmp_path, capsys):
    path = tmp_path / "bad-expect.json"
    path.write_text(json.dumps(_base_config(expect={"cesaro_slope": 5})))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "expect.cesaro_slope" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_field():
    raw = _base_config()
    del raw["horizon"]
    with pytest.raises(ConfigError, match="horizon"):
        build_config(raw)


def test_cli_missing_config_file(tmp_path, capsys):
    rc = main(["extract", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_base_config(p=1.0)))
    rc = main(["extract", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "p>1" in err or "extraction" in err


def test_cli_verify_lemma1_smoke(capsys):
    rc = main(["verify-lemma1", "--p", "2", "--homogeneity-samples", "1000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "E(p)=1" in out
    assert "B=0" in out
    assert "A=1.01" in out


def test_cli_run_oscillatory_scenario(tmp_path, capsys):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(_base_config(
        horizon=40,
        expect={"probe_verdict": "inconclusive", "cesaro_slope": [-0.6, -0.4]},
    )))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "extraction: pass" in out
    trace = (tmp_path / "out" / "unit.trace.csv").read_text().splitlines()
    assert trace[0] == "k,selected_index,max_pairing,partial_norm_p,cesaro_norm,bound_margin"
    assert len(trace) == 41
    manifest = json.loads((tmp_path / "out" / "unit.manifest.json").read_text())
    assert manifest["passed"] is True
    assert {p["name"] for p in manifest["phases"]} == {
        "probe", "extraction", "growth_bound", "cesaro"
    }


def test_cli_probe_subcommand(tmp_path):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(_base_config(extraction="none", horizon=16,
                                            expect={"probe_verdict": "inconclusive"})))
    rc = main(["probe", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "unit.probe.csv").read_text().splitlines()
    assert rows[0] == "index,residual,verdict"
    assert len(rows) == 17


def test_cli_liminf_subcommand(tmp_path, capsys):
    raw = _base_config(
        grid={"dimension": 1, "box": [[0.0, 1.0]], "resolution": [1024]},
        horizon=128,
        extraction="none",
        f={"kind": "squared_norm", "nonnegative": True,
           "K": {"kind": "whole_space", "closed": True}},
    )
    path = tmp_path / "liminf.json"
    path.write_text(json.dumps(raw))
    rc = main(["liminf", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "unit.liminf.csv").read_text().splitlines()
    assert rows[0] == "i,alpha_i,tail_inf,limit_integral,margin"
    assert len(rows) == 129


def test_cli_reproducible_csv_bodies(tmp_path):
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(_base_config(
        horizon=40, expect={"probe_verdict": "inconclusive"},
    )))
    for d in ("one", "two"):
        rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / d)])
        assert rc == 0
    for name in ("unit.probe.csv", "unit.trace.csv"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second


def test_cli_failed_math_exits_1(tmp_path, capsys):
    # expecting a slope window the curve does not satisfy
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(_base_config(
        horizon=40, expect={"cesaro_slope": [-0.2, -0.1]},
    )))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 1


def test_cli_verify_lemma1_json_export(tmp_path):
    out = tmp_path / "constants.json"
    rc = main([
        "verify-lemma1", "--p", "2", "3",
        "--homogeneity-samples", "0", "--json", str(out),
    ])
    assert rc == 0
    consts = json.loads(out.read_text())
    assert [c["p"] for c in consts] == [2.0, 3.0]
    assert set(consts[0]) == {"p", "E_p", "A", "B", "scan_range", "scan_step"}
    assert consts[1]["B"] == pytest.approx(3.0)


def test_cli_extract_single_positive_cesaro_point_writes_manifest(tmp_path, capsys):
    # Members +1, -1, then zeros: the Cesaro curve is [1, 0, 0, ...], so no
    # log-log line through its positive points exists.
    table = {"1": [1.0] * 64, "2": [-1.0] * 64}
    table.update({str(i): [0.0] * 64 for i in range(3, 9)})
    path = tmp_path / "one-point.json"
    path.write_text(json.dumps(_base_config(
        grid={"dimension": 1, "box": [[0.0, 1.0]], "resolution": [64]},
        sequence=[{"kind": "custom", "params": {"table": table}}],
        horizon=8,
    )))
    rc = main(["extract", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc in (0, 1)
    manifest = json.loads((tmp_path / "out" / "unit.manifest.json").read_text())
    cesaro = next(p for p in manifest["phases"] if p["name"] == "cesaro")
    assert "no slope fit" in cesaro["detail"]


def test_pool_budget_refused_before_the_grid_is_built(tmp_path, capsys):
    # 512 members on 2^20 nodes would take 4 GiB; the 2^20-node grid alone
    # takes tens of MiB, so the refusal must come first
    raw = _base_config(
        grid={"dimension": 1, "box": [[0.0, 1.0]], "resolution": [1 << 20]}, horizon=512
    )
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="over the budget"):
            build_config(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert "over the budget" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_phase_library_error_is_recorded_and_exits_2(tmp_path, monkeypatch, capsys):
    # every phase that needs the member pool raises; the run still ends with a manifest
    def failing_build(*args):
        raise InvalidArgumentError("pool build refused")

    monkeypatch.setattr(gallery, "_build_pool", failing_build)
    path = tmp_path / "error.json"
    path.write_text(json.dumps(_base_config(f={"kind": "squared_norm"})))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
    manifest = json.loads((out / "unit.manifest.json").read_text())
    assert manifest["passed"] is False
    assert [(p["name"], p["status"]) for p in manifest["phases"]] == [
        ("probe", "error"),
        ("extraction", "error"),
        ("growth_bound", "skipped"),
        ("cesaro", "skipped"),
        ("liminf", "error"),
    ]
    assert all(p["detail"] == "pool build refused" for p in manifest["phases"]
               if p["status"] == "error")
    assert manifest["outputs"] == []
    assert sorted(f.name for f in out.iterdir()) == ["unit.manifest.json"]
    assert "probe: error (pool build refused)" in capsys.readouterr().out


def test_cli_internal_error_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    def broken_probe(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "weak_probe", broken_probe)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(_base_config()))
    assert main(["probe", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_cli_verify_lemma1_refused_exponent_exits_2(capsys):
    assert main(["verify-lemma1", "--p", "0.5", "--homogeneity-samples", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_suite_phase_library_error_exits_2(tmp_path, monkeypatch, capsys):
    def failing_build(*args):
        raise InvalidArgumentError("pool build refused")

    monkeypatch.setattr(gallery, "_build_pool", failing_build)
    assert main(["suite", "--output-dir", str(tmp_path)]) == 2
    assert "=error" in capsys.readouterr().out


def _trace_column(path, name):
    lines = path.read_text().splitlines()
    column = lines[0].split(",").index(name)
    return [float(line.split(",")[column]) for line in lines[1:]]


def test_cli_run_huge_amplitude_normalizes_like_a_moderate_one(tmp_path, capsys):
    # Members of amplitude 1e200 have p-th powers past the float range.  Both
    # runs normalize their members to unit norm (amplitude 2 gives norm
    # sqrt(2) > 1), so their Cesaro curves agree.
    curves = {}
    for amplitude in (2.0, 1e200):
        path = tmp_path / f"{amplitude}.json"
        path.write_text(json.dumps(_base_config(
            grid={"dimension": 1, "box": [[0.0, 1.0]], "resolution": [64]},
            sequence=[{"kind": "oscillatory", "amplitude": amplitude}],
            horizon=8,
            expect={"probe_verdict": "inconclusive"},
        )))
        out = tmp_path / f"out-{amplitude}"
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "unit.manifest.json").read_text())
        cesaro = [p for p in manifest["phases"] if p["name"] == "cesaro"][0]
        assert "identically zero" not in cesaro["detail"]
        curves[amplitude] = _trace_column(out / "unit.trace.csv", "cesaro_norm")
    capsys.readouterr()
    assert curves[1e200] == pytest.approx(curves[2.0], rel=1e-12, abs=0.0)
    assert min(curves[1e200]) > 0.0


def test_cli_run_non_finite_integrand_is_an_error_without_warnings(tmp_path, capsys):
    # f = |u|^2 of members of amplitude 1e200 overflows to inf: the liminf
    # phase refuses it instead of comparing infinities.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_base_config(
        grid={"dimension": 1, "box": [[0.0, 1.0]], "resolution": [2048]},
        sequence=[{"kind": "oscillatory", "amplitude": 1e200}],
        horizon=128,
        extraction="none",
        f={"kind": "squared_norm"},
    )))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", str(path), "--output-dir", str(out)])
    assert rc == 2
    assert caught == []
    assert "Warning" not in capsys.readouterr().err
    manifest = json.loads((out / "unit.manifest.json").read_text())
    liminf = [p for p in manifest["phases"] if p["name"] == "liminf"][0]
    assert liminf["status"] == "error"
    assert "sequence member 1" in liminf["detail"] and "not finite" in liminf["detail"]
