import argparse
import json
import os
import platform
import re
import runpy
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lplab import (
    ConvexFunctionSpec,
    ConvexSetSpec,
    SequenceSpec,
    build_uniform_grid,
    cli,
    extraction,
    gallery,
    generate,
)
from lplab.cli import build_config, load_config, main
from lplab.errors import ConfigError, InvalidArgumentError
from lplab.extraction import InequalityConstants, check_pointwise_inequality
from lplab.grid import _rounding_budget


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
        {"extraction": "p=1"},  # and the other mode, at p = 2
        {"p": 0.5},
        {"p": "x"},  # a string other than 'infinity'
        {"horizon": 4},
        {"horizon": 7},  # the probe's own bound, one below 8
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
        {"region": {"type": "hexagon"}},
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
        {"name": ""},  # the outputs would be the hidden files .probe.csv and .manifest.json
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
        # integer fields given a non-integral number, a string or a bool
        {"horizon": 16.5},
        {"horizon": "16"},
        {"levels": 2.5},
        {"levels": "3"},
        {"levels": True},
        {"m": 1.5},
        # counts in the grid, under the same integer rule
        {"grid": {"dimension": 1.7, "box": [[0.0, 1.0]], "resolution": [512]}},
        {"grid": {"dimension": 1, "box": [[0.0, 1.0]], "resolution": [256.9]}},
        {"grid": {"dimension": 1, "box": [[0.0, 1.0]], "resolution": [True]}},
        {"grid": {"dimension": 1, "box": [[0.0, 1.0]], "resolution": 2.5}},
        # a required field that is null reads as missing
        {"name": None},
        {"horizon": None},
        {"region": {"type": "ball", "radius": None}},
        # a region, or a first truncation radius, that holds no node
        {"region": {"type": "ball", "radius": 1e-9}},
        {"region": {"type": "box", "bounds": [[2.0, 3.0]]}},
        {"p": "infinity", "extraction": "none", "R_schedule": [1e-9, 1.0]},
        # a drop that no Cesaro curve can be compared with (json reads NaN)
        {"expect": {"cesaro_drop": float("nan")}},
        # a drop below zero, which no ratio of norms can meet
        {"expect": {"cesaro_drop": -1.0}},
        # flags that are not JSON booleans: bool() read each of these as true
        {"f": {"kind": "squared_norm", "nonnegative": "false"}},
        {"f": {"kind": "squared_norm", "nonnegative": 0}},
        {"f": {"kind": "squared_norm", "K": {"kind": "ball", "closed": "no"}}},
        # numbers that are not JSON numbers: float() read true as 1.0 and "2.5" as 2.5
        {"sequence": [{"kind": "oscillatory", "amplitude": True}]},
        {"sequence": [{"kind": "oscillatory", "params": {"base": "2.5"}}]},
        {"limit": [{"kind": "constant", "params": {"value": "0"}}]},
        {"f": {"kind": "power", "params": {"power": "2.5"}}},
        {"f": {"kind": "squared_norm", "K": {"kind": "ball", "params": {"radius": True}}}},
        {"region": {"type": "ball", "radius": "0.5"}},
        {"p": "infinity", "extraction": "none", "R_schedule": [True]},
        # radii that are not finite numbers above zero
        {"region": {"type": "ball", "radius": 0.0}},
        {"region": {"type": "ball", "radius": float("inf")}},
        {"p": "infinity", "extraction": "none", "R_schedule": [0.5, float("inf")]},
        {"f": {"kind": "squared_norm", "K": {"kind": "ball", "params": {"radius": 0.0}}}},
        # two equal radii: the schedule must increase strictly
        {"p": "infinity", "extraction": "none", "R_schedule": [1.0, 1.0]},
        # integers beyond the float range, where float() raised OverflowError (exit 3)
        {"sequence": [{"kind": "oscillatory", "amplitude": 10 ** 400}]},
        {"region": {"type": "ball", "radius": 10 ** 400}},
    ],
)
def test_config_validation_errors(overrides):
    with pytest.raises(ConfigError):
        build_config(_base_config(**overrides))


@pytest.mark.parametrize(
    "overrides",
    [
        {"expect": {"cesaro_slope": [-0.5, -0.5], "tail_inf_range": [0.0, 0.0]}},
        {"f": {"kind": "squared_norm", "K": {"kind": "box", "params": {"bounds": [[0.0, 0.0]]}}}},
        {"f": {"kind": "squared_norm", "nonnegative": False,
               "K": {"kind": "ball", "params": {"radius": 5e-324}, "closed": False}}},
        {"sequence": [{"kind": "oscillatory", "amplitude": 2, "params": {"base": 1}}]},
    ],
    ids=["window-x-x", "box-lo-eq-hi", "flags-false-tiny-radius", "integer-numbers"],
)
def test_config_accepts_the_edge_of_each_field(overrides):
    cfg = build_config(_base_config(**overrides))
    if "f" in overrides:
        f = overrides["f"]
        assert cfg.f.nonnegative is f.get("nonnegative", True)
        assert cfg.K.closed is f["K"].get("closed", True)
    if "sequence" in overrides:
        (spec,) = cfg.sequence.components
        assert (spec.amplitude, spec.base) == (2.0, 1.0) and type(spec.amplitude) is float


def test_config_accepts_integral_floats_in_integer_fields():
    grid = {"dimension": 1.0, "box": [[0.0, 1.0]], "resolution": [512.0]}
    cfg = build_config(_base_config(horizon=16.0, levels=3.0, m=1.0, grid=grid))
    assert (cfg.horizon, cfg.levels, cfg.m, cfg.grid.resolution) == (16, 3, 1, (512,))
    assert all(type(v) is int for v in (cfg.horizon, cfg.levels, cfg.m, *cfg.grid.resolution))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("horizon", 8.5, "probe horizon must be an integer, got 8.5"),
        ("horizon", "16", "probe horizon must be an integer, got '16'"),
        ("levels", "3", "the level count (need at least one level) must be an integer, got '3'"),
        ("levels", 0, "the level count (need at least one level) must be >= 1, got 0"),
    ],
    ids=["horizon-8.5", "horizon-string", "levels-string", "levels-0"],
)
def test_the_horizon_and_the_levels_are_read_once_by_the_library_check(field, value, message):
    with pytest.raises(ConfigError, match="^invalid config value: " + re.escape(message) + "$"):
        build_config(_base_config(**{field: value}))


@pytest.mark.parametrize(
    "overrides, missing",
    [
        ({"name": None}, "name"),
        ({"horizon": None}, "horizon"),
        ({"grid": {"box": [[0.0, 1.0]], "resolution": None}}, "resolution"),
        ({"region": {"type": "ball", "radius": None}}, "radius"),
        ({"sequence": [{"kind": None}]}, "kind"),
    ],
)
def test_a_null_required_field_reads_as_missing(overrides, missing):
    with pytest.raises(ConfigError, match=f"^missing config field '{missing}'$"):
        build_config(_base_config(**overrides))


def test_a_null_optional_field_takes_its_default():
    default = build_config(_base_config(f={"kind": "squared_norm"}))
    cfg = build_config(_base_config(
        grid={"dimension": None, "box": [[0.0, 1.0]], "resolution": [512]},
        m=None,
        sequence=[{"kind": "oscillatory", "amplitude": None, "params": {"base": None}}],
        limit=[{"kind": "constant", "amplitude": None, "params": None}],
        region=None,
        levels=None,
        f={"kind": "squared_norm", "params": None, "K": None, "nonnegative": None},
        R_schedule=None,
        expect=None,
        output_dir=None,
    ))
    for name in ("p", "m", "sequence", "horizon", "extraction_mode", "f", "K", "r_schedule",
                 "levels", "expect", "output_dir"):
        assert getattr(cfg, name) == getattr(default, name), name
    assert cfg.levels == 4 and cfg.region.included.all()
    assert cfg.grid.resolution == default.grid.resolution
    assert np.array_equal(cfg.limit.matrix(), default.limit.matrix())


@pytest.mark.parametrize("horizon", [7, 8])
def test_the_horizon_starts_at_8_in_the_config_and_in_the_probe(horizon):
    grid = build_uniform_grid([[0.0, 1.0]], 512)
    seq = gallery.VectorSequenceSpec([SequenceSpec(kind="oscillatory")])
    limit = gallery.generate_vector(
        gallery.VectorSequenceSpec([SequenceSpec(kind="constant")]), 1, grid
    )

    def probe():
        return gallery.weak_probe(seq, limit, 2.0, gallery.default_probe_dictionary(grid), horizon)

    if horizon == 8:
        assert build_config(_base_config(horizon=horizon)).horizon == 8
        assert probe().residuals.size == 8
        return
    message = "probe horizon must be >= 8, got 7"
    with pytest.raises(ConfigError, match=f"^invalid config value: {message}$"):
        build_config(_base_config(horizon=horizon))
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        probe()


_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@pytest.mark.parametrize(
    "p, mode, refusal",
    [
        (1.0, "none", None),
        (1.0, "p=1", None),
        (_BELOW_ONE, "none", f"exponent must be >= 1 or INFINITY, got {_BELOW_ONE}"),
        (1.0, "p>1", "extraction mode 'p>1' needs finite p > 1, got 1.0"),
        (float(np.nextafter(1.0, 2.0)), "p>1", None),
    ],
)
def test_the_config_refuses_an_exponent_with_the_librarys_check(tmp_path, capsys, p, mode, refusal):
    raw = _base_config(p=p, extraction=mode)
    if refusal is None:
        assert build_config(raw).p == p
        return
    with pytest.raises(ConfigError, match="^invalid config value: " + re.escape(refusal) + "$"):
        build_config(raw)
    path = tmp_path / "bad-p.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert refusal in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_one_level_p1_extraction_runs_to_completion(tmp_path):
    entry = next(e for e in cli._bundled_scenarios() if e.name.startswith("a3-"))
    raw = dict(json.loads(entry.read_text()), levels=1)
    manifest = cli.run_scenario(build_config(raw), output_dir=tmp_path)
    statuses = [(phase["name"], phase["status"]) for phase in manifest.phases]
    assert statuses == [("probe", "pass"), ("extraction", "pass"), ("cesaro", "pass")]
    assert manifest.phases[1]["detail"].startswith("levels=1 picks=512 ")


def test_config_accepts_one_component_box_and_ball_for_every_m():
    seq = [{"kind": "oscillatory"}] * 2
    limit = [{"kind": "constant"}] * 2
    for K in ({"kind": "box", "params": {"bounds": [[-1.0, 1.0]]}}, {"kind": "ball"}):
        cfg = build_config(_base_config(
            m=2, sequence=seq, limit=limit, f={"kind": "squared_norm", "K": K},
        ))
        assert cfg.K.kind == K["kind"]


def _squared_norm_on(K):
    """The configuration object of f = |w|^2 on K."""
    return {"kind": "squared_norm", "K": K}


def _f_and_K(f):
    """The f and K specs a configuration's f object builds; K is R^m when f names none."""
    return ConvexFunctionSpec.from_config(f), ConvexSetSpec.from_config(
        f.get("K", {"kind": "whole_space"})
    )


# Each names a parameter of K, or of f itself, set to the value v.
_K_PARAMETERS = {
    "ball center": lambda v: _squared_norm_on(
        {"kind": "ball", "params": {"center": [v], "radius": 1.0}}
    ),
    "ball radius": lambda v: _squared_norm_on(
        {"kind": "ball", "params": {"center": [0.0], "radius": v}}
    ),
    "box bounds": lambda v: _squared_norm_on({"kind": "box", "params": {"bounds": [[-1.0, v]]}}),
    "halfspace normal": lambda v: _squared_norm_on(
        {"kind": "halfspaces", "params": {"halfspaces": [[[v], 1.0]]}}
    ),
    "halfspace offset": lambda v: _squared_norm_on(
        {"kind": "halfspaces", "params": {"halfspaces": [[[1.0], v]]}}
    ),
    "power": lambda v: {"kind": "power", "params": {"power": v}},
    "max_affine plane normal": lambda v: {
        "kind": "max_affine", "params": {"planes": [[[v], 0.0]]}
    },
    "max_affine plane offset": lambda v: {
        "kind": "max_affine", "params": {"planes": [[[1.0], v]]}
    },
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("parameter", list(_K_PARAMETERS))
def test_a_non_finite_K_parameter_is_refused_by_name_and_exits_2(
    tmp_path, capsys, parameter, value
):
    f = _K_PARAMETERS[parameter](value)
    with pytest.raises(InvalidArgumentError, match=f"^{parameter} must be finite"):
        _f_and_K(f)
    path = tmp_path / "bad-K.json"
    path.write_text(json.dumps(_base_config(f=f)))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"{parameter} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "f, message",
    [
        (_squared_norm_on({"kind": "box", "params": {"bounds": [[1.0, -1.0]]}}),
         "box bounds need lo <= hi"),
        (_squared_norm_on({"kind": "box"}), "box bounds must be (lo, hi) pairs"),
        (_squared_norm_on({"kind": "box", "params": {"bounds": [-1.0, 0.0, 1.0]}}),
         "box bounds must be (lo, hi)"),
        (_squared_norm_on({"kind": "halfspaces", "params": {"halfspaces": [[[1.0]]]}}),
         "halfspaces must be (a, b)"),
        (_squared_norm_on({"kind": "box", "params": {"bounds": []}}),
         "box bounds must be (lo, hi) pairs, at least one"),
        (_squared_norm_on({"kind": "halfspaces", "params": {"halfspaces": [[[], 1.0]]}}),
         "halfspace normal must be nonempty"),
        ({"kind": "max_affine", "params": {"planes": [[[1.0]]]}},
         "max_affine planes must be (a, b) pairs"),
        ({"kind": "max_affine", "params": {"planes": [[[], 0.0]]}},
         "max_affine plane normal must be nonempty"),
    ],
    ids=["inverted-box", "box-without-bounds", "odd-box-bounds", "halfspace-without-offset",
         "empty-box-bounds", "halfspace-with-empty-normal", "plane-without-offset",
         "plane-with-empty-normal"],
)
def test_a_malformed_K_is_refused_by_name_and_exits_2(tmp_path, capsys, f, message):
    with pytest.raises(InvalidArgumentError, match="^" + re.escape(message)):
        _f_and_K(f)
    path = tmp_path / "bad-K.json"
    path.write_text(json.dumps(_base_config(f=f)))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"grid": {"dimension": 1, "box": [[0.0, 1.0, 2.0]], "resolution": [512]}},
         "grid box must be (lo, hi) pairs"),
        ({"grid": {"dimension": 1, "box": [], "resolution": [512]}},
         "grid box must be (lo, hi) pairs, at least one"),
        ({"grid": {"dimension": 1, "box": [[0.0, float("nan")]], "resolution": [512]}},
         "grid box must be finite"),
        ({"region": {"type": "box", "bounds": [[float("nan"), 1.0]]}},
         "region bounds must be finite"),
        ({"region": {"type": "box", "bounds": [[0.0, 0.5], [1.0]]}},
         "region bounds must be (lo, hi) pairs"),
        ({"region": {"type": "box", "bounds": [[0.0, 0.5], [0.0, 0.5]]}},
         "field 'region.bounds': wrong dimension"),
    ],
    ids=["odd-grid-box", "empty-grid-box", "nan-grid-box", "nan-region-bound",
         "ragged-region-box", "region-box-of-another-dimension"],
)
def test_a_malformed_grid_or_region_box_is_refused_by_name_and_exits_2(
    tmp_path, capsys, overrides, message
):
    path = tmp_path / "bad-box.json"
    path.write_text(json.dumps(_base_config(**overrides)))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_bad_expect_exits_2_before_any_phase(tmp_path, capsys):
    path = tmp_path / "bad-expect.json"
    path.write_text(json.dumps(_base_config(expect={"cesaro_slope": 5})))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "expect.cesaro_slope" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _custom_sequence(table):
    return {"horizon": 8, "sequence": [{"kind": "custom", "params": {"table": table}}]}


@pytest.mark.parametrize(
    "overrides, message",
    [
        # a non-object where an object belongs
        ({"grid": "box"}, "field 'grid' must be an object, got 'box'"),
        ({"region": "full"}, "field 'region' must be an object, got 'full'"),
        ({"f": "squared_norm"}, "field 'f' must be an object, got 'squared_norm'"),
        ({"f": {"kind": "squared_norm", "K": "whole_space"}},
         "convex set K must be an object, got 'whole_space'"),
        ({"expect": "converging"}, "field 'expect' must be an object, got 'converging'"),
        ({"sequence": [{"kind": "oscillatory", "params": "base"}]},
         "sequence spec params must be an object, got 'base'"),
        ({"f": {"kind": "power", "params": "power"}},
         "convex function f params must be an object, got 'power'"),
        ({"f": {"kind": "squared_norm", "K": {"kind": "ball", "params": [1]}}},
         "convex set K params must be an object, got [1]"),
        ({"sequence": [5]}, "sequence spec must be an object, got 5"),
        # a non-array where an array belongs
        ({"sequence": 5}, "field 'sequence' must be an array, got 5"),
        ({"sequence": {"kind": "oscillatory"}},
         "field 'sequence' must be an array, got {'kind': 'oscillatory'}"),
        ({"limit": 5}, "field 'limit' must be an array, got 5"),
        ({"p": "infinity", "extraction": "none", "R_schedule": 3.0},
         "field 'R_schedule' must be an array, got 3.0"),
        # custom tables that are not an object of index keys and number entries
        (_custom_sequence([1]), "custom table must be an object, got [1]"),
        (_custom_sequence({"x": [1.0] * 512}), "custom table key must be an integer, got 'x'"),
        (_custom_sequence({"0": [1.0] * 512}), "custom table key must be >= 1, got 0"),
        (_custom_sequence({"1": ["a"]}), "custom table entry 1 must be a number, got 'a'"),
        (_custom_sequence({"1": [[1.0], [1.0, 2.0]]}),
         "custom table entry 1 must be a number, got [1.0]"),
        # a non-string where a string belongs: str() once read each of these as text
        ({"name": 5}, "field 'name' must be a string, got 5"),
        ({"name": [1]}, "field 'name' must be a string, got [1]"),
        ({"name": True}, "field 'name' must be a string, got True"),
        ({"output_dir": 5}, "field 'output_dir' must be a string, got 5"),
        ({"extraction": 1}, "field 'extraction' must be a string, got 1"),
        ({"region": {"type": True}}, "field 'region.type' must be a string, got True"),
        ({"sequence": [{"kind": 3}]}, "sequence spec kind must be a string, got 3"),
        ({"f": {"kind": ["power"]}}, "convex function f kind must be a string, got ['power']"),
        # an expect window is one (lo, hi) pair, quoted as given
        ({"expect": {"cesaro_slope": 5}},
         "field 'expect.cesaro_slope' must be one (lo, hi) pair with lo <= hi, got 5"),
        ({"expect": {"tail_inf_range": [[0.0, 1.0]]}},
         "field 'expect.tail_inf_range' must be one (lo, hi) pair with lo <= hi, got [[0.0, 1.0]]"),
    ],
)
def test_a_config_value_of_the_wrong_kind_or_shape_is_refused_by_name_and_writes_nothing(
    tmp_path, monkeypatch, capsys, overrides, message
):
    monkeypatch.chdir(tmp_path)  # a configured output_dir is relative to here
    (tmp_path / "bad.json").write_text(json.dumps(_base_config(**overrides)))
    assert main(["run", "--config", "bad.json"]) == 2
    assert capsys.readouterr().err.endswith(f"{message}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["bad.json"]


def test_a_fault_in_a_config_reader_exits_3_not_2(tmp_path, monkeypatch, capsys):
    # build_config turns only a missing field and a library refusal into exit 2,
    # so a fault of the program in a reader is not reported as a bad configuration.
    def broken_reader(*args):
        raise TypeError("broken reader")

    monkeypatch.setattr(cli, "_given", broken_reader)
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(_base_config()))
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "internal error: TypeError: broken reader\n"
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
    # a file that is not JSON is refused with the line of the first error
    path.write_text('{"name": "unit",\n "p": 2.0,,\n}')
    assert main(["extract", "--config", str(path)]) == 2
    assert "bad.json line 2: Expecting property name" in capsys.readouterr().err
    # and a file whose JSON is not an object, by name
    path.write_text("[1]")
    assert main(["extract", "--config", str(path)]) == 2
    assert "the config must be an object, got [1]" in capsys.readouterr().err
    # json.loads raises a plain ValueError or RecursionError for these, not a
    # JSONDecodeError: an integer over Python's 4300-digit limit, bytes that
    # are not UTF-8, and arrays nested deeper than the recursion limit
    for text, message in [
        (json.dumps(_base_config()).replace('"horizon": 32', '"horizon": ' + "9" * 5001).encode(),
         "Exceeds the limit (4300 digits)"),
        (b"\xff{", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 200000, "maximum recursion depth exceeded"),
    ]:
        path.write_bytes(text)
        assert main(["extract", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path}: ") and message in err


def test_cli_verify_lemma1_smoke(capsys):
    rc = main(["verify-lemma1", "--p", "2", "--homogeneity-samples", "1000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "E(p)=1" in out
    assert "B=0" in out
    assert "A=1.01" in out


def test_cli_verify_lemma1_grid_margins_are_read_at_the_scale_of_their_terms(capsys):
    # The terms grow like 20^p: at p = 7 the worst margin, -1.863e-09, is
    # rounding noise, and an absolute tolerance of 1e-9 read it as [FAIL].
    assert main(["verify-lemma1", "--p", "7", "7.5", "8", "12", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 5 and "worst_margin=-1.863e-09" in out


def test_cli_verify_lemma1_fails_an_a_below_the_scanned_sup(monkeypatch, capsys):
    # At p = 1.5 the sup of the b = 1 residual is about 1.31; A = 1 is too small.
    def build(cls, p, t_max=100.0, step=1e-3):
        return InequalityConstants(p=p, e_p=1, a=1.0, b=0.0, scan_range=t_max, scan_step=step)

    monkeypatch.setattr(InequalityConstants, "build", classmethod(build))
    assert main(["verify-lemma1", "--p", "1.5"]) == 1
    out = capsys.readouterr().out
    assert "A=1 " in out and out.rstrip().endswith("[FAIL]")


def _meshgrid_lemma1(p, grid_1d, consts):
    """(worst, grid pass) from the margins over the whole (a, b) meshgrid as one array.

    The blocked check broadcasts a column of a against the row of b instead;
    its margins are checked here to keep every bit of the meshgrid's.
    """
    a, b = (axis.ravel() for axis in np.meshgrid(grid_1d, grid_1d, indexing="ij"))
    margins = check_pointwise_inequality(p, a, b, consts)
    broadcast = check_pointwise_inequality(p, grid_1d[:, None], grid_1d[None, :], consts)
    assert np.array_equal(broadcast.ravel().view(np.uint64), margins.view(np.uint64))
    low = margins < 0.0
    sizes = extraction._lemma1_scale(p, a[low], b[low], consts.a)
    budget = _rounding_budget(2 * consts.e_p + 5, sizes)
    return float(margins.min()), bool(np.all(margins[low] >= -budget))


@pytest.mark.parametrize("ps", [cli._LEMMA1_DEFAULTS["p"], (7.5, 8.0, 12.0, 20.0)])
@pytest.mark.parametrize("ab_range, ab_step", [(10.0, 0.05), (10.0, 0.07), (1.0, 2.0)])
def test_the_blocked_grid_check_equals_the_meshgrid_evaluation(ps, ab_range, ab_step):
    # 401 rows of a are 20 blocks of 20 rows and one of 1, 286 rows are 10
    # blocks of 28 and one of 6, and the 2-point grid is one block.
    args = {"p": ps, "ab_range": ab_range, "ab_step": ab_step, "homogeneity_samples": 100}
    rows = cli._lemma1_rows(argparse.Namespace(**{**cli._LEMMA1_DEFAULTS, **args}))
    grid_1d = np.arange(-ab_range, ab_range + ab_step / 2, ab_step)
    for consts, worst, dev, ok in rows:
        expected_worst, grid_ok = _meshgrid_lemma1(consts.p, grid_1d, consts)
        assert worst.hex() == expected_worst.hex(), consts.p
        assert ok == (grid_ok and dev <= extraction._HOMOGENEITY_TOL), consts.p


def test_the_blocked_grid_check_fails_where_the_meshgrid_evaluation_fails(monkeypatch):
    # A = 1 is below the sup at p = 1.5 (about 1.31): negative margins beyond
    # their budget, in several blocks.
    def build(cls, p, t_max=100.0, step=1e-3):
        return InequalityConstants(p=p, e_p=1, a=1.0, b=0.0, scan_range=t_max, scan_step=step)

    monkeypatch.setattr(InequalityConstants, "build", classmethod(build))
    args = argparse.Namespace(**{**cli._LEMMA1_DEFAULTS, "p": (1.5,), "homogeneity_samples": 100})
    [(consts, worst, _, ok)] = cli._lemma1_rows(args)
    grid_1d = np.arange(-10.0, 10.0 + 0.025, 0.05)
    assert (worst, ok) == _meshgrid_lemma1(1.5, grid_1d, consts)
    assert not ok


def _weak_star_config(**overrides):
    """The bundled sup-norm scenario, a6, with overrides."""
    entry = next(e for e in cli._bundled_scenarios() if e.name.startswith("a6-"))
    raw = json.loads(entry.read_text())
    raw.update(overrides)
    return raw


@pytest.mark.parametrize(
    "overrides, replays",
    [
        ({}, 2),  # one p = 1 replay per distinct truncation: R = 1 and R = 2 hold every node
        ({"R_schedule": [0.25, 0.5, 1.0]}, 3),  # three distinct truncations
        ({"p": 1.0, "R_schedule": None}, 1),  # the finite-p route at p = 1
    ],
    ids=["weak_star", "weak_star-distinct", "liminf-p1"],
)
def test_cli_run_selects_with_the_configured_level_count(
    tmp_path, monkeypatch, overrides, replays
):
    received = []
    real_select = extraction._szlenk_select

    def recording_select(members, weights, levels, *rest):
        received.append(levels)
        return real_select(members, weights, levels, *rest)

    monkeypatch.setattr(extraction, "_szlenk_select", recording_select)
    raw = {k: v for k, v in _weak_star_config(levels=5, **overrides).items() if v is not None}
    cli.run_scenario(build_config(raw), output_dir=tmp_path)
    assert received == [5] * replays


@pytest.mark.parametrize(
    "raw, named",
    [
        (_weak_star_config(p=1.0, R_schedule=None, region={"type": "ball", "radius": 1e-9}),
         "the region holds no grid node"),
        (_weak_star_config(grid={"dimension": 1, "box": [[3.0, 4.0]], "resolution": [4096]}),
         "the region truncated at radius 0.5 holds no grid node"),
    ],
    ids=["liminf-p1-ball", "weak_star-shifted-box"],
)
def test_cli_run_empty_region_exits_2_and_writes_nothing(tmp_path, capsys, raw, named):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_cli_run_manifest_names_its_environment(tmp_path):
    path = tmp_path / "unit.json"
    raw = _base_config(horizon=16, extraction="none", expect={"probe_verdict": "inconclusive"})
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "unit.manifest.json").read_text())
    environment = manifest["environment"]
    assert environment == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": environment["blas"]["name"], "version": environment["blas"]["version"]},
        "cpus": gallery._usable_cpus(),
    }
    assert environment["cpus"] >= 1
    assert cli._environment() is cli._environment()  # read once per process


def test_the_console_entry_points_exit_with_mains_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["lplab", "--help"])
    with pytest.raises(SystemExit) as info:
        cli.console_main()
    assert info.value.code == 0
    # python -m lplab.cli, run in this process; the loaded module is set aside,
    # so the run reads a fresh copy of it.
    monkeypatch.delitem(sys.modules, "lplab.cli")
    with pytest.raises(SystemExit) as info:
        runpy.run_module("lplab.cli", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.count("usage: lplab") == 2


@pytest.mark.parametrize("key", ["a0", "a3", "a5", "a6"])
def test_cli_run_on_a_huge_box_refuses_the_overflowing_probe_field(tmp_path, capsys, key):
    # Dilated to [0, 1e200], with the radii: every truncation holds its nodes,
    # and the probe field x1 times the cell weights overflows.  RuntimeWarnings
    # are errors here, so none was raised on the way.
    entry = next(e for e in cli._bundled_scenarios() if e.name.startswith(f"{key}-"))
    raw = json.loads(entry.read_text())
    raw["grid"]["box"] = [[0.0, 1e200]]
    if "R_schedule" in raw:
        raw["R_schedule"] = [1e200 * r for r in raw["R_schedule"]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "probe: error (the probe field x1 overflows on the box [[0.0, 1e+200]]" in captured.out
    assert "Warning" not in captured.out + captured.err


@pytest.mark.parametrize(
    "grid, message",
    [
        # 255.5 * 1e307 overflows: the nodes take the cell width first, and the
        # probe field x1 times the cell weights overflows.
        ({"dimension": 1, "box": [[0.0, 1e307]], "resolution": [256]},
         "probe: error (the probe field x1 overflows on the box [[0.0, 1e+307]]"),
        ({"dimension": 2, "box": [[0.0, 1e160], [0.0, 1e160]], "resolution": [16, 16]},
         "the cell volume of the box [[0.0, 1e+160], [0.0, 1e+160]] at resolution [16, 16]"),
    ],
    ids=["far-nodes", "cell-volume"],
)
def test_cli_run_a0_on_a_grid_near_the_float_limit_exits_2(grid, message, tmp_path, capsys):
    path = tmp_path / "a0.json"
    path.write_text(json.dumps(dict(_bundled("a0-"), grid=grid)))
    rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert message in captured.out + captured.err
    assert "Warning" not in captured.out + captured.err


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
    # expecting a liminf refusal from a scenario whose verification runs
    raw = _bundled("a4-")
    raw["expect"] = {**raw["expect"], "liminf_refusal": True}
    manifest = _run_manifest(tmp_path, raw, 1)
    assert [p["status"] for p in manifest["phases"]][-1] == "fail"
    assert manifest["phases"][-1]["detail"] == "expected a refusal but verification ran"


def test_cli_verify_lemma1_json_export(tmp_path):
    out = tmp_path / "constants.json"
    rc = main([
        "verify-lemma1", "--p", "2", "3",
        "--homogeneity-samples", "1", "--json", str(out),
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


def test_a_probe_that_refutes_weak_convergence_skips_the_extraction(tmp_path):
    raw = _base_config(sequence=[{"kind": "spike"}], expect={"probe_verdict": "not-converging"})
    manifest = cli.run_scenario(build_config(raw), output_dir=tmp_path)
    assert [(p["name"], p["status"], p["detail"]) for p in manifest.phases[1:]] == [
        ("extraction", "skipped", "weak-convergence hypothesis refuted by the probe"),
        ("growth_bound", "skipped", "no trace"),
        ("cesaro", "skipped", "no trace"),
    ]
    assert manifest.passed


def _stalling_p1_config(levels):
    """A p = 1 run at the given level count on an 8-member Rademacher pool."""
    return _base_config(
        p=1.0, sequence=[{"kind": "rademacher"}], horizon=8, extraction="p=1", levels=levels,
        expect={"probe_verdict": "inconclusive"},
    )


_STALL = "level 9 kept only 8 members within the pool of 8; cannot host the diagonal"


def test_a_p1_level_stall_fails_the_extraction_and_skips_the_cesaro_phase(tmp_path, capsys):
    # Level l keeps at most the horizon's 8 members, so level 9 stalls and
    # leaves no trace to read.
    raw = _stalling_p1_config(9)
    manifest = cli.run_scenario(build_config(raw), output_dir=tmp_path / "lib")
    assert [(p["name"], p["status"]) for p in manifest.phases[:1]] == [("probe", "pass")]
    assert [(p["name"], p["status"], p["detail"]) for p in manifest.phases[1:]] == [
        ("extraction", "fail", _STALL),
        ("cesaro", "skipped", "no trace"),
    ]
    assert [Path(o).name for o in manifest.outputs] == ["unit.probe.csv", "unit.manifest.json"]
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "cli")]) == 1
    out = capsys.readouterr().out
    assert f"unit: extraction: fail ({_STALL})\nunit: cesaro: skipped (no trace)\n" in out
    assert sorted(f.name for f in (tmp_path / "cli").iterdir()) == [
        "unit.manifest.json", "unit.probe.csv",
    ]


# The library and the CLI at levels 9 and 10**400, in a child, so that a scan
# over every level fails on the timeout instead of hanging the tests.
_FAR_LEVELS_RUN = """
import json, sys, time
from lplab import LevelStalledError, SequenceSpec, VectorSequenceSpec, build_uniform_grid
from lplab import szlenk_extract
from lplab.cli import main
grid = build_uniform_grid([[0.0, 1.0]], 512)
seq = VectorSequenceSpec([SequenceSpec(kind="rademacher")])
for levels, config in zip((9, 10**400), sys.argv[1:3]):
    start = time.perf_counter()
    try:
        szlenk_extract(seq, grid, levels, 8)
    except LevelStalledError as err:
        print(json.dumps([time.perf_counter() - start, err.level, err.completed, str(err)]))
    main(["extract", "--config", config, "--output-dir", sys.argv[3]])
"""


def test_a_level_count_far_above_the_horizon_stalls_at_once_as_at_horizon_plus_one(tmp_path):
    # Level horizon + 1 always stalls, so the scan stops there: levels = 10**400
    # ends as levels = 9 does, with the same completed levels and the same detail.
    configs = [tmp_path / "near.json", tmp_path / "far.json"]
    for path, levels in zip(configs, (9, 10**400)):
        path.write_text(json.dumps(_stalling_p1_config(levels)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", _FAR_LEVELS_RUN, *map(str, configs), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    lines = done.stdout.splitlines()
    near, far = json.loads(lines[0]), json.loads(lines[4])
    assert near[1:] == far[1:] and near[1] == 9 and near[3] == _STALL
    assert far[0] < 1.0
    assert lines[1:4] == lines[5:8] and lines[2] == f"unit: extraction: fail ({_STALL})"


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
    assert main(["verify-lemma1", "--p", "0.5", "--homogeneity-samples", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_LEMMA1_REFUSALS = [
    (["--ab-step", "0"], "--ab-step"),
    (["--ab-step", "-0.05"], "--ab-step"),
    (["--ab-range", "-1"], "--ab-range"),
    (["--ab-range", "0"], "--ab-range"),
    (["--ab-range", "nan"], "--ab-range"),
    (["--range", "nan"], "--range"),
    (["--step", "nan"], "--step"),
    (["--homogeneity-samples", "0"], "--homogeneity-samples"),
    (["--homogeneity-samples", "-1"], "--homogeneity-samples"),
    (["--ab-range", "1", "--ab-step", "10"], "single point"),
    # a step above the scan's width 2 t_max: A read off the single point t = -100
    (["--step", "1e300"], "the A scan step 1e+300 is above its width 200.0"),
    (["--step", "inf"], "--step"),
]


@pytest.mark.parametrize(
    "args, flag", _LEMMA1_REFUSALS, ids=[" ".join(args) for args, _ in _LEMMA1_REFUSALS]
)
def test_cli_verify_lemma1_refuses_an_empty_or_undefined_check(args, flag, capsys):
    # Each ran into an internal error (exit 3) or passed on no margin (exit 0).
    assert main(["verify-lemma1", "--p", "2", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize(
    "args",
    [["--seed", "0"], ["--homogeneity-samples", "1"], ["--range", "1", "--step", "2"]],
    ids=["seed-0", "one-homogeneity-sample", "step-of-the-whole-width"],
)
def test_cli_verify_lemma1_runs_at_each_bound(args, capsys):
    small = ["--range", "2", "--step", "0.5", "--ab-range", "1", "--ab-step", "0.5",
             "--homogeneity-samples", "2"]
    assert main(["verify-lemma1", "--p", "2", *small, *args]) == 0
    assert "[ok]" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify-lemma1", "suite"])
def test_cli_negative_seed_is_refused_before_any_work(command, tmp_path, capsys):
    # numpy's generator refused it mid-run, an internal error (exit 3).
    argv = [command, "--seed", "-1"]
    argv += ["--p", "2"] if command == "verify-lemma1" else ["--output-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--step", "1e-9"],  # an A scan of 1.46 TiB
        ["--range", "1e300"],  # more A scan points than numpy can index
        ["--ab-step", "1e-4"],  # a 298 GiB (a, b) grid
        ["--homogeneity-samples", "100000000000"],  # 745 GiB of samples
    ],
    ids=lambda args: " ".join(args),
)
def test_cli_verify_lemma1_refuses_an_oversized_array_before_allocating_it(args, capsys):
    # Each asked numpy for the array and died with a MemoryError or a
    # ValueError, an internal error (exit 3).
    start = time.perf_counter()
    assert main(["verify-lemma1", "--p", "2", *args]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bytes, over the budget of {gallery.POOL_BUDGET_BYTES} bytes" in err


@pytest.mark.parametrize("p", ["140", "160"])
def test_cli_verify_lemma1_overflow_is_an_error_not_a_verdict(p, capsys):
    # |t|^p or |lambda (a + b)|^p overflows: numpy warned, and p = 140 then
    # failed on homogeneity_dev=nan (exit 1), p = 160 refused the scan.
    assert main(["verify-lemma1", "--p", p]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and f"p = {p}" in err


@pytest.mark.parametrize(
    "args",
    [
        ["--p", "100000", "--range", "1", "--step", "1", "--ab-range", "1", "--ab-step", "1",
         "--homogeneity-samples", "1"],
        ["--p", "1e300"],
        ["--p", "1e7", "--range", "1e-300", "--step", "1e-300", "--ab-range", "1",
         "--ab-step", "1", "--homogeneity-samples", "1"],
    ],
    ids=["p=1e5", "p=1e300", "p=1e7-tiny-range"],
)
def test_cli_verify_lemma1_refuses_an_overflowing_p_before_its_binomials(args, capsys):
    # B(p) = sum binom(p, i) is not finite: the binomial loop over E(p) terms
    # ran for minutes (p = 1e5) or would never end (p = 1e300, and p = 1e7 on
    # a range whose (t_max + 1)^p stays finite) before the refusal.
    start = time.perf_counter()
    assert main(["verify-lemma1", *args]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not finite" in err and f"p = {float(args[1]):g}" in err


def test_cli_verify_lemma1_json_reuses_the_constants_it_checked(tmp_path, monkeypatch):
    built = []
    real_build = InequalityConstants.build.__func__

    def counting_build(cls, p, *args, **kwargs):
        built.append(p)
        return real_build(cls, p, *args, **kwargs)

    monkeypatch.setattr(InequalityConstants, "build", classmethod(counting_build))
    argv = ["verify-lemma1", "--p", "2", "3", "--json", str(tmp_path / "c.json")]
    assert main(argv) == 0
    assert built == [2.0, 3.0]


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


def test_cli_run_an_overflowing_cesaro_walk_is_an_error_without_warnings(tmp_path, capsys):
    # a4 at p = 400: the walk's integral of |s_6|^p passes the float range.
    raw = next(json.loads(e.read_text()) for e in cli._bundled_scenarios() if e.name[:3] == "a4-")
    path = tmp_path / "a4.json"
    path.write_text(json.dumps(dict(raw, p=400.0)))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run", "--config", str(path), "--output-dir", str(out)])
    assert rc == 2
    assert "Warning" not in capsys.readouterr().err
    manifest = json.loads((out / f"{raw['name']}.manifest.json").read_text())
    statuses = [(p["name"], p["status"]) for p in manifest["phases"]]
    assert statuses == [
        ("probe", "pass"), ("extraction", "error"), ("growth_bound", "skipped"),
        ("cesaro", "skipped"), ("liminf", "error"),
    ]
    extraction = manifest["phases"][1]["detail"]
    assert "p = 400" in extraction and "k = 6" in extraction
    assert not any("nan" in p["detail"] for p in manifest["phases"])


def _bundled(prefix: str) -> dict:
    return next(json.loads(e.read_text()) for e in cli._bundled_scenarios() if e.name[:3] == prefix)


def test_cli_run_a_box_whose_width_overflows_exits_2_naming_its_axis(tmp_path, capsys):
    grid = {"dimension": 1, "box": [[-1e308, 1e308]], "resolution": [256]}
    raw = dict(_bundled("a0-"), grid=grid)
    path = tmp_path / "a0.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "axis 0 of the box is too wide" in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_cli_cesaro_without_expectations_fails_a_flat_curve(tmp_path, capsys):
    # a4 at p = 200 stalls after 7 picks.  Its partial curve has slope
    # -0.0106, which the liminf replay reads as not converged; with neither
    # cesaro_slope nor cesaro_drop set, the cesaro phase reads it the same way.
    manifest = _run_manifest(tmp_path, dict(_bundled("a4-"), p=200.0), 2)
    capsys.readouterr()
    cesaro = [p for p in manifest["phases"] if p["name"] == "cesaro"][0]
    assert cesaro["status"] == "fail"
    assert cesaro["detail"] == "slope=-0.0106 not below the flat slope -0.05"


@pytest.mark.parametrize(
    "prefix, detail",
    [
        ("a0-", "curve identically zero (convergence exact)"),
        ("a3-", "slope=-0.9141"),
        ("a4-", "slope=-0.5000"),
    ],
)
def test_cli_cesaro_without_expectations_passes_the_bundled_curves(prefix, detail, tmp_path):
    raw = _bundled(prefix)
    assert "cesaro_slope" not in raw["expect"] and "cesaro_drop" not in raw["expect"]
    manifest = cli.run_scenario(build_config(raw), output_dir=tmp_path)
    cesaro = [p for p in manifest.phases if p["name"] == "cesaro"][0]
    assert (cesaro["status"], cesaro["detail"]) == ("pass", detail)


def _run_manifest(tmp_path, raw, rc):
    path = tmp_path / f"{raw['name']}.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / f"out-{raw['name']}"
    assert main(["run", "--config", str(path), "--output-dir", str(out)]) == rc
    return json.loads((out / f"{raw['name']}.manifest.json").read_text())


def test_cli_growth_bound_holds_the_summed_recursion_at_p_three(tmp_path, capsys):
    # Rademacher members on 4 096 nodes, horizon 64, a zero limit: 20 picks.
    # The integral of |s_20|^3 is 160.41, above (A+p)k + B k^(p-2) + 1 = 141.20
    # (B = 3), but within (A+p)k + B sum_(i<=k) i^(p-2) + 1, which the stepwise
    # bound proves when summed.
    raw = dict(_bundled("a3-"), name="rademacher-p3", p=3.0, horizon=64, extraction="p>1")
    del raw["expect"]
    manifest = _run_manifest(tmp_path, raw, 0)
    capsys.readouterr()
    growth = next(p for p in manifest["phases"] if p["name"] == "growth_bound")
    assert (growth["status"], growth["detail"]) == ("pass", "A=1.01 B=3 min_margin=7.01")


def test_cli_cesaro_drop_divides_by_the_first_positive_value(tmp_path, capsys):
    # A zero first member gives a zero first Cesaro value; the curve then
    # falls from 0.354 to 0.171, far above a drop bound of 0.01.
    x = (np.arange(512) + 0.5) / 512
    table = {1: [0.0] * 512}
    table.update({i: np.sin(2.0 * np.pi * i * x).tolist() for i in range(2, 17)})
    raw = _base_config(
        name="zero-first",
        horizon=16,
        sequence=[{"kind": "custom", "params": {"table": table}}],
        expect={"probe_verdict": "inconclusive", "cesaro_drop": 0.01},
    )
    manifest = _run_manifest(tmp_path, raw, 1)
    capsys.readouterr()
    phases = manifest["phases"]
    assert [(p["name"], p["status"]) for p in phases][-1] == ("cesaro", "fail")
    assert [p["status"] for p in phases] == ["pass", "pass", "pass", "fail"]
    assert "drop=0.4841<= 0.01" in phases[-1]["detail"]


def test_cli_run_near_float_limit_replays_like_a_moderate_run(tmp_path, monkeypatch, capsys):
    # f = |u|^2 reaches 1.44e308 at amplitude 1.2e154: every alpha_i is
    # finite, but a running sum of f along the picks would overflow.  Amplitude
    # 1 is no reference, since members of norm 1/sqrt(2) are not normalized.
    reports = {}
    route = cli.liminf_verify

    def recorded(*args, **kwargs):
        report = route(*args, **kwargs)
        reports[args[0].components[0].amplitude] = report
        return report

    monkeypatch.setattr(cli, "liminf_verify", recorded)
    for amplitude in (2.0, 1.2e154):
        raw = _base_config(
            name=f"amp-{amplitude:g}",
            grid={"dimension": 1, "box": [[0.0, 1.0]], "resolution": [2048]},
            sequence=[{"kind": "oscillatory", "amplitude": amplitude}],
            horizon=128,
            extraction="none",
            f={"kind": "squared_norm"},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _run_manifest(tmp_path, raw, 0)
        assert caught == []
    capsys.readouterr()
    moderate, huge = reports[2.0].replay, reports[1.2e154].replay
    scale = (1.2e154 / 2.0) ** 2
    f_max = 4.0  # max of |u|^2 at amplitude 2
    assert huge.indices == moderate.indices
    assert np.all(np.isfinite(huge.jensen_margins)) and np.isfinite(huge.fatou_margin)
    np.testing.assert_allclose(
        huge.jensen_margins / scale, moderate.jensen_margins, rtol=0.0, atol=1e-12 * f_max
    )
    assert huge.fatou_margin / scale == pytest.approx(
        moderate.fatou_margin, rel=0.0, abs=1e-12 * f_max
    )
    assert huge.ok() and moderate.ok()


def test_build_config_writes_no_row_for_the_guard_of_a_non_custom_kind(monkeypatch):
    x = (np.arange(512) + 0.5) / 512
    table = {str(i): np.cos(i * x).tolist() for i in range(1, 17)}
    kinds = ["oscillatory", "rademacher", "spike", "constant"]
    raw = _base_config(
        m=5,
        horizon=16,
        extraction="none",
        sequence=[{"kind": k} for k in kinds] + [{"kind": "custom", "params": {"table": table}}],
        limit=[{"kind": "constant"}] * 5,
    )
    guarded, written = [], []
    real_rows = gallery._kind_rows

    def recording_rows(spec, grid, indices):
        check, write = real_rows(spec, grid, indices)
        guarded.append(spec)

        def recording_write(rows, i, first):
            written.append((spec, i))
            write(rows, i, first)

        return check, recording_write

    for module in (gallery, cli):
        if hasattr(module, "_kind_rows"):
            monkeypatch.setattr(module, "_kind_rows", recording_rows)
    cfg = build_config(raw)
    # A custom table is checked entry by entry through its guard, which writes no row either.
    members = cfg.sequence.components
    assert [s.kind for s in guarded if any(s is c for c in members)] == kinds + ["custom"]
    assert [(s.kind, i) for s, i in written if any(s is c for c in members)] == []


@pytest.mark.parametrize(
    "component, resolution",
    [
        ({"kind": "oscillatory", "params": {"base": 40.0}}, 512),  # 32 x 40 cycles alias
        ({"kind": "oscillatory", "amplitude": float("nan")}, 512),
        ({"kind": "oscillatory", "params": {"base": float("nan")}}, 512),
        ({"kind": "oscillatory", "params": {"base": -1e307}}, 512),  # aliases: |base| counts
        ({"kind": "rademacher"}, 64),  # 64 nodes resolve 15 sign patterns
        ({"kind": "rademacher"}, 8),  # and 8 nodes none
        ({"kind": "rademacher", "amplitude": float("nan")}, 512),
        ({"kind": "spike"}, 16),  # a width-1/32 spike
        ({"kind": "spike", "amplitude": 1e307}, 512),  # its height overflows
        ({"kind": "constant", "amplitude": 1e200, "params": {"value": 1e200}}, 512),
    ],
)
def test_build_config_refuses_what_generate_refuses(component, resolution):
    raw = _base_config(sequence=[component], extraction="none")
    raw["grid"]["resolution"] = [resolution]
    grid = build_uniform_grid([[0.0, 1.0]], resolution)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = _first_refusal([SequenceSpec.from_config(component)], grid, 32)
        with pytest.raises(ConfigError) as info:
            build_config(raw)
    assert str(info.value) == f"invalid config value: {expected}"


def test_build_config_and_the_pool_name_the_same_first_refusal():
    # The oscillatory component aliases from index 9 on 64 nodes, before the
    # table's gap at index 10.
    x = (np.arange(64) + 0.5) / 64
    table = {str(i): np.cos(i * x).tolist() for i in range(1, 17) if i != 10}
    raw = _base_config(
        m=2,
        horizon=16,
        extraction="none",
        sequence=[{"kind": "custom", "params": {"table": table}}, {"kind": "oscillatory"}],
        limit=[{"kind": "constant"}] * 2,
    )
    raw["grid"]["resolution"] = [64]
    grid = build_uniform_grid([[0.0, 1.0]], 64)
    seq = gallery.VectorSequenceSpec([SequenceSpec.from_config(c) for c in raw["sequence"]])
    expected = _first_refusal(seq.components, grid, 16)
    assert expected.endswith("refusing index 9")
    with pytest.raises(InvalidArgumentError) as pool_error:
        gallery.member_pool(seq, grid, 16)
    with pytest.raises(ConfigError) as config_error:
        build_config(raw)
    assert str(pool_error.value) == expected
    assert str(config_error.value) == f"invalid config value: {expected}"


def _first_refusal(specs, grid, horizon):
    """generate's first refusal among specs' members 1..horizon, in (i, j) order."""
    for i in range(1, horizon + 1):
        for spec in specs:
            try:
                generate(spec, i, grid)
            except InvalidArgumentError as err:
                return str(err)
    raise AssertionError("every index generated")


def test_a_negative_base_is_refused_like_its_absolute_value(tmp_path):
    # sin is odd, so base -63 aliases on 64 nodes exactly as base 63 does.
    grid = build_uniform_grid([[0.0, 1.0]], 64)

    def refusal(call, *args):
        with pytest.raises((InvalidArgumentError, ConfigError)) as info:
            call(*args)
        return str(info.value)

    def config(base):
        raw = _base_config(sequence=[{"kind": "oscillatory", "params": {"base": base}}])
        raw["grid"]["resolution"] = [64]
        return raw

    positive, negative = (SequenceSpec(kind="oscillatory", base=b) for b in (63.0, -63.0))
    message = refusal(generate, positive, 1, grid)
    assert "cannot resolve 63 cycles" in message
    assert refusal(generate, negative, 1, grid) == message
    assert refusal(gallery.member_pool, gallery.VectorSequenceSpec([negative]), grid, 4) == message
    assert refusal(build_config, config(-63.0)) == refusal(build_config, config(63.0)) == (
        f"invalid config value: {message}"
    )
    path = tmp_path / "negative-base.json"
    path.write_text(json.dumps(config(-63.0)))
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
