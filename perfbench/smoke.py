"""Smoke test of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Checks that installing the layer wrappers swaps every entry point and that
uninstalling puts each original back, then runs every workload once untraced
and once traced (tiny grids; the suite at its own size) and checks that each
result is correct and names exactly the metrics of BENCHMARK.json with their
units. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, SRC, measure

sys.path.insert(0, str(SRC))

import lplab.cli  # noqa: E402,F401  (loads every lplab module)
from spans import FUNCTION_SPANS, Recorder  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "lplab" or name.startswith("lplab.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def check_restore() -> list:
    before = _bindings()
    classes = {cls: dict(vars(cls)) for cls in (lplab.grid.RegionMask,
                                                lplab.extraction.InequalityConstants)}
    recorder = Recorder()
    recorder.install()
    failures = []
    swapped = {key for key, v in _bindings().items() if before.get(key) is not v}
    failures += [f"{n}.{a} not wrapped" for _, n, a, _ in FUNCTION_SPANS
                 if (n, a) not in swapped]
    recorder.uninstall()
    if not recorder.restored():
        failures.append("restored() is false after uninstall")
    after = _bindings()
    failures += [f"{n}.{a} not restored" for (n, a), v in before.items()
                 if after.get((n, a)) is not v]
    for cls, attrs in classes.items():
        failures += [f"{cls.__name__}.{a} not restored" for a, v in attrs.items()
                     if vars(cls).get(a) is not v]
    return failures


def check_metrics() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for name in workloads.NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line, detail = measure(name, 1, 0.0, trace, tiny=True, min_children=2)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in line["metrics"].items()}
            if got != expected:
                failures.append(f"{name} trace={int(trace)}: metrics {got} != {expected}")
            if not line["correct"] or line["failed"]:
                failures.append(f"{name} trace={int(trace)}: {detail['problems']}")
            if trace and detail.get("tracing_overhead_s") is None:
                failures.append(f"{name}: no untraced child beside the traced one")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics", flush=True)
    return failures


def main() -> int:
    failures = check_restore() + check_metrics()
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
