"""Cold-process benchmark of lplab: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite reference/ from this tree

Run from the root of a checkout; the program is imported from ``src/``.
Every repeat is a fresh child process (child.py) and only one child runs at a
time, because every ``lplab run`` or ``lplab suite`` is a new process and
pays the cold cost. Children start until S seconds have passed, at least
three of them.

With ``--trace 0`` no child is traced and the last line reports the
end-to-end metrics, medians over the children; each full child is followed
by set-up-only children, which add samples to ``setup_s``. With ``--trace 1`` every other
child wraps the layer entry points (spans.py) and the last line reports the
per-layer medians of the traced children; the untraced ones give the tracing
overhead. Each child's outputs are compared with the reference recorded for
the workload variant under the equivalence rule in check.py; a child that
differs counts as failed. Layer counts must repeat exactly across children.
The line before the last carries provenance and per-child diagnostics.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CHILDREN = 3
# Set-up-only children started after each full one in an untraced run:
# set-up is short and noisy, so it gets more samples than the run.
SETUP_ONLY_PER_RUN = 2
DEADLINE_S = 170.0  # every child ends by then, so the run ends within 180 s
WORK_DIR = ROOT / ".perfbench-work"


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_per_member"):
        return "ratio"
    return "count"


def _tail(values: list):
    """p90 of the values when at least ten samples lie beyond it, else None."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 100 else None


def _blas_threads():
    # Query, never set, the thread count of the OpenBLAS numpy loaded.
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines()
                   if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "env": {k: os.environ[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                    if k in os.environ},
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _run_child(index: int, config_path, suite_seed, mode: str, timeout: float) -> dict:
    """Start one child and wait for it; mode is "run", "traced" or "setup"."""
    out = WORK_DIR / f"child-{index}"
    result = WORK_DIR / f"child-{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out), "--result", str(result)]
    cmd += ["--config", str(config_path)] if config_path else ["--suite-seed", str(suite_seed)]
    if mode == "traced":
        cmd.append("--trace")
    elif mode == "setup":
        cmd.append("--setup-only")
    child = {"mode": mode}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        child["errors"] = [f"timed out after {timeout:.0f} s"]
        return child
    child["wall_s"] = time.perf_counter() - start
    if not result.is_file():
        child["errors"] = [f"exit status {proc.returncode} without a result: {proc.stderr[-2000:]}"]
        return child
    child.update(json.loads(result.read_text()))
    child["errors"] = []
    if proc.returncode != child["exit"]:
        child["errors"].append(f"process status {proc.returncode} != lplab status {child['exit']}")
    if mode == "traced" and not child["restored"]:
        child["errors"].append("wrapped entry points were not restored")
    if mode != "setup":
        child["outputs"] = check.read_outputs(out)
    shutil.rmtree(out, ignore_errors=True)
    return child


@contextlib.contextmanager
def _work_dir(config):
    """A fresh work directory holding the config; yields the config path."""
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()
    try:
        config_path = None
        if config is not None:
            config_path = WORK_DIR / "config.json"
            config_path.write_text(json.dumps(config, indent=1))
        yield config_path
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def _validated_config(name: str, variant: int, tiny: bool):
    """The workload's scenario config, passed through build_config first.

    Also compiles lplab's bytecode, as installing the package does, so no
    child pays for compiling it, whether or not Python may write caches.
    """
    compileall.compile_dir(str(SRC / "lplab"), quiet=1)
    from lplab.cli import build_config

    config = workloads.scenario_config(name, variant, tiny)
    if config is not None:
        build_config(config)
    return config


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            min_children: int = MIN_CHILDREN, reference=None):
    """Run children for `seconds`; return (result line, detail dict).

    The reference defaults to the recorded one; tiny sizes have none, and
    there the first child's outputs serve as one, so repeats must agree.
    """
    started = time.perf_counter()
    variant = workloads.variant_index(name, seed)
    suite_seed = workloads.lplab_seed(name, seed)
    config = _validated_config(name, variant, tiny)
    if reference is None and not tiny:
        reference = check.load_reference(ROOT, name, variant)
    children = []
    with _work_dir(config) as config_path:
        runs = 0
        while runs < min_children or time.perf_counter() - started < seconds:
            if trace:
                modes = ["traced" if runs % 2 == 0 else "run"]
            else:
                modes = ["run"] + ["setup"] * SETUP_ONLY_PER_RUN
            for mode in modes:
                timeout = DEADLINE_S - (time.perf_counter() - started)
                if timeout <= 0:
                    break
                child = _run_child(len(children), config_path, suite_seed, mode, timeout)
                if "outputs" in child:
                    outputs = child.pop("outputs")
                    if reference is None:
                        reference = {"exit": child["exit"], **outputs}
                    child["errors"] += check.mismatches(child["exit"], outputs, reference)
                children.append(child)
            runs += 1
            if time.perf_counter() - started >= DEADLINE_S:
                break

    good = [c for c in children if not c["errors"]]
    problems = [f"child {i}: {e}" for i, c in enumerate(children) for e in c["errors"]]
    # Children that finished count towards the timings even when their
    # outputs differ from the reference; those runs are marked not correct.
    finished = [c for c in children if "setup_s" in c]
    plain = [c for c in finished if c["mode"] == "run"]
    traced = [c for c in finished if c["mode"] == "traced"]
    detail = {
        "workload": name,
        "seed": seed,
        "variant": variant,
        "lplab_seed": suite_seed,
        "config": config,
        "provenance": provenance(seed),
        "samples": {mode: sum(c["mode"] == mode for c in finished)
                    for mode in ("run", "traced", "setup")},
        "children": [
            {k: c.get(k) for k in ("mode", "setup_s", "import_s", "run_s", "wall_s", "minflt",
                                   "majflt", "user_s", "sys_s", "maxrss_kib", "errors")}
            for c in children
        ],
    }
    metrics = {}
    if trace:
        if traced:
            layers = [c["layers"] for c in traced]
            for metric in layers[0]:
                values = [lay[metric] for lay in layers]
                if metric.endswith("_s"):
                    value = statistics.median(values)
                else:
                    value = values[0]
                    if len(set(values)) > 1:
                        problems.append(f"count {metric} varies across repeats: {values}")
                metrics[metric] = {"value": value, "unit": _unit(metric)}
        if traced and plain:
            detail["tracing_overhead_s"] = (statistics.median(c["run_s"] for c in traced)
                                            - statistics.median(c["run_s"] for c in plain))
    elif plain:
        run_s = [c["run_s"] for c in plain]
        detail["run_s_p90"] = _tail(run_s)
        metrics = {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(c["setup_s"] for c in finished), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(c["maxrss_kib"] / 1024 for c in plain),
                             "unit": "MiB"},
            "success_rate": {"value": len(good) / len(children), "unit": "ratio"},
        }
    detail["problems"] = problems
    line = {
        "correct": not problems,
        "attempted": len(children),
        "failed": len(children) - len(good),
        "metrics": metrics,
    }
    return line, detail


def record() -> int:
    """Record every variant's reference from one child; two more must agree."""
    for name in workloads.NAMES:
        variants = {}
        for variant in range(len(workloads.VARIANTS[name])):
            variants[variant] = _reference_run(name, variant)
            line, detail = measure(name, variant, 0.0, trace=True, min_children=2,
                                   reference=variants[variant])
            counts = {k: v["value"] for k, v in line["metrics"].items() if v["unit"] != "s"}
            print(name, variant, json.dumps(counts))
            if not line["correct"]:
                print(json.dumps(detail["problems"]), file=sys.stderr)
                return 1
        check.save_reference(ROOT, name, variants)
    return 0


def _reference_run(name: str, variant: int) -> dict:
    config = _validated_config(name, variant, tiny=False)
    with _work_dir(config) as config_path:
        child = _run_child(0, config_path, workloads.lplab_seed(name, variant), "run", DEADLINE_S)
    if child["errors"]:
        raise RuntimeError(f"{name} variant {variant}: {child['errors']}")
    return {"exit": child["exit"], **child["outputs"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (SRC / "lplab" / "__init__.py").is_file():
        print(f"perfbench: no lplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    line, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in detail["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
