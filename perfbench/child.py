"""One cold run of a workload, in a process of its own.

Usage (started by run.py, one child at a time):

    python3 perfbench/child.py --out DIR --result FILE [--config FILE | --suite-seed N]
                               [--trace | --setup-only]

Set-up runs from this file's first statement to ready: the numpy and lplab
imports, plus ``load_config`` when a scenario config is given. The run is
``run_scenario`` on that config, or ``lplab suite``. The child writes its
timings, resource use and, when traced, its layer spans to FILE as JSON, and
exits with the status the matching ``lplab`` command would return. With
``--setup-only`` it stops when ready and reports the set-up time alone.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lplab import cli  # noqa: E402

_IMPORTED = time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--config")
    parser.add_argument("--suite-seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    cfg = cli.load_config(args.config) if args.config else None
    ready = time.perf_counter()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": ready - _T0, "exit": 0}))
        return 0
    if cfg is not None:
        manifest = cli.run_scenario(cfg, output_dir=args.out)
        code = 0 if manifest.passed else 1
    else:
        code = cli.main(["suite", "--output-dir", args.out, "--seed", str(args.suite_seed)])
    done = time.perf_counter()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": ready - _T0,
        "import_s": _IMPORTED - _T0,
        "run_s": done - ready,
        "exit": code,
        "maxrss_kib": usage.ru_maxrss,
        "minflt": usage.ru_minflt,
        "majflt": usage.ru_majflt,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
    }
    if recorder is not None:
        recorder.uninstall()
        result["restored"] = recorder.restored()
        result["layers"] = recorder.layer_metrics()
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
