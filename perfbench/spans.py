"""Layer spans timed from outside the program.

``Recorder.install`` wraps the public entry points of the lplab layers. Each
wrapper times its call and records the span on a stack, so a layer's self
time is its span's duration minus the time its child spans cover. Modules
bind these functions by ``from .x import name``, so every reference held in a
loaded ``lplab`` module is swapped, and ``uninstall`` puts each original
object back where it was found.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict


def _select_observer(rec, args, kwargs, result, error):
    # The scan examines each pool index up to the last pick once, the first
    # pick included; a stalled scan examined the whole pool.
    if error is None:
        trace, examined = result, result.indices[-1]
    elif getattr(error, "trace", None) is not None:
        trace, examined = error.trace, error.trace.pool_size
    else:
        return
    rec.counts["extraction.select_candidates"] += examined
    rec.counts["extraction.select_picks"] += trace.length


def _levels_observer(rec, args, kwargs, result, error):
    # Level 1 scans the pool, level l > 1 scans the list level l - 1 kept;
    # a stalled level scanned the last completed list.
    if error is None:
        kept = result[0].levels
        scanned = kept[:-1]
    elif hasattr(error, "completed"):
        kept = scanned = error.completed
    else:
        return
    horizon = kwargs["horizon"] if "horizon" in kwargs else args[3]
    rec.counts["extraction.levels_candidates"] += horizon + sum(len(x) for x in scanned)
    rec.counts["extraction.levels_picks"] += sum(len(x) for x in kept)


def _csv_observer(rec, args, kwargs, result, error):
    if error is None:
        rec.counts["cli.csv_bytes"] += os.path.getsize(args[0])


def _config_observer(rec, args, kwargs, result, error):
    # Members a scenario asks for: horizon times components, the base of
    # gallery.generations_per_member.
    if error is None:
        rec.counts["scenario.members"] += result.horizon * result.m


# (span name, module, function, observer); spans sharing a name add up.
FUNCTION_SPANS = (
    ("grid.build", "lplab.grid", "build_uniform_grid", None),
    ("norms.pairing", "lplab.norms", "dual_pairing", None),
    ("gallery.generate", "lplab.gallery", "generate", None),
    ("gallery.probe", "lplab.gallery", "weak_probe", None),
    ("extraction.select", "lplab.extraction", "banach_saks_extract", _select_observer),
    ("extraction.levels", "lplab.extraction", "szlenk_extract", _levels_observer),
    ("extraction.pointwise", "lplab.extraction", "check_pointwise_inequality", None),
    ("extraction.growth", "lplab.extraction", "verify_growth_bound", None),
    ("convexity.verify", "lplab.convexity", "liminf_verify", None),
    ("convexity.verify", "lplab.convexity", "weak_star_verify", None),
    ("convexity.verify", "lplab.convexity", "mazur_scenario_verify", None),
    ("cli.config", "lplab.cli", "load_config", None),
    ("cli.config", "lplab.cli", "build_config", _config_observer),
    ("cli.io", "lplab.cli", "_write_csv", _csv_observer),
    ("cli.glue", "lplab.cli", "run_scenario", None),
)

# (span name, module, class, classmethod, timed); an untimed entry only counts
# calls, for entry points too small and too frequent to time one by one.
CLASSMETHOD_SPANS = (
    ("extraction.constants", "lplab.extraction", "InequalityConstants", "build", True),
    ("grid.full_mask", "lplab.grid", "RegionMask", "full", False),
)

COUNT_NAMES = {
    "grid.build": "grid.build_calls",
    "grid.full_mask": "grid.full_mask_calls",
    "norms.pairing": "norms.pairing_calls",
    "gallery.generate": "gallery.generate_calls",
    "gallery.probe": "gallery.probe_calls",
    "convexity.verify": "convexity.verify_calls",
}


class Recorder:
    """In-memory spans of one process: self seconds and calls per name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []
        self._swapped = []  # (namespace owner, attribute, original object)

    def _wrap(self, name, fn, observer):
        rec = self

        def traced(*args, **kwargs):
            rec.calls[name] += 1
            child = [0.0]
            rec._stack.append(child)
            start = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                duration = time.perf_counter() - start
                rec._stack.pop()
                rec.self_s[name] += duration - child[0]
                if rec._stack:
                    rec._stack[-1][0] += duration
                if observer is not None:
                    observer(rec, args, kwargs, result, error)

        return traced

    def _wrap_count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "lplab" or n.startswith("lplab.")]
        for name, module, attr, observer in FUNCTION_SPANS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, observer)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._swapped.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for name, module, cls_name, attr, timed in CLASSMETHOD_SPANS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            fn = original.__func__
            wrapper = self._wrap(name, fn, None) if timed else self._wrap_count(name, fn)
            self._swapped.append((cls, attr, original))
            setattr(cls, attr, classmethod(wrapper))

    def uninstall(self):
        for owner, attr, original in reversed(self._swapped):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every swapped attribute holds its original object again."""
        return bool(self._swapped) and all(
            vars(owner)[attr] is original for owner, attr, original in self._swapped
        )

    def layer_metrics(self) -> dict:
        """Self seconds and counts under the benchmark's per-layer names."""
        timed = [span[0] for span in FUNCTION_SPANS] + [
            span[0] for span in CLASSMETHOD_SPANS if span[-1]
        ]
        out = {f"{name}_s": self.self_s.get(name, 0.0) for name in timed}
        for span, metric in COUNT_NAMES.items():
            out[metric] = self.calls.get(span, 0)
        for metric in (
            "extraction.select_candidates",
            "extraction.select_picks",
            "extraction.levels_candidates",
            "extraction.levels_picks",
            "cli.csv_bytes",
        ):
            out[metric] = self.counts.get(metric, 0)
        members = self.counts.get("scenario.members", 0)
        out["gallery.generations_per_member"] = (
            out["gallery.generate_calls"] / members if members else 0.0
        )
        return out
