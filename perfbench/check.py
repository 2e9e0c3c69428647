"""Outputs of a run and their comparison with a recorded reference.

Equivalence rule: a run matches its reference when the exit status and every
phase status are equal, the same CSV files exist with equal headers, row
counts and text cells, and each numeric cell x lies within
1e-12 * max|column| of its reference value r, the maximum taken over the
reference column. Scaling by the column keeps entries at rounding level near
zero from tripping the check; a column that is all zero must match exactly.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

RELATIVE_TOLERANCE = 1e-12


def read_outputs(out_dir: Path) -> dict:
    """Phase statuses per scenario and CSV text per file name."""
    phases = {}
    for path in sorted(out_dir.glob("*.manifest.json")):
        manifest = json.loads(path.read_text())
        phases[manifest["name"]] = [[p["name"], p["status"]] for p in manifest["phases"]]
    tables = {path.name: path.read_text() for path in sorted(out_dir.glob("*.csv"))}
    return {"phases": phases, "csv": tables}


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_mismatch(text: str, ref_text: str) -> str | None:
    """First difference beyond the equivalence rule, or None."""
    rows = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if not ref or rows[:1] != ref[:1]:
        return f"header {rows[:1]} != {ref[:1]}"
    if len(rows) != len(ref) or any(len(a) != len(b) for a, b in zip(rows, ref)):
        return f"shape differs: {len(rows)} rows against {len(ref)}"
    for col, name in enumerate(ref[0]):
        ref_col = [_number(r[col]) for r in ref[1:]]
        if any(v is None for v in ref_col):
            for k, (a, b) in enumerate(zip(rows[1:], ref[1:]), start=1):
                if a[col] != b[col]:
                    return f"row {k} column {name}: {a[col]!r} != {b[col]!r}"
            continue
        finite = [abs(v) for v in ref_col if math.isfinite(v)]
        limit = RELATIVE_TOLERANCE * (max(finite) if finite else 0.0)
        for k, (row, r) in enumerate(zip(rows[1:], ref_col), start=1):
            x = _number(row[col])
            same = x is not None and (
                x == r
                or (math.isnan(x) and math.isnan(r))
                or (math.isfinite(r) and abs(x - r) <= limit)
            )
            if not same:
                return f"row {k} column {name}: {row[col]} vs reference {r!r} (limit {limit:.3g})"
    return None


def mismatches(exit_code: int, outputs: dict, ref: dict) -> list:
    """Every way a run differs from its reference; empty when it matches."""
    found = []
    if exit_code != ref["exit"]:
        found.append(f"exit status {exit_code} != {ref['exit']}")
    if outputs["phases"] != ref["phases"]:
        found.append(f"phase statuses {outputs['phases']} != {ref['phases']}")
    if sorted(outputs["csv"]) != sorted(ref["csv"]):
        found.append(f"CSV files {sorted(outputs['csv'])} != {sorted(ref['csv'])}")
    for name, text in outputs["csv"].items():
        if name in ref["csv"]:
            diff = csv_mismatch(text, ref["csv"][name])
            if diff:
                found.append(f"{name}: {diff}")
    return found


def reference_path(root: Path, workload: str) -> Path:
    return root / "perfbench" / "reference" / f"{workload}.json.gz"


def load_reference(root: Path, workload: str, variant: int) -> dict:
    """Exit status, phase statuses and CSV bodies recorded for one variant."""
    stored = json.loads(gzip.decompress(reference_path(root, workload).read_bytes()))
    entry = stored["variants"][str(variant)]
    return {
        "exit": entry["exit"],
        "phases": entry["phases"],
        "csv": {name: stored["bodies"][digest] for name, digest in entry["csv"].items()},
    }


def save_reference(root: Path, workload: str, variants: dict) -> None:
    """Store {variant: reference}; CSV bodies shared by variants are kept once."""
    bodies = {}
    entries = {}
    for variant, ref in variants.items():
        digests = {}
        for name, text in ref["csv"].items():
            digest = hashlib.sha256(text.encode()).hexdigest()
            bodies[digest] = text
            digests[name] = digest
        entries[str(variant)] = {"exit": ref["exit"], "phases": ref["phases"], "csv": digests}
    data = json.dumps({"workload": workload, "variants": entries, "bodies": bodies}, sort_keys=True)
    path = reference_path(root, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(gzip.compress(data.encode(), mtime=0))
