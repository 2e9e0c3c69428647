"""The benchmark's workloads and the inputs each one makes from a seed.

The seed picks one of four variants of a workload. Variants differ in their
inputs but do the same work: the same calls, candidates, picks and CSV
sizes, so the spread between seeds is run-to-run noise. Every variant has a
reference output recorded under ``reference/``.

``tiny=True`` gives the small grids the smoke test runs; it has no
reference.
"""

from __future__ import annotations

SUITE = "suite"
EXTRACT_P2 = "extract-p2-64k"
WEAKSTAR_2D = "weakstar-2d"
NAMES = (SUITE, EXTRACT_P2, WEAKSTAR_2D)

# Default seed of `lplab verify-lemma1` and `lplab suite`.
_LPLAB_SEED = 20260810

_ZERO_LIMIT = [{"kind": "constant", "amplitude": 0.0, "params": {"value": 0.0}}]

VARIANTS = {
    # The bundled scenarios are fixed; the seed reaches only the lemma-1
    # homogeneity samples.
    SUITE: [{"lplab_seed": _LPLAB_SEED + k} for k in range(4)],
    # sin(2*pi*i*base*x) with either sign: pairwise orthogonal on the grid
    # for every choice, so each variant keeps every candidate.
    EXTRACT_P2: [{"base": b, "amplitude": a} for b in (1.0, 2.0) for a in (1.0, -1.0)],
    # Rademacher signs of either polarity, with values kept inside K as a
    # box or as a ball; level scans see the same absolute values.
    WEAKSTAR_2D: [
        {"amplitude": a, "K": K}
        for a in (1.0, -1.0)
        for K in (
            {"kind": "box", "params": {"bounds": [[-1.0, 1.0]]}, "closed": True},
            {"kind": "ball", "params": {"center": [0.0], "radius": 1.0}, "closed": True},
        )
    ],
}


def variant_index(name: str, seed: int) -> int:
    return seed % len(VARIANTS[name])


def lplab_seed(name: str, seed: int):
    """The `lplab suite --seed` value; None for single-scenario workloads."""
    if name != SUITE:
        return None
    return VARIANTS[SUITE][variant_index(name, seed)]["lplab_seed"]


def scenario_config(name: str, variant: int, tiny: bool = False):
    """Scenario JSON of a single-scenario workload; None for the suite."""
    params = VARIANTS[name][variant]
    if name == EXTRACT_P2:
        nodes, horizon = (4096, 32) if tiny else (65536, 256)
        return {
            "name": EXTRACT_P2,
            "grid": {"dimension": 1, "box": [[0.0, 1.0]], "resolution": [nodes]},
            "p": 2.0,
            "m": 1,
            "sequence": [
                {"kind": "oscillatory", "amplitude": params["amplitude"],
                 "params": {"base": params["base"]}}
            ],
            "limit": _ZERO_LIMIT,
            "region": {"type": "full"},
            "horizon": horizon,
            "extraction": "p>1",
            "expect": {"probe_verdict": "converging", "cesaro_slope": [-0.6, -0.4]},
        }
    if name == WEAKSTAR_2D:
        # 256 nodes on x1 resolve 63 sign patterns, so the horizon stays <= 63.
        resolution, horizon = ([128, 16], 16) if tiny else ([256, 256], 48)
        return {
            "name": WEAKSTAR_2D,
            "grid": {"dimension": 2, "box": [[0.0, 1.0], [0.0, 1.0]], "resolution": resolution},
            "p": "infinity",
            "m": 1,
            "sequence": [{"kind": "rademacher", "amplitude": params["amplitude"]}],
            "limit": _ZERO_LIMIT,
            "region": {"type": "full"},
            "horizon": horizon,
            "extraction": "none",
            "R_schedule": [0.5, 1.0, 2.0],
            "f": {"kind": "squared_norm", "nonnegative": True, "K": params["K"]},
            "expect": {"probe_verdict": "converging"},
        }
    return None
