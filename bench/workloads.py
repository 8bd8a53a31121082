"""The four robin-lab workloads: one CLI config each, and its output check.

Why each workload exists is recorded in BENCHMARK.json.  Only
converge-cube-facet draws inputs from the seed; the others are fixed
configs, so every seed gives them the same inputs.

Each check returns a list of problems (empty when the outputs are right).
Reference values were produced by the package at the commit the
benchmark was defined on; they live in references.json, keyed by seed
where the inputs depend on it (the default seed and one held-out seed).
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCES = json.loads(Path(__file__).with_name("references.json").read_text())

REL_TOL = 1e-8  # to the stored reference; a solver loosening `tol` misses it
MMS_SUP_ERR = 5e-5  # nodal sup error bound on the square at n = 256

SWEEP_PAIRS = 90
CONVERGE_MEMBERS = 8
CUBE16_FACETS = 12 * 16 * 16
SQUARE_N = 256
PHI_SAMPLES = 64

# phi(t) = 1/2 + t - t^2 meets phi' + 2 phi = 0 outward at t = 0 and 1, so
# u = phi(x) phi(y) solves the beta = 2, lambda = 1 problem with this f
MMS_SOURCE = (
    "2*((0.5 + x - x*x) + (0.5 + y - y*y)) + (0.5 + x - x*x)*(0.5 + y - y*y)"
)


def _phi(t: float) -> float:
    return 0.5 + t - t * t


@dataclass(frozen=True)
class Workload:
    experiment: str
    make_config: Callable[[int], dict]
    check: Callable[[Path, int], list]


def _read_csv(path: Path):
    with open(path, newline="", encoding="ascii") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _constant(value: float) -> dict:
    return {"kind": "constant", "value": value}


def sweep_config(seed: int) -> dict:
    return {
        "experiment": "stability",
        "domain": "cube",
        "n": 12,
        "lambda": 1.0,
        "f": _constant(1.0),
        "beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 10},
    }


def check_sweep(out: Path, seed: int) -> list:
    header, rows = _read_csv(out / "stability.csv")
    problems = []
    if header != ["n", "m", "diff_sup", "un_bd_sup", "beta_diff", "ratio"]:
        problems.append(f"stability.csv header is {header}")
    pairs, last = rows[:-1], rows[-1] if rows else [""]
    if len(pairs) != SWEEP_PAIRS:
        problems.append(f"{len(pairs)} pair rows, expected {SWEEP_PAIRS}")
    if last[0] != "C_hat":
        return problems + ["no C_hat row"]
    c_hat = float(last[1])
    ratios = [float(row[5]) for row in pairs if row[5]]
    if not ratios or c_hat != max(ratios):
        problems.append(f"C_hat {c_hat!r} is not the largest ratio")
    reference = REFERENCES["sweep-cube"]["C_hat"]
    if _relative_gap(c_hat, reference) > REL_TOL:
        problems.append(f"C_hat {c_hat!r} differs from reference {reference!r}")
    return problems


def converge_config(seed: int) -> dict:
    """beta_k = 1 + r/(k+1) per facet with r uniform on [0, 1) from the seed."""
    rng = random.Random(seed)
    r = [rng.random() for _ in range(CUBE16_FACETS)]
    return {
        "experiment": "convergence",
        "domain": "cube",
        "n": 16,
        "lambda": 1.0,
        "f": {"kind": "expr", "expr": "1 + x*y - z/2"},
        "beta_sequence": [
            {"kind": "per_facet", "values": [1.0 + v / (k + 1) for v in r]}
            for k in range(CONVERGE_MEMBERS)
        ],
        "beta_limit": _constant(1.0),
    }


def check_converge(out: Path, seed: int) -> list:
    header, rows = _read_csv(out / "convergence.csv")
    problems = []
    if header != ["n", "sup_err"] or len(rows) != CONVERGE_MEMBERS:
        return [f"convergence.csv has header {header} and {len(rows)} rows"]
    errs = [float(row[1]) for row in rows]
    if not all(math.isfinite(e) and e > 0.0 for e in errs):
        problems.append(f"errors not finite and positive: {errs}")
    # beta_k decreases to the limit on every facet, so the gap must shrink
    if any(b >= a for a, b in zip(errs, errs[1:])):
        problems.append(f"errors do not decrease: {errs}")
    reference = REFERENCES["converge-cube-facet"].get(str(seed))
    if reference is not None and _relative_gap(errs[-1], reference) > REL_TOL:
        problems.append(f"last error {errs[-1]!r} differs from reference {reference!r}")
    return problems


def solve_config(seed: int) -> dict:
    return {
        "experiment": "solve",
        "domain": "square",
        "n": SQUARE_N,
        "lambda": 1.0,
        "f": {"kind": "expr", "expr": MMS_SOURCE},
        "beta_sequence": [_constant(2.0)],
    }


def check_solve(out: Path, seed: int) -> list:
    header, rows = _read_csv(out / "solution.csv")
    if header != ["vertex_index", "x", "y", "value"]:
        return [f"solution.csv header is {header}"]
    expected = (SQUARE_N + 1) ** 2
    if len(rows) != expected:
        return [f"{len(rows)} solution rows, expected {expected}"]
    err = max(
        abs(float(v) - _phi(float(x)) * _phi(float(y))) for _, x, y, v in rows
    )
    if not err < MMS_SUP_ERR:
        return [f"nodal sup error {err:.3e} against the exact solution exceeds {MMS_SUP_ERR:g}"]
    return []


def stampacchia_config(seed: int) -> dict:
    return {
        "experiment": "stampacchia",
        "domain": "cube",
        "n": 16,
        "lambda": 1.0,
        "f": _constant(1.0),
        "beta_sequence": [
            {"kind": "expr", "expr": "1 + x*y"},
            {"kind": "expr", "expr": "1 + x*y + z/4"},
        ],
    }


def check_stampacchia(out: Path, seed: int) -> list:
    header, rows = _read_csv(out / "stampacchia_report.csv")
    if header != ["hypothesis_ok", "predicted_gap", "vanish_point", "conclusion_ok"]:
        return [f"stampacchia_report.csv header is {header}"]
    hypothesis_ok, gap, vanish, conclusion_ok = rows[0]
    problems = []
    if hypothesis_ok != "true" or conclusion_ok != "true":
        problems.append(f"hypothesis_ok={hypothesis_ok}, conclusion_ok={conclusion_ok}")
    if not float(vanish) <= float(gap):
        problems.append(f"vanish_point {vanish} exceeds predicted_gap {gap}")
    _, samples = _read_csv(out / "stampacchia.csv")
    phis = [float(phi) for _, phi in samples]
    if len(phis) != PHI_SAMPLES:
        problems.append(f"{len(phis)} phi samples, expected {PHI_SAMPLES}")
    if any(b > a for a, b in zip(phis, phis[1:])):
        problems.append("phi samples increase")
    return problems


WORKLOADS = {
    "sweep-cube": Workload("stability", sweep_config, check_sweep),
    "converge-cube-facet": Workload("convergence", converge_config, check_converge),
    "solve-square-fine": Workload("solve", solve_config, check_solve),
    "stampacchia-cube-expr": Workload("stampacchia", stampacchia_config, check_stampacchia),
}
