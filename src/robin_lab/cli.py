"""Command line front end: config ingestion, orchestration, CSV/SVG output.

Usage:  robin-lab <experiment> --config path.json [--output dir]

The JSON config holds the domain (interval, square, cube), the mesh
parameter n, lambda, the source spec, a boundary coefficient sequence
(either a list of field specs or the generator
``{"kind": "one_over_k", "base": b, "count": c}`` meaning b + 1/(k+1)),
and per-experiment extras.  A run solves its coefficient family once, the
limit problem last for convergence, and reduces the rows.  Field specs:

    {"kind": "constant", "value": v}
    {"kind": "per_facet", "values": [...]}
    {"kind": "expr", "expr": "x + 2*y"}

Every run writes manifest.json (config echo, version, mesh statistics,
timings, warnings) as one json.dumps(..., sort_keys=True), one CSV per
result table, and one SVG per plot.  CSV and SVG bytes are deterministic
for identical configs.  Tables are written from columns, a block of rows
per str.join, with one rule per cell: a string as it is, None as "", and a
number with "%.17g" (floats round-trip, integers print digits).  Plot
points are written as "%.3f" would write them, from numpy digits.

The config echo is the config as read, except that each per_facet spec
stands in as {"kind": "per_facet", "count": c, "sha256": h}: h is the
SHA-256 of the c values the run used, as little-endian float64 bytes.  An
echo re-runs as a config unless it holds such a spec, which exits 2.

Exit codes: 0 success, 2 invalid config (an unknown key, also in a field
spec or the generator) or command line, 3 solve failure, 4 unwritable output
path.  Every failure writes one JSON error line naming the field to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import sup_norm
from .errors import InvalidArgumentError, RobinLabError
from .experiments import (
    convergence_study,
    estimate_constant,
    level_set_pipeline,
    solve_robin,
    stability_sweep,
    theorem0_terms,
)
from .fields import BoundaryField, SourceField, check_expression_dimension, is_finite_number
from .mesh import DOMAINS, Mesh, build_mesh, is_integer

EXPERIMENTS = ("solve", "stability", "convergence", "stampacchia", "theorem0")
# stability's N coefficients make N^2 pair rows: at interval n = 2, N = 400, 800, 1000 peaked
# at 110, 291, 428 MB RSS with 14, 56, 88 MB of CSV, below the 0.55 GB MAX_CELLS allows
MAX_STABILITY = 1000
# the fewest and the most coefficients each experiment takes, in EXPERIMENTS order
_BETA_COUNTS = dict(zip(EXPERIMENTS, [(1, 1), (2, MAX_STABILITY), (1, np.inf), (2, 2), (1, 1)]))

# the one_over_k generator expands to at most this many coefficients
MAX_GENERATED = 10_000
# a family's solve adds 113-125 B of peak RSS per (coefficient, vertex) on the cube (convergence
# at n = 24 and 16 with 10 to 200 or 250 coefficients; 84 B on the square): near 0.42 GB at the
# cap, and a run inside both caps peaks near 0.65 GB (stability, 5 expression betas, cube n = 87)
MAX_MEMBER_VERTICES = 3_600_000
_BLOCK = 4096  # CSV rows or plot points formatted at a time, to bound peak memory

# float key -> (default, None when required; lower bound; whether the bound
# itself is allowed); the integer n is checked by the Mesh it builds
_NUMERIC_KEYS = {
    "lambda": (None, 0.0, False),
    "p": (4.0, 1.0, True),
    "c2": (0.0, 0.0, True),
    "tol": (1e-10, 0.0, False),
}
# field spec kind -> the one key besides "kind" that holds its data
_FIELD_PAYLOADS = {"constant": "value", "per_facet": "values", "expr": "expr"}
# every key a config may carry; any other exits 2
_KEYS = {
    *_NUMERIC_KEYS,
    "n", "experiment", "domain", "lumped", "output_dir", "f", "beta_sequence", "beta_limit",
}
# key -> the one experiment that reads it, and how: a run of any other warns
_EXPERIMENT_KEYS = {"beta_limit": ("convergence", "solve"), "p": ("theorem0", "read"),
                    "c2": ("stampacchia", "read")}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVE = 3
EXIT_OUTPUT = 4

_DIMENSION_CAVEAT = (
    "domain dimension is below 3; the trace exponent s = 2(d-1)/(d-2) does not "
    "apply and results are illustrative only"
)


class ConfigError(RobinLabError):
    """Invalid run configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass
class RunConfig:
    mesh: Mesh
    mesh_seconds: float  # time taken to build the mesh, for the manifest
    lam: float
    f: SourceField
    betas: list  # BoundaryFields, generator expanded, the limit problem's last for convergence
    experiment: str
    output_dir: str
    p: float
    c2: float
    lumped: bool
    tol: float
    raw: dict  # the manifest's config echo, per_facet specs by count and digest (_echo)


def expand_beta_sequence(raw) -> list:
    """Turn the beta_sequence config entry into a list of field specs."""
    if isinstance(raw, dict):
        if raw.get("kind") != "one_over_k":
            raise ConfigError("beta_sequence", f"unknown generator kind {raw.get('kind')!r}")
        _check_keys(raw, {"kind", "base", "count"}, "beta_sequence")
        base = raw.get("base")
        count = raw.get("count")
        if not is_finite_number(base):
            raise ConfigError("beta_sequence.base", "generator base must be a finite number")
        if not is_integer(count) or not 1 <= count <= MAX_GENERATED:
            raise ConfigError(
                "beta_sequence.count",
                f"generator count must be an integer from 1 to {MAX_GENERATED}, "
                f"got {count!r}",
            )
        if base + 1.0 / count < 0.0:
            raise ConfigError(
                "beta_sequence.base",
                f"generator base {base!r} makes the last coefficient negative",
            )
        return [
            {"kind": "constant", "value": base + 1.0 / (k + 1)} for k in range(count)
        ]
    if isinstance(raw, list) and raw:
        return raw
    raise ConfigError("beta_sequence", "expected a nonempty list or a generator spec")


def parse_config(data, experiment: str = None, output: str = None) -> RunConfig:
    """Validate a raw JSON value into a runnable RunConfig, mesh included.

    ``experiment`` is the experiment named on the command line: it fills a
    missing "experiment" key and must agree with a present one.  A nonempty
    ``output`` (the command line's directory) overrides a valid "output_dir".
    Every invalid input raises ConfigError naming the field; ``data`` is
    left unchanged.
    """
    if not isinstance(data, dict):
        raise ConfigError("config", "top-level JSON value must be an object")
    _check_keys(data, _KEYS)

    named = data.get("experiment", experiment)
    if experiment is not None and named != experiment:
        raise ConfigError(
            "experiment",
            f"config says {named!r} but the command line says {experiment!r}",
        )
    experiment = _choice(named, "experiment", EXPERIMENTS)
    domain = _choice(data.get("domain"), "domain", tuple(DOMAINS))
    numbers = {key: _number(data, key) for key in _NUMERIC_KEYS}

    lumped = data.get("lumped", False)
    if not isinstance(lumped, bool):
        raise ConfigError("lumped", f"must be a boolean, got {lumped!r}")

    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", f"must be a nonempty string, got {output_dir!r}")
    if output == "":
        raise ConfigError("arguments", "--output must name a directory, got ''")

    if experiment == "stampacchia" and domain != "cube":
        raise ConfigError(
            "experiment", "stampacchia runs need the cube domain (dimension >= 3)"
        )
    beta_specs = expand_beta_sequence(data.get("beta_sequence"))
    fewest, most = _BETA_COUNTS[experiment]
    if not fewest <= len(beta_specs) <= most:
        many = f"at least {fewest}" if most == np.inf else f"from {fewest} to {most}"
        many = f"exactly {most}" if most == fewest else many
        raise ConfigError("beta_sequence", f"{experiment} runs take {many} coefficient(s)")

    started = time.perf_counter()
    try:
        mesh = build_mesh(domain, data.get("n"))
    except InvalidArgumentError as exc:  # not an integer >= 1, or above MAX_CELLS
        raise ConfigError("n", str(exc)) from exc
    mesh_seconds = time.perf_counter() - started
    members = len(beta_specs) + (experiment == "convergence")  # and the limit problem
    if members * mesh.num_vertices > MAX_MEMBER_VERTICES:
        raise ConfigError(
            "beta_sequence",
            f"{members} coefficient(s) on {mesh.num_vertices} vertices: a run "
            f"holds at most {MAX_MEMBER_VERTICES} coefficient-vertices",
        )

    f = _parse_field(data.get("f"), "f", SourceField, mesh)
    betas = [
        _parse_field(spec, f"beta_sequence[{i}]", BoundaryField, mesh)
        for i, spec in enumerate(beta_specs)
    ]

    limit = data.get("beta_limit")
    if limit is not None:  # checked for every experiment, solved for convergence
        limit = _parse_field(limit, "beta_limit", BoundaryField, mesh)
    elif experiment == "convergence":
        if not isinstance(data["beta_sequence"], dict):
            raise ConfigError(
                "beta_limit",
                "convergence runs need a beta_limit spec (it is implied only "
                "by the one_over_k generator)",
            )
        limit_spec = {"kind": "constant", "value": data["beta_sequence"]["base"]}
        limit = _parse_field(limit_spec, "beta_sequence.base", BoundaryField, mesh)
    if experiment == "convergence":
        betas.append(limit)

    echo = {**data, "experiment": experiment}
    if isinstance(data["beta_sequence"], list):
        echo["beta_sequence"] = list(map(_echo, beta_specs, betas))
    if data.get("beta_limit") is not None:
        echo["beta_limit"] = _echo(data["beta_limit"], limit)
    return RunConfig(
        mesh=mesh,
        mesh_seconds=mesh_seconds,
        lam=numbers["lambda"],
        f=f,
        betas=betas,
        experiment=experiment,
        output_dir=output_dir if output is None else output,
        p=numbers["p"],
        c2=numbers["c2"],
        lumped=lumped,
        tol=numbers["tol"],
        raw=echo,
    )


def _echo(spec: dict, field: BoundaryField) -> dict:
    """``spec`` as the manifest echoes it: as read, or a per_facet spec by its count and
    the SHA-256 of the values the run used, as little-endian float64 bytes."""
    if field.kind != "per_facet":
        return spec
    values = field.facet_values.astype("<f8", copy=False)
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    return {"kind": "per_facet", "count": values.size, "sha256": digest}


def _check_keys(spec: dict, keys, where: str = None) -> None:
    """ConfigError on the first key of ``spec``, sorted, not in ``keys``, named where.key."""
    unknown = sorted(spec.keys() - keys)
    if unknown:
        raise ConfigError(unknown[0] if where is None else f"{where}.{unknown[0]}", "unknown key")


def _choice(value, key: str, choices: tuple) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(key, f"must be one of {', '.join(choices)}, got {value!r}")
    return value


def _number(data: dict, key: str) -> float:
    """The value of a numeric key, checked against its _NUMERIC_KEYS row."""
    default, bound, inclusive = _NUMERIC_KEYS[key]
    value = data.get(key, default)
    if not (is_finite_number(value) and (value >= bound if inclusive else value > bound)):
        relation = ">=" if inclusive else ">"
        raise ConfigError(key, f"must be a finite number {relation} {bound}, got {value!r}")
    return float(value)


def _parse_field(spec, where: str, cls, mesh: Mesh):
    """Build a SourceField or BoundaryField (per_facet allowed) from its spec.

    Boundary values must be finite and >= 0, a per_facet list holds one
    value per boundary facet of the mesh, and an expression may name only
    the coordinates the mesh has.
    """
    if not isinstance(spec, dict):
        raise ConfigError(where, "field spec must be an object")
    kind = spec.get("kind")
    key = isinstance(kind, str) and _FIELD_PAYLOADS.get(kind)  # a list kind is unhashable
    if not key or (kind == "per_facet" and cls is not BoundaryField):
        raise ConfigError(where, f"unsupported field kind {kind!r}")
    if kind == "per_facet" and "sha256" in spec:
        raise ConfigError(where, "a manifest's per_facet echo has no values; run the original")
    _check_keys(spec, {"kind", key}, where)
    payload = spec.get(key)
    try:
        if kind == "constant":
            if not is_finite_number(payload) or (cls is BoundaryField and payload < 0.0):
                raise ConfigError(
                    where,
                    f"constant field needs a finite 'value' (>= 0 on the boundary), "
                    f"got {payload!r}",
                )
            return cls.constant(payload)
        if kind == "per_facet":
            if not isinstance(payload, list) or len(payload) != mesh.num_facets:
                raise ConfigError(
                    where,
                    f"per_facet field needs a 'values' list with one value for "
                    f"each of the mesh's {mesh.num_facets} boundary facets",
                )
            exact = set(map(type, payload)) <= {int, float}  # bool is not an int here
            array = np.array(payload if exact else [np.nan], dtype=float)  # an int may overflow
            # an int just above the float maximum rounds to it, so compare exactly too
            if not ((array >= 0.0) & (array < np.inf)).all() or max(payload) > sys.float_info.max:
                raise ConfigError(where, "per_facet values must be finite numbers >= 0")
            return cls.per_facet(array)
        if not isinstance(payload, str):
            raise ConfigError(where, "expr field needs an 'expr' string")
        built = cls.from_expression(payload)  # reports syntax errors first
        check_expression_dimension(payload, mesh.dim)
        return built
    except (ValueError, OverflowError) as exc:  # a bad expression, an int overflowing
        raise ConfigError(where, str(exc)) from exc


def emit_csv(header, columns, path) -> None:
    """Write a table of equally long columns, one header name each, _BLOCK rows at a time.

    A string as it is, None as "", a number with "%.17g" (an integer array
    with str).  In a block of an array each distinct value, by its bits, is
    formatted once; the block's cells are joined by "," and "\\n" at once.
    """
    lengths = [len(column) for column in columns]
    if not columns or len(header) != len(columns) or len(set(lengths)) > 1:
        raise RobinLabError(f"csv needs a name per equally long column, got {header}, {lengths}")
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, lengths[0], _BLOCK):
            rows = min(_BLOCK, lengths[0] - start)
            text = ([","] * (2 * len(columns) - 1) + ["\n"]) * rows  # cells go in between
            for k, column in enumerate(columns):
                text[2 * k :: 2 * len(columns)] = _cells(column[start : start + rows])
            handle.write("".join(text))


def _cells(block) -> list:
    if not isinstance(block, np.ndarray):  # None is an absent cell
        return [c if isinstance(c, str) else "" if c is None else "%.17g" % c for c in block]
    if block.dtype.kind in "iu":
        return list(map(str, block.tolist()))
    bits, index = np.unique(block.view(np.int64), return_inverse=True)
    strings = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return strings[index].tolist()


_SVG_W, _SVG_H = 640, 480
_SVG_MARGIN = 60.0
# "ddd" and a free byte for each group of three digits, as one uint32
_DIGITS = np.frombuffer(b"".join(b"%03d " % i for i in range(1000)), dtype=np.uint32)
# the least value in thousandths at which each byte of four whole groups and the
# fraction group is kept: leading zeros and the spare bytes drop, "." stays
_SHOWN = np.r_[np.insert(10 ** np.arange(14, 3, -1, dtype=np.int64), [3, 6, 9], 2**62), [0] * 6]


def emit_svg(xs, ys, path, xlabel: str = "", ylabel: str = "", title: str = "") -> None:
    """Single-polyline plot with axes, ticks, and labels; byte-deterministic."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.size == 0 or xs.shape != ys.shape:
        raise RobinLabError("svg series must be nonempty and equally long")
    x_min, x_max = float(xs.min()), float(xs.max())
    y_min = min(0.0, float(ys.min()))
    y_max = float(ys.max()) * 1.05 if ys.max() > 0 else float(ys.max())
    if x_max <= x_min:
        x_max = x_min + 1.0
    if y_max <= y_min:
        y_max = y_min + 1.0

    inner_w = _SVG_W - 2 * _SVG_MARGIN
    inner_h = _SVG_H - 2 * _SVG_MARGIN

    def px(x):
        return _SVG_MARGIN + (x - x_min) / (x_max - x_min) * inner_w

    def py(y):
        return _SVG_H - _SVG_MARGIN - (y - y_min) / (y_max - y_min) * inner_h

    def line(x1, y1, x2, y2):
        return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" stroke="black"/>'

    def text(x, y, anchor, size, label, transform=""):  # x and y as written
        return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="monospace" '
                f'font-size="{size}"{transform}>{label}</text>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        text(f"{_SVG_W / 2:.2f}", "24", "middle", 14, title),
        line(_SVG_MARGIN, py(y_min), _SVG_W - _SVG_MARGIN, py(y_min))
        + line(_SVG_MARGIN, py(y_min), _SVG_MARGIN, _SVG_MARGIN),
    ]
    n_ticks = 5
    for i in range(n_ticks + 1):
        tx = x_min + (x_max - x_min) * i / n_ticks
        ty = y_min + (y_max - y_min) * i / n_ticks
        xp, yp = px(tx), py(ty)
        parts.append(line(xp, py(y_min), xp, py(y_min) + 6)
                     + text(f"{xp:.2f}", f"{py(y_min) + 20:.2f}", "middle", 10, f"{tx:.6g}"))
        parts.append(line(_SVG_MARGIN - 6, yp, _SVG_MARGIN, yp)
                     + text(f"{_SVG_MARGIN - 10:.2f}", f"{yp + 3:.2f}", "end", 10, f"{ty:.6g}"))
    parts.append(text(f"{_SVG_W / 2:.2f}", f"{_SVG_H - 12:.2f}", "middle", 12, xlabel)
                 + text("16", f"{_SVG_H / 2:.2f}", "middle", 12, ylabel,
                        f' transform="rotate(-90 16 {_SVG_H / 2:.2f})"'))
    coords = np.column_stack([px(xs), py(ys)]).ravel()
    points = " ".join(map(_points, np.split(coords, range(2 * _BLOCK, coords.size, 2 * _BLOCK))))
    parts.append(
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{points}"/>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")


def _points(coords) -> str:
    """Interleaved x, y coordinates as "%.3f,%.3f" points joined by " ": by %
    if any is outside [0, 2^30) or has its sign bit set, else in numpy, which
    rounds exact values half to even as "%.3f" does: where fl(1000 v) is a
    tie, the sign of 1000 v - fl(1000 v), exact by a Dekker split, decides."""
    if np.signbit(coords).any() or not (coords < 2.0**30).all():
        return " ".join(["%.3f,%.3f"] * (coords.size // 2)) % tuple(coords.tolist())
    scaled = coords * 1000.0
    high = coords * 134217729.0 - (coords * 134217729.0 - coords)  # 26 bits: 1000 high exact
    error = (high * 1000.0 - scaled) + (coords - high) * 1000.0
    tie = np.abs(scaled - np.rint(scaled)) == 0.5  # k + 1/2 +- 1/4 is exact
    rounded = np.rint(scaled + np.where(tie, 0.25 * np.sign(error), 0.0))
    thousandths = rounded.astype(np.int64)
    groups = -(-len(str(thousandths.max() // 1000)) // 3)  # of three whole digits
    place = 1000 ** np.arange(groups, -1, -1, dtype=np.int64)[:, None]
    chars = _DIGITS.take((thousandths // place % 1000).T).view(np.uint8)
    chars[:, 4 * groups - 1] = ord(".")  # the free bytes after the units and the fraction
    chars.reshape(-1, 2, 4 * groups + 4)[:, :, -1] = (ord(","), ord(" "))
    keep = thousandths[:, None] >= _SHOWN[-4 * groups - 4 :]
    return chars[keep].tobytes()[:-1].decode("ascii")


def run(config: RunConfig) -> int:
    """Execute one experiment; writes manifest, CSVs, and SVGs."""
    out = config.output_dir
    mesh = config.mesh
    timings = {"mesh_seconds": config.mesh_seconds}
    warnings = [_DIMENSION_CAVEAT] if mesh.dim < 3 else []
    for key, (reader, verb) in _EXPERIMENT_KEYS.items():
        if config.experiment != reader and config.raw.get(key) is not None:
            warnings.append(f"{key} was validated but {config.experiment} runs do not {verb} it")

    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w", encoding="ascii") as handle:
            handle.write("ok")
        os.remove(probe)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte or a lone surrogate
        _emit_error("output", f"cannot write to output directory {out!r}: {exc}")
        return EXIT_OUTPUT

    started = time.perf_counter()
    try:
        # non-finite results raise where they appear; numpy need not warn too
        with np.errstate(all="ignore"):
            tables, plots, summary = _run_experiment(config)
    except (RobinLabError, MemoryError) as exc:  # a bare MemoryError has no message
        # a family member's failure carries a note naming its index
        _emit_error("solve", ": ".join([*getattr(exc, "__notes__", ()), str(exc) or repr(exc)]))
        return EXIT_SOLVE
    timings["experiment_seconds"] = time.perf_counter() - started

    manifest = {
        "version": __version__,
        "experiment": config.experiment,
        "config": config.raw,
        "mesh": {
            "dim": mesh.dim,
            "vertices": mesh.num_vertices,
            "cells": mesh.num_cells,
            "boundary_facets": mesh.num_facets,
            "h": mesh.h,
        },
        "timings": timings,
        "warnings": warnings,
        "summary": summary,
    }
    started = time.perf_counter()
    try:
        for name, (header, columns) in tables.items():
            emit_csv(header, columns, os.path.join(out, f"{name}.csv"))
        for name, (xs, ys, xlabel, ylabel, title) in plots.items():
            emit_svg(xs, ys, os.path.join(out, f"{name}.svg"), xlabel, ylabel, title)
        timings["emit_seconds"] = time.perf_counter() - started  # the manifest holds timings
        with open(os.path.join(out, "manifest.json"), "w", encoding="ascii") as handle:
            handle.write(json.dumps(manifest, sort_keys=True) + "\n")
    except OSError as exc:
        _emit_error("output", f"cannot write results: {exc}")
        return EXIT_OUTPUT
    return EXIT_OK


def _run_experiment(config: RunConfig):
    """Returns (tables, plots, summary) for the configured experiment."""
    mesh, betas = config.mesh, config.betas
    tables, plots, summary = {}, {}, {}
    solutions = solve_robin(mesh, config.lam, config.f, betas, config.lumped, config.tol)

    if config.experiment == "solve":
        u, coordinates = solutions[0], mesh.coordinates(0, mesh.num_vertices)
        index = np.arange(mesh.num_vertices)
        header = ["vertex_index", *"xyz"[: mesh.dim], "value"]
        tables["solution"] = (header, [index, *coordinates, u])
        plots["solution"] = (
            coordinates[0] if mesh.dim == 1 else index,
            u,
            "x" if mesh.dim == 1 else "vertex index",
            "value",
            "nodal solution",
        )
        summary["sup_norm"] = sup_norm(u)

    elif config.experiment == "stability":
        records = stability_sweep(mesh, betas, solutions)
        c_hat = estimate_constant(records)
        header = ["n", "m", "diff_sup", "un_bd_sup", "beta_diff", "ratio"]
        # the records are the rows; an uninformative pair has no ratio
        tables["stability"] = (header, [*zip(*records, ("C_hat", c_hat, None, None, None, None))])
        ratios = [r.ratio for r in records if r.ratio is not None]
        plots["stability"] = (
            range(len(ratios)),
            ratios,
            "pair index",
            "ratio",
            "stability ratios",
        )
        summary["C_hat"] = c_hat
        summary["records"] = len(records)

    elif config.experiment == "convergence":
        errs = convergence_study(solutions)
        ns = range(len(errs))
        tables["convergence"] = (["n", "sup_err"], [ns, errs])
        plots["convergence"] = (
            ns,
            errs,
            "sequence index",
            "sup error",
            "convergence to the limit problem",
        )
        summary["final_sup_err"] = errs[-1]

    elif config.experiment == "stampacchia":
        u_a, u_b = solutions
        report = level_set_pipeline(u_a - u_b, mesh, c2=config.c2)
        tables["stampacchia"] = (["k", "phi"], [report.samples.ks, report.samples.values])
        tables["stampacchia_report"] = (
            ["hypothesis_ok", "predicted_gap", "vanish_point", "conclusion_ok"],
            [[str(report.hypothesis_ok).lower()], [report.predicted_gap], [report.vanish_point],
             [str(report.conclusion_ok).lower()]],
        )
        plots["stampacchia"] = (
            report.samples.ks,
            report.samples.values,
            "level k",
            "boundary measure of {|u| > k}",
            "level-set decay",
        )
        summary["hypothesis_ok"] = report.hypothesis_ok
        summary["conclusion_ok"] = report.conclusion_ok

    else:  # theorem0
        sup_u, f_norm = theorem0_terms(solutions[0], mesh, config.f, config.p)
        ratio = sup_u / f_norm
        tables["theorem0"] = (
            ["p", "sup_u", "f_norm", "ratio"],
            [[config.p], [sup_u], [f_norm], [ratio]],
        )
        summary["ratio"] = ratio

    return tables, plots, summary


def _emit_error(field_name: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": {"field": field_name, "message": message}}) + "\n"
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError instead of printing usage and exiting."""

    def error(self, message):
        raise ConfigError("arguments", message)


def _read_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigError("config", f"cannot read config {path!r}: {exc}") from exc


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="robin-lab",
        description="Robin boundary value problem laboratory (P1 finite elements)",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", default=None, help="override the output directory")
    try:
        args = parser.parse_args(argv)
        config = parse_config(_read_config(args.config), args.experiment, args.output)
    except ConfigError as exc:
        _emit_error(exc.field_name, str(exc))
        return EXIT_CONFIG

    return run(config)


if __name__ == "__main__":
    sys.exit(main())
