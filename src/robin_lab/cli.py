"""Command line front end: config ingestion, orchestration, CSV/SVG output.

Usage:  robin-lab <experiment> --config path.json [--output dir]

The JSON config holds the domain (interval, square, cube), the mesh
parameter n, lambda, the source spec, a boundary coefficient sequence
(either a list of field specs or the generator
``{"kind": "one_over_k", "base": b, "count": c}`` meaning b + 1/(k+1)),
and per-experiment extras.  Field specs:

    {"kind": "constant", "value": v}
    {"kind": "per_facet", "values": [...]}
    {"kind": "expr", "expr": "x + 2*y"}

Every run writes manifest.json (config echo, version, mesh statistics,
timings, warnings), one CSV per result table, and one SVG per plot.  CSV
and SVG bytes are deterministic for identical configs; floats carry 17
significant digits so files round-trip exactly.

Exit codes: 0 success, 2 invalid config, 3 solve failure, 4 unwritable
output path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .analysis import sup_norm, lp_norm
from .errors import RobinLabError
from .experiments import (
    _solve_family,
    estimate_constant,
    convergence_study,
    level_set_pipeline,
    stability_sweep,
    theorem0_ratio,
)
from .fields import BoundaryField, SourceField, check_expression_dimension
from .mesh import build_mesh

EXPERIMENTS = ("solve", "stability", "convergence", "stampacchia", "theorem0")
_DIMENSIONS = {"interval": 1, "square": 2, "cube": 3}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVE = 3
EXIT_OUTPUT = 4

_DIMENSION_CAVEAT = (
    "domain dimension is below 3; trace/embedding exponents do not apply and "
    "results are illustrative only"
)


class ConfigError(RobinLabError):
    """Invalid run configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass
class RunConfig:
    domain: str
    n: int
    lam: float
    f: SourceField
    betas: list  # BoundaryFields, generator already expanded
    experiment: str
    output_dir: str
    p: float = 4.0
    c2: float = 0.0
    quad_order: int = 2
    lumped: bool = False
    tol: float = 1e-10
    beta_limit: BoundaryField = None
    raw: dict = field(default_factory=dict)  # echoed into the manifest


def expand_beta_sequence(raw) -> list:
    """Turn the beta_sequence config entry into a list of field specs."""
    if isinstance(raw, dict):
        if raw.get("kind") != "one_over_k":
            raise ConfigError("beta_sequence", f"unknown generator kind {raw.get('kind')!r}")
        base = raw.get("base")
        count = raw.get("count")
        if not _is_number(base):
            raise ConfigError("beta_sequence.base", "generator base must be a finite number")
        if not _is_integer(count) or count < 1:
            raise ConfigError("beta_sequence.count", "generator count must be a positive integer")
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


def parse_config(data: dict, default_output: str = "out") -> RunConfig:
    """Validate the raw JSON dict into a RunConfig (raises ConfigError)."""
    if not isinstance(data, dict):
        raise ConfigError("config", "top-level JSON value must be an object")

    domain = data.get("domain")
    if domain not in _DIMENSIONS:
        raise ConfigError("domain", f"must be interval, square, or cube, got {domain!r}")
    dim = _DIMENSIONS[domain]

    n = data.get("n")
    if not _is_integer(n) or n < 1:
        raise ConfigError("n", f"must be a positive integer, got {n!r}")

    lam = data.get("lambda")
    if not _is_number(lam) or lam <= 0.0:
        raise ConfigError("lambda", f"must be a finite positive number, got {lam!r}")

    experiment = data.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            "experiment", f"must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}"
        )

    f = _parse_field(data.get("f"), "f", SourceField, dim)

    beta_specs = expand_beta_sequence(data.get("beta_sequence"))
    betas = [
        _parse_field(spec, f"beta_sequence[{i}]", BoundaryField, dim)
        for i, spec in enumerate(beta_specs)
    ]

    beta_limit = None
    if data.get("beta_limit") is not None:
        beta_limit = _parse_field(data["beta_limit"], "beta_limit", BoundaryField, dim)
    elif experiment == "convergence":
        raw_seq = data.get("beta_sequence")
        if isinstance(raw_seq, dict):
            limit_spec = {"kind": "constant", "value": raw_seq["base"]}
            beta_limit = _parse_field(limit_spec, "beta_sequence.base", BoundaryField, dim)
        else:
            raise ConfigError(
                "beta_limit",
                "convergence runs need a beta_limit spec (it is implied only "
                "by the one_over_k generator)",
            )

    p = data.get("p", 4.0)
    if not _is_number(p) or p < 1.0:
        raise ConfigError("p", f"must be a finite number >= 1, got {p!r}")

    c2 = data.get("c2", 0.0)
    if not _is_number(c2) or c2 < 0.0:
        raise ConfigError("c2", f"must be a finite nonnegative number, got {c2!r}")

    quad_order = data.get("quad_order", 2)
    if not _is_integer(quad_order) or quad_order < 1:
        raise ConfigError("quad_order", f"must be a positive integer, got {quad_order!r}")

    lumped = data.get("lumped", False)
    if not isinstance(lumped, bool):
        raise ConfigError("lumped", f"must be a boolean, got {lumped!r}")

    tol = data.get("tol", 1e-10)
    if not _is_number(tol) or tol <= 0.0:
        raise ConfigError("tol", f"must be a finite positive number, got {tol!r}")

    if experiment == "stampacchia" and domain != "cube":
        raise ConfigError(
            "experiment", "stampacchia runs need the cube domain (dimension >= 3)"
        )
    if experiment in ("stability", "stampacchia") and len(beta_specs) < 2:
        raise ConfigError(
            "beta_sequence", f"{experiment} runs need at least two coefficients"
        )

    output_dir = data.get("output_dir", default_output)
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", f"must be a nonempty string, got {output_dir!r}")

    return RunConfig(
        domain=domain,
        n=n,
        lam=float(lam),
        f=f,
        betas=betas,
        experiment=experiment,
        output_dir=output_dir,
        p=float(p),
        c2=float(c2),
        quad_order=quad_order,
        lumped=lumped,
        tol=float(tol),
        beta_limit=beta_limit,
        raw=dict(data),
    )


def _is_number(value) -> bool:
    """A finite JSON number; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_integer(value) -> bool:
    """A JSON integer; booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_field(spec, where: str, cls, dim: int):
    """Build a SourceField or BoundaryField (per_facet allowed) from its spec.

    Boundary values must be finite and >= 0; an expression may name only
    the coordinates of a dim-dimensional domain.
    """
    if not isinstance(spec, dict):
        raise ConfigError(where, "field spec must be an object")
    kind = spec.get("kind")
    try:
        if kind == "constant":
            value = spec.get("value")
            if not _is_number(value) or (cls is BoundaryField and value < 0.0):
                raise ConfigError(
                    where,
                    f"constant field needs a finite 'value' (>= 0 on the boundary), "
                    f"got {value!r}",
                )
            return cls.constant(value)
        if kind == "per_facet" and cls is BoundaryField:
            values = spec.get("values")
            if not isinstance(values, list) or not values:
                raise ConfigError(where, "per_facet field needs a nonempty 'values' list")
            if not all(_is_number(v) and v >= 0.0 for v in values):
                raise ConfigError(where, "per_facet values must be finite numbers >= 0")
            return cls.per_facet(values)
        if kind == "expr":
            expr = spec.get("expr")
            if not isinstance(expr, str):
                raise ConfigError(where, "expr field needs an 'expr' string")
            built = cls.from_expression(expr)  # reports syntax errors first
            check_expression_dimension(expr, dim)
            return built
    except ValueError as exc:  # InvalidArgumentError from the expression
        raise ConfigError(where, str(exc)) from exc
    raise ConfigError(where, f"unsupported field kind {kind!r}")


def format_float(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def emit_csv(header, rows, path) -> None:
    """Write a CSV table: '.' decimals, '\\n' endings, 17 significant digits.

    ``rows`` may be any iterable; each row is written as it is produced.
    """
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, str):
                    cells.append(cell)
                elif cell is None:
                    cells.append("")
                elif isinstance(cell, bool):
                    cells.append("true" if cell else "false")
                elif isinstance(cell, int):
                    cells.append(str(cell))
                else:
                    cells.append(format_float(cell))
            handle.write(",".join(cells) + "\n")


_SVG_W, _SVG_H = 640, 480
_SVG_MARGIN = 60.0


def emit_svg(xs, ys, path, xlabel: str = "", ylabel: str = "", title: str = "") -> None:
    """Single-polyline plot with axes, ticks, and labels; byte-deterministic."""
    if len(xs) == 0 or len(xs) != len(ys):
        raise RobinLabError("svg series must be nonempty and equally long")
    x_min, x_max = float(min(xs)), float(max(xs))
    y_min = min(0.0, float(min(ys)))
    y_max = float(max(ys)) * 1.05 if max(ys) > 0 else float(max(ys))
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

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    axis = (
        f'<line x1="{_SVG_MARGIN:.2f}" y1="{py(y_min):.2f}" x2="{_SVG_W - _SVG_MARGIN:.2f}" '
        f'y2="{py(y_min):.2f}" stroke="black"/>'
        f'<line x1="{_SVG_MARGIN:.2f}" y1="{py(y_min):.2f}" x2="{_SVG_MARGIN:.2f}" '
        f'y2="{_SVG_MARGIN:.2f}" stroke="black"/>'
    )
    parts.append(axis)

    n_ticks = 5
    for i in range(n_ticks + 1):
        tx = x_min + (x_max - x_min) * i / n_ticks
        ty = y_min + (y_max - y_min) * i / n_ticks
        xp, yp = px(tx), py(ty)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{py(y_min):.2f}" x2="{xp:.2f}" '
            f'y2="{py(y_min) + 6:.2f}" stroke="black"/>'
            f'<text x="{xp:.2f}" y="{py(y_min) + 20:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{tx:.6g}</text>'
        )
        parts.append(
            f'<line x1="{_SVG_MARGIN - 6:.2f}" y1="{yp:.2f}" x2="{_SVG_MARGIN:.2f}" '
            f'y2="{yp:.2f}" stroke="black"/>'
            f'<text x="{_SVG_MARGIN - 10:.2f}" y="{yp + 3:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{ty:.6g}</text>'
        )
    parts.append(
        f'<text x="{_SVG_W / 2:.2f}" y="{_SVG_H - 12:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{xlabel}</text>'
        f'<text x="16" y="{_SVG_H / 2:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_SVG_H / 2:.2f})">{ylabel}</text>'
    )
    points = " ".join(f"{px(float(x)):.3f},{py(float(y)):.3f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{points}"/>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")


def run(config: RunConfig, output_dir: str = None) -> int:
    """Execute one experiment; writes manifest, CSVs, and SVGs."""
    out = output_dir or config.output_dir
    timings = {}
    warnings = []
    if config.domain != "cube":
        warnings.append(_DIMENSION_CAVEAT)

    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w", encoding="ascii") as handle:
            handle.write("ok")
        os.remove(probe)
    except OSError as exc:
        _emit_error("output", f"cannot write to output directory {out!r}: {exc}")
        return EXIT_OUTPUT

    started = time.perf_counter()
    mesh = build_mesh(config.domain, config.n)
    timings["mesh_seconds"] = time.perf_counter() - started

    named = [(f"beta_sequence[{i}]", beta) for i, beta in enumerate(config.betas)]
    named.append(("beta_limit", config.beta_limit))
    for where, beta in named:
        if beta is None or beta.kind != "per_facet":
            continue
        if beta.facet_values.size != mesh.num_facets:
            _emit_error(
                where,
                f"per_facet field has {beta.facet_values.size} values but the "
                f"mesh has {mesh.num_facets} boundary facets",
            )
            return EXIT_CONFIG

    started = time.perf_counter()
    try:
        tables, plots, summary = _run_experiment(config, mesh)
    except RobinLabError as exc:
        # a family member's failure carries a note naming its index
        _emit_error("solve", ": ".join([*getattr(exc, "__notes__", ()), str(exc)]))
        return EXIT_SOLVE
    timings["experiment_seconds"] = time.perf_counter() - started

    started = time.perf_counter()
    try:
        for name, (header, rows) in tables.items():
            emit_csv(header, rows, os.path.join(out, f"{name}.csv"))
        for name, (xs, ys, xlabel, ylabel, title) in plots.items():
            emit_svg(xs, ys, os.path.join(out, f"{name}.svg"), xlabel, ylabel, title)
    except OSError as exc:
        _emit_error("output", f"cannot write results: {exc}")
        return EXIT_OUTPUT
    timings["emit_seconds"] = time.perf_counter() - started

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
    try:
        with open(os.path.join(out, "manifest.json"), "w", encoding="ascii") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        _emit_error("output", f"cannot write manifest: {exc}")
        return EXIT_OUTPUT
    return EXIT_OK


def _run_experiment(config: RunConfig, mesh):
    """Returns (tables, plots, summary) for the configured experiment."""
    f, betas = config.f, config.betas
    tables, plots, summary = {}, {}, {}

    if config.experiment == "solve":
        (u,) = _solve(config, mesh, betas[:1])
        coord_names = ["x", "y", "z"][: mesh.dim]
        header = ["vertex_index"] + coord_names + ["value"]
        rows = (
            [i] + [float(c) for c in mesh.vertices[i]] + [float(v)]
            for i, v in enumerate(u.nodal_values)
        )
        tables["solution"] = (header, rows)
        if mesh.dim == 1:
            xs = [float(c[0]) for c in mesh.vertices]
        else:
            xs = list(range(mesh.num_vertices))
        plots["solution"] = (
            xs,
            [float(v) for v in u.nodal_values],
            "x" if mesh.dim == 1 else "vertex index",
            "value",
            "nodal solution",
        )
        summary["sup_norm"] = sup_norm(u, "closure")

    elif config.experiment == "stability":
        records = stability_sweep(
            mesh,
            config.lam,
            f,
            betas,
            quad_order=config.quad_order,
            lumped=config.lumped,
            tol=config.tol,
        )
        c_hat = estimate_constant(records)
        header = ["n", "m", "diff_sup", "un_bd_sup", "beta_diff", "ratio"]
        rows = [
            [r.n, r.m, r.diff_sup_closure, r.un_sup_boundary, r.beta_diff_sup, r.ratio]
            for r in records
        ]
        rows.append(["C_hat", format_float(c_hat), "", "", "", ""])
        tables["stability"] = (header, rows)
        ratios = [r.ratio for r in records if r.ratio is not None]
        plots["stability"] = (
            list(range(len(ratios))),
            ratios,
            "pair index",
            "ratio",
            "stability ratios",
        )
        summary["C_hat"] = c_hat
        summary["records"] = len(records)

    elif config.experiment == "convergence":
        records = convergence_study(
            mesh,
            config.lam,
            f,
            betas,
            config.beta_limit,
            quad_order=config.quad_order,
            lumped=config.lumped,
            tol=config.tol,
        )
        header = ["n", "sup_err"]
        rows = [[r.n, r.sup_err_closure] for r in records]
        tables["convergence"] = (header, rows)
        plots["convergence"] = (
            [r.n for r in records],
            [r.sup_err_closure for r in records],
            "sequence index",
            "sup error",
            "convergence to the limit problem",
        )
        summary["final_sup_err"] = records[-1].sup_err_closure

    elif config.experiment == "stampacchia":
        pair = _solve(config, mesh, betas[:2])
        report = level_set_pipeline(pair[0] - pair[1], mesh.dim, c2=config.c2)
        ks, phis = report.samples.ks, report.samples.values
        tables["stampacchia"] = (
            ["k", "phi"],
            [[float(k), float(v)] for k, v in zip(ks, phis)],
        )
        tables["stampacchia_report"] = (
            ["hypothesis_ok", "predicted_gap", "vanish_point", "conclusion_ok"],
            [[report.hypothesis_ok, report.predicted_gap, report.vanish_point, report.conclusion_ok]],
        )
        plots["stampacchia"] = (
            [float(k) for k in ks],
            [float(v) for v in phis],
            "level k",
            "boundary measure of {|u| > k}",
            "level-set decay",
        )
        summary["hypothesis_ok"] = report.hypothesis_ok
        summary["conclusion_ok"] = report.conclusion_ok

    else:  # theorem0
        (u,) = _solve(config, mesh, betas[:1])
        ratio = theorem0_ratio(u, f, config.p, config.quad_order)
        f_norm = lp_norm(f, config.p, "domain", config.quad_order, mesh=mesh)
        tables["theorem0"] = (
            ["p", "sup_u", "f_norm", "ratio"],
            [[config.p, sup_norm(u, "closure"), f_norm, ratio]],
        )
        summary["ratio"] = ratio

    return tables, plots, summary


def _solve(config: RunConfig, mesh, betas) -> list:
    """Solutions for `betas` with the config's lambda, f and solver settings."""
    return _solve_family(
        mesh, config.lam, config.f, betas, config.quad_order, config.lumped, config.tol, None
    )


def _emit_error(field_name: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": {"field": field_name, "message": message}}) + "\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="robin-lab",
        description="Robin boundary value problem laboratory (P1 finite elements)",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error("config", f"cannot read config {args.config!r}: {exc}")
        return EXIT_CONFIG

    data.setdefault("experiment", args.experiment)
    if data["experiment"] != args.experiment:
        _emit_error(
            "experiment",
            f"config says {data['experiment']!r} but the command line says "
            f"{args.experiment!r}",
        )
        return EXIT_CONFIG

    try:
        config = parse_config(data)
    except ConfigError as exc:
        _emit_error(exc.field_name, str(exc))
        return EXIT_CONFIG

    return run(config, output_dir=args.output)


if __name__ == "__main__":
    sys.exit(main())
