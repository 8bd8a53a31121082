"""The benchmark's span tracer must find every function it names.

bench/tracing.py records a name the package no longer has as absent
instead of failing, so a rename or signature change would silently drop a
span from the benchmark's traced run.  This test loads the tracer by path
and fails on any such name instead.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import robin_lab as rl
# loaded before any tracer is installed: the tracer restores only the modules
# that were loaded when it was installed, so a CLI module first imported under
# one tracer would keep that tracer's wrappers for the next
import robin_lab.cli  # noqa: F401
from robin_lab import fields

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses need it
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pass
    assert tracer.absent == []
    # the tracer's counting wrapper calls the compiler with the expression alone
    assert len(inspect.signature(fields.compile_expression).parameters) == 1


def test_traced_stability_run_reads_the_solver(tmp_path, monkeypatch):
    # the tracer's hooks read cg_solve's report of the whole family (the
    # iterations summed over the members, the largest residual) and the
    # size of one member's matrix
    tracing = _load_tracing(monkeypatch)
    values = [1.5, 2.0, 3.0]
    config = {
        "experiment": "stability",
        "domain": "cube",
        "n": 4,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": [{"kind": "constant", "value": v} for v in values],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    tracer, code, _, _ = tracing.trace_cli(["stability", "--config", str(path)])
    assert code == 0
    metrics = tracer.metrics()
    json.dumps(metrics)

    mesh = rl.build_mesh("cube", 4)
    operator = rl.assemble_operator(mesh, 1.0)
    betas = [rl.BoundaryField.constant(v) for v in values]
    system = rl.assemble_system(operator, mesh, betas)
    load = rl.assemble_load(mesh, rl.SourceField.constant(1.0))
    _, report = rl.cg_solve(operator, load, 1e-10, rl.mesh.prolongations(mesh), system.boundary)
    assert metrics["linalg.cg_iterations"] == sum(report.member_iterations) > 0
    assert metrics["linalg.cg_residual_max"] <= 1e-10
    assert metrics["assembly.nnz"] == operator.nnz


def test_traced_solve_run_charges_both_writers_to_emit(tmp_path, monkeypatch):
    # the CSV and the SVG writer each make one cli.emit span; a writer that
    # is renamed or bypassed would move its time into cli.self_s instead
    tracing = _load_tracing(monkeypatch)
    config = {
        "experiment": "solve",
        "domain": "square",
        "n": 8,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": [{"kind": "constant", "value": 1.0}],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    tracer, code, _, _ = tracing.trace_cli(["solve", "--config", str(path)])
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["cli.emit_calls"] == 2
    assert metrics["cli.emit_s"] > 0


def test_traced_stability_run_counts_the_records(tmp_path, monkeypatch):
    # the tracer's sweep hook counts stability_sweep's records and those
    # whose ratio is None; the repeated 1.5 makes its two pairs uninformative
    tracing = _load_tracing(monkeypatch)
    config = {
        "experiment": "stability",
        "domain": "cube",
        "n": 4,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": [{"kind": "constant", "value": v} for v in [1.5, 1.5, 2.0]],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    tracer, code, _, _ = tracing.trace_cli(["stability", "--config", str(path)])
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["experiments.pairs"] == 6
    assert metrics["experiments.uninformative_pairs"] == 2
