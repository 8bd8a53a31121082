"""Tests of the benchmark's own code (kept out of the package's suite).

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import harness  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

C_HAT = workloads.REFERENCES["sweep-cube"]["C_hat"]


def _write_sweep(out: Path, max_ratio: float, c_hat: float) -> None:
    lines = ["n,m,diff_sup,un_bd_sup,beta_diff,ratio"]
    for k in range(workloads.SWEEP_PAIRS):
        ratio = max_ratio if k == 17 else max_ratio * (0.5 + k / 400)
        lines.append(f"{k // 9},{k % 9},0.001,0.1,0.01,{ratio!r}")
    lines.append(f"C_hat,{c_hat!r},,,,")
    (out / "stability.csv").write_text("\n".join(lines) + "\n")


def test_sweep_check_accepts_reference_and_rejects_tampered_c_hat(tmp_path):
    _write_sweep(tmp_path, C_HAT, C_HAT)
    assert workloads.check_sweep(tmp_path, 0) == []

    _write_sweep(tmp_path, C_HAT, C_HAT * (1 + 1e-6))
    problems = workloads.check_sweep(tmp_path, 0)
    assert any("largest ratio" in p for p in problems)
    assert any("reference" in p for p in problems)

    # self-consistent table whose constant drifted from the reference
    _write_sweep(tmp_path, C_HAT * (1 + 1e-7), C_HAT * (1 + 1e-7))
    assert [p for p in workloads.check_sweep(tmp_path, 0) if "reference" in p]


def _write_square_solution(out: Path, bump: float) -> None:
    n = workloads.SQUARE_N
    lines = ["vertex_index,x,y,value"]
    for index in range((n + 1) ** 2):
        x, y = (index % (n + 1)) / n, (index // (n + 1)) / n
        value = workloads._phi(x) * workloads._phi(y) + (bump if index == 1234 else 0.0)
        lines.append(f"{index},{x!r},{y!r},{value!r}")
    (out / "solution.csv").write_text("\n".join(lines) + "\n")


def test_solve_check_rejects_manufactured_error_breach(tmp_path):
    _write_square_solution(tmp_path, 1e-5)
    assert workloads.check_solve(tmp_path, 0) == []
    _write_square_solution(tmp_path, 1e-4)
    (problem,) = workloads.check_solve(tmp_path, 0)
    assert "exact solution" in problem


def test_converge_config_is_driven_by_the_seed():
    first = workloads.converge_config(5)
    assert first == workloads.converge_config(5)
    assert first != workloads.converge_config(6)
    values = first["beta_sequence"][0]["values"]
    assert len(values) == workloads.CUBE16_FACETS
    assert all(1.0 <= v < 2.0 for v in values)


def test_nonzero_child_exit_counts_as_failed(tmp_path):
    env = harness.child_env(tmp_path)
    samples = harness.timed_runs(
        [sys.executable, "-c", "import sys; sys.exit(3)"],
        env,
        0.0,
        tmp_path / "out",
        lambda out: [],
        timeout=60.0,
    )
    assert len(samples) == 1
    assert samples[0].failed
    assert samples[0].problems[0].startswith("exit code 3")


def test_output_problem_counts_as_failed(tmp_path):
    samples = harness.timed_runs(
        [sys.executable, "-c", "pass"],
        harness.child_env(tmp_path),
        0.0,
        tmp_path / "out",
        lambda out: ["wrong"],
        timeout=60.0,
    )
    assert [s.failed for s in samples] == [True]


def test_child_without_probe_record_counts_as_failed(tmp_path):
    samples = harness.timed_runs(
        [sys.executable, "-c", "pass"],
        harness.child_env(tmp_path),
        0.0,
        tmp_path / "out",
        lambda out: [],
        timeout=60.0,
        record_path=tmp_path / "probe.json",
    )
    assert samples[0].problems == ["the child left no probe record"]


def test_normalized_scales_by_the_kernel_time():
    slow = {"cpu": 4.0, "kernel": [0.02, 0.02], "ref": 0.01}
    assert probe.normalized(slow) == pytest.approx(2.0)
    fast = {"cpu": 1.0, "kernel": [0.004, 0.006], "ref": 0.01}
    assert probe.normalized(fast) == pytest.approx(2.0)


@pytest.fixture
def tiny_sweep(tmp_path):
    config = {
        "experiment": "stability",
        "domain": "cube",
        "n": 2,
        "lambda": 1.0,
        "f": {"kind": "expr", "expr": "1 + x"},
        "beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["stability", "--config", str(path), "--output", str(tmp_path / "out")]


def test_probed_run_leaves_a_record(tiny_sweep, tmp_path):
    record = tmp_path / "probe.json"
    samples = harness.timed_runs(
        [sys.executable, harness.PROBE, "run", str(record), *tiny_sweep],
        harness.child_env(ROOT / "src"),
        0.0,
        tmp_path / "out",
        lambda out: [] if (out / "stability.csv").is_file() else ["no table"],
        timeout=60.0,
        record_path=record,
    )
    (sample,) = samples
    assert sample.problems == []
    assert 0.0 < sample.child.record["cpu"] < sample.child.cpu_seconds
    assert len(sample.child.record["kernel"]) >= 2 * probe.BRACKET_PASSES
    assert sample.child.record["ref"] == probe.INTERP_REF_S + probe.ARRAY_REF_S
    assert probe.normalized(sample.child.record) > 0.0


def test_traced_self_times_sum_within_wall(tiny_sweep, tmp_path):
    values, problems = run.traced_run(tiny_sweep, tmp_path / "out", lambda out: [])
    assert problems == []
    layer_self = sum(values[f"{layer}.self_s"] for layer in tracing.LAYER_FUNCTIONS)
    assert 0.0 < layer_self <= values["trace.cpu_s"] + 1e-9
    assert layer_self <= values["trace.wall_s"]
    assert values["fields.sup_diff_calls"] == 6
    assert values["experiments.pairs"] == 6
    assert values["assembly.system_calls"] == values["assembly.load_calls"] == 3
    assert values["fields.expr_evals"] > 0
    assert values["trace.absent"] == 0

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    values["trace.overhead_s"] = 0.0  # set by run.measure from the timed runs
    assert [m["name"] for m in per_layer if m["name"] not in values] == []


def test_tracer_restores_the_package(tiny_sweep):
    import robin_lab.analysis
    import robin_lab.experiments

    original = robin_lab.analysis.level_set_measure
    with tracing.installed(tracing.Tracer()):
        assert robin_lab.experiments.level_set_measure is not original
        assert robin_lab.analysis.level_set_measure is robin_lab.experiments.level_set_measure
    assert robin_lab.analysis.level_set_measure is original
    assert robin_lab.experiments.level_set_measure is original


def test_missing_name_is_recorded_as_absent(monkeypatch, tiny_sweep):
    layers = dict(tracing.LAYER_FUNCTIONS, mesh={"no_such_builder": "build"})
    monkeypatch.setattr(tracing, "LAYER_FUNCTIONS", layers)
    tracer, code, _, _ = tracing.trace_cli(tiny_sweep)
    assert code == 0
    assert "mesh.no_such_builder" in tracer.absent
    assert tracer.metrics()["mesh.build_calls"] == 0


def test_self_time_subtracts_direct_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("linalg", "cg", lambda: None)
    outer = tracer.wrap("experiments", "solve", lambda: (inner(), inner()))
    outer()  # outer spans 0..5, the inner calls 1..2 and 3..4
    metrics = tracer.metrics()
    assert metrics["experiments.solve_s"] == 3.0
    assert metrics["linalg.cg_s"] == 2.0
    assert metrics["linalg.cg_calls"] == 2
