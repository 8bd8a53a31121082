import json
import os
import warnings

import pytest

from robin_lab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_SOLVE,
    ConfigError,
    emit_csv,
    emit_svg,
    expand_beta_sequence,
    main,
    parse_config,
    run,
)
from robin_lab.experiments import analytic_interval_solution


def _solve_config(output_dir, n=64):
    return {
        "domain": "interval",
        "n": n,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": [{"kind": "constant", "value": 1.0}],
        "experiment": "solve",
        "output_dir": output_dir,
    }


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_solve_run_outputs(tmp_path):
    out = str(tmp_path / "out")
    config = parse_config(_solve_config(out))
    assert run(config) == EXIT_OK
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "solution.csv", "solution.svg"]

    lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert lines[0] == "vertex_index,x,value"
    assert len(lines) == 66  # header + 65 vertices
    values = [float(line.split(",")[2]) for line in lines[1:]]
    oracle = analytic_interval_solution(1.0, 1.0, 1.0)
    assert max(values) == pytest.approx(oracle(0.5), abs=1e-3)


def test_invalid_lambda_exits_2(tmp_path, capsys):
    bad = _solve_config(str(tmp_path / "o"))
    bad["lambda"] = 0
    path = _write(tmp_path, "bad.json", bad)
    assert main(["solve", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["field"] == "lambda"


def _square_stability_config(output_dir, beta):
    return {
        "domain": "square",
        "n": 2,  # 8 boundary facets
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": [{"kind": "constant", "value": 1.0}, beta],
        "experiment": "stability",
        "output_dir": output_dir,
    }


def _single_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("count", [7, 9])
def test_per_facet_length_mismatch_exits_2(tmp_path, capsys, count):
    beta = {"kind": "per_facet", "values": [1.0] * count}
    path = _write(tmp_path, "c.json", _square_stability_config(str(tmp_path / "o"), beta))
    assert main(["stability", "--config", path]) == EXIT_CONFIG
    error = _single_error_line(capsys)
    assert error["field"] == "beta_sequence[1]"
    assert "8 boundary facets" in error["message"]


@pytest.mark.parametrize("expr", ["x +", "x + 1/0"])
@pytest.mark.parametrize("where", ["f", "beta_sequence[1]", "beta_limit"])
def test_bad_expression_exits_2_naming_the_field(tmp_path, capsys, expr, where):
    cfg = _square_stability_config(str(tmp_path / "o"), {"kind": "constant", "value": 2.0})
    spec = {"kind": "expr", "expr": expr}
    if where == "f":
        cfg["f"] = spec
    elif where == "beta_limit":
        cfg["beta_limit"] = spec
    else:
        cfg["beta_sequence"][1] = spec
    path = _write(tmp_path, "c.json", cfg)
    assert main(["stability", "--config", path]) == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == where


@pytest.mark.parametrize("where", ["f", "beta"])
def test_non_finite_field_exits_3_with_one_line(tmp_path, capsys, where):
    spec = {"kind": "expr", "expr": "1/(x - x)"}
    beta = spec if where == "beta" else {"kind": "constant", "value": 2.0}
    cfg = _square_stability_config(str(tmp_path / "o"), beta)
    if where == "f":
        cfg["f"] = spec
    path = _write(tmp_path, "c.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        assert main(["stability", "--config", path]) == EXIT_SOLVE
    error = _single_error_line(capsys)
    assert error["field"] == "solve"
    assert "finite" in error["message"]
    if where == "beta":
        assert "coefficient index 1" in error["message"]


def _expr(text):
    return {"kind": "expr", "expr": text}


def _constant(value):
    return {"kind": "constant", "value": value}


# (field named in the error, changes to the interval solve config)
_INVALID_CONFIGS = {
    "y-on-interval": ("f", {"f": _expr("1 + y")}),
    "z-on-square": (
        "beta_sequence[0]",
        {"domain": "square", "n": 2, "beta_sequence": [_expr("1 + z")]},
    ),
    "limit-z-on-square": (
        "beta_limit",
        {"domain": "square", "n": 2, "beta_limit": _expr("z")},
    ),
    "lambda-nan": ("lambda", {"lambda": float("nan")}),
    "lambda-bool": ("lambda", {"lambda": True}),
    "tol-nan": ("tol", {"tol": float("nan")}),
    "beta-negative": ("beta_sequence[0]", {"beta_sequence": [_constant(-1)]}),
    "beta-infinite": ("beta_sequence[0]", {"beta_sequence": [_constant(float("inf"))]}),
    "beta-bool": ("beta_sequence[0]", {"beta_sequence": [_constant(True)]}),
    "per-facet-negative": (
        "beta_sequence[0]",
        {"beta_sequence": [{"kind": "per_facet", "values": [1.0, -1.0]}]},
    ),
    "generator-member-negative": (
        "beta_sequence.base",
        {"beta_sequence": {"kind": "one_over_k", "base": -1.0, "count": 3}},
    ),
    "generator-limit-negative": (
        "beta_sequence.base",
        {
            "experiment": "convergence",
            "beta_sequence": {"kind": "one_over_k", "base": -0.1, "count": 2},
        },
    ),
    "n-bool": ("n", {"n": True}),
    "p-infinite": (
        "p",
        {
            "experiment": "theorem0",
            "domain": "cube",
            "n": 2,
            "f": _constant(2.0),
            "p": float("inf"),
        },
    ),
    "c2-nan": ("c2", {"c2": float("nan")}),
    "quad-order-bool": ("quad_order", {"quad_order": True}),
}


@pytest.mark.parametrize("case", sorted(_INVALID_CONFIGS))
def test_invalid_config_exits_2_naming_the_field(tmp_path, capsys, case):
    where, changes = _INVALID_CONFIGS[case]
    cfg = {**_solve_config(str(tmp_path / "o")), **changes}
    path = _write(tmp_path, "c.json", cfg)
    assert main([cfg["experiment"], "--config", path]) == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == where


def test_config_and_cli_experiment_must_agree(tmp_path, capsys):
    path = _write(tmp_path, "c.json", _solve_config(str(tmp_path / "o")))
    assert main(["stability", "--config", path]) == EXIT_CONFIG


def test_missing_config_file_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_solve_failure_exits_3(tmp_path):
    cfg = _solve_config(str(tmp_path / "o"))
    cfg["tol"] = 1e-30  # below the attainable float64 residual floor
    path = _write(tmp_path, "c.json", cfg)
    assert main(["solve", "--config", path]) == EXIT_SOLVE


def test_unwritable_output_exits_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    cfg = _solve_config(str(blocker / "sub"))
    path = _write(tmp_path, "c.json", cfg)
    assert main(["solve", "--config", path]) == EXIT_OUTPUT


def test_runs_are_byte_deterministic(tmp_path):
    cfg = {
        "domain": "cube",
        "n": 2,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 3},
        "experiment": "stability",
    }
    path = _write(tmp_path, "c.json", cfg)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["stability", "--config", path, "--output", out_a]) == EXIT_OK
    assert main(["stability", "--config", path, "--output", out_b]) == EXIT_OK
    for name in ("stability.csv", "stability.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_round_trip_reproduces_outputs(tmp_path):
    out_a = str(tmp_path / "a")
    path = _write(tmp_path, "c.json", _solve_config(out_a, n=16))
    assert main(["solve", "--config", path]) == EXIT_OK
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    echoed = parse_config(manifest["config"])
    out_b = str(tmp_path / "b")
    assert run(echoed, output_dir=out_b) == EXIT_OK
    assert (tmp_path / "a" / "solution.csv").read_bytes() == (
        tmp_path / "b" / "solution.csv"
    ).read_bytes()


def test_dimension_caveat_warnings(tmp_path):
    for domain, n, expect_warning in (("interval", 8, True), ("cube", 2, False)):
        cfg = _solve_config(str(tmp_path / domain), n=n)
        cfg["domain"] = domain
        path = _write(tmp_path, f"{domain}.json", cfg)
        assert main(["solve", "--config", path]) == EXIT_OK
        manifest = json.loads((tmp_path / domain / "manifest.json").read_text())
        assert bool(manifest["warnings"]) == expect_warning


def test_stability_table_has_summary_line(tmp_path):
    cfg = {
        "domain": "interval",
        "n": 8,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": [
            {"kind": "constant", "value": 1.0},
            {"kind": "constant", "value": 1.5},
            {"kind": "per_facet", "values": [2.0, 3.0]},
        ],
        "experiment": "stability",
        "output_dir": str(tmp_path / "out"),
    }
    path = _write(tmp_path, "c.json", cfg)
    assert main(["stability", "--config", path]) == EXIT_OK
    lines = (tmp_path / "out" / "stability.csv").read_text().splitlines()
    assert lines[0] == "n,m,diff_sup,un_bd_sup,beta_diff,ratio"
    assert len(lines) == 1 + 6 + 1  # header, 3*2 ordered pairs, summary
    assert lines[-1].startswith("C_hat,")


def test_convergence_with_generator_implies_limit(tmp_path):
    cfg = {
        "domain": "interval",
        "n": 16,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 4},
        "experiment": "convergence",
        "output_dir": str(tmp_path / "out"),
    }
    path = _write(tmp_path, "c.json", cfg)
    assert main(["convergence", "--config", path]) == EXIT_OK
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,sup_err"
    errs = [float(line.split(",")[1]) for line in lines[1:]]
    assert errs == sorted(errs, reverse=True)


def test_convergence_with_explicit_list_needs_limit(tmp_path):
    cfg = {
        "domain": "interval",
        "n": 8,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": [
            {"kind": "constant", "value": 1.5},
            {"kind": "constant", "value": 1.25},
        ],
        "experiment": "convergence",
    }
    with pytest.raises(ConfigError, match="beta_limit"):
        parse_config(cfg)


def test_stampacchia_requires_cube():
    cfg = {
        "domain": "square",
        "n": 4,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 2},
        "experiment": "stampacchia",
    }
    with pytest.raises(ConfigError, match="cube"):
        parse_config(cfg)


def test_stampacchia_run(tmp_path):
    cfg = {
        "domain": "cube",
        "n": 2,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": 1.0},
        "beta_sequence": [
            {"kind": "constant", "value": 1.0},
            {"kind": "constant", "value": 1.5},
        ],
        "experiment": "stampacchia",
        "output_dir": str(tmp_path / "out"),
    }
    path = _write(tmp_path, "c.json", cfg)
    assert main(["stampacchia", "--config", path]) == EXIT_OK
    report_lines = (tmp_path / "out" / "stampacchia_report.csv").read_text().splitlines()
    assert report_lines[0] == "hypothesis_ok,predicted_gap,vanish_point,conclusion_ok"
    assert report_lines[1].split(",")[0] == "true"


def test_theorem0_run(tmp_path):
    cfg = {
        "domain": "cube",
        "n": 2,
        "lambda": 1.0,
        "f": {"kind": "expr", "expr": "1 + x"},
        "beta_sequence": [{"kind": "constant", "value": 1.0}],
        "experiment": "theorem0",
        "p": 4.0,
        "output_dir": str(tmp_path / "out"),
    }
    path = _write(tmp_path, "c.json", cfg)
    assert main(["theorem0", "--config", path]) == EXIT_OK
    lines = (tmp_path / "out" / "theorem0.csv").read_text().splitlines()
    assert lines[0] == "p,sup_u,f_norm,ratio"
    p, sup_u, f_norm, ratio = (float(v) for v in lines[1].split(","))
    assert ratio == pytest.approx(sup_u / f_norm, rel=1e-12)


def test_expand_beta_sequence_generator():
    specs = expand_beta_sequence({"kind": "one_over_k", "base": 1.0, "count": 3})
    values = [s["value"] for s in specs]
    assert values == pytest.approx([2.0, 1.5, 4.0 / 3.0])
    with pytest.raises(ConfigError):
        expand_beta_sequence({"kind": "one_over_k", "base": 1.0, "count": 0})
    with pytest.raises(ConfigError):
        expand_beta_sequence([])


def test_emit_csv_trivial_table(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(["a", "b"], [[1, 0.5]], str(path))
    assert path.read_text() == "a,b\n1,0.5\n"


def test_emit_csv_float_round_trip(tmp_path):
    value = 0.1 + 0.2  # not representable exactly; 17 digits round-trip
    path = tmp_path / "t.csv"
    emit_csv(["v"], [[value]], str(path))
    text = path.read_text().splitlines()[1]
    assert float(text) == value


def test_emit_svg_deterministic_and_covering(tmp_path):
    xs = list(range(10))
    ys = [0.1 * x for x in xs]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(xs, ys, str(a), "x", "y", "series")
    emit_svg(xs, ys, str(b), "x", "y", "series")
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "<polyline" in text
    assert f"{max(ys) * 1.05:.6g}" in text  # top tick covers max * 1.05
