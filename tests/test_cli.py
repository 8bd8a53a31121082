import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robin_lab import fields
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


@pytest.mark.parametrize(
    "expr",
    [
        "x +",
        "x + 1/0",
        pytest.param("1e400", id="float-literal-beyond-range"),
        pytest.param("1" + "0" * 400, id="int-literal-beyond-range"),
        pytest.param("1" + "0" * 200 + "*1" + "0" * 200, id="int-product-beyond-range"),
    ],
)
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


@pytest.mark.parametrize("where", ["f", "beta", "overflow"])
def test_non_finite_field_exits_3_with_one_line(tmp_path, capsys, where):
    spec = {"kind": "expr", "expr": "1/(x - x)"}
    beta = spec if where == "beta" else {"kind": "constant", "value": 2.0}
    cfg = _square_stability_config(str(tmp_path / "o"), beta)
    if where == "f":
        cfg["f"] = spec
    elif where == "overflow":  # finite data whose solve overflows
        huge = {"kind": "constant", "value": 1e300}
        cfg.update({"lambda": 1e300, "f": huge, "beta_sequence": [huge, huge]})
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
    "removed-quad-order": ("quad_order", {"quad_order": 2}),
    "misspelt-key": ("lumpd", {"lumpd": True}),
    "expr-too-long": ("f", {"f": _expr("-" * 2000 + "x")}),
    "domain-object": ("domain", {"domain": {}}),
    "domain-list": ("domain", {"domain": [1]}),
    "n-beyond-array-size": ("n", {"n": 10**22}),
    "cube-above-max-cells": ("n", {"domain": "cube", "n": 2000}),
    "generator-count-huge": (
        "beta_sequence.count",
        {"beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 10**22}},
    ),
}


@pytest.mark.parametrize("case", sorted(_INVALID_CONFIGS))
def test_invalid_config_exits_2_naming_the_field(tmp_path, capsys, case):
    where, changes = _INVALID_CONFIGS[case]
    cfg = {**_solve_config(str(tmp_path / "o")), **changes}
    path = _write(tmp_path, "c.json", cfg)
    assert main([cfg["experiment"], "--config", path]) == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == where


@pytest.mark.parametrize(
    "text",
    ["[1, 2]", "null", "true", "5", "[" * 100_000, '{"n": ' + "1" * 5000 + "}", b"\xff"],
    ids=["list", "null", "true", "number", "deeply-nested", "long-integer", "not-utf8"],
)
def test_non_object_or_unreadable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == "config"


def test_config_and_cli_experiment_must_agree(tmp_path, capsys):
    path = _write(tmp_path, "c.json", _solve_config(str(tmp_path / "o")))
    assert main(["stability", "--config", path]) == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == "experiment"

    data = _solve_config(str(tmp_path / "o"))
    del data["experiment"]
    assert parse_config(data, "solve").raw["experiment"] == "solve"
    assert "experiment" not in data  # the caller's dict is left alone


# JSON-like values for the fuzz test; integers stay small, or so large that
# no mesh array of that size could be allocated even without a size guard
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.integers(10**20, 10**22)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["cube", "square", "stability", "stampacchia", "x + y", "z", "1/(x-x)"])
)
_FIELD_SPECS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["constant", "per_facet", "expr", "one_over_k", "disk"])},
    optional={
        "value": _JSON_SCALARS,
        "values": st.lists(_JSON_SCALARS, max_size=9),
        "expr": _JSON_SCALARS,
        "base": _JSON_SCALARS,
        "count": _JSON_SCALARS,
    },
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _FIELD_SPECS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
# quad_order is a removed key, so setting it exercises the unknown-key check
_CONFIG_KEYS = [
    "domain", "n", "lambda", "f", "beta_sequence", "experiment", "output_dir",
    "p", "c2", "quad_order", "lumped", "tol", "beta_limit",
]
_MISSING = object()


@st.composite
def _mutated_configs(draw):
    """A small valid square stability config with up to two keys replaced
    or removed, or a JSON value that is not an object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
    cfg = _square_stability_config("unused", {"kind": "constant", "value": 2.0})
    for key in draw(st.lists(st.sampled_from(_CONFIG_KEYS), max_size=2, unique=True)):
        value = draw(_JSON_VALUES | st.just(_MISSING))
        if value is _MISSING:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=_mutated_configs())
def test_cli_contract_holds_for_any_config(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["stability", "--config", path, "--output", os.path.join(tmp, "o")])
    lines = stderr.getvalue().splitlines() + [str(w.message) for w in seen]
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVE, EXIT_OUTPUT)
    if code == EXIT_OK:
        assert lines == []
    else:
        assert len(lines) == 1
        assert set(json.loads(lines[0])["error"]) == {"field", "message"}


def test_missing_config_file_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["bogus", "--config", "c.json"], ["solve", "--config"]],
    ids=["no-config", "unknown-experiment", "config-without-value"],
)
def test_usage_error_exits_2_with_one_line(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == "arguments"


def test_solve_failure_exits_3(tmp_path):
    cfg = _solve_config(str(tmp_path / "o"))
    cfg["tol"] = 1e-30  # below the attainable float64 residual floor
    path = _write(tmp_path, "c.json", cfg)
    assert main(["solve", "--config", path]) == EXIT_SOLVE


def test_empty_output_argument_exits_2(tmp_path, capsys):
    cfg = _solve_config(str(tmp_path / "from-config"))
    path = _write(tmp_path, "c.json", cfg)
    assert main(["solve", "--config", path, "--output", ""]) == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == "arguments"
    assert not (tmp_path / "from-config").exists()
    # a nonempty --output still overrides output_dir
    assert main(["solve", "--config", path, "--output", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "solution.csv").exists()
    assert not (tmp_path / "from-config").exists()


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
    echoed = parse_config(manifest["config"], output=str(tmp_path / "b"))
    assert run(echoed) == EXIT_OK
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
        for warning in manifest["warnings"]:
            assert "trace exponent" in warning and "embedding" not in warning


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


@pytest.mark.parametrize("value", [2.0, 0.5])
def test_theorem0_source_norm_beyond_float_range_exits_3(tmp_path, capsys, value):
    # |f|^1100 overflows for f = 2 and underflows to zero for f = 1/2
    cfg = {
        "domain": "cube",
        "n": 2,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": value},
        "beta_sequence": [{"kind": "constant", "value": 1.0}],
        "experiment": "theorem0",
        "p": 1100,
        "output_dir": str(tmp_path / "out"),
    }
    path = _write(tmp_path, "c.json", cfg)
    assert main(["theorem0", "--config", path]) == EXIT_SOLVE
    error = _single_error_line(capsys)
    assert error["field"] == "solve"
    assert "p = 1100" in error["message"]


def test_theorem0_evaluates_the_source_once_per_use(tmp_path, monkeypatch):
    # one evaluation builds the load and one gives the p-norm; the CSV row
    # reuses the norms the ratio was computed from
    compile_expression = fields.compile_expression
    calls = []

    def counting(expr):
        evaluate = compile_expression(expr)

        def counted(point):
            calls.append(expr)
            return evaluate(point)

        return counted

    monkeypatch.setattr(fields, "compile_expression", counting)
    cfg = {
        "domain": "cube",
        "n": 3,
        "lambda": 1.0,
        "f": {"kind": "expr", "expr": "1 + x"},
        "beta_sequence": [{"kind": "constant", "value": 1.0}],
        "experiment": "theorem0",
        "output_dir": str(tmp_path / "out"),
    }
    path = _write(tmp_path, "c.json", cfg)
    assert main(["theorem0", "--config", path]) == EXIT_OK
    assert len(calls) == 2
    row = (tmp_path / "out" / "theorem0.csv").read_text().splitlines()[1]
    _, sup_u, f_norm, ratio = (float(v) for v in row.split(","))
    assert ratio == sup_u / f_norm


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


def test_emit_csv_one_cell_rule(tmp_path):
    # a string passes through, a number of either type goes through "%.17g"
    path = tmp_path / "t.csv"
    emit_csv(["s", "empty", "int", "float"], [["C_hat", "", 66048, 0.1 + 0.2]], str(path))
    cells = path.read_text().splitlines()[1].split(",")
    assert cells[:3] == ["C_hat", "", "66048"]
    assert float(cells[3]) == 0.1 + 0.2


def test_emit_svg_same_bytes_for_array_and_list(tmp_path):
    xs = np.linspace(0.0, 1.0, 7)
    ys = np.sin(3.0 * xs)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(xs, ys, str(a), "x", "y", "series")
    emit_svg(xs.tolist(), ys.tolist(), str(b), "x", "y", "series")
    assert a.read_bytes() == b.read_bytes()


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
