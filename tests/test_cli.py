import contextlib
import io
import json
import os
import re
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robin_lab import cli, fields
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
from robin_lab.errors import RobinLabError

from oracles import (
    analytic_interval_solution,
    csv_cell_by_cell,
    csv_row_by_row,
    points_pair_by_pair,
)


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
    elif where == "overflow":  # finite data whose solution overflows: u = f / lambda
        zero = {"kind": "constant", "value": 0.0}
        f = {"kind": "constant", "value": 1e300}
        cfg.update({"lambda": 1e-10, "f": f, "beta_sequence": [zero, zero]})
    path = _write(tmp_path, "c.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        assert main(["stability", "--config", path]) == EXIT_SOLVE
    error = _single_error_line(capsys)
    assert error["field"] == "solve"
    assert "finite" in error["message"]
    if where == "beta":
        assert "coefficient index 1" in error["message"]


@pytest.mark.parametrize("f", [1.0, 1e-310])
def test_subnormal_denominator_leaves_no_ratio(tmp_path, capsys, f):
    # at f = 1e-310 the boundary sup of u_n is subnormal (about 3e-311), and
    # so is gap * sup: a ratio from it would hold a few significant bits
    cfg = {
        "domain": "interval",
        "n": 4,
        "lambda": 1.0,
        "f": {"kind": "constant", "value": f},
        "beta_sequence": [{"kind": "constant", "value": v} for v in (1.0, 1.0 + 1e-11)],
        "experiment": "stability",
        "output_dir": str(tmp_path / "o"),
    }
    code = main(["stability", "--config", _write(tmp_path, "c.json", cfg)])
    if f == 1.0:
        assert code == EXIT_OK
        c_hat = (tmp_path / "o" / "stability.csv").read_text().splitlines()[-1].split(",")
        assert c_hat[0] == "C_hat" and float(c_hat[1]) == pytest.approx(0.68279, rel=1e-5)
        return
    assert code == EXIT_SOLVE
    assert _single_error_line(capsys)["field"] == "solve"
    assert not (tmp_path / "o" / "stability.csv").exists()


def _expr(text):
    return {"kind": "expr", "expr": text}


def _constant(value):
    return {"kind": "constant", "value": value}


# a change that removes the key from the config
_DROP = object()

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
    "n-float": ("n", {"n": 2.0}),
    "n-missing": ("n", {"n": _DROP}),
    "n-string": ("n", {"n": "8"}),
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
    "generator-count-bool": (
        "beta_sequence.count",
        {"beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": True}},
    ),
    # a kind that is not a string, or not one the field takes
    "f-kind-list": ("f", {"f": {"kind": [1]}}),
    "beta-kind-object": ("beta_sequence[0]", {"beta_sequence": [{"kind": {}}]}),
    "f-per-facet": ("f", {"f": {"kind": "per_facet", "values": [1.0, 1.0]}}),
    # a misspelt key inside a field spec or the generator is refused as at the top
    "f-unknown-key": ("f.value", {"f": {"kind": "expr", "expr": "x", "value": 3}}),
    "beta-unknown-key": (
        "beta_sequence[0].values",
        {"beta_sequence": [{"kind": "constant", "value": 1.0, "values": [1.0, 1.0]}]},
    ),
    "limit-unknown-key": (
        "beta_limit.value",
        {"beta_limit": {"kind": "per_facet", "values": [1.0, 1.0], "value": 1.0}},
    ),
    "generator-unknown-key": (
        "beta_sequence.cuont",
        {"beta_sequence": {"kind": "one_over_k", "base": 1, "count": 1, "cuont": 5}},
    ),
    # an experiment's surplus coefficients would go unused, unchecked
    "solve-two-betas": ("beta_sequence", {"beta_sequence": [_constant(1.0), _expr("-1")]}),
    "solve-generator-three": (
        "beta_sequence",
        {"beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 3}},
    ),
    "theorem0-two-betas": (
        "beta_sequence",
        {"experiment": "theorem0", "beta_sequence": [_constant(1.0), _constant(2.0)]},
    ),
    "stability-above-cap": (
        "beta_sequence",
        {
            "experiment": "stability",
            "beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 1001},
        },
    ),
    "stampacchia-three-betas": (
        "beta_sequence",
        {
            "experiment": "stampacchia",
            "domain": "cube",
            "n": 2,
            "beta_sequence": [_constant(1.0), _constant(1.5), _constant(2.0)],
        },
    ),
}


@pytest.mark.parametrize("case", sorted(_INVALID_CONFIGS))
def test_invalid_config_exits_2_naming_the_field(tmp_path, capsys, case):
    where, changes = _INVALID_CONFIGS[case]
    cfg = {**_solve_config(str(tmp_path / "o")), **changes}
    cfg = {key: value for key, value in cfg.items() if value is not _DROP}
    path = _write(tmp_path, "c.json", cfg)
    assert main([cfg["experiment"], "--config", path]) == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == where


@pytest.mark.parametrize(
    "literal",
    ["true", '"1.0"', "null", "NaN", "1e309", "1" + "0" * 400, str(int(sys.float_info.max) + 1)],
    ids=["bool", "string", "null", "nan", "float-too-big", "int-too-big", "int-above-max"],
)
def test_per_facet_value_not_a_finite_number_exits_2(tmp_path, capsys, literal):
    # the int one above the float maximum rounds to it as a float but is
    # beyond the range by exact comparison, as a constant value is
    text = json.dumps(_solve_config(str(tmp_path / "o"))).replace(
        '"beta_sequence": [{"kind": "constant", "value": 1.0}]',
        '"beta_sequence": [{"kind": "per_facet", "values": [1.0, %s]}]' % literal,
    )
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == "beta_sequence[0]"


def test_per_facet_values_at_the_float_range_accepted(tmp_path):
    top = int(sys.float_info.max)  # an int that converts to a float exactly
    cfg = _solve_config(str(tmp_path / "o"))
    cfg["beta_sequence"] = [{"kind": "per_facet", "values": [top, 5e-324]}]
    beta = parse_config(cfg).betas[0]
    assert beta.facet_values.tolist() == [sys.float_info.max, 5e-324]


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
    # with beta = 0 the solution is f / lambda, beyond the float range
    cfg.update({"lambda": 1e-10, "f": {"kind": "constant", "value": 1e300}})
    cfg["beta_sequence"] = [{"kind": "constant", "value": 0.0}]
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


def test_manifest_is_one_compact_sorted_encoding(tmp_path):
    # the manifest is one json.dumps(..., sort_keys=True) and a newline,
    # and its config echo is the config as read
    cfg = _solve_config(str(tmp_path / "out"), n=4)
    cfg["experiment"] = "stability"
    cfg["beta_sequence"] = [
        {"kind": "per_facet", "values": [2.0, 3.0]},
        {"kind": "expr", "expr": "1 + x"},
        {"kind": "constant", "value": 1.5},
    ]
    assert main(["stability", "--config", _write(tmp_path, "c.json", cfg)]) == EXIT_OK
    text = (tmp_path / "out" / "manifest.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert json.loads(text)["config"] == cfg


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


def test_stability_takes_up_to_the_cap():
    cfg = _solve_config("unused", n=2)
    cfg["experiment"] = "stability"
    cfg["beta_sequence"] = {"kind": "one_over_k", "base": 1.0, "count": 1000}
    assert len(parse_config(cfg).betas) == 1000


def test_family_beyond_the_memory_cap_exits_2_before_assembly(tmp_path, capsys, monkeypatch):
    # 10 000 coefficients at cube n = 16 would need about 6 GB; the config is
    # refused once the mesh (4913 vertices) is known, before anything is solved
    def never(*args, **kwargs):
        raise AssertionError("a refused family reached its solve")

    monkeypatch.setattr(cli, "solve_robin", never)
    cfg = {
        "domain": "cube",
        "n": 16,
        "lambda": 1.0,
        "f": {"kind": "expr", "expr": "x * y"},
        "beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": cli.MAX_GENERATED},
        "experiment": "convergence",
        "output_dir": str(tmp_path / "o"),
    }
    path = _write(tmp_path, "c.json", cfg)
    tracemalloc.start()
    try:
        code = main(["convergence", "--config", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert _single_error_line(capsys)["field"] == "beta_sequence"
    assert peak < 16 * 2**20
    assert not (tmp_path / "o").exists()


# experiment -> (domain, the beta list's constants); convergence adds a limit
_FAMILIES = {
    "solve": ("interval", [1.0]),
    "stability": ("square", [1.0, 1.5, 2.0]),
    "convergence": ("interval", [1.5, 1.25]),
    "stampacchia": ("cube", [1.0, 1.5]),
    "theorem0": ("cube", [1.0]),
}


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_each_experiment_solves_its_family_once(tmp_path, monkeypatch, experiment):
    # the run's one solve gets the config's beta list, with the limit problem's
    # beta last for convergence, and every table is reduced from its rows
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[3])
        return solve_robin(*args, **kwargs)

    solve_robin = cli.solve_robin
    monkeypatch.setattr(cli, "solve_robin", recording)
    domain, values = _FAMILIES[experiment]
    cfg = {
        "domain": domain,
        "n": 2,
        "lambda": 1.0,
        "f": _constant(1.0),
        "beta_sequence": [_constant(v) for v in values],
        "experiment": experiment,
        "output_dir": str(tmp_path / "out"),
    }
    if experiment == "convergence":
        cfg["beta_limit"] = _constant(1.0)
    config = parse_config(cfg)
    assert run(config) == EXIT_OK
    family = [*config.betas, config.beta_limit] if experiment == "convergence" else config.betas
    assert len(calls) == 1
    assert len(calls[0]) == len(family) == len(values) + (experiment == "convergence")
    assert all(got is want for got, want in zip(calls[0], family))


def test_family_cap_counts_coefficients_times_vertices():
    # a convergence run also solves its limit problem, so that counts as a member
    cfg = _solve_config("unused", n=16)
    cfg.update(domain="cube", experiment="convergence")
    for n, most in ((16, cli.MAX_MEMBER_VERTICES // 17**3 - 1), (32, 99)):
        cfg["n"] = n
        cfg["beta_sequence"] = {"kind": "one_over_k", "base": 1.0, "count": most}
        assert len(parse_config(cfg).betas) == most
        cfg["beta_sequence"]["count"] = most + 1
        with pytest.raises(ConfigError, match="coefficient-vertices") as caught:
            parse_config(cfg)
        assert caught.value.field_name == "beta_sequence"


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
    emit_csv(["a", "b"], [[1], [0.5]], str(path))
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
    emit_csv(["s", "empty", "int", "float"], [["C_hat"], [""], [66048], [0.1 + 0.2]], str(path))
    cells = path.read_text().splitlines()[1].split(",")
    assert cells[:3] == ["C_hat", "", "66048"]
    assert float(cells[3]) == 0.1 + 0.2


# -0.0 and 0.0 differ in their bits and print differently
_SPECIAL_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-320, 0.1 + 0.2, 2.0**53]
_SPECIAL_INTS = [0, -1, 66048, 2**53 - 1, 2**53, -(2**53)]


@st.composite
def _numeric_columns(draw):
    """Float64 and int64 columns spanning 0 to 3 row blocks, each drawn from a
    small pool (so values repeat) mixed with fresh values (so most do not).
    Every float column starts with the special values, -0.0 and 0.0 first."""
    rows = draw(st.sampled_from([0, 1, 4095, 4096, 4097, 2 * 4096 + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for integer in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        if integer:
            drawn = draw(st.lists(st.integers(-(2**53), 2**53), max_size=6))
            pool = np.array(_SPECIAL_INTS + drawn, dtype=np.int64)
            fresh = rng.integers(-(2**53), 2**53, rows, endpoint=True)
        else:
            pool = np.array(_SPECIAL_FLOATS + draw(st.lists(st.floats(), max_size=6)))
            fresh = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
        column = np.where(rng.random(rows) < 0.5, fresh, pool[rng.integers(pool.size, size=rows)])
        if not integer:
            head = min(rows, len(_SPECIAL_FLOATS))
            column[:head] = _SPECIAL_FLOATS[:head]
        columns.append(column)
    return columns


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(columns=_numeric_columns())
def test_emit_csv_matches_cell_by_cell_writer(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        emit_csv(header, columns, path)
        with open(path, "rb") as handle:
            written = handle.read()
    assert written == csv_cell_by_cell(header, columns).encode("ascii")


def test_emit_svg_same_bytes_for_array_and_list(tmp_path):
    xs = np.linspace(0.0, 1.0, 7)
    ys = np.sin(3.0 * xs)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(xs, ys, str(a), "x", "y", "series")
    emit_svg(xs.tolist(), ys.tolist(), str(b), "x", "y", "series")
    assert a.read_bytes() == b.read_bytes()


def test_emit_svg_points_span_formatting_blocks(tmp_path):
    # 10000 points are formatted in three blocks: each point appears once, in
    # order, with one space between neighbours across the block boundaries
    xs = np.arange(10_000.0)
    path = tmp_path / "a.svg"
    emit_svg(xs, np.sin(xs / 50.0), str(path))
    points = path.read_text().split('points="')[1].split('"')[0].split(" ")
    assert len(points) == 10_000
    assert all(re.fullmatch(r"-?\d+\.\d{3},-?\d+\.\d{3}", p) for p in points)
    x = [float(p.split(",")[0]) for p in points]
    assert all(a < b for a, b in zip(x, x[1:]))


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


def test_emit_csv_rejects_columns_of_unequal_length(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(RobinLabError, match=r"\[3, 1\]"):
        emit_csv(["a", "b"], [np.array([1.0, 2.0, 3.0]), np.array([4.0])], str(path))
    assert not path.exists()


@st.composite
def _mixed_tables(draw):
    """(block size, columns): float and int arrays, lists mixing numbers and
    strings, and ranges, over rows that span several blocks of the drawn size."""
    block = draw(st.sampled_from([1, 2, 3, 7, cli._BLOCK]))
    if block == cli._BLOCK:
        rows = draw(st.sampled_from([cli._BLOCK + 1, 2 * cli._BLOCK + 3]))
    else:
        rows = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floats = np.array(_SPECIAL_FLOATS + draw(st.lists(st.floats(), max_size=4)))
    words = draw(st.lists(st.text("abc_", max_size=3), max_size=3))
    mixed = [*_SPECIAL_FLOATS, *_SPECIAL_INTS, "", "C_hat", *words]
    makers = {
        "float": lambda: floats[rng.integers(floats.size, size=rows)],
        "int": lambda: rng.integers(-(2**53), 2**53, rows, endpoint=True),
        "mixed": lambda: [mixed[i] for i in rng.integers(len(mixed), size=rows)],
        "range": lambda: range(3, 3 + rows),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=1, max_size=4))
    return block, [makers[kind]() for kind in kinds]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(table=_mixed_tables())
def test_emit_csv_matches_row_by_row_join(table):
    block, columns = table
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK", block)
        path = os.path.join(tmp, "t.csv")
        emit_csv(header, columns, path)
        with open(path, "rb") as handle:
            written = handle.read()
    assert written == csv_row_by_row(header, columns).encode("ascii")


def _rounding_cases(rng, size):
    """Values on and next to the ties of three-decimal rounding (k/16 and
    k/2000), from below 1e-3 up to 2^30, with a few of every magnitude."""
    scale = 2.0 ** rng.integers(-14, 31, size)
    ties = np.floor(rng.random(size) * scale * 16) / 16
    near = np.floor(rng.random(size) * scale * 2000) / 2000
    values = np.concatenate([ties, near, rng.random(size) * scale])
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, 0)])
    return values[values < 2.0**30]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 400),
    special=st.sampled_from([None, np.nan, np.inf, -np.inf, -0.0, -1e-4, 2.0**30]),
)
def test_points_match_pair_by_pair_formatting(seed, size, special):
    # a block holding one coordinate outside [0, 2^30) with a clear sign bit
    # is formatted with the % operator, any other in numpy
    rng = np.random.default_rng(seed)
    coords = rng.permutation(_rounding_cases(rng, size))[: 2 * size]
    coords = coords[: coords.size // 2 * 2]
    if special is not None and coords.size:
        coords[rng.integers(coords.size)] = special
    if coords.size:
        assert cli._points(coords) == points_pair_by_pair(coords)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 3, 64, cli._BLOCK]),
    size=st.sampled_from([1, 2, 5, 130, cli._BLOCK + 7]),
    special=st.sampled_from([None, np.nan, np.inf, -np.inf, -0.0]),
    grid=st.booleans(),
)
def test_emit_svg_matches_pair_by_pair_points(seed, block, size, special, grid):
    # x on the integers up to a last point of 8320, so that the plot's
    # x = 60 + k/16 holds ties of three-decimal rounding, or drawn at
    # random; y on and near ties
    rng = np.random.default_rng(seed)
    xs = np.arange(size, dtype=float) if grid else rng.random(size) * 1e3
    xs[-1] = 8320.0 if grid else xs[-1]
    ys = rng.choice(_rounding_cases(rng, size), size)
    if special is not None:
        ys[rng.integers(size)] = special
    written = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK", block)
        for points in (cli._points, points_pair_by_pair):
            patch.setattr(cli, "_points", points)
            path = os.path.join(tmp, f"{len(written)}.svg")
            with np.errstate(all="ignore"):  # an infinite y leaves no finite scale
                emit_svg(xs, ys, path, "x", "y", "series")
            with open(path, "rb") as handle:
                written.append(handle.read())
    assert written[0] == written[1]
