"""Statements of src/robin_lab that the test suite never runs, and ifs that only go one way.

Run from the repository root as ``python tests/reach.py``.  The suite runs in this process
under ``sys.settrace``, set before the package is imported so that module and class bodies
count; code that only a child process runs counts as never run.

``python tests/reach.py --cli`` runs a fixed grid of configs through ``cli.main`` instead,
under the same tracer, and lists the package functions that no run enters.  The grid is
every experiment on the interval, square and cube (stampacchia on the cube alone), each
with constant, per-facet and expression coefficients, lumped (expression source) and not
(constant source), plus a command line error, an invalid config and an expression
coefficient that turns negative, so that the error handlers run too.
"""

import ast
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "src"))  # found, not imported, before tracing
PACKAGE = str(Path(importlib.util.find_spec("robin_lab").origin).parent)
lines, arcs = defaultdict(set), defaultdict(set)  # per file: lines run, (line, next line)
entered = set()  # (file, first line) of every code object called


def _trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(PACKAGE):
        return None
    entered.add((code.co_filename, code.co_firstlineno))
    ran, moved, last = lines[code.co_filename], arcs[code.co_filename], [None]
    branches = code.co_name == "<module>" or not code.co_name.startswith("<")  # not a lambda

    def local(frame, event, arg):  # a return is an arc to line -1; a raise ends the arc
        line = frame.f_lineno if event == "line" else None
        ran.add(line)
        if branches and last[0] is not None and event != "exception":
            moved.add((last[0], line or -1))
        last[0] = line
        return local

    return local


def _findings(path):
    tree, ran, moved = ast.parse(Path(path).read_text()), lines[path], arcs[path]
    for node in ast.walk(tree):  # a constant alone, such as a docstring, compiles to nothing
        if not isinstance(node, ast.stmt) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        nested = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        if not ran & set(range(start, max(min(nested, default=node.end_lineno + 1), start + 1))):
            yield node.lineno, "statement never ran"
        elif isinstance(node, ast.If):
            test = set(range(node.lineno, node.test.end_lineno + 1))
            body = set(range(node.body[0].lineno, node.body[-1].end_lineno + 1)) - test
            went = {b in body for a, b in moved if a in test and b not in test}
            if len(went) < 2:
                way = ("false", "true")[went.pop()] if went else "nowhere"
                yield node.lineno, f"if only ever went {way}"


def _functions(path, node=None, prefix=""):
    """(first line, dotted name) of every function and method in a module, nested ones too;
    a decorated function's code starts at its first decorator."""
    for child in ast.iter_child_nodes(node or ast.parse(Path(path).read_text())):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield min([child.lineno] + [d.lineno for d in child.decorator_list]), name
            yield from _functions(path, child, name + ".")
        elif isinstance(child, ast.stmt):  # a function defined under an if or a try
            yield from _functions(path, child, prefix)


# domain -> (n, boundary facets): 2 interval endpoints, 4n edges, 2 triangles per face box
_MESHES = {"interval": (4, 2), "square": (3, 12), "cube": (2, 48)}
_ONE = {"kind": "constant", "value": 1.0}
_FAMILIES = {  # experiment -> (coefficient count, whether a limit is given)
    "solve": (1, False), "stability": (2, False), "convergence": (2, True),
    "stampacchia": (2, False), "theorem0": (1, False),
}


def _coefficient(kind, k, facets):
    if kind == "constant":
        return {"kind": "constant", "value": 1.0 + k}
    if kind == "per_facet":
        return {"kind": "per_facet", "values": [1.0 + k + i / facets for i in range(facets)]}
    return {"kind": "expr", "expr": f"{1 + k} + x"}


def _cli_runs(folder):
    """(argv, expected exit code) of every run of the grid, configs written into folder."""
    runs = [(["solve"], 2)]  # no --config
    configs = [({"experiment": "solve", "typo": 1}, "solve", 2),
               ({"domain": "interval", "n": 4, "lambda": 1.0, "f": _ONE,
                 "beta_sequence": [{"kind": "expr", "expr": "x - 0.5"}]}, "solve", 3)]
    for experiment, (count, limited) in _FAMILIES.items():
        for domain, (n, facets) in _MESHES.items():
            if experiment == "stampacchia" and domain != "cube":
                continue
            for kind in ("constant", "per_facet", "expr"):
                for lumped in (False, True):
                    config = {"domain": domain, "n": n, "lambda": 1.0, "lumped": lumped,
                              "f": {"kind": "expr", "expr": "1 + x * x"} if lumped else _ONE,
                              "beta_sequence": [_coefficient(kind, k, facets)
                                                for k in range(count)]}
                    if limited and kind == "constant":  # the generator implies the limit
                        config["beta_sequence"] = {"kind": "one_over_k", "base": 1.0, "count": 3}
                    elif limited:
                        config["beta_limit"] = _coefficient(kind, count, facets)
                    configs.append((config, experiment, 0))
    for i, (config, experiment, code) in enumerate(configs):
        path = Path(folder, f"{i}.json")
        path.write_text(json.dumps({**config, "output_dir": str(Path(folder, str(i)))}))
        runs.append(([experiment, "--config", str(path)], code))
    return runs


def _reach_of_cli():
    with tempfile.TemporaryDirectory() as folder:
        runs = _cli_runs(folder)
        sys.settrace(_trace)
        from robin_lab.cli import main

        with contextlib.redirect_stderr(io.StringIO()):  # the error runs' JSON lines
            codes = [main(argv) for argv, _ in runs]
        sys.settrace(None)
    for path in sorted(Path(PACKAGE).glob("*.py")):
        for line, name in _functions(path):
            if (str(path), line) not in entered:
                print(f"{path.stem}.{name}")
    wrong = [(argv, code, want) for (argv, want), code in zip(runs, codes) if code != want]
    for argv, code, want in wrong:
        print(f"robin-lab {' '.join(argv)} exited {code}, expected {want}")
    print(f"{len(runs)} cli runs, {len(runs) - len(wrong)} exited as expected")


if __name__ == "__main__" and sys.argv[1:] == ["--cli"]:
    _reach_of_cli()
elif __name__ == "__main__":
    sys.settrace(_trace)
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)])
    sys.settrace(None)
    for path in sorted(Path(PACKAGE).glob("*.py")):
        for line, finding in sorted(_findings(str(path))):
            print(f"{path.relative_to(TESTS.parent)}:{line}: {finding}")
    print(f"pytest exited {int(code)}")
