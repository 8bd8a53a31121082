"""Statements of src/robin_lab that the test suite never runs, and ifs that only go one way.

Run from the repository root as ``python tests/reach.py``.  The suite runs in this process
under ``sys.settrace``, set before the package is imported so that module and class bodies
count; code that only a child process runs counts as never run.
"""

import ast
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "src"))  # found, not imported, before tracing
PACKAGE = str(Path(importlib.util.find_spec("robin_lab").origin).parent)
lines, arcs = defaultdict(set), defaultdict(set)  # per file: lines run, (line, next line)


def _trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(PACKAGE):
        return None
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


if __name__ == "__main__":
    sys.settrace(_trace)
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)])
    sys.settrace(None)
    for path in sorted(Path(PACKAGE).glob("*.py")):
        for line, finding in sorted(_findings(str(path))):
            print(f"{path.relative_to(TESTS.parent)}:{line}: {finding}")
    print(f"pytest exited {int(code)}")
