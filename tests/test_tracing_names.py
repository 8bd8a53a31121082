"""The benchmark's span tracer must find every function it names.

bench/tracing.py records a name the package no longer has as absent
instead of failing, so a rename or signature change would silently drop a
span from the benchmark's traced run.  This test loads the tracer by path
and fails on any such name instead.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from robin_lab import fields

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses need it
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pass
    assert tracer.absent == []
    # the tracer's counting wrapper calls the compiler with the expression alone
    assert len(inspect.signature(fields.compile_expression).parameters) == 1
