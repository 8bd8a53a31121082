"""In-process span tracer for one robin-lab run, kept outside the package.

The public functions of each robin_lab layer are wrapped under every
module name that holds them (``level_set_measure`` is wrapped in
``analysis``, ``experiments`` and ``cli``).  Each call records a span
(name, layer, start, end, parent) in memory; counts come from the values
the functions return.  A span's self time is its duration minus the
durations of its direct children, and a metric ending in ``_s`` is always
a self time, so the self times of all spans add up to the root span.

A name listed here that the package no longer has is recorded as absent
instead of failing, so the tracer survives refactors of the package.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# layer -> {public function: metric stem}; spans are named "<layer>.<stem>"
LAYER_FUNCTIONS = {
    "mesh": {"build_mesh": "build", "boundary_vertex_indices": "boundary_vertices"},
    "fields": {"boundary_sup_diff": "sup_diff", "boundary_sup": "sup"},
    "assembly": {
        "assemble_system": "system",
        "assemble_stiffness": "stiffness",
        "assemble_mass": "mass",
        "assemble_boundary_mass": "boundary",
        "assemble_load": "load",
    },
    "linalg": {"cg_solve": "cg"},
    "analysis": {"sup_norm": "sup_norm", "level_set_measure": "level_set"},
    "stampacchia": {"fit_minimal_c": "fit", "verify_decay": "verify"},
    "experiments": {
        "solve_robin": "solve",
        "stability_sweep": "sweep",
        "convergence_study": "convergence",
        "level_set_pipeline": "pipeline",
        "estimate_constant": "estimate",
    },
    "cli": {
        "main": "main",
        "parse_config": "parse",
        "emit_csv": "emit",
        "emit_svg": "emit",
    },
}

PACKAGE = "robin_lab"

# wrapped to count calls of the closures it returns, without spans
EXPRESSION_COMPILER = ("fields", "compile_expression")

# taken from return values; zero when the traced run never produced them
COUNTS = (
    "mesh.cells",
    "mesh.facets",
    "fields.expr_evals",
    "assembly.nnz",
    "linalg.cg_iterations",
    "linalg.cg_residual_max",
    "experiments.pairs",
    "experiments.uninformative_pairs",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1 for a root


class Tracer:
    """Spans and counts of one run.  The default clock is this process's
    CPU time, which leaves out time the machine gave to other work."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self.absent = []
        self._open = []

    def wrap(self, layer: str, stem: str, fn, on_result=None):
        name = f"{layer}.{stem}"

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(name, layer, self.clock(), 0.0, parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = self.clock()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def record_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def self_times(self) -> list:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child_time)]

    def metrics(self) -> dict:
        """Self time and call count per span name and per layer, plus counts."""
        out = dict.fromkeys(COUNTS, 0)
        for layer in LAYER_FUNCTIONS:
            out[f"{layer}.self_s"] = 0.0
            for stem in LAYER_FUNCTIONS[layer].values():
                out[f"{layer}.{stem}_s"] = 0.0
                out[f"{layer}.{stem}_calls"] = 0
        for span, self_time in zip(self.spans, self.self_times()):
            out[f"{span.name}_s"] += self_time
            out[f"{span.name}_calls"] += 1
            out[f"{span.layer}.self_s"] += self_time
        out.update(self.counts)
        out.update(self.maxima)
        return dict(out)


def _on_mesh(tracer: Tracer, mesh) -> None:
    tracer.counts["mesh.cells"] += mesh.num_cells
    facets = getattr(mesh, "boundary_facets", None)
    if facets is None:
        tracer.absent.append("Mesh.boundary_facets")
    else:
        tracer.counts["mesh.facets"] += len(facets)


def _on_system(tracer: Tracer, matrix) -> None:
    nnz = getattr(matrix, "nnz", None)
    if nnz is None:  # symmetric storage keeps the upper triangle only
        nnz = 2 * len(matrix.rows) - int((matrix.rows == matrix.cols).sum())
    tracer.record_max("assembly.nnz", int(nnz))


def _on_cg(tracer: Tracer, result) -> None:
    _, report = result
    tracer.counts["linalg.cg_iterations"] += report.iterations
    tracer.record_max("linalg.cg_residual_max", report.final_relative_residual)


def _on_sweep(tracer: Tracer, records) -> None:
    tracer.counts["experiments.pairs"] += len(records)
    tracer.counts["experiments.uninformative_pairs"] += sum(
        r.ratio is None for r in records
    )


RESULT_HOOKS = {
    "mesh.build": _on_mesh,
    "assembly.system": _on_system,
    "linalg.cg": _on_cg,
    "experiments.sweep": _on_sweep,
}


@contextmanager
def installed(tracer: Tracer):
    """Wrap the listed functions for the duration of the block."""
    saved = []
    try:
        for layer, functions in LAYER_FUNCTIONS.items():
            for fn_name, stem in functions.items():
                original = _lookup(tracer, layer, fn_name)
                if original is not None:
                    hook = RESULT_HOOKS.get(f"{layer}.{stem}")
                    wrapper = tracer.wrap(layer, stem, original, hook)
                    saved += _rebind(original, wrapper)
        compiler = _lookup(tracer, *EXPRESSION_COMPILER)
        if compiler is not None:
            saved += _rebind(compiler, _counting(tracer.counts, compiler))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _lookup(tracer: Tracer, layer: str, fn_name: str):
    try:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
    except ImportError:
        module = None
    fn = getattr(module, fn_name, None)
    if not callable(fn):
        tracer.absent.append(f"{layer}.{fn_name}")
        return None
    return fn


def _rebind(original, replacement) -> list:
    """Point every module attribute of the package that is `original` at
    `replacement`; returns (module, attribute, original) for restoring."""
    saved = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                saved.append((module, attr, original))
                setattr(module, attr, replacement)
    return saved


def _counting(counts: Counter, compile_expression):
    """A compiler whose closures count their calls as fields.expr_evals."""

    def compile_counted(expr):
        evaluate = compile_expression(expr)

        def counted(point):
            counts["fields.expr_evals"] += 1
            return evaluate(point)

        return counted

    return compile_counted


def trace_cli(argv):
    """Run the package's CLI main(argv) in-process under a fresh tracer.

    Returns (tracer, exit code, CPU seconds, wall seconds of the main call).
    """
    tracer = Tracer()
    with installed(tracer):
        main = importlib.import_module(f"{PACKAGE}.cli").main
        cpu_started, wall_started = time.process_time(), time.perf_counter()
        code = main(argv)
        cpu = time.process_time() - cpu_started
        wall = time.perf_counter() - wall_started
    return tracer, code, cpu, wall
