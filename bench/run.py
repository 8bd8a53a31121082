"""robin-lab benchmark: time one workload end to end, optionally trace it.

    python3 bench/run.py --workload sweep-cube --seed 0 --seconds 15 --trace 0

Run from any directory of a source checkout; the package is taken from
``src/`` next to this directory, so nothing needs installing.  Each timed
sample is one fresh ``robin-lab`` process on a config this script wrote
from the seed, started only after the previous one exited (a closed loop
with one client), and its outputs are checked.  Set-up samples (fresh
interpreters importing the CLI) and timed runs share one window of
``--seconds``; a run starts only if it is expected to end inside it.
With ``--trace 1`` the workload also runs once in this process under the
span tracer of ``tracing.py``, and the per-layer metrics replace the
end-to-end ones.

The gated times are CPU times at a reference speed (``run_norm_s`` and
``setup_s``).  Each child runs ``probe.py``, which times the measured
work (the CLI's ``main`` call, or the import of the CLI) in CPU seconds
and also times short passes of a fixed kernel before, after and during
it in the same process; the work's CPU time is scaled by the kernel's
reference time over its mean measured time.  The program is
single-threaded (children get one BLAS/OpenMP thread), so on an idle
machine CPU time is the wall time.  On a shared virtual machine the wall
time also counts time the host gave to other guests ("stolen_cpu_frac"
in the report), and the CPU time of the same work moves with what the
host runs beside it, both by far more than any change worth measuring;
the kernel moves with it and divides it out.  The raw wall time
(``run_s``), raw CPU times and kernel times are in the report, ungated.

Standard output is a readable report followed, on the last line, by one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from harness import (
    PROBE,
    THREAD_VARS,
    child_env,
    cpu_ticks,
    environment,
    setup_samples,
    summary,
    timed_runs,
)
from probe import normalized
from tracing import trace_cli
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 60.0  # seconds; the slowest workload takes under 10


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse_args(argv, spec)
    if not (SRC / "robin_lab" / "cli.py").is_file():
        sys.stderr.write(f"no robin_lab package under {SRC}\n")
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.update(THREAD_VARS)  # the traced run happens in this process

    work = ROOT / "bench" / ".runs" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report, values = measure(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"workload": args.workload, "why": why[args.workload], **report}
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps(report, indent=2))
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed
                },
            }
        )
    )
    return 0


def _parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(name: str, seed: int, seconds: float, trace: int, work: Path):
    """Returns (report, metric values by name)."""
    workload = WORKLOADS[name]
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.make_config(seed)), encoding="ascii")
    out = work / "out"

    def check(out_dir):
        try:
            return workload.check(out_dir, seed)
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable outputs: {exc!r}"]

    env = child_env(SRC)
    steal0, total0 = cpu_ticks()
    started = time.perf_counter()  # set-up and timed runs share the window
    record = work / "probe.json"
    setup = setup_samples(
        sys.executable, env, SETUP_SAMPLES, CHILD_TIMEOUT, work / "setup.stderr", record
    )
    cli_args = [workload.experiment, "--config", str(config_path), "--output", str(out)]
    samples = timed_runs(
        [sys.executable, PROBE, "run", str(record), *cli_args],
        env,
        seconds - (time.perf_counter() - started),
        out,
        check,
        CHILD_TIMEOUT,
        record,
    )
    steal1, total1 = cpu_ticks()

    runs = [s.child for s in samples if not s.failed]
    stats = {
        "run_norm_s": summary(normalized(c.record) for c in runs),
        "run_cpu_s": summary(c.record["cpu"] for c in runs),
        "run_s": summary(c.seconds for c in runs),
        "setup_s": summary(normalized(c.record) for c in setup),
        "setup_cpu_s": summary(c.record["cpu"] for c in setup),
        "setup_wall_s": summary(c.seconds for c in setup),
        "kernel_pass_s": summary(statistics.fmean(c.record["kernel"]) for c in runs),
        "peak_rss_mb": summary(c.peak_rss_mb for c in runs),
    }
    values = {name: stat["median"] for name, stat in stats.items()}
    # Peak RSS of one config is two-valued: on solve-square-fine about half
    # the runs of identical inputs peak 12 MB higher, because the allocator
    # keeps freed memory or returns it.  The lowest peak is what the run needs.
    values["peak_rss_mb"] = min(stats["peak_rss_mb"]["values"], default=None)
    stats["peak_rss_mb"]["gated"] = "min"
    attempted = len(samples)
    failed = sum(s.failed for s in samples)
    problems = [p for s in samples for p in s.problems]

    if trace:
        shutil.rmtree(out, ignore_errors=True)
        traced, trace_problems = traced_run(cli_args, out, check)
        # both time the CLI's main call alone, in CPU seconds
        traced["trace.overhead_s"] = traced["trace.cpu_s"] - (values["run_cpu_s"] or 0.0)
        values = traced
        attempted += 1
        failed += bool(trace_problems)
        problems += trace_problems

    units = {"peak_rss_mb": "MB"}
    report = {
        "seed": seed,
        "environment": environment(),
        "stolen_cpu_frac": (steal1 - steal0) / max(total1 - total0, 1),
        "end_to_end": {
            **{name: {"unit": units.get(name, "s"), **stat} for name, stat in stats.items()},
            "failed_frac": {"unit": "1", "value": failed / attempted, "samples": attempted},
        },
    }
    if trace:
        report["per_layer"] = values
    report.update(attempted=attempted, failed=failed, problems=problems[:10])
    return report, values


def traced_run(cli_args, out: Path, check):
    """One in-process run under the tracer: (per-layer values, problems)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tracer, code, cpu, wall = trace_cli(cli_args)
    problems = check(out) if code == 0 else [f"traced run exit code {code}"]
    values = tracer.metrics()
    files = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
    values["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    values["trace.cpu_s"] = cpu
    values["trace.wall_s"] = wall
    values["trace.absent"] = len(set(tracer.absent))
    values["trace.absent_names"] = sorted(set(tracer.absent))
    return values, problems


if __name__ == "__main__":
    sys.exit(main())
