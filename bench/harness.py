"""Process-level measurement: spawn one child, time it, read its rusage.

The load is a closed loop with one client: the next child starts only
after the previous one has exited and its outputs have been checked.
Children run ``probe.py``, which leaves a record of the CPU time of the
measured work and of a fixed speed kernel run beside it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import probe

PROBE = str(Path(probe.__file__).resolve())

# given to every child, so each run uses one core of the machine
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclass
class ChildResult:
    seconds: float  # wall time, spawn to reaped exit
    cpu_seconds: float  # user + system time of the child
    exit_code: int
    timed_out: bool
    peak_rss_mb: float
    stderr: str
    record: dict = None  # what probe.py wrote, or None


@dataclass
class Sample:
    child: ChildResult
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def child_env(src_dir: Path) -> dict:
    """The parent's environment plus the package path and the thread caps."""
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(src_dir)
    return env


def run_child(argv, env, timeout: float, stderr_path: Path, record_path=None) -> ChildResult:
    """Run argv to completion; wall time is from spawn to reaped exit.

    If `record_path` is given, the JSON record the child leaves there is
    read into the result (None when the child left none).
    """
    if record_path is not None:
        Path(record_path).unlink(missing_ok=True)
    expired = threading.Event()
    started = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    record = None
    if record_path is not None and Path(record_path).is_file():
        try:
            record = json.loads(Path(record_path).read_text(encoding="ascii"))
        except ValueError:  # cut short by a kill
            record = None
    return ChildResult(
        seconds=seconds,
        cpu_seconds=usage.ru_utime + usage.ru_stime,
        exit_code=proc.returncode,
        timed_out=expired.is_set(),
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stderr=stderr,
        record=record,
    )


def timed_runs(argv, env, seconds: float, out_dir: Path, check, timeout: float,
               record_path=None):
    """Run argv back to back within a window of `seconds` (at least once).

    A run starts only if one more run as long as the last still fits in
    the window.  `check(out_dir)` returns a list of problems with the
    outputs of one successful run; a non-zero exit, a timeout, a missing
    probe record (when `record_path` is given) or any problem fails the
    sample.
    """
    samples = []
    stderr_path = out_dir.with_name(out_dir.name + ".stderr")
    started = time.perf_counter()
    while not samples or (
        time.perf_counter() - started + samples[-1].child.seconds <= seconds
    ):
        shutil.rmtree(out_dir, ignore_errors=True)
        child = run_child(argv, env, timeout, stderr_path, record_path)
        if child.timed_out:
            problems = [f"timed out after {timeout:g} s"]
        elif child.exit_code != 0:
            problems = [f"exit code {child.exit_code}: {child.stderr.strip()}"]
        elif record_path is not None and child.record is None:
            problems = ["the child left no probe record"]
        else:
            problems = check(out_dir)
        samples.append(Sample(child, problems))
    return samples


def setup_samples(python: str, env, count: int, timeout: float, stderr_path: Path,
                  record_path: Path):
    """Fresh interpreters that import robin_lab.cli under the probe and
    exit (ChildResults with records).

    One untimed import comes first, so byte-code caches are written
    before timing; users do not pay that cost on every run.
    """
    argv = [python, PROBE, "setup", str(record_path)]
    children = []
    for _ in range(count + 1):
        child = run_child(argv, env, timeout, stderr_path, record_path)
        if child.exit_code != 0 or child.timed_out or child.record is None:
            raise RuntimeError(f"importing robin_lab.cli failed: {child.stderr.strip()}")
        children.append(child)
    return children[1:]


def summary(values) -> dict:
    """Median, quartiles and extremes of a sample, with its count."""
    values = list(values)
    if not values:
        return {"median": None, "samples": 0, "values": []}
    out = {"median": statistics.median(values), "samples": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, min=min(values), max=max(values))
    return out


def cpu_ticks():
    """(stolen, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "child_thread_vars": dict(THREAD_VARS),
        "isolated": False,
        "note": "shared machine, not isolated; no CPU pinning or cgroup changes",
    }


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
