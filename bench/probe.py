"""Child side of a timed sample: the measured work, timed beside a speed kernel.

    python3 bench/probe.py run RECORD.json <robin-lab arguments>
    python3 bench/probe.py setup RECORD.json

``run`` imports the CLI, then times ``main(arguments)``; ``setup`` times
the import of ``robin_lab.cli`` in this fresh interpreter.  Around and
during the timed part the process times short passes of a fixed kernel:
a few before, a few after, and one every ``SAMPLE_EVERY_S`` CPU seconds
of the work itself (from a SIGPROF timer).  A pass is interpreter work
(objects, attributes, dicts) followed, in ``run`` mode, by array work
(numpy products and a random gather over 1 MB arrays); ``setup`` passes
leave the array part out, since numpy must not be loaded before the
import they time.  The record written to RECORD.json holds the CPU
seconds of the work without the passes run inside it (``cpu``), the CPU
seconds of every pass (``kernel``) and what a pass takes at the
reference speed (``ref``).

Why the kernel: on a shared virtual machine the same work takes more or
less CPU time depending on what the host runs beside it (shared cores
and caches, clock speed), and that changes within seconds by more than
any change worth measuring.  The passes run in the same process, spread
over the same stretch of time as the work, and slow down with it, so
``normalized`` divides the host's speed out.  The package's time goes to
interpreter loops and to numpy/scipy array code, which the host's load
slows by different amounts, so a pass holds both kinds of work.  The
kernel is benchmark code, never the package's, so a change to the
package moves the work and not the kernel.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time

KERNEL_POINTS = 4000
ARRAY_SIZE = 1 << 17
ARRAY_REPEATS = 6
# CPU seconds each part of a pass takes at the reference speed (about their
# median on a shared 2-vCPU Intel Xeon virtual machine); normalized times
# are CPU seconds at the speed at which a pass takes this long
INTERP_REF_S = 0.007
ARRAY_REF_S = 0.009
BRACKET_PASSES = 10  # before and after the work
SAMPLE_EVERY_S = 0.2  # CPU seconds of the work between passes run inside it


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z


def _kernel_pass(n: int) -> float:
    """Object creation, attribute access, float math, dict and sort: the
    kind of interpreter work the package's per-facet loops do."""
    points = [_Point(i * 1e-3, (i % 97) * 1e-2, 1.0) for i in range(n)]
    table = {}
    top = 0.0
    for k, p in enumerate(points):
        v = math.sqrt(p.x * p.x + p.y * p.y + p.z) + abs(p.x - p.y)
        table[k & 4095] = (v, k)
        top = max(top, v)
    return top + sorted(table.values())[0][0]


def make_arrays():
    """The arrays of the array part, allocated once so that passes run
    inside the work allocate nothing large."""
    import numpy as np

    a = np.linspace(0.0, 1.0, ARRAY_SIZE)
    order = np.random.default_rng(0).permutation(ARRAY_SIZE)
    return np, a, np.cos(a), np.empty(ARRAY_SIZE), order


def _array_pass(arrays) -> None:
    np, a, b, c, order = arrays
    for _ in range(ARRAY_REPEATS):
        np.multiply(a, b, out=c)
        np.add(c, a, out=c)
        np.take(c, order, out=b)
        np.multiply(b, 0.5, out=b)  # keeps b in [0, 1]


def timed_pass(arrays=None) -> float:
    """CPU seconds of one kernel pass (a fixed amount of work); without
    `arrays` the pass is interpreter work alone."""
    started = time.process_time()
    _kernel_pass(KERNEL_POINTS)
    if arrays is not None:
        _array_pass(arrays)
    return time.process_time() - started


class Sampler:
    """Runs and times one kernel pass every `every` CPU seconds of the
    process while active."""

    def __init__(self, arrays=None, every: float = SAMPLE_EVERY_S):
        self.arrays = arrays
        self.every = every
        self.passes = []

    def _tick(self, signum, frame):
        self.passes.append(timed_pass(self.arrays))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False


def normalized(record: dict) -> float:
    """The record's CPU seconds at the reference speed."""
    kernel = record["kernel"]
    return record["cpu"] * record["ref"] / (sum(kernel) / len(kernel))


def main(argv) -> int:
    mode, record_path, *cli_args = argv
    if mode not in ("run", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    arrays, ref = None, INTERP_REF_S
    if mode == "run":
        from robin_lab.cli import main as cli_main

        arrays, ref = make_arrays(), INTERP_REF_S + ARRAY_REF_S
    before = [timed_pass(arrays) for _ in range(BRACKET_PASSES)]
    started = time.process_time()
    with Sampler(arrays) as sampler:
        if mode == "run":
            code = cli_main(cli_args)
        else:
            import robin_lab.cli  # noqa: F401

            code = 0
    cpu = time.process_time() - started - sum(sampler.passes)
    after = [timed_pass(arrays) for _ in range(BRACKET_PASSES)]
    record = {"cpu": cpu, "kernel": before + sampler.passes + after, "ref": ref}
    with open(record_path, "w", encoding="ascii") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
