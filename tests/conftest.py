"""A wall-clock limit on every test.

A wrong preconditioner drives CG to its budget of 10 iterations per unknown,
which turns a test of a few seconds into minutes of silence; the limit makes
such a defect fail the test instead of stalling the run.  The slowest test
takes about 3 s.
"""

import signal

import pytest

TEST_SECONDS = 120


class WallClockLimit(BaseException):
    """Not an Exception, so neither the code under test nor hypothesis (which
    would go on to shrink the failing example) catches it: the test ends."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise WallClockLimit(f"{item.nodeid} ran longer than {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
