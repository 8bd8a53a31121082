"""Exact solutions the tests compare the finite-element solver against.

The 1D problem -u'' + lam u = f on (0, 1) with u' = beta u at 0 and
-u' = beta u at 1 (the same beta at both ends) and constant data has the
closed form

    u(x) = f/lam + A cosh(sqrt(lam) (x - 1/2)),
    A = -(beta f / lam) / (sqrt(lam) sinh(sqrt(lam)/2) + beta cosh(sqrt(lam)/2))
"""

import math

from robin_lab.errors import InvalidArgumentError


def analytic_interval_solution(lam: float, beta: float, f_const: float):
    """Closed-form 1D solution for constant data, same beta at both ends."""
    if lam <= 0.0:
        raise InvalidArgumentError(f"lambda must be > 0, got {lam}")
    if beta < 0.0:
        raise InvalidArgumentError(f"beta must be >= 0, got {beta}")
    root = math.sqrt(lam)
    amp = -(beta * f_const / lam) / (
        root * math.sinh(root / 2.0) + beta * math.cosh(root / 2.0)
    )

    def evaluate(x: float) -> float:
        return f_const / lam + amp * math.cosh(root * (x - 0.5))

    return evaluate

