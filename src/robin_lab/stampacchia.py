"""Stampacchia decay iteration on sampled level-set measure curves.

If a nonnegative nonincreasing function phi satisfies

    phi(h) <= c * (h - k)^(-alpha) * phi(k)^delta      for all h > k >= 0

with delta > 1, then phi vanishes at d_gap, where the classical gap
satisfies d_gap^alpha = c * phi(0)^(delta-1) * 2^(alpha*delta/(delta-1)).
An alternate variant with exponent 2^(delta*(delta-1)) is kept as well;
the two coincide at (alpha, delta) = (4, 3), the combination produced by
``theorem_constants`` in dimension 3.  The classical form is the default
because it carries the standard proof.

`fit_minimal_c` recovers the smallest constant making the hypothesis hold
on a sample grid, which turns solver output into checkable decay data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import trace_exponent
from .errors import InvalidArgumentError

_HYPOTHESIS_SLACK = 1e-9  # relative slack absorbing float noise
_VARIANTS = ("classical", "alternate")


@dataclass(frozen=True)
class StampacchiaParams:
    """Constants (c, alpha, delta), phi0 = phi(0), variant."""

    c: float
    alpha: float
    delta: float
    phi0: float = 0.0
    variant: str = "classical"

    def __post_init__(self):
        if self.c < 0.0:
            raise InvalidArgumentError(f"c must be >= 0, got {self.c}")
        if self.alpha <= 0.0:
            raise InvalidArgumentError(f"alpha must be > 0, got {self.alpha}")
        if self.delta <= 1.0:
            raise InvalidArgumentError(f"delta must be > 1, got {self.delta}")
        if self.phi0 < 0.0:
            raise InvalidArgumentError(f"phi0 must be >= 0, got {self.phi0}")
        if self.variant not in _VARIANTS:
            raise InvalidArgumentError(
                f"variant must be one of {_VARIANTS}, got {self.variant!r}"
            )


@dataclass(frozen=True, eq=False)
class PhiSamples:
    """A sampled nonincreasing nonnegative curve k -> phi(k), levels k >= 0."""

    ks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if ks.ndim != 1 or ks.shape != values.shape:
            raise InvalidArgumentError("ks and values must be 1-d and equally long")
        if ks.size == 0:
            raise InvalidArgumentError("samples must be nonempty")
        for name, array in (("levels", ks), ("phi values", values)):
            bad = array[~np.isfinite(array)]
            if bad.size:
                raise InvalidArgumentError(f"{name} must be finite, got {bad[0]}")
        if ks[0] < 0.0:
            raise InvalidArgumentError(f"levels must be >= 0, got {ks[0]}")
        if np.any(np.diff(ks) <= 0.0):
            raise InvalidArgumentError("ks must be strictly increasing")
        if np.any(values < 0.0):
            raise InvalidArgumentError("phi values must be nonnegative")
        if np.any(np.diff(values) > 1e-12):
            raise InvalidArgumentError("phi values must be nonincreasing (1e-12 slack)")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DecayReport:
    hypothesis_ok: bool
    predicted_gap: float
    vanish_point: float  # or None when phi never vanishes on the samples
    conclusion_ok: bool
    samples: PhiSamples  # the curve the check ran on


def stampacchia_gap(params: StampacchiaParams) -> float:
    """Level at which phi is guaranteed to vanish."""
    if params.variant == "alternate":
        exponent = params.delta * (params.delta - 1.0)
    else:
        exponent = params.alpha * params.delta / (params.delta - 1.0)
    base = params.c * params.phi0 ** (params.delta - 1.0) * 2.0**exponent
    return base ** (1.0 / params.alpha)


def fit_minimal_c(samples: PhiSamples, alpha: float, delta: float) -> float:
    """Smallest c with phi(h) <= c (h-k)^(-alpha) phi(k)^delta on the grid."""
    if alpha <= 0.0:
        raise InvalidArgumentError(f"alpha must be > 0, got {alpha}")
    if delta <= 1.0:
        raise InvalidArgumentError(f"delta must be > 1, got {delta}")
    if samples.ks.size < 2:
        raise InvalidArgumentError("need at least two samples to fit c")
    ks, phi = samples.ks, samples.values
    lo, hi = np.triu_indices(ks.size, k=1)  # pairs k = ks[lo] < h = ks[hi]
    informative = phi[lo] > 0.0
    if not np.any(informative):
        return 0.0
    lo, hi = lo[informative], hi[informative]
    ratios = phi[hi] * (ks[hi] - ks[lo]) ** alpha / phi[lo] ** delta
    return float(ratios.max())


def verify_decay(samples: PhiSamples, params: StampacchiaParams) -> DecayReport:
    """Check the decay hypothesis on all sampled pairs and its conclusion.

    The conclusion (phi vanishes within the predicted gap) is decided
    positively as soon as a sampled zero at or below the gap exists; it is
    decided negatively only when the samples cover the whole interval
    [0, gap] and stay positive.  Otherwise the data cannot decide and an
    error is raised.
    """
    ks, phi = samples.ks, samples.values
    lo, hi = np.triu_indices(ks.size, k=1)
    bounds = params.c * (ks[hi] - ks[lo]) ** (-params.alpha) * phi[lo] ** params.delta
    hypothesis_ok = bool(np.all(phi[hi] <= bounds * (1.0 + _HYPOTHESIS_SLACK) + 0.0))

    gap = stampacchia_gap(params)
    zeros = np.flatnonzero(phi == 0.0)
    vanish_point = float(ks[zeros[0]]) if zeros.size else None

    if vanish_point is not None and vanish_point <= gap * (1.0 + 1e-12) + 1e-300:
        conclusion_ok = True
    elif ks[0] <= 1e-12 and ks[-1] >= gap - 1e-12:
        conclusion_ok = False
    else:
        raise InvalidArgumentError(
            f"samples span [{ks[0]:g}, {ks[-1]:g}] but deciding the "
            f"conclusion needs coverage of [0, {gap:g}]"
        )
    return DecayReport(
        hypothesis_ok=hypothesis_ok,
        predicted_gap=gap,
        vanish_point=vanish_point,
        conclusion_ok=conclusion_ok,
        samples=samples,
    )


def theorem_constants(d: int, c2: float, phi0: float = 0.0) -> StampacchiaParams:
    """Decay parameters used for boundary level-set curves in dimension d.

    alpha equals the trace exponent s, delta = s - 1, and the iteration
    starts at level 0; c2 is the composite multiplicative constant.
    """
    if c2 < 0.0:
        raise InvalidArgumentError(f"composite constant must be >= 0, got {c2}")
    s = trace_exponent(d)
    return StampacchiaParams(c=c2, alpha=s, delta=s - 1.0, phi0=phi0)
