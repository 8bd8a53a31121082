import numpy as np
import pytest

from robin_lab.errors import InvalidArgumentError, UnsupportedDimensionError
from robin_lab.stampacchia import (
    PhiSamples,
    StampacchiaParams,
    fit_minimal_c,
    stampacchia_gap,
    theorem_constants,
    verify_decay,
)


def _params(**kw):
    base = dict(c=1.0, alpha=4.0, delta=3.0, phi0=1.0, variant="classical")
    base.update(kw)
    return StampacchiaParams(**base)


def test_gap_alternate_variant_example():
    # c=1, alpha=4, delta=3, phi0=1: (2^6)^(1/4) = 2^1.5
    assert stampacchia_gap(_params(variant="alternate")) == pytest.approx(2.0**1.5)


def test_gap_vanishes_with_phi0_zero():
    for variant in ("alternate", "classical"):
        assert stampacchia_gap(_params(phi0=0.0, variant=variant)) == 0.0


def test_gap_vanishes_with_zero_constant():
    for variant in ("alternate", "classical"):
        assert stampacchia_gap(_params(c=0.0, variant=variant)) == 0.0


def test_variants_coincide_at_alpha4_delta3():
    # delta*(delta-1) = 6 = alpha*delta/(delta-1) exactly at (4, 3)
    for c in (0.1, 1.0, 10.0):
        for phi0 in (0.1, 1.0, 10.0):
            gp = stampacchia_gap(_params(c=c, phi0=phi0, variant="alternate"))
            gc = stampacchia_gap(_params(c=c, phi0=phi0, variant="classical"))
            assert abs(gp - gc) <= 1e-12


def test_variants_differ_in_general():
    p = _params(alpha=3.0, delta=2.0, variant="alternate")
    c = _params(alpha=3.0, delta=2.0, variant="classical")
    assert stampacchia_gap(p) != stampacchia_gap(c)


@pytest.mark.parametrize("variant", ["alternate", "classical"])
def test_gap_monotone_in_c_and_phi0(variant):
    cs = np.linspace(0.0, 5.0, 11)
    gaps = [stampacchia_gap(_params(c=c, variant=variant)) for c in cs]
    assert np.all(np.diff(gaps) >= 0.0)
    phis = np.linspace(0.0, 5.0, 11)
    gaps = [stampacchia_gap(_params(phi0=p, variant=variant)) for p in phis]
    assert np.all(np.diff(gaps) >= 0.0)


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        StampacchiaParams(c=-1.0, alpha=4.0, delta=3.0)
    with pytest.raises(InvalidArgumentError):
        StampacchiaParams(c=1.0, alpha=0.0, delta=3.0)
    with pytest.raises(InvalidArgumentError):
        StampacchiaParams(c=1.0, alpha=4.0, delta=1.0)
    with pytest.raises(InvalidArgumentError):
        StampacchiaParams(c=1.0, alpha=4.0, delta=3.0, variant="fancy")
    nan = float("nan")
    for bad in ({"c": nan}, {"alpha": nan}, {"delta": nan}, {"phi0": nan}):
        with pytest.raises(InvalidArgumentError):
            StampacchiaParams(**{"c": 1.0, "alpha": 4.0, "delta": 3.0, **bad})


def test_samples_validation():
    with pytest.raises(InvalidArgumentError):
        PhiSamples(np.array([0.0, 0.0]), np.array([1.0, 1.0]))  # not increasing
    with pytest.raises(InvalidArgumentError):
        PhiSamples(np.array([0.0, 1.0]), np.array([1.0, -0.1]))  # negative
    with pytest.raises(InvalidArgumentError):
        PhiSamples(np.array([0.0, 1.0]), np.array([0.5, 1.0]))  # increasing phi
    with pytest.raises(InvalidArgumentError, match="levels"):
        PhiSamples(np.array([-0.5, 1.0]), np.array([1.0, 0.5]))  # negative level
    with pytest.raises(InvalidArgumentError, match="levels must be finite"):
        PhiSamples([0.0, np.nan], [1.0, 0.5])
    with pytest.raises(InvalidArgumentError, match="phi values must be finite"):
        PhiSamples([0.0, 1.0], [np.nan, 0.5])
    PhiSamples(np.array([0.0, 1.0]), np.array([1.0, 1.0 + 1e-13]))  # inside slack


def test_fit_trivial_cases():
    ks = np.linspace(0.0, 1.0, 5)
    assert fit_minimal_c(PhiSamples(ks, np.zeros(5)), 4.0, 3.0) == 0.0
    two = PhiSamples(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert fit_minimal_c(two, 4.0, 3.0) == 0.0
    with pytest.raises(InvalidArgumentError):
        fit_minimal_c(PhiSamples(np.array([0.0]), np.array([1.0])), 4.0, 3.0)
    for alpha, delta in ((float("nan"), 3.0), (4.0, float("nan"))):
        with pytest.raises(InvalidArgumentError):
            fit_minimal_c(two, alpha, delta)


def test_fit_matches_exhaustive_double_loop():
    ks = np.linspace(0.0, 2.0, 101)
    phi = np.maximum(1.0 - ks, 0.0) ** 6
    samples = PhiSamples(ks, phi)
    alpha, delta = 4.0, 3.0
    # independent oracle: explicit loop over all ordered pairs
    expected = 0.0
    for i in range(len(ks)):
        if phi[i] <= 0.0:
            continue
        for j in range(i + 1, len(ks)):
            expected = max(expected, phi[j] * (ks[j] - ks[i]) ** alpha / phi[i] ** delta)
    fitted = fit_minimal_c(samples, alpha, delta)
    assert fitted == pytest.approx(expected, rel=1e-13)
    assert fitted > 0.0


def test_fit_on_constant_curve_grows_with_range():
    # for constant phi the binding pair is the widest one: c = range^alpha
    short = PhiSamples(np.linspace(0.0, 2.0, 101), np.ones(101))
    long = PhiSamples(np.linspace(0.0, 4.0, 201), np.ones(201))
    assert fit_minimal_c(short, 4.0, 3.0) == pytest.approx(16.0)
    assert fit_minimal_c(long, 4.0, 3.0) == pytest.approx(256.0)


def test_verify_trivial_zero_curve():
    ks = np.linspace(0.0, 1.0, 9)
    report = verify_decay(PhiSamples(ks, np.zeros(9)), _params(phi0=0.0))
    assert report.hypothesis_ok
    assert report.predicted_gap == 0.0
    assert report.vanish_point == 0.0
    assert report.conclusion_ok


def test_verify_fitted_power_curve():
    ks = np.linspace(0.0, 2.0, 101)
    phi = np.maximum(1.0 - ks, 0.0) ** 6
    samples = PhiSamples(ks, phi)
    c = fit_minimal_c(samples, 4.0, 3.0)
    report = verify_decay(samples, _params(c=c, phi0=1.0))
    assert report.hypothesis_ok
    assert report.vanish_point == pytest.approx(1.0)
    assert report.conclusion_ok


@pytest.mark.parametrize("power", [6, 8, 12])
def test_fitted_hypothesis_implies_conclusion(power):
    # the decay lemma in action: whenever the fitted constant validates the
    # hypothesis on the grid, the curve must vanish within the predicted gap
    ks = np.linspace(0.0, 2.0, 201)
    phi = np.maximum(1.0 - ks, 0.0) ** power
    samples = PhiSamples(ks, phi)
    c = fit_minimal_c(samples, 4.0, 3.0)
    report = verify_decay(samples, _params(c=c, phi0=float(phi[0])))
    assert report.hypothesis_ok
    assert report.conclusion_ok


def test_verify_constant_curve_fails_hypothesis():
    # a positive constant curve never vanishes; with a small c the widest
    # pairs break the hypothesis and the conclusion is decidably false
    ks = np.linspace(0.0, 2.0, 101)
    samples = PhiSamples(ks, np.ones(101))
    report = verify_decay(samples, _params(c=0.1))
    assert not report.hypothesis_ok
    assert report.vanish_point is None
    assert not report.conclusion_ok


def test_verify_insufficient_range():
    # gap (1 * 1 * 2^6)^(1/4) ~ 2.83 exceeds the sampled range and no zero
    # was seen, so the conclusion cannot be decided
    ks = np.linspace(0.0, 2.0, 101)
    samples = PhiSamples(ks, np.ones(101))
    with pytest.raises(InvalidArgumentError):
        verify_decay(samples, _params(c=1.0))


def test_theorem_constants_examples():
    p3 = theorem_constants(3, 2.0)
    assert (p3.alpha, p3.delta) == (4.0, 3.0)
    assert p3.c == 2.0
    p4 = theorem_constants(4, 1.0)
    assert (p4.alpha, p4.delta) == (3.0, 2.0)
    with pytest.raises(UnsupportedDimensionError):
        theorem_constants(2, 1.0)
    for c2 in (-1.0, float("nan")):
        with pytest.raises(InvalidArgumentError):
            theorem_constants(3, c2)
    # zero composite constant collapses the gap no matter the start value
    assert stampacchia_gap(theorem_constants(3, 0.0, phi0=123.0)) == 0.0
