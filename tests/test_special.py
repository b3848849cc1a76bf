"""Modified Bessel evaluator against an extended-precision oracle.

Frozen reference digits come from mpmath at 40 decimal places; the live
grid checks below recompute them so a regression anywhere in the argument
range (including the hand-over of the log variants at the overflow guard)
is caught against an independent implementation, not against ourselves.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from panharmonic.special import (MAX_ARGUMENT, DiscSolution, bessel_i0,
                                 bessel_i1, disc_solution_eval,
                                 halfplane_solution_eval, log_bessel_i0,
                                 log_bessel_i1)

mp.mp.dps = 40

# mpmath, 40 digits, rounded to double precision.
I0_1 = 1.2660658777520083
I1_1 = 0.5651591039924851
I0_4 = 11.301921952136331
LOG_I0_50 = 47.127575501871805
LOG_I1_50 = 47.117473616587127


def test_frozen_reference_values():
    assert bessel_i0(1.0) == pytest.approx(I0_1, rel=1e-15)
    assert bessel_i1(1.0) == pytest.approx(I1_1, rel=1e-15)
    assert bessel_i0(4.0) == pytest.approx(I0_4, rel=1e-14)
    assert log_bessel_i0(50.0) == pytest.approx(LOG_I0_50, rel=1e-14)
    assert log_bessel_i1(50.0) == pytest.approx(LOG_I1_50, rel=1e-14)


def test_oracle_grid_both_branches():
    # Log-spaced grid straddling the branch switch and the overflow guard.
    z = np.logspace(-3, math.log10(690.0), 40)
    for t in z:
        ref0 = float(mp.besseli(0, mp.mpf(t)))
        ref1 = float(mp.besseli(1, mp.mpf(t)))
        if math.isfinite(ref0):
            assert bessel_i0(float(t)) == pytest.approx(ref0, rel=1e-13)
        if math.isfinite(ref1):
            assert bessel_i1(float(t)) == pytest.approx(ref1, rel=1e-13)
        assert log_bessel_i0(float(t)) == pytest.approx(
            float(mp.log(mp.besseli(0, mp.mpf(t)))), rel=1e-13, abs=1e-13)


def test_log_i0_near_zero_is_absolutely_accurate():
    # log I0(z) ~ z^2 / 4 near 0 is the log of a value near 1, so its
    # error is a few ulp of 1 in absolute terms, not of the result: about
    # 1e-10 relative at z = 1e-3.
    for t in np.logspace(-3, 0, 200):
        ref = mp.log(mp.besseli(0, mp.mpf(float(t))))
        assert abs(float(mp.mpf(log_bessel_i0(float(t))) - ref)) <= 4 * 2.0**-52


def test_oracle_across_overflow_handover():
    # Both log variants against mpmath from 1e-3 to 1e4, including the
    # neighbourhood of the overflow guard where direct values stop; the
    # direct values themselves up to the guard.
    z = np.concatenate([np.logspace(-3, 4, 400),
                        [699.999, 700.0, 700.001, 708.0, 710.0]])
    for t in z:
        x = mp.mpf(float(t))
        ref0, ref1 = mp.besseli(0, x), mp.besseli(1, x)
        for fn, ref in ((log_bessel_i0, ref0), (log_bessel_i1, ref1)):
            want = float(mp.log(ref))
            assert abs(fn(float(t)) - want) <= 1e-14 * abs(want) + 1e-15
        if t <= MAX_ARGUMENT:
            for fn, ref in ((bessel_i0, ref0), (bessel_i1, ref1)):
                assert abs(fn(float(t)) - float(ref)) <= 1e-14 * float(ref)


def test_branch_switch_is_seamless():
    # scipy switches Chebyshev expansions at z = 8, and z = 15 is the classic
    # series/asymptotic switch.  Crossing either point changes the value by
    # no more than the true local relative slopes I0'/I0 and I1'/I1, both
    # below 1 there, allow.
    eps = 1e-9
    for z in (8.0, 15.0):
        for fn in (bessel_i0, bessel_i1):
            lo = fn(z - eps)
            hi = fn(z + eps)
            assert abs(hi - lo) / lo < 3.0 * eps


def test_special_values_at_zero():
    assert bessel_i0(0.0) == 1.0
    assert bessel_i1(0.0) == 0.0
    assert log_bessel_i0(0.0) == 0.0
    assert log_bessel_i1(0.0) == -math.inf


def test_vectorized_matches_scalar():
    z = np.array([0.0, 0.3, 14.9, 15.1, 200.0])
    v = bessel_i0(z)
    assert v.shape == z.shape
    for t, got in zip(z, v):
        assert got == bessel_i0(float(t))


def test_argument_guards():
    with pytest.raises(ValueError):
        bessel_i0(-1.0)
    with pytest.raises(ValueError):
        bessel_i0(MAX_ARGUMENT + 1.0)
    with pytest.raises(ValueError):
        bessel_i0(math.nan)
    # The log variants keep going where the direct values would overflow.
    assert math.isfinite(log_bessel_i0(5000.0))


def test_log_variant_consistency():
    z = np.array([0.5, 3.0, 15.0, 60.0, 500.0])
    assert np.allclose(np.exp(log_bessel_i0(z[:3])), bessel_i0(z[:3]), rtol=1e-13)
    # Asymptotically log I0 ~ z - log(2 pi z)/2; check the leading term.
    t = 500.0
    lead = t - 0.5 * math.log(2 * math.pi * t)
    assert abs(log_bessel_i0(t) - lead) < 1e-3 * lead


class TestDiscSolution:
    def test_edge_and_center_values(self):
        sol = DiscSolution(1.0, 1.0)
        assert sol.value_at_radius(1.0) == pytest.approx(1.0, abs=1e-15)
        assert sol.value_at_radius(0.0) == pytest.approx(1.0 / I0_1, rel=1e-14)

    def test_margin_against_direct_formula(self):
        sol = DiscSolution(1.0, 1.0)
        s = np.linspace(0.0, 1.0, 101)
        a = 1.0 / I0_1
        direct = a * (bessel_i0(s) - bessel_i1(s))
        got = sol.margin_at_radius(s)
        assert np.allclose(got, direct, rtol=1e-12)
        # Known value at the rim, where the margin is smallest.
        assert got[-1] == pytest.approx((I0_1 - I1_1) / I0_1, rel=1e-12)
        assert got[-1] == pytest.approx(0.5536100341034655, rel=1e-12)

    def test_margin_stable_at_large_mu(self):
        # Direct evaluation would overflow; the log-space path must not.
        sol = DiscSolution(1.0, 400.0)
        m = sol.margin_at_radius(np.linspace(0.5, 1.0, 11))
        assert np.all(np.isfinite(m))
        assert np.all(m > 0.0)

    def test_eval_rejects_exterior_points(self):
        sol = DiscSolution(2.0, 1.5)
        value, grad = disc_solution_eval(sol, (0.3, -0.4))
        assert grad == pytest.approx(
            sol.gradient_magnitude_at_radius(0.5), rel=1e-13)
        assert value == pytest.approx(sol.value_at_radius(0.5), rel=1e-13)
        with pytest.raises(ValueError):
            disc_solution_eval(sol, (2.1, 0.0))


def test_halfplane_closed_form():
    for mu in (1.0, 10.0, 100.0):
        for x2 in (0.0, 0.4, 2.0):
            value, grad = halfplane_solution_eval(mu, (3.7, x2))
            assert value == pytest.approx(math.exp(-mu * x2), rel=1e-15)
            assert grad == mu * value  # margin is exactly zero
    with pytest.raises(ValueError):
        halfplane_solution_eval(1.0, (0.0, -1e-9))
