"""Closed-form constants against independent oracles.

Eigenvalues are cross-checked against scipy's Bessel zeros and analytic
values (the implementation uses its own series + bisection); the interval
confinement series is checked against the method-of-images representation;
the drift eigenvalue against a finite-difference spectral solve.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import optimize, sparse, special
from scipy.sparse.linalg import splu

from mildbbm.analysis import (
    ModelConstants,
    annealed_constant,
    clearing_radius,
    confinement_prob_series_1d,
    derive_constants,
    drift_vector,
    lambda_c_constant_drift,
    predicted_log_mass,
    principal_eigenvalue_ball,
    principal_eigenvalue_unit_ball,
    quenched_constant,
    unit_ball_volume,
)


def scipy_first_zero(order):
    if order == int(order) and order >= 0:
        return special.jn_zeros(int(order), 1)[0]
    xs = np.linspace(0.05, 30, 24000)
    vals = special.jv(order, xs)
    k = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0][0]
    return optimize.brentq(lambda x: special.jv(order, x), xs[k], xs[k + 1], xtol=1e-14)


class TestUnitBallVolume:
    def test_low_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-14)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, abs=1e-13)
        assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2, abs=1e-13)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestPrincipalEigenvalue:
    def test_d1_cosine_eigenfunction(self):
        # -u''/2 = lam u on (-1,1), u = cos(pi x / 2)
        assert principal_eigenvalue_unit_ball(1) == pytest.approx(math.pi**2 / 8, abs=1e-11)

    def test_d3_spherical_bessel(self):
        # radial eigenfunction sin(pi r)/r vanishes at r = 1
        assert principal_eigenvalue_unit_ball(3) == pytest.approx(math.pi**2 / 2, abs=1e-11)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_against_scipy_zeros(self, d):
        j = scipy_first_zero(d / 2 - 1)
        assert principal_eigenvalue_unit_ball(d) == pytest.approx(j * j / 2, rel=1e-11)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scaling(self, d, radius):
        lam = principal_eigenvalue_unit_ball(d)
        assert principal_eigenvalue_ball(d, radius) == pytest.approx(lam / radius**2, rel=1e-12)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            principal_eigenvalue_unit_ball(11)


class TestConstants:
    def test_quenched_d1(self):
        mc = ModelConstants(1, 1.0, 1.0, 0.3)
        assert quenched_constant(mc) == pytest.approx(math.pi**2 / 2, abs=1e-9)

    def test_quenched_d2(self):
        # lambda_2 * (2/pi)^{-1} with the scipy zero as oracle
        lam2 = scipy_first_zero(0) ** 2 / 2
        mc = ModelConstants(2, 1.0, 1.0, 0.3)
        assert quenched_constant(mc) == pytest.approx(lam2 * math.pi / 2, rel=1e-10)

    def test_quenched_vanishes_with_intensity(self):
        mc = ModelConstants(3, 1e-12, 1.0, 0.3)
        assert quenched_constant(mc) < 1e-6

    def test_annealed_d1(self):
        mc = ModelConstants(1, 1.0, 1.0, 0.3)
        expected = 2 ** (2 / 3) * 1.5 * (math.pi**2 / 4) ** (1 / 3)
        assert annealed_constant(mc) == pytest.approx(expected, rel=1e-10)
        assert annealed_constant(mc) == pytest.approx(3.217544095666538, rel=1e-10)

    def test_annealed_d2(self):
        lam2 = scipy_first_zero(0) ** 2 / 2
        mc = ModelConstants(2, 1.0, 1.0, 0.3)
        assert annealed_constant(mc) == pytest.approx(math.sqrt(math.pi) * 2 * math.sqrt(lam2), rel=1e-10)

    def test_annealed_vanishes_with_intensity(self):
        mc = ModelConstants(2, 1e-15, 1.0, 0.3)
        assert annealed_constant(mc) < 1e-6

    @pytest.mark.parametrize("name", ["nu", "beta", "a"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rates_and_sizes_must_be_finite_and_positive(self, name, value):
        params = {"d": 1, "nu": 1.0, "beta": 1.0, "a": 0.3, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
            ModelConstants(**params)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("nu", [0.2, 1.0, 3.7])
    def test_r0_identities(self, d, nu):
        dc = derive_constants(ModelConstants(d, nu, 1.0, 0.3))
        assert dc.c * dc.R_0**2 == pytest.approx(dc.lambda_d, rel=1e-12)
        assert dc.R_0 == pytest.approx(math.sqrt(dc.lambda_d / dc.c), rel=1e-12)


class TestPredictedLogMass:
    def test_quenched_value(self):
        mc = ModelConstants(1, 1.0, 1.0, 0.3)
        t = math.e**2
        expected = math.e**2 * (1 - math.pi**2 / 8)  # -1.7268264753...
        assert predicted_log_mass(mc, t, "quenched") == pytest.approx(expected, rel=1e-10)

    def test_annealed_crossing_point(self):
        # beta t = c_tilde t^{1/3} at t = (c_tilde/beta)^{3/2}
        mc = ModelConstants(1, 1.0, 1.0, 0.3)
        t_star = annealed_constant(mc) ** 1.5
        assert predicted_log_mass(mc, t_star, "annealed") == pytest.approx(0.0, abs=1e-9)

    def test_free_limit(self):
        mc = ModelConstants(1, 1e-300, 2.0, 0.3)
        assert predicted_log_mass(mc, 10.0, "quenched") == pytest.approx(20.0, abs=1e-6)

    def test_domain_errors(self):
        mc = ModelConstants(1, 1.0, 1.0, 0.3)
        with pytest.raises(ValueError):
            predicted_log_mass(mc, 1.0, "quenched")
        with pytest.raises(ValueError):
            predicted_log_mass(mc, 5.0, "typo")

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        t=hst.floats(min_value=1.001, max_value=1e6),
        nu=hst.floats(min_value=1e-3, max_value=10.0),
        d=hst.integers(min_value=1, max_value=6),
    )
    def test_slower_than_free_growth(self, t, nu, d):
        mc = ModelConstants(d, nu, 1.0, 0.5)
        assert predicted_log_mass(mc, t, "quenched") < mc.beta * t
        assert predicted_log_mass(mc, t, "annealed") < mc.beta * t


class TestClearingRadius:
    def test_values_d1(self):
        mc = ModelConstants(1, 1.0, 1.0, 0.3)
        # R_0 = 1/2; 0.5 log(1e6) - (log log 1e6)^2
        assert clearing_radius(1e6, mc) == pytest.approx(0.0129721008545, abs=1e-10)
        assert clearing_radius(math.e**math.e, mc) == pytest.approx(0.5 * math.e - 1, abs=1e-12)

    def test_clamped_to_zero(self):
        mc = ModelConstants(1, 1.0, 1.0, 0.1)
        assert clearing_radius(1e5, mc) == 0.0
        # the leading term is positive, and the correction exceeds it
        assert 0 < 0.5 * math.log(1e5) < math.log(math.log(1e5)) ** 2

    def test_domain_error(self):
        mc = ModelConstants(1, 1.0, 1.0, 0.3)
        with pytest.raises(ValueError):
            clearing_radius(math.e, mc)


def images_confinement(R, t, terms=80):
    """Method-of-images oracle for P(sup |W_s| < R up to t)."""
    if t == 0:
        return 1.0
    phi = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
    s = 0.0
    for k in range(-terms, terms + 1):
        s += (-1) ** k * (phi((2 * k + 1) * R / math.sqrt(t)) - phi((2 * k - 1) * R / math.sqrt(t)))
    return s


class TestConfinementSeries:
    def test_no_time_no_exit(self):
        assert confinement_prob_series_1d(1.0, 0.0) == 1.0

    def test_reference_value(self):
        assert confinement_prob_series_1d(1.0, 1.0) == pytest.approx(0.3707774297995239, abs=1e-13)

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 5.0])
    def test_matches_image_series(self, R, t):
        assert confinement_prob_series_1d(R, t) == pytest.approx(images_confinement(R, t), abs=1e-12)

    def test_late_time_decay_rate(self):
        # log-slope approaches the principal eigenvalue pi^2/(8 R^2)
        R = 1.3
        p20 = confinement_prob_series_1d(R, 20.0)
        p40 = confinement_prob_series_1d(R, 40.0)
        rate = -(math.log(p40) - math.log(p20)) / 20.0
        assert rate == pytest.approx(principal_eigenvalue_ball(1, R), rel=1e-8)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        R=hst.floats(min_value=0.3, max_value=3.0),
        t=hst.floats(min_value=0.0, max_value=10.0),
        step=hst.floats(min_value=0.1, max_value=2.0),
    )
    def test_monotone_and_bounded(self, R, t, step):
        p = confinement_prob_series_1d(R, t)
        assert 0.0 <= p <= 1.0
        assert confinement_prob_series_1d(R, t + step) <= p + 1e-12
        assert confinement_prob_series_1d(R + step, t) >= p - 1e-12


def fd_principal_eigenvalue(b, L, n=6000, iters=1500):
    """Largest eigenvalue of (1/2) d2/dx2 + b d/dx on (-L, L), Dirichlet.

    Inverse iteration with shift 0 (the whole spectrum is negative, so the
    eigenvalue nearest zero is the principal one).
    """
    h = 2 * L / (n + 1)
    main = np.full(n, -1.0 / h**2)
    up = np.full(n - 1, 0.5 / h**2 + b / (2 * h))
    dn = np.full(n - 1, 0.5 / h**2 - b / (2 * h))
    A = sparse.diags([dn, main, up], [-1, 0, 1], format="csc")
    lu = splu(A)
    x = np.ones(n)
    for _ in range(iters):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
    return float(x @ (A @ x))


class TestDriftVector:
    def test_scalar_acts_along_the_first_axis(self):
        assert drift_vector(0.5, 1) == (0.5,)
        assert drift_vector(np.float64(-0.5), 3) == (-0.5, 0.0, 0.0)
        assert drift_vector(np.array([0.1, -0.2]), 2) == (0.1, -0.2)

    @pytest.mark.parametrize("drift, d", [((1.0, 2.0), 1), ((1.0,), 2), (math.nan, 1), ((0.0, -math.inf), 2)])
    def test_wrong_length_or_non_finite_is_refused(self, drift, d):
        with pytest.raises(ValueError):
            drift_vector(drift, d)


class TestLambdaCDrift:
    def test_zero_drift(self):
        assert lambda_c_constant_drift(0.0) == 0.0

    def test_sign_symmetry(self):
        assert lambda_c_constant_drift(-1.0) == lambda_c_constant_drift(1.0) == -0.5

    def test_vector_drift(self):
        assert lambda_c_constant_drift((0.6, 0.8)) == pytest.approx(-0.5, rel=1e-12)

    def test_finite_domain_oracle(self):
        # lambda(L) = -b^2/2 - pi^2/(8 L^2) exactly; Richardson in 1/L^2
        # removes the whole finite-domain correction
        b = 1.0
        lam10, lam20 = fd_principal_eigenvalue(b, 10.0), fd_principal_eigenvalue(b, 20.0)
        extrapolated = lam20 + (lam20 - lam10) / 3.0
        assert extrapolated == pytest.approx(lambda_c_constant_drift(b), abs=2e-3)
        assert lam20 > lam10  # approaching the limit from below
        assert fd_principal_eigenvalue(b, 40.0) > lam20

    def test_dichotomy_threshold(self):
        for b in (0.5, 1.0, 2.0):
            thr = b * b / 2
            assert thr + lambda_c_constant_drift(b) == 0.0
            assert (thr + 1e-9) + lambda_c_constant_drift(b) > 0
            assert (thr - 1e-9) + lambda_c_constant_drift(b) < 0
