"""Deterministic first moment: closed forms, Monte Carlo, grid and truncation errors."""

import numpy as np
import pytest
from scipy.stats import norm

from mildbbm.environment import ObstacleField
from mildbbm.feynman_kac import estimate_quenched_mass
from mildbbm.first_moment import expected_mass_1d
from mildbbm.seeds import derive_seed


def free_local_mass(beta, b, t, center, radius):
    """e^{beta t} P(b t + W_t in (center - radius, center + radius))."""
    t = np.asarray(t, dtype=float)
    s = np.sqrt(t)
    return np.exp(beta * t) * (norm.cdf((center + radius - b * t) / s) - norm.cdf((center - radius - b * t) / s))


class TestObstacleFree:
    @pytest.mark.parametrize(
        "beta,b,center,radius,ts",
        [
            (0.8, 1.0, 0.0, 1.0, (10.0, 14.0, 18.0, 22.0, 26.0, 30.0)),  # gate 8b without obstacles
            (0.5, -0.5, -2.0, 0.5, (2.0, 6.0)),
        ],
    )
    def test_local_mass_closed_form(self, beta, b, center, radius, ts):
        fm = expected_mass_1d(None, beta, ts, drift=b, ball=(center, radius))
        exact = free_local_mass(beta, b, fm.times, center, radius)
        assert np.all(np.abs(fm.value / exact - 1.0) < 0.01)
        assert np.all(np.abs(fm.value - exact) <= fm.error_bound)

    def test_total_mass_is_yule_mean(self):
        fm = expected_mass_1d(None, 1.0, (1.0, 4.0))
        assert np.all(np.abs(fm.value / np.exp(fm.times) - 1.0) < 1e-3)
        assert np.all(fm.truncation_bound < 1e-20)

    def test_time_zero_is_initial_data(self):
        # the projected initial data: O(dx^2) off the indicator inside the ball
        assert expected_mass_1d(None, 1.0, (0.0, 1.0), ball=(0.0, 1.0)).value[0] == pytest.approx(1.0, abs=1e-12)
        assert expected_mass_1d(None, 1.0, (0.0, 1.0), drift=1.0, ball=(0.0, 1.0)).value[0] == pytest.approx(1.0, abs=1e-4)
        assert abs(expected_mass_1d(None, 1.0, (0.0, 1.0), ball=(3.0, 1.0)).value[0]) < 1e-12


class TestTruncation:
    def test_bound_covers_what_a_narrow_interval_misses(self):
        # a drifted path leaves (-5, 5) by t = 4 with probability about 0.38
        ts = (1.0, 2.0, 4.0)
        fm = expected_mass_1d(None, 0.5, ts, drift=1.0, half_width=5.0)
        exact = np.exp(0.5 * fm.times)
        assert np.all(fm.value <= exact + fm.grid_error)
        assert np.all(fm.value + fm.error_bound >= exact)
        assert fm.value[-1] < 0.9 * exact[-1]

    def test_reflection_bound_is_small_for_the_ball(self):
        # ending in B(0, 1) after leaving (-25, 25) costs e^{-2 b L}-type factors,
        # far below one particle even with the e^{beta t} weight
        fm = expected_mass_1d(None, 0.8, (30.0,), drift=1.0, ball=(0.0, 1.0), dx=0.05)
        assert fm.truncation_bound[0] < 1e-10


class TestWithObstacles:
    def test_gate5_field_against_feynman_kac(self):
        # gate 5's field and horizon: branching 42.127 +- 0.308, FK 42.015 +- 0.116
        field = ObstacleField(1, 0.5, 0.3, 20_05, 1.0)
        fm = expected_mass_1d(field, 1.0, (4.0,))
        est = estimate_quenched_mass(field, 1.0, 4.0, 1e-3, 4000, seed=derive_seed(2005, "fk"))
        assert abs(fm.value[0] - est.point_estimate) <= 3.0 * est.std_error + fm.error_bound[0]
        assert abs(fm.value[0] - 42.0) < 0.3

    def test_halving_dx_stays_within_reported_error(self):
        field = ObstacleField(1, 0.5, 0.3, derive_seed(2008, "env", 0))
        ts = (5.0, 10.0)
        coarse = expected_mass_1d(field, 0.8, ts, drift=1.0, ball=(0.0, 1.0), half_width=15.0, dx=0.04)
        fine = expected_mass_1d(field, 0.8, ts, drift=1.0, ball=(0.0, 1.0), half_width=15.0, dx=0.02)
        assert np.all(coarse.grid_error > 0)
        assert np.all(np.abs(fine.value - coarse.value) <= coarse.grid_error)

    def test_fully_blocked_line_only_diffuses(self):
        # obstacles every 0.2 with a = 0.3 block everything: no branching
        field = ObstacleField.from_points(np.arange(-20.0, 20.01, 0.2), a=0.3)
        fm = expected_mass_1d(field, 1.0, (1.0, 4.0), ball=(0.0, 1.0), half_width=15.0)
        exact = free_local_mass(0.0, 0.0, fm.times, 0.0, 1.0)
        assert np.all(np.abs(fm.value - exact) < 1e-3)

    def test_overlapping_obstacles_are_not_counted_twice(self):
        pts = [-3.0, -2.8, 0.5, 0.6, 0.65, 4.0]
        once = expected_mass_1d(ObstacleField.from_points(pts, a=0.3), 1.0, (2.0,), half_width=10.0)
        twice = expected_mass_1d(ObstacleField.from_points(pts + pts[1:4], a=0.3), 1.0, (2.0,), half_width=10.0)
        assert once.value[0] == twice.value[0]

    def test_obstacles_lower_the_mass(self):
        field = ObstacleField(1, 0.5, 0.3, 7)
        ts = (2.0, 6.0)
        with_obstacles = expected_mass_1d(field, 1.0, ts, ball=(0.0, 1.0))
        free = expected_mass_1d(None, 1.0, ts, ball=(0.0, 1.0))
        assert np.all(with_obstacles.value < free.value)


class TestValidation:
    def test_two_dimensional_field_rejected(self):
        with pytest.raises(ValueError):
            expected_mass_1d(ObstacleField(2, 0.5, 0.3, 1), 1.0, (1.0,))

    @pytest.mark.parametrize("times", [(), (2.0, 1.0), (-1.0,), (1.0, 1.0)])
    def test_bad_times(self, times):
        with pytest.raises(ValueError):
            expected_mass_1d(None, 1.0, times)

    def test_ball_must_fit_inside(self):
        with pytest.raises(ValueError):
            expected_mass_1d(None, 1.0, (1.0,), ball=(24.5, 1.0))

    def test_spacing_must_fit(self):
        with pytest.raises(ValueError):
            expected_mass_1d(None, 1.0, (1.0,), half_width=1.0, dx=2.0)

    @pytest.mark.parametrize("drift", [float("nan"), float("inf")])
    def test_drift_must_be_finite(self, drift):
        # read by analysis.drift_vector, not float(): a NaN drift must not
        # give a FirstMoment that is NaN throughout
        with pytest.raises(ValueError, match="finite"):
            expected_mass_1d(None, 1.0, (1.0,), drift=drift)
