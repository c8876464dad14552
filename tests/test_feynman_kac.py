"""Path-functional estimators: exact limits, algebraic identities, cross-checks."""

import math

import numpy as np
import pytest
from scipy import stats as st

from mildbbm.analysis import ModelConstants
from mildbbm.branching import SimConfig, run_bbm
from mildbbm.environment import ObstacleField
from mildbbm.feynman_kac import (
    FkEstimate,
    _path_generator,
    estimate_annealed_mass,
    estimate_quenched_mass,
    sample_free_times,
    write_estimates_csv,
)
from mildbbm.seeds import derive_seed


class BlockEverywhere:
    d = 1

    def is_blocked_many(self, xs):
        return np.ones(len(np.atleast_1d(xs)), dtype=bool)


def empty_field(d=1):
    return ObstacleField.from_points([], a=0.3, d=d)


class TestQuenchedEstimator:
    def test_empty_field_exact(self):
        est = estimate_quenched_mass(empty_field(), 1.0, 2.0, 1e-3, 50, seed=1)
        assert est.point_estimate == pytest.approx(math.exp(est.t), rel=1e-14)
        assert est.std_error <= 1e-14
        assert est.n_environments == 1

    def test_blocked_everywhere_exact_one(self):
        est = estimate_quenched_mass(BlockEverywhere(), 1.0, 2.0, 1e-3, 50, seed=2)
        assert est.point_estimate == 1.0
        assert est.std_error == 0.0

    def test_bounds_hold(self):
        field = ObstacleField(1, 0.7, 0.3, 55, 1.0)
        for s in range(5):
            est = estimate_quenched_mass(field, 1.2, 1.5, 5e-3, 400, seed=s)
            assert 1.0 <= est.point_estimate <= math.exp(1.2 * est.t)

    def test_monotone_in_blocking_radius(self):
        # same centres, same paths: larger blocking balls can only shrink
        # the free time, hence the estimate
        seeds = dict(d=1, nu=0.6, master_seed=88, cell_size=1.0)
        small = ObstacleField(a=0.2, **seeds)
        large = ObstacleField(a=0.4, **seeds)
        f_small, _ = sample_free_times(small, 1.0, 2.0, 1e-3, 300, seed=4)
        f_large, _ = sample_free_times(large, 1.0, 2.0, 1e-3, 300, seed=4)
        assert np.all(f_large <= f_small + 1e-12)

    def test_monotone_in_intensity_by_superposition(self):
        # union of two independent fields = higher-intensity field
        base = ObstacleField(1, 0.4, 0.3, 21, 1.0)
        extra = ObstacleField(1, 0.4, 0.3, 22, 1.0)

        class Union:
            d = 1

            def is_blocked_many(self, xs):
                return base.is_blocked_many(xs) | extra.is_blocked_many(xs)

        f_base, _ = sample_free_times(base, 1.0, 2.0, 1e-3, 300, seed=5)
        f_union, _ = sample_free_times(Union(), 1.0, 2.0, 1e-3, 300, seed=5)
        assert np.all(f_union <= f_base + 1e-12)

    def test_dt_halving_consistency(self):
        field = ObstacleField(1, 0.5, 0.3, 77, 1.0)
        est = estimate_quenched_mass(field, 1.0, 4.0, 1e-3, 4000, seed=6)
        est_half = estimate_quenched_mass(field, 1.0, 4.0, 5e-4, 4000, seed=7)
        shift = abs(est.point_estimate - est_half.point_estimate)
        assert shift < 2.0 * math.hypot(est.std_error, est_half.std_error)


def per_step_free_steps(field, t, dt, n_paths, seed, drift):
    """Reference sampler: one is_blocked_many call and one draw per time step,
    each step rounded as pos + (sqrt(dt) N + drift dt)."""
    d = field.d
    rng = _path_generator(seed)
    drift_vec = np.zeros(d)
    drift_vec[: np.size(drift)] = drift
    step_drift = drift_vec[0] * dt if d == 1 else drift_vec * dt
    shape = (n_paths,) if d == 1 else (n_paths, d)
    pos = np.zeros(shape)
    free = np.zeros(n_paths, dtype=np.int64)
    for _ in range(int(round(t / dt))):
        free += ~field.is_blocked_many(pos)
        pos = pos + (math.sqrt(dt) * rng.standard_normal(shape) + step_drift)
    return free


class BatchRecorder:
    """Field wrapper recording a copy of every is_blocked_many batch (the
    sampler's left endpoints, in time-major order)."""

    def __init__(self, field):
        self.field, self.d, self.points = field, field.d, []

    def is_blocked_many(self, xs):
        self.points.append(np.array(xs))
        return self.field.is_blocked_many(xs)

    @property
    def sizes(self):
        return [len(p) for p in self.points]

    def paths(self, n_paths):
        """Recorded left endpoints as (steps, n_paths[, d]) positions."""
        pts = np.concatenate(self.points)
        return pts.reshape((-1, n_paths) + pts.shape[1:])


class TestBlockStepping:
    # (d, drift, n_paths, t, dt): 100 steps of 500 paths are blocks of 32 + 4;
    # 16,500 paths are one step per block; 6,000 steps of 3 paths are blocks
    # of 5,461 + 539 steps, so a long block's last row is carried and a
    # short block's drift added to its own rows alone
    CASES = [
        (1, 0.0, 500, 0.1, 1e-3),
        (1, 1.5, 500, 0.1, 1e-3),
        (2, 0.0, 300, 0.5, 5e-3),
        (2, (0.8, -0.4), 300, 0.5, 5e-3),
        (1, 0.5, 16_500, 0.01, 1e-3),
        (2, 0.0, 16_500, 0.2, 0.02),
        (1, 1.5, 3, 6.0, 1e-3),
        (2, (0.8, -0.4), 3, 6.0, 1e-3),
    ]

    @pytest.mark.parametrize("d, drift, n_paths, t, dt", CASES)
    def test_matches_per_step_reference(self, d, drift, n_paths, t, dt):
        # dense enough that short paths meet both free and blocked ground
        nu = 3.0 if d == 1 else 2.0
        field = ObstacleField(d, nu, 0.3, 4242, 1.0)
        free, _ = sample_free_times(field, 1.0, t, dt, n_paths, seed=17, drift=drift)
        ref = per_step_free_steps(ObstacleField(d, nu, 0.3, 4242, 1.0), t, dt, n_paths, 17, drift)
        assert np.array_equal(free, ref * dt)
        # the field blocks some steps and frees others, so the check has teeth
        assert 0 < ref.sum() < n_paths * int(round(t / dt))

    def test_blocks_hold_at_most_16384_points(self):
        field = BatchRecorder(ObstacleField(1, 1.0, 0.3, 5, 1.0))
        sample_free_times(field, 1.0, 0.1, 1e-3, 500, seed=1)
        assert field.sizes == [16_000, 16_000, 16_000, 2_000]
        big = BatchRecorder(ObstacleField(1, 1.0, 0.3, 5, 1.0))
        sample_free_times(big, 1.0, 0.003, 1e-3, 20_000, seed=1)
        assert big.sizes == [20_000] * 3


class TestIncrementLaw:
    # 1,000 steps of 256 paths (blocks of 64 steps): about 2.6e5 increments
    # per coordinate, where a scale of 0.97 sqrt(dt), or the drift of
    # (0.8, -0.4) dropped, moves the KS distance well past its 1e-3 level
    @pytest.mark.parametrize("d, drift", [(1, 0.0), (1, 1.5), (2, 0.0), (2, (0.8, -0.4))])
    def test_increments_are_independent_gaussians(self, d, drift):
        t, dt, n_paths = 10.0, 1e-2, 256
        field = BatchRecorder(ObstacleField(d, 1.0, 0.3, 31, 1.0))
        sample_free_times(field, 1.0, t, dt, n_paths, seed=3, drift=drift)
        paths = field.paths(n_paths)
        assert paths.shape[0] == round(t / dt) and not paths[0].any()
        mean = np.zeros(d)
        mean[: np.size(drift)] = drift
        # standardised per-path increments, one column of (steps - 1, paths) per coordinate
        z = (np.diff(paths, axis=0).reshape(-1, n_paths, d) - mean * dt) / math.sqrt(dt)
        for i in range(d):
            zi = z[..., i]
            assert st.kstest(zi.ravel(), "norm").pvalue > 1e-3
            lag1 = np.corrcoef(zi[:-1].ravel(), zi[1:].ravel())[0, 1]
            assert abs(lag1) < 4 / math.sqrt(zi[1:].size)


class TestStreamsAcrossHorizons:
    @pytest.mark.parametrize("d", [1, 2])
    def test_paths_to_t_are_prefixes_of_the_paths_to_2t(self, d):
        # one seed and one dt draw the same paths at every horizon, whatever
        # the block size (here 500 and 1,000 steps a block), so free times
        # at t and 2t differ path by path by the free time in (t, 2t] only
        field = ObstacleField(d, 1.0, 0.3, derive_seed(7, "env", 0))
        t, dt = 0.5, 1e-3
        short, t_eff = sample_free_times(field, 1.0, t, dt, 8, seed=11)
        long, _ = sample_free_times(field, 1.0, 2 * t, dt, 8, seed=11)
        steps = round(t / dt)
        grown = np.rint(long / dt).astype(int) - np.rint(short / dt).astype(int)
        assert ((grown >= 0) & (grown <= steps)).all()
        assert (short <= long).all() and (long <= short + t_eff + 1e-12).all()
        assert 0 < grown.sum() < grown.size * steps  # some blocked and some free steps


class TestAnnealedEstimator:
    def test_reduces_to_free_growth_without_obstacles(self):
        est = estimate_annealed_mass(1, 1e-9, 0.3, 1.0, 2.0, 1e-2, 50, 4, seed=8)
        assert est.point_estimate == pytest.approx(math.exp(est.t), rel=1e-6)

    def test_environment_averaging_fields(self):
        est = estimate_annealed_mass(1, 1.0, 0.3, 1.0, 2.0, 5e-3, 200, 6, seed=9)
        assert est.n_environments == 6
        assert est.n_paths == 200
        assert 1.0 <= est.point_estimate <= math.exp(est.t)
        assert est.std_error > 0
        assert est.log_std_error == pytest.approx(est.std_error / est.point_estimate)

    def test_slowdown_deficit_grows(self):
        # beta t - log(estimate) positive and increasing with the horizon
        deficits = []
        for t in (2.0, 4.0, 8.0):
            est = estimate_annealed_mass(1, 1.0, 0.3, 1.0, t, 2e-3, 400, 8, seed=10)
            deficits.append(1.0 * est.t - est.log_estimate)
        assert all(d > 0 for d in deficits)
        assert deficits[0] < deficits[1] < deficits[2]


class TestHigherDimension:
    def test_d2_estimator_bounds(self):
        field = ObstacleField(2, 0.5, 0.4, 33, 1.0)
        est = estimate_quenched_mass(field, 1.0, 1.0, 5e-3, 300, seed=12)
        assert 1.0 <= est.point_estimate <= math.exp(est.t)

    def test_drift_shifts_paths(self):
        # a field far to the right blocks drifted paths but not driftless ones
        field = ObstacleField.from_points([[6.0]], a=2.0, d=1)
        still, _ = sample_free_times(field, 1.0, 3.0, 1e-2, 200, seed=13, drift=0.0)
        pushed, _ = sample_free_times(field, 1.0, 3.0, 1e-2, 200, seed=13, drift=2.0)
        assert still.mean() > pushed.mean()

    @pytest.mark.parametrize("d, drift", [(1, math.inf), (1, math.nan), (2, (0.5, math.inf)), (2, (1.0, 2.0, 3.0))])
    def test_drift_must_be_finite_with_d_components(self, d, drift):
        # refused by the drift check, not by whatever a non-finite path meets later
        with pytest.raises(ValueError, match="drift"):
            sample_free_times(empty_field(d), 1.0, 0.1, 0.01, 4, seed=1, drift=drift)


class TestBranchingCrossCheck:
    def test_means_agree_on_fixed_field(self):
        # the central equivalence at reduced scale: E|Z_t| from particle
        # runs vs the path-functional estimate, one fixed environment
        field = ObstacleField(1, 0.5, 0.3, 1234, 1.0)
        mc = ModelConstants(1, 0.5, 1.0, 0.3)
        runs, t = 3000, 2.5
        sizes = np.empty(runs)
        for i in range(runs):
            cfg = SimConfig(mc=mc, t_max=t, obs_times=(t,), seed=derive_seed(9, "run", i))
            c, _ = run_bbm(cfg, field)
            sizes[i] = c.counts[-1]
        est = estimate_quenched_mass(field, 1.0, t, 1e-3, 6000, seed=11)
        combined = math.hypot(sizes.std(ddof=1) / math.sqrt(runs), est.std_error)
        assert abs(sizes.mean() - est.point_estimate) <= 3 * combined


class TestCsvExport:
    def test_format(self, tmp_path):
        est = FkEstimate(
            t=2.0,
            point_estimate=5.0,
            log_estimate=math.log(5.0),
            std_error=0.1,
            n_paths=100,
            n_environments=1,
            log_std_error=0.02,
        )
        path = tmp_path / "fk.csv"
        write_estimates_csv(path, [est], header="seed=1")
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == "t,estimate,log_estimate,se,n_paths,n_envs"
        assert lines[2].startswith("2,5,")
