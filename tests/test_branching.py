"""Engine: thinning exactness, genealogy invariants, coupling, the first moment."""

import math

import numpy as np
import pytest
from scipy import stats as st

from mildbbm import branching
from mildbbm.analysis import ModelConstants
from mildbbm.branching import (
    Ball,
    ParticleCapExceeded,
    SimConfig,
    _simulate,
    dichotomy_experiment,
    local_mass,
    population_at,
    run_bbm,
    run_free_bbm,
    trim_coupling,
)
from mildbbm.environment import ObstacleField
from mildbbm.first_moment import expected_mass_1d
from mildbbm.seeds import derive_seed


class BlockEverywhere:
    """Stand-in for an infinite-radius obstacle: every candidate rejected."""

    def is_blocked(self, x):
        return True


def free_config(beta=1.0, t_max=2.0, obs=None, seed=0, d=1, drift=0.0, cap=1_000_000, balls=()):
    mc = ModelConstants(d, 1.0, beta, 0.3)
    return SimConfig(
        mc=mc,
        t_max=t_max,
        obs_times=obs if obs is not None else (t_max,),
        drift=drift,
        particle_cap=cap,
        seed=seed,
        balls=balls,
    )


class TestConfigValidation:
    def test_obs_must_be_sorted_and_in_range(self):
        mc = ModelConstants(1, 1.0, 1.0, 0.3)
        with pytest.raises(ValueError):
            SimConfig(mc=mc, t_max=2.0, obs_times=(2.0, 1.0))
        with pytest.raises(ValueError):
            SimConfig(mc=mc, t_max=2.0, obs_times=(1.0, 3.0))
        with pytest.raises(ValueError):
            SimConfig(mc=mc, t_max=2.0, obs_times=())

    def test_drift_vector_normalisation(self):
        cfg = free_config(d=2, drift=0.5)
        assert cfg.drift_vector == (0.5, 0.0)
        cfg = free_config(d=2, drift=(0.1, -0.2))
        assert cfg.drift_vector == (0.1, -0.2)
        with pytest.raises(ValueError):
            free_config(d=2, drift=(1.0, 2.0, 3.0)).drift_vector


class TestFreeRun:
    def test_starts_with_one_particle(self):
        curve, log = run_free_bbm(free_config(obs=(0.0,), t_max=1.0))
        assert curve.counts[0] == 1
        assert curve.radial_max[0] == 0.0
        kinds = [r.kind for r in log]
        assert kinds[0] == "birth-root"

    def test_counts_non_decreasing_and_m_non_decreasing(self):
        curve, _ = run_free_bbm(free_config(t_max=4.0, obs=tuple(np.linspace(0.5, 4.0, 8)), seed=3))
        assert (np.diff(curve.counts) >= 0).all()
        assert (np.diff(curve.radial_max) >= 0).all()

    def test_population_size_is_geometric(self):
        beta, t, runs = 1.0, 1.0, 6000
        sizes = np.empty(runs, dtype=int)
        for i in range(runs):
            curve, _ = run_free_bbm(free_config(beta=beta, t_max=t, seed=derive_seed(1, "run", i)))
            sizes[i] = curve.counts[-1]
        p = math.exp(-beta * t)
        kmax = 11
        obs = np.bincount(np.minimum(sizes, kmax + 1), minlength=kmax + 2)[1:]
        pmf = np.asarray([p * (1 - p) ** (k - 1) for k in range(1, kmax + 1)] + [(1 - p) ** kmax])
        res = st.chisquare(obs, pmf * runs)
        assert res.pvalue > 0.01

    def test_mean_matches_exponential_growth(self):
        t, runs = 2.0, 5000
        sizes = np.empty(runs)
        for i in range(runs):
            curve, _ = run_free_bbm(free_config(t_max=t, seed=derive_seed(2, "run", i)))
            sizes[i] = curve.counts[-1]
        se = sizes.std(ddof=1) / math.sqrt(runs)
        assert abs(sizes.mean() - math.e**2) < 3 * se

    def test_strictly_dyadic_count_identity(self):
        for i in range(40):
            curve, log = run_free_bbm(free_config(t_max=3.0, seed=derive_seed(3, "run", i)))
            branches = sum(1 for r in log if r.kind == "branch")
            assert curve.counts[-1] == 1 + branches
            by_parent = {}
            for r in log:
                if r.parent_id is not None:
                    by_parent.setdefault(r.parent_id, set()).add(r.particle_id)
            assert all(len(kids) == 2 for kids in by_parent.values())

    def test_determinism(self):
        a1 = run_free_bbm(free_config(t_max=3.0, obs=(1.0, 3.0), seed=11))
        a2 = run_free_bbm(free_config(t_max=3.0, obs=(1.0, 3.0), seed=11))
        b = run_free_bbm(free_config(t_max=3.0, obs=(1.0, 3.0), seed=12))
        assert np.array_equal(a1[0].counts, a2[0].counts)
        assert a1[1].records == a2[1].records
        assert a1[1].records != b[1].records


class TestThinning:
    def test_blocked_everywhere_never_branches(self):
        cfg = free_config(t_max=6.0, obs=(2.0, 4.0, 6.0), seed=5)
        curve, log, _ = _simulate(cfg, field=BlockEverywhere())
        assert (curve.counts == 1).all()
        assert all(r.kind != "branch" for r in log)

    def test_candidate_gaps_are_exponential(self):
        beta = 0.7
        mc = ModelConstants(1, 1.0, beta, 1.0)
        cfg = SimConfig(mc=mc, t_max=1.5e4, obs_times=(1.5e4,), seed=77)
        _, log, _ = _simulate(cfg, field=BlockEverywhere())
        times = [r.event_time for r in log if r.kind == "candidate-rejected"]
        gaps = np.diff([0.0] + times)
        assert len(gaps) > 9000
        res = st.kstest(gaps, "expon", args=(0, 1 / beta))
        assert res.pvalue > 0.01

    def test_increment_moments_with_drift(self):
        # single blocked particle observed on a fine grid, d=2
        drift = (0.25, -0.5)
        obs = tuple(np.arange(0.5, 1000.5, 0.5))
        mc = ModelConstants(2, 1.0, 0.4, 1.0)
        cfg = SimConfig(mc=mc, t_max=1000.0, obs_times=obs, drift=drift, seed=42)
        _, log, _ = _simulate(cfg, field=BlockEverywhere())
        pos = np.asarray([r.position for r in log if r.kind == "observed"])
        inc = np.diff(pos, axis=0)
        n = len(inc)
        # increments are N(drift*dt, dt) per coordinate, dt = 0.5
        for q, b in enumerate(drift):
            z_mean = (inc[:, q].mean() - b * 0.5) / math.sqrt(0.5 / n)
            assert abs(z_mean) < 4.0
            var_ratio = inc[:, q].var(ddof=1) / 0.5
            assert abs(var_ratio - 1.0) < 5 * math.sqrt(2.0 / n)

    def test_blocked_positions_never_branch(self):
        field = ObstacleField(1, 0.8, 0.3, 17, 1.0)
        mc = ModelConstants(1, 0.8, 1.0, 0.3)
        cfg = SimConfig(mc=mc, t_max=4.0, obs_times=(4.0,), seed=9)
        _, log = run_bbm(cfg, field)
        for r in log:
            if r.kind == "branch":
                assert not field.is_blocked(r.position)
            if r.kind == "candidate-rejected":
                assert field.is_blocked(r.position)


class CountingField:
    """A field that counts blocking queries and the cells each one realised."""

    def __init__(self, field):
        self.field = field
        self.calls = 0
        self.realised = set()

    def is_blocked(self, x):
        self.calls += 1
        before = set(self.field.realized_cells)
        answer = self.field.is_blocked(x)
        self.realised |= set(self.field.realized_cells) - before
        return answer


class TestEngineContract:
    def test_one_query_per_candidate_and_time_ordered_log(self):
        field = CountingField(ObstacleField(2, 0.5, 0.3, 11))
        mc = ModelConstants(2, 0.5, 1.0, 0.3)
        for i in range(20):
            cfg = SimConfig(mc=mc, t_max=4.0, obs_times=(1.0, 2.0, 4.0), seed=derive_seed(12, "run", i))
            before = field.calls
            _, log = run_bbm(cfg, field)
            kinds = [r.kind for r in log]
            assert field.calls - before == kinds.count("branch") + kinds.count("candidate-rejected")
            times = [r.event_time for r in log]
            assert times == sorted(times)
        assert field.calls > 0 and field.realised
        assert field.realised == set(field.field.realized_cells)

    def test_free_runs_query_no_field(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ObstacleField, "is_blocked", lambda self, x: calls.append(x))
        for i in range(20):
            run_free_bbm(free_config(t_max=3.0, obs=(1.0, 3.0), seed=derive_seed(13, "run", i)))
        assert calls == []

    def test_row_blocks_do_not_change_a_run(self, monkeypatch):
        # the pruning check and the blocking queries run in blocks of rows;
        # tiny blocks must give the same run, cell for cell
        mc = ModelConstants(1, 0.5, 1.0, 0.3)
        ball = Ball("unit", (0.0,), 1.0)
        cfg = SimConfig(mc=mc, t_max=8.0, obs_times=(4.0, 6.0, 8.0), drift=1.0, seed=15, balls=(ball,))

        def run():
            field = ObstacleField(1, 0.5, 0.3, 15)
            curve, _, stats = _simulate(cfg, field=field, keep_log=False, focus=((0.0,), 1.0), prune_tol=1e-8)
            return curve, stats, field.realized_cells

        curve, stats, cells = run()
        monkeypatch.setattr(branching, "_CHUNK", 3)
        curve_b, stats_b, cells_b = run()
        assert stats["pruned"] > 0 and curve.counts[-1] > 3
        np.testing.assert_array_equal(curve_b.counts, curve.counts)
        np.testing.assert_array_equal(curve_b.local_counts["unit"], curve.local_counts["unit"])
        assert stats_b["pruned"] == stats["pruned"]
        assert stats_b["leak_bound"] == pytest.approx(stats["leak_bound"], rel=1e-12)
        assert cells_b == cells


class TestFirstMoment:
    def test_mean_population_matches_the_deterministic_solve(self):
        # one fixed d = 1 field: E^omega|Z_t| and E^omega Z_t(B(0, 1)) from
        # the Crank-Nicolson solve against the mean over independent runs
        beta, b, times, runs = 1.0, 0.5, (1.5, 3.0), 4000
        field = ObstacleField(1, 0.5, 0.3, 14)
        mc = ModelConstants(1, 0.5, beta, 0.3)
        ball = Ball("unit", (0.0,), 1.0)
        total = np.empty((runs, len(times)))
        local = np.empty((runs, len(times)))
        for i in range(runs):
            cfg = SimConfig(
                mc=mc, t_max=times[-1], obs_times=times, drift=b, seed=derive_seed(14, "run", i), balls=(ball,)
            )
            curve, _ = run_bbm(cfg, field)
            total[i], local[i] = curve.counts, curve.local_counts["unit"]
        for sample, solve in (
            (total, expected_mass_1d(field, beta, times, drift=b)),
            (local, expected_mass_1d(field, beta, times, drift=b, ball=(0.0, 1.0))),
        ):
            se = sample.std(axis=0, ddof=1) / math.sqrt(runs)
            assert np.all(np.abs(sample.mean(axis=0) - solve.value) <= 3.0 * se + solve.error_bound)


class TestLocalMass:
    def test_huge_radius_equals_population(self):
        cfg = free_config(t_max=2.0, obs=(1.0, 2.0), seed=21)
        curve, log = run_free_bbm(cfg)
        assert local_mass(log, 2.0, (0.0,), 1e9) == curve.counts[-1]
        assert population_at(log, 1.0) == curve.counts[0]

    def test_zero_radius_empty(self):
        _, log = run_free_bbm(free_config(t_max=1.0, seed=22))
        assert local_mass(log, 1.0, (0.0,), 0.0) == 0

    def test_unobserved_time_rejected(self):
        _, log = run_free_bbm(free_config(t_max=1.0, seed=23))
        with pytest.raises(ValueError):
            local_mass(log, 0.5, (0.0,), 1.0)

    def test_matches_configured_ball_counts(self):
        ball = Ball("unit", (0.0,), 1.0)
        cfg = free_config(t_max=3.0, obs=(1.5, 3.0), seed=24, balls=(ball,))
        curve, log = run_free_bbm(cfg)
        for k, t in enumerate((1.5, 3.0)):
            assert curve.local_counts["unit"][k] == local_mass(log, t, (0.0,), 1.0)

    def test_local_growth_exponent_approaches_beta(self):
        # free run, unit ball at the origin: log Z_t(B)/t creeps up to beta
        # (soft desk-scale gate; the local prefactor still bites at t=8)
        beta, t, runs = 1.0, 8.0, 100
        ball = Ball("unit", (0.0,), 1.0)
        vals = []
        for i in range(runs):
            cfg = free_config(
                beta=beta, t_max=t, obs=(t,), seed=derive_seed(26, "run", i), balls=(ball,)
            )
            curve, _ = run_free_bbm(cfg)
            count = max(int(curve.local_counts["unit"][0]), 1)
            vals.append(math.log(count) / t)
        med = float(np.median(vals))
        assert beta - 0.35 <= med <= beta


class TestParticleCap:
    def test_truncation_carries_partial_results(self):
        cfg = free_config(beta=2.0, t_max=6.0, obs=(1.0, 2.0, 6.0), seed=25, cap=32)
        with pytest.raises(ParticleCapExceeded) as exc:
            run_free_bbm(cfg)
        partial = exc.value.growth_curve
        assert len(partial.times) < 3
        assert exc.value.genealogy.records


class TestTrimCoupling:
    def test_empty_field_identity(self):
        field = ObstacleField.from_points([], a=0.3, d=1)
        cfg = free_config(t_max=3.0, obs=(1.0, 3.0), seed=31)
        _, log = run_free_bbm(cfg)
        trimmed = trim_coupling(log, field, seed=1)
        assert trimmed.records == log.records

    def test_blocking_everywhere_single_lineage(self):
        field = ObstacleField.from_points([[0.0]], a=1e12)
        cfg = free_config(t_max=3.0, obs=(1.0, 3.0), seed=32)
        _, log = run_free_bbm(cfg)
        trimmed = trim_coupling(log, field, seed=2)
        assert population_at(trimmed, 3.0) == 1

    def test_pathwise_domination(self):
        field = ObstacleField(1, 0.5, 0.3, 4321, 1.0)
        obs = (1.0, 2.0, 3.0)
        for i in range(150):
            cfg = free_config(t_max=3.0, obs=obs, seed=derive_seed(4, "run", i))
            curve, log = run_free_bbm(cfg)
            trimmed = trim_coupling(log, field, seed=derive_seed(5, "trim", i))
            for k, t in enumerate(obs):
                assert population_at(trimmed, t) <= curve.counts[k]

    def test_trimmed_law_matches_direct_runs(self):
        field = ObstacleField(1, 0.5, 0.3, 1234, 1.0)
        mc = ModelConstants(1, 0.5, 1.0, 0.3)
        n = 3000
        direct = np.empty(n)
        trimmed = np.empty(n)
        for i in range(n):
            cfg = SimConfig(mc=mc, t_max=3.0, obs_times=(3.0,), seed=derive_seed(6, "run", i))
            c, _ = run_bbm(cfg, field)
            direct[i] = c.counts[-1]
            cfg2 = SimConfig(mc=mc, t_max=3.0, obs_times=(3.0,), seed=derive_seed(7, "run", i))
            _, logf = run_free_bbm(cfg2)
            trimmed[i] = population_at(trim_coupling(logf, field, seed=derive_seed(8, "t", i)), 3.0)
        res = st.ks_2samp(direct, trimmed)
        assert res.pvalue > 0.01


class TestDichotomyExperiment:
    def test_subcritical_drift_extinct(self):
        rep = dichotomy_experiment(1.0, 0.3, 0.5, 0.3, 12.0, 40, seed=61, prune_tol=1e-8)
        assert rep["predicted_regime"] == "extinct-like"
        assert rep["survival_fraction"] <= 0.2
        assert rep["lambda_c"] == -0.5
        assert rep["leak_bound_total"] < 1e-3

    def test_zero_drift_grows_locally(self):
        # with no drift the crossover degenerates: any beta > 0 grows
        rep = dichotomy_experiment(0.0, 1.0, 0.3, 0.2, 8.0, 30, seed=62, prune_tol=1e-10)
        assert rep["predicted_regime"] == "growing"
        assert rep["survival_fraction"] > 0.5
        assert rep["slope"] is not None and rep["slope"] > 0.3

    def test_report_is_json_ready(self):
        import json

        rep = dichotomy_experiment(1.0, 0.3, 0.5, 0.3, 6.0, 5, seed=63)
        json.dumps(rep)


class TestExports:
    def test_growth_curve_csv_header(self, tmp_path):
        ball = Ball("origin_unit", (0.0,), 1.0)
        cfg = free_config(t_max=2.0, obs=(1.0, 2.0), seed=71, balls=(ball,))
        curve, log = run_free_bbm(cfg)
        path = tmp_path / "curve.csv"
        curve.to_csv(path, header="seed=71")
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=71"
        assert lines[1] == "t,count,local_origin_unit,M,r_t"
        assert len(lines) == 4

    def test_genealogy_jsonl(self, tmp_path):
        import json

        _, log = run_free_bbm(free_config(t_max=1.0, seed=72))
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert recs[0]["kind"] == "birth-root"
        assert set(recs[0]) == {"event_time", "particle_id", "kind", "position", "parent_id"}
