"""Engine: thinning exactness, genealogy invariants, coupling, the first moment."""

import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as st

from mildbbm import branching
from mildbbm.analysis import ModelConstants
from mildbbm.branching import (
    Ball,
    ParticleCapExceeded,
    SimConfig,
    dichotomy_experiment,
    local_mass,
    population_at,
    run_bbm,
    trim_coupling,
)
from mildbbm.environment import ObstacleField, StackedTable
from mildbbm.first_moment import expected_mass_1d
from mildbbm.seeds import derive_seed


class BlockEverywhere:
    """Stand-in for an infinite-radius obstacle: every candidate rejected.

    d = 1 runs ask the bulk query, d >= 2 runs the scalar one.
    """

    def is_blocked(self, x):
        return True

    def is_blocked_many(self, xs):
        return np.ones(len(xs), dtype=bool)


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
            free_config(d=2, drift=(1.0, 2.0, 3.0))

    @pytest.mark.parametrize("drift", [math.nan, math.inf, (0.5, -math.inf), (math.nan, 0.0)])
    def test_non_finite_drift_is_refused_at_construction(self, drift):
        with pytest.raises(ValueError, match="finite"):
            free_config(d=np.size(drift), drift=drift)

    @pytest.mark.parametrize("obs, t_max", [((math.nan,), 2.0), ((0.5, math.nan, 1.5), 2.0),
                                            ((1.0, math.inf), 2.0), ((1.0,), math.inf)])
    def test_non_finite_times_are_refused(self, obs, t_max):
        mc = ModelConstants(1, 1.0, 1.0, 0.3)
        with pytest.raises(ValueError, match="finite"):
            SimConfig(mc=mc, t_max=t_max, obs_times=obs)


class TestFreeRun:
    def test_starts_with_one_particle(self):
        curve, log = run_bbm(free_config(obs=(0.0,), t_max=1.0), None)
        assert curve.counts[0] == 1
        assert curve.radial_max[0] == 0.0
        kinds = [r.kind for r in log]
        assert kinds[0] == "birth-root"

    def test_counts_non_decreasing_and_m_non_decreasing(self):
        curve, _ = run_bbm(free_config(t_max=4.0, obs=tuple(np.linspace(0.5, 4.0, 8)), seed=3), None)
        assert (np.diff(curve.counts) >= 0).all()
        assert (np.diff(curve.radial_max) >= 0).all()

    def test_population_size_is_geometric(self):
        beta, t, runs = 1.0, 1.0, 6000
        sizes = np.empty(runs, dtype=int)
        for i in range(runs):
            curve, _ = run_bbm(free_config(beta=beta, t_max=t, seed=derive_seed(1, "run", i)), None)
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
            curve, _ = run_bbm(free_config(t_max=t, seed=derive_seed(2, "run", i)), None)
            sizes[i] = curve.counts[-1]
        se = sizes.std(ddof=1) / math.sqrt(runs)
        assert abs(sizes.mean() - math.e**2) < 3 * se

    def test_strictly_dyadic_count_identity(self):
        for i in range(40):
            curve, log = run_bbm(free_config(t_max=3.0, seed=derive_seed(3, "run", i)), None)
            branches = sum(1 for r in log if r.kind == "branch")
            assert curve.counts[-1] == 1 + branches
            by_parent = {}
            for r in log:
                if r.parent_id is not None:
                    by_parent.setdefault(r.parent_id, set()).add(r.particle_id)
            assert all(len(kids) == 2 for kids in by_parent.values())

    def test_determinism(self):
        a1 = run_bbm(free_config(t_max=3.0, obs=(1.0, 3.0), seed=11), None)
        a2 = run_bbm(free_config(t_max=3.0, obs=(1.0, 3.0), seed=11), None)
        b = run_bbm(free_config(t_max=3.0, obs=(1.0, 3.0), seed=12), None)
        assert np.array_equal(a1[0].counts, a2[0].counts)
        assert a1[1].records == a2[1].records
        assert a1[1].records != b[1].records


class TestThinning:
    def test_blocked_everywhere_never_branches(self):
        cfg = free_config(t_max=6.0, obs=(2.0, 4.0, 6.0), seed=5)
        curve, log = run_bbm(cfg, BlockEverywhere())
        assert (curve.counts == 1).all()
        assert all(r.kind != "branch" for r in log)

    def test_candidate_gaps_are_exponential(self):
        beta = 0.7
        mc = ModelConstants(1, 1.0, beta, 1.0)
        cfg = SimConfig(mc=mc, t_max=1.5e4, obs_times=(1.5e4,), seed=77)
        _, log = run_bbm(cfg, BlockEverywhere())
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
        _, log = run_bbm(cfg, BlockEverywhere())
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


class BruteField(ObstacleField):
    """A Poisson field that blocks by the inclusive rule over the centres
    ``realize_box`` gives near x, without reach lists."""

    def is_blocked(self, x):
        x = tuple(float(v) for v in x)
        near = self.realize_box([v - self.a - 1.0 for v in x], [v + self.a + 1.0 for v in x])
        return any(math.dist(p, x) <= self.a for p in near.tolist())


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

    def test_d2_runs_equal_the_brute_force_blocking_rule(self):
        # every d = 2 candidate is decided from the reach lists as the
        # inclusive rule over realize_box's centres decides it: the same
        # seeds give the same curves and the same logs
        mc = ModelConstants(2, 0.5, 1.0, 0.3)
        field, brute = ObstacleField(2, 0.5, 0.3, 16), BruteField(2, 0.5, 0.3, 16)
        rejected = 0
        for i in range(20):
            cfg = SimConfig(mc=mc, t_max=4.0, obs_times=(1.0, 2.0, 4.0), seed=derive_seed(16, "run", i))
            curve, log = run_bbm(cfg, field)
            brute_curve, brute_log = run_bbm(cfg, brute)
            np.testing.assert_array_equal(curve.counts, brute_curve.counts)
            assert list(log) == list(brute_log)
            rejected += [r.kind for r in log].count("candidate-rejected")
        assert rejected > 20

    def test_free_runs_query_no_field(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ObstacleField, "is_blocked", lambda self, x: calls.append(x))
        for i in range(20):
            run_bbm(free_config(t_max=3.0, obs=(1.0, 3.0), seed=derive_seed(13, "run", i)), None)
        assert calls == []

    def test_row_blocks_do_not_change_a_run(self, monkeypatch):
        # the pruning check and the blocking queries run in blocks of rows;
        # tiny blocks must give the same run, cell for cell
        mc = ModelConstants(1, 0.5, 1.0, 0.3)
        ball = Ball("unit", (0.0,), 1.0)
        cfg = SimConfig(mc=mc, t_max=8.0, obs_times=(4.0, 6.0, 8.0), drift=1.0, seed=15, balls=(ball,))

        def run():
            field = ObstacleField(1, 0.5, 0.3, 15)
            (curve,), _, stats = branching.run_batch(cfg, [field], [cfg.seed], focus=((0.0,), 1.0), prune_tol=1e-8)
            return curve, stats, field.realized_cells

        curve, stats, cells = run()
        monkeypatch.setattr(branching, "_CHUNK", 3)
        curve_b, stats_b, cells_b = run()
        assert stats["pruned"][0] > 0 and curve.counts[-1] > 3
        np.testing.assert_array_equal(curve_b.counts, curve.counts)
        np.testing.assert_array_equal(curve_b.local_counts["unit"], curve.local_counts["unit"])
        assert stats_b["pruned"][0] == stats["pruned"][0]
        assert stats_b["leak_bound"][0] == pytest.approx(stats["leak_bound"][0], rel=1e-12)
        assert cells_b == cells


def batch_config(beta=1.0, times=(1.5, 3.0), drift=0.5, cap=1_000_000, d=1):
    mc = ModelConstants(d, 0.5, beta, 0.3)
    return SimConfig(
        mc=mc, t_max=times[-1], obs_times=times, drift=drift, particle_cap=cap,
        balls=(Ball("unit", (0.0,) * d, 1.0),),
    )


def assert_same_curve(a, b):
    assert a.times.tolist() == b.times.tolist()
    assert a.counts.tolist() == b.counts.tolist()
    assert a.radial_max.tolist() == b.radial_max.tolist()
    assert a.local_counts["unit"].tolist() == b.local_counts["unit"].tolist()


def run_of_records(log, n_runs):
    """Run index of each record of a batch log, read from the genealogy (roots are ids 0..n_runs-1)."""
    owner = {i: i for i in range(n_runs)}
    out = []
    for r in log:
        if r.particle_id not in owner:
            owner[r.particle_id] = owner[r.parent_id]
        out.append(owner[r.particle_id])
    return out


class TestBatch:
    def test_a_batched_run_equals_its_single_run(self):
        # each run of a batch draws from its own Generator, so it is the run
        # that run_bbm gives for its seed and field, whatever else the batch holds
        fields = [ObstacleField.from_points([], a=0.3, d=1), ObstacleField(1, 2.0, 0.3, 16), ObstacleField(1, 0.5, 0.3, 17)]
        config = batch_config(times=(1.0, 2.0, 3.0))
        batch_fields = fields * 20
        seeds = [derive_seed(16, "run", i) for i in range(len(batch_fields))]
        curves, _, stats = branching.run_batch(config, batch_fields, seeds)
        assert not stats["truncated"].any()
        for curve, field, seed in zip(curves, batch_fields, seeds):
            single, _ = run_bbm(replace(config, seed=seed), field)
            assert_same_curve(curve, single)
        finals = np.asarray([c.counts[-1] for c in curves]).reshape(20, 3)
        assert finals[:, 0].mean() > 2 * finals[:, 1].mean()

    def test_batched_counts_match_single_runs_in_law(self):
        # fields shared by many runs: batched final and local counts against
        # single runs with independent seeds
        field = ObstacleField(1, 0.5, 0.3, 18)
        config = batch_config()
        batched = []
        for j in range(20):
            seeds = [derive_seed(18, "batch", j, i) for i in range(64)]
            batched += branching.run_batch(config, [field] * 64, seeds)[0]
        single = [run_bbm(replace(config, seed=derive_seed(18, "single", i)), field)[0] for i in range(1280)]
        for read in (lambda c: c.counts[-1], lambda c: c.local_counts["unit"][-1]):
            assert st.ks_2samp([read(c) for c in batched], [read(c) for c in single]).pvalue > 0.01

    def test_dichotomy_mean_matches_the_deterministic_solve(self):
        # the batched experiment against E^omega Z_t(B) over its own environments
        b, beta, nu, a, seed, runs, times = 1.0, 0.8, 0.5, 0.3, 17, 300, (2.0, 4.0)
        rep = dichotomy_experiment(b, beta, nu, a, times[-1], runs, seed=seed, obs_times=times)
        solves = [
            expected_mass_1d(ObstacleField(1, nu, a, derive_seed(seed, "env", i)), beta, times,
                             drift=b, ball=(0.0, 1.0), dx=0.05)
            for i in range(runs)
        ]
        oracle = np.mean([s.value for s in solves], axis=0)
        allowed = (3.0 * np.asarray(rep["mean_local_se"]) + rep["leak_bound_total"] / runs
                   + np.mean([s.error_bound for s in solves], axis=0))
        assert rep["truncated_runs"] == 0 and rep["pruned_subtrees"] > 0
        assert np.all(np.abs(np.asarray(rep["mean_local_counts"]) - oracle) <= allowed)

    def test_each_run_queries_only_its_own_field(self):
        # every candidate that is not pruned is decided by its own run's field:
        # branch records are free and rejected records blocked under it
        fields = [ObstacleField(1, 0.5, 0.3, derive_seed(19, "env", i)) for i in range(12)]
        config = batch_config(beta=0.8, times=(2.0, 4.0, 6.0), drift=1.0)
        seeds = [derive_seed(19, "run", i) for i in range(len(fields))]
        _, log, stats = branching.run_batch(config, fields, seeds, keep_log=True, focus=((0.0,), 1.0), prune_tol=1e-6)
        assert stats["pruned"].sum() > 0
        decided = [[0, 0] for _ in fields]
        for r, run in zip(log, run_of_records(log, len(fields))):
            if r.kind in ("branch", "candidate-rejected"):
                blocked = fields[run].is_blocked(r.position)
                assert blocked == (r.kind == "candidate-rejected")
                decided[run][blocked] += 1
        assert all(free > 0 and hit > 0 for free, hit in decided)
        assert sum(map(sum, decided)) == stats["events"]
        assert sum(hit for _, hit in decided) == stats["rejected"]

    def test_d1_batches_never_ask_the_scalar_query(self, monkeypatch):
        def refuse(self, x):
            raise AssertionError("scalar is_blocked asked in d = 1")

        fields = [ObstacleField(1, 0.5, 0.3, derive_seed(26, "env", i)) for i in range(4)]
        config = batch_config()
        seeds = [derive_seed(26, "run", i) for i in range(4)]
        expected = [branching.run_batch(config, [f], [s])[0][0] for f, s in zip(fields, seeds)]
        monkeypatch.setattr(ObstacleField, "is_blocked", refuse)
        distinct, _, stats = branching.run_batch(config, fields, seeds)
        shared, _, shared_stats = branching.run_batch(config, [fields[0]] * 4, seeds)
        assert stats["events"] > stats["rejected"] > 0 and shared_stats["rejected"] > 0
        for a, b in zip(distinct, expected):
            assert_same_curve(a, b)
        rep = dichotomy_experiment(1.0, 0.8, 0.5, 0.3, 4.0, 6, seed=26)
        assert rep["events"] > rep["rejected"] > 0
        _, log = run_bbm(free_config(t_max=3.0, obs=(1.5, 3.0), seed=26), None)
        trim_coupling(log, fields[0], seed=26)

    def test_table_lookups_run_in_row_blocks(self, monkeypatch):
        # with tiny blocks every table lookup holds at most _CHUNK candidates,
        # and the runs do not change
        fields = [ObstacleField(1, 0.5, 0.3, derive_seed(27, "env", i)) for i in range(8)]
        config = batch_config(beta=0.8, times=(2.0, 4.0), drift=1.0)
        seeds = [derive_seed(27, "run", i) for i in range(8)]
        wide = [branching.run_batch(config, f, seeds)[0] for f in (fields, [fields[0]] * 8)]
        sizes = []
        ask, many = StackedTable.is_blocked, ObstacleField.is_blocked_many
        monkeypatch.setattr(StackedTable, "is_blocked", lambda self, xs, rows=None: sizes.append(len(xs)) or ask(self, xs, rows))
        monkeypatch.setattr(ObstacleField, "is_blocked_many", lambda self, xs: sizes.append(len(xs)) or many(self, xs))
        monkeypatch.setattr(branching, "_CHUNK", 5)
        narrow = [branching.run_batch(config, f, seeds)[0] for f in (fields, [fields[0]] * 8)]
        assert max(sizes) == 5 and len(sizes) > 20
        for a, b in zip(sum(wide, []), sum(narrow, [])):
            assert_same_curve(a, b)

    def test_table_builds_counted_for_distinct_fields_only(self):
        fields = [ObstacleField(1, 0.5, 0.3, derive_seed(28, "env", i)) for i in range(5)]
        config = batch_config(times=(2.0, 6.0), drift=1.0)
        seeds = [derive_seed(28, "run", i) for i in range(5)]
        builds = [branching.run_batch(config, f, seeds)[2]["table_builds"] for f in (fields, fields[:1] * 5)]
        assert builds[0] >= 2 and builds[1] == 0
        a, b = (dichotomy_experiment(1.0, 0.8, 0.5, 0.3, 6.0, 5, seed=28) for _ in range(2))
        assert a["table_builds"] == b["table_builds"] >= 1

    def test_truncating_a_run_leaves_the_others_unchanged(self):
        config = batch_config(times=(1.0, 2.0, 3.0))
        seeds = [derive_seed(20, "run", i) for i in range(40)]
        free, _, _ = branching.run_batch(config, [None] * 40, seeds)
        cap = int(np.median([c.counts[-1] for c in free]))
        curves, _, stats = branching.run_batch(replace(config, particle_cap=cap), [None] * 40, seeds)
        assert 0 < stats["truncated"].sum() < 40
        for c, f, cut in zip(curves, free, stats["truncated"]):
            if cut:
                assert len(c.times) < 3
                assert c.counts.tolist() == f.counts[: len(c.times)].tolist()
            else:
                assert_same_curve(c, f)

    def test_free_and_obstacle_runs_do_not_mix(self):
        # a None field asks for the free process, so a batch is all free or all among obstacles
        field = ObstacleField(1, 0.5, 0.3, 22)
        for fields in ([None, field], [field, None]):
            with pytest.raises(ValueError):
                branching.run_batch(batch_config(), fields, [1, 2])

    def test_runs_on_distinct_fields_need_no_operator_call(self, monkeypatch):
        # operator.call is new in Python 3.11, and the package supports 3.10
        monkeypatch.delattr(operator, "call", raising=False)
        fields = [ObstacleField(1, 0.5, 0.3, derive_seed(23, "env", i)) for i in range(3)]
        seeds = [derive_seed(23, "run", i) for i in range(3)]
        config = batch_config()
        curves, _, _ = branching.run_batch(config, fields, seeds)
        for curve, field, seed in zip(curves, fields, seeds):
            assert_same_curve(curve, run_bbm(replace(config, seed=seed), field)[0])

    def test_a_run_held_alone_reaches_limit_only_past_the_cap(self, monkeypatch):
        # the row budget only sets runs aside, so it has no work while one run is held
        calls, limit = [], branching._Batch.limit
        monkeypatch.setattr(branching, "_ROW_BUDGET", 40)
        monkeypatch.setattr(branching._Batch, "limit", lambda self, *args: calls.append(1) or limit(self, *args))
        curve, _ = run_bbm(free_config(t_max=5.0, obs=(2.5, 5.0), seed=25), None)
        assert curve.counts[-1] > 40 and not calls
        with pytest.raises(ParticleCapExceeded):
            run_bbm(free_config(t_max=5.0, obs=(2.5, 5.0), seed=25, cap=60), None)
        assert calls

    def test_row_budget_bounds_held_rows_and_keeps_results(self, monkeypatch):
        budget, levels, held = 40, [], []
        advance, step = branching._Batch.advance, branching._Batch.round

        def tracked_advance(self, rows, owned, k):
            levels.append(rows)
            try:
                return advance(self, rows, owned, k)
            finally:
                levels.pop()

        def tracked_round(self, rows, future, safe):
            held.append([r["run"].tolist() for r in levels])
            return step(self, rows, future, safe)

        field = ObstacleField(1, 0.5, 0.3, 21)
        config = batch_config(times=(1.0, 2.0, 4.0), drift=0.0)
        seeds = [derive_seed(21, "run", i) for i in range(16)]
        focus = dict(focus=((0.0,), 1.0), prune_tol=1e-3)
        wide, _, wide_stats = branching.run_batch(config, [field] * 16, seeds, **focus)
        monkeypatch.setattr(branching, "_ROW_BUDGET", budget)
        monkeypatch.setattr(branching._Batch, "advance", tracked_advance)
        monkeypatch.setattr(branching._Batch, "round", tracked_round)
        narrow, _, narrow_stats = branching.run_batch(config, [field] * 16, seeds, **focus)
        assert sum(len(runs) == 2 for runs in held) > 0  # some runs were finished alone
        assert max(c.counts.max() for c in narrow) > budget
        for *outer, inner in held:
            # at the start of a round, the batch outside the run being finished
            # stays within a round's growth of the budget and no longer holds
            # that run's rows
            assert sum(len(r) for r in outer) <= 2 * budget
            assert len(inner) <= budget or len(set(inner)) == 1
            assert not set(inner) & {i for r in outer for i in r}
        for a, b in zip(wide, narrow):
            assert_same_curve(a, b)
        assert narrow_stats["pruned"].tolist() == wide_stats["pruned"].tolist() and wide_stats["pruned"].sum() > 0
        assert narrow_stats["leak_bound"] == pytest.approx(wide_stats["leak_bound"], rel=1e-12)

    def test_limit_sets_heavy_runs_aside_in_one_drop(self, monkeypatch):
        # the runs the budget needs out leave the batch in one pass, heaviest
        # first (ties to the lower index), each with its rows in order
        n, budget = 8, 20
        config = batch_config(times=(4.0,), drift=0.0)
        batch = branching._Batch(config, [None] * n, [derive_seed(29, "run", i) for i in range(n)], False, None, 0.0)
        rows = batch.start()
        while len(rows["run"]) < 3 * budget and batch.round(rows, np.asarray([4.0]), 0.0):
            pass
        before = {key: c.copy() for key, c in rows.items()}
        size = np.bincount(rows["run"], minlength=n)
        drops, aside = [], []
        drop = branching._drop
        monkeypatch.setattr(branching, "_drop", lambda rows, gone: drops.append(len(gone)) or drop(rows, gone))
        monkeypatch.setattr(branching, "_ROW_BUDGET", budget)
        monkeypatch.setattr(batch, "advance", lambda alone, owned, k: aside.append((owned.tolist(), alone)))
        owned = batch.limit(rows, slice(None), 0)
        heavy = np.argsort(-size, kind="stable")[: len(aside)].tolist()
        assert len(aside) >= 2 and drops == [size[heavy].sum()]
        assert [runs for runs, _ in aside] == [[r] for r in heavy]
        for (run,), alone in aside:
            for key, c in alone.items():
                assert c.tolist() == before[key][before["run"] == run].tolist()
        assert len(rows["run"]) <= budget < len(rows["run"]) + size[heavy[-1]]
        assert owned.tolist() == sorted(set(range(n)) - set(heavy))


class TestPerRunStreams:
    """The stream contract of ``_Batch.draws`` at unit level: whatever rows a
    call holds, each run's draws are those of its own Generator drawn alone,
    in row order, the rows of the first run array (stepped) before those of
    the second (born)."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_steps_are_standard_normal_vectors(self, d):
        batch = branching._Batch(batch_config(d=d), [None], [5], False, None, 0.0)
        for m in (0, 1, 7):
            got = batch.steps(np.random.default_rng(41), m)
            assert got.shape == (m, d)
            assert np.array_equal(got, np.random.default_rng(41).standard_normal((m, d)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_run_draws_from_its_own_generator_in_row_order(self, d):
        n = 5
        seeds = [derive_seed(37, "run", i) for i in range(n)]
        batch = branching._Batch(batch_config(d=d), [None] * n, seeds, False, None, 0.0)
        alone = [np.random.default_rng(seed) for seed in seeds]
        draw_alone = {
            "gaps": lambda gen, m: gen.exponential(batch.mean_gap, m),
            "steps": lambda gen, m: gen.standard_normal((m, d)),
        }
        calls = [
            [np.zeros(0, dtype=np.int64)],  # no rows
            [np.array([3, 3, 3])],  # rows of one run only
            [np.array([4, 0, 2, 0, 4, 4, 1])],  # several runs, out of order
            [np.array([2, 0, 2, 3]), np.array([0, 2])],  # [run, born_run]
            [np.array([1]), np.zeros(0, dtype=np.int64)],
        ]
        for runs in calls:
            for name in ("gaps", "steps"):
                got = batch.draws(runs, getattr(batch, name))
                run = np.concatenate(runs)
                want = np.empty((len(run),) + (() if name == "gaps" else (d,)))
                for r in range(n):
                    want[run == r] = draw_alone[name](alone[r], int((run == r).sum()))
                assert np.array_equal(got, want)


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
        curve, log = run_bbm(cfg, None)
        assert local_mass(log, 2.0, (0.0,), 1e9) == curve.counts[-1]
        assert population_at(log, 1.0) == curve.counts[0]

    def test_zero_radius_empty(self):
        _, log = run_bbm(free_config(t_max=1.0, seed=22), None)
        assert local_mass(log, 1.0, (0.0,), 0.0) == 0

    def test_unobserved_time_rejected(self):
        _, log = run_bbm(free_config(t_max=1.0, seed=23), None)
        with pytest.raises(ValueError):
            local_mass(log, 0.5, (0.0,), 1.0)

    def test_matches_configured_ball_counts(self):
        ball = Ball("unit", (0.0,), 1.0)
        cfg = free_config(t_max=3.0, obs=(1.5, 3.0), seed=24, balls=(ball,))
        curve, log = run_bbm(cfg, None)
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
            curve, _ = run_bbm(cfg, None)
            count = max(int(curve.local_counts["unit"][0]), 1)
            vals.append(math.log(count) / t)
        med = float(np.median(vals))
        assert beta - 0.35 <= med <= beta


class TestParticleCap:
    def test_truncation_carries_partial_results(self):
        cfg = free_config(beta=2.0, t_max=6.0, obs=(1.0, 2.0, 6.0), seed=25, cap=32)
        with pytest.raises(ParticleCapExceeded) as exc:
            run_bbm(cfg, None)
        partial = exc.value.growth_curve
        assert len(partial.times) < 3
        assert exc.value.genealogy.records


class TestTrimCoupling:
    def test_empty_field_identity(self):
        field = ObstacleField.from_points([], a=0.3, d=1)
        cfg = free_config(t_max=3.0, obs=(1.0, 3.0), seed=31)
        _, log = run_bbm(cfg, None)
        trimmed = trim_coupling(log, field, seed=1)
        assert trimmed.records == log.records

    def test_blocking_everywhere_single_lineage(self):
        field = ObstacleField.from_points([[0.0]], a=1e12)
        cfg = free_config(t_max=3.0, obs=(1.0, 3.0), seed=32)
        _, log = run_bbm(cfg, None)
        trimmed = trim_coupling(log, field, seed=2)
        assert population_at(trimmed, 3.0) == 1

    def test_pathwise_domination(self):
        field = ObstacleField(1, 0.5, 0.3, 4321, 1.0)
        obs = (1.0, 2.0, 3.0)
        for i in range(150):
            cfg = free_config(t_max=3.0, obs=obs, seed=derive_seed(4, "run", i))
            curve, log = run_bbm(cfg, None)
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
            _, logf = run_bbm(cfg2, None)
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
        rep = dichotomy_experiment(1.0, 0.3, 0.5, 0.3, 6.0, 5, seed=63)
        json.dumps(rep)


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 5, 6, 101])
    def test_equals_numpy_median(self, n):
        rng = np.random.default_rng(n)
        counts = rng.integers(0, 50, size=(n, 4))  # ties included
        assert np.array_equal(branching._median(counts), np.median(counts, axis=0))
        radii = rng.exponential(size=n)
        assert branching._median(radii) == np.median(radii)

    def test_no_values_give_nan(self):
        assert math.isnan(branching._median(np.empty(0)))
        assert np.isnan(branching._median(np.empty((0, 3)))).all()

    def test_campaigns_do_not_import_numpy_ma(self, tmp_path):
        # np.median's masked-array check imports numpy.ma; the campaigns take medians without it
        code = f"""
import sys
from mildbbm.branching import dichotomy_experiment
from mildbbm.cli import main
dichotomy_experiment(1.0, 0.8, 0.5, 0.3, 2.0, 5, seed=1, prune_tol=1e-8)
assert main(["growth-curve", "--d", "1", "--t-max", "2", "--replicates", "4", "--out", {str(tmp_path / "g")!r}]) == 0
assert main(["clearing-stats", "--d", "1", "--ell", "50", "--n-seeds", "3", "--out", {str(tmp_path / "c")!r}]) == 0
print("numpy.ma" in sys.modules)
"""
        src = str(Path(branching.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestExports:
    def test_growth_curve_csv_header(self, tmp_path):
        ball = Ball("origin_unit", (0.0,), 1.0)
        cfg = free_config(t_max=2.0, obs=(1.0, 2.0), seed=71, balls=(ball,))
        curve, log = run_bbm(cfg, None)
        path = tmp_path / "curve.csv"
        curve.to_csv(path, header="seed=71")
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=71"
        assert lines[1] == "t,count,local_origin_unit,M,r_t"
        assert len(lines) == 4

    def test_growth_curve_csv_rows(self, tmp_path):
        # one particle at the origin at t = 0: count 1, local 1, M 0 and no rate
        ball = Ball("origin_unit", (0.0,), 1.0)
        curve, _ = run_bbm(free_config(t_max=1.0, obs=(0.0, 1.0), seed=71, balls=(ball,)), None)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["t,count,local_origin_unit,M,r_t", "0,1,1,0,nan"]
        t, count, local, radial, rate = lines[2].split(",")
        assert (t, count, local) == ("1", str(curve.counts[1]), str(curve.local_counts["origin_unit"][1]))
        assert radial == f"{curve.radial_max[1]:.12g}" and rate == f"{curve.rates[1]:.12g}"

    def test_genealogy_jsonl(self, tmp_path):
        _, log = run_bbm(free_config(t_max=1.0, seed=72), None)
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert recs[0]["kind"] == "birth-root"
        assert set(recs[0]) == {"event_time", "particle_id", "kind", "position", "parent_id"}


def synthetic_log(n, d=2, seed=0):
    """A log of n records with random times, kinds, positions and parents."""
    rng = np.random.default_rng(seed)
    log = branching.GenealogyLog()
    ids = np.arange(n, dtype=np.int64)
    parents = np.where(rng.random(n) < 0.5, ids - 1, -1)
    log._add(rng.random(n) * 10, ids, rng.integers(0, 4, n).astype(np.int8), rng.normal(size=(n, d)), parents)
    return log


def whole_log_records(log):
    """Every record of a log, from its columns converted all at once."""
    time, ids, kind, pos, parents = (c.tolist() for c in log._columns())
    return [
        branching.LogRecord(t, i, branching._KINDS[k], tuple(x), None if par < 0 else par)
        for t, i, k, x, par in zip(time, ids, kind, pos, parents)
    ]


class TestLogReading:
    """A log is read one block of ``_BLOCK`` records at a time."""

    def test_many_blocks(self):
        field = ObstacleField(2, 0.5, 0.3, 5)
        _, log = run_bbm(free_config(t_max=8.0, obs=(4.0, 8.0), seed=7, d=2), field)
        assert len(log) > 3 * branching._BLOCK
        assert {r.kind for r in log} == set(branching._KINDS)
        assert list(log) == log.records == whole_log_records(log)

    @pytest.mark.parametrize("n", [0, 1, branching._BLOCK - 1, branching._BLOCK, branching._BLOCK + 1])
    def test_block_edges(self, n):
        log = synthetic_log(n)
        assert len(list(log)) == n
        assert list(log) == whole_log_records(log)

    def test_jsonl_matches_asdict(self, tmp_path):
        _, log = run_bbm(free_config(t_max=8.0, obs=(4.0, 8.0), seed=6, d=2), ObstacleField(2, 0.5, 0.3, 5))
        assert len(log) > branching._BLOCK
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path, header="seed=6")
        reference = "# seed=6\n" + "".join(json.dumps(asdict(r)) + "\n" for r in whole_log_records(log))
        assert path.read_text() == reference

    def test_iteration_memory_is_one_block(self):
        # the whole log as Python objects takes about 7 MB; one block about 0.25 MB
        log = synthetic_log(30_000)
        next(iter(log))  # sorts the columns before the trace starts
        tracemalloc.start()
        try:
            assert sum(1 for _ in log) == 30_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
