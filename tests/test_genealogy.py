"""Pure-birth laws: closed forms against series/quadrature/Monte Carlo oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy import stats as st

from mildbbm.environment import write_table
from mildbbm.genealogy import (
    MrcaLaw,
    YuleTree,
    martingale_limit_samples,
    mrca_cdf,
    mrca_density,
    pre_coalescence_size_pmf,
    sample_pair_mrca,
    simulate_yule_tree,
    yule_count_pmf,
)


def density_series(u, t, imax=4000):
    """Pre-summation series form of the coalescence-time density (rate 1)."""
    tot = 0.0
    for i in range(2, imax):
        tot += (
            math.exp(-u)
            * 2.0
            * (2.0 * math.exp(-(t - u)) + i - 1)
            * (1.0 - math.exp(-u)) ** (i - 2)
            / ((1.0 - math.exp(-t)) * i * (i + 1))
        )
    return tot


class TestMrcaClosedForms:
    def test_cdf_reaches_one_at_horizon(self):
        for t in (1.0, 3.0, 10.0):
            assert mrca_cdf(MrcaLaw(t=t), t) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        assert mrca_cdf(MrcaLaw(t=3.0), 1.5) == pytest.approx(0.5628448990309481, rel=1e-12)

    @pytest.mark.parametrize("t", [1.0, 3.0, 10.0])
    def test_density_matches_series_form(self, t):
        # the series oracle needs ~e^u terms, so compare where it converges
        law = MrcaLaw(t=t)
        for u in np.linspace(0.05, min(t * 0.99, 5.0), 17):
            assert mrca_density(law, u) == pytest.approx(density_series(u, t), rel=1e-9)

    @pytest.mark.parametrize("t", [1.0, 3.0, 10.0])
    def test_density_integrates_to_one(self, t):
        law = MrcaLaw(t=t)
        val, err = integrate.quad(lambda u: mrca_density(law, u), 0.0, t, limit=200)
        assert err < 1e-8
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_cdf_density_consistency(self):
        law = MrcaLaw(t=3.0)
        h = 1e-6
        for u in (0.5, 1.0, 2.0):
            numeric = (mrca_cdf(law, u + h) - mrca_cdf(law, u - h)) / (2 * h)
            assert numeric == pytest.approx(mrca_density(law, u), abs=1e-6)

    @pytest.mark.parametrize("t", [1.0, 3.0, 10.0])
    def test_density_nonnegative_on_grid(self, t):
        law = MrcaLaw(t=t)
        us = np.linspace(t * 1e-3, t * 0.999, 1000)
        assert all(mrca_density(law, u) >= 0.0 for u in us)

    def test_small_u_stability(self):
        # numerator cancels cubically; the series branch must join smoothly
        # and behave as u^3 (1 + 2 e^{-t}) / (3 (1-e^{-t}) u^2)
        law = MrcaLaw(t=3.0)
        for u in (1e-8, 1e-6, 1e-4, 3e-3):
            lead = u * (1 + 2 * math.exp(-3.0)) / (3 * (1 - math.exp(-3.0)))
            assert mrca_cdf(law, u) == pytest.approx(lead, rel=5e-3)
        below, above = mrca_cdf(law, 4.999e-3), mrca_cdf(law, 5.001e-3)
        assert abs(above / below - 1) < 1e-3

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        t=hst.floats(min_value=0.2, max_value=20.0),
        frac1=hst.floats(min_value=1e-3, max_value=1.0),
        frac2=hst.floats(min_value=1e-3, max_value=1.0),
    )
    def test_cdf_monotone_into_unit_interval(self, t, frac1, frac2):
        law = MrcaLaw(t=t)
        u1, u2 = sorted((frac1 * t, frac2 * t))
        c1, c2 = mrca_cdf(law, u1), mrca_cdf(law, u2)
        assert 0.0 < c1 <= 1.0
        assert c1 <= c2 + 1e-12

    def test_domain_errors(self):
        law = MrcaLaw(t=3.0)
        with pytest.raises(ValueError):
            mrca_cdf(law, 0.0)
        with pytest.raises(ValueError):
            mrca_cdf(law, 3.5)
        with pytest.raises(ValueError):
            mrca_density(law, 3.0)


class TestPreCoalescenceSize:
    def test_two_individuals_forced(self):
        assert pre_coalescence_size_pmf(2, 2) == 1.0

    def test_three_individuals(self):
        assert pre_coalescence_size_pmf(2, 3) == pytest.approx(2 / 3)
        assert pre_coalescence_size_pmf(3, 3) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("j", list(range(2, 51)))
    def test_telescoping_normalisation(self, j):
        total = sum(pre_coalescence_size_pmf(i, j) for i in range(2, j + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pre_coalescence_size_pmf(1, 5)
        with pytest.raises(ValueError):
            pre_coalescence_size_pmf(6, 5)


class TestYuleCountPmf:
    def test_single_founder_geometric(self):
        u = 0.8
        for j in range(1, 8):
            expected = math.exp(-u) * (1 - math.exp(-u)) ** (j - 1)
            assert yule_count_pmf(1, j, u) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("i", [1, 2, 5])
    @pytest.mark.parametrize("u", [0.5, 2.0])
    def test_normalisation(self, i, u):
        total = sum(yule_count_pmf(i, j, u) for j in range(i, 4000))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_reference_value(self):
        assert yule_count_pmf(3, 5, 1.0) == pytest.approx(0.1193624255368863, rel=1e-12)

    @pytest.mark.parametrize("i", [2, 3])
    def test_convolution_of_geometrics(self, i):
        # i founders = i-fold convolution of the single-founder law
        u = 0.7
        jmax = 60
        single = np.asarray([yule_count_pmf(1, j, u) for j in range(1, jmax + 1)])
        conv = single
        for _ in range(i - 1):
            conv = np.convolve(conv, single)
        for j in range(i, jmax):
            assert yule_count_pmf(i, j, u) == pytest.approx(conv[j - i], rel=1e-10)

    def test_time_scaling(self):
        assert yule_count_pmf(2, 7, 1.5, beta=2.0) == pytest.approx(
            yule_count_pmf(2, 7, 3.0), rel=1e-12
        )


class TestTreeSimulation:
    def test_leaf_count_identity(self):
        rng = random.Random(42)
        for _ in range(100):
            tree = simulate_yule_tree(1.0, 2.0, rng)
            branches = sum(1 for bt in tree.branch_time if bt is not None)
            assert tree.n_leaves == 1 + branches

    def test_branch_times_increase_along_lineages(self):
        tree = simulate_yule_tree(1.0, 4.0, random.Random(7), min_leaves=4)
        for leaf in tree.leaves:
            times = []
            n = leaf
            while n is not None:
                if tree.branch_time[n] is not None:
                    times.append(tree.branch_time[n])
                n = tree.parent[n]
            assert times == sorted(times, reverse=True)

    def test_two_leaf_pair(self):
        tree = YuleTree(beta=1.0, horizon=2.0)
        tree.parent = [None, 0, 0]
        tree.branch_time = [0.7, None, None]
        tree.branch_rank = [1, None, None]
        tree.leaves = [1, 2]
        s, i = sample_pair_mrca(tree, random.Random(0))
        assert s == 0.7 and i == 2

    def test_pair_requires_two_leaves(self):
        tree = YuleTree(beta=1.0, horizon=2.0)
        tree.parent = [None]
        tree.branch_time = [None]
        tree.branch_rank = [None]
        tree.leaves = [0]
        with pytest.raises(ValueError, match="two leaves"):
            sample_pair_mrca(tree, random.Random(0))


class TestLawsAgainstSimulation:
    def test_mrca_cdf_against_pairs(self):
        beta, t, n = 1.0, 3.0, 20_000
        law = MrcaLaw(t=t, beta=beta)
        rng = random.Random(314)
        samples = np.empty(n)
        for k in range(n):
            tree = simulate_yule_tree(beta, t, rng, min_leaves=2)
            samples[k], _ = sample_pair_mrca(tree, rng)
        res = st.kstest(samples, lambda u: np.asarray([mrca_cdf(law, v) for v in u]))
        assert res.statistic < 0.02

    def test_size_pmf_against_trees(self):
        # condition on exactly five individuals at the horizon
        beta, t = 1.0, 2.0
        rng = random.Random(2718)
        observed = {i: 0 for i in (2, 3, 4, 5)}
        n_cond = 0
        while n_cond < 4000:
            tree = simulate_yule_tree(beta, t, rng, min_leaves=2)
            if tree.n_leaves != 5:
                continue
            _, i = sample_pair_mrca(tree, rng)
            observed[i] += 1
            n_cond += 1
        expected = [pre_coalescence_size_pmf(i, 5) * n_cond for i in (2, 3, 4, 5)]
        res = st.chisquare([observed[i] for i in (2, 3, 4, 5)], expected)
        assert res.pvalue > 0.01

    def test_time_change_consistency(self):
        # rate-beta pairs, times scaled by beta, match rate-1 pairs
        t1 = 3.0
        out = {}
        for beta in (0.5, 1.0, 2.0):
            rng = random.Random(int(beta * 1000))
            vals = []
            for _ in range(4000):
                tree = simulate_yule_tree(beta, t1 / beta, rng, min_leaves=2)
                s, _ = sample_pair_mrca(tree, rng)
                vals.append(beta * s)
            out[beta] = np.asarray(vals)
        for beta in (0.5, 2.0):
            res = st.ks_2samp(out[beta], out[1.0])
            assert res.pvalue > 0.01


class TestTableExports:
    def test_cdf_table(self, tmp_path):
        law = MrcaLaw(t=3.0)
        path = tmp_path / "cdf.csv"
        write_table(path, ["u", "F(u)"], ((u, mrca_cdf(law, u)) for u in (0.5, 1.0, 2.0)), header="beta=1 t=3")
        lines = path.read_text().splitlines()
        assert lines[0] == "# beta=1 t=3"
        assert lines[1] == "u,F(u)"
        u, f = lines[2].split(",")
        assert float(f) == pytest.approx(mrca_cdf(law, float(u)), rel=1e-9)

    def test_pmf_table(self, tmp_path):
        path = tmp_path / "pmf.csv"
        write_table(path, ["i", "p(i)"], ((i, pre_coalescence_size_pmf(i, 5)) for i in (2, 3, 4, 5)))
        lines = path.read_text().splitlines()
        assert lines[0] == "i,p(i)"
        assert lines[1].startswith("2,0.5")


class TestMartingaleSamples:
    def test_mean_near_one(self):
        samples = martingale_limit_samples(1.0, 6.0, 10_000, seed=5)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - 1.0) < 3 * se

    def test_strictly_positive(self):
        samples = martingale_limit_samples(0.5, 8.0, 5000, seed=6)
        assert (samples > 0).all()

    def test_limit_law_is_standard_exponential(self):
        samples = martingale_limit_samples(1.0, 8.0, 10_000, seed=7)
        res = st.kstest(samples, "expon")
        assert res.pvalue > 0.01

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            martingale_limit_samples(2.0, 7.0, 10, seed=1)
