"""Pure-birth (Yule) genealogy: exact coalescence laws and simulators.

The total mass of a free binary-branching population is a rate-beta pure
birth process.  For a pair of individuals drawn uniformly at time t this
module provides the exact law of the death time s of their most recent
common ancestor, the law of the population size I just after that split,
and the negative-binomial population counts seeded by i ancestors, together
with tree simulators used to validate all three by Monte Carlo.

Closed forms are stated at rate 1; the general rate enters through the
deterministic time change u -> beta * u (a rate-beta population run to
time t is a rate-1 population run to beta * t).

All closed-form evaluators are pure and reentrant.  Tree simulation is
sequential per run; independent runs can execute concurrently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .environment import write_header
from .seeds import derive_seed

__all__ = [
    "MrcaLaw",
    "YuleTree",
    "mrca_cdf",
    "mrca_density",
    "pre_coalescence_size_pmf",
    "yule_count_pmf",
    "simulate_yule_tree",
    "sample_pair_mrca",
    "martingale_limit_samples",
    "write_cdf_table",
    "write_pmf_table",
]

_SERIES_CUTOFF = 5e-3
_BETA_T_CAP = 12.0


@dataclass(frozen=True)
class MrcaLaw:
    """Parameters of the pair-coalescence law: horizon t and birth rate beta."""

    t: float
    beta: float = 1.0

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


def _numerator_a(u: float) -> float:
    """1 - 2u e^{-u} - e^{-2u}, stable near u = 0 (leading term u^3/3)."""
    if u < _SERIES_CUTOFF:
        return u**3 / 3.0 - u**4 / 3.0 + 11.0 * u**5 / 60.0
    return 1.0 - 2.0 * u * math.exp(-u) - math.exp(-2.0 * u)


def _numerator_b(u: float) -> float:
    """2u - 3 + 4e^{-u} - e^{-2u}, stable near u = 0 (leading term 2u^3/3)."""
    if u < _SERIES_CUTOFF:
        return 2.0 * u**3 / 3.0 - u**4 / 2.0 + 7.0 * u**5 / 30.0
    return 2.0 * u - 3.0 + 4.0 * math.exp(-u) - math.exp(-2.0 * u)


def _numerator_c(u: float) -> float:
    """e^{-u}(u - 2 + (u + 2)e^{-u}), stable near u = 0 (leading term u^3/6)."""
    if u < _SERIES_CUTOFF:
        return u**3 / 6.0 - u**4 / 4.0 + 23.0 * u**5 / 120.0
    return math.exp(-u) * (u - 2.0 + (u + 2.0) * math.exp(-u))


def mrca_cdf(law: MrcaLaw, u: float) -> float:
    """P(death time of the pair's most recent common ancestor <= u).

    At rate 1 and horizon t, for 0 < u <= t:

        [1 - 2u e^{-u} - e^{-2u} + e^{-t}(2u - 3 + 4e^{-u} - e^{-2u})]
        / [(1 - e^{-t}) (1 - e^{-u})^2]

    conditioned on the population holding at least two individuals at t.
    General rates are reduced to rate 1 by the time change u -> beta*u.
    The numerator vanishes cubically at u = 0; a series branch keeps the
    evaluation stable there.
    """
    x = law.beta * u
    T = law.beta * law.t
    if not 0.0 < x <= T:
        raise ValueError(f"u must lie in (0, t], got u={u} for t={law.t}")
    num = _numerator_a(x) + math.exp(-T) * _numerator_b(x)
    den = (1.0 - math.exp(-T)) * math.expm1(-x) ** 2
    return min(1.0, num / den)


def mrca_density(law: MrcaLaw, u: float) -> float:
    """Density of the MRCA death time; d/du of :func:`mrca_cdf`.

    At rate 1: 2 [e^{-u}(u - 2 + (u + 2)e^{-u}) + e^{-t}(1 - 2u e^{-u} - e^{-2u})]
    / [(1 - e^{-t}) (1 - e^{-u})^3].  The rate-beta density carries the
    Jacobian factor beta.
    """
    x = law.beta * u
    T = law.beta * law.t
    if not 0.0 < x < T:
        raise ValueError(f"u must lie in (0, t), got u={u} for t={law.t}")
    num = _numerator_c(x) + math.exp(-T) * _numerator_a(x)
    den = (1.0 - math.exp(-T)) * (-math.expm1(-x)) ** 3
    return law.beta * 2.0 * num / den


def pre_coalescence_size_pmf(i: int, j: int) -> float:
    """P(population size just after the pair's MRCA split = i | size j at t).

    Equals 2 (j + 1) / ((j - 1) i (i + 1)) for 2 <= i <= j; telescopes to 1.
    Does not depend on the horizon or the rate.
    """
    if j < 2:
        raise ValueError(f"population size j must be >= 2, got {j}")
    if not 2 <= i <= j:
        raise ValueError(f"i must lie in [2, j], got i={i}, j={j}")
    return 2.0 * (j + 1) / ((j - 1) * i * (i + 1))


def yule_count_pmf(i: int, j: int, u: float, beta: float = 1.0) -> float:
    """P(population of i founders has size j after time u) (negative binomial).

    C(j-1, i-1) e^{-ui} (1 - e^{-u})^{j-i} at rate 1; rate beta via u -> beta*u.
    """
    if i < 1 or j < i:
        raise ValueError(f"need j >= i >= 1, got i={i}, j={j}")
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    x = beta * u
    if x == 0.0:
        return 1.0 if i == j else 0.0
    log_p = (
        math.lgamma(j) - math.lgamma(i) - math.lgamma(j - i + 1)
        - x * i
        + (j - i) * math.log(-math.expm1(-x))
    )
    return math.exp(log_p)


# -- tree simulation ---------------------------------------------------------


@dataclass
class YuleTree:
    """A realised pure-birth genealogy run to a fixed horizon.

    Nodes are integers; node 0 is the root.  ``parent[n]`` is None for the
    root.  A node that split carries its ``branch_time`` and the 1-based
    ``branch_rank`` of its split among all splits in time order; leaves at
    the horizon have None in both.  ``leaves`` lists the individuals alive
    at the horizon, so ``len(leaves) == 1 + number of splits``.
    """

    beta: float
    horizon: float
    parent: list = field(default_factory=list)
    branch_time: list = field(default_factory=list)
    branch_rank: list = field(default_factory=list)
    leaves: list = field(default_factory=list)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def n_alive(self, s: float) -> int:
        """Population size at time s (number of splits before s, plus one)."""
        return 1 + sum(1 for bt in self.branch_time if bt is not None and bt <= s)


def simulate_yule_tree(beta, t, rng, min_leaves: int = 1) -> YuleTree:
    """Simulate one pure-birth tree to horizon t.

    ``rng`` is a ``random.Random`` or an integer seed.  With ``min_leaves``
    the tree is conditioned (by rejection) on holding at least that many
    individuals at the horizon; rejection is cheap because extinction is
    impossible and P(no split) = e^{-beta t}.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    while True:
        tree = YuleTree(beta=beta, horizon=t)
        tree.parent = [None]
        tree.branch_time = [None]
        tree.branch_rank = [None]
        tree.leaves = [0]
        now = 0.0
        rank = 0
        while True:
            k = len(tree.leaves)
            now += rng.expovariate(beta * k)
            if now > t:
                break
            rank += 1
            idx = rng.randrange(k)
            node = tree.leaves[idx]
            tree.branch_time[node] = now
            tree.branch_rank[node] = rank
            c1 = len(tree.parent)
            tree.parent.extend((node, node))
            tree.branch_time.extend((None, None))
            tree.branch_rank.extend((None, None))
            tree.leaves[idx] = c1
            tree.leaves.append(c1 + 1)
        if tree.n_leaves >= min_leaves:
            return tree


def sample_pair_mrca(tree: YuleTree, rng) -> tuple:
    """Uniformly sample an unordered leaf pair; return (s, i).

    s is the split time of the pair's most recent common ancestor and i the
    population size immediately after that split (the split itself counted),
    obtained as 1 + the split's time-order rank.  The pair is drawn
    independently of the genealogy.
    """
    if tree.n_leaves < 2:
        raise ValueError("need at least two leaves to sample a pair")
    if isinstance(rng, int):
        rng = random.Random(rng)
    a, b = rng.sample(range(tree.n_leaves), 2)
    node_a, node_b = tree.leaves[a], tree.leaves[b]
    ancestors = set()
    n = node_a
    while n is not None:
        ancestors.add(n)
        n = tree.parent[n]
    n = node_b
    while n not in ancestors:
        n = tree.parent[n]
    return tree.branch_time[n], tree.branch_rank[n] + 1


def martingale_limit_samples(beta, t, runs, seed) -> np.ndarray:
    """i.i.d. samples of e^{-beta t} X_t from pure-birth count simulation.

    X_t is realised as the number of split times Sum_m E_m/(beta m) that fit
    in [0, t], plus one.  Capped at beta * t <= 12 to keep populations at
    desk scale.  The sample mean converges to 1 and every sample is
    strictly positive.
    """
    if beta * t > _BETA_T_CAP:
        raise ValueError(f"beta*t = {beta * t} exceeds the desk-scale cap {_BETA_T_CAP}")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    mean_pop = math.exp(beta * t)
    k = int(8.0 * mean_pop) + 64
    block = max(16, int(4e6 / k))
    out = np.empty(runs)
    done = 0
    batch = 0
    while done < runs:
        n = min(block, runs - done)
        rng = np.random.default_rng(derive_seed(seed, "martingale", batch))
        gaps = rng.exponential(size=(n, k)) / (beta * np.arange(1, k + 1))
        times = np.cumsum(gaps, axis=1)
        counts = 1 + (times <= t).sum(axis=1)
        # runs outgrowing the preallocated block (P ~ e^{-8} each) are
        # finished one split at a time
        overflow = np.nonzero(times[:, -1] <= t)[0]
        for r in overflow:
            cur = float(times[r, -1])
            extra = k
            rr = random.Random(derive_seed(seed, "martingale-tail", batch, int(r)))
            while True:
                cur += rr.expovariate(beta * (extra + 1))
                if cur > t:
                    break
                extra += 1
            counts[r] = 1 + extra
        out[done : done + n] = counts * math.exp(-beta * t)
        done += n
        batch += 1
    return out


# -- table export -------------------------------------------------------------


def write_cdf_table(path, law: MrcaLaw, us, header: str | None = None):
    """CSV table ``u,F(u)`` of the MRCA law for plotting."""
    with open(path, "w") as fh:
        write_header(fh, header)
        fh.write("u,F(u)\n")
        for u in us:
            fh.write(f"{u:.12g},{mrca_cdf(law, u):.12g}\n")


def write_pmf_table(path, probs: dict, header: str | None = None):
    """CSV table ``i,p(i)`` for an integer-indexed pmf."""
    with open(path, "w") as fh:
        write_header(fh, header)
        fh.write("i,p(i)\n")
        for i in sorted(probs):
            fh.write(f"{i},{probs[i]:.12g}\n")
