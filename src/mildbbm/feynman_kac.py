"""First-moment Monte Carlo: expected total mass via a Brownian path functional.

For a fixed obstacle configuration the expected population size admits the
representation

    E|Z_t| = E exp( beta * integral_0^t 1{W_s not blocked} ds ),

a single-particle expectation: the exponential of beta times the time a
Brownian path spends outside the blocking balls.  This module estimates it
by plain Monte Carlo over exact-Gaussian-increment paths on a uniform dt
grid, with the indicator integral discretised by the left-endpoint rule
(bias is controlled empirically by the mandatory dt-halving check in the
test suite).  Averaging the quenched estimator over independently drawn
environments gives the annealed expectation.

The sampler steps all paths together in blocks of k time steps, in one
buffer of rows allocated per call: row 0 holds the carried positions, and
a block draws its (k, n_paths[, d]) normals straight into the rows after
it, scales them by sqrt(dt) and adds drift*dt to them (one vectorised op
each for the whole block), adds each row to the one before in place (one
vectorised add per time step, drift or not), and makes one
``is_blocked_many`` call for all k * n_paths left endpoints.  A (k, n)
draw fills in the order of k draws of (n,), and each step is rounded as
pos + (sqrt(dt)*N + drift*dt), so the free times are those of stepping
one time step at a time in that order.
k is chosen so that a block holds at most 16,384 points (at least one
step), which keeps the sampler's working memory at a few hundred kilobytes
whatever the horizon.  An add has a fixed cost whatever the block's width,
so narrow blocks pay more per path-step.

The normals come from numpy's ziggurat sampler on an SFC64 bit generator,
not on numpy's default PCG64: the draws are the largest stage of a
path-step, and SFC64 fills them about 2 ns a draw faster.  On 2 vCPUs of a
shared virtual machine (numpy 2.4, BENCH_19.json) a path-step cost about
20 ns at 512 paths (median 20.2 ns, against 23.7 ns on PCG64): 11.5 ns of
normal draws, 2.5 ns of adds, 6.2 ns of blocking lookup and 0.3 ns of
scaling.  At 50 paths it cost 38-67 ns.

Caveat: the estimand averages an exponential whose upper tail (paths that
stay free for most of [0, t], which become dominant as rare clearings take
over) makes the estimator variance heavy.  The standard error is reported
on the natural and the log scale; treat long-horizon estimates as lower
bounds in practice.

Paths and environments are embarrassingly parallel; aggregation is
deterministic by (environment index, path index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import drift_vector
from .environment import ObstacleField, write_table
from .seeds import derive_seed

__all__ = [
    "FkEstimate",
    "sample_free_times",
    "estimate_quenched_mass",
    "estimate_annealed_mass",
    "write_estimates_csv",
]

# most points one block of sample_free_times hands to is_blocked_many
_BLOCK_POINTS = 16_384


def _path_generator(seed):
    """The Generator that draws every path increment of one sampler call."""
    return np.random.Generator(np.random.SFC64(derive_seed(seed, "fk-paths")))


@dataclass(frozen=True)
class FkEstimate:
    """Monte Carlo estimate of the expected total mass at one time.

    point_estimate always lies in [1, e^{beta t}] (the integrand does
    path-by-path).  n_environments == 1 marks a quenched estimate.
    """

    t: float
    point_estimate: float
    log_estimate: float
    std_error: float
    n_paths: int
    n_environments: int
    log_std_error: float


def sample_free_times(field, beta, t, dt, n_paths, seed, drift=0.0):
    """Free-time samples for n_paths Brownian paths started at the origin.

    Returns (free_times, t_eff) where t_eff = round(t/dt) * dt is the exact
    grid horizon; every sample lies in [0, t_eff].

    The paths come from one SFC64 Generator seeded by ``(seed, "fk-paths")``
    and are drawn a whole time-step row at a time, in order.  Neither depends
    on t, so at one seed and dt the paths to t are the first steps of the
    paths to any later horizon: free times at t and 2t satisfy
    free(t) <= free(2t) <= free(t) + t path by path, and estimates at
    several t from one seed have correlated errors.  ``drift`` is read by
    :func:`mildbbm.analysis.drift_vector`: a scalar acts along the first axis.

    A path-step costs about 20 ns at 512 paths, 11.5 ns of it the normal
    draws (2 vCPUs, numpy 2.4, BENCH_19.json).
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    d = field.d
    n_steps = int(round(t / dt))
    t_eff = n_steps * dt
    rng = _path_generator(seed)
    # (d,) broadcasts over a block's (k, n_paths, d) steps, and (1,) over its (k, n_paths)
    step_drift = np.asarray(drift_vector(drift, d)) * dt
    shape = (n_paths,) if d == 1 else (n_paths, d)
    sd = math.sqrt(dt)
    # integer step counts, so that a fully free path yields exactly t_eff
    free_steps = np.zeros(n_paths, dtype=np.int64)
    block = max(1, min(_BLOCK_POINTS // n_paths, n_steps))
    # row 0 holds the carried positions, starting at the origin
    walk = np.zeros((block + 1,) + shape)
    for start in range(0, n_steps, block):
        k = min(block, n_steps - start)
        steps = walk[1 : k + 1]
        rng.standard_normal(out=steps)
        steps *= sd
        if step_drift.any():
            steps += step_drift
        for j in range(1, k + 1):
            np.add(walk[j - 1], walk[j], out=walk[j])
        # rows 0 .. k-1 are the k left endpoints, row k the carried position
        blocked = field.is_blocked_many(walk[:k].reshape((k * n_paths,) + shape[1:]))
        free_steps += k - blocked.reshape(k, n_paths).sum(axis=0)
        walk[0] = walk[k]
    return free_steps * dt, t_eff


def _estimate_from_free(free, beta):
    y = np.exp(beta * free)
    mean = float(y.mean())
    se = float(y.std(ddof=1) / math.sqrt(y.size)) if y.size > 1 else 0.0
    return mean, se


def _estimate(t, mean, se, n_paths, n_envs) -> FkEstimate:
    return FkEstimate(
        t=t,
        point_estimate=mean,
        log_estimate=math.log(mean),
        std_error=se,
        n_paths=n_paths,
        n_environments=n_envs,
        log_std_error=se / mean,
    )


def estimate_quenched_mass(field, beta, t, dt, n_paths, seed, drift=0.0) -> FkEstimate:
    """Estimate E|Z_t| for one fixed environment."""
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2 to report a standard error")
    free, t_eff = sample_free_times(field, beta, t, dt, n_paths, seed, drift)
    return _estimate(t_eff, *_estimate_from_free(free, beta), n_paths, 1)


def estimate_annealed_mass(
    d, nu, a, beta, t, dt, n_paths, n_envs, seed, drift=0.0, cell_size=None
) -> FkEstimate:
    """Estimate the environment-averaged expected mass.

    Averages the quenched estimator over ``n_envs`` independently seeded
    environments.  The reported standard error is computed across
    environment means when n_envs >= 2 (samples within one environment are
    exchangeable but share that environment).

    Environment e is seeded by ``derive_seed(seed, "env", e)`` and its
    paths by ``derive_seed(seed, "paths", e)``; neither depends on t.  So
    one seed at several t reuses the same environments and the same path
    prefixes (see :func:`sample_free_times`), and the errors across t are
    correlated.  Pass a different seed per t for independent estimates.
    """
    if n_envs < 1:
        raise ValueError("n_envs must be >= 1")
    env_means = np.empty(n_envs)
    pooled_se = 0.0
    t_eff = None
    for e in range(n_envs):
        env = ObstacleField(d, nu, a, derive_seed(seed, "env", e), cell_size)
        free, t_eff = sample_free_times(env, beta, t, dt, n_paths, derive_seed(seed, "paths", e), drift)
        env_means[e], pooled_se = _estimate_from_free(free, beta)
    if n_envs >= 2:
        se = float(env_means.std(ddof=1) / math.sqrt(n_envs))
    else:
        se = pooled_se
    return _estimate(t_eff, float(env_means.mean()), se, n_paths, n_envs)


def write_estimates_csv(path, estimates, header: str | None = None):
    """CSV export: t,estimate,log_estimate,se,n_paths,n_envs."""
    names = ["t", "estimate", "log_estimate", "se", "n_paths", "n_envs"]
    rows = ((e.t, e.point_estimate, e.log_estimate, e.std_error, e.n_paths, e.n_environments) for e in estimates)
    write_table(path, names, rows, header)
