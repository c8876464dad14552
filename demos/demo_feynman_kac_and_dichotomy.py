"""Two views of the expected mass, and the drift dichotomy.

First: the expected population size among obstacles equals the expectation
of exp(beta * free time) over single Brownian paths, so a particle
simulation and a path-functional estimate must agree; the demo shows both
numbers with their standard errors.  Second: the annealed slowdown deficit
beta*t - log E|Z_t| grows with the horizon.  Third: with constant drift b,
local mass around the origin dies out when beta < b^2/2 and survives above
that threshold, whatever the obstacle intensity; a deterministic solve of
the first moment shows how slowly its rate approaches beta - b^2/2.
"""

import math

import numpy as np

from mildbbm import (
    ModelConstants,
    ObstacleField,
    SimConfig,
    derive_seed,
    dichotomy_experiment,
    estimate_annealed_mass,
    estimate_quenched_mass,
    run_bbm,
)
from mildbbm.first_moment import expected_mass_1d

d, nu, a, beta, t = 1, 0.5, 0.3, 1.0, 4.0
field = ObstacleField(d, nu, a, master_seed=1234)
mc = ModelConstants(d, nu, beta, a)

runs = 4000
sizes = np.empty(runs)
for i in range(runs):
    cfg = SimConfig(mc=mc, t_max=t, obs_times=(t,), seed=derive_seed(3, "run", i))
    sizes[i] = run_bbm(cfg, field)[0].counts[-1]
est = estimate_quenched_mass(field, beta, t, dt=1e-3, n_paths=8000, seed=7)
print(f"fixed environment, t={t}:")
print(f"  particle runs   E|Z_t| = {sizes.mean():.3f} ± {sizes.std(ddof=1) / math.sqrt(runs):.3f}")
print(f"  path functional E|Z_t| = {est.point_estimate:.3f} ± {est.std_error:.3f}")
print(f"  free growth would give  {math.exp(beta * t):.3f}")

print()
print("annealed slowdown deficit beta*t - log E|Z_t| (averaged over environments):")
for horizon in (2.0, 4.0, 8.0, 16.0):
    e = estimate_annealed_mass(d, 1.0, a, beta, horizon, 2e-3, 512, 16, seed=11)
    print(f"  t={horizon:>4.0f}: deficit {beta * e.t - e.log_estimate:6.3f}")
print("  (grows with t; asymptotically ~ c_tilde t^(1/3) in d=1)")

print()
print("dichotomy at drift b=1 (threshold beta = 0.5), light obstacles nu=0.2, a=0.1:")
for b_rate in (0.3, 0.8):
    rep = dichotomy_experiment(1.0, b_rate, 0.2, 0.1, 16.0, 60, seed=21, prune_tol=1e-8)
    print(
        f"  beta={b_rate}: predicted {rep['predicted_regime']:>12}, observed {rep['observed_label']:>12}, "
        f"survival in B(0,1) {rep['survival_fraction']:.2f}, "
        f"mean local counts {[round(c, 1) for c in rep['mean_local_counts']]}"
    )

print()
print("the crossover sits at beta = b^2/2 regardless of the obstacle intensity,")
print("but the approach to the exponent beta - b^2/2 does depend on nu and a.")
print("first moment E Z_t(B(0,1)) without Monte Carlo noise (Crank-Nicolson), beta=0.8:")
times = (10.0, 20.0, 30.0)
for nu_h, a_h in ((0.2, 0.1), (0.5, 0.3)):
    vals = np.mean(
        [
            expected_mass_1d(ObstacleField(1, nu_h, a_h, master_seed=derive_seed(5, "env", e)), 0.8, times,
                             drift=1.0, ball=(0.0, 1.0), dx=0.05).value
            for e in range(8)
        ],
        axis=0,
    )
    rate = np.polyfit(times, np.log(vals), 1)[0]
    print(f"  nu={nu_h}, a={a_h}: {[round(float(v), 1) for v in vals]} at t={times}, rate {rate:.3f} (limit 0.3)")
