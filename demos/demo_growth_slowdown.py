"""Population growth with and without obstacles.

Runs replicate simulations of the free process and of the process among
blocking balls on the same horizon, then prints the realised growth rates
r_t = log|Z_t|/t next to the predicted quenched/annealed curves.  The
obstacle runs always sit strictly below the free rate beta; the gap closes
only logarithmically, which is why the asymptotic formulas are overlays for
trend, not point predictions.
"""

import math

import numpy as np

from mildbbm import (
    ModelConstants,
    ObstacleField,
    SimConfig,
    derive_seed,
    predicted_log_mass,
    run_bbm,
)

d, nu, a, beta = 1, 0.8, 0.3, 1.0
mc = ModelConstants(d, nu, beta, a)
field = ObstacleField(d, nu, a, master_seed=11)
obs = (2.0, 4.0, 6.0, 8.0, 10.0)
replicates = 40

free_counts = np.zeros((replicates, len(obs)))
obst_counts = np.zeros((replicates, len(obs)))
for i in range(replicates):
    cfg = SimConfig(mc=mc, t_max=obs[-1], obs_times=obs, seed=derive_seed(1, "free", i))
    free_counts[i] = run_bbm(cfg, None)[0].counts
    cfg = SimConfig(mc=mc, t_max=obs[-1], obs_times=obs, seed=derive_seed(1, "obst", i))
    obst_counts[i] = run_bbm(cfg, field)[0].counts

print(f"{replicates} replicates, nu={nu}, a={a}, beta={beta}, one fixed environment")
print(f"{'t':>4} {'free r_t':>9} {'obst r_t':>9} {'pred quenched':>14} {'pred annealed':>14}")
for k, t in enumerate(obs):
    r_free = np.log(free_counts[:, k].mean()) / t
    r_obst = np.log(obst_counts[:, k].mean()) / t
    pq = predicted_log_mass(mc, t, "quenched") / t if t > 1 else float("nan")
    pa = predicted_log_mass(mc, t, "annealed") / t
    print(f"{t:>4.0f} {r_free:>9.3f} {r_obst:>9.3f} {pq:>14.3f} {pa:>14.3f}")

print()
print("the mean free rate approaches beta; the obstacle rate stays below it,")
print(f"and every single run obeyed r_t < beta: "
      f"{bool((np.log(np.maximum(obst_counts[:, -1], 1)) / obs[-1] < beta).all())}")
print()
print(f"slowdown diagnostic (log t)^2 (r_t - beta) at t=10: "
      f"{(math.log(10.0))**2 * (np.log(obst_counts[:, -1].mean()) / 10.0 - beta):+.3f} "
      f"(asymptotically -c = {-((math.pi**2) / 8) * (2 * nu)**2:.3f})")
