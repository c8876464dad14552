"""Reproducible lazy obstacle fields and clearing search.

The field is a Poisson process of blocking-ball centres, generated cell by
cell from a counter-based hash of (seed, cell), so any region can be
regenerated identically in any order.  The demo realises a long 1-d
stretch, checks the blocked fraction against the vacancy probability
e^{-2 nu a}, and hunts for the largest clearing.
"""

import math

import numpy as np

from mildbbm import ModelConstants, ObstacleField, clearing_radius, largest_clearing

nu, a = 1.0, 0.25
field = ObstacleField(d=1, nu=nu, a=a, master_seed=20_260_808)

pts = field.realize_box([-5000.0], [5000.0])
print(f"realised {len(pts)} obstacle centres on [-5000, 5000) "
      f"(Poisson mean {10_000 * nu:.0f})")

xs = np.linspace(-5000, 5000, 200_001)
frac = field.is_blocked_many(xs).mean()
print(f"blocked fraction {frac:.4f} vs 1 - e^(-2 nu a) = {1 - math.exp(-2 * nu * a):.4f}")

print()
print("same boxes, regenerated in reverse order on a second field, give identical points:")
boxes = [([7.0], [8.0]), ([-3.0], [-2.0]), ([0.0], [1.0])]
other = ObstacleField(d=1, nu=nu, a=a, master_seed=20_260_808)
again = [other.realize_box(lo, hi) for lo, hi in boxes[::-1]][::-1]
fresh = ObstacleField(d=1, nu=nu, a=a, master_seed=20_260_808)
for (lo, hi), pts in zip(boxes, again):
    assert np.array_equal(fresh.realize_box(lo, hi), pts)
print("  verified on [7, 8), [-3, -2), [0, 1)")

print()
mc = ModelConstants(1, nu, 1.0, a)
for ell in (100.0, 1000.0, 5000.0):
    cl = largest_clearing(field, ell, resolution=0.05)
    rho = clearing_radius(ell, mc)
    print(f"largest clearing within |x| <= {ell:>6.0f}: radius {cl.radius:.3f} "
          f"at x = {cl.center[0]:+.2f}   (predicted floor rho(ell) = {rho:.3f})")
print("the search radius only ever grows the clearing: a.s. there are")
print("bigger and bigger empty stretches further out")
