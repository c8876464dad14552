"""Closed-form constants, eigenvalues and predicted growth curves.

Everything here is deterministic and cheap.  These are the reference
quantities the Monte Carlo modules are validated against: the volume of the
unit ball, the principal Dirichlet eigenvalue of -(1/2)Laplacian on it, the
quenched and annealed slowdown constants built from them, the radius of the
obstacle-free ball ("clearing") one expects to find within a given distance,
and the exact survival-in-an-interval series for one-dimensional Brownian
motion.

All functions are pure and reentrant; they may be called concurrently from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "ModelConstants",
    "DerivedConstants",
    "unit_ball_volume",
    "principal_eigenvalue_unit_ball",
    "principal_eigenvalue_ball",
    "quenched_constant",
    "annealed_constant",
    "derive_constants",
    "predicted_log_mass",
    "clearing_radius",
    "confinement_prob_series_1d",
    "drift_vector",
    "lambda_c_constant_drift",
]

_MAX_DIM = 10
# most terms confinement_prob_series_1d sums
_SERIES_TERMS = 2_000_000


@dataclass(frozen=True)
class ModelConstants:
    """Model parameters.

    d:    spatial dimension (1 <= d <= 10 for eigenvalue-based quantities)
    nu:   obstacle centre intensity, points per unit volume
    beta: branching rate in the free region
    a:    obstacle ball radius
    """

    d: int
    nu: float
    beta: float
    a: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        for name in ("nu", "beta", "a"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from :class:`ModelConstants`.

    omega_d:  volume of the d-dimensional unit ball
    lambda_d: principal Dirichlet eigenvalue of -(1/2)Laplacian on it
    R_0:      (d / (nu * omega_d))^(1/d), the clearing length scale
    c:        quenched slowdown constant, lambda_d * (d/(nu*omega_d))^(-2/d)
    c_tilde:  annealed slowdown constant
    """

    omega_d: float
    lambda_d: float
    R_0: float
    c: float
    c_tilde: float


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^(d/2) / Gamma(d/2 + 1)."""
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def _bessel_series(order: float, x: float) -> float:
    """J_order(x) without the (x/2)^order prefactor (same sign for x > 0).

    Ascending series; converges fast for the x <= 30 range used here.
    """
    h = x * x / 4.0
    term = 1.0 / math.gamma(order + 1.0)
    total = term
    for m in range(1, 80):
        term *= -h / (m * (m + order))
        total += term
        if abs(term) < 1e-20 * max(1.0, abs(total)):
            break
    return total


def _bessel_first_zero(order: float) -> float:
    """First positive zero of J_order by bracketing it and halving the bracket."""
    step = 0.05
    x_prev, f_prev = step, _bessel_series(order, step)
    x = x_prev
    while x < 30.0:
        x += step
        f = _bessel_series(order, x)
        if f_prev > 0.0 >= f:
            break
        x_prev, f_prev = x, f
    else:
        raise RuntimeError(f"no Bessel zero bracketed for order {order}")
    lo, hi = x_prev, x
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _bessel_series(order, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def principal_eigenvalue_unit_ball(d: int) -> float:
    """Principal Dirichlet eigenvalue of -(1/2)Laplacian on the unit d-ball.

    Equals j^2/2 with j the first positive zero of the Bessel function of
    order d/2 - 1.  For d = 1 this is pi^2/8, for d = 3 it is pi^2/2.
    """
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    if d > _MAX_DIM:
        raise ValueError(f"dimensions above {_MAX_DIM} are not supported")
    j = _bessel_first_zero(d / 2 - 1)
    return j * j / 2.0


def principal_eigenvalue_ball(d: int, radius: float) -> float:
    """Principal Dirichlet eigenvalue of -(1/2)Laplacian on a radius-R ball.

    Brownian scaling: equals the unit-ball eigenvalue divided by R^2.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return principal_eigenvalue_unit_ball(d) / (radius * radius)


def quenched_constant(mc: ModelConstants) -> float:
    """Quenched slowdown constant c(d, nu) = lambda_d * (d/(nu*omega_d))^(-2/d)."""
    lam = principal_eigenvalue_unit_ball(mc.d)
    return lam * (mc.nu * unit_ball_volume(mc.d) / mc.d) ** (2.0 / mc.d)


def annealed_constant(mc: ModelConstants) -> float:
    """Annealed slowdown constant.

    c_tilde(d, nu) = (nu*omega_d)^(2/(d+2)) * ((d+2)/2) * (2*lambda_d/d)^(d/(d+2)).
    """
    d = mc.d
    lam = principal_eigenvalue_unit_ball(d)
    return (
        (mc.nu * unit_ball_volume(d)) ** (2.0 / (d + 2))
        * ((d + 2) / 2.0)
        * (2.0 * lam / d) ** (d / (d + 2.0))
    )


def derive_constants(mc: ModelConstants) -> DerivedConstants:
    """All derived constants for one parameter set.

    Satisfies c * R_0^2 = lambda_d exactly (up to rounding).
    """
    omega = unit_ball_volume(mc.d)
    lam = principal_eigenvalue_unit_ball(mc.d)
    r0 = (mc.d / (mc.nu * omega)) ** (1.0 / mc.d)
    return DerivedConstants(
        omega_d=omega,
        lambda_d=lam,
        R_0=r0,
        c=quenched_constant(mc),
        c_tilde=annealed_constant(mc),
    )


def predicted_log_mass(mc: ModelConstants, t: float, mode: str = "quenched") -> float:
    """Leading-order prediction of log E|Z_t| (the 1 + o(1) factor dropped).

    quenched: beta*t - c * t / (log t)^(2/d), valid for t > 1
    annealed: beta*t - c_tilde * t^(d/(d+2))

    These are asymptotic shapes; at moderate t they are overlays for trend
    comparison, not point predictions.
    """
    if mode == "quenched":
        if t <= 1.0:
            raise ValueError(f"quenched prediction requires t > 1, got {t}")
        return mc.beta * t - quenched_constant(mc) * t / math.log(t) ** (2.0 / mc.d)
    if mode == "annealed":
        if t <= 0.0:
            raise ValueError(f"time must be positive, got {t}")
        return mc.beta * t - annealed_constant(mc) * t ** (mc.d / (mc.d + 2.0))
    raise ValueError(f"mode must be 'quenched' or 'annealed', got {mode!r}")


def clearing_radius(ell: float, mc: ModelConstants) -> float:
    """Radius of the obstacle-free ball expected within distance ell.

    R_0 (log ell)^(1/d) - (log log ell)^2, clamped at zero.  The clamp is a
    deliberate desk-scale choice: for moderate ell the second-order term can
    dominate the formula, which is only meaningful as ell grows.
    """
    if ell <= math.e:
        raise ValueError(f"ell must exceed e so that log log ell is defined, got {ell}")
    r0 = (mc.d / (mc.nu * unit_ball_volume(mc.d))) ** (1.0 / mc.d)
    return max(0.0, r0 * math.log(ell) ** (1.0 / mc.d) - math.log(math.log(ell)) ** 2)


def confinement_prob_series_1d(R: float, t: float) -> float:
    """P(standard BM started at 0 stays inside (-R, R) up to time t).

    Eigenfunction series (4/pi) * sum_k (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 t / (8 R^2)),
    truncated once terms drop below 1e-16, and after at most
    ``_SERIES_TERMS`` terms, which is generous enough for t/R^2 >= 1e-6.
    """
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 1.0
    rate = math.pi**2 * t / (8.0 * R * R)
    if rate < 1e-7:
        # exit probability <= 2 exp(-R^2/(2t)) < 1e-500000 here: exactly 1.0
        # in doubles, and the alternating series would need ~1/sqrt(rate) terms
        return 1.0
    total = 0.0
    for k in range(_SERIES_TERMS):
        term = math.exp(-((2 * k + 1) ** 2) * rate) / (2 * k + 1)
        if k % 2:
            total -= term
        else:
            total += term
        if term < 1e-16:
            break
    return min(1.0, max(0.0, 4.0 / math.pi * total))


def drift_vector(drift, d: int) -> tuple:
    """A constant drift as a tuple of d finite floats.

    A scalar acts along the first axis; a sequence must have d components.
    Raises ValueError otherwise, or if a component is NaN or infinite.
    """
    try:
        vec = tuple(float(v) for v in drift)
    except TypeError:
        vec = (float(drift),) + (0.0,) * (d - 1)
    if len(vec) != d or not all(map(math.isfinite, vec)):
        raise ValueError(f"drift must be a finite scalar or {d} finite components, got {drift!r}")
    return vec


def lambda_c_constant_drift(b) -> float:
    """Generalized principal eigenvalue of (1/2)Laplacian + b.grad on R^d.

    For constant drift of magnitude b this is -b^2/2: drift can be removed
    at quadratic cost, and the driftless operator has eigenvalue 0.  The
    local-growth crossover of the branching process sits at beta = b^2/2,
    independent of the obstacle intensity.
    """
    try:
        mag2 = float(b) ** 2
    except TypeError:
        mag2 = sum(float(x) ** 2 for x in b)
    return -0.5 * mag2
