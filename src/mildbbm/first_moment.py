"""Deterministic first moment in d = 1: a Crank-Nicolson solve of the
Feynman-Kac equation.

For a fixed environment and a set S, the expected number of particles in S
at time t, started from one particle at x, is

    v(t, x) = E_x[ exp(beta * integral_0^t 1{X_s free} ds) ; X_t in S ],

with X_s = x + b s + W_s the drifted Brownian motion.  It solves

    dv/dt = (1/2) v'' + b v' + beta * 1_free(x) * v,    v(0, .) = 1_S,

so v(t, 0) is E^omega Z_t(S) for the process started at the origin, and
S = R gives E^omega |Z_t|.  This is the same quantity that
:mod:`feynman_kac` estimates by Monte Carlo and that :mod:`branching`
samples, here with no Monte Carlo noise.

The equation is solved on (-L, L) with v = 0 at both ends.  That solution
keeps only paths that stay inside the interval up to time t; the weight is
at most e^{beta t}, so the missing part is bounded by
e^{beta t} P_0(X leaves (-L, L) by t and X_t in S), which the reflection
principle for drifted Brownian motion gives in closed form (a plain exit
probability would not do: the drifted cloud leaves any fixed interval,
while the paths that end in a ball near the origin mostly stay).  Space is
discretised by piecewise-linear finite elements with the free indicator
integrated exactly, time by Crank-Nicolson with the step tied to the
spacing; the first step is split into implicit Euler half-steps
(Rannacher start-up, which damps the oscillation Crank-Nicolson leaves on
discontinuous data).  The solve is repeated at half the spacing; the finer
result is reported together with its distance from the coarser one as the
grid error.

scipy is imported inside the solver, so that importing the package stays
cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import drift_vector
from .environment import ObstacleField

__all__ = ["FirstMoment", "expected_mass_1d"]


@dataclass(frozen=True)
class FirstMoment:
    """E^omega Z_t(S) from the origin on an observation grid.

    value holds the solve at the finer grid.  truncation_bound bounds what
    the truncation to (-L, L) leaves out (the Dirichlet problem on (-L, L)
    misses mass and never adds any).  grid_error is the distance between the
    solves at spacing dx and dx/2; for a second-order scheme it is about
    three times the error of the finer one.  error_bound is their sum.
    """

    times: np.ndarray
    value: np.ndarray
    truncation_bound: np.ndarray
    grid_error: np.ndarray

    @property
    def error_bound(self) -> np.ndarray:
        return self.truncation_bound + self.grid_error


def _blocked_intervals(field, lo, hi):
    """Disjoint blocking intervals (starts, ends) of ``field`` meeting [lo, hi]."""
    if field is None:
        return np.empty(0), np.empty(0)
    a = field.a
    centers = np.sort(field.realize_box([lo - a], [hi + a])[:, 0])
    starts, ends = centers - a, centers + a
    if len(starts) == 0:
        return starts, ends
    # every interval has the same length, so sorting by start sorts the ends;
    # a new component begins where a start clears every end before it
    reach = np.maximum.accumulate(ends)
    first = np.concatenate(([True], starts[1:] > reach[:-1]))
    last = np.concatenate((first[1:], [True]))
    return starts[first], reach[last]


def _blocked_moments(elements, h, starts, ends):
    """Per element [e, e + h]: integrals of 1, s, s^2 over its blocked part, s = (x - e)/h."""
    s0 = np.clip((starts - elements[:, None]) / h, 0.0, 1.0)
    s1 = np.clip((ends - elements[:, None]) / h, 0.0, 1.0)
    return [((s1 ** (k + 1) - s0 ** (k + 1)) / (k + 1)).sum(axis=1) for k in range(3)]


def _load(elements, h, drift, lo, hi):
    """Integrals of e^{b x} 1{lo < x < hi} against each hat function (all nodes)."""
    g, gw = np.polynomial.legendre.leggauss(6)
    p = np.clip(lo, elements, elements + h)
    q = np.clip(hi, elements, elements + h)
    x = p[:, None] + (q - p)[:, None] * (g + 1.0) / 2.0
    wx = (q - p)[:, None] / 2.0 * gw * np.exp(drift * x)
    s = (x - elements[:, None]) / h
    out = np.zeros(len(elements) + 1)
    out[:-1] += (wx * (1.0 - s)).sum(axis=1)
    out[1:] += (wx * s).sum(axis=1)
    return out


def _solve(field, beta, times, drift, ball, half_width, dx):
    """Crank-Nicolson values v(t, 0) at ``times`` on a grid of pitch ~dx.

    Works with w = e^{b x} v, which solves the symmetric equation
    dw/dt = (1/2) w'' + q w,  q = beta 1_free - b^2/2, with w = 0 at the
    ends and w(t, 0) = v(t, 0).  Space is discretised by piecewise-linear
    finite elements with the free indicator integrated exactly against the
    hat functions, so obstacle edges may fall anywhere inside an element
    without spoiling second-order convergence; each time step is then one
    symmetric tridiagonal solve.
    """
    from scipy.linalg import lapack

    m = math.ceil(half_width / dx - 1e-9)
    h = half_width / m
    elements = -half_width + h * np.arange(2 * m)  # left ends; node m sits at 0
    starts, ends = _blocked_intervals(field, -half_width, half_width)
    i0, i1, i2 = _blocked_moments(elements, h, starts, ends)
    # element matrices of q against the hat functions (left-left, left-right, right-right)
    shift = 0.5 * drift * drift
    q_ll = h * ((beta - shift) / 3.0 - beta * (i0 - 2.0 * i1 + i2))
    q_lr = h * ((beta - shift) / 6.0 - beta * (i1 - i2))
    q_rr = h * ((beta - shift) / 3.0 - beta * i2)
    # assembled on the interior nodes 1 .. 2m-1: stiffness of -(1/2) d^2 minus q
    stiff_diag = 1.0 / h - (q_rr[:-1] + q_ll[1:])
    stiff_off = -0.5 / h - q_lr[1:-1]
    mass_diag, mass_off = 2.0 * h / 3.0, h / 6.0
    n = 2 * m - 1

    def product(diag, off):
        def apply(u):
            out = diag * u
            out[1:] += off * u[:-1]
            out[:-1] += off * u[1:]
            return out

        return apply

    def factor(diag, off):
        d, e, info = lapack.dpttrf(np.broadcast_to(diag, n), np.broadcast_to(off, n - 1))
        if info != 0:
            raise ArithmeticError(f"time-step matrix is not positive definite (dpttrf info {info})")
        return lambda u: lapack.dpttrs(d, e, u)[0]

    lo, hi = (-half_width, half_width) if ball is None else (ball[0] - ball[1], ball[0] + ball[1])
    mass = product(mass_diag, mass_off)
    w = factor(mass_diag, mass_off)(_load(elements, h, drift, lo, hi)[1:-1])  # L2 projection

    steppers = {}  # dt -> (solve with M + dt/2 S, product with M - dt/2 S)

    def stepper(dt):
        if dt not in steppers:
            steppers[dt] = (
                factor(mass_diag + 0.5 * dt * stiff_diag, mass_off + 0.5 * dt * stiff_off),
                product(mass_diag - 0.5 * dt * stiff_diag, mass_off - 0.5 * dt * stiff_off),
            )
        return steppers[dt]

    # q <= beta and dt <= 1/beta keep M + dt/2 S above M/2
    dt_max = min(h, 1.0 / beta)
    out = np.empty(len(times))
    t_prev = 0.0
    for k, t in enumerate(times):
        gap = t - t_prev
        if gap > 0.0:
            steps = max(1, math.ceil(gap / dt_max - 1e-9))
            solve, explicit = stepper(gap / steps)
            if t_prev == 0.0:
                # Rannacher start-up: the first step as two implicit Euler
                # half-steps, whose matrix M + dt/2 S is the one already factored
                w = solve(mass(solve(mass(w))))
                steps -= 1
            for _ in range(steps):
                w = solve(explicit(w))
        out[k] = w[m - 1]
        t_prev = t
    return out


def _log_exit_into(mu, t, half_width, lo, hi):
    """log of a bound on P(X leaves (-L, L) by t, X_t in (lo, hi)), X_s = mu s + W_s.

    Reflection principle: for y <= L, P(max X >= L, X_t <= y) =
    e^{2 mu L} Phi((y - 2L - mu t) / sqrt t); the lower barrier follows by
    symmetry.  Where (lo, hi) reaches past a barrier the probability of
    ending there is added directly.  Terms are combined as an upper bound.
    """
    from scipy.special import log_ndtr

    L, s = half_width, math.sqrt(t)
    terms = [
        2.0 * mu * L + log_ndtr((min(hi, L) - 2.0 * L - mu * t) / s),
        -2.0 * mu * L + log_ndtr((-max(lo, -L) - 2.0 * L + mu * t) / s),
    ]
    if hi > L:
        terms.append(log_ndtr((mu * t - L) / s))
    if lo < -L:
        terms.append(log_ndtr((-L - mu * t) / s))
    top = max(terms)
    return top + math.log(sum(math.exp(v - top) for v in terms))


def expected_mass_1d(field, beta, times, *, drift=0.0, ball=None, half_width=25.0, dx=0.02) -> FirstMoment:
    """E^omega Z_t(S) for the d = 1 process started at the origin.

    ``field`` is a one-dimensional :class:`ObstacleField`, or None for no
    obstacles.  ``ball = (center, radius)`` sets S to that open interval;
    None sets S = R, the total mass.  The field is realised on
    [-half_width - a, half_width + a] through :meth:`ObstacleField.realize_box`.
    ``drift`` is read by :func:`mildbbm.analysis.drift_vector`, which
    refuses a NaN or infinite drift.
    """
    if field is not None and (not isinstance(field, ObstacleField) or field.d != 1):
        raise ValueError("expected_mass_1d needs a one-dimensional ObstacleField or None")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not (half_width > 0 and 0 < dx < half_width):
        raise ValueError(f"need 0 < dx < half_width, got dx={dx}, half_width={half_width}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a non-empty, strictly increasing sequence of t >= 0")
    if ball is not None:
        ball = (float(ball[0]), float(ball[1]))
        if not (ball[1] > 0 and abs(ball[0]) + ball[1] < half_width):
            raise ValueError(f"ball {ball} must have positive radius and lie inside (-half_width, half_width)")
    drift = drift_vector(drift, 1)[0]
    if abs(drift) * half_width > 600.0:
        raise ValueError("|drift| * half_width must stay below 600 (the solve scales by e^{b x})")

    coarse = _solve(field, beta, times, drift, ball, half_width, dx)
    fine = _solve(field, beta, times, drift, ball, half_width, 0.5 * dx)
    lo, hi = (-math.inf, math.inf) if ball is None else (ball[0] - ball[1], ball[0] + ball[1])
    trunc = np.array(
        [math.exp(beta * t + _log_exit_into(drift, t, half_width, lo, hi)) if t > 0 else 0.0 for t in times]
    )
    return FirstMoment(times=times, value=fine, truncation_bound=trunc, grid_error=np.abs(coarse - fine))
