"""Exact simulation of obstacle-suppressed branching Brownian motion.

A single particle starts at the origin.  Particles diffuse as independent
Brownian motions (optionally with constant drift) and carry independent
rate-beta candidate clocks.  Because the true branching rate is
beta * 1{position not blocked}, which is bounded by beta, thinning is exact
(Lewis & Shedler 1979): at a candidate time the particle splits into two if
its current position is outside every blocking ball, otherwise the
candidate is discarded and a fresh exponential clock is drawn.

The population is held as arrays, one row per particle, and stepped in
rounds inside each observation epoch (t_{k-1}, t_k].  In a round every
particle whose clock is before t_k moves to its clock time by one exact
Gaussian increment, drift*dt + sqrt(dt)*N(0, I), and its candidate is
accepted (the row is replaced by two child rows with fresh clocks) or
rejected (the clock is redrawn).  When no clock is left before t_k, all
particles move to t_k and are observed.  Given the field the particles are
independent and each one's events are processed in its own time order, so
the order in which different particles' events are drawn does not change
the law, and no step carries a time discretisation error.  Ties between a
candidate and an observation at the same instant (probability zero) are
resolved by processing the observation first.

Replicates are independent runs.  Each run draws from one numpy Generator
seeded by the run seed, so a run is a function of its seed and its field
alone and never depends on scheduling.  Within a campaign, run seeds are
derived as hash(master seed, run index).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import ModelConstants, lambda_c_constant_drift
from .environment import ObstacleField
from .seeds import derive_seed

__all__ = [
    "Ball",
    "SimConfig",
    "LogRecord",
    "GenealogyLog",
    "GrowthCurve",
    "ParticleCapExceeded",
    "run_bbm",
    "run_free_bbm",
    "trim_coupling",
    "local_mass",
    "population_at",
    "dichotomy_experiment",
]


@dataclass(frozen=True)
class Ball:
    """Named open ball used for local-mass observation."""

    name: str
    center: tuple
    radius: float


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: model constants, drift, horizon and observables."""

    mc: ModelConstants
    t_max: float
    obs_times: tuple
    drift: object = 0.0
    particle_cap: int = 1_000_000
    seed: int = 0
    balls: tuple = ()

    def __post_init__(self):
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        obs = tuple(float(t) for t in self.obs_times)
        if len(obs) == 0:
            raise ValueError("obs_times must not be empty")
        if any(b - a <= 0 for a, b in zip(obs, obs[1:])):
            raise ValueError("obs_times must be strictly increasing")
        if obs[0] < 0 or obs[-1] > self.t_max:
            raise ValueError("obs_times must lie within [0, t_max]")
        if self.particle_cap < 1:
            raise ValueError("particle_cap must be >= 1")
        object.__setattr__(self, "obs_times", obs)

    @property
    def drift_vector(self) -> tuple:
        d = self.mc.d
        try:
            vec = tuple(float(v) for v in self.drift)
        except TypeError:
            vec = (float(self.drift),) + (0.0,) * (d - 1)
        if len(vec) != d:
            raise ValueError(f"drift has dimension {len(vec)}, expected {d}")
        return vec


@dataclass(frozen=True)
class LogRecord:
    """One genealogy event.

    kind is one of 'birth-root', 'branch', 'candidate-rejected', 'observed'.
    """

    event_time: float
    particle_id: int
    kind: str
    position: tuple
    parent_id: int | None


_KINDS = ("birth-root", "branch", "candidate-rejected", "observed")
_ROOT, _BRANCH, _REJECTED, _OBSERVED = range(4)


class GenealogyLog:
    """Event log of one run, held as columns.

    ``_columns()`` gives arrays of event time, particle id, kind (an index
    into ``_KINDS``), position (n, d) and parent id (-1 for the root), sorted
    stably by event time.  :class:`LogRecord` objects are built only when
    the log is iterated or exported.

    Branch events are strictly dyadic; the two children of a branching
    particle appear in later records carrying its id as ``parent_id``.
    Provided the observation grid includes the horizon, every particle ever
    alive is referenced by at least one record, so the full tree can be
    reconstructed from the log alone.
    """

    def __init__(self):
        self._chunks = []
        self._cols = None

    def _add(self, time, ids, kind, pos, parents):
        self._chunks.append((time, ids, kind, pos, parents))
        self._cols = None

    def _columns(self):
        """(time, particle_id, kind, position, parent_id) arrays in time order."""
        if self._cols is None:
            if not self._chunks:
                ints = np.empty(0, dtype=np.int64)
                return np.empty(0), ints, np.empty(0, dtype=np.int8), np.empty((0, 0)), ints
            cols = [np.concatenate(c) for c in zip(*self._chunks)]
            order = np.argsort(cols[0], kind="stable")
            self._cols = tuple(c[order] for c in cols)
            self._chunks = [self._cols]
        return self._cols

    def _select(self, mask) -> "GenealogyLog":
        out = GenealogyLog()
        out._add(*(c[mask] for c in self._columns()))
        return out

    @property
    def records(self) -> list:
        return list(self)

    def __len__(self):
        return sum(len(c[0]) for c in self._chunks)

    def __iter__(self):
        time, ids, kind, pos, parents = (c.tolist() for c in self._columns())
        for t, i, k, x, par in zip(time, ids, kind, pos, parents):
            yield LogRecord(t, i, _KINDS[k], tuple(x), None if par < 0 else par)

    def to_jsonl(self, path, header: str | None = None):
        """Line-delimited JSON export, one record per line."""
        with open(path, "w") as fh:
            if header:
                for line in header.splitlines():
                    fh.write(f"# {line}\n")
            for r in self:
                fh.write(json.dumps(asdict(r)) + "\n")


@dataclass
class GrowthCurve:
    """Observables on the observation grid.

    counts are total population sizes (non-decreasing: there are no deaths),
    local_counts holds one array per configured ball, radial_max is the
    running maximum distance from the origin over all particle event
    positions up to each observation time, and rates holds
    log(count)/t (NaN at t = 0).
    """

    times: np.ndarray
    counts: np.ndarray
    local_counts: dict
    radial_max: np.ndarray
    rates: np.ndarray

    def to_csv(self, path, header: str | None = None):
        names = list(self.local_counts)
        with open(path, "w") as fh:
            if header:
                for line in header.splitlines():
                    fh.write(f"# {line}\n")
            cols = ["t", "count"] + [f"local_{n}" for n in names] + ["M", "r_t"]
            fh.write(",".join(cols) + "\n")
            for k, t in enumerate(self.times):
                row = [f"{t:.12g}", str(int(self.counts[k]))]
                row += [str(int(self.local_counts[n][k])) for n in names]
                row += [f"{self.radial_max[k]:.12g}", f"{self.rates[k]:.12g}"]
                fh.write(",".join(row) + "\n")


class ParticleCapExceeded(RuntimeError):
    """Raised when the live population outgrows ``particle_cap``.

    Carries the partial observables collected before truncation; such a run
    is invalid for unbiased statistics and must be excluded (and counted)
    by campaigns.
    """

    def __init__(self, message, growth_curve, genealogy):
        super().__init__(message)
        self.growth_curve = growth_curve
        self.genealogy = genealogy


def _curve(config, rows):
    times = np.asarray(config.obs_times[: len(rows)])
    counts = np.asarray([r[0] for r in rows], dtype=np.int64)
    radial = np.asarray([r[1] for r in rows])
    locals_ = {
        b.name: np.asarray([r[2][q] for r in rows], dtype=np.int64)
        for q, b in enumerate(config.balls)
    }
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.where(times > 0, np.log(np.maximum(counts, 1)) / np.where(times > 0, times, 1.0), np.nan)
    return GrowthCurve(times=times, counts=counts, local_counts=locals_, radial_max=radial, rates=rates)


# rows per block in the steps whose temporaries grow with the population
_CHUNK = 1 << 16


def _sq_dist(pos, center):
    """Squared distance of each row of ``pos`` from ``center``."""
    delta = pos - center
    return (delta * delta).sum(axis=1)


def _inside(pos, center, radius):
    """Row mask of the points of ``pos`` inside the open ball B(center, radius)."""
    return _sq_dist(pos, np.asarray(center, dtype=float)) < radius * radius


def _blocked(field, p):
    """``field.is_blocked`` of each row of ``p``, asked in row order.

    Rows are converted to Python lists a chunk at a time, so the temporary
    objects stay bounded however many candidates a round holds.
    """
    out = np.empty(len(p), dtype=bool)
    for lo in range(0, len(p), _CHUNK):
        chunk = p[lo : lo + _CHUNK].tolist()
        out[lo : lo + len(chunk)] = np.fromiter(map(field.is_blocked, chunk), dtype=bool, count=len(chunk))
    return out


def _without(rows, *cols):
    """The columns with the given row indices removed."""
    stay = np.ones(len(cols[0]), dtype=bool)
    stay[rows] = False
    return tuple(c[stay] for c in cols)


def _simulate(config, field=None, keep_log=True, focus=None, prune_tol=0.0):
    """One run in array rounds.  Returns (GrowthCurve, GenealogyLog, stats dict).

    ``field=None`` accepts every candidate (the free process); otherwise
    ``field.is_blocked`` is asked once per candidate that is not pruned.
    With ``focus = (center, radius)`` particles whose expected free-population
    contribution to that ball at every remaining observation time falls below
    ``prune_tol`` are discarded; the summed bound on discarded contributions
    is reported in the stats.  Counts and radial extent then describe the
    retained window population only.
    """
    d, beta = config.mc.d, config.mc.beta
    mean_gap = 1.0 / beta
    drift = np.asarray(config.drift_vector)
    rng = np.random.default_rng(config.seed)
    obs = config.obs_times
    log = GenealogyLog()
    # the live population, one row per particle; ``last`` is the time of ``pos``
    pos = np.zeros((1, d))
    last = np.zeros(1)
    clock = rng.exponential(mean_gap, 1)
    ids = np.zeros(1, dtype=np.int64)
    parents = np.full(1, -1, dtype=np.int64)
    next_id = 1
    r2max = 0.0
    rows = []
    pruned = 0
    leak_bound = 0.0
    if keep_log:
        log._add(last.copy(), ids.copy(), np.full(1, _ROOT, dtype=np.int8), pos.copy(), parents.copy())

    prune = focus is not None and prune_tol > 0
    if prune:
        f_center = np.atleast_1d(np.asarray(focus[0], dtype=float))
        f_radius = float(focus[1])
        gain = -math.log(prune_tol)
        b_norm = math.hypot(*config.drift_vector)
        t_last = obs[-1]

    def reach(tau):
        """Rows within this distance of the focus centre, tau before t_last,
        still expect prune_tol free descendants in the ball at t_last."""
        return f_radius + math.sqrt(2.0 * tau * (beta * tau + gain)) - b_norm * tau

    def doomed(p, s, future, safe):
        """Rows to prune; their summed bound is added to the leak.

        A row is kept if the Chernoff bound on its expected free descendants
        in the focus ball reaches prune_tol at some future observation time;
        rows closer than ``safe`` to the centre pass without the full check.
        The check runs in blocks of rows, which bounds its temporaries.
        """
        nonlocal pruned, leak_bound
        far = np.flatnonzero(_sq_dist(p, f_center) > safe * safe) if safe > 0.0 else np.arange(len(p))
        if far.size == 0:
            return far
        lost = np.empty(far.size, dtype=bool)
        for lo in range(0, far.size, _CHUNK):
            rows = far[lo : lo + _CHUNK]
            tau = future[None, :] - s[rows, None]
            delta = p[rows, None, :] + tau[:, :, None] * drift - f_center
            gap = np.maximum(np.sqrt((delta * delta).sum(axis=2)) - f_radius, 0.0)
            expo = beta * tau - gap * gap / (2.0 * tau)
            out = (expo < -gain).all(axis=1)
            lost[lo : lo + rows.size] = out
            leak_bound += float(np.exp(expo[out]).sum())
        pruned += int(np.count_nonzero(lost))
        return far[lost]

    for oi, T in enumerate(obs):
        future = np.asarray(obs[oi:])
        if prune:
            # reach() is concave, so its minimum over the epoch is at an end
            safe = min(reach(t_last - T), reach(t_last - (obs[oi - 1] if oi else 0.0)))
        while True:
            # one round: every particle with a candidate before T steps to it
            due = (clock < T).nonzero()[0]
            if due.size == 0:
                break
            tc = clock[due]
            dt = tc - last[due]
            p = pos[due] + dt[:, None] * drift + np.sqrt(dt)[:, None] * rng.standard_normal((due.size, d))
            r2max = max(r2max, float((p * p).sum(axis=1).max()))
            gone = due[:0]
            if prune:
                lost = doomed(p, tc, future, safe)
                if lost.size:
                    gone = due[lost]
                    due, tc, p = _without(lost, due, tc, p)
            if field is None:
                split = np.ones(due.size, dtype=bool)
            else:
                split = ~_blocked(field, p)
            if keep_log:
                kinds = np.where(split, _BRANCH, _REJECTED).astype(np.int8)
                log._add(tc, ids[due], kinds, p, parents[due])
            n_split = int(np.count_nonzero(split))
            if len(pos) - gone.size + n_split > config.particle_cap:
                raise ParticleCapExceeded(
                    f"particle cap {config.particle_cap} exceeded before t={T:.6g}",
                    _curve(config, rows),
                    log,
                )
            # every stepped row moves to its candidate with a fresh clock; an
            # accepted candidate's row becomes its first child, and the
            # second child is appended
            pos[due] = p
            last[due] = tc
            clock[due] = tc + rng.exponential(mean_gap, due.size)
            if n_split:
                mother = due[split]
                first = np.arange(next_id, next_id + 2 * n_split)
                parents[mother] = ids[mother]
                ids[mother] = first[:n_split]
                pos = np.concatenate([pos, p[split]])
                last = np.concatenate([last, tc[split]])
                clock = np.concatenate([clock, tc[split] + rng.exponential(mean_gap, n_split)])
                parents = np.concatenate([parents, parents[mother]])
                ids = np.concatenate([ids, first[n_split:]])
                next_id += 2 * n_split
            if gone.size:
                pos, last, clock, ids, parents = _without(gone, pos, last, clock, ids, parents)
        # observation barrier: exact Gaussian positions at T for everyone
        dt = T - last
        pos = pos + dt[:, None] * drift + np.sqrt(dt)[:, None] * rng.standard_normal(pos.shape)
        last = np.full(len(pos), T)
        if len(pos):
            r2max = max(r2max, float((pos * pos).sum(axis=1).max()))
        local_row = [int(np.count_nonzero(_inside(pos, b.center, b.radius))) for b in config.balls]
        if keep_log:
            log._add(last.copy(), ids.copy(), np.full(len(pos), _OBSERVED, dtype=np.int8), pos.copy(), parents.copy())
        rows.append((len(pos), math.sqrt(r2max), local_row))
        if prune and oi + 1 < len(obs):
            lost = doomed(pos, last, future[1:], reach(t_last - T))
            if lost.size:
                pos, last, clock, ids, parents = _without(lost, pos, last, clock, ids, parents)

    stats = {"pruned": pruned, "leak_bound": leak_bound, "final_id": next_id}
    return _curve(config, rows), log, stats


def run_bbm(config: SimConfig, field: ObstacleField):
    """Simulate one run among obstacles; returns (GrowthCurve, GenealogyLog).

    Raises :class:`ParticleCapExceeded` (carrying partial results) if the
    population outgrows ``config.particle_cap``.
    """
    curve, log, _ = _simulate(config, field=field)
    return curve, log


def run_free_bbm(config: SimConfig):
    """Simulate one obstacle-free run (every candidate accepted)."""
    curve, log, _ = _simulate(config)
    return curve, log


# -- log post-processing -------------------------------------------------------


def _tree_from_log(log: GenealogyLog):
    """(branch events, children map) reconstructed from a log.

    Requires the log to reference every particle at least once, which the
    engine guarantees when the observation grid includes the horizon.
    """
    time, ids, kind, pos, parents = log._columns()
    at = kind == _BRANCH
    branch = {
        i: (t, tuple(x)) for i, t, x in zip(ids[at].tolist(), time[at].tolist(), pos[at].tolist())
    }
    children = {}
    for i, par in zip(ids.tolist(), parents.tolist()):
        if par >= 0:
            children.setdefault(par, set()).add(i)
    return branch, children


def trim_coupling(free_log: GenealogyLog, field: ObstacleField, seed: int) -> GenealogyLog:
    """Trim a free-run log into an obstacle-run law.

    For every branch event whose position is blocked, one of the two
    emanating subtrees (fair coin) is deleted.  The population process of
    the returned log has the same law as one produced by :func:`run_bbm`
    on the same field.
    """
    branch, children = _tree_from_log(free_log)
    rng = random.Random(seed)
    deleted = set()
    for pid, (bt, pos) in sorted(branch.items(), key=lambda kv: (kv[1][0], kv[0])):
        kids = sorted(children.get(pid, ()))
        if len(kids) != 2:
            raise ValueError(
                "incomplete genealogy: ensure obs_times covers the horizon so "
                "every particle is referenced by the log"
            )
        if pid in deleted:
            deleted.update(kids)
        elif field.is_blocked(pos):
            deleted.add(kids[0] if rng.random() < 0.5 else kids[1])
    ids = free_log._columns()[1]
    return free_log._select(~np.isin(ids, np.fromiter(deleted, dtype=np.int64, count=len(deleted))))


def _observed_at(log: GenealogyLog, t: float) -> np.ndarray:
    """Positions of the particles observed at time t, one row each."""
    time, _, kind, pos, _ = log._columns()
    at = (kind == _OBSERVED) & (np.abs(time - t) <= 1e-12 * max(1.0, abs(t)))
    if not at.any():
        raise ValueError(f"time {t} is not an observation time of this log")
    return pos[at]


def population_at(log: GenealogyLog, t: float) -> int:
    """|Z_t| read back from a log's observation records."""
    return len(_observed_at(log, t))


def local_mass(log: GenealogyLog, t: float, center, radius: float) -> int:
    """Number of particles alive at observation time t inside B(center, radius).

    The ball is open; ``radius = 0`` always yields 0.
    """
    return int(np.count_nonzero(_inside(_observed_at(log, t), np.atleast_1d(center), radius)))


# -- local growth / local extinction experiment ---------------------------------


def dichotomy_experiment(
    b,
    beta,
    nu,
    a,
    t_max,
    runs,
    *,
    d=1,
    seed=0,
    obs_times=None,
    ball_center=None,
    ball_radius=1.0,
    particle_cap=8_000_000,
    prune_tol=1e-8,
    cell_size=None,
    surv_gate=0.05,
) -> dict:
    """Survival and local growth of the drifted process in a fixed ball.

    Each run draws a fresh environment and records the population of the
    open ball B(ball_center, ball_radius) on the observation grid (default:
    six times from t_max/3 to t_max).  The report compares the observed
    behaviour against the crossover beta = b^2/2: below it the ball empties,
    above it local mass grows with positive probability, at any obstacle
    intensity, and its first moment grows at the exponential rate
    beta - b^2/2 as t -> infinity (``expected_local_exponent``).  At finite
    horizons the observed rate is smaller: the rate is reached only through
    ever larger obstacle-free stretches.

    The observed label is "extinct-like" when at most ``surv_gate`` of the
    runs hold a particle in the ball at t_max, else "growing" when the
    slope of the log of the mean local count over the observation times is
    positive, else "ambiguous".  The mean is used because growth is
    promised only with positive probability: where fewer than half the runs
    reach the ball the median is 0 at every time.  The median and the mean
    local counts, with the standard error of the mean, are reported too.

    Total population at these horizons is astronomically large, so runs
    discard particles whose expected descendant contribution to the ball at
    every remaining observation time is below ``prune_tol`` (a Chernoff
    bound against the free process, which dominates the obstacle process).
    The summed bound over all discarded subtrees is returned as
    ``leak_bound_total``; with default settings it is far below one expected
    particle across the whole campaign.

    The pruning window still holds millions of particles in the heaviest
    runs: on gate 8b's 25 fields (b = 1, beta = 0.8, t = 30) the largest
    per-run peak over eleven run streams was 4.0M.  A held row costs about
    100 bytes at peak (its state plus a round's temporaries, which the row
    blocks keep small), so the default ``particle_cap`` of 8M bounds a run
    near 0.8 GB.  Runs that outgrow it are excluded and counted in
    ``truncated_runs``.
    """
    if obs_times is None:
        obs_times = tuple(np.linspace(t_max / 3.0, t_max, 6))
    mc = ModelConstants(d=d, nu=nu, beta=beta, a=a)
    if ball_center is None:
        center = (0.0,) * d
    else:
        center = tuple(float(v) for v in np.atleast_1d(ball_center))
    ball = Ball("target", center, ball_radius)
    lam_c = lambda_c_constant_drift(b)

    locals_per_run = []
    truncated = 0
    pruned_total = 0
    leak_total = 0.0
    for i in range(runs):
        field = ObstacleField(d, nu, a, derive_seed(seed, "env", i), cell_size)
        config = SimConfig(
            mc=mc,
            t_max=t_max,
            obs_times=obs_times,
            drift=b,
            particle_cap=particle_cap,
            seed=derive_seed(seed, "run", i),
            balls=(ball,),
        )
        try:
            curve, _, stats = _simulate(
                config, field=field, keep_log=False, focus=(center, ball_radius), prune_tol=prune_tol
            )
        except ParticleCapExceeded:
            truncated += 1
            continue
        locals_per_run.append(curve.local_counts["target"])
        pruned_total += stats["pruned"]
        leak_total += stats["leak_bound"]

    counts = np.asarray(locals_per_run, dtype=float).reshape(-1, len(obs_times))
    n_ok = len(counts)
    if n_ok:
        survival_fraction = float((counts[:, -1] > 0).mean())
        median_counts, mean_counts = np.median(counts, axis=0), counts.mean(axis=0)
        mean_se = counts.std(axis=0, ddof=1) / math.sqrt(n_ok) if n_ok > 1 else np.full(len(obs_times), np.nan)
    else:
        survival_fraction = float("nan")
        median_counts = mean_counts = mean_se = np.zeros(0)
    ts = np.asarray(obs_times)
    pos = mean_counts > 0
    slope = None
    if pos.sum() >= 2:
        # least-squares slope in closed form: np.polyfit's LAPACK call costs
        # more than the fit itself on six points
        dt = ts[pos] - ts[pos].mean()
        slope = float(np.dot(dt, np.log(mean_counts[pos])) / np.dot(dt, dt))
    if survival_fraction <= surv_gate:
        label = "extinct-like"
    elif slope is not None and slope > 0:
        label = "growing"
    else:
        label = "ambiguous"
    return {
        "params": {
            "d": d,
            "b": b,
            "beta": beta,
            "nu": nu,
            "a": a,
            "t_max": t_max,
            "runs": runs,
            "ball_center": list(center),
            "ball_radius": ball_radius,
            "prune_tol": prune_tol,
            "particle_cap": particle_cap,
            "seed": seed,
            "surv_gate": surv_gate,
        },
        "obs_times": [float(t) for t in obs_times],
        "lambda_c": lam_c,
        "threshold": 0.5 * float(np.dot(np.atleast_1d(b), np.atleast_1d(b))),
        "expected_local_exponent": beta + lam_c,
        "predicted_regime": "growing" if beta + lam_c > 0 else "extinct-like",
        "survival_fraction": survival_fraction,
        "median_local_counts": [float(c) for c in median_counts],
        "mean_local_counts": [float(c) for c in mean_counts],
        "mean_local_se": [float(c) for c in mean_se],
        "slope": slope,
        "observed_label": label,
        "truncated_runs": truncated,
        "pruned_subtrees": pruned_total,
        "leak_bound_total": leak_total,
    }
