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

Replicates are independent runs, and many of them can be stepped as one
batch (:func:`run_batch`): the rows of every run share the arrays, with a
``run`` column naming each row's run, so a round steps the due rows of all
runs at once and its per-round cost is paid once per batch instead of once
per run.  Each run's candidates are decided by its own field.  In d = 1 a
round asks one table: runs that share a field ask its ``is_blocked_many``,
and runs on distinct fields ask a
:class:`~mildbbm.environment.StackedTable` owned by the batch, with a row
per field, so a whole round is answered by one gather; both give the exact
scalar rule's answers.  In d >= 2 each candidate asks its field's scalar
``is_blocked``.  Each run draws from its own numpy Generator, seeded by its
run seed; a round's draws are taken run by run, in row order within each
run, in the order a run alone would take them.  A run is therefore a
function of its seed and its field alone, the same in a batch as alone
(``run_bbm`` is a batch of one), and never depends on scheduling, on the
other runs of its batch, or on their truncation.
Within a campaign, run seeds are derived as hash(master seed, run index).

Held rows stay bounded by one heavy run rather than by the sum over runs:
when a batch holds more than ``_ROW_BUDGET`` rows of two or more runs, its
heaviest runs, as many as the budget needs, are taken out with their state
in one pass and finished alone, heaviest first.  The particle cap is
checked per run; a run over it is dropped from the batch, marked
truncated, and the others carry on.  :func:`run_bbm` is the batch of one
run that keeps its genealogy log.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import ModelConstants, drift_vector, lambda_c_constant_drift
from .environment import ObstacleField, StackedTable, write_header, write_table
from .seeds import derive_seed

__all__ = [
    "Ball",
    "SimConfig",
    "LogRecord",
    "GenealogyLog",
    "GrowthCurve",
    "ParticleCapExceeded",
    "run_bbm",
    "run_batch",
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
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        obs = tuple(float(t) for t in self.obs_times)
        if len(obs) == 0:
            raise ValueError("obs_times must not be empty")
        if not all(map(math.isfinite, obs)):
            raise ValueError(f"obs_times must be finite, got {obs}")
        if any(b - a <= 0 for a, b in zip(obs, obs[1:])):
            raise ValueError("obs_times must be strictly increasing")
        if obs[0] < 0 or obs[-1] > self.t_max:
            raise ValueError("obs_times must lie within [0, t_max]")
        if self.particle_cap < 1:
            raise ValueError("particle_cap must be >= 1")
        drift_vector(self.drift, self.mc.d)  # raises unless d finite components
        object.__setattr__(self, "obs_times", obs)

    @property
    def drift_vector(self) -> tuple:
        return drift_vector(self.drift, self.mc.d)


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
# the kind of a decided candidate, indexed by whether it split
_DECIDED = np.array([_REJECTED, _BRANCH], dtype=np.int8)


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
            write_header(fh, header)
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
        cols = ["t", "count"] + [f"local_{n}" for n in names] + ["M", "r_t"]
        locals_ = [self.local_counts[n] for n in names]
        write_table(path, cols, zip(self.times, self.counts, *locals_, self.radial_max, self.rates), header)


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


def _curve(config, counts, radial, local):
    """GrowthCurve of one run from its first ``len(counts)`` observations."""
    times = np.asarray(config.obs_times[: len(counts)])
    locals_ = {b.name: local[q] for q, b in enumerate(config.balls)}
    rates = np.full(len(times), np.nan)
    later = times > 0
    rates[later] = np.log(np.maximum(counts[later], 1)) / times[later]
    return GrowthCurve(times=times, counts=counts, local_counts=locals_, radial_max=radial, rates=rates)


# rows per block in the steps whose temporaries grow with the population
_CHUNK = 1 << 16
# rows a batch holds before its heaviest run is set aside and finished alone
_ROW_BUDGET = 1 << 16


def _sq_dist(pos, center):
    """Squared distance of each row of ``pos`` from ``center``."""
    delta = pos - center
    return (delta * delta).sum(axis=1)


def _inside(pos, center, radius):
    """Row mask of the points of ``pos`` inside the open ball B(center, radius)."""
    return _sq_dist(pos, np.asarray(center, dtype=float)) < radius * radius


def _ask(query, point):
    return query(point)


def _scalar_asker(fields):
    """Per-row queries for d >= 2: ``fields[run[i]].is_blocked(p[i])`` in
    row order, or one field's query for every row when all runs share it."""
    if all(f is fields[0] for f in fields):
        query = fields[0].is_blocked
        return lambda p, run: np.fromiter(map(query, p.tolist()), dtype=bool, count=len(p))
    queries = [f.is_blocked for f in fields]
    return lambda p, run: np.fromiter(
        map(_ask, map(queries.__getitem__, run.tolist()), p.tolist()), dtype=bool, count=len(p)
    )


def _table_asker(fields):
    """Bulk queries for d = 1, one call per block of rows.

    Runs that share one field ask its own ``is_blocked_many`` (and its warm
    table); runs on distinct fields ask a :class:`StackedTable` with one
    row per distinct field.  Returns the asker and the stacked table (None
    for a shared field).
    """
    if all(f is fields[0] for f in fields):
        many = fields[0].is_blocked_many
        return (lambda p, run: many(p[:, 0])), None
    index = {}
    row_of = np.asarray([index.setdefault(id(f), len(index)) for f in fields])
    table = StackedTable(list({id(f): f for f in fields}.values()))
    return (lambda p, run: table.is_blocked(p[:, 0], row_of[run])), table


def _blocked(ask, p, run):
    """``ask`` over blocks of at most ``_CHUNK`` rows, so the temporaries of
    a query stay bounded however many candidates a round holds."""
    if len(p) <= _CHUNK:
        return ask(p, run)
    out = np.empty(len(p), dtype=bool)
    for lo in range(0, len(p), _CHUNK):
        out[lo : lo + _CHUNK] = ask(p[lo : lo + _CHUNK], run[lo : lo + _CHUNK])
    return out


def _drop(rows, gone):
    """Remove the rows with indices ``gone`` from a dict of columns, in place,
    a column at a time so that one column is copied at once."""
    stay = np.ones(len(rows["run"]), dtype=bool)
    stay[gone] = False
    for key in rows:
        rows[key] = rows[key][stay]


class _Batch:
    """A batch of runs of one config, stepped as one set of arrays.

    The live particles of every run are rows of the columns ``pos``,
    ``last`` (the time of ``pos``), ``clock`` (the next candidate time) and
    ``run`` (the run's index), plus ``ids`` and ``parents`` when a log is
    kept.  Observations, pruning and truncation are kept per run.
    ``ask(p, run)`` answers whether the candidates at ``p`` are blocked
    (None for the free process), and ``table`` is the batch's own stacked
    table, if it has one.
    """

    def __init__(self, config, fields, seeds, keep_log, focus, prune_tol):
        n = len(fields)
        if n == 0 or len(seeds) != n:
            raise ValueError(f"a batch needs one seed per field and at least one run, got {len(seeds)} and {n}")
        if any(f is None for f in fields) and not all(f is None for f in fields):
            raise ValueError("a batch runs either the free process (every field None) or among obstacles (no field None)")
        self.config = config
        self.d, self.mean_gap = config.mc.d, 1.0 / config.mc.beta
        self.table = None
        if fields[0] is None:
            self.ask = None
        elif self.d == 1:
            self.ask, self.table = _table_asker(fields)
        else:
            self.ask = _scalar_asker(fields)
        self.gens = [np.random.default_rng(seed) for seed in seeds]
        # None for no drift: adding 0.0 would change nothing but a zero's sign
        drift = config.drift_vector
        self.drift = np.asarray(drift) if any(drift) else None
        self.log = GenealogyLog() if keep_log else None
        n_obs, n_balls = len(config.obs_times), len(config.balls)
        self.counts = np.zeros((n, n_obs), dtype=np.int64)
        self.local = np.zeros((n, n_balls, n_obs), dtype=np.int64)
        self.radial = np.zeros((n, n_obs))  # squared until curves()
        self.r2max = np.zeros(n)
        self.seen = np.full(n, n_obs)  # observations a run completed
        self.truncated = np.zeros(n, dtype=bool)
        self.pruned = np.zeros(n, dtype=np.int64)
        self.leak = np.zeros(n)
        self.events = self.rejected = self.rounds = 0
        self.next_id = n
        self.prune = focus is not None and prune_tol > 0
        if self.prune:
            self.f_center = np.atleast_1d(np.asarray(focus[0], dtype=float))
            self.f_radius = float(focus[1])
            self.gain = -math.log(prune_tol)
            self.b_norm = math.hypot(*drift)

    def start(self):
        """Rows of one particle at the origin per run."""
        n, d = len(self.seen), self.config.mc.d
        rows = {
            "pos": np.zeros((n, d)),
            "last": np.zeros(n),
            "run": np.arange(n),
        }
        rows["clock"] = self.draws([rows["run"]], self.gaps)
        if self.log is not None:
            rows["ids"] = np.arange(n)
            rows["parents"] = np.full(n, -1)
            self.log._add(rows["last"].copy(), rows["ids"].copy(), np.full(n, _ROOT, dtype=np.int8),
                          rows["pos"].copy(), rows["parents"].copy())
        return rows

    def draws(self, runs, draw):
        """``draw(generator, m)`` for rows of the run arrays ``runs``, end to end.

        Each run's rows are drawn from its own Generator in one call, in row
        order (the rows of ``runs[0]`` first), so a run's stream does not
        depend on the other runs of the batch.
        """
        if len(self.gens) == 1:
            return draw(self.gens[0], sum(map(len, runs)))
        run = np.concatenate(runs)
        counts = np.bincount(run, minlength=len(self.gens))
        who = np.flatnonzero(counts).tolist()
        if len(who) < 2:
            return draw(self.gens[who[0] if who else 0], len(run))
        parts = np.concatenate([draw(self.gens[r], m) for r, m in zip(who, counts[who].tolist())])
        out = np.empty_like(parts)
        out[np.argsort(run, kind="stable")] = parts
        return out

    def gaps(self, gen, m):
        """m candidate gaps, exponential of rate beta."""
        return gen.exponential(self.mean_gap, m)

    def steps(self, gen, m):
        """m standard Gaussian vectors."""
        return gen.standard_normal((m, self.d))

    def moved(self, pos, dt, runs):
        """``pos`` moved on by ``dt`` in place: + drift*dt + sqrt(dt)*N(0, I).

        The sums are rounded as in ``pos + drift*dt + sqrt(dt)*N``; working in
        place keeps a round's temporaries to two arrays of the stepped rows.
        """
        step = self.draws(runs, self.steps)
        step *= np.sqrt(dt)[:, None]
        if self.drift is not None:
            pos += dt[:, None] * self.drift
        pos += step
        return pos

    def reach(self, tau):
        """Rows within this distance of the focus centre, tau before the
        last observation, still expect prune_tol free descendants in the
        ball then."""
        beta = self.config.mc.beta
        return self.f_radius + math.sqrt(2.0 * tau * (beta * tau + self.gain)) - self.b_norm * tau

    def doomed(self, p, s, run, future, safe):
        """Indices of the rows to prune; their bounds go to their runs' leaks.

        A row is kept if the Chernoff bound on its expected free descendants
        in the focus ball reaches prune_tol at some future observation time;
        rows closer than ``safe`` to the centre pass without the full check.
        The check runs in blocks of rows, which bounds its temporaries.
        """
        beta = self.config.mc.beta
        far = np.flatnonzero(_sq_dist(p, self.f_center) > safe * safe) if safe > 0.0 else np.arange(len(p))
        lost = np.zeros(far.size, dtype=bool)
        for lo in range(0, far.size, _CHUNK):
            rows = far[lo : lo + _CHUNK]
            tau = future[None, :] - s[rows, None]
            delta = p[rows, None, :]
            if self.drift is not None:
                delta = delta + tau[:, :, None] * self.drift
            delta = delta - self.f_center
            gap = np.maximum(np.sqrt((delta * delta).sum(axis=2)) - self.f_radius, 0.0)
            expo = beta * tau - gap * gap / (2.0 * tau)
            out = (expo < -self.gain).all(axis=1)
            lost[lo : lo + rows.size] = out
            if out.any():
                bound = np.exp(expo[out]).sum(axis=1)
                self.leak += np.bincount(run[rows[out]], weights=bound, minlength=len(self.leak))
        gone = far[lost]
        if gone.size:
            self.pruned += np.bincount(run[gone], minlength=len(self.pruned))
        return gone

    def advance(self, rows, owned, k0):
        """Step ``rows``, the particles of the runs ``owned`` (an index of the
        per-run arrays: a slice for a whole batch), from inside epoch ``k0``
        to the last observation time."""
        obs = self.config.obs_times
        most = self.most(owned)
        for k in range(k0, len(obs)):
            future = np.asarray(obs[k:])
            safe = 0.0
            if self.prune:
                # reach() is concave, so its minimum over the epoch is at an end
                safe = min(self.reach(obs[-1] - obs[k]), self.reach(obs[-1] - (obs[k - 1] if k else 0.0)))
            while self.round(rows, future, safe):
                if len(rows["run"]) > most:
                    owned = self.limit(rows, owned, k)
                    most = self.most(owned)
            self.observe(rows, owned, k)

    def most(self, owned):
        """Rows past which :meth:`limit` has work for the runs ``owned``: the
        row budget binds only while they are two or more."""
        cap = self.config.particle_cap
        return cap if np.arange(len(self.seen))[owned].size == 1 else min(cap, _ROW_BUDGET)

    def round(self, rows, future, safe):
        """One round: every row with a candidate before ``future[0]`` steps
        to it.  Returns False, stepping nothing, when no row is due.

        The round's temporaries go when it returns, so none of them is held
        while a run set aside by :meth:`limit` is finished.
        """
        log = self.log
        due = (rows["clock"] < future[0]).nonzero()[0]
        if due.size == 0:
            return False
        self.rounds += 1
        tc = rows["clock"][due]
        run = rows["run"][due]
        p = self.moved(rows["pos"][due], tc - rows["last"][due], [run])
        np.maximum.at(self.r2max, run, (p * p).sum(axis=1))
        gone = None
        if self.prune:
            lost = self.doomed(p, tc, run, future, safe)
            if lost.size:
                gone = due[lost]
                stay = np.ones(due.size, dtype=bool)
                stay[lost] = False
                # one column at a time, to bound the copies
                due = due[stay]
                tc = tc[stay]
                p = p[stay]
                run = run[stay]
        if self.ask is None:
            split = np.ones(due.size, dtype=bool)
        else:
            split = ~_blocked(self.ask, p, run)
        n_split = int(np.count_nonzero(split))
        self.events += due.size
        self.rejected += due.size - n_split
        if log is not None:
            log._add(tc, rows["ids"][due], _DECIDED[split.view(np.uint8)], p, rows["parents"][due])
        # every stepped row moves to its candidate with a fresh clock; an
        # accepted candidate's row becomes its first child, and the second
        # child is appended.  A run's fresh gaps are drawn in one call, its
        # stepped rows' before its second children's.
        born_run = run[split]
        gaps = self.draws([run, born_run], self.gaps)
        rows["pos"][due] = p
        rows["last"][due] = tc
        rows["clock"][due] = tc + gaps[: due.size]
        if n_split:
            if log is not None:
                mother = due[split]
                ids, parents = rows["ids"], rows["parents"]
                parents[mother] = ids[mother]
                ids[mother] = np.arange(self.next_id, self.next_id + n_split)
                rows["ids"] = np.concatenate([ids, np.arange(self.next_id + n_split, self.next_id + 2 * n_split)])
                rows["parents"] = np.concatenate([parents, parents[mother]])
            self.next_id += 2 * n_split
            # a column at a time, to bound the copies
            tc = tc[split]
            rows["pos"] = np.concatenate([rows["pos"], p[split]])
            rows["last"] = np.concatenate([rows["last"], tc])
            rows["clock"] = np.concatenate([rows["clock"], tc + gaps[due.size :]])
            rows["run"] = np.concatenate([rows["run"], born_run])
        if gone is not None:
            _drop(rows, gone)
        return True

    def observe(self, rows, owned, k):
        """Observation barrier at obs_times[k]: exact Gaussian positions for
        every row, per-run counts, then pruning for the next epoch."""
        config, n = self.config, len(self.seen)
        T = config.obs_times[k]
        pos = self.moved(rows["pos"], T - rows["last"], [rows["run"]])
        rows["last"].fill(T)
        run = rows["run"]
        if len(pos):
            np.maximum.at(self.r2max, run, (pos * pos).sum(axis=1))
        self.counts[owned, k] = np.bincount(run, minlength=n)[owned]
        self.radial[owned, k] = self.r2max[owned]
        for q, b in enumerate(config.balls):
            self.local[owned, q, k] = np.bincount(run[_inside(pos, b.center, b.radius)], minlength=n)[owned]
        if self.log is not None:
            self.log._add(rows["last"].copy(), rows["ids"].copy(), np.full(len(pos), _OBSERVED, dtype=np.int8),
                          pos.copy(), rows["parents"].copy())
        if self.prune and k + 1 < len(config.obs_times):
            obs = config.obs_times
            lost = self.doomed(pos, rows["last"], run, np.asarray(obs[k + 1 :]), self.reach(obs[-1] - T))
            if lost.size:
                _drop(rows, lost)

    def limit(self, rows, owned, k):
        """Apply the particle cap per run, then the batch's row budget, at
        the end of a round in epoch k.  Returns the runs still owned.

        A run holding more than ``particle_cap`` rows is dropped and marked
        truncated.  Then, while more than ``_ROW_BUDGET`` rows of two or
        more runs would stay, the heaviest runs (ties to the lower index)
        are taken out with their state, all in one pass, and finished alone
        one after another, heaviest first.  A round at most doubles the
        rows, so the rows held at once stay within twice the budget plus
        those of the run being finished.
        """
        cap, n = self.config.particle_cap, len(self.seen)
        size = np.bincount(rows["run"], minlength=n)
        over = np.flatnonzero(size > cap)
        self.truncated[over] = True
        self.seen[over] = k
        size[over] = 0
        # the heaviest runs, ties to the lower index, until the rest fit the
        # budget; one run with rows always stays
        heavy, left = [], int(size.sum())
        for run in np.argsort(-size, kind="stable")[: np.count_nonzero(size) - 1].tolist():
            if left <= _ROW_BUDGET:
                break
            heavy.append(run)
            left -= int(size[run])
        if over.size == 0 and not heavy:
            return owned
        heavy = np.asarray(heavy, dtype=np.int64)
        # each row's place in heavy, heavy.size for a truncated run, -1 to stay
        place = np.full(n, -1)
        place[over] = heavy.size
        place[heavy] = np.arange(heavy.size)
        at = place[rows["run"]]
        gone = np.flatnonzero(at >= 0)
        # the rows set aside, run by run in the order of heavy, each run's in row order
        aside = gone[np.argsort(at[gone], kind="stable")][: size[heavy].sum()]
        alone = {key: c[aside] for key, c in rows.items()}
        _drop(rows, gone)
        owned = np.setdiff1d(np.arange(n)[owned], np.concatenate([over, heavy]))
        lo = 0
        for run, m in zip(heavy.tolist(), size[heavy].tolist()):
            self.advance({key: c[lo : lo + m] for key, c in alone.items()}, np.asarray([run]), k)
            lo += m
        return owned

    def curves(self):
        """GrowthCurve of each run, cut at its truncation if it has one."""
        radial = np.sqrt(self.radial)
        return [
            _curve(self.config, self.counts[r, :s], radial[r, :s], self.local[r, :, :s])
            for r, s in enumerate(self.seen.tolist())
        ]


def run_batch(config: SimConfig, fields, seeds, *, keep_log=False, focus=None, prune_tol=0.0):
    """Simulate one run of ``config`` per entry of ``fields`` as one batch.

    Run i branches among the obstacles of ``fields[i]``; a batch of ``None``
    entries runs the free process, where every candidate is accepted (a
    batch that mixes ``None`` with fields raises ValueError).  Run i
    draws from its own numpy Generator seeded by ``seeds[i]`` (``config.seed``
    is not read), in the order it would alone, so it is the run that
    :func:`run_bbm` gives for that seed and field.  Returns
    (curves, log, stats): one GrowthCurve per run (cut at the last complete
    observation for a run that outgrew ``particle_cap``), the batch's
    genealogy log (``None`` unless ``keep_log``; particle ids are unique
    across the batch), and a dict of per-run arrays ``truncated``,
    ``pruned`` and ``leak_bound`` with the batch's work counts ``events``
    (candidates decided: branches plus rejections), ``rejected``,
    ``rounds`` (array rounds stepped) and ``table_builds``.

    In d = 1 each round's candidates are answered by one table lookup per
    block of ``_CHUNK`` rows: runs on distinct fields ask a stacked table
    owned by the batch (``table_builds`` counts its builds), and runs that
    all share one field ask that field's own table (``table_builds`` is 0:
    the field's rebuilds depend on its query history, not on this batch).
    In d >= 2 each candidate asks the scalar ``is_blocked``.

    With ``focus = (center, radius)`` particles whose expected
    free-population contribution to that ball at every remaining
    observation time falls below ``prune_tol`` are discarded; a run's
    ``leak_bound`` sums the bounds of its discarded particles.  Counts and
    radial extent then describe the retained window population only.
    """
    batch = _Batch(config, list(fields), list(seeds), keep_log, focus, prune_tol)
    batch.advance(batch.start(), slice(None), 0)
    stats = {
        "truncated": batch.truncated,
        "pruned": batch.pruned,
        "leak_bound": batch.leak,
        "events": batch.events,
        "rejected": batch.rejected,
        "rounds": batch.rounds,
        "table_builds": 0 if batch.table is None else batch.table.builds,
    }
    return batch.curves(), batch.log, stats


def run_bbm(config: SimConfig, field):
    """Simulate one run, a batch of one; returns (GrowthCurve, GenealogyLog).

    The run branches among the obstacles of ``field``, or freely (every
    candidate accepted) when ``field`` is None, and draws from the
    Generator seeded by ``config.seed``.  Raises
    :class:`ParticleCapExceeded` (carrying partial results) if the
    population outgrows ``config.particle_cap``.
    """
    (curve,), log, stats = run_batch(config, [field], [config.seed], keep_log=True)
    if stats["truncated"][0]:
        t = config.obs_times[len(curve.times)]
        raise ParticleCapExceeded(f"particle cap {config.particle_cap} exceeded before t={t:.6g}", curve, log)
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
    events = sorted(branch.items(), key=lambda kv: (kv[1][0], kv[0]))
    # one bulk query for every branch position, asked or not below
    at = np.asarray([pos for _, (_, pos) in events], dtype=float).reshape(len(events), field.d)
    for (pid, _), blocked in zip(events, field.is_blocked_many(at).tolist()):
        kids = sorted(children.get(pid, ()))
        if len(kids) != 2:
            raise ValueError(
                "incomplete genealogy: ensure obs_times covers the horizon so "
                "every particle is referenced by the log"
            )
        if pid in deleted:
            deleted.update(kids)
        elif blocked:
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
    ball_radius=1.0,
    particle_cap=8_000_000,
    prune_tol=1e-8,
    cell_size=None,
    surv_gate=0.05,
) -> dict:
    """Survival and local growth of the drifted process in a fixed ball.

    Each run draws a fresh environment and records the population of the
    open ball B(0, ball_radius) on the observation grid (default:
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

    All runs are stepped as one batch (:func:`run_batch`).  Run i branches
    among the obstacles of environment hash(seed, "env", i) and draws from
    its own Generator seeded by hash(seed, "run", i), so each run is the
    one a separate simulation would give.  A truncated run leaves the
    others unchanged, and a heavy run is finished alone once the batch
    outgrows its row budget.  The report adds the batch's work counts:
    ``events`` (candidates decided, branches plus rejections), ``rejected``,
    ``rounds`` (array rounds stepped) and, in d = 1, ``table_builds`` (the
    builds of the stacked blocking table the runs ask once per round),
    truncated runs included.
    """
    if obs_times is None:
        obs_times = tuple(np.linspace(t_max / 3.0, t_max, 6))
    mc = ModelConstants(d=d, nu=nu, beta=beta, a=a)
    center = (0.0,) * d
    ball = Ball("target", center, ball_radius)
    lam_c = lambda_c_constant_drift(b)

    fields = [ObstacleField(d, nu, a, derive_seed(seed, "env", i), cell_size) for i in range(runs)]
    config = SimConfig(mc=mc, t_max=t_max, obs_times=obs_times, drift=b, particle_cap=particle_cap, balls=(ball,))
    seeds = [derive_seed(seed, "run", i) for i in range(runs)]
    curves, _, stats = run_batch(config, fields, seeds, focus=(center, ball_radius), prune_tol=prune_tol)
    ok = ~stats["truncated"]
    locals_per_run = [c.local_counts["target"] for c, cut in zip(curves, stats["truncated"]) if not cut]
    truncated = int(stats["truncated"].sum())
    pruned_total = int(stats["pruned"][ok].sum())
    leak_total = float(stats["leak_bound"][ok].sum())

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
        "threshold": -lam_c,
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
        "events": stats["events"],
        "rejected": stats["rejected"],
        "rounds": stats["rounds"],
        "table_builds": stats["table_builds"],
    }
