"""Reproducible Poisson obstacle fields with lazy, unbounded realisation.

The obstacle configuration is a Poisson point process of intensity ``nu``
on all of R^d, each point carrying a closed blocking ball of radius ``a``.
Space is partitioned into lattice cells of side ``cell_size``; the points of
every cell are generated on first touch from a counter-based hash of
(master_seed, cell coordinates).  Regenerating any cell therefore yields
identical points no matter when, where or in what order it is queried, and
particles may wander arbitrarily far without a pre-declared bounding box.

Scalar queries (``is_blocked``, ``nearest_obstacle_distance``) realise only
the cells they touch and cache each cell's points as tuples of Python
floats, so a blocking query on realised cells runs without numpy.  Bulk
queries (``is_blocked_many``, ``largest_clearing``) realise whole boxes
through the vectorised twin of the same hash, so both paths see the same
points; a sorted-array index (d = 1) or a k-d tree (d >= 2) serves the
batched nearest-neighbour lookups.  The box a field keeps for bulk queries
is rebuilt only when a query leaves it, and then each side that must grow
at least doubles the box's width, so a cloud of paths spreading over a
region of width W costs O(log W) rebuilds (counted in ``bulk_rebuilds``).

In d = 1 the box also carries a table of bins of width a/16 (wider on
boxes of more than 2^20 such bins).  A bin is free when its midpoint lies
farther than a + h/2 from every centre, blocked when it lies within
a - h/2 of one, and mixed otherwise (the half-widths carry a margin for
rounding).  ``is_blocked_many`` answers a query from its bin and sends
only the points of mixed bins, about 2 % of them, through the exact
nearest-centre rule, so its answers equal ``nearest_distances(x) <= a``.

Cell realisation is idempotent, so concurrent readers may duplicate work
but can never disagree; there is no mutation besides cache fills.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .seeds import (
    cell_key,
    cell_key_array,
    stream_u64,
    stream_u64_array,
    u01,
    u01_array,
)

__all__ = [
    "ObstacleField",
    "Clearing",
    "largest_clearing",
    "load_points",
    "save_points",
    "write_header",
]

_POISSON_TAIL = 1e-17
_MAX_POISSON_TERMS = 4096

# d = 1 blocking table: bin width a / _BINS_PER_RADIUS, at most _MAX_BINS bins
_BINS_PER_RADIUS = 16
_MAX_BINS = 1 << 20
_FREE, _BLOCKED, _MIXED = 0, 1, 2


def _poisson_cdf_table(lam: float) -> list:
    """Cumulative Poisson(lam) probabilities out to negligible tail mass.

    Stops once the pmf term itself is negligible past the mode; the
    accumulated float sum can stall a few ulps below 1.0.
    """
    pmf = math.exp(-lam)
    cdf = [pmf]
    k = 0
    while 1.0 - cdf[-1] > _POISSON_TAIL and not (k > lam and pmf < 1e-18):
        k += 1
        if k >= _MAX_POISSON_TERMS:
            raise ValueError(
                f"cell mean {lam} too large; decrease cell_size so that "
                "nu * cell_size^d stays moderate"
            )
        pmf *= lam / k
        cdf.append(cdf[-1] + pmf)
    return cdf


@dataclass(frozen=True)
class Clearing:
    """An obstacle-free ball: no blocking ball intersects B(center, radius).

    Equivalently every obstacle centre is at distance >= radius + a from
    ``center`` (blocking balls are closed).
    """

    center: tuple
    radius: float


class ObstacleField:
    """Lazily realised Poisson obstacle configuration on R^d.

    Parameters
    ----------
    d : dimension
    nu : obstacle centre intensity (> 0 for Poisson fields)
    a : blocking ball radius (> 0); blocking is inclusive (closed balls)
    master_seed : integer seed; fields with equal (d, nu, a, seed, cell_size)
        are indistinguishable under any query sequence
    cell_size : lattice pitch for lazy realisation; defaults to max(a, 1.0)
        so that a point query touches at most a 3^d cell neighbourhood
    """

    def __init__(self, d, nu, a, master_seed, cell_size=None):
        if int(d) != d or d < 1:
            raise ValueError(f"dimension must be a positive integer, got {d}")
        if not nu > 0:
            raise ValueError(f"nu must be strictly positive, got {nu}")
        if not a > 0:
            raise ValueError(f"a must be strictly positive, got {a}")
        if cell_size is None:
            cell_size = max(float(a), 1.0)
        if not cell_size > 0:
            raise ValueError(f"cell_size must be strictly positive, got {cell_size}")
        self.d = int(d)
        self.nu = float(nu)
        self.a = float(a)
        self.master_seed = int(master_seed)
        self.cell_size = float(cell_size)
        self._finite = False
        self._cells: dict[tuple, tuple] = {}
        self._cdf = _poisson_cdf_table(self.nu * self.cell_size**self.d)
        self._bulk_cache = None  # _LineCache (d == 1) or _TreeCache (d >= 2)
        self.bulk_rebuilds = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_points(cls, points, a, d=None, cell_size=None):
        """Finite field from an explicit point list (tests, fixtures).

        Every cell not covered by ``points`` is empty.  ``nu`` is kept only
        for bookkeeping and set to 0.
        """
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            if d is None:
                raise ValueError("dimension required for an empty point field")
            pts = pts.reshape(0, d)
        if pts.ndim == 1:
            pts = pts[:, None]
        if d is not None and pts.shape[1] != d:
            raise ValueError(f"points have dimension {pts.shape[1]}, expected {d}")
        obj = cls.__new__(cls)
        obj.d = pts.shape[1]
        obj.nu = 0.0
        obj.a = float(a)
        if not obj.a > 0:
            raise ValueError(f"a must be strictly positive, got {a}")
        obj.master_seed = 0
        obj.cell_size = float(cell_size) if cell_size else max(obj.a, 1.0)
        obj._finite = True
        obj._cdf = None
        obj._bulk_cache = None
        obj.bulk_rebuilds = 0
        cells: dict[tuple, list] = {}
        for row in pts.tolist():
            c = tuple(math.floor(x / obj.cell_size) for x in row)
            cells.setdefault(c, []).append(tuple(row))
        obj._cells = {c: tuple(v) for c, v in cells.items()}
        return obj

    @property
    def realized_cells(self) -> dict:
        """Cells realised so far: cell coordinate tuple -> tuple of point tuples."""
        return self._cells

    def spec_record(self) -> dict:
        """Small serialisable record identifying this field."""
        return {
            "d": self.d,
            "nu": self.nu,
            "a": self.a,
            "master_seed": self.master_seed,
            "cell_size": self.cell_size,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "ObstacleField":
        return cls(rec["d"], rec["nu"], rec["a"], rec["master_seed"], rec["cell_size"])

    # -- cell realisation --------------------------------------------------

    def _cell(self, cell: tuple) -> tuple:
        """Points of one lattice cell as float tuples, realised on first touch."""
        pts = self._cells.get(cell)
        if pts is not None:
            return pts
        if self._finite:
            return ()
        key = cell_key(self.master_seed, cell)
        count = bisect.bisect_left(self._cdf, u01(stream_u64(key, 0)))
        d, cs = self.d, self.cell_size
        pts = tuple(
            tuple((cell[q] + u01(stream_u64(key, 1 + j * d + q))) * cs for q in range(d))
            for j in range(count)
        )
        self._cells[cell] = pts
        return pts

    def _cell_points(self, cell: tuple) -> np.ndarray:
        """Points of one lattice cell as a (k, d) array."""
        return np.asarray(self._cell(cell), dtype=float).reshape(-1, self.d)

    def realize_box(self, lo, hi) -> np.ndarray:
        """All obstacle centres x with lo <= x < hi (component-wise).

        Bulk-vectorised; produces exactly the same points as scalar cell
        realisation would.
        """
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self._finite:
            if not self._cells:
                return np.empty((0, self.d))
            pts = np.asarray([p for v in self._cells.values() for p in v], dtype=float).reshape(-1, self.d)
            mask = np.all((pts >= lo) & (pts < hi), axis=1)
            return pts[mask]
        lo_cell = np.floor(lo / self.cell_size).astype(np.int64)
        hi_cell = np.floor((hi - 1e-12) / self.cell_size).astype(np.int64)
        ranges = [np.arange(lo_cell[q], hi_cell[q] + 1) for q in range(self.d)]
        grids = np.meshgrid(*ranges, indexing="ij")
        cells = np.stack([g.ravel() for g in grids], axis=1)
        pts = self._bulk_points(cells)
        mask = np.all((pts >= lo) & (pts < hi), axis=1)
        return pts[mask]

    def _bulk_points(self, cells: np.ndarray) -> np.ndarray:
        keys = cell_key_array(self.master_seed, cells)
        u0 = u01_array(stream_u64_array(keys, np.zeros(len(keys), dtype=np.uint64)))
        counts = np.searchsorted(self._cdf, u0, side="left")
        total = int(counts.sum())
        if total == 0:
            return np.empty((0, self.d))
        rep_keys = np.repeat(keys, counts)
        rep_cells = np.repeat(cells, counts, axis=0)
        # per-point index j within its cell
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        j = np.arange(total, dtype=np.uint64) - np.repeat(offsets, counts).astype(np.uint64)
        coords = np.empty((total, self.d))
        for q in range(self.d):
            counters = np.uint64(1) + j * np.uint64(self.d) + np.uint64(q)
            uu = u01_array(stream_u64_array(rep_keys, counters))
            coords[:, q] = (rep_cells[:, q] + uu) * self.cell_size
        return coords

    # -- scalar queries ----------------------------------------------------

    def is_blocked(self, x) -> bool:
        """True iff x lies within distance a (inclusive) of an obstacle centre.

        Plain float arithmetic: the cells within reach are found with
        ``math.floor`` and their cached point tuples compared with
        ``math.dist``, so a query on realised cells allocates no array.
        """
        try:
            x = tuple(x)
        except TypeError:
            x = (float(x),)
        a, cs, cells, floor, dist = self.a, self.cell_size, self._cells, math.floor, math.dist
        for cell in itertools.product(*[range(floor((v - a) / cs), floor((v + a) / cs) + 1) for v in x]):
            pts = cells.get(cell)
            if pts is None:
                pts = self._cell(cell)
            for p in pts:
                if dist(p, x) <= a:
                    return True
        return False

    def nearest_obstacle_distance(self, x, search_cap: float) -> float:
        """Distance from x to the nearest obstacle centre, if <= search_cap.

        Returns ``math.inf`` when no centre lies within the cap.  Expanding
        ring search over cell shells; cells at Chebyshev shell m can only
        hold points at distance >= (m-1) * cell_size, which bounds the scan.
        """
        if not search_cap > 0:
            raise ValueError(f"search_cap must be positive, got {search_cap}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        cs = self.cell_size
        c0 = tuple(int(math.floor(v / cs)) for v in x)
        best = math.inf
        m = 0
        while True:
            for cell in _chebyshev_shell(c0, m):
                pts = self._cell_points(cell)
                if len(pts):
                    dmin = math.sqrt(float(np.min(np.sum((pts - x) ** 2, axis=1))))
                    if dmin < best:
                        best = dmin
            if best <= m * cs:
                break
            if m * cs > search_cap:
                break
            m += 1
        return best if best <= search_cap else math.inf

    # -- bulk queries --------------------------------------------------------

    def _ensure_bulk_cache(self, lo: np.ndarray, hi: np.ndarray):
        """Realised box covering [lo, hi), grown geometrically as needed.

        A box that no longer covers the request is rebuilt; on each side
        that must grow it extends by at least its own width.
        """
        cache = self._bulk_cache
        if cache is None:
            pad = 4.0 * self.cell_size
            new_lo, new_hi = lo - pad, hi + pad
        elif np.all(cache.lo <= lo) and np.all(cache.hi >= hi):
            return cache
        else:
            width = cache.hi - cache.lo
            new_lo = np.where(lo < cache.lo, np.minimum(lo, cache.lo - width), cache.lo)
            new_hi = np.where(hi > cache.hi, np.maximum(hi, cache.hi + width), cache.hi)
        pts = self.realize_box(new_lo, new_hi)
        self.bulk_rebuilds += 1
        if self.d == 1:
            cache = _line_cache(new_lo, new_hi, np.sort(pts[:, 0]), self.a)
        else:
            from scipy.spatial import cKDTree

            cache = _TreeCache(new_lo, new_hi, cKDTree(pts) if len(pts) else None)
        self._bulk_cache = cache
        return cache

    def _query_box(self, lo, hi):
        """Bulk cache covering every query point in [lo, hi] with margin >= a."""
        margin = max(self.a, self.cell_size) + self.cell_size
        return self._ensure_bulk_cache(lo - margin, hi + margin)

    def nearest_distances(self, xs: np.ndarray) -> np.ndarray:
        """Nearest-centre distances for a batch of query points.

        Valid wherever the returned distance is smaller than the distance
        from the query point to the realised box boundary; callers that need
        exactness beyond that (``largest_clearing``) re-realise with a
        bigger margin.  For blocking queries the margin is >= a by
        construction, which is all that is needed.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        if len(xs) == 0:
            return np.zeros(0)
        cache = self._query_box(xs.min(axis=0), xs.max(axis=0))
        if self.d == 1:
            return _line_distances(cache.line, xs[:, 0])
        if cache.tree is None:
            return np.full(len(xs), np.inf)
        dist, _ = cache.tree.query(xs)
        return dist

    def is_blocked_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_blocked` (inclusive radius).

        In d = 1 each point is answered from the blocking table of its bin;
        only points in mixed bins go through ``nearest_distances``' rule.
        """
        if self.d > 1:
            return self.nearest_distances(xs) <= self.a
        q = np.asarray(xs, dtype=float).reshape(-1)
        if q.size == 0:
            return np.zeros(0, dtype=bool)
        cache = self._query_box(q.min(keepdims=True), q.max(keepdims=True))
        state = cache.state[((q - cache.lo[0]) * cache.inv_h).astype(np.intp)]
        blocked = state == _BLOCKED
        mixed = np.flatnonzero(state == _MIXED)
        if mixed.size:
            blocked[mixed] = _line_distances(cache.line, q[mixed]) <= self.a
        return blocked


class _TreeCache(NamedTuple):
    lo: np.ndarray
    hi: np.ndarray
    tree: object  # scipy cKDTree, None for an empty box


class _LineCache(NamedTuple):
    lo: np.ndarray
    hi: np.ndarray
    line: np.ndarray  # sorted centres in [lo, hi)
    inv_h: float  # 1 / bin width
    state: np.ndarray  # uint8 bin states _FREE, _BLOCKED, _MIXED


def _line_distances(line: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance from each q to the nearest entry of the sorted array ``line``."""
    if len(line) == 0:
        return np.full(len(q), np.inf)
    idx = np.searchsorted(line, q)
    left = np.where(idx > 0, np.abs(q - line[np.maximum(idx - 1, 0)]), np.inf)
    right = np.where(idx < len(line), np.abs(line[np.minimum(idx, len(line) - 1)] - q), np.inf)
    return np.minimum(left, right)


def _line_cache(lo: np.ndarray, hi: np.ndarray, line: np.ndarray, a: float) -> _LineCache:
    """d = 1 bulk cache over [lo, hi) with its blocking table.

    Every point x of bin j lies within h/2 of the bin's midpoint m_j, so
    the bin is free if m_j is farther than a + h/2 from every centre and
    blocked if some centre lies within a - h/2 of m_j.  ``slack`` adds to
    h/2 a margin far above the rounding of the bin lookup and of the
    distances, so a table answer never differs from the exact rule.  Bins
    whose reach crosses the box edge may see centres outside the box, so
    they are mixed.
    """
    x0, x1 = float(lo[0]), float(hi[0])
    h = max(a / _BINS_PER_RADIUS, (x1 - x0) / _MAX_BINS)
    n = int((x1 - x0) / h) + 2
    mid = x0 + (np.arange(n) + 0.5) * h
    dist = _line_distances(line, mid)
    slack = 0.5 * h * (1.0 + 1e-6) + 1e-12 * (abs(x0) + abs(x1) + a)
    state = np.full(n, _MIXED, dtype=np.uint8)
    state[dist > a + slack] = _FREE
    state[dist <= a - slack] = _BLOCKED
    state[(mid - x0 < a + 2.0 * slack) | (x1 - mid < a + 2.0 * slack)] = _MIXED
    return _LineCache(lo, hi, line, 1.0 / h, state)


def _chebyshev_shell(c0: tuple, m: int):
    """Cells at Chebyshev distance exactly m from cell c0."""
    d = len(c0)
    if m == 0:
        yield c0
        return
    rng = range(-m, m + 1)
    for offset in itertools.product(rng, repeat=d):
        if max(abs(o) for o in offset) == m:
            yield tuple(c0[q] + offset[q] for q in range(d))


def largest_clearing(field: ObstacleField, ell: float, resolution: float) -> Clearing:
    """Largest obstacle-free ball centred on a pitch-``resolution`` grid in B(0, ell).

    Grid-restricted, hence a lower bound on the true largest clearing.  The
    centre grid depends only on ``resolution``, so for a fixed field the
    returned radius is monotone non-decreasing in ``ell``.
    """
    if not ell > 0:
        raise ValueError(f"ell must be positive, got {ell}")
    if not resolution > 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    k = int(math.floor(ell / resolution))
    axis = np.arange(-k, k + 1) * resolution
    if field.d == 1:
        centers = axis[:, None]
    else:
        grids = np.meshgrid(*([axis] * field.d), indexing="ij")
        centers = np.stack([g.ravel() for g in grids], axis=1)
        centers = centers[np.sum(centers**2, axis=1) <= ell * ell + 1e-12]

    if field._finite and not field._cells:
        return Clearing((0.0,) * field.d, math.inf)

    margin = max(8.0 * field.cell_size, 2.0 * field.a)
    for _ in range(60):
        pts = field.realize_box(centers.min(axis=0) - margin, centers.max(axis=0) + margin)
        if len(pts) == 0:
            margin *= 2.0
            continue
        if field.d == 1:
            dists = _line_distances(np.sort(pts[:, 0]), centers[:, 0])
        else:
            from scipy.spatial import cKDTree

            dists, _ = cKDTree(pts).query(centers)
        if float(dists.max()) <= margin:
            # ties (e.g. symmetric gaps) resolved toward the origin
            ties = np.nonzero(dists >= dists.max())[0]
            best = int(ties[np.argmin(np.sum(centers[ties] ** 2, axis=1))])
            radius = max(0.0, float(dists[best]) - field.a)
            return Clearing(tuple(float(v) for v in centers[best]), radius)
        margin *= 2.0
    raise RuntimeError("clearing search failed to stabilise; field looks pathologically empty")


# -- point fixtures ----------------------------------------------------------


def write_header(fh, header: str | None):
    """Write each line of ``header`` as a ``# `` comment line; nothing if it is empty."""
    for line in (header or "").splitlines():
        fh.write(f"# {line}\n")


def save_points(path, points, header: str | None = None):
    """Write points as plain text, one per line, comma-separated coordinates."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w") as fh:
        write_header(fh, header)
        for row in pts:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_points(path) -> np.ndarray:
    """Read a point fixture: .json files hold a list of coordinate lists,
    anything else is plain text with one comma-separated point per line.
    Lines starting with '#' are comments."""
    path = str(path)
    if path.endswith(".json"):
        with open(path) as fh:
            return np.asarray(json.load(fh), dtype=float)
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(v) for v in line.split(",")])
    return np.asarray(rows, dtype=float)
