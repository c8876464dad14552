"""Reproducible Poisson obstacle fields with lazy, unbounded realisation.

The obstacle configuration is a Poisson point process of intensity ``nu``
on all of R^d, each point carrying a closed blocking ball of radius ``a``.
Space is partitioned into lattice cells of side ``cell_size``; the points of
every cell are generated on first touch from a counter-based hash of
(master_seed, cell coordinates).  Regenerating any cell therefore yields
identical points no matter when, where or in what order it is queried, and
particles may wander arbitrarily far without a pre-declared bounding box.

There is one hash, vectorised over arrays of cells (``seeds.cell_key_array``),
and every realisation goes through it.  The scalar query ``is_blocked``
realises cells in aligned tiles (16 cells a side in d = 2, 5 in d = 3, 2 in
d = 4 and 5, one cell from d = 6 on): the first touch of a cell hashes its
whole tile, with every other missing tile of the same neighbourhood, in one
pass and caches each cell as a tuple of point tuples (Python floats).  ``is_blocked`` keys a per-field
cache of reach lists by the query's home cell: the list holds every centre
that could lie within ``a`` of some point of that cell, built on the cell's
first query from the cells of its neighbourhood.  A warm query is then one
dict lookup and an exact distance test on one or two centres, with no
numpy.  Bulk queries (``is_blocked_many``, ``largest_clearing``) realise
whole boxes (``realize_box``), so every path sees the same points; a
sorted-array index (d = 1) or a k-d tree (d >= 2) serves the batched
nearest-neighbour lookups.  The box a field
keeps for bulk queries costs a query one comparison of its bounds while it
covers them, and is rebuilt only when a query leaves it; then each side
that must grow at least doubles the box's width, so a cloud of paths
spreading over a region of width W costs O(log W) rebuilds (counted in
``bulk_rebuilds``).

In d = 1 the box also carries a table of bins of width a/16 (wider on
boxes of more than 2^20 such bins).  A bin is free when its midpoint lies
farther than a + h/2 from every centre, blocked when it lies within
a - h/2 of one, and mixed otherwise (the half-widths carry a margin for
rounding).  ``is_blocked_many`` answers a query from its bin and sends
only the points of mixed bins, about 2 % of them, through the exact
nearest-centre rule, so its answers equal ``nearest_distances(x) <= a``.

A table may stack one row of bins per field over one shared box:
:class:`StackedTable` answers the d = 1 candidates of a batch of runs on
distinct fields, a whole round with one gather.  Its rows are realised in
one vectorised hash pass, and its mixed points are resolved by one search
across rows, so each answer equals the field's own rule.

Cell realisation is idempotent, so concurrent readers may duplicate work
but can never disagree; there is no mutation besides cache fills.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .seeds import cell_key_array, stream_u64_array, u01_array

__all__ = [
    "ObstacleField",
    "StackedTable",
    "Clearing",
    "largest_clearing",
    "load_points",
    "save_points",
    "write_header",
]

_POISSON_TAIL = 1e-17
_MAX_POISSON_TERMS = 4096

# scalar queries realise cells in aligned tiles of side s, the largest with
# (2s)^d <= _QUERY_TILE_CELLS (16 in d = 2): a query's 3^d neighbourhood
# meets at most two tiles per axis, so its first touch realises at most
# max(_QUERY_TILE_CELLS, 3^d) cells
_QUERY_TILE_CELLS = 1024

# d = 1 blocking table: bin width a / _BINS_PER_RADIUS, at most _MAX_BINS bins
_BINS_PER_RADIUS = 16
_MAX_BINS = 1 << 20
# bin states, ordered so that a bin takes the largest mark any centre gives it
_FREE, _MIXED, _BLOCKED = 0, 1, 2


def _tile_side(d: int) -> int:
    """Side, in cells, of a d-dimensional tile: the largest s with
    (2s)^d <= _QUERY_TILE_CELLS, and 1 when there is none."""
    s = 1
    while (2 * s + 2) ** d <= _QUERY_TILE_CELLS:
        s += 1
    return s


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
        self._init_caches()

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
        obj._init_caches()
        cells: dict[tuple, list] = {}
        for row in pts.tolist():
            c = tuple(math.floor(x / obj.cell_size) for x in row)
            cells.setdefault(c, []).append(tuple(row))
        obj._cells = {c: tuple(v) for c, v in cells.items()}
        return obj

    def _init_caches(self):
        self._reach: dict[tuple, tuple] = {}  # home cell -> reach list, see is_blocked
        # distance a bulk box keeps beyond every query point: at least a
        self._margin = max(self.a, self.cell_size) + self.cell_size
        self._bulk_cache = None  # _LineCache (d == 1) or _TreeCache (d >= 2)
        self.bulk_rebuilds = 0

    @property
    def realized_cells(self) -> dict:
        """Cells realised for scalar queries: cell coordinate tuple -> tuple of
        point tuples; on a Poisson field, every cell of each tile touched."""
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
        """Points of one lattice cell as float tuples, realised on first touch
        with every cell of its tile (:meth:`_realise_tiles`)."""
        pts = self._cells.get(cell)
        if pts is None:
            self._realise_tiles([cell])
            pts = self._cells.get(cell, ())
        return pts

    def _realise_tiles(self, cells: list):
        """Realise every cell of the tiles that hold ``cells`` (aligned blocks of
        ``_tile_side(d)`` cells a side) in one vectorised hash pass, and cache
        each as a tuple of point tuples.  A finite field has nothing to realise."""
        if self._finite:
            return
        d = self.d
        s = _tile_side(d)
        origins = np.array(sorted({tuple([c - c % s for c in cell]) for cell in cells}), dtype=np.int64)
        cells = (origins[:, None, :] + np.indices((s,) * d).reshape(d, -1).T).reshape(-1, d)
        pts, owner = _hashed_points(cell_key_array(self.master_seed, cells), cells, self._cdf, self.cell_size)
        points = list(map(tuple, pts.tolist()))
        ends = np.cumsum(np.bincount(owner, minlength=len(cells))).tolist()
        start = 0
        for c, end in zip(map(tuple, cells.tolist()), ends):
            self._cells[c] = tuple(points[start:end])
            start = end

    def realize_box(self, lo, hi) -> np.ndarray:
        """All obstacle centres x with lo <= x < hi (component-wise).

        Realised through the same vectorised hash as :meth:`_cell`, so
        both give the same points.
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
        pts, _ = _hashed_points(cell_key_array(self.master_seed, cells), cells, self._cdf, self.cell_size)
        mask = np.all((pts >= lo) & (pts < hi), axis=1)
        return pts[mask]

    # -- scalar queries ----------------------------------------------------

    def is_blocked(self, x) -> bool:
        """True iff x lies within distance a (inclusive) of an obstacle centre.

        One dict lookup: x's home cell ``floor(x / cell_size)`` keys its
        reach list (:meth:`_reach_list`, built on the cell's first query),
        whose one or two centres are compared with ``math.dist``, so a query
        on a known home cell allocates no array.
        """
        try:
            x = tuple(x)
        except TypeError:
            x = (float(x),)
        cs = self.cell_size
        home = tuple([math.floor(v / cs) for v in x])
        near = self._reach.get(home)
        if near is None:
            near = self._reach_list(home)
        a = self.a
        for p in near:
            if math.dist(p, x) <= a:
                return True
        return False

    def _reach_list(self, home: tuple) -> tuple:
        """Every centre that may lie within a of a point whose home cell is ``home``.

        The cells within r of ``home`` (Chebyshev), with r * cell_size >
        a + slack, are realised, and their centres are kept when they lie
        in the home cell's box widened by a + slack.  ``slack`` covers the
        rounding of ``floor(x / cell_size)``, which may place x an ulp or
        so outside its home box, and of the box bounds.  At the usual sizes
        (a and cell_size near 1) a list holds one or two centres.
        """
        a, cs = self.a, self.cell_size
        slack = 1e-9 * (a + cs * (1 + max(abs(c) for c in home)))
        r = math.floor((a + slack) / cs) + 1
        lo = [c * cs - a - slack for c in home]
        hi = [(c + 1) * cs + a + slack for c in home]
        cells = list(itertools.product(*[range(c - r, c + r + 1) for c in home]))
        known = self._cells
        missing = [c for c in cells if c not in known]
        if missing:
            self._realise_tiles(missing)
        near = tuple(
            p for cell in cells for p in known.get(cell, ()) if all(l <= v <= h for l, v, h in zip(lo, p, hi))
        )
        self._reach[home] = near
        return near

    # -- bulk queries --------------------------------------------------------

    def _query_box(self, lo: list, hi: list):
        """Bulk cache covering every query point in [lo, hi] (one entry per
        coordinate) with margin >= a.

        A query inside the box the cache serves (:func:`_covers`) costs one
        comparison per coordinate and side; only a miss realises a new box,
        grown geometrically (see :func:`_grown_box`).
        """
        cache = self._bulk_cache
        if _covers(cache, lo, hi):
            return cache
        m = self._margin
        new_lo, new_hi = _grown_box(cache, np.asarray(lo) - m, np.asarray(hi) + m, 4.0 * self.cell_size)
        pts = self.realize_box(new_lo, new_hi)
        self.bulk_rebuilds += 1
        if self.d == 1:
            cache = _line_cache(new_lo, new_hi, np.sort(pts[:, 0]), self.a, margin=m)
        else:
            from scipy.spatial import cKDTree

            cache = _TreeCache(new_lo, new_hi, _served_box(new_lo, new_hi, m), cKDTree(pts) if len(pts) else None)
        self._bulk_cache = cache
        return cache

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
        cache = self._query_box(xs.min(axis=0).tolist(), xs.max(axis=0).tolist())
        if self.d == 1:
            return cache.distances(xs[:, 0])
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
        return self._query_box([q.min()], [q.max()]).blocked(q)


class StackedTable:
    """Blocking queries against several d = 1 fields, answered from one table.

    Row i of the table holds the bins of ``fields[i]`` over one box shared
    by every row, so the candidates of a round on distinct fields are
    answered with one gather.  The box keeps every query farther than each
    field's ``max(a, cell_size) + cell_size`` from its edge, and grows as a
    field's own bulk box does (:func:`_grown_box`); ``builds`` counts the
    tables built.  Each answer equals the field's own
    ``is_blocked_many`` answer, the exact rule ``|x - c| <= a``.
    """

    def __init__(self, fields):
        self.fields = list(fields)
        if not self.fields or any(f.d != 1 for f in self.fields):
            raise ValueError("a stacked table needs one or more d = 1 fields")
        self.radii = np.asarray([f.a for f in self.fields])
        self.margin = max(f._margin for f in self.fields)
        self.pad = 4.0 * max(f.cell_size for f in self.fields)
        self.table = None
        self.builds = 0

    def is_blocked(self, xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``fields[rows[i]].is_blocked(xs[i])`` for every i, as one bool array."""
        if len(xs) == 0:
            return np.zeros(0, dtype=bool)
        lo, hi, table = xs.min(), xs.max(), self.table
        if not _covers(table, [lo], [hi]):
            m = self.margin
            box_lo, box_hi = _grown_box(table, np.atleast_1d(lo - m), np.atleast_1d(hi + m), self.pad)
            line, counts = _stacked_lines(self.fields, float(box_lo[0]), float(box_hi[0]))
            self.table = table = _line_cache(box_lo, box_hi, line, self.radii, counts, m)
            self.builds += 1
        return table.blocked(xs, rows)


def _served_box(lo: np.ndarray, hi: np.ndarray, margin: float) -> tuple:
    """Bounds of the query points a bulk box [lo, hi) serves, those at least
    ``margin`` from its edges, as (lo, hi) float lists."""
    return (lo + margin).tolist(), (hi - margin).tolist()


def _covers(cache, lo: list, hi: list) -> bool:
    """Whether the bulk box ``cache`` (None before the first) serves every
    query point in [lo, hi], one entry per coordinate."""
    if cache is None:
        return False
    served_lo, served_hi = cache.served
    return all(map(operator.ge, lo, served_lo)) and all(map(operator.le, hi, served_hi))


def _grown_box(cache, lo: np.ndarray, hi: np.ndarray, pad: float):
    """Bounds of a box to realise so that it covers [lo, hi).

    The first box (``cache`` None) is [lo, hi) padded by ``pad``.  A box
    that no longer covers the request extends each side that must grow by
    at least its own width, so a region of width W costs O(log W) boxes.
    """
    if cache is None:
        return lo - pad, hi + pad
    width = cache.hi - cache.lo
    new_lo = np.where(lo < cache.lo, np.minimum(lo, cache.lo - width), cache.lo)
    new_hi = np.where(hi > cache.hi, np.maximum(hi, cache.hi + width), cache.hi)
    return new_lo, new_hi


def _hashed_points(keys: np.ndarray, cells: np.ndarray, cdf, cell_size: float):
    """Points of the lattice cells ``cells`` (n, d), whose hash keys are
    ``keys``, as a (total, d) array, with the index of each point's cell."""
    u0 = u01_array(stream_u64_array(keys, np.zeros(len(keys), dtype=np.uint64)))
    counts = np.searchsorted(cdf, u0, side="left")
    total = int(counts.sum())
    d = cells.shape[1]
    if total == 0:
        return np.empty((0, d)), np.zeros(0, dtype=np.intp)
    owner = np.repeat(np.arange(len(keys)), counts)
    rep_keys = keys[owner]
    # per-point index j within its cell
    offsets = np.cumsum(counts) - counts
    j = (np.arange(total) - offsets[owner]).astype(np.uint64)
    coords = np.empty((total, d))
    for q in range(d):
        counters = np.uint64(1) + j * np.uint64(d) + np.uint64(q)
        uu = u01_array(stream_u64_array(rep_keys, counters))
        coords[:, q] = (cells[owner, q] + uu) * cell_size
    return coords, owner


def _stacked_lines(fields, x0: float, x1: float):
    """Centres in [x0, x1) of each d = 1 field, sorted field by field, and
    the count of each field.

    Poisson fields that share ``nu`` and ``cell_size`` are realised in one
    vectorised hash pass over the same cells, each cell keyed by its own
    field's seed, so every field's centres are those of its own
    ``realize_box``.
    """
    lines, rows = [], []
    lazy = {}
    for i, f in enumerate(fields):
        if f._finite:
            pts = f.realize_box([x0], [x1])[:, 0]
            lines.append(pts)
            rows.append(np.full(len(pts), i))
        else:
            lazy.setdefault((f.nu, f.cell_size), []).append(i)
    for (_, cs), group in lazy.items():
        # the cells realize_box spans
        span = np.arange(math.floor(x0 / cs), math.floor((x1 - 1e-12) / cs) + 1)
        row = np.repeat(np.asarray(group), len(span))
        cells = np.tile(span, len(group))[:, None]
        seeds = np.asarray([fields[i].master_seed for i in group], dtype=np.uint64)
        pts, owner = _hashed_points(
            cell_key_array(np.repeat(seeds, len(span)), cells), cells, fields[group[0]]._cdf, cs
        )
        inside = (pts[:, 0] >= x0) & (pts[:, 0] < x1)
        lines.append(pts[inside, 0])
        rows.append(row[owner[inside]])
    line, row = np.concatenate(lines), np.concatenate(rows)
    order = np.lexsort((line, row))
    return line[order], np.bincount(row, minlength=len(fields))


class _TreeCache(NamedTuple):
    lo: np.ndarray
    hi: np.ndarray
    served: tuple  # see _served_box
    tree: object  # scipy cKDTree, None for an empty box


class _LineCache:
    """d = 1 blocking table over [lo, hi), one row of bins per field.

    ``line`` holds every row's sorted centres, row after row, each row's
    between a -inf and a +inf sentinel, and ``state[r * n + j]`` is the
    state of row r's bin j.  Across rows the centres are searched by the
    increasing ``keys``, ``c + r * span``: ``span`` is twice the box width,
    so the rows' key ranges do not overlap, and row r's sentinels have the
    keys ``x0 - span / 8`` and ``x1 + span / 8`` past ``r * span``, between
    the rows' key ranges.  A query of row r, keyed ``q + r * span``, is
    therefore always placed between its own row's sentinels.
    """

    __slots__ = ("lo", "hi", "served", "x0", "x1", "line", "keys", "span", "a", "inv_h", "n", "state")

    def blocked(self, q: np.ndarray, row=None) -> np.ndarray:
        """Whether each q[i] lies within a of a centre of row ``row[i]``
        (row 0 for every point when ``row`` is None)."""
        b = ((q - self.x0) * self.inv_h).astype(np.intp)
        if row is not None:
            b += row * self.n
        state = self.state[b]
        blocked = state == _BLOCKED
        mixed = (state == _MIXED).nonzero()[0]
        if mixed.size:
            r = None if row is None else row[mixed]
            blocked[mixed] = self.distances(q[mixed], r) <= self.a[0 if r is None else r]
        return blocked

    def distances(self, q: np.ndarray, row=None) -> np.ndarray:
        """Distance from each q[i] to the nearest centre of row ``row[i]``
        (row 0 when ``row`` is None), inf for a row with no centre."""
        return _line_distances(self.line, self.keys, q, q if row is None else q + row * self.span)


def _line_distances(line, keys, q, key) -> np.ndarray:
    """Distance from each q to its nearest entry of ``line``.

    q[i] is placed among ``keys`` (the increasing search keys of ``line``)
    by ``key[i]``, and must land strictly between a -inf and a +inf entry
    of ``line``, so both of its neighbours exist and a sentinel neighbour
    is infinitely far.  Keys are rounded and may tie, but rounding keeps
    their order: an entry placed on the wrong side of q has q's key, so it
    lies within rounding of q and is taken as q's right neighbour.  The
    distance is then at most that rounding instead of exact, which decides
    a blocking query the same way.
    """
    idx = np.searchsorted(keys, key)
    return np.minimum(np.abs(q - line[idx - 1]), np.abs(line[idx] - q))


def _line_cache(lo: np.ndarray, hi: np.ndarray, line: np.ndarray, a, counts=None, margin: float = 0.0) -> _LineCache:
    """d = 1 bulk cache over [lo, hi) with its blocking table, serving the
    query points at least ``margin`` from its edges (:func:`_served_box`).

    ``line`` holds the sorted centres in the box; with ``counts`` it holds
    ``len(counts)`` rows, row r holding ``counts[r]`` centres with blocking
    radius ``a[r]``.  The cache keeps each row's centres between a -inf
    and a +inf sentinel, keyed between the rows' key ranges (see
    :class:`_LineCache`), so a search needs no row bounds.  All rows share
    one bin width h, at most a/16 for the smallest radius (wider when the
    table would hold more than 2^20 bins).

    Every point x of bin j lies within h/2 of the bin's midpoint m_j, so
    the bin is free if m_j is farther than a + h/2 from every centre and
    blocked if some centre lies within a - h/2 of m_j.  ``slack`` adds to
    h/2 a margin far above the rounding of the bin lookup and of the
    distances, so a table answer never differs from the exact rule.  Bins
    whose reach crosses the box edge may see centres outside the box, so
    they are mixed.  Each centre marks only the bins within its reach
    a + slack (widened by a bin on each side for the rounding of the bin
    range), a bin keeping its nearest centre's mark, so the build holds a
    byte per bin and a few dozen (bin, centre) pairs per centre.
    """
    x0, x1 = float(lo[0]), float(hi[0])
    counts = np.asarray([len(line)] if counts is None else counts)
    rows = len(counts)
    a_row = np.broadcast_to(np.asarray(a, dtype=float), (rows,))
    cache = _LineCache()
    cache.lo, cache.hi, cache.x0, cache.x1, cache.a = lo, hi, x0, x1, a_row
    cache.served = _served_box(lo, hi, margin)
    span = cache.span = 2.0 * (x1 - x0)
    row = np.repeat(np.arange(rows), counts)
    # two keys that round to one value differ by at most 2^-51 times the
    # largest key, which must stay far below every radius (see _line_distances)
    if rows > 1 and 2.0**-46 * (max(abs(x0), abs(x1)) + rows * span) > a_row.min():
        raise ValueError("box too wide for a stacked table at these radii")
    # the 2r sentinels of the rows before row r shift its entries by 2r
    r = np.arange(rows)
    right = np.cumsum(counts) + 2 * r + 1  # each row's +inf sentinel
    left = right - counts - 1  # and its -inf sentinel
    inside = np.arange(len(line)) + 2 * row + 1
    cache.line, cache.keys = np.empty((2, len(line) + 2 * rows))
    cache.line[inside], cache.keys[inside] = line, line + row * span
    cache.line[left], cache.line[right] = -np.inf, np.inf
    cache.keys[left], cache.keys[right] = x0 - span / 8 + r * span, x1 + span / 8 + r * span
    h = max(a_row.min() / _BINS_PER_RADIUS, rows * (x1 - x0) / _MAX_BINS)
    n = int((x1 - x0) / h) + 2
    slack = 0.5 * h * (1.0 + 1e-6) + 1e-12 * (abs(x0) + abs(x1) + a_row)
    # (bin, centre) pairs: the bins j whose midpoints x0 + (j + 0.5) h may
    # lie within a + slack of the centre
    reach = (a_row + slack)[row]
    first = np.maximum(np.floor((line - reach - x0) / h - 0.5).astype(np.intp) - 1, 0)
    size = np.maximum(np.minimum(np.floor((line + reach - x0) / h - 0.5).astype(np.intp) + 2, n) - first, 0)
    j = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - first, size)
    gap = np.abs(x0 + (j + 0.5) * h - np.repeat(line, size))
    mark = (gap <= np.repeat(reach, size)).view(np.uint8) + (gap <= np.repeat((a_row - slack)[row], size))
    state = np.zeros(rows * n, dtype=np.uint8)
    np.maximum.at(state, np.repeat(row * n, size) + j, mark)
    state = state.reshape(rows, n)
    # the bins within a + 2 slack of either edge
    k = min(n, int(float((a_row + 2.0 * slack).max()) / h) + 3)
    near = a_row[:, None] + 2.0 * slack[:, None]
    state[:, :k][x0 + (np.arange(k) + 0.5) * h - x0 < near] = _MIXED
    state[:, n - k :][x1 - (x0 + (np.arange(n - k, n) + 0.5) * h) < near] = _MIXED
    cache.inv_h, cache.n, cache.state = 1.0 / h, n, state.reshape(-1)
    return cache


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
            line = np.concatenate(([-np.inf], np.sort(pts[:, 0]), [np.inf]))
            dists = _line_distances(line, line, centers[:, 0], centers[:, 0])
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
