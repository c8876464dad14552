"""Reproducible Poisson obstacle fields with lazy, unbounded realisation.

The obstacle configuration is a Poisson point process of intensity ``nu``
on all of R^d, each point carrying a closed blocking ball of radius ``a``.
Space is partitioned into lattice cells of side ``cell_size`` (by default
max(a, 1), halved until a cell holds at most 512 points on average); the
points of every cell are generated on first touch from a counter-based
hash of (master_seed, cell coordinates).  Regenerating any cell therefore
yields identical points no matter when, where or in what order it is
queried, and particles may wander arbitrarily far without a pre-declared
bounding box.

There is one hash, vectorised over arrays of cells (``seeds.cell_key_array``),
and every realisation goes through it.  Each field keys a cache of reach
lists by a query's home cell: the list holds, as tuples of Python floats,
every centre that could lie within ``a`` of some point of that cell.  The
lists are built a tile at a time (an aligned block of 16 cells a side in
d = 2, 5 in d = 3, 2 in d = 4 and 5, one cell from d = 6 on): the first
query of a home cell hashes its tile widened by r cells, with r * cell_size
> a, in one pass, and writes the list of every home cell of the tile.  A
warm ``is_blocked`` is then one dict lookup and an exact distance test on
one or two centres, with no numpy.  In d >= 2, ``is_blocked_many`` reads the
same lists: it groups its points by home cell, takes each home's list once,
and tests every (point, centre) pair in one vectorised pass, so a bulk query
realises only the tiles of the cells its points lie in.

In d = 1 bulk queries are answered by :class:`StackedTable`: a table of
bins of width h = a/16 (wider on boxes of more than 2^20 such bins) over one
box realised by ``realize_box``.  A bin is free when its midpoint lies
farther than a + h/2 from every centre in the box, blocked when it lies
within a - h/2 of one, and mixed otherwise (the half-widths carry a margin
for rounding).  Every query lies a margin inside the box, and the margin
exceeds the radius, so no centre outside the box can block it.  A query is
answered from its bin, and only the points of mixed bins, about 2 % of
them, go through an exact search for the nearest centre in the box.  The
box is rebuilt only when a query comes within the margin of its edge; then
each side that must grow at least doubles its width, so a cloud of paths
spreading over a region of width W costs O(log W) builds.

The table stacks one row of bins per field over one shared box, so the
d = 1 candidates of a batch of runs on distinct fields are answered, a
whole round, with one gather.  Rows of Poisson fields that share ``nu``
and ``cell_size`` are realised in one vectorised hash pass, and the mixed
points are resolved by one search across rows, so each answer equals the
field's own rule.  A field's own bulk table is the one-row
``StackedTable([field])``.

The branching engine asks every candidate of a batch of runs through one
function, :func:`batch_query`, which picks the structure that answers:
the scalar query in d >= 2, a shared field's bulk query or the batch's own
stacked table in d = 1, and "never blocked" for the free process.

``largest_clearing`` needs distances, not membership: it refines a lattice
of cells until its radius is certified to within 1e-9, with distances from
the sorted centres in d = 1 and from its own k-d tree in d >= 2.  It holds
its whole lattice and realised box at once, so ``check_clearing_search``
refuses, before anything is allocated, a search of more than 10^7 lattice
cells or expected centres.

Cell realisation is idempotent, so concurrent readers may duplicate work
but can never disagree; there is no mutation besides cache fills.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import dist, floor

import numpy as np

from .seeds import cell_key_array, stream_u64_array, u01_array

__all__ = [
    "ObstacleField",
    "StackedTable",
    "batch_query",
    "Clearing",
    "largest_clearing",
    "check_clearing_search",
    "save_points",
    "write_header",
    "write_table",
]

_POISSON_TAIL = 1e-17
# largest cell mean nu * cell_size^d: e^-mean stays a normal float up to about 708
_MAX_CELL_MEAN = 512

# reach lists are built in aligned tiles of side s, the largest with
# (2s)^d <= _QUERY_TILE_CELLS (16 in d = 2): a build hashes the tile widened
# by r cells, (s + 2r)^d cells, so at most max(_QUERY_TILE_CELLS, 3^d) when
# a < cell_size (r = 1)
_QUERY_TILE_CELLS = 1024

# StackedTable: bin width a / _BINS_PER_RADIUS, at most _MAX_BINS bins
_BINS_PER_RADIUS = 16
_MAX_BINS = 1 << 20
# bin states, ordered so that a bin takes the largest mark any centre gives it
_FREE, _MIXED, _BLOCKED = 0, 1, 2

# largest_clearing: the returned radius lies within _TOL of the largest clearing
_TOL = 1e-9
# largest_clearing refuses a search whose lattice cells or expected realised
# centres number more than this: at about 200 bytes a lattice cell, 2 GB
_MAX_CLEARING_SIZE = 10**7


def _tile_side(d: int) -> int:
    """Side, in cells, of a d-dimensional tile: the largest s with
    (2s)^d <= _QUERY_TILE_CELLS, and 1 when there is none."""
    s = 1
    while (2 * s + 2) ** d <= _QUERY_TILE_CELLS:
        s += 1
    return s


@functools.cache
def _poisson_cdf_table(lam: float) -> tuple:
    """Cumulative Poisson(lam) probabilities out to negligible tail mass.

    Stops once the pmf term itself is negligible past the mode; the
    accumulated float sum can stall a few ulps below 1.0.  Built once per
    cell mean and kept for the life of the process: every field of that
    mean shares the (immutable) table.  A mean above ``_MAX_CELL_MEAN`` is
    refused: near 745 e^-lam rounds to 0, and the table would put the same
    count in every cell.
    """
    if not lam <= _MAX_CELL_MEAN:
        raise ValueError(f"cell mean nu * cell_size^d = {lam} exceeds {_MAX_CELL_MEAN}; take a smaller cell_size")
    pmf = math.exp(-lam)
    cdf = [pmf]
    k = 0
    while 1.0 - cdf[-1] > _POISSON_TAIL and not (k > lam and pmf < 1e-18):
        k += 1
        pmf *= lam / k
        cdf.append(cdf[-1] + pmf)
    return tuple(cdf)


def _checked_cell_size(cell_size, a: float, nu: float, d: int) -> float:
    """A field's lattice pitch: for None, max(a, 1.0) halved until the cell
    mean nu * pitch^d is at most ``_MAX_CELL_MEAN``; else ``cell_size``,
    which must be finite and strictly positive."""
    if cell_size is None:
        cs = max(a, 1.0)
        while nu * cs**d > _MAX_CELL_MEAN:
            cs /= 2.0
        return cs
    if not (cell_size > 0 and math.isfinite(cell_size)):
        raise ValueError(f"cell_size must be finite and strictly positive, got {cell_size}")
    return float(cell_size)


def _shape_error(d: int, got, bulk=False) -> ValueError:
    """The ValueError for a query point (or, ``bulk``, an array of points)
    of the wrong shape for a d-dimensional field, naming the shape expected."""
    if bulk:
        want = "an array of shape " + ("(n,) or (n, 1)" if d == 1 else f"(n, {d})")
    else:
        want = "a float or a sequence of 1 coordinate" if d == 1 else f"a sequence of {d} coordinates"
    shape = np.shape(got) if isinstance(got, np.ndarray) else got
    return ValueError(f"a query of a d = {d} field takes {want}, got {shape!r}")


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
    cell_size : lattice pitch for lazy realisation.  By default it is worked
        out from (d, nu, a): max(a, 1.0), so that a point query touches at
        most a 3^d cell neighbourhood, halved until the cell mean
        nu * cell_size^d is at most 512, where the Poisson table is exact.
        The pitch leaves the law of the field alone.  An explicit pitch
        whose cell mean exceeds 512 raises ValueError.
    """

    def __init__(self, d, nu, a, master_seed, cell_size=None):
        if int(d) != d or d < 1:
            raise ValueError(f"dimension must be a positive integer, got {d}")
        if not (nu > 0 and math.isfinite(nu)):
            raise ValueError(f"nu must be finite and strictly positive, got {nu}")
        if not (a > 0 and math.isfinite(a)):
            raise ValueError(f"a must be finite and strictly positive, got {a}")
        self.d = int(d)
        self.nu = float(nu)
        self.a = float(a)
        self.master_seed = int(master_seed)
        self.cell_size = _checked_cell_size(cell_size, self.a, self.nu, self.d)
        self._finite = False
        self._cdf = _poisson_cdf_table(self.nu * self.cell_size**self.d)
        self._init_caches()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_points(cls, points, a, d=None, cell_size=None):
        """Finite field from an explicit point list (tests, fixtures).

        Every cell not covered by ``points`` is empty.  ``nu`` is kept only
        for bookkeeping and set to 0.  ``points`` is an (n, d) array, or a
        flat list of d = 1 points; every coordinate must be finite.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim > 2:
            raise ValueError(f"points must be an (n, d) array or a flat list, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points must have finite coordinates")
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
        if not (obj.a > 0 and math.isfinite(obj.a)):
            raise ValueError(f"a must be finite and strictly positive, got {a}")
        obj.master_seed = 0
        obj.cell_size = _checked_cell_size(cell_size, obj.a, obj.nu, obj.d)
        obj._finite = True
        obj._cdf = None
        obj._points = pts
        obj._init_caches()
        return obj

    def _init_caches(self):
        self._reach: dict[tuple, tuple] = {}  # home cell -> reach list, see is_blocked
        self._table = None  # d = 1: StackedTable([self]), built on the first bulk query

    @property
    def realized_cells(self) -> dict:
        """Home cells whose reach lists are built (scalar queries, and bulk
        queries in d >= 2): home cell tuple -> tuple of centre tuples, for
        every home cell of each tile that a query touched."""
        return self._reach

    def spec_record(self) -> dict:
        """Small serialisable record identifying this field; its keys are the
        constructor's parameters, so ``ObstacleField(**record)`` rebuilds it."""
        return {
            "d": self.d,
            "nu": self.nu,
            "a": self.a,
            "master_seed": self.master_seed,
            "cell_size": self.cell_size,
        }

    # -- cell realisation --------------------------------------------------

    def _cell_box(self, lo_cell, hi_cell) -> np.ndarray:
        """Centres of the cells lo_cell..hi_cell (inclusive, component-wise),
        cell after cell in lexicographic order, in one vectorised hash pass.
        A finite field's cell holds the points whose home cell it is."""
        if self._finite:
            cells = np.floor(self._points / self.cell_size)
            return self._points[np.all((cells >= lo_cell) & (cells <= hi_cell), axis=1)]
        cells = lo_cell + np.indices(tuple(np.maximum(hi_cell - lo_cell + 1, 0))).reshape(self.d, -1).T
        return _hashed_points(cell_key_array(self.master_seed, cells), cells, self._cdf, self.cell_size)[0]

    def realize_box(self, lo, hi) -> np.ndarray:
        """All obstacle centres x with lo <= x < hi (component-wise).

        Realised through :meth:`_cell_box`, as the reach lists are, so both
        give the same points.
        """
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self._finite:
            pts = self._points
        else:
            lo_cell = np.floor(lo / self.cell_size).astype(np.int64)
            hi_cell = np.floor((hi - 1e-12) / self.cell_size).astype(np.int64)
            pts = self._cell_box(lo_cell, hi_cell)
        return pts[np.all((pts >= lo) & (pts < hi), axis=1)]

    # -- scalar queries ----------------------------------------------------

    def is_blocked(self, x) -> bool:
        """True iff x lies within distance a (inclusive) of an obstacle centre.

        ``x`` is a float or a length-1 sequence in d = 1, and a length-d
        sequence in d >= 2; any other shape raises ValueError.  One dict
        lookup: x's home cell ``floor(x / cell_size)`` keys its reach list
        (built with its tile on the cell's first query, see
        :meth:`_build_tile`), whose one or two centres are compared with
        ``math.dist``, so a query on a known home cell allocates no array.
        In d = 2 the key is built from the unpacked coordinates, and
        coordinate by coordinate in every other d.
        """
        d, cs = self.d, self.cell_size
        if d == 2:
            try:
                x0, x1 = x
            except (TypeError, ValueError):
                raise _shape_error(d, x) from None
            home = (floor(x0 / cs), floor(x1 / cs))
        else:
            try:
                x = tuple(x)
            except TypeError:
                if d > 1:
                    raise _shape_error(d, x) from None
                x = (float(x),)
            home = tuple([floor(v / cs) for v in x])
        near = self._reach.get(home)
        if near is None:
            # every key has d coordinates, so only a miss needs the check
            if len(home) != d:
                raise _shape_error(d, x)
            near = self._build_tile(home)
        a = self.a
        for p in near:
            if dist(p, x) <= a:
                return True
        return False

    def _build_tile(self, home: tuple) -> tuple:
        """Write the reach list of every home cell of ``home``'s tile, and
        return ``home``'s.

        A home cell's list holds every centre in the cell's box widened by
        a + slack, where ``slack``, taken from the tile's largest coordinate,
        covers the rounding of ``floor(x / cell_size)`` (x may lie an ulp or
        so outside its home box) and of the box bounds.  The tile widened by
        r cells, r * cell_size > a + slack, is realised in one pass, and
        centres are paired with homes one axis at a time: on each axis a
        centre meets at most k homes, so the pairs stay few in every d.
        """
        d, cs, s = self.d, self.cell_size, _tile_side(self.d)
        origin = np.array([c - c % s for c in home], dtype=np.int64)
        slack = 1e-9 * (self.a + cs * (1 + max(-int(origin.min()), int(origin.max()) + s - 1)))
        reach = self.a + slack
        r = math.floor(reach / cs) + 1
        pts = self._cell_box(origin - r, origin + s - 1 + r)
        k = math.floor(2 * reach / cs) + 3
        centre = np.arange(len(pts))
        flat = np.zeros(len(pts), dtype=np.int64)  # home index within the tile, row-major
        for q in range(d):
            v = pts[centre, q][:, None]
            h = np.floor((v - reach) / cs).astype(np.int64) - 1 + np.arange(k)
            keep = (h >= origin[q]) & (h < origin[q] + s) & (h * cs - reach <= v) & (v <= (h + 1) * cs + reach)
            pair, step = keep.nonzero()
            centre, flat = centre[pair], flat[pair] * s + (h[pair, step] - origin[q])
        points = list(map(tuple, pts.tolist()))
        lists = [[] for _ in range(s**d)]
        for j, i in zip(flat.tolist(), centre.tolist()):
            lists[j].append(points[i])
        homes = origin + np.indices((s,) * d).reshape(d, -1).T
        for cell, near in zip(map(tuple, homes.tolist()), lists):
            self._reach[cell] = tuple(near)
        return self._reach[home]

    # -- bulk queries --------------------------------------------------------

    def is_blocked_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_blocked` (inclusive radius).

        ``xs`` has shape (n,) or (n, 1) in d = 1, and (n, d) in d >= 2; any
        other shape raises ValueError.  In d = 1 the points go to this
        field's blocking table, the one-row :class:`StackedTable`.  In
        d >= 2 the points are grouped by home cell, each home's reach list
        is taken once (built on a miss, as for :meth:`is_blocked`), and
        each point is compared with its home's centres by
        ``sqrt(sum of squares) <= a``, which is exact along an axis.
        """
        if self.d == 1:
            if self._table is None:
                self._table = StackedTable([self])
            return self._table.is_blocked(xs)
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.d:
            raise _shape_error(self.d, xs, bulk=True)
        homes = np.floor(xs / self.cell_size).astype(np.int64)
        order = np.lexsort(homes.T[::-1])
        homes, xs = homes[order], xs[order]
        first = np.ones(len(xs), dtype=bool)
        first[1:] = (homes[1:] != homes[:-1]).any(axis=1)
        reach, lists = self._reach, []
        for home in map(tuple, homes[first].tolist()):
            lists.append(reach[home] if home in reach else self._build_tile(home))
        centres = np.asarray([p for near in lists for p in near], dtype=float).reshape(-1, self.d)
        # (point, centre) pairs: each point meets every centre of its home's list
        sizes = np.asarray([len(near) for near in lists], dtype=np.intp)
        group = np.cumsum(first) - 1
        per_point = sizes[group]
        point = np.repeat(np.arange(len(xs)), per_point)
        # pair k of point i is centre k - (i's first pair) + (its home's first centre)
        shift = np.cumsum(per_point) - per_point - (np.cumsum(sizes) - sizes)[group]
        centre = np.arange(len(point)) - np.repeat(shift, per_point)
        hit = np.sqrt(np.sum((xs[point] - centres[centre]) ** 2, axis=1)) <= self.a
        blocked = np.zeros(len(xs), dtype=bool)
        blocked[order[point[hit]]] = True
        return blocked


class StackedTable:
    """Blocking queries against several d = 1 fields, answered from one table.

    Row r of the table holds the bins of ``fields[r]`` over one box
    [x0, x1) shared by every row, so the candidates of a round on distinct
    fields are answered with one gather.  Every query lies at least
    ``margin``, the largest ``max(a, cell_size) + cell_size`` of the fields,
    inside the box, which grows geometrically to keep it so; ``builds``
    counts the boxes built.  Each answer equals the field's own
    :meth:`ObstacleField.is_blocked` answer, the exact rule ``|x - c| <= a``.

    ``line`` holds every row's sorted centres in the box, row after row,
    each row's between a -inf and a +inf sentinel, and ``state[r * n + j]``
    is the state of row r's bin j.  Across rows the centres are searched by
    the increasing ``keys``, ``c + r * span``: ``span`` is twice the box
    width, so the rows' key ranges do not overlap, and row r's sentinels
    have the keys ``x0 - span / 8`` and ``x1 + span / 8`` past ``r * span``,
    between the rows' key ranges.  A query of row r, keyed ``q + r * span``,
    is therefore always placed between its own row's sentinels, and a
    search needs no row bounds.
    """

    def __init__(self, fields):
        self.fields = list(fields)
        if not self.fields or any(f.d != 1 for f in self.fields):
            raise ValueError("a stacked table needs one or more d = 1 fields")
        self.radii = np.asarray([f.a for f in self.fields])
        self.margin = max(max(f.a, f.cell_size) + f.cell_size for f in self.fields)
        self.pad = 4.0 * max(f.cell_size for f in self.fields)
        self.builds = 0

    def is_blocked(self, xs, rows=None) -> np.ndarray:
        """``fields[rows[i]].is_blocked(xs[i])`` for every i, as one bool
        array; row 0 for every point when ``rows`` is None.

        ``xs`` has shape (n,) or (n, 1), and ``rows`` n integers in
        ``0 ... len(fields) - 1``; any other shape, type or row raises
        ValueError.
        A query closer than ``margin`` to the box's edge first grows the
        box.  The first box is the queries' range widened by ``margin +
        pad``; a later one extends each side that must grow by at least the
        box's width, so a region of width W costs O(log W) builds.
        """
        xs = np.asarray(xs, dtype=float)
        if not (xs.ndim == 1 or xs.ndim == 2 and xs.shape[1] == 1):
            raise _shape_error(1, xs, bulk=True)
        xs = xs.reshape(-1)
        if rows is not None:
            rows = np.asarray(rows)
            if len(rows) != len(xs):
                raise ValueError(f"{len(xs)} query points need as many rows, got {len(rows)}")
            # numpy would read bool rows as rows 0 and 1, and row -1 as the last row
            if len(rows) and not (rows.dtype.kind in "iu" and 0 <= rows.min() and rows.max() < len(self.fields)):
                raise ValueError(f"rows must lie in 0 ... {len(self.fields) - 1} as integers, got {rows.dtype} {rows}")
            # a narrow integer type would overflow in the bin offset rows * n
            rows = rows.astype(np.intp, copy=False)
        return self._lookup(xs, rows)

    def _lookup(self, xs, rows):
        """``is_blocked`` without its checks: ``xs`` of shape (n,), and
        ``rows`` None or n integer rows of the table.  The engine's batch
        asker calls it with rows it built in range."""
        if len(xs) == 0:
            return np.zeros(0, dtype=bool)
        lo, hi, m = float(xs.min()), float(xs.max()), self.margin
        if not self.builds:
            self._build(lo - m - self.pad, hi + m + self.pad)
        elif not (self.x0 + m <= lo and hi <= self.x1 - m):
            x0, x1 = self.x0, self.x1
            width = x1 - x0
            self._build(min(lo - m, x0 - width) if lo - m < x0 else x0,
                        max(hi + m, x1 + width) if hi + m > x1 else x1)
        b = ((xs - self.x0) * self.inv_h).astype(np.intp)
        if rows is not None:
            b += rows * self.n
        state = self.state[b]
        blocked = state == _BLOCKED
        mixed = (state == _MIXED).nonzero()[0]
        if mixed.size:
            q, r = xs[mixed], 0 if rows is None else rows[mixed]
            blocked[mixed] = _line_distances(self.line, self.keys, q, q + r * self.span) <= self.radii[r]
        return blocked

    def _build(self, x0: float, x1: float):
        """Realise every row's centres in [x0, x1) and write the table over
        that box.

        All rows share one bin width h, at most a/16 for the smallest
        radius (wider when the table would hold more than 2^20 bins).
        Every point x of bin j lies within h/2 of the bin's midpoint m_j,
        so the bin is free if m_j is farther than a + h/2 from every centre
        in the box and blocked if some centre lies within a - h/2 of m_j.
        ``slack`` adds to h/2 a margin far above the rounding of the bin
        lookup and of the distances, so a table answer never differs from
        the exact rule.  Centres outside the box are not needed: no query
        comes nearer than ``margin`` to its edge, and ``margin`` exceeds
        every radius.  Each centre is paired only with the bins within its
        reach a + slack (widened by a bin on each side for the rounding of
        the bin range), so the build holds a byte per bin and a few dozen
        (bin, centre) pairs per centre.  A pair's mark is 1 (mixed) when
        the bin's midpoint lies within a + slack of the centre and 2
        (blocked) when it lies within a - slack, and one ``np.maximum.at``
        writes the marks, so a bin keeps the strongest mark any centre
        gives it, its nearest centre's.  (Two fancy assignments, mixed then
        blocked, give the same table but cost about three times as much on
        numpy 2, BENCH_17.json.)
        """
        line, counts = _stacked_lines(self.fields, x0, x1)
        rows, a = len(counts), self.radii
        span = 2.0 * (x1 - x0)
        row = np.repeat(np.arange(rows), counts)
        # two keys that round to one value differ by at most 2^-51 times the
        # largest key, which must stay far below every radius (see _line_distances)
        if rows > 1 and 2.0**-46 * (max(abs(x0), abs(x1)) + rows * span) > a.min():
            raise ValueError("box too wide for a stacked table at these radii")
        # the 2r sentinels of the rows before row r shift its entries by 2r
        r = np.arange(rows)
        right = np.cumsum(counts) + 2 * r + 1  # each row's +inf sentinel
        left = right - counts - 1  # and its -inf sentinel
        inside = np.arange(len(line)) + 2 * row + 1
        self.line, self.keys = np.empty((2, len(line) + 2 * rows))
        self.line[inside], self.keys[inside] = line, line + row * span
        self.line[left], self.line[right] = -np.inf, np.inf
        self.keys[left], self.keys[right] = x0 - span / 8 + r * span, x1 + span / 8 + r * span
        h = max(a.min() / _BINS_PER_RADIUS, rows * (x1 - x0) / _MAX_BINS)
        n = int((x1 - x0) / h) + 2
        slack = 0.5 * h * (1.0 + 1e-6) + 1e-12 * (abs(x0) + abs(x1) + a)
        # (bin, centre) pairs: the bins j whose midpoints x0 + (j + 0.5) h may
        # lie within a + slack of the centre
        reach = (a + slack)[row]
        first = np.maximum(np.floor((line - reach - x0) / h - 0.5).astype(np.intp) - 1, 0)
        size = np.maximum(np.minimum(np.floor((line + reach - x0) / h - 0.5).astype(np.intp) + 2, n) - first, 0)
        j = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - first, size)
        gap = np.abs(x0 + (j + 0.5) * h - np.repeat(line, size))
        mark = (gap <= np.repeat(reach, size)).view(np.uint8) + (gap <= np.repeat((a - slack)[row], size))
        self.state = np.zeros(rows * n, dtype=np.uint8)
        np.maximum.at(self.state, np.repeat(row * n, size) + j, mark)
        self.x0, self.x1, self.span, self.inv_h, self.n = x0, x1, span, 1.0 / h, n
        self.builds += 1


def _ask(query, point):
    return query(point)


def batch_query(fields, d: int):
    """The blocking query of a batch of d-dimensional runs, run i among the
    obstacles of ``fields[i]``: returns ``(ask, table)``.

    ``ask(p, run)`` answers, as one bool array, whether each candidate
    ``p[i]`` (a row of an (n, d) array) of run ``run[i]`` is blocked by that
    run's field; ``table`` is the batch's own :class:`StackedTable`, or None.

    - A batch of ``None`` fields is the free process: nothing is blocked.
      A batch that mixes ``None`` with fields raises ValueError.
    - In d >= 2 each candidate asks its field's scalar ``is_blocked``, in
      row order.
    - In d = 1 runs that all share one field ask its ``is_blocked_many``
      (and its warm table); runs on distinct fields ask a ``StackedTable``
      with one row per distinct field, owned by the batch, so a block of
      candidates is answered by one gather.

    Every answer is the scalar rule's.
    """
    if any(f is None for f in fields):
        if not all(f is None for f in fields):
            raise ValueError("a batch runs either the free process (every field None) or among obstacles (no field None)")
        return (lambda p, run: np.zeros(len(p), dtype=bool)), None
    shared = all(f is fields[0] for f in fields)
    if d >= 2:
        if shared:
            query = fields[0].is_blocked
            return (lambda p, run: np.fromiter(map(query, p.tolist()), dtype=bool, count=len(p))), None
        queries = [f.is_blocked for f in fields]
        return (lambda p, run: np.fromiter(
            map(_ask, map(queries.__getitem__, run.tolist()), p.tolist()), dtype=bool, count=len(p)
        )), None
    if shared:
        many = fields[0].is_blocked_many
        return (lambda p, run: many(p[:, 0])), None
    index = {}
    row_of = np.asarray([index.setdefault(id(f), len(index)) for f in fields])
    table = StackedTable(list({id(f): f for f in fields}.values()))
    return (lambda p, run: table._lookup(p[:, 0], row_of[run])), table


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
    ``realize_box``.  A field alone in its group (a finite field always is)
    is realised through its own ``realize_box``.
    """
    groups = {}
    for i, f in enumerate(fields):
        groups.setdefault(i if f._finite else (f.nu, f.cell_size), []).append(i)
    lines, rows = [], []
    for group in groups.values():
        if len(group) == 1:
            pts = fields[group[0]].realize_box([x0], [x1])[:, 0]
            lines.append(pts)
            rows.append(np.full(len(pts), group[0]))
            continue
        cs = fields[group[0]].cell_size
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


def check_clearing_search(field: ObstacleField, ell: float):
    """Raise ValueError, naming ell, d and the count, when the search of
    :func:`largest_clearing` over B(0, ell) would hold more than
    ``_MAX_CLEARING_SIZE`` lattice cells or realise more than that many
    obstacle centres on average.  Allocates nothing."""
    if not ell > 0:
        raise ValueError(f"ell must be positive, got {ell}")
    d, cs = field.d, field.cell_size
    cells = (math.ceil(ell / cs) - math.floor(-ell / cs)) ** d
    centres = field.nu * (2.0 * (ell + _clearing_margin(field))) ** d
    for count, what in ((cells, "lattice cells"), (centres, "obstacle centres on average")):
        if count > _MAX_CLEARING_SIZE:
            raise ValueError(
                f"a clearing search over ell = {ell:g} in d = {d} needs {count:.3g} {what}, "
                f"more than {_MAX_CLEARING_SIZE:.3g}; take a smaller ell"
            )


def _clearing_margin(field: ObstacleField) -> float:
    """The first margin by which a clearing search widens its realised box."""
    return max(8.0 * field.cell_size, 2.0 * field.a)


def largest_clearing(field: ObstacleField, ell: float) -> Clearing:
    """Largest obstacle-free ball centred in B(0, ell).

    The returned radius lies within ``_TOL`` (and the rounding of the
    coordinates) of the true largest clearing centred in B(0, ell), and the
    centre lies in B(0, ell).  The distance to the nearest obstacle centre
    is 1-Lipschitz, so its value at the point of B(0, ell) nearest a cell's
    centre, plus the cell's half-diagonal, bounds it on the cell's part of
    the ball; on B(0, ell) it is also at most ell + |c| for that point's
    nearest centre c, which ends the search when a whole arc of the sphere
    ties.  The search starts from the lattice of pitch ``field.cell_size``
    aligned to the origin (the same cells for every ell), drops the cells
    that miss the ball, and splits a cell into its 2^d halves while its
    bound exceeds the best value found by more than ``_TOL``, so the radius
    is monotone in ell up to ``_TOL``.  Distances come from the sorted
    centres in d = 1 and a k-d tree in d >= 2.  Ties go toward the origin.
    A search too large for memory raises ValueError first
    (:func:`check_clearing_search`).
    """
    check_clearing_search(field, ell)
    d, cs = field.d, field.cell_size
    if field._finite and not len(field._points):
        return Clearing((0.0,) * d, math.inf)
    k = np.arange(math.floor(-ell / cs), math.ceil(ell / cs))
    lattice = np.stack(np.meshgrid(*[k] * d, indexing="ij"), axis=-1).reshape(-1, d) * cs
    halves = np.indices((2,) * d).reshape(d, -1).T
    margin = _clearing_margin(field)
    for _ in range(60):
        # with no centre in the box every score is inf, and the margin grows
        pts = field.realize_box([-ell - margin] * d, [ell + margin] * d)
        if d == 1:
            line = np.concatenate(([-np.inf], np.sort(pts[:, 0]), [np.inf]))
        else:
            from scipy.spatial import cKDTree

            # the tree reports a missing neighbour as index len(pts)
            tree, cap = cKDTree(pts), np.append(ell + np.sqrt(np.einsum("ij,ij->i", pts, pts)), np.inf)
        lo, h, best = lattice, cs, (-math.inf, 0.0, None)  # (score, -|point|^2, point)
        while True:
            # a cell stays while its point nearest the origin lies in the ball
            q = np.maximum(lo, np.minimum(0.0, lo + h))
            inside = np.einsum("ij,ij->i", q, q) <= ell * ell
            if not inside.all():  # the first lattice mostly is, and a mask copy costs
                lo = lo[inside]
            if not len(lo):
                break
            p = lo + 0.5 * h
            r2 = np.einsum("ij,ij->i", p, p)
            out = r2 > ell * ell
            p[out] *= (ell / np.sqrt(r2[out]))[:, None]
            if d == 1:
                score, bound = _line_distances(line, line, p[:, 0], p[:, 0]), math.inf
            else:
                score, i = tree.query(p)
                bound = cap[i]
            ties = np.flatnonzero(score == score.max())
            j = ties[np.argmin(r2[ties])]
            best = max(best, (float(score[j]), -min(float(r2[j]), ell * ell), tuple(map(float, p[j]))))
            keep = np.minimum(score + 0.5 * math.sqrt(d) * h, bound) > best[0] + _TOL
            h *= 0.5
            lo = (lo[keep][:, None, :] + h * halves).reshape(-1, d)
        # a score above the margin may miss a centre outside the realised box
        if best[0] <= margin:
            return Clearing(best[2], max(0.0, best[0] - field.a))
        margin *= 2.0
    raise RuntimeError("clearing search failed to stabilise; field looks pathologically empty")


# -- point fixtures ----------------------------------------------------------


def write_header(fh, header: str | None):
    """Write each line of ``header`` as a ``# `` comment line; nothing if it is empty."""
    for line in (header or "").splitlines():
        fh.write(f"# {line}\n")


def write_table(path, names, rows, header: str | None = None):
    """CSV table: the ``header`` comment lines, the column ``names``, one line a row.

    Integers are written as they are, every other value as ``%.12g`` (NaN as ``nan``).
    """
    with open(path, "w") as fh:
        write_header(fh, header)
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, np.integer)) else f"{v:.12g}" for v in row) + "\n")


def save_points(path, points, header: str | None = None):
    """Write points as plain text, one per line, comma-separated coordinates,
    after the ``header`` comment lines; ``np.loadtxt(path, delimiter=",",
    ndmin=2)`` reads them back."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w") as fh:
        write_header(fh, header)
        for row in pts:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

