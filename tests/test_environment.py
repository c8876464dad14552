"""Obstacle field: reproducibility, Poisson statistics, query consistency."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from scipy import stats as st

from mildbbm.environment import (
    _QUERY_TILE_CELLS,
    Clearing,
    ObstacleField,
    StackedTable,
    _line_distances,
    _tile_side,
    largest_clearing,
    load_points,
    save_points,
    write_table,
)


def nearest_centre(field, x, half_width):
    """Brute force: distance from x to the nearest centre that ``realize_box``
    gives in the closed box of ``half_width`` around x (inf if none)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pts = field.realize_box(x - half_width, np.nextafter(x + half_width, np.inf))
    return math.sqrt(float(np.min(np.sum((pts - x) ** 2, axis=1)))) if len(pts) else math.inf


def exact_blocked(field, xs):
    """The exact d = 1 rule ``|x - c| <= a``, searched independently of the
    blocking table: the sorted centres ``realize_box`` gives within a + 1 of
    the queries, and ``np.searchsorted``."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    pad = field.a + 1.0
    centres = np.sort(field.realize_box([xs.min() - pad], [xs.max() + pad])[:, 0])
    line = np.concatenate(([-np.inf], centres, [np.inf]))
    i = np.searchsorted(line, xs)
    return np.minimum(xs - line[i - 1], line[i] - xs) <= field.a


def nearest_distances(field, xs):
    """Reference nearest-centre distances in d >= 2: a k-d tree over the
    centres ``realize_box`` gives within a + 1 of the queries' bounding box
    (exact below a + 1, inf when the box holds no centre)."""
    from scipy.spatial import cKDTree

    xs = np.asarray(xs, dtype=float)
    pad = field.a + 1.0
    pts = field.realize_box(xs.min(axis=0) - pad, xs.max(axis=0) + pad)
    return cKDTree(pts).query(xs)[0] if len(pts) else np.full(len(xs), np.inf)


class TestCreation:
    def test_rejects_bad_params(self):
        for bad in [dict(nu=0.0), dict(a=-1.0), dict(cell_size=0.0)]:
            kw = dict(d=1, nu=1.0, a=0.2, master_seed=1, cell_size=1.0)
            kw.update(bad)
            with pytest.raises(ValueError):
                ObstacleField(**kw)

    def test_finite_fields_check_cell_size_and_points(self):
        # a cell size of 0 is not the default, and a negative one does not
        # call its own centre free
        for cs in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cell_size"):
                ObstacleField.from_points([[0.5]], a=0.3, cell_size=cs)
            with pytest.raises(ValueError, match="cell_size"):
                ObstacleField(1, 1.0, 0.3, 1, cs)
        for pts in ([[float("nan")]], [[float("inf"), 0.0]], [[0.0, 0.0], [1.0, -float("inf")]]):
            with pytest.raises(ValueError, match="finite"):
                ObstacleField.from_points(pts, a=0.3)
        f = ObstacleField.from_points([[0.5]], a=0.3, cell_size=0.25)
        assert f.cell_size == 0.25 and f.is_blocked(0.5)
        assert f.is_blocked_many(np.array([0.5, 0.79, 0.81])).tolist() == [True, True, False]
        assert ObstacleField.from_points([[0.5]], a=0.3, cell_size=None).cell_size == 1.0

    def test_finite_fields_take_at_most_two_array_dimensions(self):
        # (2, 1, 1) used to give a d = 1 field and (1, 2, 1) a d = 2 field
        # whose queries raised IndexError
        for shape, d in (((2, 1, 1), None), ((1, 2, 1), None), ((0, 1, 1), 1)):
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                ObstacleField.from_points(np.zeros(shape), a=0.3, d=d)

    def test_record_round_trip(self):
        f = ObstacleField(2, 0.7, 0.4, 99, 1.5)
        g = ObstacleField.from_record(f.spec_record())
        assert g.spec_record() == f.spec_record()
        pts_f = f.realize_box([-3, -3], [3, 3])
        pts_g = g.realize_box([-3, -3], [3, 3])
        assert np.array_equal(pts_f, pts_g)

    def test_huge_cell_mean_rejected(self):
        with pytest.raises(ValueError):
            ObstacleField(1, 5000.0, 0.2, 1, 10.0)

    def test_fields_of_one_cell_mean_share_one_poisson_table(self):
        f, g = ObstacleField(1, 0.5, 0.3, 1), ObstacleField(1, 0.5, 0.8, 2)
        assert f._cdf is g._cdf and isinstance(f._cdf, tuple)
        # the table is keyed by the cell mean nu * cell_size^d alone
        assert ObstacleField(2, 0.5, 0.3, 3)._cdf is f._cdf
        assert ObstacleField(1, 2.0, 0.3, 1)._cdf is not f._cdf


def homes(queries, cs):
    """The home cell ``floor(x / cs)`` of every query."""
    return {tuple(math.floor(v / cs) for v in x) for x in queries}


def tiles(cells, d=2):
    """Every cell of the aligned d-dimensional tiles that hold ``cells``."""
    s = _tile_side(d)
    out = set()
    for origin in {tuple(c - c % s for c in cell) for cell in cells}:
        out.update(itertools.product(*[range(o, o + s) for o in origin]))
    return out


def near_box(field, cell, reach, norm=2):
    """The centres ``realize_box`` gives within ``reach`` of the box of
    ``cell`` (distance in the ``norm``-norm), as a set of tuples."""
    lo = np.asarray(cell) * field.cell_size
    hi = lo + field.cell_size
    pts = field.realize_box(lo - reach - 1.0, hi + reach + 1.0)
    gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    return {tuple(p) for p, g in zip(pts.tolist(), np.linalg.norm(gap, norm, axis=1)) if g <= reach}


def query_cell(field, cell):
    """Ask ``field`` about the middle of ``cell``, which builds its reach list."""
    field.is_blocked([(c + 0.5) * field.cell_size for c in cell])


@pytest.fixture
def hashed(monkeypatch):
    """The number of cells of each ``_hashed_points`` call, as a list."""
    from mildbbm import environment

    sizes = []
    hash_points = environment._hashed_points

    def counting(keys, cells, *rest):
        sizes.append(len(cells))
        return hash_points(keys, cells, *rest)

    monkeypatch.setattr(environment, "_hashed_points", counting)
    return sizes


def tile_edge_cells(d):
    """Cells on both sides of tile edges, at negative coordinates too."""
    s = _tile_side(d)
    line = [-2 * s - 1, -2 * s, -s - 1, -s, -1, 0, 3, s - 1, s, 5 * s + 7]
    rng = random.Random(d)
    mixed = [tuple(rng.choice(line) for _ in range(d)) for _ in range(10)] if d > 1 else []
    return [(v,) * d for v in line] + mixed


class TestDeterminism:
    def test_same_cell_twice_identical(self):
        # a second field, queried in the reverse order, rebuilds each cell's
        # reach list, across several tiles
        cells = [(3,), (-5,), (17,), (-40,), (600,), (-1400,)]
        f = ObstacleField(1, 1.0, 0.25, 7, 1.0)
        again = ObstacleField(1, 1.0, 0.25, 7, 1.0)
        for field, order in ((f, cells), (again, cells[::-1])):
            for c in order:
                query_cell(field, c)
        first = [f.realized_cells[c] for c in cells]
        assert first == [again.realized_cells[c] for c in cells]
        assert any(first)

    def test_query_order_independence(self):
        fa = ObstacleField(2, 0.8, 0.3, 123, 1.0)
        fb = ObstacleField(2, 0.8, 0.3, 123, 1.0)
        rng = random.Random(5)
        queries = [(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(300)]
        ans_a = [fa.is_blocked(q) for q in queries]
        shuffled = queries[:]
        rng.shuffle(shuffled)
        ans_b = {q: fb.is_blocked(q) for q in shuffled}
        assert ans_a == [ans_b[q] for q in queries]
        # a query builds the tile of its home cell, whatever the order
        want_cells = tiles(homes(queries, fa.cell_size))
        assert set(fa.realized_cells) == set(fb.realized_cells) == want_cells
        # any mix of scalar and bulk calls, in any order and any split, gives
        # the same answers and realises the same cells
        for mix in range(4):
            order = queries[:]
            rng.shuffle(order)
            f = ObstacleField(2, 0.8, 0.3, 123, 1.0)
            got = {}
            lo = 0
            while lo < len(order):
                part = order[lo : lo + rng.randint(1, 60)]
                lo += len(part)
                if (lo + mix) % 2:
                    got.update(zip(part, f.is_blocked_many(np.asarray(part)).tolist()))
                else:
                    got.update((q, f.is_blocked(q)) for q in part)
            assert [got[q] for q in queries] == ans_a, mix
            assert set(f.realized_cells) == want_cells, mix
        bulk = ObstacleField(2, 0.8, 0.3, 123, 1.0)
        assert bulk.is_blocked_many(np.asarray(queries)).tolist() == ans_a
        assert set(bulk.realized_cells) == want_cells

    def test_scalar_matches_bulk(self):
        # a home cell's reach list holds every centre realize_box gives within
        # a of the cell's box, and only centres realize_box gives inside the
        # box widened by a hair more than a: on a cold field, and after the
        # neighbouring tiles are built (a = cell_size reaches the second ring)
        for (d, nu), a in itertools.product(((1, 2.0), (2, 3.0), (3, 4.0)), (0.2, 0.7)):
            cells = tile_edge_cells(d)
            bulk = ObstacleField(d, nu, a, 2024, 0.7)
            want = [near_box(bulk, c, a) for c in cells]
            outer = [near_box(bulk, c, a + 1e-6, np.inf) for c in cells]
            assert sum(map(len, want)) > len(cells) // 2, d
            for cell, expected, allowed in zip(cells, want, outer):
                cold = ObstacleField(d, nu, a, 2024, 0.7)
                query_cell(cold, cell)
                assert expected <= set(cold.realized_cells[cell]) <= allowed, cell
                warm = ObstacleField(d, nu, a, 2024, 0.7)
                s = _tile_side(d)
                neighbours = [tuple(c + step * (p == q) for p, c in enumerate(cell)) for q in range(d) for step in (-s, s)]
                for c in neighbours:
                    query_cell(warm, c)
                query_cell(warm, cell)
                assert warm.realized_cells[cell] == cold.realized_cells[cell], cell
                assert set(warm.realized_cells) == tiles([cell] + neighbours, d)

    def test_different_seeds_differ(self):
        f1 = ObstacleField(1, 1.0, 0.2, 1, 1.0)
        f2 = ObstacleField(1, 1.0, 0.2, 2, 1.0)
        assert not np.array_equal(f1.realize_box([-50], [50]), f2.realize_box([-50], [50]))


class TestPoissonStatistics:
    def test_total_count_band(self):
        # nu=2 over [0, 1e4): mean 2e4, sd ~ 141
        f = ObstacleField(1, 2.0, 0.2, 31415, 1.0)
        n = len(f.realize_box([0.0], [1e4]))
        assert abs(n - 2e4) < 3 * math.sqrt(2e4)

    def test_cell_counts_chisquare(self):
        f = ObstacleField(1, 1.0, 0.2, 777, 1.0)
        pts = f.realize_box([0.0], [4000.0])
        counts = np.bincount(np.floor(pts[:, 0]).astype(int), minlength=4000)
        kmax = 5
        obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        pmf = np.asarray([math.exp(-1) / math.factorial(k) for k in range(kmax)])
        pmf = np.append(pmf, 1.0 - pmf.sum())
        res = st.chisquare(obs, pmf * len(counts))
        assert res.pvalue > 0.01

    def test_disjoint_boxes_independent_means(self):
        f = ObstacleField(2, 1.5, 0.3, 909, 1.0)
        counts = [
            len(f.realize_box([i * 4.0, j * 4.0], [i * 4.0 + 4.0, j * 4.0 + 4.0]))
            for i in range(5)
            for j in range(5)
        ]
        mean = np.mean(counts)
        # Poisson(24) per box, 25 boxes
        assert abs(mean - 24.0) < 3 * math.sqrt(24.0 / 25)


class TestBlocking:
    def test_forced_point_inclusive_radius(self):
        f = ObstacleField.from_points([[0.0, 0.0]], a=1.0)
        assert f.is_blocked((0.5, 0.0))
        assert f.is_blocked((1.0, 0.0))  # closed ball boundary
        assert not f.is_blocked((1.0 + 1e-9, 0.0))

    def test_empty_field_blocks_nothing(self):
        f = ObstacleField.from_points([], a=1.0, d=3)
        for x in [(0, 0, 0), (5, -2, 1)]:
            assert not f.is_blocked(x)

    def test_consistency_with_nearest_distance(self):
        f = ObstacleField(1, 1.0, 0.25, 5150, 1.0)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-40, 40, size=100_000)
        blocked = f.is_blocked_many(xs)
        assert np.array_equal(blocked, exact_blocked(f, xs))
        # scalar path agrees on a subsample
        for x, bulk in zip(xs[:300], blocked[:300]):
            r = nearest_centre(f, [x], 5.0)
            assert f.is_blocked([x]) == bulk == (r <= f.a)

    def test_blocked_fraction_matches_vacancy(self):
        # fraction of the line covered by obstacle intervals: 1 - e^{-2 nu a}
        f = ObstacleField(1, 0.5, 0.3, 606, 1.0)
        xs = np.linspace(-2000, 2000, 200_001)
        frac = f.is_blocked_many(xs).mean()
        assert frac == pytest.approx(1 - math.exp(-0.3), abs=0.01)


class TestQueryShapes:
    """A query of the wrong shape raises ValueError naming the shape expected,
    instead of being reshaped into other points or answered as another."""

    def test_bulk_queries_take_n_points_of_the_fields_dimension(self):
        f2, f1 = ObstacleField(2, 0.5, 0.3, 1), ObstacleField(1, 0.5, 0.3, 1)
        for bad in (np.zeros((2, 3)), np.zeros(4), np.zeros((3, 1)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match=r"\(n, 2\)"):
                f2.is_blocked_many(bad)
        for bad in (np.zeros((3, 2)), np.zeros((2, 1, 1))):
            with pytest.raises(ValueError, match=r"\(n,\) or \(n, 1\)"):
                f1.is_blocked_many(bad)
        # the accepted shapes, empty ones included
        assert f1.is_blocked_many(np.zeros(3)).shape == f1.is_blocked_many(np.zeros((3, 1))).shape == (3,)
        assert f1.is_blocked_many(np.empty((0, 1))).shape == (0,)
        assert f2.is_blocked_many(np.zeros((3, 2))).shape == (3,)

    def test_stacked_tables_take_n_points_and_n_rows(self):
        fields = mixed_fields()
        table = StackedTable(fields)
        xs, rows = np.array([0.5, 3.3, 7.0]), np.array([2, 2, 1])
        want = scalar_answers(fields, xs, rows)
        assert np.array_equal(table.is_blocked(xs[:, None], rows), want)
        assert np.array_equal(table.is_blocked(xs, rows), want)
        assert table.is_blocked(xs[:, None]).shape == (3,) and table.is_blocked(np.empty((0, 1))).shape == (0,)
        for bad in (np.zeros((3, 2)), np.zeros((2, 1, 1)), np.float64(0.5)):
            with pytest.raises(ValueError, match=r"\(n,\) or \(n, 1\)"):
                table.is_blocked(bad)
        for bad in (rows[:2], np.zeros(4, dtype=np.intp)):
            with pytest.raises(ValueError, match="rows"):
                table.is_blocked(xs, bad)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scalar_queries_take_one_point_of_the_fields_dimension(self, d):
        f = ObstacleField(d, 0.5, 0.3, 1)
        for n in {1, 2, 3, 4} - {d}:
            with pytest.raises(ValueError, match=f"d = {d}"):
                f.is_blocked((0.5,) * n)
            with pytest.raises(ValueError, match=f"d = {d}"):
                f.is_blocked(np.full(n, 0.5))
        # a warm home cell answers only a point of d coordinates
        f.is_blocked((0.5,) * d)
        with pytest.raises(ValueError):
            f.is_blocked((0.5,) * (d + 1))
        if d > 1:
            with pytest.raises(ValueError, match=f"{d} coordinates"):
                f.is_blocked(0.5)

    def test_a_d1_point_is_a_float_or_one_coordinate(self):
        f = ObstacleField.from_points([[0.0]], a=0.3)
        for x in (0.25, np.float64(0.25), (0.25,), [0.25], np.array([0.25]), np.array(0.25)):
            assert f.is_blocked(x)
        assert not f.is_blocked(0.31) and not f.is_blocked([0.31])
        with pytest.raises(ValueError, match="1 coordinate"):
            f.is_blocked((0.5, 0.5))


def boundary_queries(centres, a):
    """c - a and c + a for every centre, with both float neighbours of each."""
    edges = np.concatenate([centres - a, centres + a])
    return np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])


class TestBlockingTable:
    def test_ball_edges_and_their_float_neighbours(self):
        f = ObstacleField(1, 1.0, 0.3, 31, 1.0)
        centres = f.realize_box([-20.0], [20.0])[:, 0]
        xs = boundary_queries(centres, f.a)
        fresh = ObstacleField(1, 1.0, 0.3, 31, 1.0)
        assert np.array_equal(fresh.is_blocked_many(xs), exact_blocked(fresh, xs))
        # the closed ball: c +- a is blocked, the next float outwards is not
        one = ObstacleField.from_points([[0.0]], a=0.3)
        assert one.is_blocked_many(np.array([0.3, -0.3])).all()
        assert not one.is_blocked_many(np.nextafter(np.array([0.3, -0.3]), [1.0, -1.0])).any()

    def test_random_queries_match_exact_rule(self):
        f = ObstacleField(1, 2.0, 0.25, 8, 0.7)
        xs = np.random.default_rng(2).normal(0.0, 15.0, 200_000)
        assert np.array_equal(f.is_blocked_many(xs), exact_blocked(f, xs))

    def test_table_answers_most_queries(self):
        from mildbbm.environment import _MIXED

        f = ObstacleField(1, 1.0, 0.3, 12, 1.0)
        xs = np.random.default_rng(0).uniform(-30.0, 30.0, 50_000)
        f.is_blocked_many(xs)
        table = f._table
        state = table.state[((xs - table.x0) * table.inv_h).astype(np.intp)]
        assert (state == _MIXED).mean() < 0.05

    def test_far_queries_grow_the_table(self):
        f = ObstacleField(1, 1.0, 0.3, 77, 1.0)
        near = np.linspace(-3.0, 3.0, 1001)
        f.is_blocked_many(near)
        assert f._table.builds == 1
        for far in (1e4, -2.5e4, 3.1e5):
            xs = far + np.linspace(-3.0, 3.0, 1001)
            fresh = ObstacleField(1, 1.0, 0.3, 77, 1.0)
            assert np.array_equal(f.is_blocked_many(xs), exact_blocked(fresh, xs))
        assert f._table.builds == 4
        assert np.array_equal(f.is_blocked_many(near), exact_blocked(fresh, near))

    def test_finite_and_empty_fields(self):
        pts = np.array([[-2.0], [0.45], [0.5], [7.25]])
        f = ObstacleField.from_points(pts, a=0.4)
        xs = np.concatenate([boundary_queries(pts[:, 0], 0.4), np.linspace(-10.0, 10.0, 4001)])
        expected = np.abs(xs[:, None] - pts[:, 0][None, :]).min(axis=1) <= 0.4
        assert np.array_equal(f.is_blocked_many(xs), expected)
        empty = ObstacleField.from_points([], a=0.4, d=1)
        assert not empty.is_blocked_many(xs).any()
        assert empty.is_blocked_many(np.empty(0)).shape == (0,)
        assert ObstacleField(2, 0.5, 0.3, 1, 1.0).is_blocked_many(np.empty((0, 2))).shape == (0,)

    def test_answers_do_not_depend_on_query_history(self):
        xs = np.random.default_rng(9).uniform(-40.0, 40.0, 20_000)
        plain = ObstacleField(1, 1.0, 0.3, 404, 1.0)
        first = plain.is_blocked_many(xs)
        # a box wider than 2^20 bins of a/16 widens the bins
        wide = ObstacleField(1, 1.0, 0.3, 404, 1.0)
        wide.is_blocked_many(np.array([-2e4, 2e4]))
        # small boxes grown piece by piece
        grown = ObstacleField(1, 1.0, 0.3, 404, 1.0)
        for lo in range(-40, 40, 5):
            grown.is_blocked_many(np.array([float(lo)]))
        assert 1.0 / wide._table.inv_h > wide.a / 16
        assert np.array_equal(wide.is_blocked_many(xs), first)
        assert np.array_equal(grown.is_blocked_many(xs), first)
        assert np.array_equal(plain.is_blocked_many(xs[::-1]), first[::-1])
        assert np.array_equal(first, exact_blocked(plain, xs))

    def test_bulk_box_grows_geometrically(self):
        # the shape of the fk benchmark: 512 paths to t = 10 at dt = 1e-3
        from mildbbm.feynman_kac import sample_free_times

        f = ObstacleField(1, 1.0, 0.3, 2718, 1.0)
        sample_free_times(f, 1.0, 10.0, 1e-3, 512, seed=3)
        # each rebuild at least doubles the width, and the first box is at
        # least 2 * (margin + pad) = 12 wide
        table = f._table
        width = table.x1 - table.x0
        assert 1 <= f._table.builds <= 1 + math.log2(width / 12.0)
        assert f._table.builds <= 4

    def test_every_bulk_box_serves_queries_a_margin_inside_it(self):
        f1 = ObstacleField(1, 1.0, 0.3, 46, 1.0)
        table = StackedTable(mixed_fields())
        f1.is_blocked_many(np.zeros(1))
        table.is_blocked(np.zeros(1), np.zeros(1, dtype=np.intp))
        for t in (f1._table, table):
            assert t.margin >= 1.0 and t.margin > t.radii.max()
        # queries on the served edges reuse the box, one an ulp beyond rebuilds it
        lo, hi = served_box(f1._table)
        f1.is_blocked_many(np.array([lo, hi]))
        assert f1._table.builds == 1
        f1.is_blocked_many(np.array([np.nextafter(lo, -np.inf)]))
        assert f1._table.builds == 2
        lo, hi = served_box(table)
        table.is_blocked(np.array([lo, hi]), np.array([0, 5]))
        assert table.builds == 1
        table.is_blocked(np.array([np.nextafter(hi, np.inf)]), np.array([5]))
        assert table.builds == 2


def served_box(table):
    """The queries ``table`` answers without growing: ``margin`` inside its box."""
    return table.x0 + table.margin, table.x1 - table.margin


def mixed_fields():
    """d = 1 fields that differ in nu, a and cell_size, plus a finite and an empty one."""
    return [
        ObstacleField(1, 0.5, 0.3, 41, 1.0),
        ObstacleField(1, 2.0, 0.1, 42, 0.7),
        ObstacleField.from_points([[-1.0], [0.5], [3.25], [3.3]], a=0.4),
        ObstacleField.from_points([], a=0.2, d=1),
        ObstacleField(1, 0.5, 0.3, 43, 1.0),
        ObstacleField(1, 1.0, 1.3, 44, 2.0),
    ]


def scalar_answers(fields, xs, rows):
    return np.array([fields[r].is_blocked((x,)) for r, x in zip(rows.tolist(), xs.tolist())])


class TestStackedTable:
    def test_equals_the_scalar_rule_at_ball_edges(self):
        fields = mixed_fields()
        table = StackedTable(fields)
        xs, rows = [], []
        for r, f in enumerate(fields):
            centres = f.realize_box([-15.0], [15.0])[:, 0]
            q = np.concatenate([boundary_queries(centres, f.a), np.linspace(-12.0, 12.0, 997)])
            xs.append(q)
            rows.append(np.full(len(q), r))
        xs, rows = np.concatenate(xs), np.concatenate(rows)
        # one call with every row interleaved, and each row alone
        order = np.random.default_rng(5).permutation(len(xs))
        got = table.is_blocked(xs[order], rows[order])
        assert np.array_equal(got, scalar_answers(fields, xs[order], rows[order]))
        for r in range(len(fields)):
            mine = rows == r
            assert np.array_equal(table.is_blocked(xs[mine], rows[mine]), got[np.argsort(order)][mine])
        assert got.any() and not got.all()

    def test_answers_stay_correct_after_growth_forced_by_one_far_run(self):
        fields = mixed_fields()
        table = StackedTable(fields)
        rng = np.random.default_rng(6)
        rows = np.arange(4000) % len(fields)
        near = rng.normal(0.0, 2.0, 4000)
        first = table.is_blocked(near, rows)
        assert table.builds == 1
        # one point of row 0 far out: the shared box must grow for every row
        far = near.copy()
        far[0] = 250.0
        grown = table.is_blocked(far, rows)
        assert table.builds == 2 and table.x1 > 250.0
        assert np.array_equal(grown[1:], first[1:])
        assert np.array_equal(grown, scalar_answers(fields, far, rows))
        spread = rng.uniform(-300.0, 300.0, 4000)
        assert np.array_equal(table.is_blocked(spread, rows), scalar_answers(fields, spread, rows))
        assert table.builds == 3

    def test_one_row_equals_the_fields_own_table(self):
        f = ObstacleField(1, 1.0, 0.3, 45, 1.0)
        xs = np.random.default_rng(7).uniform(-30.0, 30.0, 20_000)
        got = StackedTable([f]).is_blocked(xs, np.zeros(len(xs), dtype=np.intp))
        assert np.array_equal(got, f.is_blocked_many(xs))
        assert np.array_equal(StackedTable([f]).is_blocked(xs), got)

    def test_rejects_radii_below_the_key_rounding(self):
        tiny = [ObstacleField.from_points([], a=1e-14, d=1) for _ in range(2)]
        with pytest.raises(ValueError):
            StackedTable(tiny).is_blocked(np.array([0.0, 1e3]), np.array([0, 1]))
        with pytest.raises(ValueError):
            StackedTable([ObstacleField(2, 0.5, 0.3, 1)])

    @pytest.mark.parametrize(
        "x0,x1,radii,cells", [(-20.0, 20.0, (1.3, 0.3), (1.0, 0.6)), (-2e5, 2e5, (1.0, 0.6), (0.5, 0.25))]
    )
    def test_served_queries_ignore_centres_outside_the_box(self, x0, x1, radii, cells):
        # finite rows with centres just outside both edges of the box
        # [x0, x1), and none inside near them: a served query lies margin
        # inside the box, farther than any radius from those centres, so the
        # bins mark only the centres inside.  The wide box's bins are wider
        # than every cell, so the bins next to the served edges reach past
        # the box edge.
        rng = np.random.default_rng(15)
        outside = [np.nextafter(x0, -np.inf), x0 - 0.05, x1, np.nextafter(x1, np.inf), x1 + 0.05]
        rows = [np.concatenate([outside, rng.uniform(x0 + 5.0, x0 + 60.0, 25), rng.uniform(x1 - 60.0, x1 - 5.0, 25)])
                for _ in radii]
        fields = [ObstacleField.from_points(c, a=a, d=1, cell_size=cs) for c, a, cs in zip(rows, radii, cells)]
        table = StackedTable(fields)
        table._build(x0, x1)
        assert table.margin > max(radii)
        if x1 > 100:
            assert 1.0 / table.inv_h > max(cells)
        lo, hi = served_box(table)
        xs, rs = [], []
        for r, (centres, a) in enumerate(zip(rows, radii)):
            near = np.concatenate([[lo, np.nextafter(lo, np.inf), hi, np.nextafter(hi, -np.inf)],
                                   lo + rng.uniform(0.0, 3.0, 200), hi - rng.uniform(0.0, 3.0, 200)])
            q = np.concatenate([near, boundary_queries(centres, a)])
            q = q[(q >= lo) & (q <= hi)]
            xs.append(q)
            rs.append(np.full(len(q), r))
        xs, rs = np.concatenate(xs), np.concatenate(rs)
        got = table.is_blocked(xs, rs)
        assert table.builds == 1
        assert np.array_equal(got, scalar_answers(fields, xs, rs))
        assert got.any() and not got.all()


def brute_distances(centres, q):
    """min |q - c| over ``centres``, inf when there is none."""
    if len(centres) == 0:
        return np.full(len(q), np.inf)
    return np.abs(q[:, None] - centres[None, :]).min(axis=1)


def served_queries(table, centres, a, rng):
    """Queries inside the box ``table`` serves: c +- a and their float
    neighbours, the served edges and the floats just inside them, and
    uniform points."""
    lo, hi = served_box(table)
    edges = [lo, np.nextafter(lo, np.inf), hi, np.nextafter(hi, -np.inf)]
    q = np.concatenate([boundary_queries(centres, a), edges, rng.uniform(lo, hi, 400)])
    return q[(q >= lo) & (q <= hi)]


def row_distances(table, q, r=0):
    """Distance from each q to the nearest centre in the box of row r of
    ``table``, searched as the table resolves its mixed bins."""
    return _line_distances(table.line, table.keys, q, q + r * table.span)


class TestLineSearch:
    """The search of a :class:`StackedTable`'s centres, ``_line_distances``,
    against a brute-force search of each row's own centres."""

    def test_one_row(self):
        rng = np.random.default_rng(12)
        inner = np.sort(rng.uniform(-15.0, 15.0, 60))
        # centres inside the served box only, also on both box edges, and none
        for centres in (inner, np.concatenate([[-20.0], inner, [np.nextafter(20.0, -np.inf)]]), np.empty(0)):
            table = StackedTable([ObstacleField.from_points(centres, a=0.3, d=1)])
            table._build(-20.0, 20.0)
            assert table.margin == 2.0
            q = served_queries(table, centres, 0.3, rng)
            assert np.array_equal(row_distances(table, q), brute_distances(centres, q))

    def test_stacked_rows(self):
        rng = np.random.default_rng(13)
        x0, x1 = -20.0, 20.0
        # many centres, none, one, centres on both box edges, and none again
        rows = [
            np.sort(rng.uniform(x0, x1, 50)),
            np.empty(0),
            np.array([3.7]),
            np.sort(np.concatenate([[x0, np.nextafter(x1, -np.inf)], rng.uniform(x0, x1, 30)])),
            np.empty(0),
        ]
        radii = np.array([0.3, 0.2, 0.5, 0.25, 0.4])
        table = StackedTable([ObstacleField.from_points(c, a=a, d=1) for c, a in zip(rows, radii)])
        table._build(x0, x1)
        assert table.margin == 2.0
        every = np.concatenate(rows)
        for r, centres in enumerate(rows):
            # each row's own edges, and every other row's, which must not count
            q = np.concatenate([served_queries(table, centres, radii[r], rng), every])
            assert np.array_equal(row_distances(table, q, r), brute_distances(centres, q)), r
        assert np.isinf(row_distances(table, every, 1)).all()


def brute_blocked(field, x):
    """The inclusive rule over the centres ``realize_box`` gives near x."""
    x = tuple(float(v) for v in x)
    near = field.realize_box([v - field.a - 1.0 for v in x], [v + field.a + 1.0 for v in x])
    return any(math.dist(tuple(p), x) <= field.a for p in near.tolist())


def axis_edges(centres, a):
    """Points at c +- a along each axis from every centre, with both float
    neighbours of the moved coordinate."""
    out = []
    for c in centres:
        for q in range(len(c)):
            for edge in (c[q] - a, c[q] + a):
                for v in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)):
                    x = list(c)
                    x[q] = v
                    out.append(tuple(x))
    return out


# (nu, a, cell_size): a below, equal to and above the cell size
REACH_SETTINGS = [(0.8, 0.3, 1.0), (0.5, 1.0, 1.0), (0.1, 1.3, 0.6)]


class TestReachLists:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("nu,a,cs", REACH_SETTINGS)
    def test_ball_edges_match_the_exact_rule(self, d, nu, a, cs):
        f = ObstacleField(d, nu, a, 61 + d, cs)
        centres = f.realize_box([-2.5] * d, [2.5] * d).tolist()
        queries = axis_edges(centres, a)
        got = [f.is_blocked(x) for x in queries]
        assert got == [brute_blocked(f, x) for x in queries]
        # along an axis every distance is exact, so the bulk rules agree too,
        # on a cold field and on the warm one
        cold = ObstacleField(d, nu, a, 61 + d, cs)
        assert got == cold.is_blocked_many(np.asarray(queries)).tolist()
        assert got == f.is_blocked_many(np.asarray(queries)).tolist()
        assert got == (nearest_distances(f, queries) <= a).tolist()
        assert any(got) and not all(got)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("nu,a,cs", REACH_SETTINGS)
    def test_random_queries_match_nearest_distances(self, d, nu, a, cs):
        f = ObstacleField(d, nu, a, 71 + d, cs)
        xs = np.random.default_rng(d).uniform(-6.0, 6.0, (20_000, d))
        got = np.array([f.is_blocked(x) for x in xs.tolist()])
        assert np.array_equal(got, nearest_distances(f, xs) <= a)
        assert np.array_equal(ObstacleField(d, nu, a, 71 + d, cs).is_blocked_many(xs), got)
        assert np.array_equal(f.is_blocked_many(xs[::-1]), got[::-1])
        assert 0.05 < got.mean() < 0.95

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("cs", [0.1, 0.3, 1.0])
    @pytest.mark.parametrize("ratio", [0.3, 1.0, 2.5])
    def test_queries_one_ulp_off_cell_edges(self, d, cs, ratio):
        # x at k * cell_size and one ulp either side, where floor(x / cs) may
        # round across the cell edge, each with a lone centre at x -+ a (or
        # one ulp either side of it) on the first axis
        a = ratio * cs
        rest = [0.5 * cs + 0.1 * q for q in range(1, d)]
        got, want = [], []
        for k in range(-100, 101):
            edge = k * cs
            for v in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)):
                x = tuple([v] + rest)
                for c in (v - a, v + a):
                    for w in (c, math.nextafter(c, math.inf), math.nextafter(c, -math.inf)):
                        f = ObstacleField.from_points([[w] + rest], a=a, cell_size=cs)
                        got.append(f.is_blocked(x))
                        want.append(brute_blocked(f, x))
        assert got == want
        assert any(got) and not all(got)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coordinates_near_a_million(self, sign):
        f = ObstacleField(2, 0.8, 0.3, 83, 1.0)
        base = sign * 1e6
        centres = f.realize_box([base - 3.0, base - 3.0], [base + 3.0, base + 3.0]).tolist()
        rng = np.random.default_rng(4)
        queries = axis_edges(centres, f.a) + [tuple(v) for v in (base + rng.uniform(-2.5, 2.5, (5000, 2))).tolist()]
        got = [f.is_blocked(x) for x in queries]
        assert got == [brute_blocked(f, x) for x in queries]
        assert got == (nearest_distances(f, queries) <= f.a).tolist()
        assert got == ObstacleField(2, 0.8, 0.3, 83, 1.0).is_blocked_many(np.asarray(queries)).tolist()

    def test_finite_and_empty_fields(self):
        pts = [[0.0, 0.0], [0.95, 0.2], [1.05, 0.2], [-3.0, 2.999999], [2.0, -2.0]]
        rng = np.random.default_rng(8)
        for a, cs in [(0.4, 1.0), (1.0, 1.0), (1.3, 0.5)]:
            f = ObstacleField.from_points(pts, a=a, cell_size=cs)
            queries = axis_edges(pts, a) + [tuple(v) for v in rng.uniform(-5.0, 5.0, (3000, 2)).tolist()]
            got = [f.is_blocked(x) for x in queries]
            assert got == [brute_blocked(f, x) for x in queries]
            assert got == (nearest_distances(f, queries) <= a).tolist()
            bulk = ObstacleField.from_points(pts, a=a, cell_size=cs)
            assert got == bulk.is_blocked_many(np.asarray(queries)).tolist()
            assert set(f.realized_cells) == set(bulk.realized_cells) == tiles(homes(queries, cs))
        empty = ObstacleField.from_points([], a=0.7, d=3)
        xs = rng.uniform(-5.0, 5.0, (200, 3))
        assert not any(empty.is_blocked(x) for x in xs.tolist())
        assert not empty.is_blocked_many(xs).any()
        assert empty.is_blocked_many(np.empty((0, 3))).shape == (0,)
        assert set(empty.realized_cells) == tiles(homes(xs.tolist(), empty.cell_size), 3)
        assert not any(empty.realized_cells.values())

    def test_a_bulk_query_realises_only_the_tiles_of_its_homes(self, hashed):
        # two points 600 apart on each axis: the bulk query hashes the two
        # tiles of their homes, each widened by r = 1 cell, not the box
        # between them
        f = ObstacleField(2, 0.5, 0.3, 5, 1.0)
        xs = np.array([[-300.0, -300.0], [300.0, 300.0]])
        got = f.is_blocked_many(xs).tolist()
        assert hashed == [(_tile_side(2) + 2) ** 2] * 2
        assert got == [brute_blocked(f, x) for x in xs.tolist()]
        assert f.is_blocked_many(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 9])
    def test_a_first_query_realises_a_bounded_number_of_cells(self, d, hashed):
        # the cells -1..1 around x straddle a tile edge on every axis, yet the
        # first query builds one tile, hashing the tile widened by r = 1 cell
        # (from d = 6 on a tile is one cell: just the 3^d neighbourhood)
        x = (0.5,) * d
        f = ObstacleField(d, 0.5, 0.4, 3, 1.0)
        blocked = f.is_blocked(x)
        s = _tile_side(d)
        assert hashed == [(s + 2) ** d] and (s + 2) ** d <= max(_QUERY_TILE_CELLS, 3**d)
        assert blocked == brute_blocked(f, x)
        assert set(f.realized_cells) == tiles([(0,) * d], d)
        assert len(f.realized_cells) == s**d <= _QUERY_TILE_CELLS
        assert (s == 1 or (2 * s) ** d <= _QUERY_TILE_CELLS) and (2 * s + 2) ** d > _QUERY_TILE_CELLS

    @pytest.mark.parametrize("nu,a,cs", [(0.8, 0.3, 1.0), (0.5, 1.0, 1.0), (0.3, 1.7, 0.6)])
    def test_realised_cells_are_the_tiles_of_home_cells(self, nu, a, cs):
        # whatever the reach of a ball (at a == cell_size it reaches the
        # second ring of cells, at 1.7 / 0.6 the third), a query builds its
        # home's tile
        queries = [tuple(v) for v in np.random.default_rng(10).uniform(-9.0, 9.0, (300, 2)).tolist()]
        for order in (queries, queries[::-1], sorted(queries)):
            f = ObstacleField(2, nu, a, 97, cs)
            for x in order:
                assert f.is_blocked(x) == brute_blocked(f, x)
            assert set(f.realized_cells) == tiles(homes(queries, cs))


class TestNearestDistance:
    def test_exact_distance(self):
        f = ObstacleField.from_points([[3.0, 0.0]], a=0.5)
        assert nearest_centre(f, (0.0, 0.0), 10.0) == pytest.approx(3.0, abs=1e-12)

    def test_exceeds_cap(self):
        # realize_box holds a centre only inside its box
        f = ObstacleField.from_points([[3.0]], a=0.5)
        assert nearest_centre(f, (0.0,), 2.0) == math.inf
        assert nearest_centre(f, (0.0,), 4.0) == pytest.approx(3.0)

    def test_d2_against_brute_force(self):
        f = ObstacleField(2, 1.0, 0.3, 8888, 1.0)
        pts = f.realize_box([-12, -12], [12, 12])
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=2)
            brute = np.sqrt(np.min(np.sum((pts - x) ** 2, axis=1)))
            assert nearest_centre(f, x, 8.0) == pytest.approx(brute, abs=1e-9)
            assert f.is_blocked_many(x[None, :])[0] == (brute <= f.a)

    def test_d2_bulk_matches_scalar(self):
        f = ObstacleField(2, 0.8, 0.4, 999, 1.0)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-6, 6, size=(2000, 2))
        bulk = f.is_blocked_many(xs)
        scalar = np.array([f.is_blocked(x) for x in xs])
        assert np.array_equal(bulk, scalar)
        assert 0.05 < bulk.mean() < 0.95


class TestLargestClearing:
    def test_symmetric_gap(self):
        f = ObstacleField.from_points([[-5.0], [5.0]], a=1.0)
        cl = largest_clearing(f, 10.0, 0.01)
        assert abs(cl.center[0]) <= 0.011
        assert cl.radius == pytest.approx(4.0, abs=0.02)

    def test_invariant_rechecked(self):
        f = ObstacleField(1, 1.0, 0.15, 4242, 1.0)
        cl = largest_clearing(f, 200.0, 0.05)
        d = nearest_centre(f, cl.center, cl.radius + f.a + 2.0)
        assert d >= cl.radius + f.a - 1e-9

    def test_monotone_in_search_radius(self):
        f = ObstacleField(1, 1.0, 0.1, 560, 1.0)
        radii = [largest_clearing(f, ell, 0.25).radius for ell in (50.0, 200.0, 800.0)]
        assert radii[0] <= radii[1] <= radii[2]

    def test_empty_field_unbounded(self):
        f = ObstacleField.from_points([], a=0.5, d=1)
        assert largest_clearing(f, 10.0, 0.5).radius == math.inf

    def test_d2_smoke(self):
        f = ObstacleField(2, 0.5, 0.3, 11, 1.0)
        cl = largest_clearing(f, 6.0, 0.25)
        assert cl.radius >= 0.0
        d = nearest_centre(f, cl.center, cl.radius + f.a + 2.0)
        assert d >= cl.radius + f.a - 1e-9


class TestFixtures:
    def test_round_trip_text(self, tmp_path):
        pts = np.asarray([[0.5, -1.25], [3.0, 4.0]])
        path = tmp_path / "pts.txt"
        save_points(path, pts, header="demo fixture")
        back = load_points(path)
        assert np.array_equal(back, pts)

    def test_table_writes_integers_as_they_are_and_other_values_at_12_digits(self, tmp_path):
        path = tmp_path / "table.csv"
        row = (7, np.int64(123456789012345), 0.1 + 0.2, np.float64(2.0) / 3.0, float("nan"))
        write_table(path, ["a", "b", "c", "d", "e"], [row, (0, 0, 1e-20, 1e20, np.nan)], header="seed=1")
        assert path.read_text().splitlines() == [
            "# seed=1",
            "a,b,c,d,e",
            "7,123456789012345,0.3,0.666666666667,nan",
            "0,0,1e-20,1e+20,nan",
        ]

    def test_json_fixture(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("[[1.0], [2.5], [-3.0]]")
        pts = load_points(path)
        f = ObstacleField.from_points(pts, a=0.4)
        assert f.is_blocked((2.6,))
        assert not f.is_blocked((0.0,))

    def test_module_level_wrappers(self):
        f = ObstacleField.from_points([[0.0]], a=1.0)
        assert f.is_blocked((0.5,))
        assert isinstance(largest_clearing(f, 3.0, 0.5), Clearing)
