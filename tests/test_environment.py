"""Obstacle field: reproducibility, Poisson statistics, query consistency."""

import itertools
import math
import random

import numpy as np
import pytest
from scipy import stats as st

from mildbbm.environment import (
    _QUERY_TILE_CELLS,
    Clearing,
    ObstacleField,
    StackedTable,
    _tile_side,
    largest_clearing,
    load_points,
    save_points,
)


def nearest_centre(field, x, half_width):
    """Brute force: distance from x to the nearest centre that ``realize_box``
    gives in the closed box of ``half_width`` around x (inf if none)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pts = field.realize_box(x - half_width, np.nextafter(x + half_width, np.inf))
    return math.sqrt(float(np.min(np.sum((pts - x) ** 2, axis=1)))) if len(pts) else math.inf


class TestCreation:
    def test_rejects_bad_params(self):
        for bad in [dict(nu=0.0), dict(a=-1.0), dict(cell_size=0.0)]:
            kw = dict(d=1, nu=1.0, a=0.2, master_seed=1, cell_size=1.0)
            kw.update(bad)
            with pytest.raises(ValueError):
                ObstacleField(**kw)

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


def neighbourhoods(queries, cs, r):
    """Every cell within Chebyshev distance r of a query's home cell."""
    cells = set()
    for x in queries:
        home = [math.floor(v / cs) for v in x]
        cells.update(itertools.product(*[range(c - r, c + r + 1) for c in home]))
    return cells


def tiles(cells, d=2):
    """Every cell of the aligned d-dimensional tiles that hold ``cells``."""
    s = _tile_side(d)
    out = set()
    for origin in {tuple(c - c % s for c in cell) for cell in cells}:
        out.update(itertools.product(*[range(o, o + s) for o in origin]))
    return out


def box_points(field, cell):
    """The centres ``realize_box`` gives over the box of ``cell``, as tuples."""
    cs = field.cell_size
    pts = field.realize_box([c * cs for c in cell], [(c + 1) * cs for c in cell])
    return tuple(map(tuple, pts.tolist()))


def tile_edge_cells(d):
    """Cells on both sides of tile edges, at negative coordinates too."""
    s = _tile_side(d)
    line = [-2 * s - 1, -2 * s, -s - 1, -s, -1, 0, 3, s - 1, s, 5 * s + 7]
    rng = random.Random(d)
    mixed = [tuple(rng.choice(line) for _ in range(d)) for _ in range(10)] if d > 1 else []
    return [(v,) * d for v in line] + mixed


class TestDeterminism:
    def test_same_cell_twice_identical(self):
        # a second field, queried in the reverse order, regenerates each cell
        cells = [(3,), (-5,), (17,), (-40,)]
        f = ObstacleField(1, 1.0, 0.25, 7, 1.0)
        first = [f._cell(c) for c in cells]
        again = ObstacleField(1, 1.0, 0.25, 7, 1.0)
        assert first == [again._cell(c) for c in cells[::-1]][::-1]
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
        # a query realises the tiles that meet the cells within r = 1 of its
        # home cell, whatever the order
        assert set(fa.realized_cells) == set(fb.realized_cells) == tiles(neighbourhoods(queries, fa.cell_size, 1))

    def test_scalar_matches_bulk(self):
        # a scalar query's cell, realised with its tile, holds exactly the
        # points realize_box gives over the cell's box, in the same order:
        # on a cold field, and after the neighbouring tiles are realised
        for d, nu in ((1, 2.0), (2, 3.0), (3, 4.0)):
            cells = tile_edge_cells(d)
            bulk = ObstacleField(d, nu, 0.2, 2024, 0.7)
            want = [box_points(bulk, c) for c in cells]
            assert sum(map(len, want)) > len(cells) // 2 and not all(want), d
            for cell, expected in zip(cells, want):
                cold = ObstacleField(d, nu, 0.2, 2024, 0.7)
                assert cold._cell(cell) == expected, cell
                warm = ObstacleField(d, nu, 0.2, 2024, 0.7)
                s = _tile_side(d)
                neighbours = [tuple(c + step * (p == q) for p, c in enumerate(cell)) for q in range(d) for step in (-s, s)]
                for c in neighbours:
                    warm._cell(c)
                assert warm._cell(cell) == expected, cell
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
        counts = np.asarray([len(f._cell((c,))) for c in range(4000)])
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
        dists = f.nearest_distances(xs)
        assert np.array_equal(blocked, dists <= f.a)
        # scalar path agrees on a subsample
        for x in xs[:300]:
            r = nearest_centre(f, [x], 5.0)
            assert f.is_blocked([x]) == (r <= f.a)
            if r < 5.0:
                assert r == pytest.approx(dists[list(xs).index(x)], abs=1e-9)

    def test_blocked_fraction_matches_vacancy(self):
        # fraction of the line covered by obstacle intervals: 1 - e^{-2 nu a}
        f = ObstacleField(1, 0.5, 0.3, 606, 1.0)
        xs = np.linspace(-2000, 2000, 200_001)
        frac = f.is_blocked_many(xs).mean()
        assert frac == pytest.approx(1 - math.exp(-0.3), abs=0.01)


def exact_blocked(field, xs):
    """The exact bulk rule the d = 1 table must reproduce."""
    return field.nearest_distances(xs) <= field.a


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
        cache = f._bulk_cache
        state = cache.state[((xs - cache.lo[0]) * cache.inv_h).astype(np.intp)]
        assert (state == _MIXED).mean() < 0.05

    def test_far_queries_grow_the_table(self):
        f = ObstacleField(1, 1.0, 0.3, 77, 1.0)
        near = np.linspace(-3.0, 3.0, 1001)
        f.is_blocked_many(near)
        assert f.bulk_rebuilds == 1
        for far in (1e4, -2.5e4, 3.1e5):
            xs = far + np.linspace(-3.0, 3.0, 1001)
            fresh = ObstacleField(1, 1.0, 0.3, 77, 1.0)
            assert np.array_equal(f.is_blocked_many(xs), exact_blocked(fresh, xs))
        assert f.bulk_rebuilds == 4
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
        assert 1.0 / wide._bulk_cache.inv_h > wide.a / 16
        assert np.array_equal(wide.is_blocked_many(xs), first)
        assert np.array_equal(grown.is_blocked_many(xs), first)
        assert np.array_equal(plain.is_blocked_many(xs[::-1]), first[::-1])
        assert np.array_equal(first, exact_blocked(plain, xs))

    def test_bins_reaching_past_the_box_edge_are_mixed(self):
        # the box holds no centre, but one sits just below its lower edge:
        # bins within its reach must not claim to be free
        from mildbbm.environment import _FREE, _line_cache

        cache = _line_cache(np.array([0.0]), np.array([10.0]), np.empty(0), 0.3)
        h = 1.0 / cache.inv_h
        reach = int(math.ceil(0.3 / h)) + 1
        assert not (cache.state[:reach] == _FREE).any()
        assert not (cache.state[-reach - 1:] == _FREE).any()
        assert (cache.state == _FREE).mean() > 0.9

    def test_bulk_box_grows_geometrically(self):
        # the shape of the fk benchmark: 512 paths to t = 10 at dt = 1e-3
        from mildbbm.feynman_kac import sample_free_times

        f = ObstacleField(1, 1.0, 0.3, 2718, 1.0)
        sample_free_times(f, 1.0, 10.0, 1e-3, 512, seed=3)
        # each rebuild at least doubles the width, and the first box is at
        # least 2 * (margin + pad) = 12 wide
        width = float(f._bulk_cache.hi[0] - f._bulk_cache.lo[0])
        assert 1 <= f.bulk_rebuilds <= 1 + math.log2(width / 12.0)
        assert f.bulk_rebuilds <= 4

    def test_d2_box_grows_geometrically(self):
        f = ObstacleField(2, 0.5, 0.3, 2718, 1.0)
        for r in np.geomspace(1.0, 200.0, 40):
            f.is_blocked_many(np.array([[r, -r], [-r, r]]))
        # the box must reach about +-200 from about +-6: at most log2(400 / 12) + 1 builds
        assert f.bulk_rebuilds <= 1 + math.log2(412.0 / 12.0)

    def test_every_bulk_box_serves_queries_a_margin_inside_it(self):
        f1 = ObstacleField(1, 1.0, 0.3, 46, 1.0)
        f2 = ObstacleField(2, 0.5, 0.3, 46, 1.0)
        table = StackedTable(mixed_fields())
        f1.is_blocked_many(np.zeros(1))
        f2.is_blocked_many(np.zeros((1, 2)))
        table.is_blocked(np.zeros(1), np.zeros(1, dtype=np.intp))
        for cache, margin in ((f1._bulk_cache, f1._margin), (f2._bulk_cache, f2._margin), (table.table, table.margin)):
            assert margin >= 1.0
            assert cache.served == ((cache.lo + margin).tolist(), (cache.hi - margin).tolist())
        # queries on the served edges reuse the box, one an ulp beyond rebuilds it
        (lo,), (hi,) = f1._bulk_cache.served
        f1.is_blocked_many(np.array([lo, hi]))
        assert f1.bulk_rebuilds == 1
        f1.is_blocked_many(np.array([np.nextafter(lo, -np.inf)]))
        assert f1.bulk_rebuilds == 2
        (lo,), (hi,) = table.table.served
        table.is_blocked(np.array([lo, hi]), np.array([0, 5]))
        assert table.builds == 1
        table.is_blocked(np.array([np.nextafter(hi, np.inf)]), np.array([5]))
        assert table.builds == 2
        (lo, _), (hi, _) = f2._bulk_cache.served
        f2.is_blocked_many(np.array([[lo, 0.0], [hi, 0.0]]))
        assert f2.bulk_rebuilds == 1
        f2.is_blocked_many(np.array([[np.nextafter(hi, np.inf), 0.0]]))
        assert f2.bulk_rebuilds == 2


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
        assert table.builds == 2 and table.table.x1 > 250.0
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

    def test_rejects_radii_below_the_key_rounding(self):
        tiny = [ObstacleField.from_points([], a=1e-14, d=1) for _ in range(2)]
        with pytest.raises(ValueError):
            StackedTable(tiny).is_blocked(np.array([0.0, 1e3]), np.array([0, 1]))
        with pytest.raises(ValueError):
            StackedTable([ObstacleField(2, 0.5, 0.3, 1)])


def brute_distances(centres, q):
    """min |q - c| over ``centres``, inf when there is none."""
    if len(centres) == 0:
        return np.full(len(q), np.inf)
    return np.abs(q[:, None] - centres[None, :]).min(axis=1)


def served_queries(cache, centres, a, rng):
    """Queries inside the box ``cache`` serves: c +- a and their float
    neighbours, the served edges and the floats just inside them, and
    uniform points."""
    (lo,), (hi,) = cache.served
    edges = [lo, np.nextafter(lo, np.inf), hi, np.nextafter(hi, -np.inf)]
    q = np.concatenate([boundary_queries(centres, a), edges, rng.uniform(lo, hi, 400)])
    return q[(q >= lo) & (q <= hi)]


class TestLineSearch:
    """``_LineCache.distances`` against a brute-force search of each row's
    own centres."""

    def test_one_row(self):
        from mildbbm.environment import _line_cache

        rng = np.random.default_rng(12)
        inner = np.sort(rng.uniform(-15.0, 15.0, 60))
        # centres inside the served box only, also on both box edges, and none
        for centres in (inner, np.concatenate([[-20.0], inner, [np.nextafter(20.0, -np.inf)]]), np.empty(0)):
            cache = _line_cache(np.array([-20.0]), np.array([20.0]), centres, 0.3, margin=2.0)
            q = served_queries(cache, centres, 0.3, rng)
            assert np.array_equal(cache.distances(q), brute_distances(centres, q))

    def test_stacked_rows(self):
        from mildbbm.environment import _line_cache

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
        cache = _line_cache(
            np.array([x0]), np.array([x1]), np.concatenate(rows), radii, [len(c) for c in rows], 2.0
        )
        every = np.concatenate(rows)
        for r, centres in enumerate(rows):
            # each row's own edges, and every other row's, which must not count
            q = np.concatenate([served_queries(cache, centres, radii[r], rng), every])
            got = cache.distances(q, np.full(len(q), r))
            assert np.array_equal(got, brute_distances(centres, q)), r
        assert np.isinf(cache.distances(every, np.full(len(every), 1))).all()


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
        # along an axis both distances are exact, so the bulk rule agrees too
        assert got == (f.nearest_distances(np.asarray(queries)) <= a).tolist()
        assert any(got) and not all(got)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("nu,a,cs", REACH_SETTINGS)
    def test_random_queries_match_nearest_distances(self, d, nu, a, cs):
        f = ObstacleField(d, nu, a, 71 + d, cs)
        xs = np.random.default_rng(d).uniform(-6.0, 6.0, (20_000, d))
        got = np.array([f.is_blocked(x) for x in xs.tolist()])
        assert np.array_equal(got, f.nearest_distances(xs) <= a)
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
        assert got == (f.nearest_distances(np.asarray(queries)) <= f.a).tolist()

    def test_finite_and_empty_fields(self):
        pts = [[0.0, 0.0], [0.95, 0.2], [1.05, 0.2], [-3.0, 2.999999], [2.0, -2.0]]
        rng = np.random.default_rng(8)
        for a, cs in [(0.4, 1.0), (1.0, 1.0), (1.3, 0.5)]:
            f = ObstacleField.from_points(pts, a=a, cell_size=cs)
            queries = axis_edges(pts, a) + [tuple(v) for v in rng.uniform(-5.0, 5.0, (3000, 2)).tolist()]
            got = [f.is_blocked(x) for x in queries]
            assert got == [brute_blocked(f, x) for x in queries]
            assert got == (f.nearest_distances(np.asarray(queries)) <= a).tolist()
            assert len(f.realized_cells) == len({tuple(math.floor(v / cs) for v in p) for p in pts})
        empty = ObstacleField.from_points([], a=0.7, d=3)
        assert not any(empty.is_blocked(x) for x in rng.uniform(-5.0, 5.0, (200, 3)).tolist())
        assert empty.realized_cells == {}

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 9])
    def test_a_first_query_realises_a_bounded_number_of_cells(self, d):
        # the cells -1..1 around x straddle a tile edge on every axis, so the
        # first query meets 2^d tiles (from d = 6 on a tile is one cell: just
        # the 3^d neighbourhood)
        x = (0.5,) * d
        f = ObstacleField(d, 0.5, 0.4, 3, 1.0)
        assert f.is_blocked(x) == brute_blocked(f, x)
        assert set(f.realized_cells) == tiles(neighbourhoods([x], 1.0, 1), d)
        assert len(f.realized_cells) <= max(_QUERY_TILE_CELLS, 3**d)
        s = _tile_side(d)
        assert (s == 1 or (2 * s) ** d <= _QUERY_TILE_CELLS) and (2 * s + 2) ** d > _QUERY_TILE_CELLS

    @pytest.mark.parametrize("nu,a,cs,r", [(0.8, 0.3, 1.0, 1), (0.5, 1.0, 1.0, 2), (0.3, 1.7, 0.6, 3)])
    def test_realised_cells_are_the_neighbourhoods_of_home_cells(self, nu, a, cs, r):
        # r * cell_size > a: at a == cell_size a ball reaches the second ring
        queries = [tuple(v) for v in np.random.default_rng(10).uniform(-9.0, 9.0, (300, 2)).tolist()]
        for order in (queries, queries[::-1], sorted(queries)):
            f = ObstacleField(2, nu, a, 97, cs)
            for x in order:
                f.is_blocked(x)
            assert set(f.realized_cells) == tiles(neighbourhoods(queries, cs, r))


class TestNearestDistance:
    def test_exact_distance(self):
        f = ObstacleField.from_points([[3.0, 0.0]], a=0.5)
        assert nearest_centre(f, (0.0, 0.0), 10.0) == pytest.approx(3.0, abs=1e-12)
        assert f.nearest_distances(np.zeros((1, 2)))[0] == pytest.approx(3.0, abs=1e-12)

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
            assert f.nearest_distances(x[None, :])[0] == pytest.approx(brute, abs=1e-9)
            assert nearest_centre(f, x, 8.0) == pytest.approx(brute, abs=1e-9)

    def test_d2_bulk_matches_scalar(self):
        f = ObstacleField(2, 0.8, 0.4, 999, 1.0)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-6, 6, size=(2000, 2))
        bulk = f.is_blocked_many(xs)
        scalar = np.array([f.is_blocked(x) for x in xs[:200]])
        assert np.array_equal(bulk[:200], scalar)


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
