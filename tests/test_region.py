import itertools
import math

import numpy as np
import pytest

from tinopt import (
    ChannelMatrix,
    canonical_cycle,
    enumerate_cycles,
    general_tin_region,
    max_weighted_gdof,
    minimized,
    point_in_tin_region,
    polyhedral_region,
    polyhedron_vertices,
    transpose_channel,
)
from scipy.optimize import linprog
from tinopt.region import EmptyPolyhedronError, max_subset_sum, poly_contains
from conftest import symmetric_two_user
from _oracles import (
    oracle_contains,
    oracle_cycle_lp,
    oracle_cycles,
    oracle_in_union,
    oracle_sum_gdof_assignment,
    oracle_union_band,
    random_channel,
    random_condition_channel,
)


def cycle_count(n: int) -> int:
    return sum(math.comb(n, m) * math.factorial(m - 1) for m in range(2, n + 1))


class TestEnumerateCycles:
    def test_three_users_exact_family(self):
        got = enumerate_cycles({1, 2, 3})
        assert got == [(1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 3, 2)]

    def test_small_sets_empty(self):
        assert enumerate_cycles([]) == []
        assert enumerate_cycles([4]) == []

    def test_four_user_count(self):
        assert len(enumerate_cycles(range(4))) == 6 + 8 + 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_count_formula(self, n):
        seqs = enumerate_cycles(range(n))
        assert len(seqs) == cycle_count(n)
        assert len(set(seqs)) == len(seqs)

    def test_matches_independent_enumeration(self):
        assert set(enumerate_cycles(range(5))) == set(oracle_cycles(range(5)))

    def test_canonical_rotation(self):
        assert canonical_cycle((3, 1, 2)) == (1, 2, 3)
        with pytest.raises(ValueError):
            canonical_cycle((1, 1, 2))


class TestPolyhedralRegion:
    def test_example_all_active(self, ex2):
        poly = polyhedral_region(ex2)
        rhs = {c.users: c.rhs for c in poly.cycles}
        assert rhs[(0, 1)] == pytest.approx(1.9, abs=1e-12)
        assert rhs[(1, 2)] == pytest.approx(1.4, abs=1e-12)
        assert rhs[(0, 2)] == pytest.approx(1.1, abs=1e-12)
        assert rhs[(0, 1, 2)] == pytest.approx(1.4, abs=1e-12)
        assert rhs[(0, 2, 1)] == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(poly.box_ub, [1.0, 1.0, 1.0])

    def test_example_silencing_last_user(self, ex2):
        poly = polyhedral_region(ex2, silent={2})
        assert poly.silent == frozenset({2})
        assert [c.users for c in poly.cycles] == [(0, 1)]
        assert poly.cycles[0].rhs == pytest.approx(1.9, abs=1e-12)
        assert poly.contains([1.0, 0.9, 0.0])
        assert not poly.contains([1.0, 0.9, 0.1])

    def test_interference_free_cycles_redundant(self):
        ch = ChannelMatrix(np.diag([1.0, 0.7, 0.4]))
        poly = polyhedral_region(ch)
        for c in poly.cycles:
            assert c.rhs == pytest.approx(sum(ch.alpha[i, i] for i in c.users))
        assert minimized(poly).cycles == ()

    def test_canonical_ordering(self, ex2):
        poly = polyhedral_region(ex2)
        keys = [(len(c.users), c.users) for c in poly.cycles]
        assert keys == sorted(keys)

    def test_silent_out_of_range(self, ex2):
        with pytest.raises(ValueError):
            polyhedral_region(ex2, silent={5})

    def test_minimized_prunes_dominated_cycle(self, ex2):
        pruned = minimized(polyhedral_region(ex2))
        assert len(pruned.cycles) == 4
        assert (0, 2, 1) not in [c.users for c in pruned.cycles]


class TestRegionDuality:
    def test_rhs_maps_to_reversed_cycle(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            K = int(rng.integers(2, 6))
            ch = ChannelMatrix(random_channel(rng, K))
            fwd = {c.users: c.rhs for c in polyhedral_region(ch).cycles}
            rev = {c.users: c.rhs for c in polyhedral_region(transpose_channel(ch)).cycles}
            assert fwd.keys() == rev.keys()
            for seq, rhs in fwd.items():
                flipped = canonical_cycle((seq[0],) + tuple(reversed(seq[1:])))
                assert rev[flipped] == pytest.approx(rhs, abs=1e-12)

    def test_inequality_sets_equal(self, ex2):
        fwd = sorted(
            (tuple(sorted(c.users)), round(c.rhs, 9))
            for c in polyhedral_region(ex2).cycles
        )
        rev = sorted(
            (tuple(sorted(c.users)), round(c.rhs, 9))
            for c in polyhedral_region(transpose_channel(ex2)).cycles
        )
        assert fwd == rev


class TestGeneralRegion:
    def test_example_collapses_to_two_components(self, ex2):
        comps = general_tin_region(ex2)
        assert len(comps) == 8
        surviving = [c.silent for c in comps if c.subsumed_by is None]
        assert surviving == [frozenset(), frozenset({2})]
        by_silent = {c.silent: c for c in comps}
        for s in [{0}, {1}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}]:
            assert by_silent[frozenset(s)].subsumed_by is not None

    def test_condition_implies_single_polyhedron(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            K = int(rng.integers(2, 5))
            ch = ChannelMatrix(random_condition_channel(rng, K))
            comps = general_tin_region(ch)
            p_empty = comps[0].polyhedron
            assert comps[0].silent == frozenset()
            for c in comps[1:]:
                assert poly_contains(p_empty, c.polyhedron)

    def test_poly_contains_matches_vertex_oracle(self):
        rng = np.random.default_rng(53)
        # two pairs with negative cycle bounds: silencing one pair leaves an
        # empty region, which every region contains
        alphas = [np.array([[.3, 1, 0, 0], [1, .3, 0, 0], [0, 0, .3, 1], [0, 0, 1, .3]])]
        for trial in range(40):
            K = int(rng.integers(2, 5))
            gen = random_condition_channel if trial % 2 else random_channel
            alphas.append(gen(rng, K))
        verdicts = set()
        for alpha in alphas:
            K = alpha.shape[0]
            ch = ChannelMatrix(alpha)
            sets = [
                frozenset(c) for m in range(K + 1) for c in itertools.combinations(range(K), m)
            ]
            polys = {S: polyhedral_region(ch, S) for S in sets}
            for S in sets:
                for T in (T for T in sets if T < S):
                    expected = oracle_contains(alpha, T, S)
                    if any(oracle_contains(alpha, T, S, tol) != expected for tol in (1e-10, 1e-8)):
                        continue  # decided inside the 1e-9 band
                    assert poly_contains(polys[T], polys[S]) == expected, (alpha, T, S)
                    verdicts.add(expected)
        assert verdicts == {True, False}

    def test_single_user(self):
        comps = general_tin_region(ChannelMatrix(np.array([[0.8]])))
        assert comps[0].polyhedron.box_ub[0] == pytest.approx(0.8)
        assert comps[1].silent == frozenset({0})
        assert comps[1].subsumed_by == frozenset()

    def test_k_cap(self):
        with pytest.raises(ValueError):
            general_tin_region(ChannelMatrix(np.eye(13)))

    def test_monotone_zero_filling(self):
        # points of a smaller silent set with extra zeros stay inside the larger one
        rng = np.random.default_rng(47)
        for _ in range(50):
            K = int(rng.integers(2, 5))
            alpha = random_channel(rng, K)
            users = list(range(K))
            S_small = set(rng.choice(users, size=1))
            S_large = S_small | set(rng.choice(users, size=1))
            small = polyhedral_region(ChannelMatrix(alpha), S_small)
            large = polyhedral_region(ChannelMatrix(alpha), S_large)
            d = rng.uniform(0, np.diag(alpha))
            for i in S_large:
                d[i] = 0.0
            if small.contains(d, tol=1e-12):
                assert large.contains(d, tol=1e-9)


class TestPointInTinRegion:
    def test_example_point_in_via_silencing(self, ex2):
        verdict = point_in_tin_region(ex2, [1.0, 0.9, 0.0])
        assert verdict.inside
        assert verdict.silent == frozenset({2})
        assert verdict.certificate.r.is_silent(2)

    def test_example_point_out(self, ex2):
        verdict = point_in_tin_region(ex2, [1.0, 0.9, 0.01])
        assert not verdict.inside
        assert verdict.certificate.violated_users == (0, 1, 2)
        assert verdict.certificate.violated_rhs == pytest.approx(1.4, abs=1e-12)

    def test_origin_inside(self, ex2):
        verdict = point_in_tin_region(ex2, [0.0, 0.0, 0.0])
        assert verdict.inside
        assert verdict.silent == frozenset({0, 1, 2})

    def test_negative_rejected(self, ex2):
        with pytest.raises(ValueError):
            point_in_tin_region(ex2, [-0.1, 0, 0])

    def test_zero_set_reduction_matches_exhaustive_union(self):
        # membership via the zero-coordinate silent set agrees with checking
        # every one of the 2^K components
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(400):
            K = int(rng.integers(2, 5))
            alpha = random_channel(rng, K)
            d = rng.uniform(0, np.diag(alpha))
            zero_out = rng.random(K) < 0.3
            d[zero_out] = 0.0
            if oracle_union_band(alpha, d) <= 1e-8:
                continue
            verdict = point_in_tin_region(ChannelMatrix(alpha), d)
            assert verdict.inside == oracle_in_union(alpha, d), (alpha, d)
            checked += 1
        assert checked > 300


class TestMaxWeightedGdof:
    @pytest.mark.parametrize("a", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_symmetric_sum_curve(self, a):
        poly = polyhedral_region(symmetric_two_user(a))
        value, point = max_weighted_gdof(poly, [1.0, 1.0])
        assert value == pytest.approx(2 - 2 * a, abs=1e-12)
        assert point[0] == pytest.approx(1 - a, abs=1e-12)
        assert point[1] == pytest.approx(1 - a, abs=1e-12)

    def test_single_user_weight_hits_box(self, ex2):
        poly = polyhedral_region(ex2)
        for i in range(3):
            w = np.zeros(3)
            w[i] = 1.0
            value, point = max_weighted_gdof(poly, w)
            assert value == pytest.approx(ex2.alpha[i, i], abs=1e-12)
            assert poly.contains(point)

    def test_example_sum_bound_binding(self, ex2):
        value, point = max_weighted_gdof(polyhedral_region(ex2), [1.0, 1.0, 1.0])
        assert value == pytest.approx(1.4, abs=1e-12)
        assert point.sum() == pytest.approx(1.4, abs=1e-9)

    def test_negative_weight_rejected(self, ex2):
        with pytest.raises(ValueError):
            max_weighted_gdof(polyhedral_region(ex2), [1.0, -1.0, 0.0])

    def test_empty_region_raises(self):
        # mutual strong interference leaves no nonnegative relaxed point
        ch = ChannelMatrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
        with pytest.raises(EmptyPolyhedronError):
            max_weighted_gdof(polyhedral_region(ch), [1.0, 1.0])

    def test_silent_coordinates_pinned(self, ex2):
        poly = polyhedral_region(ex2, silent={0})
        value, point = max_weighted_gdof(poly, [1.0, 1.0, 1.0])
        assert point[0] == 0.0
        assert value == pytest.approx(1.4, abs=1e-12)  # d1+d2 <= 1.4 binds

    def test_maximizer_feasible_random(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            K = int(rng.integers(2, 5))
            alpha = random_condition_channel(rng, K)
            poly = polyhedral_region(ChannelMatrix(alpha))
            w = rng.uniform(0.1, 1.0, K)
            value, point = max_weighted_gdof(poly, w)
            assert poly.worst_violation(point) <= 1e-9
            assert float(w @ point) == pytest.approx(value, abs=1e-9)

    def test_matches_cycle_lp_oracle(self):
        # the difference-system LPs against an LP over the enumerated cycles
        rng = np.random.default_rng(61)
        empties = set()
        for trial in range(150):
            K = int(rng.integers(2, 7))
            gen = random_condition_channel if trial % 2 else random_channel
            alpha = gen(rng, K)
            silent = [i for i in range(K) if rng.random() < 0.3]
            poly = polyhedral_region(ChannelMatrix(alpha), silent)
            w = rng.uniform(0.0, 1.0, K) * (rng.random(K) < 0.8)
            users = [i for i in range(K) if rng.random() < 0.5]
            expected = oracle_cycle_lp(alpha, silent, w)
            empties.add(expected is None)
            if expected is None:
                with pytest.raises(EmptyPolyhedronError):
                    max_weighted_gdof(poly, w)
                assert max_subset_sum(poly, users) == -math.inf
            else:
                assert max_weighted_gdof(poly, w)[0] == pytest.approx(expected, abs=1e-9)
                subset = oracle_cycle_lp(alpha, silent, np.isin(np.arange(K), users))
                assert max_subset_sum(poly, users) == pytest.approx(subset, abs=1e-9)
        assert empties == {True, False}

    @pytest.mark.parametrize("K", range(2, 8))
    def test_sum_gdof_matches_assignment_oracle(self, K):
        rng = np.random.default_rng(67 + K)
        for _ in range(5):
            alpha = random_condition_channel(rng, K)
            value, _ = max_weighted_gdof(polyhedral_region(ChannelMatrix(alpha)), np.ones(K))
            assert value == pytest.approx(oracle_sum_gdof_assignment(alpha), abs=1e-9)

    def test_lp_size_is_polynomial(self, monkeypatch):
        # n active users: n^2 rows over (d, r); the tie-break adds n rows and t
        shapes = []

        def spy(c, A_ub=None, **kwargs):
            shapes.append(A_ub.shape)
            return linprog(c, A_ub=A_ub, **kwargs)

        monkeypatch.setattr("tinopt.region.linprog", spy)
        ch = ChannelMatrix(random_condition_channel(np.random.default_rng(71), 8))
        full = polyhedral_region(ch)
        assert len(full.cycles) == 16064
        max_weighted_gdof(full, np.ones(8))
        max_subset_sum(polyhedral_region(ch, {0, 1, 2}), [3, 4])
        assert shapes == [(64, 16), (72, 17), (25, 10)]


class TestVertices:
    def test_two_user_pentagon(self):
        poly = polyhedral_region(symmetric_two_user(0.3))
        verts = polyhedron_vertices(poly)
        expected = {(0, 0), (0, 1), (1, 0), (1.0, 0.4), (0.4, 1.0)}
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == expected

    def test_silenced_coordinate_zero(self, ex2):
        verts = polyhedron_vertices(polyhedral_region(ex2, silent={2}))
        assert np.all(verts[:, 2] == 0)
        assert (verts.sum(axis=1) <= 1.9 + 1e-9).all()

    def test_refuses_large_dimension(self):
        ch = ChannelMatrix(np.eye(5))
        with pytest.raises(ValueError):
            polyhedron_vertices(polyhedral_region(ch))
