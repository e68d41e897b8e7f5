import ast
import contextlib
import importlib
import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinopt import (
    ChannelMatrix,
    canonical_cycle,
    general_tin_region,
    max_weighted_gdof,
    minimized,
    point_in_tin_region,
    polyhedral_region,
    polyhedron_vertices,
    transpose_channel,
)
from tinopt import capacity_gap, channel_model, potential_graph, region
from tinopt.capacity_gap import FiniteSnrChannel, gap_certificate, rate_outer_bounds
from tinopt.channel_model import SILENT
from tinopt.potential_graph import cycle_blocks
from tinopt.region import (
    K_MAX_EXPORT,
    EmptyPolyhedronError,
    LinearInequality,
    UncertifiedPointError,
    max_subset_sum,
    poly_contains,
)
from conftest import cycle_rows, symmetric_two_user
from _oracles import (
    oracle_arrival_slack,
    oracle_contains,
    oracle_cycle_lp,
    oracle_cycle_rhs,
    oracle_cycles,
    oracle_in_union,
    oracle_max_min_level,
    oracle_minimized,
    oracle_region_margin,
    oracle_sum_gdof_assignment,
    oracle_union_band,
    random_channel,
    random_condition_channel,
)


class TestPolyhedralRegion:
    def test_example_all_active(self, ex2):
        poly = polyhedral_region(ex2)
        rhs = dict(cycle_rows(poly))
        assert rhs[(0, 1)] == pytest.approx(1.9, abs=1e-12)
        assert rhs[(1, 2)] == pytest.approx(1.4, abs=1e-12)
        assert rhs[(0, 2)] == pytest.approx(1.1, abs=1e-12)
        assert rhs[(0, 1, 2)] == pytest.approx(1.4, abs=1e-12)
        assert rhs[(0, 2, 1)] == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(poly.box_ub, [1.0, 1.0, 1.0])

    def test_example_silencing_last_user(self, ex2):
        poly = polyhedral_region(ex2, silent={2})
        assert poly.silent == frozenset({2})
        [(users, rhs)] = cycle_rows(poly)
        assert users == (0, 1)
        assert rhs == pytest.approx(1.9, abs=1e-12)
        assert poly.contains([1.0, 0.9, 0.0])
        assert not poly.contains([1.0, 0.9, 0.1])

    def test_interference_free_cycles_redundant(self):
        ch = ChannelMatrix(np.diag([1.0, 0.7, 0.4]))
        poly = polyhedral_region(ch)
        for users, rhs in cycle_rows(poly):
            assert rhs == pytest.approx(sum(ch.alpha[i, i] for i in users))
        assert cycle_rows(minimized(poly)) == []

    def test_canonical_ordering(self, ex2):
        poly = polyhedral_region(ex2)
        keys = [(len(users), users) for users, _ in cycle_rows(poly)]
        assert keys == sorted(keys)

    def test_silent_out_of_range(self, ex2):
        with pytest.raises(ValueError):
            polyhedral_region(ex2, silent={5})

    @pytest.mark.parametrize("bad", [[0.5], [True], [False], ["0"], [np.float64(1.0)]])
    def test_non_integer_user_index_refused(self, ex2, bad):
        # [0.5] silenced, and summed, user 0
        with pytest.raises(ValueError, match="^silent set must be integer user indices"):
            polyhedral_region(ex2, bad)
        with pytest.raises(ValueError, match="^users must be integer user indices"):
            max_subset_sum(polyhedral_region(ex2), bad)
        assert polyhedral_region(ex2, np.array([2, 2])).silent == {2}
        assert max_subset_sum(polyhedral_region(ex2), [np.int64(0)]) == 1.0

    def test_point_and_user_shapes_checked(self):
        poly = polyhedral_region(ChannelMatrix(np.array([[1.0, 0.1], [0.2, 1.0]])))
        for d in ([0.1], [0.1, 0.1, 5.0]):
            with pytest.raises(ValueError):
                poly.contains(d)
        with pytest.raises(ValueError):
            max_subset_sum(poly, [5])

    @pytest.mark.parametrize("silent", [(), (0,), (1,), (0, 1)])
    def test_contains_refuses_targets_out_of_range_whatever_the_pins(self, silent):
        # a pinned user's [1e200, 0] read False while the all-active region raised
        poly = polyhedral_region(ChannelMatrix(np.array([[1.0, 0.1], [0.2, 1.0]])), silent)
        for d in ([1e200, 0.0], [0.0, np.nan], [-np.inf, 0.0], [0.0, -2e150]):
            with pytest.raises(ValueError, match="at most 1e\\+150 in magnitude"):
                poly.contains(d)
        assert poly.contains([0.0, 0.0])

    def test_minimized_prunes_dominated_cycle(self, ex2):
        pruned = minimized(polyhedral_region(ex2))
        assert len(cycle_rows(pruned)) == 4
        assert (0, 2, 1) not in dict(cycle_rows(pruned))


def near_tie_channel(rng, K):
    """Gains on a 1/8 grid with about a third of the cross gains zero.

    Many cycles share a right-hand side exactly, and a cycle through zero
    cross gains has a right-hand side exactly equal to its box sum.
    """
    a = rng.integers(0, 5, (K, K)) / 8.0
    a[rng.random((K, K)) < 0.33] = 0.0
    np.fill_diagonal(a, rng.integers(4, 9, K) / 8.0)
    return a


class TestMinimizedOracle:
    @pytest.mark.parametrize("K", range(2, 9))
    def test_kept_rows_match_pairwise_scan(self, K):
        rng = np.random.default_rng(300 + K)
        for alpha in (random_channel(rng, K), random_condition_channel(rng, K),
                      near_tie_channel(rng, K)):
            silent = [i for i in range(K) if rng.random() < 0.25]
            poly = polyhedral_region(ChannelMatrix(alpha), silent)
            kept = cycle_rows(minimized(poly))
            assert kept == oracle_minimized(alpha, silent)


class TestExportLimit:
    def test_refused_before_enumeration(self, monkeypatch):
        def no_enumeration(n):
            raise AssertionError("cycles enumerated")

        # the enumerator proper, behind the one refusal in cycle_blocks
        monkeypatch.setattr(potential_graph, "_cycle_blocks", no_enumeration)
        ch = ChannelMatrix(np.eye(K_MAX_EXPORT + 3) * 0.9 + 0.01)
        poly = polyhedral_region(ch, [0, 1])
        fch = FiniteSnrChannel(ch, 100.0)
        for call in (poly.to_dict, lambda: minimized(poly), lambda: rate_outer_bounds(fch),
                     lambda: gap_certificate(fch, np.full(ch.K, 0.01))):
            with pytest.raises(ValueError, match=f"^cycle enumeration supports at most "
                                                 f"{K_MAX_EXPORT} users"):
                call()


class TestRowArrays:
    """Every reader of cycle rows takes the per-length arrays: no ``LinearInequality``
    is made, and each call enumerates the cycles once."""

    def test_readers_build_no_inequality_and_enumerate_once(self, monkeypatch):
        def no_inequality(*args):
            raise AssertionError("LinearInequality constructed")

        calls = []
        enumerate_blocks = region.cycle_blocks
        monkeypatch.setattr(region, "LinearInequality", no_inequality)
        for module in (region, capacity_gap):  # the gap layer's own binding of the enumerator too
            monkeypatch.setattr(module, "cycle_blocks",
                                lambda users: calls.append(users) or enumerate_blocks(users))
        alpha = random_condition_channel(np.random.default_rng(83), 4)
        ch = ChannelMatrix(alpha)
        fch = FiniteSnrChannel(ch, 1e4)
        point = 0.2 * np.diag(alpha)
        readers = {
            "to_dict": lambda: polyhedral_region(ch, [2]).to_dict(),
            "minimized": lambda: minimized(polyhedral_region(ch)),
            "polyhedron_vertices": lambda: polyhedron_vertices(polyhedral_region(ch)),
            "rate_outer_bounds": lambda: rate_outer_bounds(fch),
            "gap_certificate": lambda: gap_certificate(fch, point),
        }
        for name, call in readers.items():
            calls.clear()
            call()
            assert len(calls) == 1, name
        with pytest.raises(AssertionError, match="LinearInequality"):
            polyhedral_region(ch).cycles  # only reading .cycles makes them

    def test_cycles_are_the_rows(self):
        # the row views perfbench reads, pinned to the rows; they go together with this test
        rng = np.random.default_rng(89)
        for K in range(1, 7):
            poly = polyhedral_region(ChannelMatrix(random_channel(rng, K)), [0] if K > 2 else [])
            rows = cycle_rows(poly)
            assert poly.cycles == tuple(LinearInequality(users, rhs) for users, rhs in rows)
            assert region.enumerate_cycles(poly.active) == [users for users, _ in rows]

    def test_blocks_of_any_users_are_the_oracle_cycles(self):
        users = (1, 4, 6, 8)
        assert [tuple(seq) for C in cycle_blocks(users) for seq in C.tolist()] == \
            oracle_cycles(users)
        rng = np.random.default_rng(89)
        regions = [(random_channel(rng, K), [0] if K > 2 else []) for K in range(1, 7)]
        regions.append((random_channel(np.random.default_rng(97), 9), [0, 2, 3, 5, 7]))
        for alpha, silent in regions:
            poly = polyhedral_region(ChannelMatrix(alpha), silent)
            rows = cycle_rows(poly)
            assert [u for u, _ in rows] == oracle_cycles(poly.active)
            assert [b for _, b in rows] == [oracle_cycle_rhs(alpha, u) for u, _ in rows]
        assert poly.active == users

    def test_cached_blocks_are_read_only(self):
        for C in cycle_blocks(range(4)):
            with pytest.raises(ValueError, match="read-only"):
                C[0, 0] = 1
        # a gather through other users is a new array, which the caller owns
        C = cycle_blocks((1, 4, 6))[0]
        C[0, 0] = 7
        assert cycle_blocks((1, 4, 6))[0][0, 0] == 1

    def test_enumerated_once_per_user_count(self):
        potential_graph._cycle_blocks.cache_clear()
        for users in (range(5), (1, 4, 6, 8, 9), range(5), range(3), (2, 7, 8)):
            cycle_blocks(users)
        polyhedral_region(ChannelMatrix(random_channel(np.random.default_rng(5), 6)), [1]).rows
        assert potential_graph._cycle_blocks.cache_info().misses == 2  # 5 users, then 3
        assert potential_graph._cycle_blocks.cache_info().hits == 4


class TestRegionDuality:
    def test_rhs_maps_to_reversed_cycle(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            K = int(rng.integers(2, 6))
            ch = ChannelMatrix(random_channel(rng, K))
            fwd = dict(cycle_rows(polyhedral_region(ch)))
            rev = dict(cycle_rows(polyhedral_region(transpose_channel(ch))))
            assert fwd.keys() == rev.keys()
            for seq, rhs in fwd.items():
                flipped = canonical_cycle((seq[0],) + tuple(reversed(seq[1:])))
                assert rev[flipped] == pytest.approx(rhs, abs=1e-12)

    def test_inequality_sets_equal(self, ex2):
        fwd = sorted((tuple(sorted(users)), round(rhs, 9))
                     for users, rhs in cycle_rows(polyhedral_region(ex2)))
        rev = sorted((tuple(sorted(users)), round(rhs, 9))
                     for users, rhs in cycle_rows(polyhedral_region(transpose_channel(ex2))))
        assert fwd == rev


class TestGraphDuals:
    """A region reads its graph's shortest paths from ``potential_graph``, which alone knows
    the graph's layout."""

    def test_routines_defined_beside_bellman_ford(self):
        for name in ("_shortest_paths", "_max_level"):
            assert getattr(region, name) is getattr(potential_graph, name)
            assert getattr(potential_graph, name).__module__ == "tinopt.potential_graph"
        tree = ast.parse(Path(region.__file__).read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert not defined & {"_shortest_paths", "_max_level"}
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "lengths" not in attrs

    def test_emptiness_is_the_graph_verdict(self, monkeypatch):
        # the verdict contains(0) gave, on regions at the edge of emptiness, without calling it
        rng = np.random.default_rng(29)
        cases = []
        for trial in range(150):
            K = 1 + trial % 6
            alpha = random_channel(rng, K) * (1 + rng.choice([-1e-10, 0.0, 1e-10], (K, K)))
            ch = ChannelMatrix(alpha)
            for silent in ((), (0,), tuple(np.flatnonzero(rng.random(K) < 0.4).tolist())):
                cases.append((ch, silent, polyhedral_region(ch, silent).contains(np.zeros(K))))
        assert 0 < sum(not member for *_, member in cases) < len(cases)

        def refuse(self, d):
            raise AssertionError("contains called")

        monkeypatch.setattr(region.Polyhedron, "contains", refuse)
        for ch, silent, member in cases:
            poly = polyhedral_region(ch, silent)
            assert (poly._paths is not None) == member, (ch.alpha, silent)
            if len(poly.active) == 0:
                assert poly._paths.shape == (0, 0)


class TestMembershipShortcut:
    """With no user silent, ``_membership`` returns the graph's certificate as it is; the
    general path, on the same channel padded with one silent user, gives the same one."""

    def test_all_active_equals_one_silent_extra_user(self):
        bits = lambda values: [None if x is None else np.float64(x).tobytes() for x in values]
        rng = np.random.default_rng(34)
        verdicts = []
        for K in range(1, 31):
            for trial in range(6):
                alpha = (random_condition_channel if trial % 2 else random_channel)(rng, K)
                d = rng.uniform(0.0, 1.0, K) * np.diag(alpha) * (0.3, 0.7, 1.0)[trial % 3]
                p = int(rng.integers(0, K + 1))  # the extra user's index
                padded = np.insert(np.insert(alpha, p, rng.uniform(0.0, 1.5, K), axis=0),
                                   p, rng.uniform(0.0, 1.5, K + 1), axis=1)
                cert = region._membership(polyhedral_region(ChannelMatrix(alpha)), d)
                general = region._membership(polyhedral_region(ChannelMatrix(padded), [p]),
                                             np.insert(d, p, rng.uniform(0.0, 2.0)))
                shift = lambda users: None if users is None else tuple(u + (u >= p) for u in users)
                case = (K, trial)
                assert general.feasible == cert.feasible, case
                assert general.cycle == shift(cert.cycle), case
                assert general.violated_users == shift(cert.violated_users), case
                assert bits([general.violated_rhs, general.margin]) == bits(
                    [cert.violated_rhs, cert.margin]), case
                if cert.feasible:
                    r = list(general.r.values)
                    assert r.pop(p) is SILENT, case
                    assert bits(r) == bits(cert.r.values), case
                else:
                    assert general.r is cert.r is None, case
                verdicts.append(cert.feasible)
        assert 0.2 < np.mean(verdicts) < 0.8


class TestActiveChannel:
    def test_cut_without_a_second_check(self, monkeypatch):
        # the active users' channel is a read-only gather of a checked channel: no entry check
        rng = np.random.default_rng(3803)
        ch = ChannelMatrix(random_channel(rng, 6))
        poly = polyhedral_region(ch, [1, 4])

        def refuse(*args, **kwargs):
            raise AssertionError("checked again")

        monkeypatch.setattr(channel_model, "_real_array", refuse)
        monkeypatch.setattr(channel_model, "_check_exponents", refuse)
        sub = poly._active_channel
        assert sub.K == 4 and not sub.alpha.flags.writeable
        assert sub.alpha.tobytes() == ch.alpha[np.ix_([0, 2, 3, 5], [0, 2, 3, 5])].tobytes()
        assert polyhedral_region(ch)._active_channel is ch


class TestGeneralRegion:
    def test_poly_contains_refuses_a_dimension_mismatch(self, ex2):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            poly_contains(polyhedral_region(ex2), polyhedral_region(symmetric_two_user(0.2)))

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
            if small.contains(d):
                assert large.contains(d)


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

    @pytest.mark.parametrize("w", [[math.nan, 1.0, 1.0], [math.inf, 1.0, 1.0], [1.0, 1.0, 2e150]])
    def test_non_finite_or_huge_weight_rejected(self, ex2, w):
        # NaN read as 0, inf ended in an argmin of an empty sequence
        with pytest.raises(ValueError, match="^weights must be nonnegative, finite and at most"):
            max_weighted_gdof(polyhedral_region(ex2), w)

    def test_empty_region_raises(self):
        # mutual strong interference leaves no nonnegative relaxed point
        ch = ChannelMatrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
        with pytest.raises(EmptyPolyhedronError):
            max_weighted_gdof(polyhedral_region(ch), [1.0, 1.0])

    def test_point_failing_the_recheck_raises(self, monkeypatch, ex2):
        poly = polyhedral_region(ex2)
        monkeypatch.setattr(region, "_max_min_point", lambda poly, w, value: np.full(len(w), 2.0))
        with pytest.raises(UncertifiedPointError, match="^optimizer returned an uncertifiable"):
            max_weighted_gdof(poly, [1.0, 1.0, 1.0])

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
            assert oracle_region_margin(alpha, (), point) >= -1e-9
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

    def test_no_cycle_row_is_built(self, monkeypatch):
        # values and points come from the shortest-path table: K=30 has about 2.5e31 cycle rows
        def refuse(users):
            raise AssertionError("cycle rows enumerated")

        monkeypatch.setattr("tinopt.region.cycle_blocks", refuse)  # the one enumerator
        alpha = random_condition_channel(np.random.default_rng(73), 30)
        poly = polyhedral_region(ChannelMatrix(alpha))
        value, point = max_weighted_gdof(poly, np.ones(30))
        assert value == pytest.approx(oracle_sum_gdof_assignment(alpha), abs=1e-9)
        assert poly.contains(point)
        assert max_subset_sum(poly, [0, 1]) == pytest.approx(
            oracle_cycle_lp(alpha, range(2, 30), np.ones(30))
        )


class TestMaxMinTieBreak:
    """The point of ``max_weighted_gdof`` is a maximizer whose least active coordinate is largest."""

    def test_level_matches_the_lp_oracle(self):
        # 0/1, real and zero weights, weight on silent users only, silent sets, empty regions
        rng = np.random.default_rng(103)
        seen = set()
        for trial in range(180):
            K = 2 + trial % 6
            alpha = (random_channel, random_condition_channel)[trial % 2](rng, K)
            silent = [i for i in range(K) if rng.random() < 0.3]
            kind = ("0/1", "real", "zero", "silent only")[trial % 4]
            w = {
                "0/1": (rng.random(K) < 0.6).astype(float),
                "real": rng.uniform(0.0, 1.0, K) * (rng.random(K) < 0.8),
                "zero": np.zeros(K),
                "silent only": np.isin(np.arange(K), silent).astype(float),
            }[kind]
            poly = polyhedral_region(ChannelMatrix(alpha), silent)
            level = oracle_max_min_level(alpha, silent, w)
            if level is None:
                with pytest.raises(EmptyPolyhedronError):
                    max_weighted_gdof(poly, w)
                continue
            value, point = max_weighted_gdof(poly, w)
            active = [i for i in range(K) if i not in silent]
            assert all(point[i] == 0.0 for i in silent)
            assert poly.contains(point)
            assert float(w @ point) == pytest.approx(value, abs=1e-9)
            if active:
                assert point[active].min() == pytest.approx(level, abs=1e-9), (alpha, silent, w)
                seen.add(kind)
        assert seen == {"0/1", "real", "zero", "silent only"}

    def test_zero_weights_give_the_largest_level(self, ex2):
        # W = 0: every point is a maximizer, so the point is t_max * 1 with t_max
        # the smallest mean of a cycle, here (a_00 - a_01 + a_11 - a_12 + a_22 - a_20) / 3
        value, point = max_weighted_gdof(polyhedral_region(ex2), np.zeros(3))
        assert value == 0.0
        np.testing.assert_allclose(point, np.full(3, 1.4 / 3), atol=1e-12)

    def test_karp_once_per_region(self, ex2):
        # the largest level is the region's, cached beside its paths: a design flow's
        # two optima on one region run Karp's O(n^3) minimum cycle mean once
        poly = polyhedral_region(ex2)
        weights = ([1.0, 1.0, 1.0], [0.3, 1.0, 0.2], [0.0, 0.0, 0.0])
        with mock.patch.object(region, "_max_level", wraps=region._max_level) as spy:
            got = [max_weighted_gdof(poly, w) for w in weights]
        assert spy.call_count == 1
        assert poly._t_max.hex() == potential_graph._max_level(ex2).hex()
        for w, (value, point) in zip(weights, got):
            fresh_value, fresh_point = max_weighted_gdof(polyhedral_region(ex2), w)
            assert value.hex() == fresh_value.hex() and point.tobytes() == fresh_point.tobytes()

    def test_newton_step_cap_raises_a_documented_error(self, monkeypatch, ex2):
        poly = polyhedral_region(ex2)
        w = [0.3, 1.0, 0.2]  # the first level, value / W, is above t*: a second step is needed
        max_weighted_gdof(poly, w)
        monkeypatch.setattr(region, "NEWTON_STEPS_MAX", 1)
        with pytest.raises(UncertifiedPointError, match="Newton steps"):
            max_weighted_gdof(poly, w)


@contextlib.contextmanager
def recorded_flows():
    """The calls of ``region._arrival_slack`` while the block runs."""
    with mock.patch.object(region, "_arrival_slack", wraps=region._arrival_slack) as spy:
        yield spy.call_args_list


def assert_arrival_slack_is_the_oracle(F, x, prices):
    """Bit for bit, but for the sign of a zero: the source's first round adds its 0.0
    distance to every price, so a price of -0.0 enters as +0.0."""
    e, want = region._arrival_slack(F, x, prices), oracle_arrival_slack(F, x, prices)
    assert (e + 0.0).tobytes() == (want + 0.0).tobytes(), (F, x, prices)


def assert_flows_match_the_oracle(calls):
    """At the transport's prices, and at zero prices, which are no potentials, so rounds move."""
    for F, x, prices in (call.args for call in calls):
        for start in (prices, tuple(map(np.zeros_like, prices))):
            assert_arrival_slack_is_the_oracle(F, x, start)


#: Channel entries with ties (multiples of 1/4) or without.
ENTRIES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5]) | st.floats(0.0, 2.0, width=32)


class TestArrivalSlack:
    """The point's slack above the max-min level comes from potential_graph's Bellman-Ford
    on the transport's residual graph, with the potentials of the Jacobi loop it replaced."""

    def test_geometry_flows(self, monkeypatch):
        # the benchmark's own channel generator, read from its file and not changed
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        gen = importlib.import_module("gen")
        with recorded_flows() as calls:
            for seed in (1, 9001):
                rng = gen.rng_for(seed, "geometry")
                for K in (3, 4, 5, 6, 8, 12):
                    for condition in (True, False):
                        a = gen.design_channel(rng, K, condition)
                        poly = polyhedral_region(ChannelMatrix(a))
                        for w in (np.ones(K), gen.positive_weights(rng, K)):
                            try:
                                max_weighted_gdof(poly, w)
                            except EmptyPolyhedronError:
                                pass
        assert len(calls) >= 24
        assert_flows_match_the_oracle(calls)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(K=st.integers(1, 6), data=st.data())
    def test_hypothesis_channels(self, K, data):
        alpha = np.array(data.draw(st.lists(ENTRIES, min_size=K * K, max_size=K * K)))
        alpha = alpha.reshape(K, K)
        np.fill_diagonal(alpha, np.diag(alpha) + data.draw(st.sampled_from([0.0, 1.0, 2.0])))
        w = np.array(data.draw(st.lists(ENTRIES, min_size=K, max_size=K)))
        silent = data.draw(st.sampled_from([(), (0,)]))
        with recorded_flows() as calls:
            try:
                max_weighted_gdof(polyhedral_region(ChannelMatrix(alpha), silent), w)
            except (EmptyPolyhedronError, UncertifiedPointError):
                pass
        assert_flows_match_the_oracle(calls)

    def test_flows_that_are_not_optimal(self):
        # flow on arbitrary arcs: the residual graph can hold negative cycles,
        # so rounds may run to their cap of 2m and stop still moving
        rng = np.random.default_rng(107)
        for trial in range(300):
            m = 1 + trial % 8
            F = rng.integers(-2, 4, (m, m)) / 2.0 if trial % 2 else rng.uniform(-1.0, 2.0, (m, m))
            x = rng.uniform(0.0, 1.0, (m, m)) * (rng.random((m, m)) < 0.7)
            prices = (rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m))
            assert_arrival_slack_is_the_oracle(F, x, prices)


class TestNearBand:
    """A two-user cycle whose right-hand side lies between HiGHS's 1e-7 and the 1e-9 band."""

    @staticmethod
    def union_flags(ch):
        return [None if c.subsumed_by is None else sorted(c.subsumed_by)
                for c in general_tin_region(ch)]

    @pytest.mark.parametrize("excess", [2e-9, 5e-8])
    def test_empty_under_the_band(self, excess):
        ch = ChannelMatrix(np.array([[1.0, 1.0], [1.0 + excess, 1.0]]))
        poly = polyhedral_region(ch)
        assert not poly.contains([0.0, 0.0])
        with pytest.raises(EmptyPolyhedronError):
            max_weighted_gdof(poly, [1.0, 1.0])
        assert max_subset_sum(poly, [0, 1]) == max_subset_sum(poly, []) == -math.inf
        assert self.union_flags(ch) == [None, None, None, [0]]

    def test_inside_the_band(self):
        # right-hand side -5e-10: the origin is a member, so every support value is 0
        ch = ChannelMatrix(np.array([[1.0, 1.0], [1.0 + 5e-10, 1.0]]))
        poly = polyhedral_region(ch)
        assert oracle_cycle_rhs(ch.alpha, (0, 1)) == pytest.approx(-5e-10, abs=1e-15)
        assert max_subset_sum(poly, [0, 1]) == max_subset_sum(poly, [0]) == 0.0
        value, point = max_weighted_gdof(poly, [1.0, 1.0])
        assert value == 0.0 and poly.contains(point)
        assert self.union_flags(ch) == [None, None, None, []]

    def test_random_unions_answer(self):
        rng = np.random.default_rng(83)
        for trial in range(60):
            K = 2 + trial % 3
            alpha = random_channel(rng, K)
            i, j = rng.choice(K, 2, replace=False)
            alpha[i, j] = min(alpha[i, j], alpha[i, i])
            alpha[j, i] = alpha[i, i] + alpha[j, j] - alpha[i, j] + (2e-9, 5e-8)[trial % 2]
            ch = ChannelMatrix(alpha)
            for comp in general_tin_region(ch):
                empty = max_subset_sum(comp.polyhedron, []) == -math.inf
                assert empty == (not comp.polyhedron.contains(np.zeros(K)))
                assert empty or {i, j} & comp.silent, (alpha, comp.silent)


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

    def test_every_user_silent_gives_the_origin(self, ex2):
        verts = polyhedron_vertices(polyhedral_region(ex2, silent={0, 1, 2}))
        assert verts.tolist() == [[0.0, 0.0, 0.0]]

    def test_empty_region_has_K_columns(self):
        # the cycle right-hand side is -2, so no point is a member; the shape was (0,)
        poly = polyhedral_region(ChannelMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert polyhedron_vertices(poly).shape == (0, 2)
