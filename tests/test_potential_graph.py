import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinopt import (
    ChannelMatrix,
    build_graph,
    check_tin_condition,
    decide_membership,
    max_weighted_gdof,
    point_in_tin_region,
    polyhedral_region,
    polyhedral_tin_gdof,
    recover_power_allocation,
)
from conftest import symmetric_two_user
from tinopt import potential_graph
from tinopt.channel_model import EXPONENT_MAX, SILENT, PowerExponents
from tinopt.potential_graph import (
    EPS_LENGTH,
    K_MAX_EXPORT,
    _bellman_ford,
    _feasible,
    canonical_cycle,
    cycle_blocks,
    cycle_rhs,
)
from tinopt.region import max_subset_sum
from _oracles import (
    forward_gdof,
    oracle_cycle_rhs,
    oracle_cycles,
    oracle_graph_lengths,
    oracle_in_union,
    oracle_jacobi_bellman_ford,
    oracle_region_margin,
    oracle_union_band,
    random_channel,
)
from test_transport import optima_corpus, slack_sweeps


def cycle_count(n: int) -> int:
    return sum(math.comb(n, m) * math.factorial(m - 1) for m in range(2, n + 1))


def sequences(users) -> list:
    """The rows of :func:`cycle_blocks` as one list of tuples, in canonical order."""
    return [tuple(seq) for C in cycle_blocks(users) for seq in C.tolist()]


class TestEnumerateCycles:
    def test_three_users_exact_family(self):
        got = sequences({1, 2, 3})
        assert got == [(1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 3, 2)]
        assert [C.shape for C in cycle_blocks({1, 2, 3})] == [(3, 2), (2, 3)]

    def test_small_sets_empty(self):
        assert cycle_blocks([]) == []
        assert cycle_blocks([4]) == []

    def test_four_user_count(self):
        assert len(sequences(range(4))) == 6 + 8 + 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_count_formula(self, n):
        seqs = sequences(range(n))
        assert len(seqs) == cycle_count(n)
        assert len(set(seqs)) == len(seqs)

    def test_matches_independent_enumeration(self):
        assert set(sequences(range(5))) == set(oracle_cycles(range(5)))

    def test_refused_above_the_export_limit(self):
        assert len(sequences(range(K_MAX_EXPORT))) == cycle_count(K_MAX_EXPORT)
        with pytest.raises(ValueError, match=f"at most {K_MAX_EXPORT} users, got 10"):
            cycle_blocks(range(10))

    def test_canonical_rotation(self):
        assert canonical_cycle((3, 1, 2)) == (1, 2, 3)
        assert canonical_cycle(np.array([3, 1])) == (1, 3)
        with pytest.raises(ValueError):
            canonical_cycle((1, 1, 2))
        for seq in [(), (1.5, 0.2), (True, 2), "21"]:  # empty ended in min()'s error
            with pytest.raises(ValueError, match="^cycle must be nonempty integer user indices"):
                canonical_cycle(seq)

    def test_non_integer_users_refused(self):
        # were truncated by int(): [0.5, 1, 2.7] enumerated users 0, 1, 2
        for users in [[0.5, 1, 2.7], [True, 2], "012"]:
            with pytest.raises(ValueError, match="^users must be integer user indices"):
                cycle_blocks(users)
        assert sequences(np.array([2, 0])) == [(0, 2)]


class TestBuildGraph:
    def test_single_user_arcs(self):
        g = build_graph(ChannelMatrix(np.array([[1.0]])), [0.5])
        assert int(np.isfinite(g.lengths).sum()) == 2
        assert g.lengths[0, 1] == pytest.approx(0.5)  # user -> ground
        assert g.lengths[1, 0] == 0.0  # ground -> user

    def test_example_lengths(self, ex2):
        g = build_graph(ex2, [0.1, 0.9, 0.4])
        # a_00 - d_0 - a_01 = 1 - 0.1 - 0.1
        assert g.lengths[0, 1] == pytest.approx(0.8)
        assert g.lengths[1, 2] == pytest.approx(1 - 0.9 - 0.6)
        assert g.lengths[2, 0] == pytest.approx(1 - 0.4 - 0.9)
        assert g.lengths[0, g.ground] == pytest.approx(0.9)
        assert np.isfinite(g.lengths[g.lengths != np.inf]).all()

    @pytest.mark.parametrize("K", [1, 2, 3, 5, 8])
    def test_arc_count_identity(self, K):
        rng = np.random.default_rng(K)
        ch = ChannelMatrix(random_channel(rng, K))
        g = build_graph(ch, rng.uniform(0, 1, K))
        assert int(np.isfinite(g.lengths).sum()) == K * K + K

    def test_dimension_mismatch(self, ex2):
        with pytest.raises(ValueError):
            build_graph(ex2, [0.1, 0.2])

    def test_lengths_and_cycle_rhs_bit_equal_to_loops(self):
        # broadcast lengths against the entry-by-entry loop, and the one-row
        # block of cycle_rhs against the scalar position-order sum
        rng = np.random.default_rng(97)
        for trial in range(300):
            K = 1 + trial % 11
            scale = 10.0 ** rng.uniform(-3, 3)
            alpha = random_channel(rng, K) * scale
            alpha[rng.random((K, K)) < 0.2] = 0.0
            d = rng.uniform(-0.5, 1.5, K) * scale
            got = build_graph(ChannelMatrix(alpha), d).lengths
            assert got.tobytes() == oracle_graph_lengths(alpha, d).tobytes()
            seq = tuple(int(u) for u in rng.permutation(K)[: int(rng.integers(1, K + 1))])
            want = alpha[seq[0], seq[0]] if len(seq) == 1 else oracle_cycle_rhs(alpha, seq)
            assert np.float64(cycle_rhs(ChannelMatrix(alpha), seq)).tobytes() == \
                np.float64(want).tobytes()

    @pytest.mark.parametrize("K", [1, 2, 3, 7, 12, 30, 100])
    def test_one_sequence_rhs_bit_equal_to_its_block_and_the_oracle(self, K):
        # ties (integer exponents) and signed zeros among the entries
        rng = np.random.default_rng(K)
        for trial in range(60):
            if trial % 3 == 0:
                alpha = rng.integers(0, 3, (K, K)).astype(float)
            else:
                alpha = random_channel(rng, K) * 10.0 ** rng.uniform(-3, 3)
            alpha[rng.random((K, K)) < 0.2] = 0.0
            alpha[rng.random((K, K)) < 0.2] = -0.0
            ch = ChannelMatrix(alpha)
            m = 1 + trial % min(K, 12)
            seq = tuple(int(u) for u in rng.permutation(K)[:m])
            got = cycle_rhs(ch, seq)
            assert type(got) is float
            block = cycle_rhs(ch, np.array([seq]))
            assert block.shape == (1,) and np.float64(got).tobytes() == block.tobytes()
            want = alpha[seq[0], seq[0]] if m == 1 else oracle_cycle_rhs(alpha, seq)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (alpha, seq)
            assert np.float64(cycle_rhs(ch, np.array(seq))).tobytes() == np.float64(got).tobytes()

    def test_one_user_rhs_keeps_the_sign_of_zero(self):
        ch = ChannelMatrix(np.array([[-0.0, 0.0], [0.0, 0.0]]))
        assert np.float64(cycle_rhs(ch, (0,))).tobytes() == np.float64(-0.0).tobytes()
        assert np.float64(cycle_rhs(ch, (1,))).tobytes() == np.float64(0.0).tobytes()
        assert cycle_rhs(ch, np.array([[0], [1]])).tobytes() == np.array([-0.0, 0.0]).tobytes()
        # a sum from 0.0: -0.0 terms give +0.0, as the block's zeros do
        assert np.float64(cycle_rhs(ch, (0, 1))).tobytes() == np.float64(0.0).tobytes()

    def test_targets_above_the_ceiling_refused(self, ex2):
        for d in ([EXPONENT_MAX * 2, 0.0, 0.0], [0.0, -np.inf, 0.0], [np.nan, 0.0, 0.0]):
            with pytest.raises(ValueError, match="at most"):
                build_graph(ex2, d)
        with pytest.raises(ValueError, match="at most"):
            recover_power_allocation(ex2, [1e308, 1e308, 0.0])
        with pytest.raises(ValueError, match="at most"):
            point_in_tin_region(ex2, [0.5, 1e308, 0.0])


def _departures(L: np.ndarray, u: int, v: int) -> tuple:
    """The shortest simple path ``u`` -> ``v`` (a cycle through ``u`` when ``u == v``) on
    lengths ``L`` with ground last, and the fewest and the most arcs out of a user among
    those paths."""
    ground = len(L) - 1
    paths = []
    others = [k for k in range(len(L)) if k not in (u, v)]
    for m in range(len(others) + 1):
        for mid in itertools.permutations(others, m):
            if u == v and not mid:
                continue  # no arc from a node to itself
            nodes = (u, *mid, v)
            length = sum(L[a, b] for a, b in zip(nodes, nodes[1:]))
            departures = sum(a != ground for a in nodes[:-1])
            paths.append((length, departures))
    length = min(paths)[0]
    return length, min(paths)[1], max(h for x, h in paths if x == length)


class TestShortestPaths:
    """``_shortest_paths`` with ``departures`` is the plain Floyd-Warshall's lengths plus
    ``H``, the fewest arcs out of a user among the shortest paths."""

    def test_lengths_with_and_without_departures(self):
        rng = np.random.default_rng(34)
        signed = 0
        for trial in range(3000):
            K = 1 + trial % 8
            alpha = random_channel(rng, K)
            if trial % 2:  # 0.0 and -0.0 entries, so that lengths tie at 0 with either sign
                zero = rng.random((K, K)) < 0.4
                alpha[zero] = np.where(rng.random((K, K)) < 0.5, -0.0, 0.0)[zero]
            level = float(rng.choice([0.0, -0.0, rng.uniform(-0.2, 0.4)]))
            ch = ChannelMatrix(alpha)
            F, none = potential_graph._shortest_paths(ch, level)
            F1, H = potential_graph._shortest_paths(ch, level, departures=True)
            assert none is None and H.shape == F.shape == F1.shape == (K, K)
            assert np.array_equal(F, F1), trial
            L = oracle_graph_lengths(alpha, np.full(K, level))
            if np.signbit(L[L == 0]).any():
                signed += 1
            else:
                assert np.array_equal(F.view(np.int64), F1.view(np.int64)), trial
        assert signed > 100

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_departures_are_the_fewest_among_shortest_paths(self, K):
        # quarter-integer channels under the condition, at quarter-integer levels up to
        # t_max: every sum exact, every cycle at 0 or above, and ties between paths
        rng = np.random.default_rng(340 + K)
        ties = 0
        for trial in range(60):
            diag = rng.integers(2, 7, K) / 4.0
            cap = np.floor(2.0 * np.minimum.outer(diag, diag)) / 4.0  # half of both directs
            alpha = np.floor(rng.uniform(0.0, 1.0, (K, K)) * (4.0 * cap + 1.0)) / 4.0
            np.fill_diagonal(alpha, diag)
            ch = ChannelMatrix(alpha)
            assert check_tin_condition(ch).overall
            top = math.floor(4.0 * potential_graph._max_level(ch)) / 4.0
            for level in sorted({0.0, min(0.25, top), top}):
                F, H = potential_graph._shortest_paths(ch, level, departures=True)
                L = oracle_graph_lengths(alpha, np.full(K, level))
                for u in range(K):
                    for v in range(K):
                        length, fewest, most = _departures(L, u, v)
                        assert (F[u, v], H[u, v]) == (length, fewest), (trial, level, u, v)
                        ties += most > fewest
        assert ties > 0 or K == 1  # one user has one cycle, through ground


class TestExponentCeiling:
    """Exponents and targets at ``EXPONENT_MAX`` give finite verdicts with no overflow warning
    (pytest turns a ``RuntimeWarning`` into an error); above it they are refused."""

    @pytest.mark.parametrize("K", [2, 3, 5, 8])
    def test_no_overflow_at_the_ceiling(self, K):
        rng = np.random.default_rng(101 + K)
        for _ in range(10):
            alpha = EXPONENT_MAX * rng.integers(0, 2, (K, K)).astype(float)
            ch = ChannelMatrix(alpha)
            d = EXPONENT_MAX * rng.integers(0, 2, K).astype(float)
            for cert in (recover_power_allocation(ch, d), point_in_tin_region(ch, d).certificate):
                if cert.feasible:
                    assert all(np.isfinite(x) for x in cert.r.values if x is not SILENT)
                else:
                    assert np.isfinite(cert.violated_rhs) and np.isfinite(cert.margin)
            rhs = np.concatenate([b for _, b in polyhedral_region(ch).rows])
            assert np.all(np.isfinite(rhs))

    def test_channel_above_the_ceiling_refused(self):
        ChannelMatrix(np.array([[EXPONENT_MAX, 0.0], [EXPONENT_MAX, 0.0]]))
        with pytest.raises(ValueError, match="at most 1e\\+150"):
            ChannelMatrix(np.array([[0.0, 1e308], [1e308, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, -0.1, np.inf, 2 * EXPONENT_MAX])
    def test_one_exponent_message_everywhere(self, ex2, bad):
        # four checks had four wordings, and NaN passed the sign test
        d = [0.1, bad, 0.1]
        message = "must be nonnegative, finite and at most 1e\\+150$"
        with pytest.raises(ValueError, match="^alpha " + message):
            ChannelMatrix(np.diag(d))
        for call in (point_in_tin_region, recover_power_allocation):
            with pytest.raises(ValueError, match="^d " + message):
                call(ex2, d)
        with pytest.raises(ValueError, match="^weights " + message):
            max_weighted_gdof(polyhedral_region(ex2), d)
        for call in (point_in_tin_region, recover_power_allocation):
            with pytest.raises(ValueError, match="^d needs 3 entries, got 2$"):
                call(ex2, d[:2])


class TestDecideMembership:
    def test_single_user_feasible_zero_power(self):
        cert = decide_membership(build_graph(ChannelMatrix(np.array([[1.0]])), [0.5]))
        assert cert.feasible
        assert cert.r.values == (0.0,)

    def test_example_cycle_violation(self, ex2):
        cert = decide_membership(build_graph(ex2, [1.0, 0.9, 0.0]))
        assert not cert.feasible
        assert cert.cycle == (0, 1, 2)
        assert cert.violated_users == (0, 1, 2)
        assert cert.violated_rhs == pytest.approx(1.4)
        assert cert.margin == pytest.approx(-0.5)

    def test_example_boundary_point_feasible(self, ex2):
        # 0.1 + 0.9 + 0.4 sits exactly on the three-user bound
        cert = decide_membership(build_graph(ex2, [0.1, 0.9, 0.4]))
        assert cert.feasible

    def test_box_violation_reported_as_single_user(self):
        cert = decide_membership(build_graph(ChannelMatrix(np.array([[1.0]])), [1.5]))
        assert not cert.feasible
        assert cert.violated_users == (0,)
        assert cert.violated_rhs == pytest.approx(1.0)
        assert cert.margin == pytest.approx(-0.5)

    def test_agrees_with_exhaustive_inequalities(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(300):
            K = int(rng.integers(2, 6))
            alpha = random_channel(rng, K)
            d = rng.uniform(0, np.diag(alpha))
            margin = oracle_region_margin(alpha, (), d)
            if abs(margin) <= 1e-8:
                continue  # boundary band: either verdict is acceptable
            cert = decide_membership(build_graph(ChannelMatrix(alpha), d))
            assert cert.feasible == (margin >= 0), (alpha, d, margin)
            checked += 1
        assert checked > 250

    def test_soundness_of_feasible_certificates(self):
        # returned potentials satisfy every difference constraint directly
        rng = np.random.default_rng(23)
        found = 0
        while found < 60:
            K = int(rng.integers(2, 6))
            alpha = random_channel(rng, K)
            d = rng.uniform(0, np.diag(alpha)) * 0.6
            cert = decide_membership(build_graph(ChannelMatrix(alpha), d))
            if not cert.feasible:
                continue
            found += 1
            r = np.array([v for v in cert.r])
            assert np.all(r <= 1e-12)
            for i in range(K):
                assert r[i] >= d[i] - alpha[i, i] - 1e-9
                for j in range(K):
                    if i != j:
                        assert r[i] - r[j] >= alpha[i, j] + d[i] - alpha[i, i] - 1e-9

    def test_completeness_margin_matches_cycle_length(self):
        rng = np.random.default_rng(29)
        found = 0
        while found < 60:
            K = int(rng.integers(2, 6))
            alpha = random_channel(rng, K)
            d = rng.uniform(0, np.diag(alpha))
            g = build_graph(ChannelMatrix(alpha), d)
            cert = decide_membership(g)
            if cert.feasible:
                continue
            found += 1
            assert cert.margin < 0
            # reported inequality is genuinely violated by the same amount
            lhs = sum(d[u] for u in cert.violated_users)
            assert cert.violated_rhs - lhs == pytest.approx(cert.margin, abs=1e-9)
            # and it belongs to the region family for this channel
            assert oracle_region_margin(alpha, (), d) <= cert.margin + 1e-9
            cycle = cert.cycle
            expected = alpha[cycle[0], cycle[0]] if len(cycle) == 1 else oracle_cycle_rhs(alpha, cycle)
            assert cert.violated_rhs == pytest.approx(expected, abs=1e-12)

    def test_potential_property_on_all_arcs(self):
        rng = np.random.default_rng(31)
        found = 0
        while found < 40:
            K = int(rng.integers(2, 5))
            alpha = random_channel(rng, K)
            d = rng.uniform(0, np.diag(alpha)) * 0.5
            g = build_graph(ChannelMatrix(alpha), d)
            cert = decide_membership(g)
            if not cert.feasible:
                continue
            found += 1
            p = np.append([v for v in cert.r], 0.0)  # ground potential 0
            n = K + 1
            for a_ in range(n):
                for b in range(n):
                    if np.isfinite(g.lengths[a_, b]):
                        assert g.lengths[a_, b] >= p[b] - p[a_] - 1e-9


class TestRecoverPowerAllocation:
    def test_zero_target_benign_channel(self):
        cert = recover_power_allocation(symmetric_two_user(0.4), [0.0, 0.0])
        assert cert.feasible
        assert all(v <= 0 for v in cert.r)

    def test_two_user_hand_solution(self):
        # constraints force r = (0, 0); relaxed GDoF then equals 0.6 per user
        ch = symmetric_two_user(0.4)
        cert = recover_power_allocation(ch, [0.6, 0.6])
        assert cert.feasible
        relaxed = polyhedral_tin_gdof(ch, cert.r)
        assert np.all(relaxed >= np.array([0.6, 0.6]) - 1e-9)

    def test_example_infeasible_point(self, ex2):
        cert = recover_power_allocation(ex2, [1.0, 0.9, 0.0])
        assert not cert.feasible

    def test_negative_target_rejected(self, ex2):
        with pytest.raises(ValueError):
            recover_power_allocation(ex2, [-0.1, 0.0, 0.0])

    def test_feasible_certificates_dominate_target(self):
        rng = np.random.default_rng(37)
        found = 0
        while found < 80:
            K = int(rng.integers(2, 6))
            alpha = random_channel(rng, K)
            d = rng.uniform(0, np.diag(alpha)) * 0.7
            cert = recover_power_allocation(ChannelMatrix(alpha), d)
            if not cert.feasible:
                continue
            found += 1
            relaxed = polyhedral_tin_gdof(ChannelMatrix(alpha), cert.r)
            assert np.all(relaxed >= d - 1e-9)


#: Shifts that put a boundary target on, inside or just outside the 1e-9 band.
BAND_SHIFTS = (0.0, 1e-12, -1e-12, 5e-10, -5e-10, 7.5e-10, 1e-9, -1e-9, 2e-9)


def assert_certificate_checks(alpha, d, cert):
    """Feasible: the powers reach d within 1e-9.  Infeasible: the bound is violated."""
    if cert.feasible:
        r = np.array([-np.inf if v is None else v for v in cert.r.to_jsonable()])
        assert np.all(forward_gdof(alpha, r)[0] >= d - 1e-9), (alpha, d, cert)
    else:
        users = cert.violated_users
        rhs = alpha[users[0], users[0]] if len(users) == 1 else oracle_cycle_rhs(alpha, users)
        assert rhs < sum(d[u] for u in users), (alpha, d, cert)


def assert_allocation_checks(cert):
    """A member's powers, built without the per-entry check, pass it: Python floats <= 0 or SILENT."""
    if cert.feasible:
        assert PowerExponents(cert.r.values) == cert.r
        assert all(v is SILENT or type(v) is float for v in cert.r.values), cert.r


def _one_circuit(K: int, m: int, length: float, spread: str) -> ChannelMatrix:
    """Exponents 0.01 on the diagonal, whose graph at ``d = 0`` has one negative circuit,
    ``0 -> 1 -> ... -> m-1 -> 0``, of about ``length``: spread evenly over its arcs, or
    all on its first arc with the others 0.  Every other arc is 0.01."""
    a = np.diag(np.full(K, 0.01))
    for k in range(m):
        share = length / m if spread == "even" else length if k == 0 else 0.0
        a[k, (k + 1) % m] = 0.01 - share
    return ChannelMatrix(a)


class TestToleranceBand:
    @pytest.mark.parametrize("d", [(0.5, 0.5 + 7.5e-10), (1.0 + 6e-10, 0.0)])
    def test_band_targets_get_checkable_verdicts(self, d):
        # a cycle bound and a power bound overshot by less than 1e-9
        ch = symmetric_two_user(0.5)
        d = np.array(d)
        assert_certificate_checks(ch.alpha, d, recover_power_allocation(ch, d))
        assert_certificate_checks(ch.alpha, d, point_in_tin_region(ch, d).certificate)

    def test_polyhedron_contains_takes_the_same_band(self):
        # a 2-cycle overshot by 9e-10 at K=4: the band shift of 2.5e-10 per
        # user leaves it violated, and the polyhedron must say so too
        alpha = np.full((4, 4), 0.1)
        alpha[0, 1] = alpha[1, 0] = 0.5
        alpha[2, 3] = alpha[3, 2] = 0.2
        np.fill_diagonal(alpha, 1.0)
        ch = ChannelMatrix(alpha)
        d = np.array([0.5, 0.5 + 9e-10, 0.2, 0.2])
        verdict = point_in_tin_region(ch, d)
        assert_certificate_checks(alpha, d, verdict.certificate)
        assert not verdict.inside and verdict.certificate.cycle == (0, 1)
        assert polyhedral_region(ch).contains(d) == verdict.inside

    @pytest.mark.parametrize("K", [2, 3, 4, 6, 10, 30])
    def test_what_the_band_guarantees_a_circuit(self, K):
        # README, "Numerical conventions": a circuit through m users is a member at or above
        # -(m/K) * 1e-9 and refused below -(m/2) * 1e-9, whatever K and however its length
        # is spread; at d = 0 the three membership entry points give one verdict
        zeros = np.zeros(K)
        for m in sorted({2, min(3, K), K}):
            for spread in ("even", "one arc"):
                for length, member in ((-(m / K) * EPS_LENGTH * (1 - 1e-6), True),
                                       (-(m / 2) * EPS_LENGTH * (1 + 1e-6), False)):
                    ch = _one_circuit(K, m, length, spread)
                    poly = polyhedral_region(ch)
                    verdicts = (recover_power_allocation(ch, zeros).feasible, poly.contains(zeros),
                                max_subset_sum(poly, []) == 0.0)
                    assert verdicts == (member,) * 3, (K, m, spread, length, verdicts)
            # the floor is the plain pass's, every arc within 0.5e-9: an evenly spread
            # circuit is a member down to it, below -1e-9 for m > 2
            ch = _one_circuit(K, m, -(m / 2) * EPS_LENGTH * (1 - 1e-6), "even")
            assert recover_power_allocation(ch, zeros).feasible, (K, m)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        K=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1.0, 1e3),
        shift=st.sampled_from(BAND_SHIFTS),
    )
    def test_boundary_targets_never_raise_and_match_oracles(self, K, seed, scale, shift):
        rng = np.random.default_rng(seed)
        alpha = scale * random_channel(rng, K)
        r = -scale * rng.uniform(0.0, 0.5, K)
        r[rng.random(K) < 0.3] = 0.0
        d = np.maximum(forward_gdof(alpha, r)[0] + shift, 0.0)
        ch = ChannelMatrix(alpha)

        cert = recover_power_allocation(ch, d)
        assert_certificate_checks(alpha, d, cert)
        margin = oracle_region_margin(alpha, (), d)
        if abs(margin) > 1e-8:
            assert cert.feasible == (margin > 0)

        verdict = point_in_tin_region(ch, d)
        assert_certificate_checks(alpha, d, verdict.certificate)
        assert_allocation_checks(cert)
        assert_allocation_checks(verdict.certificate)
        if oracle_union_band(alpha, d) > 1e-8:
            assert verdict.inside == oracle_in_union(alpha, d)
        assert polyhedral_region(ch, verdict.silent).contains(d) == verdict.inside


def _cert_bytes(cert) -> tuple:
    """A certificate's fields, floats as their bytes."""
    r = None if cert.r is None else np.array(
        [np.nan if v is None else v for v in cert.r.to_jsonable()]).tobytes()
    floats = [None if x is None else np.float64(x).tobytes()
              for x in (cert.violated_rhs, cert.margin)]
    return (cert.feasible, r, cert.cycle, cert.violated_users, *floats)


def _band_lengths(L: np.ndarray) -> np.ndarray:
    """The band pass's graph: every arc out of a user longer by ``EPS_LENGTH / K``."""
    band = L.copy()
    band[:-1] += EPS_LENGTH / (len(L) - 1)
    return band


def _oracle_certificate(alpha: np.ndarray, d: np.ndarray, passes: list) -> tuple:
    """The certificate ``decide_membership`` builds, read off the Jacobi oracle's output.

    Appends to ``passes`` the name of each pass run, so callers can tell
    which cases reached the band pass.
    """
    K = len(d)
    L = oracle_graph_lengths(alpha, d)

    def feasible(dist):
        return (True, np.array([min(0.0, float(x - dist[K])) for x in dist[:K]]).tobytes(),
                None, None, None, None)

    def from_cycle(c):
        users = tuple(int(v) for v in c if v != K)
        k = users.index(min(users))
        users = users[k:] + users[:k]
        rhs = alpha[users[0], users[0]] if len(users) == 1 else oracle_cycle_rhs(alpha, users)
        margin = rhs - float(sum(d[u] for u in users))
        return (False, None, users, users, np.float64(rhs).tobytes(), np.float64(margin).tobytes())

    passes.append("plain")
    dist, circuits = oracle_jacobi_bellman_ford(L, K, 0.5 * EPS_LENGTH)
    if circuits is None:
        return feasible(dist)
    for c in circuits:
        if sum(L[c[k], c[(k + 1) % len(c)]] for k in range(len(c))) < -EPS_LENGTH:
            return from_cycle(c)
    passes.append("band")
    dist, circuits = oracle_jacobi_bellman_ford(_band_lengths(L), K, 0.5 * EPS_LENGTH / K)
    for c in circuits or ():
        cert = from_cycle(c)
        if np.frombuffer(cert[5])[0] < 0:
            return cert
    return feasible(dist)


#: Offsets that put a boundary target on, inside or outside the 1e-9 band.
ORACLE_OFFSETS = (0.0, 1e-12, -1e-12, 5e-10, -5e-10, 7.5e-10, 1e-6, -1e-6)


def _oracle_cases():
    """Seeded (alpha, d) pairs: boundary points at every offset, negative targets, and
    integer channels, where sources tie exactly; fewer at the larger sizes."""
    rng = np.random.default_rng(2020)
    for K, count in ((1, 24), (2, 40), (4, 40), (10, 24), (30, 8), (100, 3)):
        for case in range(count):
            kind = case % 3
            if kind == 2:  # integer exponents: candidates tie between sources
                alpha = rng.integers(0, 3, (K, K)).astype(float)
                np.fill_diagonal(alpha, rng.integers(2, 4, K))
                d = rng.integers(-1, 3, K).astype(float)
            else:
                alpha = random_channel(rng, K)
                r = -rng.uniform(0.0, 0.5, K)
                r[rng.random(K) < 0.3] = 0.0
                offset = ORACLE_OFFSETS[case % len(ORACLE_OFFSETS)]
                d = forward_gdof(alpha, r, clamp=False)[0] + offset
                if kind == 1:
                    d -= rng.uniform(0.0, 1.0, K) * (rng.random(K) < 0.3)  # some negative
            yield K, alpha, d


class TestJacobiRounds:
    """The round kernel against a loop oracle: same distances, same circuits, same certificates.

    Which circuit a non-member reports depends on the exact iteration
    (Jacobi rounds, strict improvement, lowest source on ties, K + 1
    rounds), so the kernel must reproduce it bit for bit.
    """

    @pytest.mark.parametrize("K", [1, 2, 4, 10, 30, 100])
    def test_distances_and_circuits_match_the_oracle(self, K):
        for _, alpha, d in filter(lambda c: c[0] == K, _oracle_cases()):
            L = oracle_graph_lengths(alpha, d)
            for lengths, tol in ((L, 0.5 * EPS_LENGTH), (_band_lengths(L), 0.5 * EPS_LENGTH / K)):
                dist, circuits = _bellman_ford(lengths, K, tol)
                want_dist, want_circuits = oracle_jacobi_bellman_ford(lengths, K, tol)
                assert dist.tobytes() == want_dist.tobytes(), (alpha, d)
                assert (circuits if circuits is None else list(circuits)) == want_circuits

    def test_certificates_match_the_oracle(self):
        passes = []
        for _, alpha, d in _oracle_cases():
            cert = decide_membership(build_graph(ChannelMatrix(alpha), d))
            assert _cert_bytes(cert) == _oracle_certificate(alpha, d, passes), (alpha, d)
        # a cycle bound overshot by 7.5e-10: no circuit is shorter than -1e-9
        alpha = symmetric_two_user(0.5).alpha
        d = np.array([0.5, 0.5 + 7.5e-10])
        cert = decide_membership(build_graph(ChannelMatrix(alpha), d))
        assert _cert_bytes(cert) == _oracle_certificate(alpha, d, passes)
        assert passes[-1] == "band"
        assert passes.count("band") >= 2  # one seeded case besides this one

    def test_rounds_of_a_non_member_and_of_a_member(self, monkeypatch):
        rounds, scans = [], []
        relax, slack = potential_graph._relax, potential_graph._slack

        def spy_relax(*args):
            rounds.append(relax(*args))
            return rounds[-1]

        def spy_slack(*args):
            scans.append(1)
            return slack(*args)

        monkeypatch.setattr(potential_graph, "_relax", spy_relax)
        monkeypatch.setattr(potential_graph, "_slack", spy_slack)
        rng = np.random.default_rng(30)
        K = 30
        ch = ChannelMatrix(random_channel(rng, K))
        # every user at its direct bound: each 2-cycle with a cross gain is violated
        assert not decide_membership(build_graph(ch, np.diag(ch.alpha))).feasible
        assert len(rounds) == K + 1 and all(rounds[:K])  # no band pass, no early stop
        assert len(scans) == 1  # round K + 1's sweep is the convergence test; one scan orders walks
        rounds.clear()
        scans.clear()
        # 1e-6 below the relaxed GDoF of a power vector
        r = -rng.uniform(0.0, 0.5, K)
        d = forward_gdof(ch.alpha, r, clamp=False)[0] - 1e-6
        assert decide_membership(build_graph(ch, d)).feasible
        assert rounds[-1] is False and all(rounds[:-1]) and len(rounds) <= K
        assert scans == []  # a round that moved nothing leaves every slack at most 0
        rounds.clear()
        # a 2-cycle 1e-12 below 0: every round moves, and round K + 1's sweep
        # finds every slack within the band and moves nothing
        assert decide_membership(build_graph(symmetric_two_user(0.5), [0.5, 0.5 + 1e-12])).feasible
        assert rounds == [True, True, False] and scans == []

    def test_walk_order_only_when_a_circuit_is_read(self, monkeypatch):
        scans = []
        slack = potential_graph._slack
        monkeypatch.setattr(potential_graph, "_slack", lambda *args: scans.append(1) or slack(*args))
        # _arrival_slack reads no circuit: on the optima whose slack pass runs all 2m
        # rounds and ends with one (the fixture's first, at K = 2), no scan orders the walks
        with slack_sweeps() as log:
            for labels, alpha, w in itertools.islice(optima_corpus(), 12):
                max_weighted_gdof(polyhedral_region(ChannelMatrix(alpha)), w)
        assert sum(entry["circuit"] for entry in log) >= 3
        assert scans == []
        # a non-member's walks: the first next() scans once, and the circuits and the
        # certificate are the eager order's
        ch = ChannelMatrix(random_channel(np.random.default_rng(31), 6))
        graph = build_graph(ch, np.diag(ch.alpha))
        dist, circuits = _bellman_ford(graph.lengths, graph.ground, 0.5 * EPS_LENGTH)
        assert scans == []
        want = oracle_jacobi_bellman_ford(graph.lengths, graph.ground, 0.5 * EPS_LENGTH)[1]
        assert want and list(circuits) == want and scans == [1]
        cert = decide_membership(graph)
        passes = []
        assert _cert_bytes(cert) == _oracle_certificate(ch.alpha, np.diag(ch.alpha), passes)
        assert passes == ["plain"] and scans == [1, 1]

    def test_allocations_pass_the_public_check(self):
        # decide_membership and the point query build r without PowerExponents' check
        for _, alpha, d in _oracle_cases():
            ch = ChannelMatrix(alpha)
            assert_allocation_checks(decide_membership(build_graph(ch, d)))
            if np.all(d >= 0):
                assert_allocation_checks(point_in_tin_region(ch, d).certificate)

    def test_clamp_gives_positive_zero(self):
        ch = ChannelMatrix(np.array([[1.0, 0.2, 0.1], [0.3, 1.0, 0.0], [0.0, 0.4, 1.0]]))
        graph = build_graph(ch, [0.1, 0.2, 0.3])
        # users at ground's distance, a residue of -0.0 (-0.0 - 0.0) and one above 0
        for dist, want in (([0.0, -0.0, 1e-17, 0.0], [0.0, 0.0, 0.0]),
                           ([-0.5, -0.5, -0.75, -0.5], [0.0, 0.0, -0.25])):
            r = _feasible(graph, np.array(dist)).r
            assert json.dumps(r.to_jsonable()) == json.dumps(want)
            assert np.array(r.to_jsonable()).tobytes() == np.array(want).tobytes()
        # a member of the potential graph whose users all sit at ground's distance
        cert = recover_power_allocation(ch, [0.0, 0.0, 0.0])
        assert json.dumps(cert.r.to_jsonable()) == "[0.0, 0.0, 0.0]"
