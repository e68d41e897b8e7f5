import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinopt import (
    SILENT,
    ChannelMatrix,
    PowerExponents,
    channel_from_dict,
    check_tin_condition,
    from_link_budget,
    polyhedral_tin_gdof,
    tin_gdof,
    transpose_channel,
)
from tinopt.channel_model import (
    EPS_CONDITION,
    condition_extremes,
    extreme_margins,
    link_exponents,
)
from conftest import EX2_ALPHA, symmetric_two_user
from _oracles import (
    forward_gdof,
    oracle_condition_margins,
    oracle_trial_verdict,
    random_channel,
)


def small_matrices(max_k=4):
    def build(draw):
        K = draw(st.integers(1, max_k))
        vals = draw(
            st.lists(
                st.floats(0.0, 3.0, allow_nan=False, width=32),
                min_size=K * K,
                max_size=K * K,
            )
        )
        return ChannelMatrix(np.array(vals, dtype=float).reshape(K, K))

    return st.composite(build)()


class TestChannelMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ChannelMatrix(np.zeros((2, 3)))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            ChannelMatrix(np.array([[-0.1]]))
        with pytest.raises(ValueError):
            ChannelMatrix(np.array([[np.inf]]))
        with pytest.raises(ValueError):
            ChannelMatrix(np.array([[np.nan]]))

    def test_json_round_trip(self):
        ch = ChannelMatrix(EX2_ALPHA)
        back = channel_from_dict(ch.to_dict(nominal_P=100.0))
        assert np.array_equal(back.alpha, ch.alpha)

    def test_no_users_refused(self):
        with pytest.raises(ValueError, match="^need at least one user$"):
            ChannelMatrix(np.zeros((0, 0)))

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            channel_from_dict({"K": 2, "alpha": [[1.0]]})
        with pytest.raises(ValueError):
            channel_from_dict({"K": 1})


class TestPowerExponents:
    def test_rejects_positive_and_nonfinite(self):
        with pytest.raises(ValueError):
            PowerExponents([0.1])
        with pytest.raises(ValueError):
            PowerExponents([float("-inf")])

    def test_silent_round_trip(self):
        r = PowerExponents([0.0, SILENT, -1.0])
        assert r.is_silent(1) and not r.is_silent(0)
        assert r.to_jsonable() == [0.0, None, -1.0]
        assert repr(SILENT) == "SILENT"
        assert repr(PowerExponents([0.0, SILENT])) == "PowerExponents([0.0, SILENT])"

    def test_silent_pickles_to_the_same_object(self):
        assert pickle.loads(pickle.dumps(SILENT)) is SILENT
        r = pickle.loads(pickle.dumps(PowerExponents([0.0, SILENT])))
        assert r.is_silent(1)


class TestTinGdof:
    def test_single_user_full_exponent(self):
        ch = ChannelMatrix(np.array([[1.0]]))
        assert tin_gdof(ch, PowerExponents([0.0]))[0] == 1.0

    def test_symmetric_half_interference(self):
        # the symmetric two-user curve at cross exponent 0.5 gives 1 - 0.5
        ch = symmetric_two_user(0.5)
        d = tin_gdof(ch, PowerExponents.zeros(2))
        assert np.allclose(d, [0.5, 0.5], atol=0)

    def test_three_user_with_silent_hand_value(self, ex2):
        # user 0: 1 + 0 - max(0, 0.1 - 0.1) = 1; user 1: 1 - 0.1 = 0.9
        r = PowerExponents([0.0, -0.1, SILENT])
        d = tin_gdof(ex2, r)
        assert np.allclose(d, [1.0, 0.9, 0.0], atol=1e-15)

    @pytest.mark.parametrize("P", [1e6, 1e12])
    def test_matches_direct_sinr_exponents(self, ex2, P):
        # evaluate log(1+SINR)/log(P) link by link and compare to the formula
        r = PowerExponents([0.0, -0.1, SILENT])
        expected = tin_gdof(ex2, r)
        a = ex2.alpha
        powers = [P**0.0, P**-0.1, 0.0]
        for i in range(3):
            if r.is_silent(i):
                continue
            sig = P ** a[i, i] * powers[i]
            interf = sum(
                P ** a[i, j] * powers[j] for j in range(3) if j != i
            )
            d_hat = math.log(1 + sig / (1 + interf)) / math.log(P)
            assert abs(d_hat - expected[i]) < 0.4 / math.log10(P)

    def test_dimension_mismatch(self, ex2):
        with pytest.raises(ValueError):
            tin_gdof(ex2, PowerExponents([0.0]))

    def test_bits_match_forward_oracle(self):
        # a silent user is a power far below every exponent for the oracle
        rng = np.random.default_rng(21)
        for K in (1, 2, 3, 5, 10, 30, 100):
            for _ in range(20 if K <= 10 else 3):
                a = random_channel(rng, K)
                a[rng.random((K, K)) < 0.2] = 0.0
                r = -rng.uniform(0.0, 2.0, K)
                r[rng.random(K) < 0.3] = 0.0
                silent = rng.random(K) < 0.25
                ch = ChannelMatrix(a)
                got = tin_gdof(ch, PowerExponents(
                    [SILENT if s else x for s, x in zip(silent, r)]))
                want = forward_gdof(a, np.where(silent, -1e6, r))[0]
                assert got.tobytes() == want.tobytes()
                relaxed = polyhedral_tin_gdof(ch, PowerExponents(r))
                assert relaxed.tobytes() == forward_gdof(a, r, clamp=False)[0].tobytes()

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            K = int(rng.integers(1, 5))
            ch = ChannelMatrix(random_channel(rng, K))
            r = PowerExponents(-rng.uniform(0, 3, K))
            assert np.all(tin_gdof(ch, r) >= 0)

    def test_plain_list_same_bytes_as_power_exponents(self):
        # a list ended in AttributeError: 'list' object has no attribute 'finite_mask'
        rng = np.random.default_rng(43)
        for K in (1, 2, 3, 5, 10):
            ch = ChannelMatrix(random_channel(rng, K))
            r = [float(x) for x in -rng.uniform(0, 2, K)]
            with_silent = [SILENT if s else x for s, x in zip(rng.random(K) < 0.3, r)]
            for values in (with_silent, r, tuple(r)):
                assert tin_gdof(ch, values).tobytes() == \
                    tin_gdof(ch, PowerExponents(values)).tobytes()
            assert polyhedral_tin_gdof(ch, r).tobytes() == \
                polyhedral_tin_gdof(ch, PowerExponents(r)).tobytes()
            with pytest.raises(ValueError, match="SILENT"):
                polyhedral_tin_gdof(ch, r[:-1] + [SILENT])
            with pytest.raises(ValueError, match="must be <= 0"):
                tin_gdof(ch, [0.5] + r[1:])


class TestPolyhedralGdof:
    def test_single_user_negative_allowed(self):
        ch = ChannelMatrix(np.array([[1.0]]))
        d = polyhedral_tin_gdof(ch, PowerExponents([-1.5]))
        assert d[0] == pytest.approx(-0.5, abs=0)

    def test_matches_clamped_when_interference_inactive(self):
        ch = symmetric_two_user(0.5)
        r = PowerExponents.zeros(2)
        assert np.allclose(polyhedral_tin_gdof(ch, r), [0.5, 0.5])

    def test_silent_rejected(self, ex2):
        with pytest.raises(ValueError):
            polyhedral_tin_gdof(ex2, PowerExponents([0.0, SILENT, 0.0]))

    def test_dominated_by_clamped_formula(self):
        # relaxed value never exceeds the clamped one, over many draws
        rng = np.random.default_rng(11)
        for _ in range(1000):
            K = int(rng.integers(1, 5))
            ch = ChannelMatrix(random_channel(rng, K))
            r = PowerExponents(-rng.uniform(0, 3, K))
            relaxed = polyhedral_tin_gdof(ch, r)
            clamped = tin_gdof(ch, r)
            assert np.all(relaxed <= clamped + 1e-12)
            eq = relaxed >= 0
            assert np.allclose(relaxed[eq], clamped[eq])


class TestCondition:
    def test_interference_free_passes(self):
        ch = ChannelMatrix(np.diag([0.5, 1.0, 2.0]))
        rep = check_tin_condition(ch)
        assert rep.overall and all(rep.per_user)

    def test_single_user_vacuous(self):
        assert check_tin_condition(ChannelMatrix(np.array([[0.0]]))).overall

    def test_example_fails_only_last_user(self, ex2):
        rep = check_tin_condition(ex2)
        assert rep.per_user == (True, True, False)
        assert not rep.overall
        assert rep.margins[2] == pytest.approx(-0.5)

    @pytest.mark.parametrize(
        "a,expected", [(0.0, True), (0.3, True), (0.5, True), (0.51, False), (0.9, False)]
    )
    def test_symmetric_threshold_at_half(self, a, expected):
        assert check_tin_condition(symmetric_two_user(a)).overall is expected

    def test_margins_bit_equal_to_loop_oracle(self):
        rng = np.random.default_rng(17)
        for K in (1, 2, 3, 4, 7, 12, 40):
            for _ in range(12):
                a = random_channel(rng, K)
                a[rng.random((K, K)) < 0.3] = 0.0
                if K > 1:
                    a[-1, :-1] = a[-1, 0]  # tied strongest entries
                rep = check_tin_condition(ChannelMatrix(a))
                want = oracle_condition_margins(a)
                assert np.array(rep.margins).tobytes() == np.array(want).tobytes()
                assert rep.per_user == tuple(m >= -1e-9 for m in want)
                assert rep.overall == all(rep.per_user)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            ch = ChannelMatrix(random_channel(rng, int(rng.integers(1, 5))))
            rep = check_tin_condition(ch)
            if min(abs(m) for m in rep.margins) < 1e-6:
                continue  # verdicts inside the tolerance band may flip
            for c in (0.25, 3.0, 17.0):
                scaled = check_tin_condition(ChannelMatrix(c * ch.alpha))
                assert scaled.per_user == rep.per_user


class TestTranspose:
    def test_symmetric_fixed_point(self):
        ch = symmetric_two_user(0.3)
        assert np.array_equal(transpose_channel(ch).alpha, ch.alpha)

    def test_example_verdict_preserved(self, ex2):
        a = check_tin_condition(ex2)
        b = check_tin_condition(transpose_channel(ex2))
        assert a.per_user == b.per_user and a.overall == b.overall

    @settings(max_examples=50, deadline=None)
    @given(small_matrices())
    def test_involution(self, ch):
        assert np.array_equal(transpose_channel(transpose_channel(ch)).alpha, ch.alpha)

    @settings(max_examples=50, deadline=None)
    @given(small_matrices())
    def test_condition_duality(self, ch):
        a = check_tin_condition(ch)
        b = check_tin_condition(transpose_channel(ch))
        assert a.overall == b.overall and a.per_user == b.per_user


class TestFromLinkBudget:
    def test_reference_power_maps_to_unit_exponent(self):
        P = 1e4
        ch = from_link_budget([P], [[1.0]], P)
        assert ch.alpha[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_clipping_below_one(self):
        ch = from_link_budget([0.3, 2.0], [[1.0, 0.1], [0.5, 1.0]], 10.0)
        assert ch.alpha[0, 0] == 0.0
        assert ch.alpha[0, 1] == 0.0
        assert ch.alpha[1, 0] == 0.0

    def test_half_exponent_cross_link(self):
        ch = from_link_budget([1e4, 1e4], [[1.0, 1.0], [1e2, 1.0]], 1e4)
        assert ch.alpha[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert ch.alpha[1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_round_trip_reproduces_clipped_values(self):
        rng = np.random.default_rng(5)
        P = 31.7
        snr = rng.uniform(0.2, 1e4, 3)
        inr = rng.uniform(0.2, 1e3, (3, 3))
        ch = from_link_budget(snr, inr, P)
        for k in range(3):
            for i in range(3):
                v = snr[k] if k == i else inr[k, i]
                assert P ** ch.alpha[k, i] == pytest.approx(
                    max(1.0, v), rel=1e-12
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            from_link_budget([1.0], [[1.0]], 1.0)
        with pytest.raises(ValueError):
            from_link_budget([-1.0], [[1.0]], 10.0)
        with pytest.raises(ValueError):
            from_link_budget([1.0, 1.0], [[1.0, -2.0], [1.0, 1.0]], 10.0)
        with pytest.raises(ValueError, match="finite"):
            from_link_budget([1.0, 1.0], [[1.0, math.nan], [1.0, 1.0]], 10.0)
        for inr in ([[1.0]], [1.0, 1.0], [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]):
            with pytest.raises(ValueError, match=r"^inr must be 2x2, got \("):
                from_link_budget([10.0, 10.0], inr, 10.0)

    @pytest.mark.parametrize("snr", [5.0, [[1.0]]])
    def test_snr_that_is_not_a_vector_refused(self, snr):
        # a scalar raised IndexError ("tuple index out of range") before the check
        with pytest.raises(ValueError, match="^snr must be a vector$"):
            from_link_budget(snr, [[1.0]], 10.0)

    @pytest.mark.parametrize("P", [math.inf, math.nan])
    def test_non_finite_power_refused(self, P):
        # an infinite power gave an all-zero channel
        with pytest.raises(ValueError, match="^nominal_P must be finite and exceed 1"):
            from_link_budget([10.0, 10.0], [[1.0, 2.0], [2.0, 1.0]], P)

    @pytest.mark.parametrize("P", ["100", True, 1 + 2j, None])
    def test_power_that_is_not_real_refused(self, P):
        # "100" passed float(); complex and None raised TypeError
        with pytest.raises(ValueError, match="^nominal_P must be a real number"):
            from_link_budget([10.0, 10.0], [[1.0, 2.0], [2.0, 1.0]], P)


def reduced_margins(y, nominal_P):
    """The Monte-Carlo path: each user's extremes taken on gains in dB over 10,
    then 3K powers of 10 and 3K logarithms per matrix."""
    gains = np.power(10.0, condition_extremes(y))
    return extreme_margins(link_exponents(gains, nominal_P))


def full_margins(y, nominal_P):
    """``sample_network``'s path: every gain raised, every exponent taken."""
    return extreme_margins(condition_extremes(link_exponents(np.power(10.0, y), nominal_P)))


@st.composite
def stacked_exponents(draw):
    """``(n, K, K)`` gains in dB over 10 over -100..100, so gains 1e-100..1e100,
    drawn from a few levels so that the maximum of a row or column often ties
    with other entries; levels below 0 (gains below 1) are clipped, and 0 is
    a level half the time.  ``nominal_P`` is one value or one per matrix."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    levels = draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=4))
    if draw(st.booleans()):
        levels.append(draw(st.sampled_from([0.0, -0.0])))
    picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n * K * K,
                          max_size=n * K * K))
    y = np.array(levels)[picks].reshape(n, K, K)
    per_matrix = st.lists(st.floats(2.0, 1e100), min_size=n, max_size=n).map(np.array)
    nominal_P = draw(st.floats(2.0, 1e100) | per_matrix)
    return y, nominal_P


class TestConditionExtremes:
    """The extremes the condition reads, taken on exponents before any power of 10."""

    @settings(max_examples=300, deadline=None)
    @given(stacked_exponents())
    def test_bit_equal_to_full_exponent_matrices(self, case):
        y, nominal_P = case
        got = reduced_margins(y, nominal_P)
        want = full_margins(y, nominal_P)
        assert got.shape == y.shape[:2]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        P = np.broadcast_to(nominal_P, y.shape[:1])
        for g, p, m in zip(np.power(10.0, y), P, got):
            assert bool(np.all(m >= -EPS_CONDITION)) == oracle_trial_verdict(g, float(p))

    def test_single_user(self):
        # gains 10**-0.3 (clipped to 1) and 10**6
        assert reduced_margins(np.array([[[-0.3]], [[6.0]]]), 1e3).tolist() == [[0.0], [2.0]]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_bad_gain_off_the_extremes_raises(self, bad):
        # entry [1][2] is neither its row's nor its column's largest cross
        # exponent, but an infinite one is, and NaN propagates through both
        y = np.array([[[4.0, 1.7, 1.6],
                       [1.8, 4.0, 0.3],
                       [1.5, 1.9, 4.0]]] * 2)
        y[1, 1, 2] = bad
        with pytest.raises(ValueError):
            reduced_margins(y, 1e4)
        with pytest.raises(ValueError):
            full_margins(y, 1e4)

    def test_vanishing_gain_off_the_extremes_is_clipped(self):
        # a gain of 0 (y = -inf) is refused by the full path but, off the
        # extremes, never reaches a logarithm on the reduced one; the accepted
        # radii and spreads keep every gain above about 1e-130 (README, "Cellular
        # Monte-Carlo"), and a gain below 1 counts as 1 either way
        y = np.array([[[4.0, 1.7, 1.6],
                       [1.8, 4.0, -math.inf],
                       [1.5, 1.9, 4.0]]])
        clipped = np.where(np.isinf(y), 0.0, y)
        assert reduced_margins(y, 1e4).tolist() == full_margins(clipped, 1e4).tolist()
        with pytest.raises(ValueError):
            full_margins(y, 1e4)
