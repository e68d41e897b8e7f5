import math

import numpy as np
import pytest

from tinopt import (
    ChannelMatrix,
    FiniteSnrChannel,
    PowerExponents,
    SILENT,
    cyclic_quantities,
    gap_certificate,
    gdof_limit_checks,
    max_weighted_gdof,
    polyhedral_region,
    rate_outer_bounds,
    recover_power_allocation,
    tin_gdof,
    tin_rates,
)
from conftest import EX2_ALPHA, symmetric_two_user
from _oracles import random_condition_channel


def dense_condition_channel(rng, K):
    """Condition-satisfying with every cross exponent bounded away from 0.

    Zero cross links make the normalized outer bounds converge only like
    1/log2(P); this family keeps the finite-P error small at 1e8.
    """
    a = rng.uniform(0.15, 0.25, (K, K))
    np.fill_diagonal(a, rng.uniform(0.95, 1.05, K))
    return ChannelMatrix(a)


class TestCyclicQuantities:
    def test_no_interference_closed_forms(self):
        ch = FiniteSnrChannel(ChannelMatrix(np.diag([1.0, 0.5])), 100.0)
        q = cyclic_quantities(ch, (0, 1))
        snr = np.array([100.0, 10.0])
        assert np.allclose(q.kappa, np.log2(2 + snr / 2))
        assert np.allclose(q.beta, np.log2((1 + snr) / 2))
        assert np.allclose(q.mu, [1.0, 1.0])
        assert np.allclose(q.gamma, np.log2(2 + snr))
        assert np.allclose(q.lam, np.log2(1 + snr))

    def test_symmetric_half_cross_value(self):
        # kappa = log2(1 + 1e2 + 1e4/(1+1e2)) ~ 7.65 bits
        ch = FiniteSnrChannel(symmetric_two_user(0.5), 1e4)
        q = cyclic_quantities(ch, (0, 1))
        expected = math.log2(1 + 1e2 + 1e4 / (1 + 1e2))
        assert q.kappa[0] == pytest.approx(expected, rel=1e-12)
        assert q.kappa[1] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.65, abs=0.01)

    def test_invariants_random(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            K = int(rng.integers(2, 5))
            a = rng.uniform(0, 1.5, (K, K))
            np.fill_diagonal(a, rng.uniform(0.2, 2.0, K))
            ch = FiniteSnrChannel(ChannelMatrix(a), float(rng.uniform(2, 1e6)))
            m = int(rng.integers(2, K + 1))
            cycle = tuple(rng.permutation(K)[:m])
            q = cyclic_quantities(ch, cycle)
            assert np.all(q.beta <= q.lam + 1e-12)
            for arr in (q.kappa, q.gamma, q.lam, q.mu):
                assert np.all(arr >= -1e-12)
            assert np.all(np.isfinite(q.rho))

    def test_rho_definition(self):
        ch = FiniteSnrChannel(ChannelMatrix(EX2_ALPHA), 1e3)
        q = cyclic_quantities(ch, (0, 1, 2))
        for j in range(3):
            rest = sum(q.kappa[t] for t in range(3) if t not in (j, (j - 1) % 3))
            assert q.rho[j] == pytest.approx(q.beta[(j - 1) % 3] + q.gamma[j] + rest)

    def test_rejects_bad_cycles(self):
        ch = FiniteSnrChannel(ChannelMatrix(EX2_ALPHA), 10.0)
        with pytest.raises(ValueError):
            cyclic_quantities(ch, (0,))
        with pytest.raises(ValueError):
            cyclic_quantities(ch, (0, 0))
        with pytest.raises(ValueError):
            cyclic_quantities(ch, (0, 5))

    def test_power_must_exceed_one(self):
        with pytest.raises(ValueError):
            FiniteSnrChannel(ChannelMatrix(EX2_ALPHA), 1.0)

    def test_power_must_be_finite(self):
        with pytest.raises(ValueError):
            FiniteSnrChannel(ChannelMatrix(EX2_ALPHA), math.inf)


class TestGdofLimits:
    def test_interference_free_limit_is_direct_sum(self):
        ch = ChannelMatrix(np.diag([0.8, 0.6]))
        rep = gdof_limit_checks(ch, (0, 1), [1e2, 1e4, 1e8])
        assert rep.kappa_sum_limit == pytest.approx(1.4)
        assert rep.monotone

    def test_example_pair_limit(self):
        # users {0,1} of the three-user example satisfy the condition; the
        # cycle bound is 1.9 and convergence is monotone (zero cross links
        # cap the rate at ~1/log2 P, so the residual stays visible at 1e8)
        sub = ChannelMatrix(EX2_ALPHA[np.ix_([0, 1], [0, 1])])
        rep = gdof_limit_checks(sub, (0, 1), [1e2, 1e4, 1e8])
        assert rep.kappa_sum_limit == pytest.approx(1.9, abs=1e-12)
        assert rep.monotone
        assert rep.kappa_sum_errors[-1] < 0.05

    def test_dense_family_converges_under_tolerance(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            K = int(rng.integers(2, 5))
            ch = dense_condition_channel(rng, K)
            m = int(rng.integers(2, K + 1))
            cycle = tuple(rng.permutation(K)[:m])
            rep = gdof_limit_checks(ch, cycle, [1e2, 1e4, 1e8])
            assert rep.converged(0.02), (ch.alpha, cycle, rep)

    def test_rho_limits_match_definition(self):
        rng = np.random.default_rng(71)
        ch = dense_condition_channel(rng, 3)
        rep = gdof_limit_checks(ch, (0, 1, 2), [1e4, 1e8])
        a = ch.alpha
        seq = rep.cycle
        for k in range(3):
            expected = a[seq[k], seq[k]] + sum(
                a[seq[j], seq[j]] - a[seq[j - 1], seq[j]] for j in range(3) if j != k
            )
            assert rep.rho_limits[k] == pytest.approx(expected)

    def test_condition_required(self, ex2):
        with pytest.raises(ValueError):
            gdof_limit_checks(ex2, (0, 1, 2), [1e2, 1e4])

    def test_powers_must_increase(self):
        ch = ChannelMatrix(np.diag([1.0, 1.0]))
        with pytest.raises(ValueError):
            gdof_limit_checks(ch, (0, 1), [1e4, 1e2])

    def test_collapse_identity_under_condition(self):
        # max{0, cross-out, direct - cross-in} equals direct - cross-in
        rng = np.random.default_rng(73)
        for _ in range(50):
            K = int(rng.integers(2, 5))
            a = random_condition_channel(rng, K)
            for seq in [tuple(rng.permutation(K))]:
                m = len(seq)
                for j in range(m):
                    out = a[seq[j], seq[(j + 1) % m]]
                    direct = a[seq[j], seq[j]] - a[seq[j - 1], seq[j]]
                    assert max(0.0, out, direct) == pytest.approx(direct)


class TestTinRates:
    def test_single_user_value(self):
        ch = FiniteSnrChannel(ChannelMatrix(np.array([[1.0]])), 100.0)
        r = tin_rates(ch, PowerExponents([0.0]))
        assert r[0] == pytest.approx(math.log2(101), rel=1e-12)

    def test_silent_user_zero_rate_and_interference(self, ex2):
        ch = FiniteSnrChannel(ex2, 1e4)
        rates = tin_rates(ch, PowerExponents([0.0, -0.1, SILENT]))
        assert rates[2] == 0.0
        # receiver 1: transmitter 2 is off, transmitter 0 arrives at the
        # noise floor (exponent 0 still contributes unit power)
        expected = math.log2(1 + 1e4 ** 0.9 / 2)
        assert rates[1] == pytest.approx(expected, rel=1e-12)

    def test_lower_bound_from_recovered_powers(self):
        rng = np.random.default_rng(79)
        for _ in range(40):
            K = int(rng.integers(2, 5))
            alpha = ChannelMatrix(random_condition_channel(rng, K))
            value, d = max_weighted_gdof(
                polyhedral_region(alpha), rng.uniform(0.2, 1.0, K)
            )
            d = np.maximum(d, 0) * (1 - 1e-9)
            cert = recover_power_allocation(alpha, d)
            assert cert.feasible
            for P in (1e2, 1e4):
                ch = FiniteSnrChannel(alpha, P)
                rates = tin_rates(ch, cert.r)
                floor = d * math.log2(P) - math.log2(K)
                assert np.all(rates >= floor - 1e-9)

    def test_gdof_consistency_as_power_grows(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            K = int(rng.integers(2, 5))
            alpha = ChannelMatrix(random_condition_channel(rng, K))
            r = PowerExponents(-rng.uniform(0, 1, K))
            target = tin_gdof(alpha, r)
            errs = []
            for P in (1e2, 1e4, 1e8):
                rates = tin_rates(FiniteSnrChannel(alpha, P), r)
                errs.append(np.max(np.abs(rates / math.log2(P) - target)))
            assert errs[2] <= errs[0] + 1e-12
            assert errs[2] < 0.05


class TestRateOuterBounds:
    def test_exact_below_linearized_under_condition(self):
        # the cycle linearization drops terms only dominated when the
        # optimality condition holds, so the sandwich is tested there
        rng = np.random.default_rng(89)
        for _ in range(20):
            K = int(rng.integers(1, 5))
            alpha = random_condition_channel(rng, K) if K > 1 else np.array([[1.0]])
            ch = FiniteSnrChannel(ChannelMatrix(alpha), float(rng.uniform(2, 1e6)))
            ob = rate_outer_bounds(ch)
            assert ob.condition_holds
            for bound in ob.user_bounds + ob.cycle_bounds:
                assert bound.exact_bits <= bound.linear_bits + 1e-9

    def test_single_user_exact_form(self):
        ch = FiniteSnrChannel(ChannelMatrix(np.array([[1.0]])), 1e4)
        ob = rate_outer_bounds(ch)
        assert ob.user_bounds[0].exact_bits == pytest.approx(math.log2(1 + 1e4))
        assert ob.cycle_bounds == ()

    def test_cycle_linearized_form(self, ex2):
        P = 1e3
        ob = rate_outer_bounds(FiniteSnrChannel(ex2, P))
        by_seq = {b.users: b for b in ob.cycle_bounds}
        rhs = {(0, 1): 1.9, (0, 2): 1.1, (1, 2): 1.4, (0, 1, 2): 1.4, (0, 2, 1): 3.0}
        for seq, r in rhs.items():
            m = len(seq)
            expected = r * math.log2(P) + m * math.log2(3)
            assert by_seq[seq].linear_bits == pytest.approx(expected, rel=1e-12)
        assert not ob.condition_holds


class TestGapCertificate:
    def test_analytic_sigmas_three_users(self):
        rng = np.random.default_rng(97)
        alpha = ChannelMatrix(random_condition_channel(rng, 3))
        d = 0.4 * np.diag(alpha.alpha)
        report = gap_certificate(FiniteSnrChannel(alpha, 1e4), d)
        users = [r for r in report.rows if r.kind == "user"]
        cycles = [r for r in report.rows if r.kind == "cycle"]
        for row in users:
            assert row.analytic_sigma == pytest.approx(1 + math.log2(3), abs=1e-12)
            assert row.analytic_sigma < math.log2(9)
        for row in cycles:
            m = len(row.users)
            assert row.analytic_sigma == pytest.approx(m * math.log2(9), abs=1e-12)

    def test_single_user_empirical_gap_below_one_bit(self):
        alpha = ChannelMatrix(np.array([[1.0]]))
        for P in (1e2, 1e4):
            report = gap_certificate(FiniteSnrChannel(alpha, P), [1.0])
            row = report.rows[0]
            assert row.tight
            assert row.analytic_sigma == pytest.approx(1.0)  # 1 + log2(1)
            assert row.empirical_sigma <= 1.0
            assert row.empirical_sigma >= 0.0

    def test_tight_rows_within_analytic_sigma(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            K = int(rng.integers(2, 5))
            alpha = ChannelMatrix(random_condition_channel(rng, K))
            value, d = max_weighted_gdof(
                polyhedral_region(alpha), rng.uniform(0.2, 1.0, K)
            )
            d = np.maximum(d, 0) * (1 - 1e-9)
            P = float(rng.choice([1e2, 1e4, 1e6]))
            report = gap_certificate(FiniteSnrChannel(alpha, P), d, tight_tol=1e-6)
            tight = [r for r in report.rows if r.tight]
            assert tight, "optimum must saturate some constraint"
            for row in tight:
                assert row.empirical_sigma <= row.analytic_sigma + 1e-6

    def test_sandwich_inner_outer(self):
        rng = np.random.default_rng(103)
        alpha = ChannelMatrix(random_condition_channel(rng, 3))
        d = 0.5 * np.diag(alpha.alpha)
        report = gap_certificate(FiniteSnrChannel(alpha, 1e4), d)
        for row in report.rows:
            assert row.outer_exact <= row.outer_linear + 1e-9
            assert row.outer_linear - row.inner_linear == pytest.approx(
                row.analytic_sigma, abs=1e-9
            )

    def test_condition_required(self, ex2):
        with pytest.raises(ValueError):
            gap_certificate(FiniteSnrChannel(ex2, 100.0), [0.1, 0.1, 0.1])

    def test_infeasible_point_rejected(self):
        alpha = symmetric_two_user(0.3)
        with pytest.raises(ValueError):
            gap_certificate(FiniteSnrChannel(alpha, 100.0), [1.0, 1.0])

    def test_csv_rows_shape(self):
        alpha = symmetric_two_user(0.2)
        report = gap_certificate(FiniteSnrChannel(alpha, 100.0), [0.5, 0.5])
        rows = report.csv_rows("inst0")
        assert len(rows) == 2 + 1  # two users, one 2-cycle
        assert set(rows[0]) == {
            "instance_id",
            "constraint_type",
            "users",
            "P",
            "analytic_sigma",
            "empirical_sigma",
            "bound_bits",
            "achieved_bits",
        }
