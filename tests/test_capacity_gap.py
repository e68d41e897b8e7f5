import ast
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tinopt import (
    ChannelMatrix,
    FiniteSnrChannel,
    PowerExponents,
    SILENT,
    check_tin_condition,
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
from tinopt import capacity_gap, potential_graph
from tinopt.capacity_gap import GAP_CSV_HEADER, ConstraintGap, RateBound
from tinopt.cli import main
from conftest import EX2_ALPHA, symmetric_two_user
from _oracles import (
    oracle_cycle_kappa,
    oracle_cycles,
    oracle_gap_rows,
    oracle_tin_rates,
    oracle_user_bound,
    random_channel,
    random_condition_channel,
)


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
        # bit for bit the per-position loop: beta before, gamma at, then the
        # kappa of every other position added from 0 in position order
        rng = np.random.default_rng(71)
        cases = [(EX2_ALPHA, 1e3, (0, 1, 2))]
        for m in range(2, 10):
            for trial in range(12):
                K = m + trial % 3
                alpha = random_channel(rng, K) * 10.0 ** rng.uniform(-2, 2)
                cycle = tuple(int(u) for u in rng.permutation(K)[:m])
                cases.append((alpha, float(10.0 ** rng.uniform(0.5, 12)), cycle))
        for alpha, P, cycle in cases:
            q = cyclic_quantities(FiniteSnrChannel(ChannelMatrix(alpha), P), cycle)
            m = len(cycle)
            for j in range(m):
                rest = sum(q.kappa[t] for t in range(m) if t not in (j, (j - 1) % m))
                want = q.beta[(j - 1) % m] + q.gamma[j] + rest
                assert np.float64(q.rho[j]).tobytes() == np.float64(want).tobytes(), (alpha, cycle)

    def test_rejects_bad_cycles(self):
        ch = FiniteSnrChannel(ChannelMatrix(EX2_ALPHA), 10.0)
        with pytest.raises(ValueError):
            cyclic_quantities(ch, (0,))
        with pytest.raises(ValueError):
            cyclic_quantities(ch, (0, 0))
        with pytest.raises(ValueError):
            cyclic_quantities(ch, (0, 5))
        for cycle in [(0.9, True), (0.5, 1.2), "01", (0, 1.0)]:  # were truncated by int()
            with pytest.raises(ValueError, match="^cycle must be nonempty integer user indices"):
                cyclic_quantities(ch, cycle)
        assert cyclic_quantities(ch, np.array([2, 0])).cycle == (2, 0)

    def test_power_must_exceed_one(self):
        with pytest.raises(ValueError):
            FiniteSnrChannel(ChannelMatrix(EX2_ALPHA), 1.0)

    def test_power_must_be_finite(self):
        with pytest.raises(ValueError):
            FiniteSnrChannel(ChannelMatrix(EX2_ALPHA), math.inf)

    @pytest.mark.parametrize("P", ["100", True, 1 + 2j, None])
    def test_power_must_be_real(self, P):
        # "100" was kept as a string and failed later in log2P; complex and None raised TypeError
        with pytest.raises(ValueError, match="^nominal power must be a real number"):
            FiniteSnrChannel(ChannelMatrix(EX2_ALPHA), P)
        with pytest.raises(ValueError, match="^powers must be a real number"):
            gdof_limit_checks(ChannelMatrix(np.diag([1.0, 1.0])), (0, 1), [1e2, P])

    def test_power_stored_as_float(self):
        ch = FiniteSnrChannel(ChannelMatrix(EX2_ALPHA), np.float32(100))
        assert type(ch.power) is float and ch.power == 100.0


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

    def test_condition_decided_before_any_term(self, ex2, monkeypatch):
        def no_work(*args):
            raise AssertionError("terms computed")

        monkeypatch.setattr(capacity_gap, "_cycle_terms", no_work)
        with pytest.raises(capacity_gap.ConditionNotMetError):
            gdof_limit_checks(ex2, (0, 1, 2), [1e2, 1e4])

    def test_empty_powers_refused_before_work(self, monkeypatch):
        # raised IndexError after computing every quantity
        def no_work(*args):
            raise AssertionError("quantities computed")

        monkeypatch.setattr(capacity_gap, "_cycle_terms", no_work)
        with pytest.raises(ValueError, match="^powers must not be empty"):
            gdof_limit_checks(ChannelMatrix(np.diag([1.0, 1.0])), (0, 1), [])

    def test_cycle_checked_first_and_once(self, ex2, monkeypatch):
        ch = ChannelMatrix(np.diag([1.0, 1.0, 1.0]))
        for cycle in [(0.5, 1.2), "21", (True, 0), (0, 9), (1, 1), (0,), ()]:
            with pytest.raises(ValueError, match="cycle"):  # before the empty powers
                gdof_limit_checks(ch, cycle, [])
        with pytest.raises(ValueError, match="^powers"):  # before the verdict
            gdof_limit_checks(ex2, (0, 1), [])
        calls = []
        check = capacity_gap._cycle_users
        monkeypatch.setattr(capacity_gap, "_cycle_users", lambda *a: calls.append(a) or check(*a))
        assert gdof_limit_checks(ch, (np.int64(2), 1), [1e2, 1e4, 1e8]).cycle == (1, 2)
        assert len(calls) == 1

    def test_powers_must_increase(self):
        ch = ChannelMatrix(np.diag([1.0, 1.0]))
        with pytest.raises(ValueError):
            gdof_limit_checks(ch, (0, 1), [1e4, 1e2])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1.0, -math.inf])
    def test_each_power_checked(self, bad):
        # an infinite power passed the old check and was refused as a "nominal power"
        ch = ChannelMatrix(np.diag([1.0, 1.0]))
        with pytest.raises(ValueError, match="^powers must be finite and exceed 1"):
            gdof_limit_checks(ch, (0, 1), [1e2, bad])

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

    def test_bit_equal_to_the_scalar_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(600):
            K = int(rng.integers(1, 9))
            alpha = random_channel(rng, K)
            r = [None if rng.random() < 0.2 else float(-rng.uniform(0, 1)) for _ in range(K)]
            P = 10.0 ** rng.uniform(0.5, 12)
            rates = tin_rates(FiniteSnrChannel(ChannelMatrix(alpha), P),
                              PowerExponents([SILENT if x is None else x for x in r]))
            assert rates.tolist() == oracle_tin_rates(alpha, P, r).tolist()
    def test_plain_list_same_bytes_as_power_exponents(self):
        # a list ended in AttributeError: 'list' object has no attribute 'finite_mask'
        rng = np.random.default_rng(31)
        for K in (1, 2, 4, 8):
            ch = FiniteSnrChannel(ChannelMatrix(random_channel(rng, K)), 1e4)
            r = [SILENT if rng.random() < 0.3 else float(-rng.uniform(0, 1)) for _ in range(K)]
            assert tin_rates(ch, r).tobytes() == tin_rates(ch, PowerExponents(r)).tobytes()


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


class TestCycleBoundsOracle:
    @pytest.mark.parametrize("K", range(2, 9))
    def test_bit_equal_to_per_cycle_loop(self, K):
        rng = np.random.default_rng(400 + K)
        for alpha in (random_channel(rng, K), random_condition_channel(rng, K)):
            seqs = oracle_cycles(range(K))
            # the origin, and a weighted-sum optimum, so that some rows are tight
            points = [np.zeros(K)]
            if check_tin_condition(ChannelMatrix(alpha)).overall:
                points.append(max_weighted_gdof(polyhedral_region(ChannelMatrix(alpha)),
                                                rng.uniform(0.2, 1.0, K))[1])
            for P in (1e2, 1e4, 1e8):
                fch = FiniteSnrChannel(ChannelMatrix(alpha), P)
                ob = rate_outer_bounds(fch)
                assert [b.users for b in ob.user_bounds] == [(i,) for i in range(K)]
                assert [b.users for b in ob.cycle_bounds] == seqs
                want = [oracle_user_bound(alpha, P, i) for i in range(K)] + [
                    oracle_cycle_kappa(alpha, P, seq) for seq in seqs]
                bounds = ob.user_bounds + ob.cycle_bounds
                assert [(b.exact_bits, b.linear_bits) for b in bounds] == want
                if not ob.condition_holds:
                    continue
                for d in points:  # the certificate's rows carry the same bounds, and the rest
                    report = gap_certificate(fch, d)
                    rows = report.rows
                    assert [r.users for r in rows] == [b.users for b in bounds]
                    assert [(r.outer_exact, r.outer_linear) for r in rows] == want
                    oracle = oracle_gap_rows(alpha, P, d, list(report.r.values), want)
                    assert [tuple(r) for r in rows] == oracle
                    assert all(type(r.tight) is bool for r in rows)

    def test_record_fields_in_their_order(self):
        assert RateBound._fields == ("kind", "users", "exact_bits", "linear_bits")
        assert ConstraintGap._fields == (
            "kind", "users", "outer_exact", "outer_linear", "inner_linear", "achieved_bits",
            "analytic_sigma", "empirical_sigma", "tight")
        row = ConstraintGap("user", (0,), 1.0, 2.0, 0.5, 0.75, 3.0, 0.25, False)
        assert repr(row) == (
            "ConstraintGap(kind='user', users=(0,), outer_exact=1.0, outer_linear=2.0, "
            "inner_linear=0.5, achieved_bits=0.75, analytic_sigma=3.0, empirical_sigma=0.25, "
            "tight=False)")
        assert row == ("user", (0,), 1.0, 2.0, 0.5, 0.75, 3.0, 0.25, False)
        assert hash(row) == hash(tuple(row))


class TestCycleSystem:
    """The gap layer reads the cycle system of ``potential_graph``, and nothing of ``region``."""

    def test_one_gather_per_cycle_block(self, monkeypatch):
        gather = potential_graph._cycle_arcs
        shapes = []
        for module in list(sys.modules.values()):  # every binding of the gather
            if module.__name__.startswith("tinopt") and \
                    getattr(module, "_cycle_arcs", None) is gather:
                monkeypatch.setattr(module, "_cycle_arcs",
                                    lambda a, C: shapes.append(C.shape) or gather(a, C))
        alpha = random_condition_channel(np.random.default_rng(83), 5)
        fch = FiniteSnrChannel(ChannelMatrix(alpha), 1e4)
        for call in (lambda: rate_outer_bounds(fch),
                     lambda: gap_certificate(fch, 0.2 * np.diag(alpha))):
            shapes.clear()
            call()
            assert shapes == [(10, 2), (20, 3), (30, 4), (24, 5)]  # the four blocks, once each

    @pytest.mark.parametrize("K", range(2, 8))
    def test_kappa_terms_are_the_kappa_of_cycle_terms(self, K):
        rng = np.random.default_rng(700 + K)
        for alpha in (random_channel(rng, K), random_condition_channel(rng, K)):
            for C in potential_graph.cycle_blocks(range(K)):
                # every row at one power, and the first row at a column of powers
                for L, rows in ((math.log2(1e2), C), (math.log2(1e8), C),
                                (np.log2([[1e2], [1e4], [1e8]]), C[:1])):
                    arcs = potential_graph._cycle_arcs(alpha, rows)
                    kappa = capacity_gap._kappa_terms(L, *arcs)[0]
                    assert kappa.tobytes() == capacity_gap._cycle_terms(L, *arcs)[0].tobytes()

    def test_outer_bounds_compute_only_kappa(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("beta, gamma and lam computed")

        alpha = random_condition_channel(np.random.default_rng(84), 5)
        fch = FiniteSnrChannel(ChannelMatrix(alpha), 1e4)
        want = (rate_outer_bounds(fch), gap_certificate(fch, 0.2 * np.diag(alpha)))
        monkeypatch.setattr(capacity_gap, "_cycle_terms", no_work)
        assert (rate_outer_bounds(fch), gap_certificate(fch, 0.2 * np.diag(alpha))) == want

    def test_gap_layer_imports_nothing_from_region(self):
        tree = ast.parse(Path(capacity_gap.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert all(name.split(".")[-1] != "region" for name in names), ast.dump(node)


class TestGdofLimitsFixtures:
    """``gdof-limits`` on a channel that fails the condition (the committed limits files are
    compared in ``tests/test_cli.py``)."""

    def test_example_fails_the_condition(self, tmp_path):
        # ex2 fails the optimality condition, so there is no JSON to pin
        path = tmp_path / "ex2.json"
        path.write_text(json.dumps(ChannelMatrix(EX2_ALPHA).to_dict()))
        result = CliRunner().invoke(main, ["gdof-limits", str(path), "--cycle", "0,1,2"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: limit identities require the optimality condition\n"


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
            report = gap_certificate(FiniteSnrChannel(alpha, P), d)
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
        with pytest.raises(capacity_gap.ConditionNotMetError):
            gap_certificate(FiniteSnrChannel(ex2, 100.0), [0.1, 0.1, 0.1])

    def test_infeasible_point_rejected(self):
        alpha = symmetric_two_user(0.3)
        with pytest.raises(capacity_gap.PointOutsideRegionError,
                           match=r"^point is outside the all-active region: sum over users"):
            gap_certificate(FiniteSnrChannel(alpha, 100.0), [1.0, 1.0])

    def test_verdicts_keep_their_base_classes(self):
        assert issubclass(capacity_gap.ConditionNotMetError, ValueError)
        assert issubclass(capacity_gap.PointOutsideRegionError, ValueError)
        assert issubclass(capacity_gap.CertificateViolatedError, ArithmeticError)

    def test_refusals_and_verdicts_come_before_any_bound(self, ex2, monkeypatch):
        calls = []
        kappa_terms = capacity_gap._kappa_terms
        monkeypatch.setattr(capacity_gap, "_kappa_terms",
                            lambda *a: calls.append(a) or kappa_terms(*a))
        inside = FiniteSnrChannel(symmetric_two_user(0.3), 100.0)
        cases = [
            (FiniteSnrChannel(ex2, 100.0), [0.1, 0.1, 0.1], capacity_gap.ConditionNotMetError),
            (inside, [1.0, 1.0], capacity_gap.PointOutsideRegionError),
            (inside, [0.1, 0.1, 0.1], ValueError),
            (FiniteSnrChannel(ex2, 100.0), [0.1, 0.1], ValueError),  # d before the condition
        ]
        for fch, d, error in cases:
            with pytest.raises(error) as caught:
                gap_certificate(fch, d)
            assert type(caught.value) is error
        assert calls == []
        gap_certificate(inside, [0.5, 0.5])
        assert len(calls) == 1  # the one cycle block, once the point is decided

    def test_violated_certificate_names_the_first_tight_row(self, monkeypatch):
        # with no rate achieved, every tight row's empirical gap is its whole outer bound
        rng = np.random.default_rng(107)
        alpha = ChannelMatrix(random_condition_channel(rng, 4))
        _, d = max_weighted_gdof(polyhedral_region(alpha), rng.uniform(0.2, 1.0, 4))
        fch = FiniteSnrChannel(alpha, 1e4)
        rows = gap_certificate(fch, d).rows
        tight = [row for row in rows if row.tight]
        assert len(tight) > 1 and tight[0] is not rows[0]
        first = tight[0]
        assert first.outer_exact > first.analytic_sigma + 1e-6
        monkeypatch.setattr(capacity_gap, "tin_rates", lambda ch, r: np.zeros(ch.K))
        with pytest.raises(capacity_gap.CertificateViolatedError, match=re.escape(
                f"certificate violated on {first.kind} {first.users}: "
                f"{first.outer_exact} > {first.analytic_sigma}")):
            gap_certificate(fch, d)

    def test_csv_rows_shape(self):
        alpha = symmetric_two_user(0.2)
        report = gap_certificate(FiniteSnrChannel(alpha, 100.0), [0.5, 0.5])
        rows = report.csv_rows("inst0")
        assert len(rows) == 2 + 1  # two users, one 2-cycle
        assert GAP_CSV_HEADER.split(",") == list(rows[0])
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
