"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is either a hand-derived constant, a closed
form, or produced by the independent oracles in ``_oracles.py``; library
routines are never checked against themselves.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tinopt import (
    ChannelMatrix,
    FiniteSnrChannel,
    build_graph,
    check_tin_condition,
    decide_membership,
    gap_certificate,
    gdof_limit_checks,
    general_tin_region,
    max_weighted_gdof,
    point_in_tin_region,
    polyhedral_region,
    polyhedral_tin_gdof,
    recover_power_allocation,
    sweep,
    sweep_to_csv,
    transpose_channel,
    SimConfig,
)
from tinopt.potential_graph import canonical_cycle, cycle_blocks
from conftest import EX2_ALPHA, cycle_rows, symmetric_two_user
from _oracles import (
    GridAchievability,
    _chunked_table,
    oracle_region_margin,
    random_channel,
    random_condition_channel,
    region_grid_points,
)

_STATE: dict = {}


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {n:02d} PASS - {desc}")


def test_c01_cycle_enumeration():
    with criterion(1, "cycle enumeration: exact 3-user family, counts to K=7, <1s"):
        t0 = time.perf_counter()
        assert [C.tolist() for C in cycle_blocks({1, 2, 3})] == [
            [[1, 2], [1, 3], [2, 3]],
            [[1, 2, 3], [1, 3, 2]],
        ]
        for K in range(4, 8):
            expected = sum(
                math.comb(K, m) * math.factorial(m - 1) for m in range(2, K + 1)
            )
            assert sum(len(C) for C in cycle_blocks(range(K))) == expected
        assert time.perf_counter() - t0 < 1.0


def test_c02_three_user_regression():
    with criterion(2, "3-user cyclic example: region, condition, union, membership"):
        # reconstruct the cross gains from the printed two-user bounds of
        # the cyclic topology, then confirm the three-cycle bound agrees
        a01 = 2.0 - 1.9
        a12 = 2.0 - 1.4
        a20 = 2.0 - 1.1
        assert 3.0 - (a01 + a12 + a20) == pytest.approx(1.4, abs=1e-12)
        rebuilt = np.zeros((3, 3))
        np.fill_diagonal(rebuilt, 1.0)
        rebuilt[0, 1], rebuilt[1, 2], rebuilt[2, 0] = a01, a12, a20
        assert np.allclose(rebuilt, EX2_ALPHA, atol=1e-12)

        ch = ChannelMatrix(EX2_ALPHA)
        poly = polyhedral_region(ch)
        rhs = dict(cycle_rows(poly))
        assert abs(rhs[(0, 1)] - 1.9) <= 1e-12
        assert abs(rhs[(1, 2)] - 1.4) <= 1e-12
        assert abs(rhs[(0, 2)] - 1.1) <= 1e-12
        assert abs(rhs[(0, 1, 2)] - 1.4) <= 1e-12

        rep = check_tin_condition(ch)
        assert rep.per_user == (True, True, False)

        comps = general_tin_region(ch)
        surviving = [c.silent for c in comps if c.subsumed_by is None]
        assert surviving == [frozenset(), frozenset({2})]

        d = np.array([1.0, 0.9, 0.0])
        cert = recover_power_allocation(ch, d)
        assert not cert.feasible
        assert cert.violated_users == (0, 1, 2)
        assert abs(cert.violated_rhs - 1.4) <= 1e-12
        verdict = point_in_tin_region(ch, d)
        assert verdict.inside and verdict.silent == frozenset({2})


def _membership_battery():
    if "battery" in _STATE:
        return _STATE["battery"]
    rng = np.random.default_rng(20260811)
    records = []
    checked = silent_checked = 0
    for _ in range(1000):
        K = int(rng.integers(2, 6))
        alpha = random_channel(rng, K)
        d = rng.uniform(0, np.diag(alpha))
        margin = oracle_region_margin(alpha, (), d)
        cert = decide_membership(build_graph(ChannelMatrix(alpha), d))
        records.append((alpha, d, margin, cert))
        if abs(margin) > 1e-8:
            checked += 1
            assert cert.feasible == (margin >= 0), (alpha, d, margin)
        # the same equivalence on a random silenced sub-network
        S = [i for i in range(K) if rng.random() < 0.35]
        active = [i for i in range(K) if i not in S]
        if not active:
            continue
        dz = d.copy()
        for i in S:
            dz[i] = 0.0
        sub = ChannelMatrix(alpha).restrict(active)
        sub_cert = decide_membership(build_graph(sub, dz[active]))
        sub_margin = oracle_region_margin(alpha[np.ix_(active, active)], (), dz[active])
        if abs(sub_margin) > 1e-8:
            silent_checked += 1
            assert sub_cert.feasible == (sub_margin >= 0), (alpha, S, dz)
    _STATE["battery"] = (records, checked, silent_checked)
    return _STATE["battery"]


def test_c03_potential_theorem_equivalence():
    with criterion(3, "shortest-path verdicts match exhaustive inequalities (1000 runs)"):
        records, checked, silent_checked = _membership_battery()
        assert len(records) == 1000
        assert checked >= 900  # essentially everything sits outside the band
        assert silent_checked >= 800


def _achievability_battery():
    if "grid" in _STATE:
        return _STATE["grid"]
    rng = np.random.default_rng(48151623)
    step = {2: 0.2, 3: 0.25, 4: 0.25}
    feasibles = []
    elapsed = -time.perf_counter()
    n_points = 0
    for idx in range(100):
        K = 2 + idx % 3
        alpha = random_condition_channel(rng, K)
        grid = GridAchievability(alpha, delta=0.05)
        pts = region_grid_points(alpha, step[K])
        n_points += len(pts)
        for p in pts:
            assert grid.achievable(p, slack=0.1), (alpha, p)
            cert = recover_power_allocation(ChannelMatrix(alpha), p)
            assert cert.feasible
            feasibles.append((alpha, p, cert))
        for d in grid.sample_achieved(rng, 40):
            assert point_in_tin_region(ChannelMatrix(alpha), d).inside, (alpha, d)
    elapsed += time.perf_counter()
    _STATE["grid"] = (feasibles, n_points, elapsed)
    return _STATE["grid"]


def test_c04_grid_achievability_oracle():
    with criterion(4, "grid power search achieves every region grid point (<5min)"):
        feasibles, n_points, elapsed = _achievability_battery()
        assert n_points > 2000
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_grid_table_matches_chunked_reference():
    # the broadcast table behind c04 has the bytes of the chunked one it replaced
    rng = np.random.default_rng(48151623)
    for idx in range(5):  # K = 2, 3, 4, 2, 3, drawn like the c04 battery
        K = 2 + idx % 3
        alpha = random_condition_channel(rng, K)
        grid = GridAchievability(alpha, delta=0.05)
        assert grid.table.tobytes() == _chunked_table(grid).tobytes(), alpha


def test_c05_power_certificate_soundness():
    with criterion(5, "every feasible certificate dominates its target within 1e-9"):
        records, _, _ = _membership_battery()
        n = 0
        for alpha, d, _margin, cert in records:
            if not cert.feasible:
                continue
            relaxed = polyhedral_tin_gdof(ChannelMatrix(alpha), cert.r)
            assert np.all(relaxed >= d - 1e-9), (alpha, d)
            n += 1
        feasibles, _, _ = _achievability_battery()
        for alpha, d, cert in feasibles:
            relaxed = polyhedral_tin_gdof(ChannelMatrix(alpha), cert.r)
            assert np.all(relaxed >= d - 1e-9), (alpha, d)
        assert n > 50 and len(feasibles) > 1000


def test_c06_symmetric_two_user_sum_segment():
    with criterion(6, "symmetric 2-user sum-GDoF segment 2-2a with symmetric argmax"):
        for a in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            poly = polyhedral_region(symmetric_two_user(a))
            value, point = max_weighted_gdof(poly, [1.0, 1.0])
            assert abs(value - (2 - 2 * a)) <= 1e-12
            assert abs(point[0] - (1 - a)) <= 1e-12
            assert abs(point[1] - (1 - a)) <= 1e-12


def test_c07_transposition_duality():
    with criterion(7, "condition and region invariant under transposition (1000 runs)"):
        rng = np.random.default_rng(774411)
        for _ in range(1000):
            K = int(rng.integers(2, 6))
            ch = ChannelMatrix(random_channel(rng, K))
            chT = transpose_channel(ch)
            a = check_tin_condition(ch)
            b = check_tin_condition(chT)
            assert a.per_user == b.per_user and a.overall == b.overall
            fwd = dict(cycle_rows(polyhedral_region(ch)))
            rev = dict(cycle_rows(polyhedral_region(chT)))
            assert fwd.keys() == rev.keys()
            for seq, r in fwd.items():
                flipped = canonical_cycle((seq[0],) + tuple(reversed(seq[1:])))
                assert abs(rev[flipped] - r) <= 1e-12
            # as unordered inequality sets, the two systems coincide
            fset = sorted((tuple(sorted(s)), round(r, 9)) for s, r in fwd.items())
            rset = sorted((tuple(sorted(s)), round(r, 9)) for s, r in rev.items())
            assert fset == rset


def test_c08_constant_gap_certificates():
    with criterion(8, "constant-gap: analytic sigmas exact, empirical never above"):
        rng = np.random.default_rng(33550336)
        for idx in range(100):
            K = 2 + idx % 3
            alpha = ChannelMatrix(random_condition_channel(rng, K))
            w = rng.uniform(0.2, 1.0, K)
            _value, d = max_weighted_gdof(polyhedral_region(alpha), w)
            d = np.maximum(d, 0.0) * (1 - 1e-9)
            log2K = math.log2(K)
            for P in (1e2, 1e4, 1e6):
                report = gap_certificate(FiniteSnrChannel(alpha, P), d)
                tight_seen = 0
                for row in report.rows:
                    if row.kind == "user":
                        assert row.analytic_sigma == pytest.approx(
                            1 + log2K, abs=1e-12
                        )
                        assert row.analytic_sigma < math.log2(3 * K)
                    else:
                        m = len(row.users)
                        assert row.analytic_sigma == pytest.approx(
                            m * math.log2(3 * K), abs=1e-12
                        )
                        assert row.analytic_sigma == pytest.approx(
                            m * (math.log2(3) + log2K), abs=1e-9
                        )
                    if row.tight:
                        tight_seen += 1
                        assert row.empirical_sigma <= row.analytic_sigma + 1e-6
                assert tight_seen >= 1


def test_c09_gdof_limit_convergence():
    with criterion(9, "normalized outer bounds converge monotonically, final <0.02"):
        rng = np.random.default_rng(28)
        for _ in range(25):
            K = int(rng.integers(2, 5))
            # cross exponents bounded away from zero: zero links converge
            # only like 1/log2(P) and would need far larger powers
            a = rng.uniform(0.15, 0.25, (K, K))
            np.fill_diagonal(a, rng.uniform(0.95, 1.05, K))
            ch = ChannelMatrix(a)
            m = int(rng.integers(2, K + 1))
            cyc = tuple(rng.permutation(K)[:m])
            rep = gdof_limit_checks(ch, cyc, [1e2, 1e4, 1e8])
            assert rep.monotone, (a, cyc, rep)
            assert rep.final_error < 0.02, (a, cyc, rep)


def _sweep_rows(workers: int):
    cfg = SimConfig(K=10, coverage_radius=100.0, trials=2000, master_seed=0)
    return sweep(cfg, [2, 5, 10, 15], [50.0, 100.0, 200.0], workers=workers)


def test_c10_simulation_target_and_trends():
    with criterion(10, "10-user/100m condition probability in [0.4,0.6], trends (<2min)"):
        t0 = time.perf_counter()
        rows = _sweep_rows(workers=1)
        _STATE["sweep_csv"] = sweep_to_csv(rows)  # its bytes: tests/test_cli.py, c10_sweep.csv
        grid = {(r.K, r.coverage_radius): r.prob for r in rows}
        assert 0.4 <= grid[(10, 100.0)] <= 0.6
        for radius in (50.0, 100.0, 200.0):
            probs = [grid[(K, radius)] for K in (2, 5, 10, 15)]
            assert all(
                probs[i + 1] <= probs[i] + 0.03 for i in range(len(probs) - 1)
            ), (radius, probs)
        for K in (2, 5, 10, 15):
            probs = [grid[(K, r)] for r in (50.0, 100.0, 200.0)]
            assert all(
                probs[i + 1] <= probs[i] + 0.03 for i in range(len(probs) - 1)
            ), (K, probs)
        assert time.perf_counter() - t0 < 120.0


def test_c11_simulation_determinism_across_workers():
    with criterion(11, "sweep CSV bytes identical under 1, 4 and 8 workers"):
        reference = _STATE.get("sweep_csv") or sweep_to_csv(_sweep_rows(1))
        for workers in (4, 8):
            assert sweep_to_csv(_sweep_rows(workers)) == reference
