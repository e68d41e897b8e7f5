"""The silent-set union: flags against a recorded fixture and containment oracles.

``tests/data/union_flags.json`` holds channels and the ``(silent,
subsumed_by)`` pairs that ``general_tin_region`` gave for them when every
row group was still decided from the enumerated cycle rows; regenerate
the file only from that implementation, with
``python tests/test_union.py tests/data/union_flags.json``, then apply the
one hand edit below.

That implementation flagged each of two equal regions by the other.  In
record 87 (0-based; ``a_22 = 0``) the regions of ``{}`` and ``{2}`` are
equal, and it flagged ``{}`` by ``{2}`` and ``{2}`` by ``{}``, which left
no unflagged component.  Of two equal regions only the earlier silent set
now stays unflagged, so that record's ``{}`` reads ``null`` where the
generated file has ``[2]``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tinopt import (
    ChannelMatrix,
    check_tin_condition,
    general_tin_region,
    max_weighted_gdof,
    polyhedral_region,
)
from tinopt import region
from tinopt.region import K_MAX_UNION, EmptyPolyhedronError, max_subset_sum, poly_contains
from _oracles import (
    oracle_condition_margins,
    oracle_cycle_lp,
    oracle_cycle_rhs,
    oracle_cycles,
    oracle_poly_contains_rows,
    oracle_support_value,
    oracle_union_flags,
    random_channel,
)

FIXTURE = Path(__file__).parent / "data" / "union_flags.json"

EX2 = [[1.0, 0.1, 0.0], [0.0, 1.0, 0.6], [0.9, 0.0, 1.0]]


def design_channel(rng: np.random.Generator, K: int, condition: bool) -> np.ndarray:
    """Cross gains in [0, 0.7); direct gains that meet, or miss, the optimality condition."""
    a = rng.uniform(0.0, 0.7, (K, K))
    np.fill_diagonal(a, 0.0)
    need = a.max(axis=0) + a.max(axis=1)
    if condition:
        np.fill_diagonal(a, need + rng.uniform(0.05, 0.5, K))
    else:
        np.fill_diagonal(a, rng.uniform(0.5, 1.5, K))
        if min(oracle_condition_margins(a)) >= 0.0:
            u = int(rng.integers(K))
            a[u, u] = need[u] * rng.uniform(0.5, 0.95)
    return a


def fixture_channels() -> list:
    """ex2, 36 design channels (K 3-5, half under the condition), 36 near-tie
    channels on a 0.1 grid and 16 channels with a zero direct gain (K 2-4)."""
    rng = np.random.default_rng(20260918)
    out = [np.array(EX2)]
    for K in (3, 4, 5):
        for k in range(12):
            out.append(design_channel(rng, K, condition=bool(k % 2)))
    for k in range(36):
        K = 3 + k % 3
        a = np.round(rng.uniform(0.0, 1.2, (K, K)), 1)
        np.fill_diagonal(a, np.round(rng.uniform(0.3, 1.5, K), 1))
        out.append(a)
    for k in range(16):
        K = 2 + k % 3
        a = rng.uniform(0.0, 1.2, (K, K))
        np.fill_diagonal(a, rng.uniform(0.3, 1.5, K))
        a[k % K, k % K] = 0.0
        out.append(a)
    return out


def union_flags(alpha: np.ndarray) -> list:
    return [
        [sorted(c.silent), None if c.subsumed_by is None else sorted(c.subsumed_by)]
        for c in general_tin_region(ChannelMatrix(alpha))
    ]


def silent_sets(K: int) -> list:
    return [frozenset(c) for m in range(K + 1) for c in itertools.combinations(range(K), m)]


class TestUnionFlags:
    def test_flags_match_the_row_decided_fixture(self):
        records = json.loads(FIXTURE.read_text())
        assert len(records) >= 85
        for record in records:
            assert union_flags(np.array(record["alpha"])) == record["flags"], record["alpha"]

    def test_fixture_channels_come_from_the_generator(self):
        records = json.loads(FIXTURE.read_text())
        assert [r["alpha"] for r in records] == [a.tolist() for a in fixture_channels()]

    def test_flags_match_the_containment_oracle(self):
        # K 1-4, half with a zero or 5e-13 direct gain (so S and S + {i} are equal
        # regions), a 0.1 grid, and two pairs whose cycles leave many regions empty,
        # so equal; no flag here is decided inside the 1e-9 band
        rng = np.random.default_rng(113)
        channels = [np.array(EX2), np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[0.8]]),
                    np.array([[.3, 1, 0, 0], [1, .3, 0, 0], [0, 0, .3, 1], [0, 0, 1, .3]])]
        for k in range(36):
            K = 1 + k % 4
            if k % 3 == 0:
                a = np.round(rng.uniform(0.0, 1.2, (K, K)), 1)
            else:
                a = random_channel(rng, K) if k % 2 else design_channel(rng, K, k % 4 == 1)
            if k % 4 < 2:
                a[k % K, k % K] = (0.0, 5e-13)[k % 2]
            channels.append(a)
        for alpha in channels:
            assert union_flags(alpha) == oracle_union_flags(alpha), alpha

    def test_flags_end_at_an_unflagged_component(self):
        """No flag cycle, and under the condition the all-active component is unflagged."""
        channels = [np.array(r["alpha"]) for r in json.loads(FIXTURE.read_text())] + [
            np.array(a, dtype=float) for a in (
                [[0, 0], [0, 1]], [[0, 0, 0], [0, 1, 0.2], [0, 0.3, 1]], [[1e-13, 0], [0, 1]])]
        for alpha in channels:
            ch = ChannelMatrix(alpha)
            flag = {c.silent: c.subsumed_by for c in general_tin_region(ch)}
            for S in flag:
                seen = {S}
                while flag[S] is not None:
                    S = flag[S]
                    assert S not in seen, alpha
                    seen.add(S)
            if check_tin_condition(ch).overall:
                assert flag[frozenset()] is None, alpha

    def test_union_builds_no_rows(self):
        rng = np.random.default_rng(61)
        for alpha in [np.array(EX2), design_channel(rng, 5, False), design_channel(rng, 6, False)]:
            for comp in general_tin_region(ChannelMatrix(alpha)):
                assert "cycles" not in comp.polyhedron.__dict__

    def test_refused_above_the_limit_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a region was built")

        monkeypatch.setattr(region, "polyhedral_region", no_work)
        ch = ChannelMatrix(np.eye(K_MAX_UNION + 1) * 0.9 + 0.01)
        with pytest.raises(ValueError, match=f"at most {K_MAX_UNION}"):
            general_tin_region(ch)


class TestDecisionPath:
    @pytest.mark.parametrize("K,channels", [(2, 12), (3, 12), (4, 8), (5, 3), (6, 1)])
    def test_verdicts_match_the_cycle_row_oracle(self, K, channels):
        rng = np.random.default_rng(67 + K)
        verdicts = set()
        for trial in range(channels):
            alpha = random_channel(rng, K) if trial % 2 else design_channel(rng, K, False)
            if trial % 3 == 2:
                alpha[trial % K, trial % K] = 0.0
            ch = ChannelMatrix(alpha)
            polys = {S: polyhedral_region(ch, S) for S in silent_sets(K)}
            values: dict = {}
            for S in polys:
                for T in (T for T in polys if T < S):
                    expected = oracle_poly_contains_rows(alpha, T, S, 1e-9, values)
                    if any(oracle_poly_contains_rows(alpha, T, S, tol, values) != expected
                           for tol in (1e-10, 1e-8)):
                        continue  # decided inside the 1e-9 band
                    assert poly_contains(polys[T], polys[S]) == expected, (alpha, T, S)
                    verdicts.add(expected)
        assert verdicts == {True, False}

    def test_support_values_match_the_oracles(self):
        # 0/1, real and zero weights, empty regions included: the vertex oracle
        # (no LP solver) up to 4 active users, the cycle-row LP from 5 to 7
        rng = np.random.default_rng(89)
        seen = set()
        for trial in range(60):
            K = 2 + trial % 6
            alpha = random_channel(rng, K, cross_max=(0.6, 1.2, 2.0)[trial % 3])
            alpha[trial % K, trial % K] *= trial % 4 != 3  # some zero direct gains
            silent = [i for i in range(K) if rng.random() < 0.3]
            small = K - len(silent) <= 4
            poly = polyhedral_region(ChannelMatrix(alpha), silent)
            users = [i for i in range(K) if rng.random() < 0.5]
            ones = np.isin(np.arange(K), users).astype(float)
            real = rng.uniform(0.0, 1.0, K) * (rng.random(K) < 0.8)
            weights = {"0/1": ones, "real": real, "zero": np.zeros(K)}
            if small:
                values = oracle_support_value(alpha, silent, list(weights.values()))
            else:
                values = [oracle_cycle_lp(alpha, silent, w) for w in weights.values()]
            for (kind, w), expected in zip(weights.items(), values):
                expected = -math.inf if expected is None else float(expected)
                seen.add((kind, small, expected == -math.inf))
                if expected == -math.inf:
                    with pytest.raises(EmptyPolyhedronError):
                        max_weighted_gdof(poly, w)
                else:
                    assert max_weighted_gdof(poly, w)[0] == pytest.approx(expected, abs=1e-9)
                if kind == "0/1":
                    assert max_subset_sum(poly, users) == pytest.approx(expected, abs=1e-9)
        assert seen == {(kind, small, empty) for kind in ("0/1", "real", "zero")
                        for small in (True, False) for empty in (True, False)}

    def test_numpy_alone(self):
        # no LP solver and no scipy: the CLI's import, both optimizers and a K=7 union
        alpha = design_channel(np.random.default_rng(79), 7, False)
        code = f"""if True:
            import json, sys
            import numpy as np
            import tinopt.cli
            from tinopt import ChannelMatrix, general_tin_region, max_weighted_gdof, polyhedral_region
            from tinopt.region import max_subset_sum
            ch = ChannelMatrix(np.array({alpha.tolist()}))
            flags = [c.subsumed_by is None for c in general_tin_region(ch)]
            sums = [max_subset_sum(polyhedral_region(ch, s), u)
                    for s, u in [((), range(7)), ((0, 3), [1, 2, 3]), ((1,), [0])]]
            value = max_weighted_gdof(polyhedral_region(ch, (2,)), np.arange(7.0))[0]
            print(json.dumps([flags, sums, value, "scipy.optimize" in sys.modules]))
        """
        src = str(Path(region.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        flags, sums, value, imported = json.loads(proc.stdout)
        assert not imported
        assert len(flags) == 2 ** 7 and 0 < flags.count(True) < len(flags)
        for (silent, users), got in zip([((), range(7)), ((0, 3), [1, 2, 3]), ((1,), [0])], sums):
            assert got == pytest.approx(
                oracle_cycle_lp(alpha, silent, np.isin(np.arange(7), list(users))), abs=1e-9)
        assert value == pytest.approx(oracle_cycle_lp(alpha, (2,), np.arange(7.0)), abs=1e-9)


class TestScaleEquivariance:
    """Regions are homogeneous: ``region(2^k alpha) = 2^k region(alpha)``.

    Scaling by a power of two is exact in binary floating point, and the
    support values are sums and minima of the channel's entries, so they
    scale bit for bit.  The flags compare values within the absolute 1e-9
    band, so they keep only at scales where no gap between two values
    shrinks into it: here from 2^-1 up.
    """

    VALUE_SCALES = (-40, -20, -1, 1, 13, 100, 300, 490)
    FLAG_SCALES = (-1, 1, 13, 100, 300, 490)

    @pytest.mark.parametrize("K", range(2, 9))
    def test_values_bit_equal_and_flags_kept(self, K):
        rng = np.random.default_rng(97 + K)
        while True:  # every cycle's right-hand side at least 1e-3: no region near empty
            alpha = design_channel(rng, K, False)
            if min(oracle_cycle_rhs(alpha, seq) for seq in oracle_cycles(range(K))) >= 1e-3:
                break
        sets = [list(U) for m in range(K + 1) for U in itertools.combinations(range(K), m)]
        silents = [(), (0,), (K - 1,), tuple(range(1, K, 2))]

        def values(scale):
            ch = ChannelMatrix(alpha * scale)
            polys = [polyhedral_region(ch, S) for S in silents]
            return [max_subset_sum(p, U) for p in polys for U in sets]

        base = values(1.0)
        for k in self.VALUE_SCALES:
            assert values(2.0 ** k) == [v * 2.0 ** k for v in base], k
        if K <= 7:
            flags = union_flags(alpha)
            for k in self.FLAG_SCALES:
                assert union_flags(alpha * 2.0 ** k) == flags, k


    @pytest.mark.parametrize("K", range(2, 9))
    def test_optimizer_answers_at_every_scale(self, K):
        # value and point bit-equal times 2^k, the point certified (max_weighted_gdof re-checks
        # it against the 1e-9 band, which rounding in sums of exponents outgrows from about 2^26)
        rng = np.random.default_rng(101 + K)
        while True:
            alpha = design_channel(rng, K, False)
            if min(oracle_cycle_rhs(alpha, seq) for seq in oracle_cycles(range(K))) >= 1e-3:
                break
        for w in (np.ones(K), rng.uniform(0.1, 1.0, K)):
            base, base_point = max_weighted_gdof(polyhedral_region(ChannelMatrix(alpha)), w)
            for k in range(-40, 21):
                poly = polyhedral_region(ChannelMatrix(alpha * 2.0 ** k))
                value, point = max_weighted_gdof(poly, w)
                assert value == base * 2.0 ** k, k
                assert np.array_equal(point, base_point * 2.0 ** k), k
                assert poly.contains(point)

    @pytest.mark.parametrize("K", range(2, 8))
    def test_optimizer_weight_scale_free(self, K):
        # weights 2^k w give 2^k times the value and the same point: the weights are
        # scaled exactly to below 1 first, so the 1e-9 re-check never sees their scale
        rng = np.random.default_rng(107 + K)
        while True:
            alpha = design_channel(rng, K, False)
            if min(oracle_cycle_rhs(alpha, seq) for seq in oracle_cycles(range(K))) >= 1e-3:
                break
        poly = polyhedral_region(ChannelMatrix(alpha))
        zero_weight = rng.uniform(0.1, 2.0, K) * (np.arange(K) > 0)
        for w in (rng.uniform(0.1, 2.0, K), rng.uniform(0.5, 2.0, K), zero_weight):
            base, base_point = max_weighted_gdof(poly, w)
            for k in range(-40, 61):
                value, point = max_weighted_gdof(poly, w * 2.0 ** k)
                assert value == base * 2.0 ** k, k
                assert np.array_equal(point, base_point), k

    def test_optimizer_answers_near_the_exponent_ceiling(self):
        poly = polyhedral_region(ChannelMatrix(np.array([[1e150, 5e149], [5e149, 1e150]])))
        value, point = max_weighted_gdof(poly, [1.0, 1.0])
        assert value == 1e150
        assert point.tolist() == [5e149, 5e149]


def write_fixture(path) -> None:
    records = [{"alpha": a.tolist(), "flags": union_flags(a)} for a in fixture_channels()]
    Path(path).write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    write_fixture(sys.argv[1])
