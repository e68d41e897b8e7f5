"""The silent-set union: flags against a recorded fixture and containment oracles.

``tests/data/union_flags.json`` holds channels and the ``(silent,
subsumed_by)`` pairs that ``general_tin_region`` gave for them when every
row group was still decided from the enumerated cycle rows; regenerate
the file only from that implementation, with
``python tests/test_union.py tests/data/union_flags.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinopt import ChannelMatrix, general_tin_region, polyhedral_region
from tinopt import region
from tinopt.region import K_MAX_UNION, poly_contains
from _oracles import (
    oracle_condition_margins,
    oracle_cycle_lp,
    oracle_poly_contains_rows,
    oracle_region_margin,
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_cover_bound_is_above_the_support_lp(self, data):
        alpha, silent, users = data.draw(channel_and_support())
        value = oracle_cycle_lp(alpha, silent, np.isin(np.arange(len(alpha)), users))
        bound = region._cover_bound(polyhedral_region(ChannelMatrix(alpha), silent), users)
        assert value is None or bound >= value - 1e-9, (alpha, silent, users, bound, value)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_witness_verdict_matches_the_row_margin(self, data):
        alpha, silent, users = data.draw(channel_and_support())
        point = np.zeros(len(alpha))
        if users:
            i = max(users, key=lambda u: alpha[u, u])
            point[i] = alpha[i, i]
        value = region._witness_bound(polyhedral_region(ChannelMatrix(alpha), silent), users)
        margin = oracle_region_margin(alpha, silent, point)
        if abs(margin) > 1e-8:
            assert (value > -math.inf) == (margin > 0), (alpha, silent, users, margin)
        if value > -math.inf:
            assert value == point.sum()


@st.composite
def channel_and_support(draw):
    """A channel (K 2-7, no condition assumed, some zero direct gains, some
    empty regions), a silent set and a set of its active users."""
    K = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = random_channel(rng, K, cross_max=draw(st.sampled_from([0.6, 1.2, 2.0])))
    for i in draw(st.sets(st.integers(0, K - 1), max_size=2)):
        alpha[i, i] = 0.0
    silent = draw(st.sets(st.integers(0, K - 1), max_size=K - 1))
    active = [i for i in range(K) if i not in silent]
    users = tuple(sorted(draw(st.sets(st.sampled_from(active)))))
    return alpha, frozenset(silent), users


def write_fixture(path) -> None:
    records = [{"alpha": a.tolist(), "flags": union_flags(a)} for a in fixture_channels()]
    Path(path).write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    write_fixture(sys.argv[1])
