"""The transportation solver behind every optimum: its oracle, and optima pinned bit for bit.

``region._transport`` is checked against ``_oracles.oracle_transport``,
the array formulation it replaced, value, flow and prices bit for bit,
at every size up to 24; with costs of -0.0 the sign of a zero price is
unspecified, and the optima on channels with -0.0 entries are the
oracle's bit for bit.

``tests/data/optima_bits.json`` holds, for the seeded channels and
weights of :func:`optima_corpus`, the value and point of
``max_weighted_gdof`` as ``float.hex`` and the Bellman-Ford sweeps of
``_arrival_slack``, as the array formulation gave them; regenerate the
file only from that implementation, with
``python tests/test_transport.py tests/data/optima_bits.json``.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from tinopt import ChannelMatrix, max_weighted_gdof, polyhedral_region
from tinopt.region import max_subset_sum
from tinopt import potential_graph, region
from tinopt.potential_graph import _shortest_paths
from tinopt.region import EmptyPolyhedronError
from _oracles import oracle_transport, random_channel, random_condition_channel

OPTIMA_BITS = Path(__file__).parent / "data" / "optima_bits.json"


def cost_matrices(rng: np.random.Generator, n: int):
    """``(kind, F)``: costs whose distances tie within and across levels, and costs that do not."""
    yield "real", rng.uniform(-1.0, 2.0, (n, n))
    yield "half-integer", rng.integers(-2, 5, (n, n)) / 2.0
    yield "all equal", np.full((n, n), 0.75)
    yield "2^-30", rng.uniform(0.0, 1.0, (n, n)) * 2.0 ** -30
    alpha = random_condition_channel(rng, n)
    yield "paths", _shortest_paths(ChannelMatrix(alpha), 0.0)[0] if n else np.zeros((0, 0))


def marginals(rng: np.random.Generator, n: int):
    """``(kind, w)``: unit marginals, real weights scaled by ``2^-e`` to below 1 as
    ``max_weighted_gdof`` scales them, and dyadic ones, whose bottlenecks tie."""
    yield "ones", np.ones(n)
    w = rng.uniform(0.1, 2.0, n)
    yield "real", np.ldexp(w, -max(0, math.frexp(float(w.max(initial=0.0)))[1]))
    yield "dyadic", rng.choice([0.25, 0.5, 1.0], n)


def assert_same_bits(got, want, case=None):
    (value, x, (u, v)), (value0, x0, (u0, v0)) = got, want
    assert type(value) is float and value.hex() == value0.hex(), case
    for a, b in ((x, x0), (u, u0), (v, v0)):
        assert a.shape == b.shape and a.dtype == b.dtype == np.float64, case
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), case


def signed_zero_optima() -> list:
    """Every value, point and error of the optima on channels with -0.0 and 0.0 entries."""
    rng = np.random.default_rng(34)
    out = []
    for trial in range(300):
        K = 1 + trial % 6
        alpha = random_condition_channel(rng, K) if trial % 3 else rng.integers(0, 5, (K, K)) / 4.0
        zero = rng.random((K, K)) < 0.4
        mute = rng.random(K) < 0.3  # users at 0 throughout: their arcs are -0.0 or 0.0
        zero[mute] = zero[:, mute] = True
        alpha[zero] = np.where(rng.random((K, K)) < 0.5, -0.0, 0.0)[zero]
        ch = ChannelMatrix(alpha)
        silent = tuple(np.flatnonzero(rng.random(K) < 0.2).tolist())
        quarters = rng.integers(0, 5, K) / 4.0
        quarters[quarters == 0] *= rng.choice([-1.0, 1.0], K)[quarters == 0]
        users = np.flatnonzero(rng.random(K) < 0.6).tolist()
        poly = polyhedral_region(ch, silent)
        for call in (lambda: max_weighted_gdof(poly, np.ones(K)),
                     lambda: max_weighted_gdof(poly, quarters),
                     lambda: max_subset_sum(poly, users)):
            try:
                value, point = call(), None
                if isinstance(value, tuple):
                    value, point = value
                out.append((value.hex(), None if point is None else point.tobytes()))
            except (EmptyPolyhedronError, region.UncertifiedPointError) as err:
                out.append((type(err), str(err)))
    return out


class TestTransportOracle:
    """``region._transport`` against the array formulation: value, flow and prices bit for bit,
    the sign of a zero price aside."""

    @pytest.mark.parametrize("n", range(25))
    def test_bits_equal_the_array_formulation(self, n):
        rng = np.random.default_rng(1000 + n)
        for trial in range(4 if n <= 12 else 2):
            for kind, F in cost_matrices(rng, n):
                for weights, w in marginals(rng, n):
                    # cold; warm from the prices of costs above F, as a Newton step passes them
                    # on (F_t <= F at the next level); warm from unrelated costs
                    starts = [None]
                    for G in (F + rng.uniform(0.0, 0.5, (n, n)), rng.uniform(-1.0, 2.0, (n, n))):
                        starts.append(oracle_transport(G, w)[2])
                    for prices in starts:
                        copy = lambda: None if prices is None else tuple(p.copy() for p in prices)
                        got = region._transport(F, w, copy())
                        case = (trial, kind, weights, prices is None)
                        assert_same_bits(got, oracle_transport(F, w, copy()), case)

    def test_signed_zero_costs(self):
        # a level at distance 0 with 0.0 and -0.0 tied: value and flow bit for bit,
        # prices as numbers (the sign of a zero price is read by no output)
        rng = np.random.default_rng(11)
        for trial in range(2000):
            n = int(rng.integers(1, 8))
            zeros = rng.integers(0, 3, (n, n)) / 2.0
            F = np.where(rng.random((n, n)) < 0.5, -zeros, zeros)
            w = rng.choice([0.25, 0.5, 1.0], n) if trial % 2 else np.ones(n)
            value, x, prices = region._transport(F, w)
            value0, x0, prices0 = oracle_transport(F, w)
            assert type(value) is float and value.hex() == value0.hex(), trial
            assert np.array_equal(x.view(np.int64), x0.view(np.int64)), trial
            for a, b in zip(prices, prices0):
                assert a.dtype == np.float64 and np.array_equal(a, b), trial

    def test_signed_zero_channels_give_the_oracle_optima(self, monkeypatch):
        got = signed_zero_optima()
        assert sum(isinstance(o[0], type) for o in got) > 0  # empty regions too
        monkeypatch.setattr(region, "_transport", oracle_transport)
        assert got == signed_zero_optima()


def optima_corpus():
    """``(labels, alpha, w)`` for the fixture's optima, in its order.

    Per user count (2-12, then 20, 25 and 30): channels under the
    optimality condition and channels with cross gains up to 0.6, each
    with weights 1 and with weights U(0.1, 2).
    """
    rng = np.random.default_rng(33)
    channels = {"condition": random_condition_channel,
                "random": lambda rng, K: random_channel(rng, K, cross_max=0.6)}
    for K in (*range(2, 13), 20, 25, 30):
        for kind, make in channels.items():
            for _ in range(3 if K <= 12 else 1):
                alpha = make(rng, K)
                for weights in ("ones", "real"):
                    w = np.ones(K) if weights == "ones" else rng.uniform(0.1, 2.0, K)
                    yield {"K": K, "channel": kind, "weights": weights}, alpha, w


@contextlib.contextmanager
def slack_sweeps():
    """Per ``_arrival_slack`` call while the block runs: its Bellman-Ford's sweeps
    (calls of ``potential_graph._relax``) and whether it returned circuits."""
    log = []
    bellman_ford, relax = potential_graph._bellman_ford, potential_graph._relax

    def counted(lengths, ground, tol):
        sweeps = []
        with mock.patch.object(potential_graph, "_relax",
                               lambda *args: sweeps.append(1) or relax(*args)):
            dist, circuits = bellman_ford(lengths, ground, tol)
        log.append({"sweeps": len(sweeps), "circuit": circuits is not None})
        return dist, circuits

    with mock.patch.object(region, "_bellman_ford", counted):
        yield log


def optimum_record(alpha: np.ndarray, w: np.ndarray) -> dict:
    """Value and point as ``float.hex`` (None for an empty region), and the slack's sweeps."""
    with slack_sweeps() as log:
        try:
            value, point = max_weighted_gdof(polyhedral_region(ChannelMatrix(alpha)), w)
        except EmptyPolyhedronError:
            value, point = None, None
    return {
        "value": None if value is None else value.hex(),
        "point": None if point is None else [p.hex() for p in point.tolist()],
        "slack": log,
    }


class TestOptimaBits:
    """``max_weighted_gdof`` keeps every bit of the recorded optima."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(OPTIMA_BITS.read_text())

    def test_corpus_is_the_recorded_one(self, recorded):
        labels = [labels for labels, *_ in optima_corpus()]
        assert labels == [{k: r[k] for k in ("K", "channel", "weights")} for r in recorded]
        assert any(r["value"] is None for r in recorded)
        assert any(r["slack"] for r in recorded if r["K"] == 30)

    def test_value_point_and_slack_sweeps(self, recorded):
        # the sweeps pin _arrival_slack's cost: 2 when the transport's prices are
        # potentials of its residual graph, and every sweep with a circuit on the
        # optima where a cycle of length 0 rounds below 0 (20 of the 126 with a point)
        for (labels, alpha, w), want in zip(optima_corpus(), recorded):
            got = optimum_record(alpha, w)
            assert got["value"] == want["value"], labels
            assert got["point"] == want["point"], labels
            assert got["slack"] == want["slack"], labels

    def test_slack_starts_from_potentials_up_to_rounding(self):
        # every arc of _arrival_slack's residual graph, reduced by the transport's prices
        # (arrival v, departure -u), is at least -2^-40: rounding (the corpus reaches
        # -2.2e-16), where prices that are not potentials miss by the scale of the costs
        with mock.patch.object(region, "_arrival_slack", wraps=region._arrival_slack) as spy:
            for labels, alpha, w in optima_corpus():
                with contextlib.suppress(EmptyPolyhedronError):
                    max_weighted_gdof(polyhedral_region(ChannelMatrix(alpha)), w)
        assert spy.call_count >= 100
        for F, x, (u, v) in (call.args for call in spy.call_args_list):
            m = len(F)
            R = np.full((2 * m, 2 * m), np.inf)  # arrivals 0..m-1, then departures
            R[m:, :m] = F
            R[:m, m:] = np.where(x.T > 0, -F.T, np.inf)
            R[np.arange(m), m + np.arange(m)] = np.minimum(0.0, R[np.arange(m), m + np.arange(m)])
            p = np.concatenate([v, -u])
            reduced = (p[:, None] + R - p)[np.isfinite(R)]
            assert reduced.min() >= -2.0 ** -40, (F, x, u, v)


def write_fixture(path) -> None:
    records = [{**labels, **optimum_record(alpha, w)} for labels, alpha, w in optima_corpus()]
    Path(path).write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    write_fixture(sys.argv[1])
