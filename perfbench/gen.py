"""Seeded input generators owned by the benchmark.

Nothing here imports the package under test or the test suite's helpers:
an edit to either cannot change what the benchmark feeds the library.
Every generator takes a ``numpy.random.Generator`` derived from the
workload seed, so the same seed always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from checks import condition_holds, relaxed_gdof

#: Per-query shifts applied to a boundary point.  The sub-1e-6 values sit
#: in or next to the 1e-9 tolerance band that boundary members rely on.
OFFSETS = (0.0, 1e-12, -1e-12, 5e-10, -5e-10, 7.5e-10, 1e-6, -1e-6, 1e-2, -1e-2)
#: Shifts at least this large have a verdict known from the construction.
KNOWN_OFFSET = 1e-6
#: The library's membership tolerance: coordinates at or below it are silent.
ZERO_TOL = 1e-9


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent stream per (seed, purpose), stable across runs."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, sum(map(ord, stream)), len(stream)])


def random_channel(rng: np.random.Generator, K: int) -> np.ndarray:
    """Weak-to-moderate interference: direct 0.8..1.6, cross 0..0.6."""
    a = rng.uniform(0.0, 0.6, (K, K))
    np.fill_diagonal(a, rng.uniform(0.8, 1.6, K))
    return a


def design_channel(rng: np.random.Generator, K: int, condition: bool) -> np.ndarray:
    """Channel that satisfies (or violates) the optimality condition."""
    a = rng.uniform(0.0, 0.7, (K, K))
    np.fill_diagonal(a, 0.0)
    need = a.max(axis=0) + a.max(axis=1)
    if condition:
        np.fill_diagonal(a, need + rng.uniform(0.05, 0.5, K))
    else:
        np.fill_diagonal(a, rng.uniform(0.5, 1.5, K))
        if all(condition_holds(a, eps=0.0)):
            u = int(rng.integers(K))
            a[u, u] = need[u] * rng.uniform(0.5, 0.95)
    return a


def tight_cycles(succ: np.ndarray, r: np.ndarray) -> list:
    """User sets whose region inequality is tight at the relaxed GDoF point.

    Each user has one binding arc, so the binding arcs form a functional
    graph; every cycle in it is a tight cycle inequality.  A user whose
    binding arc is the noise floor at full power has a tight box.
    """
    K = len(succ)
    out = [(i,) for i in range(K) if succ[i] < 0 and r[i] == 0.0]
    state = [0] * K  # 0 new, 1 on current walk, 2 done
    for s in range(K):
        walk = []
        x = s
        while x >= 0 and state[x] == 0:
            state[x] = 1
            walk.append(x)
            x = int(succ[x])
        if x >= 0 and state[x] == 1:
            out.append(tuple(walk[walk.index(x):]))
        for v in walk:
            state[v] = 2
    return out


@dataclass(frozen=True)
class Query:
    """One membership query; ``expected`` is None when not known by construction."""

    kind: str  # "point" (point_in_tin_region) or "power" (recover_power_allocation)
    channel: int  # index into the channel pool
    d: np.ndarray
    expected: bool | None


def boundary_query(rng: np.random.Generator, a: np.ndarray, kind: str, channel: int) -> Query:
    """Shifted relaxed-GDoF point of a random power vector, clamped at zero."""
    K = a.shape[0]
    r = -rng.uniform(0.0, 0.5, K)
    r[rng.random(K) < 0.3] = 0.0
    d0, succ = relaxed_gdof(a, r)
    off = float(OFFSETS[int(rng.integers(len(OFFSETS)))])
    d = np.maximum(d0 + off, 0.0)
    expected = None
    if off <= -KNOWN_OFFSET:
        # d is dominated by an achieved point on its support; an all-active
        # query additionally needs no coordinate raised by the clamp.
        if kind == "point" or np.all(d0 >= 0.0):
            expected = True
    elif off >= KNOWN_OFFSET:
        tight = tight_cycles(succ, r)
        if kind == "power":
            active_tight = tight
        else:
            active_tight = [c for c in tight if all(d[u] > ZERO_TOL for u in c)]
        if active_tight:
            expected = False
    return Query(kind, channel, d, expected)


def membership_inputs(rng: np.random.Generator, sizes, counts, channels_per_size: int):
    """Channel pool, and ``counts[k]`` queries on channels of size ``sizes[k]``.

    Queries alternate between the union test and the all-active test.
    """
    channels = []
    queries_by_size = []
    for K, count in zip(sizes, counts):
        base = len(channels)
        channels.extend(random_channel(rng, K) for _ in range(channels_per_size))
        qs = []
        for q in range(count):
            c = base + int(rng.integers(channels_per_size))
            kind = "point" if q % 2 == 0 else "power"
            qs.append(boundary_query(rng, channels[c], kind, c))
        queries_by_size.append(qs)
    return channels, queries_by_size


def monte_carlo_seeds(rng: np.random.Generator, n: int) -> list:
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=n)]


def positive_weights(rng: np.random.Generator, K: int) -> np.ndarray:
    return rng.uniform(0.1, 2.0, K)
