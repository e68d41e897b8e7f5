"""Feasibility of GDoF targets via shortest-path potentials on an induced graph.

A target tuple ``d`` is achievable by the relaxed (un-clamped) TIN scheme
exactly when a certain complete directed graph on the K users plus one
ground node admits a potential function, which in turn holds exactly when
the graph has no negative-length directed circuit.  The graph's arc
lengths encode the difference constraints

    r_i <= 0,
    r_i >= d_i - a_ii,
    r_i - r_j >= a_ij + d_i - a_ii   (i != j),

so shortest-path distances from the ground node double as a concrete power
allocation whenever the system is feasible, and a negative circuit maps
back to one violated inequality of the region's H-representation.

The graph's layout is known here only.  Its three shortest-path routines
are Bellman-Ford from ground (:func:`_bellman_ford`) for membership,
Floyd-Warshall (:func:`_shortest_paths`) for a region's dual, the path
lengths between users behind every support value, and Karp's minimum
cycle mean (:func:`_max_level`) for the largest level ``t * 1`` in a region.
The first two also run on a stack of graphs cut from one graph, each
graph to the bit as alone: the union's regions (:func:`_subgraph_duals`).

Cycle inequalities are kept in a canonical order (cycle size, then
lexicographic on the canonical rotation) so that serialized regions are
byte-stable.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel_model import (EPS_CONDITION, EXPONENT_MAX, ChannelMatrix, PowerExponents,
                            _entries, _exponent_vector, _is_integer, _real_array, _shown)

#: The membership band, so that round-off does not eject boundary points.
#: The plain pass accepts when every arc's slack is at most half of it, and
#: the band pass lowers every target by ``EPS_LENGTH / K``.  So a circuit
#: through ``m`` users is a member at or above ``-(m / K) * EPS_LENGTH`` and
#: is refused below ``-(m / 2) * EPS_LENGTH``; in between, the verdict
#: depends on ``K`` and on how the circuit's length is spread over its arcs
#: (README, "Numerical conventions").  The same number as the condition's band.
EPS_LENGTH = EPS_CONDITION

#: Cycles are enumerated, and cycle rows exported (``Polyhedron.to_dict``,
#: ``region.minimized`` and the gap certificates' per-cycle bounds), for at
#: most this many users, a limit set from measured cost (README, "Exporting
#: cycle rows"): at 9 users (125,664 rows) ``tinopt region`` takes about 4 s
#: and 350 MB, at 10 users (1,112,073 rows) about 28 s and 2.6 GB.
K_MAX_EXPORT = 9


@dataclass(frozen=True, eq=False)
class PotentialGraph:
    """Complete directed graph on K user nodes plus a ground node.

    Node ``i`` in ``0..K-1`` stands for user ``i``; node ``K`` is ground.
    ``lengths[a][b]`` is the arc length from node ``a`` to node ``b``
    (+inf where there is no arc):

    - user -> user: ``a_ii - d_i - a_ij``
    - user -> ground: ``a_ii - d_i``
    - ground -> user: ``0``
    """

    alpha: ChannelMatrix
    d: np.ndarray
    lengths: np.ndarray

    @property
    def K(self) -> int:
        return self.alpha.K

    @property
    def ground(self) -> int:
        return self.alpha.K


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of the circuit test, with a checkable witness either way.

    Feasible: ``r`` is a valid power allocation whose relaxed TIN GDoF
    dominates the requested tuple.  Infeasible: ``cycle`` lists the users
    of a negative circuit in arc order (a single user means the direct
    power bound ``d_i <= a_ii`` failed) and ``violated_users``/
    ``violated_rhs`` give the corresponding region inequality
    ``sum d_i <= rhs``; ``margin`` is rhs minus the attained sum.
    """

    feasible: bool
    r: PowerExponents | None = None
    cycle: tuple | None = None
    violated_users: tuple | None = None
    violated_rhs: float | None = None
    margin: float | None = None

    def to_dict(self) -> dict:
        out = {"feasible": bool(self.feasible)}
        out["r"] = self.r.to_jsonable() if self.r is not None else None
        out["violated_cycle"] = list(self.cycle) if self.cycle is not None else None
        if self.violated_users is not None:
            out["violated_bound"] = {
                "users": list(self.violated_users),
                "rhs": float(self.violated_rhs),
            }
        else:
            out["violated_bound"] = None
        return out


def build_graph(alpha: ChannelMatrix, d) -> PotentialGraph:
    """Assemble the graph for a channel and a GDoF target (negative d allowed)."""
    return _graph(alpha, _target_vector(d, alpha.K))


def _target_vector(d, K: int) -> np.ndarray:
    """The one check of signed targets: ``d`` as ``K`` floats, each ``|d_i| <= EXPONENT_MAX``."""
    dv = _real_array(d, "d")
    if dv.shape != (K,):
        raise ValueError(f"d needs {K} entries, got {len(dv) if dv.ndim == 1 else dv.shape}")
    if not np.all(np.abs(dv) <= EXPONENT_MAX):
        raise ValueError(f"d entries must be finite and at most {EXPONENT_MAX:g} in magnitude")
    return dv


def _graph(alpha: ChannelMatrix, dv: np.ndarray) -> PotentialGraph:
    """:func:`build_graph` without its input check, for a float vector that passed it.

    The graph keeps a read-only copy of ``dv``.
    """
    dv = dv.copy()
    L = _lengths(alpha, dv)
    L.setflags(write=False)
    dv.setflags(write=False)
    return PotentialGraph(alpha=alpha, d=dv, lengths=L)


def _lengths(alpha: ChannelMatrix, dv: np.ndarray) -> np.ndarray:
    """The graph's ``(K+1, K+1)`` arc lengths for targets ``dv``, a new writable array."""
    K = alpha.K
    head = alpha.alpha.diagonal() - dv  # a_ii - d_i, the length of user i's arc to ground
    L = np.zeros((K + 1, K + 1))  # ground -> user: 0
    L[:K, :K] = head[:, None] - alpha.alpha
    L[:K, K] = head
    L.flat[:: K + 2] = np.inf  # no arc from a node to itself
    return L


def _cycle_entries(seq) -> tuple:
    """The one cycle check: ``seq`` as a tuple of ints, in its order.

    ``ValueError`` unless the sequence is nonempty and its entries are
    distinct integers (``int`` or numpy integer, not ``bool``).
    """
    t = _entries(seq, "cycle")
    if not t or not all(map(_is_integer, t)):
        raise ValueError(f"cycle must be nonempty integer user indices, got {_shown(t)}")
    t = tuple(map(int, t))
    if len(t) != len(set(t)):
        raise ValueError(f"cycle entries must be distinct, got {t}")
    return t


def _cycle_users(cycle, K: int) -> tuple:
    """``cycle`` as :func:`_cycle_entries` gives it, in its order.

    ``ValueError`` also unless it lists at least two users, each in ``range(K)``.
    """
    seq = _cycle_entries(cycle)
    if len(seq) < 2:
        raise ValueError("cycle needs at least two users")
    if not set(seq) <= set(range(K)):
        raise ValueError(f"invalid cycle {seq} for K={K}")
    return seq


def _distinct_users(users: Iterable[int], name: str) -> list:
    """The one user-list check: the distinct integer ``users``, sorted; else ``ValueError``."""
    idx = list(_entries(users, name))
    if not all(map(_is_integer, idx)):
        raise ValueError(f"{name} must be integer user indices, got {_shown(idx)}")
    return sorted({int(i) for i in idx})


def cycle_blocks(users: Iterable[int]) -> list:
    """Every directed cyclic sequence over the users, one ``(c, m)`` array per length ``m >= 2``.

    The one cycle enumerator.  Sequences start at their smallest user and
    rows are lexicographic, so the blocks in turn are the canonical order;
    ``C(n, m) (m-1)!`` rows of length ``m`` for ``n`` users.  The blocks of
    ``range(n)`` are enumerated once per ``n`` and returned as they are
    cached, read-only; other users are that ``n``'s blocks gathered through
    the sorted users, the same rows in the same order, in new arrays.
    Users that are not integers (:func:`_distinct_users`), or more than
    ``K_MAX_EXPORT`` of them, raise ``ValueError`` before any is enumerated.
    """
    base = _distinct_users(users, "users")
    if len(base) > K_MAX_EXPORT:
        raise ValueError(
            f"cycle enumeration supports at most {K_MAX_EXPORT} users, got {len(base)}"
        )
    blocks = _cycle_blocks(len(base))
    if base == list(range(len(base))):
        return list(blocks)
    of_position = np.array(base, dtype=np.intp)
    return [of_position[C] for C in blocks]


@functools.lru_cache(maxsize=None)  # K_MAX_EXPORT + 1 entries at most: 8.5 MiB, 7.5 of it at n = 9
def _cycle_blocks(n: int) -> tuple:
    """:func:`cycle_blocks` of ``range(n)`` (read-only)."""
    blocks = []
    for m in range(2, n + 1):
        # after its head, a sequence is an ordered choice of m-1 larger users
        rows = itertools.chain.from_iterable(
            (head,) + rest
            for head in range(n)
            for rest in itertools.permutations(range(head + 1, n), m - 1)
        )
        C = np.fromiter(rows, dtype=np.intp).reshape(-1, m)
        C.setflags(write=False)
        blocks.append(C)
    return tuple(blocks)


def canonical_cycle(seq) -> tuple:
    """Rotate a cyclic sequence (see :func:`_cycle_entries`) so its smallest index comes first."""
    return _smallest_first(_cycle_entries(seq))


def _smallest_first(t: tuple) -> tuple:
    """The rotation of ``t`` that starts at its smallest entry."""
    k = t.index(min(t))
    return t[k:] + t[:k]


def _cycle_arcs(a: np.ndarray, C: np.ndarray) -> tuple:
    """``(a[C, C], a[pred, C])``, each ``(c, m)``: each position's direct exponent (off the
    diagonal) and its arc from the predecessor, ``pred = C[:, [m-1, 0, ..., m-2]]``."""
    return a.diagonal()[C], a[C[:, range(-1, C.shape[1] - 1)], C]


def cycle_rhs(alpha: ChannelMatrix, seq):
    """Right-hand sides of the region inequalities ``sum_{i in seq} d_i <= rhs``.

    A ``(c, m)`` integer array of ``c`` sequences of one length ``m`` gives
    the ``(c,)`` array of their right-hand sides: the arc weights
    ``a_{s_j s_j} - a_{s_(j-1) s_j}`` around each sequence (indices wrap,
    :func:`_cycle_arcs`), added from 0 in position order; for ``m = 1``,
    the direct power bound ``a_ii``.  One sequence gives a float by the
    same additions, one per position, in Python floats.
    """
    if np.ndim(seq) != 2:
        return _sequence_rhs(alpha.alpha, tuple(seq))
    C = np.array(seq, dtype=np.intp, ndmin=2)
    if C.shape[1] == 1:
        return alpha.alpha[C[:, 0], C[:, 0]]
    return _arcs_rhs(*_cycle_arcs(alpha.alpha, C))


def _arcs_rhs(direct: np.ndarray, incoming: np.ndarray) -> np.ndarray:
    """The ``(c,)`` right-hand sides of a block from its :func:`_cycle_arcs` gather."""
    return _sum_positions(direct - incoming)


def _sequence_rhs(a: np.ndarray, seq: tuple) -> float:
    """One row of :func:`cycle_rhs`: ``a_ii`` for one user, else ``a_qq - a_pq`` per arc from 0.0."""
    if len(seq) == 1:
        return a.item(seq[0], seq[0])
    rhs = 0.0
    for p, q in zip(seq[-1:] + seq[:-1], seq):
        rhs += a.item(q, q) - a.item(p, q)
    return rhs


def _sum_positions(terms: np.ndarray) -> np.ndarray:
    """Row sums of a ``(c, m)`` array: from 0.0, one IEEE addition per column, in column order."""
    out = np.zeros(len(terms))
    for j in range(terms.shape[1]):
        out += terms[:, j]
    return out


def _certificate_from_cycle(graph: PotentialGraph, cycle: list) -> MembershipCertificate:
    """Normalize a negative circuit to a pure region inequality.

    Circuits through the ground node with more than one user are dominated
    by the circuit that skips ground (dropping ground removes a
    nonnegative exponent from the length), so ground is stripped and the
    reported inequality is always either a direct power bound or a
    user-circuit bound.
    """
    users = _smallest_first(tuple(v for v in cycle if v != graph.ground))  # distinct ints
    rhs = cycle_rhs(graph.alpha, users)
    attained = float(sum(graph.d[u] for u in users))
    return MembershipCertificate(
        feasible=False,
        r=None,
        cycle=users,
        violated_users=users,
        violated_rhs=rhs,
        margin=rhs - attained,
    )


def _circuit_length(L: np.ndarray, cycle: list) -> float:
    """A circuit's length in the graph of lengths ``L``, arc by arc in its order."""
    return sum(L[cycle[k], cycle[(k + 1) % len(cycle)]] for k in range(len(cycle)))


def _band(L: np.ndarray, K: int) -> np.ndarray:
    """A copy of ``L`` (a graph or a stack) with the arcs out of its K users EPS_LENGTH/K longer."""
    band = L.copy()
    band[..., :K, :] += EPS_LENGTH / K
    return band


def _extract_cycle(pred: np.ndarray, start: int) -> list | None:
    """Walk predecessor links from ``start``; return a circuit in arc order.

    None when the walk ends at a node without predecessor (ground's -1).
    """
    seen: dict = {}
    path = []
    x = start
    while x != -1 and x not in seen:
        seen[x] = len(path)
        path.append(x)
        x = int(pred[x])
    if x == -1:
        return None
    loop = path[seen[x]:]
    loop.reverse()  # predecessor order is against the arcs
    return loop


def _relax(into: np.ndarray, dist: np.ndarray, heads: np.ndarray, pred: np.ndarray,
           cand: np.ndarray, rows: np.ndarray, tol: float | None = None):
    """One Jacobi round in place, on one graph or a stack; True when some node improved.

    Every node takes its best in-arc over the old distances:
    ``cand[..., v, u] = into[..., v, u] + heads[..., 0, u]`` (``into`` is
    the transposed length table, ``(n, n)`` or ``(G, n, n)``, and ``heads``
    the view ``dist[..., None, :]``), and a node moves only on a strictly
    smaller candidate, to the lowest source index among equal ones.
    ``cand`` is the pass's scratch buffer and ``rows`` its flat row
    offsets.  With ``tol``, only the graphs with some slack ``dist - best``
    above ``tol`` move (each moves a node, since ``tol >= 0``), and the
    round returns which those are: a numpy bool, or a ``(G,)`` mask.
    """
    np.add(into, heads, out=cand)
    src = cand.argmin(axis=-1)
    best = cand.take(rows + src)
    improved = best < dist
    if tol is None:
        moved = bool(np.count_nonzero(improved))
    else:
        moved = (dist - best).max(axis=-1) > tol
        count = np.count_nonzero(moved)
        if not count:
            return moved
        if count < moved.size:  # some graph of a stack is within tol: it stays
            improved &= moved[..., None]
    np.copyto(dist, best, where=improved)
    np.copyto(pred, src, where=improved)
    return moved


def _slack(into: np.ndarray, dist: np.ndarray, cand: np.ndarray) -> np.ndarray:
    return dist - np.add(into, dist, out=cand).min(axis=1)


def _bellman_ford(lengths: np.ndarray, ground: int, tol: float) -> tuple:
    """Distances from ground after at most ``n - 1`` rounds, and ``None`` if every slack is <= tol.

    On one ``(n, n)`` table or a ``(G, n, n)`` stack, each graph to the bit
    as alone.  The Jacobi rounds (:func:`_relax`) stop at the first one
    that moves no node, when every slack is at most 0 (ground's 0-length
    arcs reach every node in round 1); else one more round moves the graphs
    with a slack above ``tol``.  Their circuits come lazily from predecessor
    walks started at every node in order of decreasing slack after it
    (first index on ties), that order computed on the first ``next()``
    (:func:`_circuits`): a generator, or a dict of one per such graph.
    Which circuit comes first depends on this exact iteration, so
    certificates do too.
    """
    into = np.ascontiguousarray(lengths.swapaxes(-1, -2))
    n = into.shape[-1]
    cand = np.empty(into.shape)
    dist = np.empty(into.shape[:-1])
    dist.fill(np.inf)
    dist[..., ground] = 0.0
    heads = dist[..., None, :]
    pred = np.empty(dist.shape, dtype=np.intp)
    pred.fill(-1)
    rows = np.arange(0, cand.size, n).reshape(dist.shape)
    for _ in range(n - 1):
        if not _relax(into, dist, heads, pred, cand, rows):
            return dist, None
    moved = _relax(into, dist, heads, pred, cand, rows, tol)
    if dist.ndim == 1:
        return dist, _circuits(into, dist, pred, cand) if moved else None
    return dist, {g: _circuits(into[g], dist[g], pred[g], cand[g])
                  for g in np.flatnonzero(moved).tolist()} or None


def _circuits(into: np.ndarray, dist: np.ndarray, pred: np.ndarray, cand: np.ndarray):
    """The circuits of :func:`_bellman_ford`'s last round: predecessor walks from every node
    in order of decreasing slack (first index on ties), that order computed only once a
    circuit is asked for, so a caller that reads none pays no slack scan."""
    for v in np.argsort(-_slack(into, dist, cand), kind="stable"):
        c = _extract_cycle(pred, int(v))
        if c is not None:
            yield c


def _shortest_paths(channel: ChannelMatrix, level: float, departures: bool = False) -> tuple:
    """Shortest-path lengths ``F`` between the users of the potential graph at ``d = level * 1``.

    :func:`_floyd_warshall` over the users plus ground.  With
    ``departures``, also ``H``: the arcs out of a user on each path (every
    arc but ground's), the fewest among paths of equal length; else ``H``
    is None.
    """
    n = channel.K
    D = _lengths(channel, np.full(n, level))
    H = None
    if departures:
        H = np.ones_like(D)
        H[n] = 0.0
    _floyd_warshall(D, H)
    return D[:n, :n], None if H is None else H[:n, :n]


def _floyd_warshall(D: np.ndarray, H: np.ndarray | None = None) -> None:
    """Floyd-Warshall in place on an ``(n, n)`` length table, or on an ``(n, n, G)`` stack of
    them along the last axis, pivots in node order.

    With no arc from a node to itself, ``D[u, u]`` ends as the lightest
    closed walk through ``u``, the box through ground included.  Inside the
    1e-9 band a closed walk can be slightly below 0; taking it into a path
    at its own node would compound it, so no path does: at pivot ``k`` the
    paths through ``k`` that start or end at ``k`` are +inf, and every
    other entry takes ``D[i, k] + D[k, j]`` when it is smaller.  With every
    closed walk at 0 or above that changes nothing.  With ``H``, the hop
    counts of the paths (``H[i, j]`` for the arc ``i -> j`` on entry): an
    entry also moves to an equally long path of fewer hops.  Each table of
    a stack sees the additions and comparisons it sees alone; the stack
    axis is last so that a lone table runs the same code without one.
    """
    for k in range(len(D)):
        via = D[:, k, None] + D[k]
        via[k] = via[:, k] = np.inf  # no path takes the closed walk at k
        if H is None:
            np.minimum(D, via, out=D)
        else:
            hops = H[:, k, None] + H[k]
            better = (via < D) | ((via == D) & (hops < H))
            np.copyto(D, via, where=better)
            np.copyto(H, hops, where=better)


def _subgraph_duals(graph: PotentialGraph, users: np.ndarray) -> tuple:
    """Per increasing row of ``users`` ``(G, n)``: its graph's verdict and, for members, paths.

    Each row's graph is ``graph``'s over those users and ground, entry for
    entry the graph of the sub-channel at the same targets: one
    ``(n+1, n+1, G)`` stack, ground last.  Returns the ``(G,)`` verdicts of
    :func:`decide_membership` on them (:func:`_members`) and, for the
    members in row order, the ``(m, n, n)`` shortest-path lengths between
    the users (:func:`_floyd_warshall`, as :func:`_shortest_paths` has them).
    """
    G, n = users.shape
    nodes = np.empty((n + 1, G), dtype=np.intp)
    nodes[:n] = users.T
    nodes[n] = graph.ground
    D = graph.lengths[nodes[:, None], nodes]
    member = _members(graph, nodes.T, D.transpose(2, 0, 1))
    if not member.all():
        D = D[..., member]
    _floyd_warshall(D)
    return member, np.ascontiguousarray(D[:n, :n].transpose(2, 0, 1))


def _members(graph: PotentialGraph, nodes: np.ndarray, L: np.ndarray) -> np.ndarray:
    """:func:`decide_membership`'s verdict on each graph ``L[g]`` of a ``(G, n, n)`` stack,
    ``graph`` over the increasing nodes ``nodes[g]``, ground last.

    Its tests in its order, each pass one :func:`_bellman_ford` over the
    stack: the plain pass and its circuits, then the band pass over the
    graphs left and their certificates, in ``graph``'s indices (the same
    sums, as the nodes keep their order).
    """
    K = L.shape[-1] - 1
    member = np.ones(len(L), dtype=bool)
    _, circuits = _bellman_ford(L, K, 0.5 * EPS_LENGTH)
    left = []
    for g, walks in (circuits or {}).items():
        if any(_circuit_length(L[g], c) < -EPS_LENGTH for c in walks):
            member[g] = False
        else:
            left.append(g)
    _, circuits = _bellman_ford(_band(L[left], K), K, 0.5 * (EPS_LENGTH / K))
    for k, walks in (circuits or {}).items():
        at = nodes[left[k]]
        member[left[k]] = not any(_certificate_from_cycle(graph, at[c].tolist()).margin < 0
                                  for c in walks)
    return member


def _max_level(channel: ChannelMatrix) -> float:
    """The largest ``t`` with ``t * 1`` in the region (no band): the minimum cycle mean.

    Ground's arcs are 0, so a walk through ground folds into the arc of
    the user before it: on the users alone, ``u -> v`` weighs the shorter
    of ``u``'s arcs to ``v`` and to ground, and the loop at ``u`` its arc
    to ground.  Every arc leaves a user, so at ``d = t * 1`` each loses
    ``t``.  Karp's minimum cycle mean (Karp 1978) over walks of up to K arcs.
    """
    n = channel.K
    L = _graph(channel, np.zeros(n)).lengths
    M = np.minimum(L[:n, :n], L[:n, n, None])
    D = np.zeros((n + 1, n))  # D[k, v]: the lightest walk of k arcs ending at v
    for k in range(n):
        D[k + 1] = (D[k][:, None] + M).min(axis=0)
    return float(((D[n] - D[:n]) / (n - np.arange(n))[:, None]).max(axis=0).min())


def _feasible(graph: PotentialGraph, dist: np.ndarray) -> MembershipCertificate:
    """Potentials normalized to ground 0; a round-off residue above 0 is clamped.

    The clamp keeps ``min(0.0, x)``'s zero: +0.0 for a residue of 0.0 or
    -0.0 (``np.minimum`` would keep -0.0), one shared float object, so a
    certificate holds a new float only per user below ground.  The
    entries are finite and at most 0 by construction, so the allocation
    skips its per-entry check.
    """
    x = (dist[: graph.K] - dist[graph.ground]).tolist()
    r = PowerExponents._of_checked(tuple(v if v < 0.0 else 0.0 for v in x))
    return MembershipCertificate(feasible=True, r=r)


def decide_membership(graph: PotentialGraph) -> MembershipCertificate:
    """Decide ``d`` by Bellman-Ford from ground, with a certificate either way.

    The plain pass runs on the graph for ``d``.  Potentials with slack at
    most ``EPS_LENGTH / 2`` give ``r_i`` = shortest-path distance from
    ground to user ``i`` (the pointwise-largest valid potential, <= 0);
    else the first predecessor circuit shorter than ``-EPS_LENGTH`` is the
    violated inequality (margin = circuit length for pure circuits).  Only
    when it gives neither, the band pass runs on the graph for
    ``d - EPS_LENGTH / K``, where every such circuit stays negative.  Its
    first predecessor circuit whose inequality ``d`` violates is the
    certificate; else its potentials clamped to <= 0 are, which meet ``d``
    within ``EPS_LENGTH`` but are pointwise-largest only for the shifted
    target.  In exact arithmetic a band pass that misses its convergence
    test (slack at most half the shift) always has such a circuit.

    A pass costs one ``(K+1)^2`` candidate sweep per round.  A member stops
    at its first round that moves nothing (a median of 4 on seeded boundary
    points at K 4 to 100), or after the sweep of round ``K + 1`` when its
    slacks are within the tolerance; a non-member always runs ``K + 1``
    rounds, since its certificate is read from the predecessors of that
    exact iterate.  That round's sweep doubles as the convergence test, so
    a non-member makes ``K + 2`` sweeps: its rounds and one slack scan to
    order the predecessor walks.
    """
    dist, circuits = _bellman_ford(graph.lengths, graph.ground, 0.5 * EPS_LENGTH)
    if circuits is None:
        return _feasible(graph, dist)
    L = graph.lengths
    for c in circuits:
        if _circuit_length(L, c) < -EPS_LENGTH:
            return _certificate_from_cycle(graph, c)
    dist, circuits = _bellman_ford(_band(L, graph.K), graph.ground, 0.5 * (EPS_LENGTH / graph.K))
    for c in circuits or ():
        cert = _certificate_from_cycle(graph, c)
        if cert.margin < 0:
            return cert
    return _feasible(graph, dist)


def recover_power_allocation(alpha: ChannelMatrix, d) -> MembershipCertificate:
    """Decide achievability of a nonnegative GDoF target and recover powers.

    On success the returned exponents satisfy componentwise
    ``polyhedral_tin_gdof(alpha, r) >= d`` up to :data:`EPS_LENGTH`.
    """
    return decide_membership(_graph(alpha, _exponent_vector(d, alpha.K, "d")))
