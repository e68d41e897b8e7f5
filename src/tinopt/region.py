"""Achievable GDoF regions as explicit systems of linear inequalities.

The relaxed scheme's region for a fixed set of silenced users is a
polyhedron cut out by per-user boxes ``0 <= d_i <= a_ii`` and one sum
inequality per directed cyclic sequence of active users.  The full
TIN-achievable set is the union of these polyhedra over all silent sets;
under the per-user optimality condition the union collapses to the
all-active polyhedron.

Indices are 0-based throughout.  The sum inequalities are ``potential_graph``'s,
and so is every shortest path read here from a region's graph: its verdict
at ``d = 0`` is the region's emptiness, its Floyd-Warshall table the
support values and its Karp minimum cycle mean the largest level ``t * 1``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

from .channel_model import SILENT, ChannelMatrix, PowerExponents, _exponent_vector
from .potential_graph import (
    EPS_LENGTH,
    K_MAX_EXPORT,  # re-exported, like canonical_cycle and cycle_blocks
    MembershipCertificate,
    _bellman_ford,
    _distinct_users,
    _graph,
    _max_level,
    _shortest_paths,
    _target_vector,
    canonical_cycle,  # re-exported: part of this module's interface
    cycle_blocks,
    cycle_rhs,
    decide_membership,
)

#: :func:`general_tin_region` is refused beyond this many users, a limit set
#: from measured cost (README, "Regions"): its 2^K support tables hold 3^K
#: values, each table from one assignment DP, and it compares up to 3^K pairs
#: of tables.
K_MAX_UNION = 11

#: Newton steps of :func:`max_weighted_gdof`'s max-min tie-break before it
#: gives up; each step uses a new line below a concave piecewise-linear
#: function, and a handful settle every measured case (README, "Numerical
#: conventions").
NEWTON_STEPS_MAX = 64


def enumerate_cycles(users: Iterable[int]) -> list:
    """The sequences of :func:`cycle_blocks` as one list of tuples, in canonical order."""
    return [tuple(seq) for C in cycle_blocks(users) for seq in C.tolist()]


@dataclass(frozen=True)
class LinearInequality:
    """``sum_{i in users} d_i <= rhs``; users kept in cyclic-sequence order."""

    users: tuple
    rhs: float


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """One silent-set region of a channel.

    Silenced users are pinned to zero; every active user has the box
    ``0 <= d_i <= box_ub[i]`` (its direct exponent ``a_ii``).  Membership
    uses the channel's potential graph, and support values (the optimizers
    and the union) its cached shortest-path table; ``rows``, the sum
    inequalities in canonical order as per-length arrays, are built on
    first read.  ``cycles`` is the benchmark's view of them.
    """

    channel: ChannelMatrix
    silent: frozenset

    @property
    def K(self) -> int:
        return self.channel.K

    @cached_property
    def active(self) -> tuple:
        return tuple(i for i in range(self.K) if i not in self.silent)

    @cached_property
    def box_ub(self) -> np.ndarray:
        ub = np.diag(self.channel.alpha).copy()
        ub[list(self.silent)] = 0.0
        ub.setflags(write=False)
        return ub

    @cached_property
    def rows(self) -> tuple:
        """Per cycle length, the ``(c, m)`` sequences of :func:`cycle_blocks` over the active
        users and their ``(c,)`` right-hand sides; more than ``K_MAX_EXPORT`` are refused first."""
        return tuple((C, cycle_rhs(self.channel, C)) for C in cycle_blocks(self.active))

    @cached_property
    def cycles(self) -> tuple:
        """:attr:`rows` as one inequality per cyclic sequence, in canonical order."""
        return tuple(itertools.chain.from_iterable(  # zip of C's columns: its rows as tuples
            map(LinearInequality, zip(*C.T.tolist()), rhs.tolist()) for C, rhs in self.rows))

    def contains(self, d) -> bool:
        """After :func:`_target_vector`, whatever the pins: zero-pins and signs within
        ``EPS_LENGTH``, then the potential graph's circuit test."""
        dv = _target_vector(d, self.K)
        if np.any(np.abs(dv[list(self.silent)]) > EPS_LENGTH) or np.any(dv < -EPS_LENGTH):
            return False
        return _membership(self, dv).feasible

    @cached_property
    def _active_channel(self) -> ChannelMatrix:
        """The active users' channel, indexed here: the region's own users skip the check
        that ``ChannelMatrix.restrict`` makes of a caller's."""
        if not self.silent:
            return self.channel
        active = list(self.active)
        return ChannelMatrix(self.channel.alpha[active][:, active])

    @cached_property
    def _paths(self) -> np.ndarray | None:
        """The region's dual: shortest-path lengths ``F`` between the active users; None when empty.

        ``potential_graph._shortest_paths`` on the active users' graph at
        ``d = 0``.  The region is empty when that graph's circuit test
        refuses ``d = 0`` (the 1e-9 band of :meth:`contains`).
        """
        if not self.active:
            return np.zeros((0, 0))
        zeros = np.zeros(len(self.active))
        if not decide_membership(_graph(self._active_channel, zeros)).feasible:
            return None
        return _shortest_paths(self._active_channel, 0.0)[0]

    @cached_property
    def _t_max(self) -> float:
        """The largest level ``t`` with ``t * 1`` in the region, from the active users'
        graph: ``potential_graph._max_level`` (Karp), O(n^3), once per region."""
        return _max_level(self._active_channel)

    @cached_property
    def _support_table(self) -> np.ndarray:
        """``h(U)`` for every set ``U`` of active users, by bit mask over :attr:`active`.

        The cheapest assignment on ``F[U, U]`` (Kuhn 1955), clamped at 0 as
        in :func:`max_subset_sum`, for all ``U`` at once: one dynamic
        program over pairs of a row set and a column set of one size, the
        highest row of the set matched last.  Row costs are added in
        ascending row order, from 0.  -inf everywhere when the region is empty.
        """
        F = self._paths
        n = len(self.active)
        if F is None:
            return np.full(1 << n, -math.inf)
        table = np.empty(1 << n)
        rank = np.empty(1 << n, dtype=np.intp)  # a mask's index among the masks of its size
        best = np.zeros((1, 1))  # by (row set, column set) ranks, sets of the last size
        for of_m, members in _masks(n)[1]:
            rank[of_m] = np.arange(len(of_m))
            if members.shape[1]:
                top = members[:, -1]
                rows = rank[of_m ^ (1 << top)]  # the row set without its top row
                cols = rank[of_m[:, None] ^ (1 << members)]  # the column set without each member
                best = (best[rows[:, None, None], cols] + F[top[:, None, None], members]).min(axis=2)
            table[of_m] = np.maximum(0.0, best.diagonal())
        return table

    def to_dict(self) -> dict:
        """Boxes and cycle rows; refuses more than ``K_MAX_EXPORT`` active users."""
        return {
            "K": self.K,
            "silent": sorted(self.silent),
            "boxes": [
                {"user": i, "ub": float(self.box_ub[i])} for i in self.active
            ],
            "cycles": [
                {"seq": seq, "rhs": b}
                for C, rhs in self.rows
                for seq, b in zip(C.tolist(), rhs.tolist())
            ],
        }


def _user_indices(users: Iterable[int], K: int, name: str) -> list:
    """:func:`_distinct_users`, each also in ``range(K)``."""
    idx = _distinct_users(users, name)
    if idx and not (idx[0] >= 0 and idx[-1] < K):
        raise ValueError(f"{name} {idx} out of range for K={K}")
    return idx


def polyhedral_region(alpha: ChannelMatrix, silent: Iterable[int] = ()) -> Polyhedron:
    """Region of the relaxed scheme with the given users silenced.

    Its ``rows``, every cyclic-sequence inequality over the active users
    (dominated ones too, see :func:`minimized`), are built on first read.
    Silent users must be integer indices in range, not ``bool``.
    """
    return Polyhedron(channel=alpha, silent=frozenset(_user_indices(silent, alpha.K, "silent set")))


def _membership(poly: Polyhedron, d: np.ndarray) -> MembershipCertificate:
    """Circuit test of ``d`` on the potential graph of ``poly``'s active users.

    ``d`` is a float vector of ``K`` entries at most ``EXPONENT_MAX`` in
    magnitude; its silent coordinates are not read.  The certificate is in
    full-K indices: SILENT powers on silent users, cycles in original
    indices.  With no user silent it is the graph's certificate as it is.
    """
    if not poly.silent:
        return decide_membership(_graph(poly.channel, d))
    active = poly.active
    r_full = [SILENT] * poly.K
    if active:
        cert = decide_membership(_graph(poly._active_channel, d[list(active)]))
        if not cert.feasible:
            cycle = tuple(active[u] for u in cert.cycle)
            return replace(cert, cycle=cycle, violated_users=cycle)
        for pos, user in enumerate(active):
            r_full[user] = cert.r[pos]
    return MembershipCertificate(feasible=True, r=PowerExponents._of_checked(tuple(r_full)))


def minimized(poly: Polyhedron) -> Polyhedron:
    """Drop cycle inequalities implied by the boxes or by an earlier kept inequality.

    ``sum_U d <= b`` is implied by ``sum_U' d <= b'`` with ``U' subset U``
    and the boxes when ``b' + sum_{U \\ U'} ub <= b + 1e-12`` (the boxes
    alone: ``U' = empty``); the slack is rounding in these short sums, not
    the 1e-9 band.  Rows go in canonical order, so ties keep the earlier
    inequality, and a later, smaller row on the same users drops no kept
    one: the result need not be irredundant.  Supports are bit masks over
    the active users: box sums are added in ascending user order, each
    support keeps its smallest kept right-hand side, and the best bound
    from its proper subsets (all shorter, so done with) is taken once per
    support, before its length's rows are read.  Refuses more than
    ``K_MAX_EXPORT`` active users first.
    """
    rows = poly.rows
    box = [0.0]  # box[U]: sum of ub over U, in ascending user order
    for ub in poly.box_ub[list(poly.active)].tolist():
        box += [s + ub for s in box]
    best = [math.inf] * len(box)  # smallest kept rhs per support
    best[0] = 0.0  # the empty support, so that the subset bound covers the boxes
    kept = []
    for C, rhs in rows:
        supports = (1 << np.searchsorted(poly.active, C)).sum(axis=1).tolist()  # bit masks
        # min over proper subsets U' of best[U'] + box[U - U']
        bound = {U: min(best[S] + box[U ^ S] for S in _proper_submasks(U))
                 for U in dict.fromkeys(supports)}
        keep = []
        for k, (U, b) in enumerate(zip(supports, rhs.tolist())):
            if min(bound[U], best[U]) > b + 1e-12:
                keep.append(k)
                best[U] = min(best[U], b)
        kept.append((C[keep], rhs[keep]))
    out = Polyhedron(channel=poly.channel, silent=poly.silent)
    out.__dict__["rows"] = tuple(kept)  # the same region, exporting the kept rows
    return out


def _proper_submasks(U: int):
    """Every submask of ``U`` except ``U`` itself, the empty mask last."""
    S = U
    while S:
        S = (S - 1) & U
        yield S


class EmptyPolyhedronError(ValueError):
    """Raised when an operation needs a point of an empty region."""


class UncertifiedPointError(ArithmeticError):
    """Raised when :func:`max_weighted_gdof` cannot certify its point.

    Either the point fails the 1e-9 re-check, which happens once rounding
    in sums of exponents exceeds that absolute band (README, "Numerical
    conventions"), or the max-min tie-break has not settled after
    ``NEWTON_STEPS_MAX`` Newton steps.
    """


@functools.lru_cache(maxsize=None)
def _masks(n: int) -> tuple:
    """Every bit mask over ``n`` users (read-only): its bits as a row, lowest first, and
    per set size ``m`` the masks of that size with their ``(c, m)`` member positions."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    size = bits.sum(axis=1)
    of_size = [np.flatnonzero(size == m) for m in range(n + 1)]
    by_size = tuple((U, np.nonzero(bits[U])[1].reshape(len(U), m)) for m, U in enumerate(of_size))
    for a in (bits, *itertools.chain.from_iterable(by_size)):
        a.setflags(write=False)
    return bits, by_size


def _transport(F: np.ndarray, w: np.ndarray, prices: tuple | None = None) -> tuple:
    """Cheapest flow on costs ``F`` with row and column sums ``w`` (every ``w > 0``).

    Returns ``(value, x, (u, v))``: the cost, the flow and the prices.
    Successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*,
    ch. 9): prices ``u``, ``v`` keep the reduced costs ``F - u - v``
    nonnegative and zero where flow runs.  They start from the row and
    column minima, or with ``prices`` given (from any costs of this
    shape), from its column prices lifted to ``u = min_j (F - v)`` and
    then ``v = min_i (F - u)``: dual feasible for ``F`` whatever ``v``
    was, and each row and column tight somewhere.  The start fills the
    arcs at zero greedily.  Each round a Dijkstra over the
    columns, from every row with supply left and back through the rows
    that feed a finished column, finishes all columns at the least
    distance at once until one has demand left; the prices move by the
    distances, and the path's bottleneck is sent.  The bottleneck sets the
    supply, demand or flow that it empties to exactly 0.

    Every round runs on Python floats, one number at a time: the reduced
    costs ``(F_ij - u_i) - v_j`` of a row when the round first reads it,
    each column's first start row at its least reduced cost, the
    relaxation ``D + reduced cost`` from each newly reached row in
    ascending order (a column moves only on a strictly smaller candidate,
    so the first row at the least one wins), and the price updates
    ``u_i - min(drow_i, D)`` and ``v_j + min(dcol_j, D)``.  A level's
    least distance and the columns tied at it come in ascending order
    (``min``, ``list.index``, ``list.count``), and the unreached rows that
    carry flow into them from per-column lists of the rows whose flow is
    above 0, each entered from its first such column.  Only the value is
    array work, ``(F * x).sum()``.  Every comparison, tie rule and
    floating-point operation is the array formulation's
    (``tests/_oracles.oracle_transport``), so value and flow agree with it
    bit for bit and prices as numbers; README, "Numerical conventions",
    has the sign of a zero price and the time per call.
    """
    C = F.tolist()
    n = len(C)
    inf = math.inf
    v = [min(col) for col in zip(*C)] if prices is None else prices[1].tolist()
    u = [min([f - vj for f, vj in zip(row, v)]) for row in C]
    if prices is not None:
        v = [min([f - ui for f, ui in zip(col, u)]) for col in zip(*C)]
    x = [[0.0] * n for _ in range(n)]
    fed = [[] for _ in range(n)]  # per column, the rows whose flow into it is above 0
    supply, demand = w.tolist(), w.tolist()
    for i, (row, ui) in enumerate(zip(C, u)):
        for j, (f, vj) in enumerate(zip(row, v)):
            if f - ui - vj <= 0:
                x[i][j] = delta = min(supply[i], demand[j])
                supply[i] -= delta
                demand[j] -= delta
                if delta > 0:
                    fed[j].append(i)
    while any(supply) and any(demand):
        unreached = [not s > 0 for s in supply]
        drow = [0.0 if s > 0 else inf for s in supply]
        pcol = {}  # the finished column each reached row was entered from
        dcol, prow = [inf] * n, [0] * n  # each column's distance, and the row it comes from
        for i, s in enumerate(supply):
            if s > 0:
                ui = u[i]
                for j, (f, vj, d) in enumerate(zip(C[i], v, dcol)):
                    if f - ui - vj < d:
                        dcol[j] = f - ui - vj
                        prow[j] = i
        todo = dcol.copy()  # inf once finished
        while True:
            D = min(todo)
            j = todo.index(D)
            if demand[j] > 0:
                break
            J = [j]  # the columns at D, in ascending order, up to the first with demand
            for _ in range(todo.count(D) - 1):
                j = todo.index(D, j + 1)
                if demand[j] > 0:
                    break
                J.append(j)
            if demand[j] > 0:
                break
            new = []
            for c in J:
                todo[c] = inf
                for r in fed[c]:
                    if unreached[r]:
                        unreached[r] = False
                        pcol[r] = c
                        new.append(r)
            for i in sorted(new):
                drow[i] = D
                ui = u[i]
                for c, (f, vj, t) in enumerate(zip(C[i], v, todo)):
                    if t < inf:
                        cand = D + (f - ui - vj)
                        if cand < t:
                            todo[c] = dcol[c] = cand
                            prow[c] = i
        u = [ui - (D if D < d else d) for ui, d in zip(u, drow)]  # min(d, D)
        v = [vj + (D if D < d else d) for vj, d in zip(v, dcol)]
        i = prow[j]
        fwd, back = [(i, j)], []
        while i in pcol:
            back.append((i, pcol[i]))
            i = prow[pcol[i]]
            fwd.append((i, back[-1][1]))
        delta = min([supply[i], demand[j]] + [x[r][c] for r, c in back])
        supply[i] -= delta
        demand[j] -= delta
        for r, c in fwd:
            if not x[r][c] > 0:
                fed[c].append(r)
            x[r][c] += delta
        for r, c in back:
            x[r][c] -= delta
            if not x[r][c] > 0:
                fed[c].remove(r)
    x = np.array(x, dtype=float).reshape(n, n)
    return float((F * x).sum()), x, (np.array(u, dtype=float), np.array(v, dtype=float))


def _arrival_slack(F: np.ndarray, x: np.ndarray, prices: tuple) -> np.ndarray:
    """A point ``e >= 0`` with ``w . e`` the transport's cost, every cycle of ``F`` within its length.

    Complementary slackness for the flow ``x`` of :func:`_transport`:
    each user ``j`` is an arrival node and a departure node, with arcs
    departure ``i`` -> arrival ``j`` of length ``F[i, j]``, back along
    every arc that carries flow at ``-F[i, j]``, and arrival ``j`` ->
    departure ``j`` at 0.  With ``x`` optimal this residual graph has no
    negative cycle, so Bellman-Ford from the transport's prices gives
    potentials ``p``, and ``e = p_arrival - p_departure``: 0 or above by
    the arcs at 0, and along any cycle of users ``sum e <= sum F``.  It is
    ``potential_graph._bellman_ford`` at tol 0 from a source whose arcs,
    the prices (arrival ``v``, departure ``-u``; -0.0 as +0.0), round 1
    copies; at most ``2m`` rounds follow, and no circuit is read.
    """
    m = len(F)
    R = np.full((2 * m + 1, 2 * m + 1), np.inf)  # arrivals 0..m-1, departures, the source
    R[m:-1, :m] = F
    R[:m, m:-1] = np.where(x.T > 0, -F.T, np.inf)
    arrive = np.arange(m)
    R[arrive, m + arrive] = np.minimum(0.0, R[arrive, m + arrive])
    u, v = prices
    R[-1, :-1] = np.concatenate([v, -u])
    p, _ = _bellman_ford(R, 2 * m, 0.0)
    return p[:m] - p[m:-1]


def _max_min_point(poly: Polyhedron, w: np.ndarray, value: float) -> np.ndarray:
    """The active coordinates of a maximizer of ``w . d`` whose least coordinate is largest.

    At level ``t`` the points ``d >= t * 1`` of the region are ``t * 1 + e``
    with ``e >= 0`` in the region of the potential graph at ``d = t * 1``,
    so the best value among them is ``t W + T(F_t)``: ``W = sum w``, and
    ``T`` the transportation cost (:func:`_transport`) on that graph's
    paths ``F_t``.  ``phi(t) = t W + T(F_t) - value`` is concave, 0 up to
    the max-min level ``t*`` and below 0 after it.  Newton's method from
    the right (Dinkelbach's, for the parametric problem) starts at
    ``min(value / W, t_max)``, ``t_max`` from :attr:`Polyhedron._t_max`, and takes
    the slope ``W - sum x_ij H_ij`` of the flow's own paths.  ``phi`` is
    the least of finitely many lines, one per flow and choice of paths;
    the step follows the current one, which lies on or above ``phi``, so
    no step passes ``t*`` and no line is used twice.  Each step's prices
    start the next, lifted to ``F_t`` by :func:`_transport`.  The point is
    ``t* * 1 + e`` with ``e`` from :func:`_arrival_slack`, 0 on users of
    weight 0.  The level stays at 0 or above (the region has ``d >= 0``)
    unless ``t_max`` is below 0, where a cycle dips into the 1e-9 band and
    ``t_max`` is the one level left; a value of 0 gives the origin, and
    all weights 0 give ``max(0, t_max) * 1``.  Raises
    :class:`UncertifiedPointError` after ``NEWTON_STEPS_MAX`` steps.
    """
    n = len(w)
    W = float(w.sum())
    top = poly._t_max
    if W == 0.0:
        return np.full(n, max(0.0, top))
    if value == 0.0:
        return np.zeros(n)
    pos = np.flatnonzero(w > 0)
    sub = np.ix_(pos, pos)
    floor = min(0.0, top)
    t = max(floor, min(value / W, top))
    prices = None
    for _ in range(NEWTON_STEPS_MAX):
        F, H = _shortest_paths(poly._active_channel, t, departures=True)
        cost, x, prices = _transport(F[sub], w[pos], prices)
        phi = t * W + cost - value
        # phi is exactly 0 at t*; what is left is rounding in the sums
        if t == floor or phi >= -2.0 ** -50 * (abs(t) * W + abs(cost) + value):
            break
        slope = W - float((x * H[sub]).sum())
        below = max(floor, t - phi / slope) if slope < 0 else t
        if below >= t:
            break
        t = below
    else:
        raise UncertifiedPointError(
            f"the max-min tie-break did not settle in {NEWTON_STEPS_MAX} Newton steps")
    d = np.full(n, t)
    d[pos] += _arrival_slack(F[sub], x, prices)
    return d


def max_weighted_gdof(poly: Polyhedron, weights) -> tuple:
    """Maximize ``sum w_i d_i`` over the region; returns ``(value, point)``.

    Weights in ``[0, EXPONENT_MAX]`` are scaled exactly by a power of two
    to below 1.  The value is the cheapest transportation (:func:`_transport`)
    on the region's shortest-path table over the active users of positive
    weight, with marginals ``w``, read as 0 when below 0; no LP.  Among
    the maximizers the point is a max-min fair one over the active users
    (:func:`_max_min_point`), so symmetric instances return symmetric
    maximizers; silent users are exactly 0.  The point is re-checked by
    :meth:`Polyhedron.contains` and against the scaled value within 1e-9.
    Raises :class:`EmptyPolyhedronError` when the region is empty and
    :class:`UncertifiedPointError` when the point fails its re-check.
    """
    w = _exponent_vector(weights, poly.K, "weights")
    F = poly._paths
    if F is None:
        raise EmptyPolyhedronError("region is empty")
    e = max(0, math.frexp(float(w.max()))[1])
    w = np.ldexp(w, -e)  # exact: the value scales by 2^-e, the point not at all
    active = list(poly.active)
    wa = w[active]
    pos = np.flatnonzero(wa > 0)
    value = max(0.0, _transport(F[np.ix_(pos, pos)], wa[pos])[0])
    point = np.zeros(poly.K)
    if active:
        point[active] = _max_min_point(poly, wa, value)
    if not poly.contains(point) or abs(float(w @ point) - value) > EPS_LENGTH:
        raise UncertifiedPointError("optimizer returned an uncertifiable point")
    return math.ldexp(value, e), point


def max_subset_sum(poly: Polyhedron, users: Iterable[int]) -> float:
    """sup of ``sum_{i in users} d_i`` over the region (-inf when empty).

    The support LP's dual is a min-cost circulation on the potential graph
    in which every user of ``users`` carries at least one unit; with
    unbounded arcs it is the cheapest assignment on those active users with
    the shortest-path costs ``F`` (Ahuja, Magnanti & Orlin, *Network
    Flows*, ch. 9-12; Kuhn 1955), 0 for the empty set, solved as the
    transportation with unit marginals (:func:`_transport`).  The origin
    is a member of a region that is not empty, so the value is 0 or above;
    a cost below 0 comes from closed walks inside the 1e-9 band and reads
    0.  Users must be integer indices in range, not ``bool``.
    """
    idx = _user_indices(users, poly.K, "users")
    F = poly._paths
    if F is None:
        return -math.inf
    pos = [k for k, u in enumerate(poly.active) if u in idx]
    return max(0.0, _transport(F[np.ix_(pos, pos)], np.ones(len(pos)))[0])


def poly_contains(outer: Polyhedron, inner: Polyhedron) -> bool:
    """Exact containment test ``inner subset outer`` from the two regions' support tables.

    Both regions are down-closed with 0/1 rows, so each is exactly
    ``{d >= 0 : sum_U d <= h(U) for every U}`` with ``h`` its support
    value (:func:`max_subset_sum`).  So ``inner`` lies in ``outer`` exactly
    when ``h_inner({i}) <= EPS_LENGTH`` for every outer silent user ``i`` active
    inside, and ``h_inner(U) <= h_outer(U) + EPS_LENGTH`` for every set ``U`` of
    users active in both, the empty set included: an empty region has
    ``h = -inf`` everywhere, so an empty outer region contains only an
    empty inner one.  Pinning users of a down-closed region to 0 does not
    change its support on the others, so each table depends on its own
    region alone (:attr:`Polyhedron._support_table`).
    """
    if outer.K != inner.K:
        raise ValueError("dimension mismatch")
    pinned = [k for k, u in enumerate(inner.active) if u in outer.silent]
    if any(inner._support_table[1 << k] > EPS_LENGTH for k in pinned):
        return False
    shared = [u for u in inner.active if u not in outer.silent]
    return bool(np.all(_table_on(inner, shared) <= _table_on(outer, shared) + EPS_LENGTH))


def _table_on(poly: Polyhedron, users: list) -> np.ndarray:
    """``poly``'s support table on the subsets of its active ``users``, by mask over ``users``."""
    pos = np.array([poly.active.index(u) for u in users], dtype=np.intp)
    return poly._support_table[_masks(len(pos))[0] @ (1 << pos)]


@dataclass(frozen=True)
class RegionComponent:
    silent: frozenset
    polyhedron: Polyhedron
    subsumed_by: frozenset | None

    def to_dict(self) -> dict:
        return {
            "silent": sorted(self.silent),
            "subsumed_by": sorted(self.subsumed_by)
            if self.subsumed_by is not None
            else None,
            "polyhedron": self.polyhedron.to_dict(),
        }


def general_tin_region(alpha: ChannelMatrix) -> list:
    """All silent-set polyhedra whose union is the TIN-achievable set.

    Every component carries a ``subsumed_by`` flag naming the first other
    silent set whose polyhedron contains it (:func:`poly_contains`, which
    compares the two regions' support tables; no LP and no cycle row), so
    the irredundant union is the components with flag ``None``.  Of two
    equal regions only the earlier silent set in the canonical order stays
    unflagged: a later silent set flags ``S`` only when ``S``'s region does
    not also contain its own.  So following flags always ends at an
    unflagged component.  Only sets of users of ``S`` and users whose
    direct exponent is at most 1e-12 are scanned as containers, in
    canonical order (``3^K`` in all when no direct exponent is 0); a
    container silencing another user, possible when ``S``'s region is
    empty or pins that user to 0, is missed.  More than ``K_MAX_UNION``
    users are refused before any region is built.
    """
    K = alpha.K
    if K > K_MAX_UNION:
        raise ValueError(
            f"the union supports at most {K_MAX_UNION} users, got {K}"
        )
    order = list(_canonical_sets(range(K)))
    rank = {S: k for k, S in enumerate(order)}
    polys = {S: polyhedral_region(alpha, S) for S in order}
    diag = np.diag(alpha.alpha)
    degenerate = {i for i in range(K) if diag[i] <= 1e-12}
    components = []
    for k, S in enumerate(order):
        subsumed_by = next((
            T for T in _canonical_sets(sorted(S | degenerate))
            if T != S and poly_contains(polys[T], polys[S])
            and not (rank[T] > k and poly_contains(polys[S], polys[T]))  # equal: the earlier stays
        ), None)
        components.append(RegionComponent(S, polys[S], subsumed_by))
    return components


def _canonical_sets(users):
    """The subsets of the sorted ``users`` as frozensets, by size, then lexicographic."""
    for m in range(len(users) + 1):
        yield from map(frozenset, itertools.combinations(users, m))


@dataclass(frozen=True)
class TinMembership:
    """Verdict of the union membership test with its certificate.

    ``silent`` is the zero set the point was matched against; the
    certificate's power exponents are SILENT there and finite elsewhere.
    """

    inside: bool
    silent: frozenset
    certificate: MembershipCertificate

    def to_dict(self) -> dict:
        out = {"in_region": bool(self.inside), "silent": sorted(self.silent)}
        out.update(self.certificate.to_dict())
        return out


def point_in_tin_region(alpha: ChannelMatrix, d) -> TinMembership:
    """Decide whether a nonnegative tuple is TIN-achievable.

    Only the silent set equal to the point's zero coordinates (at most
    ``EPS_LENGTH``) needs checking: forcing extra coordinates of a silent
    set to zero only removes cycle constraints, so membership in any
    smaller-support component implies membership in the zero-set component.
    """
    dv = _exponent_vector(d, alpha.K, "d")
    Z = frozenset(np.flatnonzero(dv <= EPS_LENGTH).tolist())
    cert = _membership(Polyhedron(channel=alpha, silent=Z), dv)
    return TinMembership(cert.feasible, Z, cert)


def _check_vertex_users(poly: Polyhedron) -> None:
    """Refuse vertex enumeration beyond 4 active users; read before any row is built."""
    if len(poly.active) > 4:
        raise ValueError("vertex enumeration supports at most 4 active users")


def polyhedron_vertices(poly: Polyhedron) -> np.ndarray:
    """Vertex enumeration by brute-force tight-set intersection (small K).

    Intended for CSV export and plotting; refuses more than 4 active
    users, where the inequality family is still tiny.  A tight set's rows
    are integer, so a determinant below 1e-12 is 0 up to rounding; vertices
    equal to 9 decimals, the 1e-9 band, are one.
    """
    _check_vertex_users(poly)
    active = poly.active
    na = len(active)
    if na == 0:
        return np.zeros((1, poly.K))
    eye = np.eye(na)
    A = [np.stack([eye, -eye], axis=1).reshape(2 * na, na)]  # d_i <= ub_i, -d_i <= 0 per user
    b = [np.stack([poly.box_ub[list(active)], np.zeros(na)], axis=1).ravel()]
    for C, rhs in poly.rows:
        block = np.zeros((len(C), na))
        block[np.arange(len(C))[:, None], np.searchsorted(active, C)] = 1.0
        A.append(block)
        b.append(rhs)
    A = np.vstack(A)
    b = np.concatenate(b)
    seen = set()
    verts = []
    for combo in itertools.combinations(range(len(A)), na):
        M = A[list(combo)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, b[list(combo)])
        if np.any(A @ x > b + EPS_LENGTH):
            continue
        key = tuple(np.round(x, 9))
        if key in seen:
            continue
        seen.add(key)
        full = np.zeros(poly.K)
        full[list(active)] = x
        verts.append(full)
    verts.sort(key=lambda v: tuple(v))
    return np.array(verts).reshape(-1, poly.K)  # (0, K) for an empty region
