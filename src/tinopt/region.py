"""Achievable GDoF regions as explicit systems of linear inequalities.

The relaxed scheme's region for a fixed set of silenced users is a
polyhedron cut out by per-user boxes ``0 <= d_i <= a_ii`` and one sum
inequality per directed cyclic sequence of active users.  The full
TIN-achievable set is the union of these polyhedra over all silent sets;
under the per-user optimality condition the union collapses to the
all-active polyhedron.

Indices are 0-based throughout.  Inequalities are kept in a canonical
order (cycle size, then lexicographic on the canonical rotation) so that
serialized regions are byte-stable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .channel_model import SILENT, ChannelMatrix, PowerExponents
from .potential_graph import (
    EPS_LENGTH,
    MembershipCertificate,
    arc_weights,
    build_graph,
    canonical_cycle,  # re-exported: part of this module's interface
    cycle_rhs,
    decide_membership,
)

#: Cycle enumeration is refused beyond this many users; the inequality
#: family grows factorially.
K_MAX_CYCLES = 12

#: :func:`general_tin_region` is refused beyond this many users, a limit set
#: from measured cost (README, "Regions"): it compares up to 3^K pairs of
#: silent sets.
K_MAX_UNION = 9

#: Cycle rows are exported (``Polyhedron.to_dict``, :func:`minimized` and the
#: gap certificates' per-cycle bounds) for at most this many active users,
#: a limit set from measured cost (README, "Exporting cycle rows"): at 9
#: users (125,664 rows) ``tinopt region`` takes about 4 s and 350 MB, at 10
#: users (1,112,073 rows) about 28 s and 2.6 GB.
K_MAX_EXPORT = 9

def cycle_blocks(users: Iterable[int]) -> list:
    """Every directed cyclic sequence over the users, one ``(c, m)`` array per length ``m >= 2``.

    The one cycle enumerator.  Sequences start at their smallest user and
    rows are lexicographic, so the blocks in turn are the canonical order;
    ``C(n, m) (m-1)!`` rows of length ``m`` for ``n`` users.  More than
    ``K_MAX_CYCLES`` users raise ``ValueError``.
    """
    base = sorted(set(int(u) for u in users))
    if len(base) > K_MAX_CYCLES:
        raise ValueError(
            f"cycle enumeration supports at most {K_MAX_CYCLES} users, got {len(base)}"
        )
    blocks = []
    for m in range(2, len(base) + 1):
        # after its head, a sequence is an ordered choice of m-1 larger users
        rows = itertools.chain.from_iterable(
            (head,) + rest
            for k, head in enumerate(base)
            for rest in itertools.permutations(base[k + 1:], m - 1)
        )
        blocks.append(np.fromiter(rows, dtype=np.intp).reshape(-1, m))
    return blocks


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
    and the optimizers use the channel's potential graph; ``rows``, the
    sum inequalities in canonical order as per-length arrays, are built on
    first read, and ``cycles`` from them when it is read.
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
        if len(self.active) > K_MAX_EXPORT:
            raise ValueError(f"cycle rows are exported for at most {K_MAX_EXPORT} active "
                             f"users, got {len(self.active)}")
        return tuple((C, cycle_rhs(self.channel, C)) for C in cycle_blocks(self.active))

    @cached_property
    def cycles(self) -> tuple:
        """:attr:`rows` as one inequality per cyclic sequence, in canonical order."""
        return tuple(itertools.chain.from_iterable(  # zip of C's columns: its rows as tuples
            map(LinearInequality, zip(*C.T.tolist()), rhs.tolist()) for C, rhs in self.rows))

    @cached_property
    def _support_bounds(self) -> dict:
        """Certified ``[lower, upper]`` bounds on ``h(U)`` per support (:func:`poly_contains`)."""
        return {}

    def contains(self, d) -> bool:
        """Zero-pins and signs within ``EPS_LENGTH``, then the potential graph's circuit test."""
        dv = np.asarray(d, dtype=float)
        if dv.shape != (self.K,) or not np.all(np.isfinite(dv)):
            raise ValueError(f"d must be a finite vector of length {self.K}")
        if np.any(np.abs(dv[list(self.silent)]) > EPS_LENGTH) or np.any(dv < -EPS_LENGTH):
            return False
        return _membership(self, dv).feasible

    @cached_property
    def _active_channel(self) -> ChannelMatrix:
        return self.channel.restrict(list(self.active))

    @cached_property
    def _difference_system(self) -> tuple:
        """LP rows ``A @ (d, r) <= b`` and bounds over the active users' ``(d, r)``.

        Arc ``u -> v`` out of a user in the potential graph of the active
        sub-channel at ``d = 0`` has length ``L[u, v]``; at ``d`` it is
        ``L[u, v] - d_u``.  So a potential ``r`` with ground at 0 exists
        exactly when ``d_u - r_u + r_v <= L[u, v]`` for every such arc (n^2
        rows for n active users), and the ground arcs give ``r <= 0``.
        With ``d >= 0`` the projection on ``d`` is the region.
        """
        n = len(self.active)
        L = build_graph(self._active_channel, np.zeros(n)).lengths[:n]
        src, dst = np.nonzero(np.isfinite(L))
        row = np.arange(len(src))
        A = np.zeros((len(src), 2 * n))
        A[row, src] = 1.0
        A[row, n + src] = -1.0
        to_user = dst < n
        A[row[to_user], n + dst[to_user]] = 1.0
        return A, L[src, dst], [(0.0, None)] * n + [(None, 0.0)] * n

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


def polyhedral_region(alpha: ChannelMatrix, silent: Iterable[int] = ()) -> Polyhedron:
    """Region of the relaxed scheme with the given users silenced.

    Its ``cycles``, every cyclic-sequence inequality over the active users
    (dominated ones too, see :func:`minimized`), are built on first read.
    """
    S = frozenset(int(i) for i in silent)
    if not S.issubset(range(alpha.K)):
        raise ValueError(f"silent set {sorted(S)} out of range for K={alpha.K}")
    return Polyhedron(channel=alpha, silent=S)


def _membership(poly: Polyhedron, d: np.ndarray) -> MembershipCertificate:
    """Circuit test of ``d`` on the potential graph of ``poly``'s active users.

    Silent coordinates of ``d`` are not read.  The certificate is in full-K
    indices: SILENT powers on silent users, cycles in original indices.
    """
    active = poly.active
    r_full = [SILENT] * poly.K
    if active:
        cert = decide_membership(build_graph(poly._active_channel, d[list(active)]))
        if not cert.feasible:
            cycle = tuple(active[u] for u in cert.cycle)
            return replace(cert, cycle=cycle, violated_users=cycle)
        for pos, user in enumerate(active):
            r_full[user] = cert.r[pos]
    return MembershipCertificate(feasible=True, r=PowerExponents(r_full))


def minimized(poly: Polyhedron, tol: float = 1e-12) -> Polyhedron:
    """Drop cycle inequalities implied by the boxes or by a kept inequality.

    ``sum_U d <= b`` is implied by ``sum_U' d <= b'`` with ``U' subset U``
    together with the boxes whenever ``b' + sum_{U \\ U'} ub <= b``; the
    pure-box implication is the ``U' = empty`` case.  Rows are processed in
    canonical order, so ties keep the earlier inequality.  Supports are bit
    masks over the active users: box sums are added in ascending user
    order, each support keeps the smallest right-hand side kept on it, and
    the best bound from its proper subsets (all of them shorter, so done
    with) is taken once per support, before its length's rows are read.
    Refuses more than ``K_MAX_EXPORT`` active users before reading any row.
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
            if min(bound[U], best[U]) > b + tol:
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


def _support_lp(poly: Polyhedron, w: np.ndarray) -> tuple:
    """Maximize ``w . d`` by one LP; ``(value, point)``, the point re-checked.

    Raises :class:`EmptyPolyhedronError` when the region is empty.
    """
    active = list(poly.active)
    n = len(active)
    point = np.zeros(poly.K)
    if n:
        A, b, bounds = poly._difference_system
        c = np.concatenate([-w[active], np.zeros(n)])
        res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        if res.status == 2:
            raise EmptyPolyhedronError("region is empty")
        if not res.success:
            raise RuntimeError(f"LP failed: {res.message}")
        point[active] = res.x[:n]
    if not poly.contains(point):
        raise RuntimeError("optimizer returned an uncertifiable point")
    return float(w @ point), point


def max_weighted_gdof(poly: Polyhedron, weights) -> tuple:
    """Maximize ``sum w_i d_i`` over the region; returns ``(value, point)``.

    Ties on the optimal face are broken toward the max-min fair point over
    the active users (a second LP restricted to the face), so symmetric
    instances return symmetric maximizers.  The returned point is
    re-checked by :meth:`Polyhedron.contains` and against the reported value.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (poly.K,):
        raise ValueError(f"weights must have length {poly.K}")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    value, point = _support_lp(poly, w)

    active = list(poly.active)
    n = len(active)
    if n:
        # max t  s.t.  (d, r) in the system, w.d = value, d_i >= t for active i
        A, b, bounds = poly._difference_system
        tie = np.hstack([-np.eye(n), np.zeros((n, n)), np.ones((n, 1))])
        res2 = linprog(
            np.append(np.zeros(2 * n), -1.0),
            A_ub=np.vstack([np.hstack([A, np.zeros((len(A), 1))]), tie]),
            b_ub=np.concatenate([b, np.zeros(n)]),
            A_eq=np.concatenate([w[active], np.zeros(n + 1)])[None, :],
            b_eq=np.array([value]),
            bounds=bounds + [(None, None)],
            method="highs",
        )
        if res2.success:
            point = np.zeros(poly.K)
            point[active] = res2.x[:n]

    if not poly.contains(point) or abs(float(w @ point) - value) > EPS_LENGTH:
        raise RuntimeError("optimizer returned an uncertifiable point")
    return value, point


def max_subset_sum(poly: Polyhedron, users: Iterable[int]) -> float:
    """sup of ``sum_{i in users} d_i`` over the region (-inf when empty).

    One support LP; no tie-break, since only the value is returned.
    """
    idx = [int(i) for i in users]
    if not all(0 <= i < poly.K for i in idx):
        raise ValueError(f"users {sorted(idx)} out of range for K={poly.K}")
    w = np.zeros(poly.K)
    w[idx] = 1.0
    try:
        value, _ = _support_lp(poly, w)
    except EmptyPolyhedronError:
        return float("-inf")
    return value


def poly_contains(outer: Polyhedron, inner: Polyhedron, tol: float = EPS_LENGTH) -> bool:
    """Exact containment test ``inner subset outer`` for these 0/1 systems.

    Boxes of the outer region are implied automatically (same ceilings);
    cycle inequalities fully inside the inner active set are shared
    constraints.  The other outer rows, the inequalities through a user
    active in the outer region and silent in the inner one, and the
    zero-pins ``d_i <= 0`` of outer silent users active in the inner
    region, are grouped by their support ``U`` within the inner active
    set.  :func:`_walk_bounds` gives each group's smallest right-hand side
    without enumerating a row.  A group holds when ``h(U)``, the largest
    sum over ``U`` in the inner region, is at most that bound plus ``tol``;
    :func:`_support_exceeds` decides this from certified bounds on ``h(U)``
    kept on the inner region, and asks a support LP only when they cannot.
    """
    if outer.K != inner.K:
        raise ValueError("dimension mismatch")
    a = inner.channel.alpha.tolist()  # the boxes of inner active users are a[u][u]
    for u in sorted(outer.silent - inner.silent):  # zero-pins
        if a[u][u] > tol and _support_exceeds(inner, (u,), tol):
            return False
    shared = [u for u in inner.active if u not in outer.silent]
    through = [e for e in outer.active if e in inner.silent]
    if not through:
        return True
    empty, walks = _walk_bounds(arc_weights(outer.channel).tolist(), shared, through)
    if empty < -tol and _support_exceeds(inner, (), empty + tol):  # box sum 0
        return False
    box = [0.0]  # box[U]: sum of the boxes over U, in ascending user order
    for u in shared:
        box += [b + a[u][u] for b in box]
    supports = _subsets(tuple(shared))
    return not any(box[U] > walks[U] + tol and _support_exceeds(inner, supports[U], walks[U] + tol)
                   for U in range(1, len(box)))


@functools.lru_cache(maxsize=None)
def _subsets(users: tuple) -> tuple:
    """Every subset of ``users`` as a tuple in their order, indexed by its bit mask."""
    out = [()]
    for u in users:
        out += [U + (u,) for U in out]
    return tuple(out)


def _walk_bounds(W: list, shared: list, through: list) -> tuple:
    """Smallest weight of a closed walk per set of ``shared`` users it visits.

    A walk visits each user of its support ``U`` (a subset of ``shared``)
    once, any number of users of ``through``, and no other user; its
    weight is the sum of its arc weights ``W`` (:func:`arc_weights`), so
    a cycle's weight is its ``cycle_rhs``.  Every row through
    ``through`` is such a walk.  A walk that repeats a ``through`` user
    splits there into two with disjoint supports, whose weights add, and
    the support value is subadditive; a walk that passes no ``through``
    user is a row of the inner region itself.  So walks reject a group
    exactly when some row does.  A Floyd-Warshall with only ``through``
    users as intermediates gives the shortest hop between two shared
    users; then a Held-Karp DP over ``shared`` (Held & Karp 1962) grows
    each walk from its lowest user, one hop at a time, ``O(2^n n^2)`` for
    ``n`` shared users.  Returns the bound of the empty support (a cycle of
    ``through`` users) and the bounds indexed by bit mask over ``shared``
    (entry 0 unused); ``inf`` where no walk exists.
    """
    inf = math.inf
    n = len(shared)
    nodes = shared + through
    D = [[W[p][q] if p != q else inf for q in nodes] for p in nodes]
    for k in range(n, len(nodes)):
        Dk = D[k]
        for Di in D:
            dik = Di[k]
            if dik < inf:
                Di[:] = [x if x <= dik + y else dik + y for x, y in zip(Di, Dk)]
    empty = min([D[k][k] for k in range(n, len(nodes))])
    path = [[inf] * n for _ in range(1 << n)]  # path[mask][u]: from mask's lowest user to u
    walks = [inf] * (1 << n)
    for s in range(n):
        path[1 << s][s] = 0.0
    for mask, (s, members, grow) in enumerate(_held_karp_steps(n)):
        best = inf
        for u in members:
            x = path[mask][u]
            if x == inf:
                continue
            Du = D[u]
            if x + Du[s] < best:
                best = x + Du[s]
            for v, grown in grow:
                if x + Du[v] < path[grown][v]:
                    path[grown][v] = x + Du[v]
        walks[mask] = best
    return empty, walks


@functools.lru_cache(maxsize=None)
def _held_karp_steps(n: int) -> tuple:
    """Per bit mask over ``n`` users: its lowest member, its members, and
    ``(v, mask | 1 << v)`` for every user ``v`` above the lowest that it lacks."""
    steps = []
    for mask in range(1 << n):
        members = tuple(u for u in range(n) if mask >> u & 1)
        s = members[0] if members else n
        grow = tuple((v, mask | 1 << v) for v in range(s + 1, n) if not mask >> v & 1)
        steps.append((s, members, grow))
    return tuple(steps)


def _support_exceeds(poly: Polyhedron, users: tuple, limit: float) -> bool:
    """Is the support value ``h(users)`` above ``limit``?

    ``poly._support_bounds`` keeps a certified ``[lower, upper]`` per
    support, each bound computed on first need: the upper from a disjoint
    cycle cover, the lower from a witness point; when neither decides, one
    support LP (:func:`max_subset_sum`) sets both to ``h``.
    """
    bounds = poly._support_bounds.setdefault(users, [None, None])
    if bounds[1] is None:
        bounds[1] = _cover_bound(poly, users)
    if bounds[1] <= limit:
        return False
    if bounds[0] is None:
        bounds[0] = _witness_bound(poly, users)
    if bounds[0] <= limit:
        bounds[:] = [max_subset_sum(poly, users)] * 2
    return bounds[0] > limit


def _cover_bound(poly: Polyhedron, users: tuple) -> float:
    """Upper bound on ``h(users)`` from the cheapest disjoint cycle cover of the active users.

    Each cycle of length >= 2 of a cover adds its region inequality, each
    fixed point in ``users`` its box: a feasible point of the support LP's
    dual, so by weak duality its cost bounds ``h`` from above.  Fixed
    points off ``users`` cost 0 and arcs their :func:`arc_weights`; one
    ``linear_sum_assignment`` finds the cheapest cover.
    """
    a, W, n = poly.channel.alpha.tolist(), arc_weights(poly.channel).tolist(), len(poly.active)
    cost = [[W[p][q] if p != q else a[p][p] * (p in users) for q in poly.active]
            for p in poly.active]
    rows, cols = linear_sum_assignment(np.array(cost).reshape(n, n))
    return sum((cost[r][c] for r, c in zip(rows.tolist(), cols.tolist())), 0.0)


def _witness_bound(poly: Polyhedron, users: tuple) -> float:
    """Lower bound on ``h(users)``: ``a_ii`` of the user ``i`` in ``users`` with the largest box
    when ``a_ii e_i`` is a member (0 and the origin for no users), else ``-inf``."""
    if not poly.active:  # the region is the origin
        return 0.0
    point = np.zeros(len(poly.active))
    if users:
        box = poly.channel.alpha.diagonal()
        i = max(users, key=lambda u: box[u])
        point[poly.active.index(i)] = box[i]
    graph = build_graph(poly._active_channel, point)  # poly.contains(point), no certificate
    return float(point.sum()) if decide_membership(graph).feasible else -math.inf


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
    silent set whose polyhedron contains it (:func:`poly_contains`), so
    the irredundant union is the components with flag ``None``.  More than
    ``K_MAX_UNION`` users are refused before any region is built.
    """
    K = alpha.K
    if K > K_MAX_UNION:
        raise ValueError(
            f"the union supports at most {K_MAX_UNION} users, got {K}"
        )
    order = sorted(
        (frozenset(c) for m in range(K + 1) for c in itertools.combinations(range(K), m)),
        key=lambda s: (len(s), sorted(s)),
    )
    polys = {S: polyhedral_region(alpha, S) for S in order}
    diag = np.diag(alpha.alpha)
    degenerate = {i for i in range(K) if diag[i] <= 1e-12}
    components = []
    for S in order:
        forced_zero = S | degenerate
        subsumed_by = None
        for T in order:
            if T == S or not T.issubset(forced_zero):
                continue
            if poly_contains(polys[T], polys[S]):
                subsumed_by = T
                break
        components.append(RegionComponent(S, polys[S], subsumed_by))
    return components


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


def point_in_tin_region(alpha: ChannelMatrix, d, tol: float = EPS_LENGTH) -> TinMembership:
    """Decide whether a nonnegative tuple is TIN-achievable.

    Only the silent set equal to the point's zero coordinates needs
    checking: forcing extra coordinates of a candidate silent set to zero
    only removes cycle constraints, so membership in any smaller-support
    component implies membership in the zero-set component.
    """
    dv = np.asarray(d, dtype=float)
    if dv.shape != (alpha.K,):
        raise ValueError(f"d has shape {dv.shape}, expected ({alpha.K},)")
    if np.any(dv < 0):
        raise ValueError("GDoF entries must be nonnegative")
    Z = frozenset(i for i in range(alpha.K) if dv[i] <= tol)
    cert = _membership(Polyhedron(channel=alpha, silent=Z), dv)
    return TinMembership(cert.feasible, Z, cert)


def polyhedron_vertices(poly: Polyhedron, decimals: int = 9) -> np.ndarray:
    """Vertex enumeration by brute-force tight-set intersection (small K).

    Intended for CSV export and plotting; refuses more than 4 active
    users, where the inequality family is still tiny.
    """
    active = poly.active
    na = len(active)
    if na > 4:
        raise ValueError("vertex enumeration supports at most 4 active users")
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
        key = tuple(np.round(x, decimals))
        if key in seen:
            continue
        seen.add(key)
        full = np.zeros(poly.K)
        full[list(active)] = x
        verts.append(full)
    verts.sort(key=lambda v: tuple(v))
    return np.array(verts)
