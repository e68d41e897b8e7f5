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

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.optimize import linprog

from .channel_model import SILENT, ChannelMatrix, PowerExponents
from .potential_graph import (
    EPS_LENGTH,
    MembershipCertificate,
    build_graph,
    canonical_cycle,  # re-exported: part of this module's interface
    cycle_rhs,
    recover_power_allocation,
)

#: Full union enumeration is refused beyond this many users; the inequality
#: family grows factorially and only single-silent-set queries stay viable.
K_MAX_UNION = 12

CyclicSequence = tuple


def enumerate_cycles(users: Iterable[int]) -> list:
    """All directed cyclic sequences over every subset of size >= 2.

    Each sequence is canonicalized (smallest index first), and the list is
    ordered by cycle size then lexicographically.  The count for n users
    is ``sum_{m=2..n} C(n, m) * (m-1)!``.
    """
    base = sorted(set(int(u) for u in users))
    out = []
    for m in range(2, len(base) + 1):
        group = []
        for subset in itertools.combinations(base, m):
            head, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                group.append((head,) + perm)
        group.sort()
        out.extend(group)
    return out


@dataclass(frozen=True)
class LinearInequality:
    """``sum_{i in users} d_i <= rhs``; users kept in cyclic-sequence order."""

    users: CyclicSequence
    rhs: float

    def evaluate(self, d: np.ndarray) -> float:
        return float(sum(d[u] for u in self.users))

    def margin(self, d: np.ndarray) -> float:
        return self.rhs - self.evaluate(d)


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """H-representation of one silent-set region of a channel.

    Silenced users are pinned to zero; every active user has the box
    ``0 <= d_i <= box_ub[i]`` (its direct exponent ``a_ii``); ``cycles``
    holds the sum inequalities in canonical order.  Optimizers solve the
    channel's difference system instead (:meth:`_difference_system`).
    """

    channel: ChannelMatrix
    silent: frozenset
    cycles: tuple = field(default=())

    @property
    def K(self) -> int:
        return self.channel.K

    @property
    def active(self) -> tuple:
        return tuple(i for i in range(self.K) if i not in self.silent)

    @cached_property
    def box_ub(self) -> np.ndarray:
        ub = np.diag(self.channel.alpha).copy()
        ub[list(self.silent)] = 0.0
        ub.setflags(write=False)
        return ub

    def contains(self, d, tol: float = EPS_LENGTH) -> bool:
        return self.worst_violation(d) <= tol

    def worst_violation(self, d) -> float:
        """Largest constraint violation at ``d`` (<= 0 means inside)."""
        dv = np.asarray(d, dtype=float)
        worst = 0.0
        for i in range(self.K):
            if i in self.silent:
                worst = max(worst, abs(dv[i]))
            else:
                worst = max(worst, -dv[i], dv[i] - self.box_ub[i])
        for ineq in self.cycles:
            worst = max(worst, -ineq.margin(dv))
        return float(worst)

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
        active = list(self.active)
        n = len(active)
        L = build_graph(self.channel.restrict(active), np.zeros(n)).lengths[:n]
        src, dst = np.nonzero(np.isfinite(L))
        row = np.arange(len(src))
        A = np.zeros((len(src), 2 * n))
        A[row, src] = 1.0
        A[row, n + src] = -1.0
        to_user = dst < n
        A[row[to_user], n + dst[to_user]] = 1.0
        return A, L[src, dst], [(0.0, None)] * n + [(None, 0.0)] * n

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "silent": sorted(self.silent),
            "boxes": [
                {"user": i, "ub": float(self.box_ub[i])} for i in self.active
            ],
            "cycles": [
                {"seq": list(c.users), "rhs": float(c.rhs)} for c in self.cycles
            ],
        }


def polyhedral_region(alpha: ChannelMatrix, silent: Iterable[int] = ()) -> Polyhedron:
    """Region of the relaxed scheme with the given users silenced.

    Emits every cyclic-sequence inequality over the active users,
    including dominated ones; see :func:`minimized` for pruning.
    """
    S = frozenset(int(i) for i in silent)
    if not S.issubset(range(alpha.K)):
        raise ValueError(f"silent set {sorted(S)} out of range for K={alpha.K}")
    active = [i for i in range(alpha.K) if i not in S]
    cycles = tuple(
        LinearInequality(seq, cycle_rhs(alpha, seq)) for seq in enumerate_cycles(active)
    )
    return Polyhedron(channel=alpha, silent=S, cycles=cycles)


def minimized(poly: Polyhedron, tol: float = 1e-12) -> Polyhedron:
    """Drop cycle inequalities implied by the boxes or by a kept inequality.

    ``sum_U d <= b`` is implied by ``sum_U' d <= b'`` with ``U' subset U``
    together with the boxes whenever ``b' + sum_{U \\ U'} ub <= b``; the
    pure-box implication is the ``U' = empty`` case.  Checks are pairwise
    and processed in canonical order, so ties keep the earlier inequality.
    """
    kept: list = []
    for ineq in poly.cycles:
        U = set(ineq.users)
        box_sum = float(sum(poly.box_ub[i] for i in U))
        implied = box_sum <= ineq.rhs + tol
        if not implied:
            for other in kept:
                U2 = set(other.users)
                if U2 <= U:
                    rest = float(sum(poly.box_ub[i] for i in U - U2))
                    if other.rhs + rest <= ineq.rhs + tol:
                        implied = True
                        break
        if not implied:
            kept.append(ineq)
    return Polyhedron(channel=poly.channel, silent=poly.silent, cycles=tuple(kept))


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
    if poly.worst_violation(point) > EPS_LENGTH:
        raise RuntimeError("optimizer returned an uncertifiable point")
    return float(w @ point), point


def max_weighted_gdof(poly: Polyhedron, weights) -> tuple:
    """Maximize ``sum w_i d_i`` over the region; returns ``(value, point)``.

    Ties on the optimal face are broken toward the max-min fair point over
    the active users (a second LP restricted to the face), so symmetric
    instances return symmetric maximizers.  The returned point is
    re-checked against every inequality and the reported value.
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

    if poly.worst_violation(point) > EPS_LENGTH or abs(float(w @ point) - value) > EPS_LENGTH:
        raise RuntimeError("optimizer returned an uncertifiable point")
    return value, point


def max_subset_sum(poly: Polyhedron, users: Iterable[int]) -> float:
    """sup of ``sum_{i in users} d_i`` over the region (-inf when empty).

    One support LP; no tie-break, since only the value is returned.
    """
    w = np.zeros(poly.K)
    for i in users:
        w[i] = 1.0
    try:
        value, _ = _support_lp(poly, w)
    except EmptyPolyhedronError:
        return float("-inf")
    return value


def poly_contains(outer: Polyhedron, inner: Polyhedron, tol: float = EPS_LENGTH) -> bool:
    """Exact containment test ``inner subset outer`` for these 0/1 systems.

    Boxes of the outer region are implied automatically (same ceilings);
    cycle inequalities fully inside the inner active set are shared
    constraints.  The other outer rows, the inequalities straddling the
    inner silent set and the zero-pins ``d_i <= 0`` of outer silent users
    active in the inner region, are grouped by their support within the
    inner active set: one support LP per distinct reduced support, checked
    against the group's smallest right-hand side.  A group with empty
    reduced support attains 0 on a nonempty inner region; its LP, which
    tells an empty inner region (-inf), runs only for a negative bound.
    """
    if outer.K != inner.K:
        raise ValueError("dimension mismatch")
    inner_active = frozenset(inner.active)
    tightest = {frozenset([i]): 0.0 for i in outer.silent - inner.silent}
    for ineq in outer.cycles:
        support = frozenset(ineq.users)
        if not support <= inner_active:
            reduced = support & inner_active
            tightest[reduced] = min(ineq.rhs, tightest.get(reduced, ineq.rhs))
    for reduced, rhs in tightest.items():
        attained = max_subset_sum(inner, reduced) if reduced or rhs < -tol else 0.0
        if attained > rhs + tol:
            return False
    return True


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
    silent set whose polyhedron contains it, so the irredundant union is
    the components with flag ``None``.
    """
    K = alpha.K
    if K > K_MAX_UNION:
        raise ValueError(
            f"union enumeration supports at most {K_MAX_UNION} users, got {K}"
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
    active = [i for i in range(alpha.K) if i not in Z]
    if not active:
        cert = MembershipCertificate(
            feasible=True, r=PowerExponents([SILENT] * alpha.K)
        )
        return TinMembership(True, Z, cert)
    sub = alpha.restrict(active)
    sub_cert = recover_power_allocation(sub, dv[active])
    if sub_cert.feasible:
        r_full = [SILENT] * alpha.K
        for pos, user in enumerate(active):
            r_full[user] = sub_cert.r[pos]
        cert = MembershipCertificate(feasible=True, r=PowerExponents(r_full))
        return TinMembership(True, Z, cert)
    remap = tuple(active[u] for u in sub_cert.cycle)
    cert = MembershipCertificate(
        feasible=False,
        r=None,
        cycle=remap,
        violated_users=remap,
        violated_rhs=sub_cert.violated_rhs,
        margin=sub_cert.margin,
    )
    return TinMembership(False, Z, cert)


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
    rows = []
    rhs = []
    for k, i in enumerate(active):
        e = np.zeros(na)
        e[k] = 1.0
        rows.append(e)
        rhs.append(float(poly.box_ub[i]))
        rows.append(-e)
        rhs.append(0.0)
    pos = {u: k for k, u in enumerate(active)}
    for ineq in poly.cycles:
        e = np.zeros(na)
        for u in ineq.users:
            e[pos[u]] = 1.0
        rows.append(e)
        rhs.append(ineq.rhs)
    A = np.vstack(rows)
    b = np.array(rhs)
    seen = set()
    verts = []
    for combo in itertools.combinations(range(len(rows)), na):
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
