"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from the defining formulas with
its own enumeration code, so tests compare two routes to the same answer
rather than a module against itself.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def forward_gdof(alpha: np.ndarray, R: np.ndarray, clamp: bool = True) -> np.ndarray:
    """Clamped per-user GDoF for a batch of finite power-exponent rows.

    Direct evaluation of d_i = max(0, a_ii + r_i - max(0, max_j(a_ij + r_j)));
    ``clamp=False`` drops the outer ``max(0, .)`` (the relaxed GDoF).
    """
    R = np.atleast_2d(R)
    n, K = R.shape
    D = np.empty((n, K))
    for i in range(K):
        if K > 1:
            cols = [alpha[i, j] + R[:, j] for j in range(K) if j != i]
            interf = np.maximum(0.0, np.max(np.column_stack(cols), axis=1))
        else:
            interf = np.zeros(n)
        D[:, i] = alpha[i, i] + R[:, i] - interf
        if clamp:
            D[:, i] = np.maximum(0.0, D[:, i])
    return D


def oracle_condition_margins(alpha: np.ndarray) -> list:
    """Per-user margin a_ii - (strongest caused + strongest suffered), by loops.

    A user with no other user has nothing to cause or suffer (both 0).
    """
    a = np.asarray(alpha, dtype=float).tolist()
    K = len(a)
    margins = []
    for i in range(K):
        caused = max((a[j][i] for j in range(K) if j != i), default=0.0)
        suffered = max((a[i][k] for k in range(K) if k != i), default=0.0)
        margins.append(a[i][i] - (caused + suffered))
    return margins


def oracle_trial_verdict(gains: np.ndarray, nominal_P: float, eps: float = 1e-9) -> bool:
    """Does one layout meet the optimality condition, from its linear link gains?

    Exponents are ``log(max(1, g)) / log(P)``; every user's direct exponent
    must cover its strongest caused plus strongest suffered exponent,
    ties within ``eps`` passing.
    """
    log_P = math.log(nominal_P)
    alpha = [[math.log(max(1.0, g)) / log_P for g in row] for row in gains.tolist()]
    return all(m >= -eps for m in oracle_condition_margins(alpha))


def oracle_layout(cfg, t: int) -> dict:
    """Trial ``t`` of a ``SimConfig``: redrawn, then computed link by link.

    The stream is ``default_rng([master_seed mod 2**64, t])``: four calls of
    K uniforms (transmitter radii and angles, receiver-offset radii and
    angles), then K-by-K shadowing normals when the spread is nonzero.
    Each pair's distance is ``math.sqrt(dx*dx + dy*dy)``, clamped at the
    minimum distance; its path loss is free space below the reference
    distance and the terrain log-slope from it on, with ``math.log10``;
    transmit power puts the median SNR at the coverage radius on target.
    Returns positions, path loss (receiver-major, shadowing included),
    linear gains and the nominal power ``max(2, largest gain)``.
    """
    K = cfg.K
    rng = np.random.default_rng([cfg.master_seed % 2**64, t])
    u = [rng.random(K).tolist() for _ in range(4)]
    sigma = cfg.shadowing_sigma_db
    shadow = rng.normal(0.0, sigma, size=(K, K)).tolist() if sigma else [[0.0] * K] * K

    def disk(radius, u_radius, u_angle):
        r = radius * math.sqrt(u_radius)
        theta = 2.0 * math.pi * u_angle
        return [r * math.cos(theta), r * math.sin(theta)]

    tx = [disk(cfg.cell_radius, u[0][i], u[1][i]) for i in range(K)]
    rx = [[x + ox, y + oy] for (x, y), (ox, oy) in
          zip(tx, (disk(cfg.coverage_radius, u[2][i], u[3][i]) for i in range(K)))]

    # Erceg et al. terrain B, slope a - b*h + c/h with a 30 m base station,
    # 2 GHz, 100 m reference distance, 1 m minimum distance, 0 dB boundary
    # SNR over a -110 dBm noise floor, 0 dB antenna gain.
    lam = 299792458.0 / (2000.0 * 1e6)
    slope = 4.0 - 0.0065 * 30.0 + 17.1 / 30.0
    d0 = 100.0
    noise, target, antenna = -110.0, 0.0, 0.0

    def pathloss(d):
        if d < d0:
            return 20.0 * math.log10(4.0 * math.pi * d / lam)
        return 20.0 * math.log10(4.0 * math.pi * d0 / lam) + 10.0 * slope * math.log10(d / d0)

    power = noise + target + pathloss(cfg.coverage_radius) - antenna
    gain_db = power + antenna - noise
    pl = []
    for (xr, yr), shadow_row in zip(rx, shadow):
        row = []
        for (xt, yt), s in zip(tx, shadow_row):
            dx, dy = xr - xt, yr - yt
            row.append(pathloss(max(math.sqrt(dx * dx + dy * dy), 1.0)) + s)
        pl.append(row)
    gains = [[10.0 ** ((gain_db - v) / 10.0) for v in row] for row in pl]
    return {
        "tx": np.array(tx),
        "rx": np.array(rx),
        "pathloss_db": np.array(pl),
        "gains": np.array(gains),
        "nominal_P": max(2.0, max(map(max, gains))),
    }


def oracle_cycles(users) -> list:
    """Every directed cyclic class over subsets of size >= 2, one rep each.

    Enumerates all ordered m-tuples and keeps those starting at their own
    minimum, which picks exactly one rotation per class.
    """
    base = sorted(users)
    out = []
    for m in range(2, len(base) + 1):
        for perm in itertools.permutations(base, m):
            if perm[0] == min(perm):
                out.append(perm)
    return out


def oracle_cycle_rhs(alpha: np.ndarray, seq) -> float:
    m = len(seq)
    return float(
        sum(alpha[seq[j], seq[j]] - alpha[seq[j - 1], seq[j]] for j in range(m))
    )


def oracle_graph_lengths(alpha: np.ndarray, d) -> np.ndarray:
    """Potential-graph arc lengths, one entry at a time: ``(a_ii - d_i) - a_ij`` between
    users, ``a_ii - d_i`` to ground, 0 from ground, +inf on the diagonal."""
    K = alpha.shape[0]
    L = np.full((K + 1, K + 1), np.inf)
    for i in range(K):
        for j in range(K):
            if i != j:
                L[i, j] = alpha[i, i] - d[i] - alpha[i, j]
        L[i, K] = alpha[i, i] - d[i]
        L[K, i] = 0.0
    return L


def oracle_jacobi_bellman_ford(lengths: np.ndarray, ground: int, tol: float) -> tuple:
    """Bellman-Ford from ``ground`` in Jacobi rounds, one arc at a time in Python floats.

    A round reads only the previous round's distances: node ``v`` takes
    ``dist[u] + L[u][v]`` from the lowest-index source ``u`` among the
    smallest, and moves only when that is strictly below ``dist[v]``.
    After ``n - 1`` rounds (a round that moves nothing repeats for ever,
    so the rounds may stop there), ``(dist, None)`` when every slack
    ``dist[v] - min_u(dist[u] + L[u][v])`` is at most ``tol``.  Else one
    more round, and ``(dist, circuits)``: the circuit of every predecessor
    walk that closes one, walks started at every node in order of
    decreasing slack after that round (lowest index on ties), each circuit
    in arc order from the first node the walk met twice.
    """
    L = lengths.tolist()
    n = len(L)
    dist = [math.inf] * n
    dist[ground] = 0.0
    pred = [-1] * n

    def best_in_arcs(old):
        out = []
        for v in range(n):
            best, src = old[0] + L[0][v], 0
            for u in range(1, n):
                cand = old[u] + L[u][v]
                if cand < best:
                    best, src = cand, u
            out.append((best, src))
        return out

    def round_():
        moved = False
        for v, (best, src) in enumerate(best_in_arcs(list(dist))):
            if best < dist[v]:
                dist[v], pred[v] = best, src
                moved = True
        return moved

    def slacks():
        return [dist[v] - best for v, (best, _) in enumerate(best_in_arcs(dist))]

    for _ in range(n - 1):
        if not round_():
            break
    if max(slacks()) <= tol:
        return np.array(dist), None
    round_()
    s = slacks()
    circuits = []
    for start in sorted(range(n), key=lambda v: (-s[v], v)):
        path, x = [], start
        while x != -1 and x not in path:
            path.append(x)
            x = pred[x]
        if x != -1:
            circuits.append(path[path.index(x):][::-1])
    return np.array(dist), circuits


def oracle_minimized(alpha: np.ndarray, silent, tol: float = 1e-12) -> list:
    """The cycle rows ``(users, rhs)`` that ``minimized`` keeps, by a pairwise scan.

    Rows are the oracle cycles in canonical order.  A row is dropped when
    its box sum, or a kept row on a subset of its users plus the boxes of
    the users left over, is within ``tol`` of its right-hand side; every
    row is tested against every row kept before it, the earlier row
    winning ties.  A later row drops no kept row, so the rows kept need
    not be irredundant.
    """
    K = alpha.shape[0]
    active = [i for i in range(K) if i not in set(silent)]
    kept = []
    for seq in oracle_cycles(active):
        rhs = oracle_cycle_rhs(alpha, seq)
        U = set(seq)
        implied = float(sum(alpha[i, i] for i in U)) <= rhs + tol
        for users, other in kept:
            if implied:
                break
            if set(users) <= U:
                rest = float(sum(alpha[i, i] for i in U - set(users)))
                implied = other + rest <= rhs + tol
        if not implied:
            kept.append((seq, rhs))
    return kept


def oracle_user_bound(alpha: np.ndarray, power: float, i: int) -> tuple:
    """Exact and power-linearized outer bound of user ``i`` alone, in bits.

    The exact bound is ``log2(1 + SNR_i)``, one scalar ``logaddexp2``; the
    linear bound is ``a_ii log2(P) + 1``.
    """
    L = math.log2(power)
    return float(np.logaddexp2(0.0, alpha[i, i] * L)), float(alpha[i, i] * L + 1.0)


def oracle_cycle_kappa(alpha: np.ndarray, power: float, seq) -> tuple:
    """Exact and power-linearized outer bound of one cycle, in bits, position by position.

    Position j's kappa is ``log2(1 + INR_(j+1) + SNR_j / (1 + INR_j))``,
    where INR_j is position j's transmitter heard at position j-1's
    receiver; each is one scalar ``logaddexp2`` chain, and the exact bound
    is their numpy sum.  The linear bound is the cycle's GDoF right-hand
    side times log2(P) plus log2(3) per position.
    """
    L = math.log2(power)
    m = len(seq)
    snr = [alpha[u, u] * L for u in seq]
    inr = [alpha[seq[j - 1], seq[j]] * L for j in range(m)]
    mu = [np.logaddexp2(0.0, x) for x in inr]
    kappa = np.array(
        [np.logaddexp2(np.logaddexp2(0.0, inr[(j + 1) % m]), snr[j] - mu[j]) for j in range(m)]
    )
    return float(kappa.sum()), float(oracle_cycle_rhs(alpha, seq) * L + m * math.log2(3.0))


def oracle_gap_rows(alpha: np.ndarray, power: float, d, r, outer: list,
                    slack: float = 1e-6) -> list:
    """Every gap-certificate row as a plain tuple, one user or cycle at a time.

    Rows are the users, then :func:`oracle_cycles` of all users, each as
    ``(kind, users, outer_exact, outer_linear, inner_linear, achieved_bits,
    analytic_sigma, empirical_sigma, tight)``; ``outer`` holds each row's
    ``(exact, linear)`` pair as :func:`oracle_user_bound` and
    :func:`oracle_cycle_kappa` give it.  The achieved bits add the
    :func:`oracle_tin_rates` at exponents ``r`` from 0 in position order;
    the inner bound is the right-hand side times log2(P) less ``m log2 K``;
    the analytic gap is ``1 + log2 K`` for a user and ``m log2(3K)`` for a
    length-``m`` cycle; a row is tight when its sum of ``d``, added the same
    way, is within ``slack`` of its right-hand side.
    """
    K = alpha.shape[0]
    L = math.log2(power)
    rates = oracle_tin_rates(alpha, power, r).tolist()
    seqs = [(i,) for i in range(K)] + oracle_cycles(range(K))
    rows = []
    for seq, (exact, linear) in zip(seqs, outer, strict=True):
        m = len(seq)
        if m == 1:
            kind, sigma, rhs = "user", 1.0 + math.log2(K), float(alpha[seq[0], seq[0]])
        else:
            kind, sigma, rhs = "cycle", m * math.log2(3 * K), oracle_cycle_rhs(alpha, seq)
        achieved = d_sum = 0.0
        for u in seq:
            achieved += rates[u]
            d_sum += float(d[u])
        rows.append((kind, seq, exact, linear, rhs * L - m * math.log2(K), achieved, sigma,
                     exact - achieved, abs(d_sum - rhs) <= slack))
    return rows


def oracle_tin_rates(alpha: np.ndarray, power: float, r) -> np.ndarray:
    """Exact TIN rates in bits, one user and one scalar ``logaddexp2`` at a time.

    ``r`` holds a float exponent per user, or None for a silent one.  Each
    receiver's denominator starts at the noise (exponent 0) and folds in
    the other active transmitters in ascending order.
    """
    L = math.log2(power)
    K = len(r)
    rates = np.zeros(K)
    for i in range(K):
        if r[i] is None:
            continue
        den = 0.0
        for j in range(K):
            if j != i and r[j] is not None:
                den = float(np.logaddexp2(den, (alpha[i, j] + r[j]) * L))
        rates[i] = np.logaddexp2(0.0, (alpha[i, i] + r[i]) * L - den)
    return rates


def oracle_region_margin(alpha: np.ndarray, silent, d) -> float:
    """Smallest constraint margin of the silent-set polyhedron at d.

    Positive means strictly inside, negative means violated.  Silent
    coordinates count via their distance from zero.
    """
    d = np.asarray(d, dtype=float)
    K = alpha.shape[0]
    S = set(silent)
    active = [i for i in range(K) if i not in S]
    margin = math.inf
    for i in range(K):
        if i in S:
            margin = min(margin, -abs(d[i]))
        else:
            margin = min(margin, d[i], alpha[i, i] - d[i])
    for seq in oracle_cycles(active):
        margin = min(margin, oracle_cycle_rhs(alpha, seq) - sum(d[u] for u in seq))
    return margin


def oracle_vertices(alpha: np.ndarray, silent) -> list:
    """Vertices of one silent-set polytope, by brute force (<= 4 active users).

    The rows are the boxes ``0 <= d_i <= a_ii`` of the active users and one
    sum row per oracle cycle; every choice of as many linearly independent
    rows as active users whose intersection point satisfies all rows gives
    a vertex (repeats are kept).  An empty polytope has no vertices.
    """
    K = alpha.shape[0]
    active = [i for i in range(K) if i not in set(silent)]
    n = len(active)
    if n > 4:
        raise ValueError("oracle vertex enumeration is for at most 4 active users")
    if n == 0:
        return [np.zeros(K)]
    rows, rhs = [], []
    for k, i in enumerate(active):
        unit = np.eye(n)[k]
        rows += [unit, -unit]
        rhs += [alpha[i, i], 0.0]
    for seq in oracle_cycles(active):
        rows.append(np.array([1.0 if u in seq else 0.0 for u in active]))
        rhs.append(oracle_cycle_rhs(alpha, seq))
    A = np.array(rows)
    b = np.array(rhs)
    verts = []
    for combo in itertools.combinations(range(len(rows)), n):
        M = A[list(combo)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, b[list(combo)])
        if np.all(A @ x <= b + 1e-12):
            full = np.zeros(K)
            full[active] = x
            verts.append(full)
    return verts


def oracle_support_value(alpha: np.ndarray, silent, W) -> np.ndarray:
    """max ``w . d`` over one silent-set polytope (<= 4 active users), with no LP solver.

    One value per row ``w`` of ``W``: the largest ``w . v`` over the
    :func:`oracle_vertices`, since a bounded polytope attains it at a
    vertex; -inf when the polytope is empty.
    """
    verts = oracle_vertices(alpha, silent)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if not verts:
        return np.full(len(W), -math.inf)
    return (W @ np.array(verts).T).max(axis=1)


def oracle_contains(alpha: np.ndarray, T, S, tol: float = 1e-9) -> bool:
    """Is the silent-set-S polytope inside the silent-set-T one?

    Both are bounded, so containment holds exactly when every vertex of
    the inner polytope meets the outer system, zero-pins included, within
    ``tol``.
    """
    return all(oracle_region_margin(alpha, T, v) >= -tol for v in oracle_vertices(alpha, S))


def oracle_union_flags(alpha: np.ndarray, tol: float = 1e-9) -> list:
    """README's union rule, one ``(silent, subsumed_by)`` pair per silent set (at most 4 users).

    Silent sets go in canonical order (size, then lexicographic).  ``S`` is
    flagged by the first other set ``T``, scanning every set, that silences
    only users of ``S`` or users whose direct gain is at most 1e-12, and
    whose polytope contains ``S``'s (:func:`oracle_contains`), unless ``T``
    comes after ``S`` and ``S``'s polytope contains ``T``'s too.
    """
    K = alpha.shape[0]
    order = [frozenset(c) for m in range(K + 1) for c in itertools.combinations(range(K), m)]
    zero = {i for i in range(K) if alpha[i, i] <= 1e-12}
    contains = functools.lru_cache(maxsize=None)(
        lambda T, S: oracle_contains(alpha, T, S, tol))
    flags = []
    for k, S in enumerate(order):
        flag = None
        for j, T in enumerate(order):
            if j != k and T <= S | zero and contains(T, S) and not (j > k and contains(S, T)):
                flag = sorted(T)
                break
        flags.append([sorted(S), flag])
    return flags


def oracle_cycle_lp(alpha: np.ndarray, silent, w) -> float | None:
    """max ``w . d`` over one silent-set polytope; None when it is empty.

    One LP over the boxes ``0 <= d_i <= a_ii`` of the active users and one
    sum row per oracle cycle, so it solves the enumerated H-representation,
    not the potential graph's difference system.
    """
    from scipy.optimize import linprog

    K = alpha.shape[0]
    active = [i for i in range(K) if i not in set(silent)]
    if not active:
        return 0.0
    cycles = oracle_cycles(active)
    A = np.array([[1.0 if u in seq else 0.0 for u in active] for seq in cycles])
    b = np.array([oracle_cycle_rhs(alpha, seq) for seq in cycles])
    res = linprog(
        -np.asarray(w, dtype=float)[active],
        A_ub=A if cycles else None,
        b_ub=b if cycles else None,
        bounds=[(0.0, alpha[i, i]) for i in active],
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.success, res.message
    return float(-res.fun)


def oracle_transport(F: np.ndarray, w: np.ndarray, prices: tuple | None = None) -> tuple:
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

    ``region._transport`` as it was written with every step of every
    Dijkstra level on numpy arrays; the shipped solver makes the same
    comparisons, tie rules and floating-point operations, so value, flow
    and prices agree bit for bit.
    """
    n = len(w)
    v = F.min(axis=0, initial=math.inf) if prices is None else prices[1]
    u = (F - v).min(axis=1, initial=math.inf)
    if prices is not None:
        v = (F - u[:, None]).min(axis=0, initial=math.inf)
    x = np.zeros((n, n))
    supply, demand = w.copy(), w.copy()
    for i, j in zip(*np.nonzero(F - u[:, None] - v <= 0)):
        x[i, j] = delta = min(supply[i], demand[j])
        supply[i] -= delta
        demand[j] -= delta
    cols = np.arange(n)
    while supply.any() and demand.any():
        rc = F - u[:, None] - v
        start = np.flatnonzero(supply > 0)
        drow = np.full(n, np.inf)
        drow[start] = 0.0
        pcol = np.full(n, -1)  # the finished column each reached row was entered from
        prow = start[rc[start].argmin(axis=0)]  # the row each column's distance comes from
        dcol = rc[prow, cols]
        todo = dcol.copy()  # inf once finished
        while True:
            D = todo.min()
            J = np.flatnonzero(todo == D)
            hit = J[demand[J] > 0]
            if len(hit):
                j = hit[0]
                break
            todo[J] = np.inf
            feeds = x[:, J] > 0
            new = np.flatnonzero(feeds.any(axis=1) & (drow == np.inf))
            if len(new):
                drow[new], pcol[new] = D, J[feeds[new].argmax(axis=1)]
                cand = D + rc[new]
                k = cand.argmin(axis=0)
                best = cand[k, cols]
                better = (best < todo) & (todo < np.inf)
                todo[better] = dcol[better] = best[better]
                prow[better] = new[k[better]]
        u -= np.minimum(drow, D)
        v += np.minimum(dcol, D)
        fwd, back, i = [(prow[j], j)], [], prow[j]
        while pcol[i] >= 0:
            back.append((i, pcol[i]))
            i = prow[pcol[i]]
            fwd.append((i, back[-1][1]))
        delta = min([supply[i], demand[j]] + [x[e] for e in back])
        supply[i] -= delta
        demand[j] -= delta
        for e in fwd:
            x[e] += delta
        for e in back:
            x[e] -= delta
    return float((F * x).sum()), x, (u, v)


def oracle_arrival_slack(F: np.ndarray, x: np.ndarray, prices: tuple) -> np.ndarray:
    """``e = p_arrival - p_departure`` from Jacobi rounds on the residual graph of a transport flow.

    Each user is an arrival node (0..m-1) and a departure node (m..2m-1):
    departure ``i`` -> arrival ``j`` at ``F[i, j]``, arrival ``j`` ->
    departure ``i`` at ``-F[i, j]`` where ``x[i, j] > 0``, and arrival
    ``j`` -> departure ``j`` at 0 (or that back arc when it is shorter).
    The potentials start at the prices (arrival ``v``, departure ``-u``)
    and each round takes every node's best in-arc over the previous
    round's potentials, at most ``2m`` rounds, stopping at the first that
    moves nothing.
    """
    m = len(F)
    R = np.full((2 * m, 2 * m), np.inf)
    R[m:, :m] = F
    R[:m, m:] = np.where(x.T > 0, -F.T, np.inf)
    arrive = np.arange(m)
    R[arrive, m + arrive] = np.minimum(0.0, R[arrive, m + arrive])
    u, v = prices
    p = np.concatenate([v, -u])
    for _ in range(2 * m):
        nxt = np.minimum(p, (p[:, None] + R).min(axis=0))
        if np.array_equal(nxt, p):
            break
        p = nxt
    return p[:m] - p[m:]


def oracle_max_min_level(alpha: np.ndarray, silent, w) -> float | None:
    """The largest least active coordinate among the maximizers of ``w . d``; None when empty.

    Two LPs over the enumerated rows of :func:`oracle_cycle_lp`: its value
    ``V``, then ``max t`` with ``w . d >= V`` and ``d_i >= t`` for every
    active user.
    """
    from scipy.optimize import linprog

    K = alpha.shape[0]
    active = [i for i in range(K) if i not in set(silent)]
    value = oracle_cycle_lp(alpha, silent, w)
    if value is None or not active:
        return value if value is None else 0.0
    n = len(active)
    rows = [[1.0 if u in seq else 0.0 for u in active] + [0.0] for seq in oracle_cycles(active)]
    rhs = [oracle_cycle_rhs(alpha, seq) for seq in oracle_cycles(active)]
    rows.append([-float(w[i]) for i in active] + [0.0])
    rhs.append(-value)
    for k in range(n):  # t - d_k <= 0
        rows.append([-1.0 if j == k else 0.0 for j in range(n)] + [1.0])
        rhs.append(0.0)
    res = linprog(
        np.append(np.zeros(n), -1.0),
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(0.0, alpha[i, i]) for i in active] + [(None, None)],
        method="highs",
    )
    assert res.success, res.message
    return float(res.x[-1])


def oracle_poly_contains_rows(alpha: np.ndarray, T, S, tol: float = 1e-9, values=None) -> bool:
    """Is the silent-set-S polytope inside the silent-set-T one, read from T's cycle rows?

    Every cycle row of T's system whose users leave S's active set, and the
    zero-pin ``d_i <= 0`` of every user in T but not in S, is grouped by
    its users within S's active set, keeping the smallest right-hand side.
    A group holds when its box sum, or else the largest sum over its users
    in S's polytope (:func:`oracle_cycle_lp`; an empty polytope has none),
    is at most that right-hand side plus ``tol``.  ``values`` is an
    optional dict caching those largest sums by ``(S, users)``.
    """
    K = alpha.shape[0]
    S, T = frozenset(S), frozenset(T)
    inner_active = frozenset(range(K)) - S
    tightest = {frozenset([i]): 0.0 for i in T - S}
    for seq in oracle_cycles(sorted(frozenset(range(K)) - T)):
        support = frozenset(seq)
        if not support <= inner_active:
            reduced = support & inner_active
            rhs = oracle_cycle_rhs(alpha, seq)
            tightest[reduced] = min(rhs, tightest.get(reduced, rhs))
    values = {} if values is None else values
    for reduced, rhs in tightest.items():
        if sum(alpha[i, i] for i in reduced) <= rhs + tol:
            continue
        if (S, reduced) not in values:
            values[S, reduced] = oracle_cycle_lp(alpha, S, np.isin(np.arange(K), list(reduced)))
        if values[S, reduced] is not None and values[S, reduced] > rhs + tol:
            return False
    return True


def oracle_sum_gdof_assignment(alpha: np.ndarray) -> float:
    """Sum-GDoF under the optimality condition, by a maximum-weight assignment.

    ``sum a_ii`` minus the heaviest permutation of the cross gains (zero
    diagonal): a permutation splits into cycles, and each cycle's cross
    gains are what its region inequality subtracts from the direct sum.
    """
    from scipy.optimize import linear_sum_assignment

    cross = np.array(alpha, dtype=float)
    np.fill_diagonal(cross, 0.0)
    rows, cols = linear_sum_assignment(cross, maximize=True)
    return float(np.trace(alpha) - cross[rows, cols].sum())


def oracle_component_margin(alpha: np.ndarray, S, d, zero_tol: float = 1e-9) -> float:
    """Decision margin of one silent-set component at a nonnegative point.

    -inf when the point's zero pattern does not admit the component;
    otherwise the smallest margin over the upper boxes and cycle
    inequalities of the active users (nonnegativity holds by assumption
    and zero-pinning by admissibility, so neither shows up here).
    """
    d = np.asarray(d, dtype=float)
    S = set(S)
    if any(abs(d[i]) > zero_tol for i in S):
        return -math.inf
    K = alpha.shape[0]
    active = [i for i in range(K) if i not in S]
    margin = math.inf
    for i in active:
        margin = min(margin, alpha[i, i] - d[i])
    for seq in oracle_cycles(active):
        margin = min(margin, oracle_cycle_rhs(alpha, seq) - sum(d[u] for u in seq))
    return margin


def _best_union_margin(alpha: np.ndarray, d) -> float:
    K = alpha.shape[0]
    best = -math.inf
    for m in range(K + 1):
        for S in itertools.combinations(range(K), m):
            best = max(best, oracle_component_margin(alpha, S, d))
    return best


def oracle_in_union(alpha: np.ndarray, d, tol: float = 1e-9) -> bool:
    """Exhaustive union membership over all 2^K silent sets."""
    return _best_union_margin(alpha, d) >= -tol


def oracle_union_band(alpha: np.ndarray, d) -> float:
    """abs distance of the best component margin from zero (boundary band)."""
    return abs(_best_union_margin(alpha, d))


def random_channel(rng: np.random.Generator, K: int, cross_max: float = 1.2) -> np.ndarray:
    a = rng.uniform(0.0, cross_max, size=(K, K))
    diag = rng.uniform(0.3, 1.5, size=K)
    np.fill_diagonal(a, diag)
    return a


def random_condition_channel(rng: np.random.Generator, K: int) -> np.ndarray:
    """Random matrix guaranteed to satisfy the per-user optimality condition.

    Cross entries are capped at half of both endpoint direct exponents, so
    incoming plus outgoing maxima never exceed the direct term.
    """
    diag = rng.uniform(0.5, 1.0, size=K)
    a = np.zeros((K, K))
    for i in range(K):
        for j in range(K):
            if i != j:
                a[i, j] = rng.uniform(0.0, 0.5 * min(diag[i], diag[j]))
    np.fill_diagonal(a, diag)
    return a


class GridAchievability:
    """Brute-force achievability oracle over a lattice of power exponents.

    Evaluates the clamped GDoF formula on the full grid
    ``{0, -delta, ..., -r_max}^K`` and supports fast dominance queries
    via a bucketed suffix-maximum table.  The bucket width is half the
    grid step, which is finer than any slack the queries are entitled to,
    so bucketing never produces false positives and cannot hide a witness
    that clears the query threshold by at least one grid step.
    """

    def __init__(self, alpha: np.ndarray, delta: float = 0.05, r_max: float | None = None):
        self.alpha = np.asarray(alpha, dtype=float)
        self.K = self.alpha.shape[0]
        self.delta = delta
        if r_max is None:
            r_max = 2.0 * float(self.alpha.max())
        self.levels = -delta * np.arange(0, int(round(r_max / delta)) + 1)
        self.bucket = delta / 2.0
        ub = float(np.diag(self.alpha).max())
        self.nbuckets = int(math.ceil(ub / self.bucket)) + 2
        if self.K == 1:
            self.best = float(self.alpha[0, 0])  # r=0 achieves the full exponent
            return
        table = np.full((self.nbuckets,) * (self.K - 1), -np.inf)
        # one slice of the grid per level of r_0; each user's GDoF on it by
        # broadcasting, with forward_gdof's float operations in its order
        K, a = self.K, self.alpha
        r = [self.levels.reshape([-1 if k == j else 1 for k in range(1, K)]) for j in range(1, K)]
        for r0 in self.levels:
            r_all = [r0] + r
            D = []
            for i in range(K):
                terms = [a[i, j] + r_all[j] for j in range(K) if j != i]
                interf = functools.reduce(np.maximum, terms)
                D.append(np.maximum(0.0, a[i, i] + r_all[i] - np.maximum(0.0, interf)))
            D = np.broadcast_arrays(*D)
            keys = [np.minimum((d / self.bucket).astype(int), self.nbuckets - 1) for d in D[1:]]
            np.maximum.at(table, tuple(k.ravel() for k in keys), D[0].ravel())
        self.table = _suffix_max(table)

    def achievable(self, d, slack: float) -> bool:
        """Is some grid point's GDoF >= d - slack componentwise?"""
        t = np.asarray(d, dtype=float) - slack
        if self.K == 1:
            return self.best >= t[0]
        key = []
        for x in t[1:]:
            b = max(0, int(math.ceil(x / self.bucket - 1e-12)))
            if b >= self.nbuckets:
                return False
            key.append(b)
        return bool(self.table[tuple(key)] >= t[0])

    def sample_achieved(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """GDoF tuples of n random grid power vectors (for converse checks)."""
        R = self.levels[rng.integers(0, len(self.levels), size=(n, self.K))]
        return forward_gdof(self.alpha, R)


def _suffix_max(table: np.ndarray) -> np.ndarray:
    """Largest entry over every index at or above each index, axis by axis."""
    for axis in range(table.ndim):
        table = np.flip(np.maximum.accumulate(np.flip(table, axis=axis), axis=axis), axis=axis)
    return table


def _chunked_table(grid: GridAchievability) -> np.ndarray:
    """``grid.table`` as first built: the flat grid through forward_gdof, 200,000 rows at a time."""
    shape = (grid.nbuckets,) * (grid.K - 1)
    table = np.full(shape, -np.inf)
    nlev = len(grid.levels)
    total = nlev**grid.K
    chunk = 200_000
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        idx = np.unravel_index(np.arange(lo, hi), (nlev,) * grid.K)
        R = np.column_stack([grid.levels[ix] for ix in idx])
        D = forward_gdof(grid.alpha, R)
        keys = np.minimum((D[:, 1:] / grid.bucket).astype(int), grid.nbuckets - 1)
        flat = np.ravel_multi_index(tuple(keys.T), shape)
        np.maximum.at(table.reshape(-1), flat, D[:, 0])
    return _suffix_max(table)


def region_grid_points(alpha: np.ndarray, step: float) -> np.ndarray:
    """Grid points of the all-active polyhedron, via the oracle inequalities."""
    K = alpha.shape[0]
    axes = [np.arange(0.0, alpha[i, i] + step / 2, step) for i in range(K)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    keep = [p for p in pts if oracle_region_margin(alpha, (), p) >= -1e-12]
    return np.array(keep)
