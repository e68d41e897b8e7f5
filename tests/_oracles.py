"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from the defining formulas with
its own enumeration code, so tests compare two routes to the same answer
rather than a module against itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def forward_gdof(alpha: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Clamped per-user GDoF for a batch of finite power-exponent rows.

    Direct evaluation of d_i = max(0, a_ii + r_i - max(0, max_j(a_ij + r_j))).
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
        D[:, i] = np.maximum(0.0, alpha[i, i] + R[:, i] - interf)
    return D


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


def oracle_contains(alpha: np.ndarray, T, S, tol: float = 1e-9) -> bool:
    """Is the silent-set-S polytope inside the silent-set-T one (T subset S)?

    Both are bounded, so containment holds exactly when every vertex of
    the inner polytope meets the outer system within ``tol``.
    """
    return all(oracle_region_margin(alpha, T, v) >= -tol for v in oracle_vertices(alpha, S))


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
        shape = (self.nbuckets,) * (self.K - 1)
        table = np.full(shape, -np.inf)
        nlev = len(self.levels)
        total = nlev**self.K
        chunk = 200_000
        for lo in range(0, total, chunk):
            hi = min(lo + chunk, total)
            idx = np.unravel_index(np.arange(lo, hi), (nlev,) * self.K)
            R = np.column_stack([self.levels[ix] for ix in idx])
            D = forward_gdof(self.alpha, R)
            keys = np.minimum(
                (D[:, 1:] / self.bucket).astype(int), self.nbuckets - 1
            )
            flat = np.ravel_multi_index(tuple(keys.T), shape)
            np.maximum.at(table.reshape(-1), flat, D[:, 0])
        for axis in range(self.K - 1):
            table = np.flip(
                np.maximum.accumulate(np.flip(table, axis=axis), axis=axis),
                axis=axis,
            )
        self.table = table

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


def region_grid_points(alpha: np.ndarray, step: float) -> np.ndarray:
    """Grid points of the all-active polyhedron, via the oracle inequalities."""
    K = alpha.shape[0]
    axes = [np.arange(0.0, alpha[i, i] + step / 2, step) for i in range(K)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    keep = [p for p in pts if oracle_region_margin(alpha, (), p) >= -1e-12]
    return np.array(keep)
