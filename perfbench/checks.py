"""Independent output checks.

Each check takes library outputs already converted to plain Python data
(floats, lists, tuples, None for a silent power) and recomputes what it
can from the defining formulas, with its own enumeration and its own LP.
It returns a list of problems; an empty list means the output passed.
None of this imports the package under test.
"""

from __future__ import annotations

import itertools
import math
from statistics import NormalDist

import numpy as np

#: Slack for comparisons against values the library rounds or solves for.
TOL = 1e-9
#: Slack for optimum values from two different LP solves.
LP_TOL = 1e-7
_Z95 = NormalDist().inv_cdf(0.975)


# ---------------------------------------------------------------- formulas


def cycle_rhs(a: np.ndarray, users) -> float:
    """Right-hand side of ``sum_{u in users} d_u <= rhs`` for users in arc order.

    A single user is its direct bound ``d_u <= a_uu``; a circuit
    u_0 -> u_1 -> ... -> u_0 bounds the sum by
    ``sum_k a[u_k, u_k] - a[u_k, u_{k+1}]``.
    """
    u = [int(x) for x in users]
    if len(u) == 1:
        return float(a[u[0], u[0]])
    return float(sum(a[u[k], u[k]] - a[u[k], u[(k + 1) % len(u)]] for k in range(len(u))))


def all_cycles(users) -> list:
    """Every directed cycle over subsets of size >= 2, one rotation each."""
    base = sorted(int(x) for x in users)
    out = []
    for m in range(2, len(base) + 1):
        for perm in itertools.permutations(base, m):
            if perm[0] == min(perm):
                out.append(perm)
    return out


def condition_holds(a: np.ndarray, eps: float = 1e-9) -> list:
    """Per-user verdicts of the optimality condition, from its definition."""
    K = a.shape[0]
    out = []
    for i in range(K):
        caused = max((a[j, i] for j in range(K) if j != i), default=0.0)
        suffered = max((a[i, k] for k in range(K) if k != i), default=0.0)
        out.append(bool(a[i, i] - caused - suffered >= -eps))
    return out


def relaxed_gdof(a: np.ndarray, r) -> tuple:
    """Un-clamped TIN GDoF of each user, and the interferer that sets its floor.

    ``r`` holds power exponents, None for a silent user: a silent user
    does not interfere, and its own GDoF reads -inf.  ``succ[i]`` is the
    interferer whose arc binds user i, or -1 when the noise floor does
    (all interference below noise).
    """
    K = a.shape[0]
    p = np.array([-np.inf if v is None else v for v in r], dtype=float)
    m = a + p[None, :]
    np.fill_diagonal(m, -np.inf)
    j = m.argmax(axis=1)
    top = m[np.arange(K), j]
    succ = np.where(top > 0.0, j, -1)
    return np.diag(a) + p - np.maximum(top, 0.0), succ


def wilson(passes: int, n: int) -> tuple:
    p = passes / n
    z2 = _Z95 * _Z95
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = _Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return max(0.0, centre - half), min(1.0, centre + half)


def sum_gdof_by_assignment(a: np.ndarray) -> float:
    """Sum-GDoF under the optimality condition: sum a_ii minus a max-weight assignment."""
    from scipy.optimize import linear_sum_assignment  # not at import: set-up would pay for it

    cross = a.copy()
    np.fill_diagonal(cross, 0.0)
    rows, cols = linear_sum_assignment(cross, maximize=True)
    return float(np.trace(a) - cross[rows, cols].sum())


def compact_lp(a: np.ndarray, w) -> float | None:
    """max w.d over the all-active region as an LP over (d, r); None when empty.

    Rows: d_i - r_i <= a_ii and d_i - r_i + r_j <= a_ii - a_ij, with
    0 <= d_i <= a_ii and r_i <= 0.  Its projection on d is the region.
    """
    from scipy.optimize import linprog  # not at import: set-up would pay for it

    K = a.shape[0]
    rows, rhs = [], []
    for i in range(K):
        e = np.zeros(2 * K)
        e[i], e[K + i] = 1.0, -1.0
        rows.append(e)
        rhs.append(a[i, i])
        for j in range(K):
            if j != i:
                e = np.zeros(2 * K)
                e[i], e[K + i], e[K + j] = 1.0, -1.0, 1.0
                rows.append(e)
                rhs.append(a[i, i] - a[i, j])
    c = np.concatenate([-np.asarray(w, dtype=float), np.zeros(K)])
    bounds = [(0.0, float(a[i, i])) for i in range(K)] + [(None, 0.0)] * K
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(-res.fun)


# ------------------------------------------------------------------ checks


def check_membership(a, d, kind, expected, out) -> list:
    """One membership verdict against its certificate.

    ``kind`` is "point" (union test: zero coordinates are silent) or
    "power" (all-active test).  ``out`` has ``feasible``, ``r`` (list with
    None for SILENT), ``cycle`` and ``rhs``.
    """
    problems = []
    K = a.shape[0]
    d = np.asarray(d, dtype=float)
    zero = {i for i in range(K) if kind == "point" and d[i] <= TOL}
    if expected is not None and bool(out["feasible"]) != expected:
        problems.append(f"verdict {out['feasible']} contradicts the construction ({expected})")
    if "silent" in out and set(out["silent"]) != zero:
        problems.append(f"reported silent set {sorted(out['silent'])}, zero set is {sorted(zero)}")
    if out["feasible"]:
        r = out["r"]
        if r is None or len(r) != K:
            return problems + ["feasible verdict without a full power vector"]
        silent = {i for i, v in enumerate(r) if v is None}
        if silent != zero:
            problems.append(f"SILENT on {sorted(silent)}, zero set is {sorted(zero)}")
        if any(v is not None and not (math.isfinite(v) and v <= 0.0) for v in r):
            problems.append("power exponent above 0 or not finite")
        got = relaxed_gdof(a, r)[0]
        short = [i for i in range(K) if r[i] is not None and got[i] < d[i] - TOL]
        if short:
            problems.append(f"relaxed GDoF below target for users {short}")
    else:
        cyc = out["cycle"]
        if not cyc or len(set(cyc)) != len(cyc) or any(u in zero or not 0 <= u < K for u in cyc):
            return problems + [f"infeasible verdict with invalid cycle {cyc}"]
        rhs = cycle_rhs(a, cyc)
        attained = float(sum(d[u] for u in cyc))
        if not rhs < attained:
            problems.append(f"cycle {cyc} bound {rhs} is not below the attained sum {attained}")
        if out["rhs"] is None or abs(out["rhs"] - rhs) > TOL:
            problems.append(f"reported bound {out['rhs']} differs from {rhs}")
    return problems


def check_condition_estimate(est: dict, verdicts=None) -> list:
    """A condition-probability estimate; ``verdicts`` are recomputed per-trial verdicts."""
    problems = []
    n, passes = est["trials"], est["passes"]
    if not 0 <= passes <= n:
        return [f"passes {passes} outside 0..{n}"]
    if verdicts is not None and int(sum(verdicts)) != passes:
        problems.append(f"passes {passes}, recomputed {int(sum(verdicts))}")
    if abs(est["prob"] - passes / n) > 1e-12:
        problems.append(f"prob {est['prob']} != {passes}/{n}")
    lo, hi = wilson(passes, n)
    if abs(est["ci_low"] - lo) > TOL or abs(est["ci_high"] - hi) > TOL:
        problems.append(f"interval ({est['ci_low']}, {est['ci_high']}) != ({lo}, {hi})")
    return problems


def trial_verdict(gains: np.ndarray, nominal_P: float) -> bool:
    """Condition verdict of one layout from its linear link gains (clipped at 1)."""
    alpha = np.log(np.maximum(gains, 1.0)) / math.log(nominal_P)
    return all(condition_holds(alpha))


def check_inequalities(a: np.ndarray, cycles) -> list:
    """Emitted ``(users, rhs)`` pairs match the defining formula."""
    return [
        f"cycle {u} rhs {rhs} != {cycle_rhs(a, u)}"
        for u, rhs in cycles
        if abs(rhs - cycle_rhs(a, u)) > TOL
    ][:3]


def check_full_region(a: np.ndarray, cycles) -> list:
    """The all-active system lists every cycle exactly once, with the right bound."""
    want = {tuple(c) for c in all_cycles(range(a.shape[0]))}
    got = [tuple(u) for u, _ in cycles]
    problems = check_inequalities(a, cycles)
    if len(got) != len(set(got)) or set(got) != want:
        problems.append(f"{len(got)} inequalities, expected the {len(want)} cycles")
    return problems


def check_pruning(a: np.ndarray, kept, tol: float = 1e-12) -> list:
    """Every dropped cycle is implied by the boxes plus a kept subset inequality."""
    box = np.diag(a)
    kept = [(tuple(u), rhs) for u, rhs in kept]
    problems = check_inequalities(a, kept)
    kept_sets = [(set(u), rhs) for u, rhs in kept]
    names = {u for u, _ in kept}
    for c in all_cycles(range(a.shape[0])):
        if c in names:
            continue
        U, rhs = set(c), cycle_rhs(a, c)
        implied = box[list(U)].sum() <= rhs + tol or any(
            U2 <= U and r2 + box[list(U - U2)].sum() <= rhs + tol for U2, r2 in kept_sets
        )
        if not implied:
            problems.append(f"dropped cycle {c} is not implied")
            break
    return problems


def check_optimum(a, w, value, point, condition: bool, sum_weights: bool) -> list:
    """An optimizer's value against a reference, and its point against every inequality."""
    problems = []
    K = a.shape[0]
    if condition and sum_weights:
        ref = sum_gdof_by_assignment(a)
    else:
        ref = compact_lp(a, w)
    if value is None:
        return [] if ref is None else [f"reported empty, reference optimum {ref}"]
    if ref is None:
        return [f"optimum {value} reported for an empty region"]
    if abs(value - ref) > LP_TOL:
        problems.append(f"optimum {value} != reference {ref}")
    x = np.asarray(point, dtype=float)
    if abs(float(np.dot(w, x)) - value) > TOL:
        problems.append("maximizer does not attain the reported value")
    if np.any(x < -TOL) or np.any(x > np.diag(a) + TOL):
        problems.append("maximizer leaves the boxes")
    worst = max((x[list(c)].sum() - cycle_rhs(a, c) for c in all_cycles(range(K))), default=0.0)
    if worst > TOL:
        problems.append(f"maximizer violates a cycle inequality by {worst}")
    return problems


def check_union(K: int, components, condition: bool) -> list:
    """One component per silent set; under the condition only the all-active one survives."""
    problems = []
    if sorted(tuple(sorted(s)) for s, _ in components) != sorted(
        tuple(c) for m in range(K + 1) for c in itertools.combinations(range(K), m)
    ):
        problems.append("components do not cover every silent set once")
    if condition and any(s and sub is None for s, sub in components):
        problems.append("union did not collapse to the all-active region under the condition")
    return problems


def check_gap_rows(rows) -> list:
    """Achieved TIN rates never exceed the outer bound: ``(achieved, bound)`` pairs."""
    bad = [(x, b) for x, b in rows if not x <= b + TOL]
    return [f"achieved {bad[0][0]} bits above bound {bad[0][1]}"] if bad else []


def check_exit_code(code: int, verdict: bool) -> list:
    """CLI contract: 0 for a positive verdict, 1 for a negative one."""
    want = 0 if verdict else 1
    return [] if code == want else [f"exit code {code}, contract says {want}"]
