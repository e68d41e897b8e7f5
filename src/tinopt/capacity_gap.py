"""Finite-SNR rate bounds and constant-gap certificates for TIN.

Everything here is in bits (base-2 logs) and computed in the log domain:
powers are carried as exponents and expanded only inside ``logaddexp2``,
so nominal powers like 1e8 with exponents up to 2 never overflow.

The outer bounds instantiate, per directed cyclic sequence of users, the
known capacity outer bounds of the cyclic interference channel in the
weak-interference regime; the inner bounds are the exact Shannon rates of
TIN under a recovered power allocation.  Their linearized forms differ by
a constant independent of power: 1 + log2(K) per user and
m*log2(3K) per length-m cycle, which is the certified gap.

Cycle rows follow :func:`region.enumerate_cycles` with GDoF right-hand
sides from :func:`potential_graph.cycle_rhs`, the region's own numbers;
:func:`gap_certificate` takes its outer bounds from :func:`rate_outer_bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_model import (
    ChannelMatrix,
    PowerExponents,
    check_tin_condition,
)
from .potential_graph import canonical_cycle, cycle_rhs, recover_power_allocation
from .region import K_MAX_UNION, enumerate_cycles


def _log2_sum_pow(exponents_bits) -> float:
    """log2(sum_k 2**e_k) computed stably."""
    acc = None
    for e in exponents_bits:
        acc = e if acc is None else float(np.logaddexp2(acc, e))
    return acc


@dataclass(frozen=True, eq=False)
class FiniteSnrChannel:
    """A strength-exponent matrix pinned to a concrete finite nominal power > 1."""

    channel: ChannelMatrix
    power: float

    def __post_init__(self):
        if not (math.isfinite(self.power) and self.power > 1):
            raise ValueError(f"nominal power must be finite and exceed 1, got {self.power}")

    @property
    def K(self) -> int:
        return self.channel.K

    @property
    def log2P(self) -> float:
        return math.log2(self.power)

    def snr_bits(self, i: int) -> float:
        """log2 of the direct-link power ratio of user i (>= 0)."""
        return self.channel.alpha[i, i] * self.log2P

    def inr_bits(self, k: int, i: int) -> float:
        """log2 of the cross-link power ratio from transmitter i at receiver k."""
        return self.channel.alpha[k, i] * self.log2P


@dataclass(frozen=True)
class CyclicBoundQuantities:
    """Per-position outer-bound quantities for one cyclic sequence.

    Positions follow the sequence; the interferer of position j is
    position j+1's transmitter (indices wrap).  All values are in bits.
    """

    cycle: tuple
    kappa: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    rho: np.ndarray

    @property
    def m(self) -> int:
        return len(self.cycle)


def cyclic_quantities(ch: FiniteSnrChannel, cycle) -> CyclicBoundQuantities:
    seq = tuple(int(u) for u in cycle)
    m = len(seq)
    if m < 2:
        raise ValueError("cycle needs at least two users")
    if len(set(seq)) != m or not set(seq) <= set(range(ch.K)):
        raise ValueError(f"invalid cycle {seq} for K={ch.K}")
    snr = np.array([ch.snr_bits(u) for u in seq])
    # inr[j]: interference caused by position j's transmitter at the
    # previous position's receiver.
    inr = np.array([ch.inr_bits(seq[j - 1], seq[j]) for j in range(m)])
    lam = np.array([np.logaddexp2(0.0, s) for s in snr])
    mu = np.array([np.logaddexp2(0.0, x) for x in inr])
    beta = lam - mu
    nxt = lambda j: (j + 1) % m
    kappa = np.array(
        [_log2_sum_pow([0.0, inr[nxt(j)], snr[j] - mu[j]]) for j in range(m)]
    )
    gamma = np.array([_log2_sum_pow([0.0, inr[nxt(j)], snr[j]]) for j in range(m)])
    rho = np.empty(m)
    for j in range(m):
        rest = sum(kappa[t] for t in range(m) if t not in (j, (j - 1) % m))
        rho[j] = beta[(j - 1) % m] + gamma[j] + rest
    return CyclicBoundQuantities(
        cycle=seq, kappa=kappa, beta=beta, gamma=gamma, lam=lam, mu=mu, rho=rho
    )


@dataclass(frozen=True)
class LimitReport:
    """Convergence of the normalized outer-bound quantities to their limits."""

    cycle: tuple
    powers: tuple
    kappa_sum_limit: float
    kappa_sum_errors: tuple
    rho_limits: tuple
    rho_errors: tuple  # rho_errors[k][p]
    monotone: bool
    final_error: float

    def converged(self, tol: float = 0.02) -> bool:
        return self.monotone and self.final_error < tol


def gdof_limit_checks(alpha: ChannelMatrix, cycle, powers) -> LimitReport:
    """Track sum(kappa)/log2(P) and rho_k/log2(P) toward their analytic limits.

    Valid only under the optimality condition, where the normalized cycle
    bound tends to the region inequality's right-hand side and each rho
    tends to that value plus the direct exponent of the excluded user.
    """
    if not check_tin_condition(alpha).overall:
        raise ValueError("limit identities require the optimality condition")
    seq = canonical_cycle(cycle)
    P_list = [float(p) for p in powers]
    if any(p <= 1 for p in P_list) or any(
        P_list[i] >= P_list[i + 1] for i in range(len(P_list) - 1)
    ):
        raise ValueError("powers must be increasing and exceed 1")
    # cyclic_quantities validates the cycle, so run it before indexing alpha
    quantities = [cyclic_quantities(FiniteSnrChannel(alpha, P), seq) for P in P_list]
    a = alpha.alpha
    m = len(seq)
    kappa_limit = cycle_rhs(alpha, seq)
    rho_limits = tuple(kappa_limit + a[seq[k - 1], seq[k]] for k in range(m))
    kappa_errors = []
    rho_errors = [[] for _ in range(m)]
    for P, q in zip(P_list, quantities):
        L = math.log2(P)
        kappa_errors.append(abs(q.kappa.sum() / L - kappa_limit))
        for k in range(m):
            rho_errors[k].append(abs(q.rho[k] / L - rho_limits[k]))
    series = [kappa_errors] + rho_errors
    monotone = all(
        s[i + 1] <= s[i] + 1e-12 for s in series for i in range(len(s) - 1)
    )
    final = max(s[-1] for s in series)
    return LimitReport(
        cycle=seq,
        powers=tuple(P_list),
        kappa_sum_limit=kappa_limit,
        kappa_sum_errors=tuple(kappa_errors),
        rho_limits=tuple(float(x) for x in rho_limits),
        rho_errors=tuple(tuple(e) for e in rho_errors),
        monotone=monotone,
        final_error=float(final),
    )


def tin_rates(ch: FiniteSnrChannel, r: PowerExponents) -> np.ndarray:
    """Exact Shannon rates of TIN at power exponents ``r`` (bits per use).

    Silent users transmit nothing: zero rate, zero interference.
    """
    if len(r) != ch.K:
        raise ValueError(f"r has length {len(r)}, channel has K={ch.K}")
    a = ch.channel.alpha
    L = ch.log2P
    rates = np.zeros(ch.K)
    for i in range(ch.K):
        if r.is_silent(i):
            continue
        interf = [0.0]
        for j in range(ch.K):
            if j != i and not r.is_silent(j):
                interf.append((a[i, j] + r[j]) * L)
        den = _log2_sum_pow(interf)
        sig = (a[i, i] + r[i]) * L
        rates[i] = np.logaddexp2(0.0, sig - den)
    return rates


@dataclass(frozen=True)
class RateBound:
    """One outer bound: exact log form and its power-linearized form."""

    kind: str  # "user" | "cycle"
    users: tuple
    exact_bits: float
    linear_bits: float


@dataclass(frozen=True)
class OuterBounds:
    condition_holds: bool  # bounds are converse-valid only under the condition
    user_bounds: tuple
    cycle_bounds: tuple


def rate_outer_bounds(ch: FiniteSnrChannel) -> OuterBounds:
    """Per-user and per-cycle rate outer bounds at the channel's power.

    The exact per-cycle form is the sum of the kappa quantities; the
    linearized form adds log2(3) per cycle position to the GDoF
    right-hand side times log2(P).
    """
    if ch.K > K_MAX_UNION:
        raise ValueError(f"cycle family too large beyond K={K_MAX_UNION}")
    L = ch.log2P
    a = ch.channel.alpha
    users = tuple(
        RateBound(
            "user",
            (i,),
            exact_bits=float(np.logaddexp2(0.0, a[i, i] * L)),
            linear_bits=float(a[i, i] * L + 1.0),
        )
        for i in range(ch.K)
    )
    cycles = []
    for seq in enumerate_cycles(range(ch.K)):
        q = cyclic_quantities(ch, seq)
        rhs = cycle_rhs(ch.channel, seq)
        cycles.append(
            RateBound(
                "cycle",
                seq,
                exact_bits=float(q.kappa.sum()),
                linear_bits=float(rhs * L + len(seq) * math.log2(3.0)),
            )
        )
    return OuterBounds(
        condition_holds=check_tin_condition(ch.channel).overall,
        user_bounds=users,
        cycle_bounds=tuple(cycles),
    )


@dataclass(frozen=True)
class ConstraintGap:
    kind: str
    users: tuple
    outer_exact: float
    outer_linear: float
    inner_linear: float
    achieved_bits: float
    analytic_sigma: float
    empirical_sigma: float
    tight: bool


@dataclass(frozen=True)
class GapReport:
    K: int
    power: float
    d: tuple
    r: PowerExponents
    rows: tuple

    def csv_rows(self, instance_id: str) -> list:
        out = []
        for row in self.rows:
            out.append(
                {
                    "instance_id": instance_id,
                    "constraint_type": row.kind,
                    "users": "|".join(str(u) for u in row.users),
                    "P": self.power,
                    "analytic_sigma": row.analytic_sigma,
                    "empirical_sigma": row.empirical_sigma,
                    "bound_bits": row.outer_exact,
                    "achieved_bits": row.achieved_bits,
                }
            )
        return out


def gap_certificate(
    ch: FiniteSnrChannel, d, tight_tol: float = 1e-6
) -> GapReport:
    """Certify the constant gap at one region point.

    Requires the optimality condition and an achievable (all-active)
    point.  For every constraint of the region, reports the exact and
    linearized outer bounds (from :func:`rate_outer_bounds`, which refuses
    K > ``K_MAX_UNION`` before any work), the linearized inner bound, the
    achieved exact TIN rates under the recovered power allocation, and the
    analytic gap (1 + log2 K per user, m*log2(3K) per cycle).  Raises if a
    constraint that is tight at ``d`` shows an empirical gap above its
    analytic value, since that would falsify the certificate.
    """
    bounds = rate_outer_bounds(ch)
    if not bounds.condition_holds:
        raise ValueError("gap certificates require the optimality condition")
    dv = np.asarray(d, dtype=float)
    cert = recover_power_allocation(ch.channel, dv)
    if not cert.feasible:
        raise ValueError(
            f"point is outside the all-active region: sum over users "
            f"{cert.violated_users} exceeds {cert.violated_rhs}"
        )
    K = ch.K
    L = ch.log2P
    a = ch.channel.alpha
    rates = tin_rates(ch, cert.r)
    log2K = math.log2(K)
    sigma_user = 1.0 + log2K
    rows = []
    for i, bound in enumerate(bounds.user_bounds):
        rows.append(
            ConstraintGap(
                kind="user",
                users=(i,),
                outer_exact=bound.exact_bits,
                outer_linear=bound.linear_bits,
                inner_linear=float(a[i, i] * L - log2K),
                achieved_bits=float(rates[i]),
                analytic_sigma=sigma_user,
                empirical_sigma=float(bound.exact_bits - rates[i]),
                tight=bool(abs(dv[i] - a[i, i]) <= tight_tol),
            )
        )
    for bound in bounds.cycle_bounds:
        seq = bound.users
        m = len(seq)
        rhs = cycle_rhs(ch.channel, seq)
        achieved = float(sum(rates[u] for u in seq))
        rows.append(
            ConstraintGap(
                kind="cycle",
                users=seq,
                outer_exact=bound.exact_bits,
                outer_linear=bound.linear_bits,
                inner_linear=float(rhs * L - m * log2K),
                achieved_bits=achieved,
                analytic_sigma=float(m * math.log2(3.0 * K)),
                empirical_sigma=float(bound.exact_bits - achieved),
                tight=bool(abs(sum(dv[u] for u in seq) - rhs) <= tight_tol),
            )
        )
    assert sigma_user < math.log2(3.0 * K) + 1e-12
    for row in rows:
        if row.tight and row.empirical_sigma > row.analytic_sigma + 1e-6:
            raise ArithmeticError(
                f"certificate violated on {row.kind} {row.users}: "
                f"{row.empirical_sigma} > {row.analytic_sigma}"
            )
    return GapReport(K=K, power=ch.power, d=tuple(float(x) for x in dv), r=cert.r, rows=tuple(rows))
