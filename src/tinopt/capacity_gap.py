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

:func:`rate_outer_bounds` and :func:`gap_certificate` read one block
builder: the users as one ``(K, 1)`` block, then one ``(c, m)`` block per
cycle length of ``potential_graph.cycle_blocks``, each with its GDoF
right-hand sides and outer bounds; a user is the m = 1 case of every row
formula.  A position's kappa reads only its predecessor, itself and its
successor, so the builder computes one ``(K, K, K)`` kappa table per
power and gathers each block's kappa from it in one step; the right-hand
sides come from ``potential_graph._cycle_arcs``, one gather per block of
each position's direct exponent and its arc from the predecessor.  The
per-cycle quantities of :func:`cyclic_quantities` and
:func:`gdof_limit_checks`, rho included, are block arithmetic on that
gather (one row per power for :func:`gdof_limit_checks`).  A row's kappa
sum is numpy's sum of that row, as of one cycle; every other sum over
positions is added from 0 in position order, so each row has the same
floats as when computed one constraint at a time.  A :class:`GapReport`
holds its rows by column, one array per field and block, and builds its
records only when ``rows`` is first read; its CSV rows are read from the
columns.  Per-cycle bounds are exported for at most ``K_MAX_EXPORT`` users.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel_model import (
    ChannelMatrix,
    PowerExponents,
    _check_power,
    _check_r,
    _entries,
    _exponent_vector,
    check_tin_condition,
)
from .potential_graph import (
    _arcs_rhs,
    _cycle_arcs,
    _cycle_users,
    _smallest_first,
    _sum_positions,
    cycle_blocks,
    cycle_rhs,
    recover_power_allocation,
)


#: Largest final normalized error at which :meth:`LimitReport.converged` holds.
CONVERGENCE_TOL = 0.02


class ConditionNotMetError(ValueError):
    """Raised when a limit or certificate needs the optimality condition and the channel fails it."""


class PointOutsideRegionError(ValueError):
    """Raised when a gap certificate is asked for at a point outside the all-active region."""


class CertificateViolatedError(ArithmeticError):
    """Raised when a row tight at the point shows an empirical gap above its analytic value."""


@dataclass(frozen=True, eq=False)
class FiniteSnrChannel:
    """A strength-exponent matrix pinned to a concrete finite nominal power > 1."""

    channel: ChannelMatrix
    power: float

    def __post_init__(self):
        object.__setattr__(self, "power", _check_power(self.power, "nominal power"))

    @property
    def K(self) -> int:
        return self.channel.K

    @property
    def log2P(self) -> float:
        return math.log2(self.power)


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


def _kappa_terms(L, direct: np.ndarray, incoming: np.ndarray) -> tuple:
    """``(kappa, snr, mu, mu_next)``, each ``(c, m)``, of :func:`potential_graph._cycle_arcs`.

    ``L`` is ``log2(P)``, or a column of them for one cycle at many powers.
    Position ``j``'s interferer is the transmitter at position ``j+1``.
    """
    m = direct.shape[1]
    snr = direct * L
    # position j's transmitter at the previous position's receiver
    mu = np.logaddexp2(0.0, incoming * L)
    mu_next = mu[:, range(1 - m, 1)]  # log2(1 + INR_{j+1}), the first step of each chain
    return np.logaddexp2(mu_next, snr - mu), snr, mu, mu_next


def _cycle_terms(L, direct: np.ndarray, incoming: np.ndarray) -> tuple:
    """``(kappa, beta, gamma, lam, mu)``, each ``(c, m)``, built on :func:`_kappa_terms`."""
    kappa, snr, mu, mu_next = _kappa_terms(L, direct, incoming)
    lam = np.logaddexp2(0.0, snr)
    return kappa, lam - mu, np.logaddexp2(mu_next, snr), lam, mu


def cyclic_quantities(ch: FiniteSnrChannel, cycle) -> CyclicBoundQuantities:
    """The quantities of one cycle, positions in the given order (see ``_cycle_users``)."""
    seq = _cycle_users(cycle, ch.K)
    arcs = _cycle_arcs(ch.channel.alpha, np.array([seq]))
    kappa, beta, gamma, lam, mu = _cycle_terms(ch.log2P, *arcs)
    return CyclicBoundQuantities(cycle=seq, kappa=kappa[0], beta=beta[0], gamma=gamma[0],
                                 lam=lam[0], mu=mu[0], rho=_rho(kappa, beta, gamma)[0])


def _rho(kappa: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``rho[:, j] = beta[:, j-1] + gamma[:, j] + rest``, ``rest`` the kappa of every position
    but ``j`` and ``j-1`` from 0 in position order (a skipped one adds +0.0; kappa > 0)."""
    m = kappa.shape[1]
    j = np.arange(m)
    rest = np.zeros(kappa.shape)
    for t in range(m):  # position t's kappa is in the rest of all but positions t and t+1
        rest += np.where((j == t) | (j == (t + 1) % m), 0.0, kappa[:, t, None])
    return beta[:, range(-1, m - 1)] + gamma + rest


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

    def converged(self, tol: float = CONVERGENCE_TOL) -> bool:
        return self.monotone and self.final_error < tol


def gdof_limit_checks(alpha: ChannelMatrix, cycle, powers) -> LimitReport:
    """Track sum(kappa)/log2(P) and rho_k/log2(P) toward their analytic limits.

    Valid only under the optimality condition, where the normalized cycle
    bound tends to the region inequality's right-hand side and each
    position's rho tends to that value plus the cross exponent ``a_pq`` of
    the arc into it from its predecessor ``p``.
    The cycle and the powers, at least one, are checked first
    (``ValueError``); a channel that fails the condition then raises
    :class:`ConditionNotMetError` before any term is computed.  Errors that
    grow by at most 1e-12, rounding alone, still count as monotone.
    """
    seq = _smallest_first(_cycle_users(cycle, alpha.K))
    P_list = [_check_power(p, "powers") for p in _entries(powers, "powers")]
    if not P_list:
        raise ValueError("powers must not be empty")
    if any(P_list[i] >= P_list[i + 1] for i in range(len(P_list) - 1)):
        raise ValueError("powers must be increasing")
    if not check_tin_condition(alpha).overall:  # a verdict, after the input is known valid
        raise ConditionNotMetError("limit identities require the optimality condition")
    L = np.array([math.log2(P) for P in P_list])[:, None]  # one row per power
    direct, incoming = _cycle_arcs(alpha.alpha, np.array([seq]))
    kappa, beta, gamma, _, _ = _cycle_terms(L, direct, incoming)
    kappa_limit = cycle_rhs(alpha, seq)
    rho_limits = kappa_limit + incoming[0]
    # per power: the kappa sum's error (a row summed as one cycle's), then each rho's
    errors = np.abs(np.column_stack([kappa.sum(axis=1) / L[:, 0] - kappa_limit,
                                     _rho(kappa, beta, gamma) / L - rho_limits]))
    return LimitReport(
        cycle=seq,
        powers=tuple(P_list),
        kappa_sum_limit=kappa_limit,
        kappa_sum_errors=tuple(errors[:, 0]),
        rho_limits=tuple(rho_limits.tolist()),
        rho_errors=tuple(map(tuple, errors[:, 1:].T)),
        monotone=bool(np.all(errors[1:] <= errors[:-1] + 1e-12)),
        final_error=float(errors[-1].max()),
    )


def tin_rates(ch: FiniteSnrChannel, r) -> np.ndarray:
    """Exact Shannon rates of TIN at power exponents ``r`` (bits per use).

    ``r`` as in :func:`channel_model.tin_gdof`; SILENT is exponent ``-inf``:
    zero rate, zero interference.  Each user's noise-plus-interference
    exponent is one ``logaddexp2`` reduction over a row that starts at 0
    (the noise), with the user's own signal at ``-inf``.
    """
    e = (ch.channel.alpha + _check_r(ch.channel, r)) * ch.log2P
    sig = np.diag(e).copy()
    np.fill_diagonal(e, -np.inf)
    den = np.logaddexp2.reduce(np.hstack([np.zeros((ch.K, 1)), e]), axis=1)
    return np.logaddexp2(0.0, sig - den)


class RateBound(NamedTuple):
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


def _kappa_table(a: np.ndarray, L: float) -> np.ndarray:
    """``T[p, q, s]``, ``(K, K, K)``: the kappa of a position ``q`` after ``p`` and before ``s``.

    A position's kappa reads only its predecessor, itself and its successor,
    so one table per power ``L = log2(P)`` holds every cycle's: the
    operations of :func:`_kappa_terms` on the same operands, with
    ``mu[p, q]`` the transmitter ``q`` heard at receiver ``p``.
    """
    mu = np.logaddexp2(0.0, a * L)
    return np.logaddexp2(mu[None], (a.diagonal() * L - mu)[:, :, None])


def _bound_blocks(ch: FiniteSnrChannel, cycles: list):
    """``(C, rhs, exact, linear)`` per block: sequences, right-hand sides, outer bounds in bits.

    Users first, ``log2(1 + SNR_i)`` and ``a_ii log2(P) + 1``; then each
    block of ``cycles``, ``cycle_blocks(range(K))``: its kappa gathered
    from :func:`_kappa_table` and summed as one cycle's, and
    ``rhs log2(P) + m log2(3)``.  Each block is computed when it is reached.
    """
    L = ch.log2P
    a = ch.channel.alpha
    a_ii = a.diagonal()
    yield np.arange(ch.K)[:, None], a_ii, np.logaddexp2(0.0, a_ii * L), a_ii * L + 1.0
    T = _kappa_table(a, L)
    for C in cycles:
        m = C.shape[1]
        rhs = _arcs_rhs(*_cycle_arcs(a, C))  # cycle_rhs of the block
        exact = T[C[:, range(-1, m - 1)], C, C[:, range(1 - m, 1)]].sum(axis=1)
        yield C, rhs, exact, rhs * L + m * math.log2(3.0)


#: A record from an iterable of its fields, as ``_make`` without its length check and frame.
_rate_bound = functools.partial(tuple.__new__, RateBound)


def rate_outer_bounds(ch: FiniteSnrChannel) -> OuterBounds:
    """Per-user and per-cycle rate outer bounds at the channel's power.

    The exact per-cycle form is the sum of the kappa quantities; the
    linearized form adds log2(3) per cycle position to the GDoF
    right-hand side times log2(P).  Refuses more than ``K_MAX_EXPORT`` users.
    """
    bounds = []
    for C, _, exact, linear in _bound_blocks(ch, cycle_blocks(range(ch.K))):
        kind = "user" if C.shape[1] == 1 else "cycle"
        bounds += map(_rate_bound, zip(itertools.repeat(kind), zip(*C.T.tolist()),
                                       exact.tolist(), linear.tolist()))
    return OuterBounds(
        condition_holds=check_tin_condition(ch.channel).overall,
        user_bounds=tuple(bounds[:ch.K]),
        cycle_bounds=tuple(bounds[ch.K:]),
    )


class ConstraintGap(NamedTuple):
    """One row of a :class:`GapReport`: a user (``m = 1``) or a length-``m`` cycle."""

    kind: str
    users: tuple
    outer_exact: float
    outer_linear: float
    inner_linear: float
    achieved_bits: float
    analytic_sigma: float
    empirical_sigma: float
    tight: bool


#: Header of the gap CSV: the keys of :meth:`GapReport.csv_rows`, in order.
GAP_CSV_HEADER = (
    "instance_id,constraint_type,users,P,analytic_sigma,empirical_sigma,bound_bits,achieved_bits"
)


#: A record from an iterable of its fields, as ``_make`` without its length check and frame.
_gap_row = functools.partial(tuple.__new__, ConstraintGap)


@dataclass(frozen=True, eq=False)
class GapReport:
    """The rows of :func:`gap_certificate`, held by column.

    Per block, ``_columns`` holds the fields of :class:`ConstraintGap` in
    order: the kind, the block's ``(c, m)`` sequences (the cached
    ``cycle_blocks`` arrays, shared), one ``(c,)`` array per number and the
    block's analytic gap.  ``rows`` is built on first read, one record per
    row.  Two reports are equal when ``K``, ``power``, ``d``, ``r`` and ``rows`` are.
    """

    K: int
    power: float
    d: tuple
    r: PowerExponents
    _columns: tuple = field(repr=False)

    @functools.cached_property
    def rows(self) -> tuple:
        """One :class:`ConstraintGap` per user, then per cycle, in canonical order."""
        rows = []
        for kind, C, exact, linear, inner, achieved, sigma, empirical, tight in self._columns:
            rows += map(_gap_row, zip(  # zip of C's columns: its rows as tuples
                itertools.repeat(kind), zip(*C.T.tolist()), exact.tolist(), linear.tolist(),
                inner.tolist(), achieved.tolist(), itertools.repeat(sigma), empirical.tolist(),
                tight.tolist()))
        return tuple(rows)

    def __eq__(self, other):
        if not isinstance(other, GapReport):
            return NotImplemented
        return (self.K, self.power, self.d, self.r, self.rows) == \
            (other.K, other.power, other.d, other.r, other.rows)

    def csv_rows(self, instance_id: str) -> list:
        """One dict per row, keyed as :data:`GAP_CSV_HEADER`, read from the columns."""
        out = []
        for kind, C, exact, _, _, achieved, sigma, empirical, _ in self._columns:
            out += (
                {
                    "instance_id": instance_id,
                    "constraint_type": kind,
                    "users": "|".join(map(str, users)),
                    "P": self.power,
                    "analytic_sigma": sigma,
                    "empirical_sigma": gap,
                    "bound_bits": bound,
                    "achieved_bits": bits,
                }
                for users, bound, bits, gap in zip(
                    C.tolist(), exact.tolist(), achieved.tolist(), empirical.tolist())
            )
        return out


def gap_certificate(ch: FiniteSnrChannel, d) -> GapReport:
    """Certify the constant gap at one region point.

    For every constraint of the region, reports the exact and linearized
    outer bounds (the numbers of :func:`rate_outer_bounds`), the
    linearized inner bound, the achieved exact TIN rates under the
    recovered power allocation, and the analytic gap (1 + log2 K per
    user, m*log2(3K) per cycle).  It refuses, then decides, then computes:

    1. more than ``K_MAX_EXPORT`` users: ``cycle_blocks``' ``ValueError``;
    2. a ``d`` that is no GDoF vector of ``K`` entries: ``ValueError``;
    3. a channel that fails the optimality condition: :class:`ConditionNotMetError`;
    4. a point outside the all-active region: :class:`PointOutsideRegionError`;
    5. the bounds, one block at a time: a constraint tight at ``d`` whose
       empirical gap exceeds its analytic value falsifies the certificate,
       :class:`CertificateViolatedError` on the first such row.  Both tests
       allow 1e-6, not 1e-9, so that points taken slightly inside the
       region still flag their binding rows as tight.
    """
    slack = 1e-6
    cycles = cycle_blocks(range(ch.K))
    dv = _exponent_vector(d, ch.K, "d")
    if not check_tin_condition(ch.channel).overall:
        raise ConditionNotMetError("gap certificates require the optimality condition")
    cert = recover_power_allocation(ch.channel, dv)
    if not cert.feasible:
        raise PointOutsideRegionError(
            f"point is outside the all-active region: sum over users "
            f"{cert.violated_users} exceeds {cert.violated_rhs}"
        )
    K = ch.K
    rates = tin_rates(ch, cert.r)
    log2K = math.log2(K)
    columns = []
    for C, rhs, exact, linear in _bound_blocks(ch, cycles):
        m = C.shape[1]
        kind, sigma = ("user", 1.0 + log2K) if m == 1 else ("cycle", m * math.log2(3.0 * K))
        achieved = _sum_positions(rates[C])
        empirical = exact - achieved
        tight = np.abs(_sum_positions(dv[C]) - rhs) <= slack
        bad = np.flatnonzero(tight & (empirical > sigma + slack))
        if bad.size:  # the first violated row, in row order
            raise CertificateViolatedError(
                f"certificate violated on {kind} {tuple(C[bad[0]].tolist())}: "
                f"{float(empirical[bad[0]])} > {sigma}")
        inner = rhs * ch.log2P - m * log2K
        columns.append((kind, C, exact, linear, inner, achieved, sigma, empirical, tight))
    return GapReport(K=K, power=ch.power, d=tuple(float(x) for x in dv), r=cert.r,
                     _columns=tuple(columns))
