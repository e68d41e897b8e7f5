"""Monte-Carlo cellular layouts: how often is TIN provably optimal?

Base stations drop uniformly over a circular cell, each serving one
mobile placed uniformly inside its coverage disk.  Link gains follow one
fixed path-loss model, Erceg et al.'s suburban model on terrain B with a
30 m base station at 2 GHz (log-distance slope above a 100 m reference
distance, free space below it); transmit powers are calibrated so the
median SNR at the coverage boundary is 0 dB, and each realization is
reduced to a strength-exponent matrix on which the per-user optimality
condition is evaluated.  The model's constants are module constants;
``SimConfig`` holds only what a caller sets.

Every trial draws from its own RNG stream, bit for bit the stream of
``default_rng([master_seed mod 2**64, trial_index])``, so estimates are
bit-reproducible.  That stream's PCG64 state is derived in closed form
from numpy's ``SeedSequence`` and PCG64 seeding arithmetic, a block of
trials at a time, as one ``(n, 4)`` ``uint64`` array of words
``[state_lo, state_hi, inc_lo, inc_hi]`` (``sample_network`` derives its
one row the same way).  No trial builds a generator of its own, nor a
Python int or a state dict: each copies its four words into the C state
of the call's one ``Generator`` and clears the half-draw it may have
buffered.  That struct layout is numpy's own, so it is checked once per
process, by writing known words and reading them back through
``bit_generator.state``; where the check fails, each trial sets the
``state`` dict instead, with the same draws
(``tests/test_netsim.py::TestTrialStreams`` fails if numpy ever seeds
differently).  ``condition_probability`` draws a batch of trials (at
most 4096 link entries, trials * K * K, within one block) one stream
after another, then computes geometry, path loss and gains on
``(trials, K, K)`` arrays, the largest it builds, with the same
per-entry operations as :func:`sample_network`: positions as contiguous
x and y planes, distances from per-coordinate differences, and one
path-loss logarithm per link plus one more for each link below the
reference distance.  Each layout's gains are kept in dB over 10 and
reduced to the three extremes per user that the condition reads, and the
verdict is decided on those extremes in dB: the condition is
homogeneous, so dividing by the largest one stands in for the logarithm
of the nominal power.  Only a trial whose worst margin lies within
``_FILTER_DELTA`` of the tolerance band's edge, where that shortcut's
rounding could matter, takes powers of 10 and logarithms, so every
estimate has the same bytes as one computed a trial at a time from full
exponent matrices.
Simulations take at most ``K_MAX_SIM`` users, and a run at most
``LINKS_MAX_SIM`` link entries, each trial counted as its K * K links plus
``TRIAL_LINKS`` for its fixed cost.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel_model import (
    EPS_CONDITION,
    ChannelMatrix,
    _entries,
    _is_integer,
    _is_real,
    _real_array,
    _shown,
    condition_extremes,
    extreme_margins,
    link_exponents,
)

SPEED_OF_LIGHT = 299792458.0

#: The fixed propagation model.  Erceg et al. terrain B (hilly with light tree
#: density) gives the log-distance slope gamma = a - b*h_b + c/h_b with
#: a = 4.0, b = 0.0065 /m, c = 17.1 m and a 30 m base station; the carrier is
#: 2 GHz.  The slope applies from the reference distance on, free space below
#: it, and link distances are clamped up to the minimum distance.  Transmit
#: powers put the median SNR at the coverage radius on the boundary target
#: over the noise floor; noise floor and antenna gain cancel out of every gain.
PATHLOSS_SLOPE = 4.0 - 0.0065 * 30.0 + 17.1 / 30.0
WAVELENGTH_M = SPEED_OF_LIGHT / (2000.0 * 1e6)
REF_DISTANCE_M = 100.0
MIN_DISTANCE_M = 1.0
NOISE_FLOOR_DBM = -110.0
BOUNDARY_SNR_TARGET_DB = 0.0
ANTENNA_GAIN_DB = 0.0

#: Largest user count a simulation accepts.  One trial at K=1000 takes about
#: 0.04 s and 24 MB, so the shortest run (100 trials) takes about 4 s; at
#: K=2000 that grows to 0.18 s and 97 MB per trial (README, "Cellular
#: Monte-Carlo").
K_MAX_SIM = 1000

#: A trial's fixed cost in link entries: a link takes 35-36 ns from K=100 up,
#: and a trial at K=10 about what its 250 counted entries do; one at K=1
#: (2.6 us) costs about half its count (README, "Cellular Monte-Carlo").
TRIAL_LINKS = 150

#: Largest cost, trials * (K * K + TRIAL_LINKS) link entries, a simulation
#: accepts: the default 1000 trials at ``K_MAX_SIM``, under a minute.  The
#: most trials it admits take about 17 s at K=1 (6,623,509), 36 s at K=10
#: and 34 s at K=100 (README, "Cellular Monte-Carlo").
LINKS_MAX_SIM = 1000 * (K_MAX_SIM**2 + TRIAL_LINKS)

#: Largest coverage or cell radius a simulation accepts [m].  Distances stay
#: below 3e6 m, so squared distances and path losses (at most about 275 dB)
#: stay far from overflow; that is 1000 km, beyond any cell of the model.
RADIUS_MAX_M = 1e6

#: Smallest coverage (and so cell) radius a simulation accepts [m].  The
#: boundary calibration scales every gain by the path loss at the coverage
#: radius, -21.5 dB at 1 mm; with the 275 dB far link and ten shadowing
#: spreads the smallest gain stays near 10^-130, far from underflow
#: (README, "Cellular Monte-Carlo").  A millimetre is below the 15 cm
#: wavelength and the 1 m minimum link distance of the model.
RADIUS_MIN_M = 1e-3

#: Largest lognormal shadowing spread a simulation accepts [dB].  Ten spreads
#: plus the path-loss range stay near 10^120 in linear gain, far from
#: overflow or underflow; published spreads are 4-12 dB.
SHADOWING_MAX_DB = 100.0

#: Link entries (trials * K * K) computed together in ``condition_probability``.
#: The largest arrays are ``(trials, K, K)`` float64, 32 KB each up to K=64
#: (one trial of K*K*8 bytes above), so a batch stays within a few hundred
#: kilobytes; large enough that per-call overhead is shared by tens of trials
#: at K=10.
_BATCH_LINKS = 4096

#: Trials whose stream states are derived together, in one vectorized pass
#: (at most 1024 states, 32 KB of words, held at once, whatever the trial
#: count).  Link batches split blocks and never span two; they hold one trial
#: each from K=65 up.
_STREAM_BLOCK = 1024

#: Half-width of the band around ``-EPS_CONDITION`` in which a trial's verdict
#: is not read off its extremes in dB (``worst``, the smallest margin over the
#: largest extreme) but recomputed through powers of 10 and ``math.log``.
#: With ``u = 2**-53``, ``np.power(10.0, .)`` within 4 ulp and ``math.log``
#: within 1 ulp, and the exponents at most 1 over a log scale of at least
#: ``ln 2``, the two margins differ by at most ``97 u``, about 1.1e-14
#: (README, "Cellular Monte-Carlo"); the band is ``256 u``.
_FILTER_DELTA = 2.0**-45

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit multiplier (PCG_DEFAULT_MULTIPLIER_128).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_LO, _PCG64_MULT_HI = _PCG64_MULT & _MASK64, _PCG64_MULT >> 64
#: Free-space loss at the reference distance [dB], where the log-distance branch starts.
_REF_LOSS_DB = 20.0 * math.log10(4.0 * math.pi * REF_DISTANCE_M / WAVELENGTH_M)


@dataclass(frozen=True)
class SimConfig:
    """What a simulation varies, each field a ``simulate`` option; the model is fixed."""

    K: int
    coverage_radius: float
    cell_radius: float = 1000.0
    trials: int = 1000
    master_seed: int = 0
    #: Lognormal shadowing spread.  8 dB sits inside the published
    #: per-category range of the propagation model; None disables fading
    #: entirely (median-only links).  With fading off, the boundary-SNR
    #: calibration makes the condition verdict scale-free below the
    #: reference distance and the pass probability at (K=10, r=100m)
    #: lands near 0.62 instead of the expected ~0.5.
    shadowing_sigma_db: float | None = 8.0

    def __post_init__(self):
        for name in ("coverage_radius", "cell_radius"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {_shown(value)}")
            if not (RADIUS_MIN_M <= value <= RADIUS_MAX_M):
                raise ValueError(
                    f"{name} must be between {RADIUS_MIN_M:g} and {RADIUS_MAX_M:g} m, "
                    f"got {value}"
                )
        if not (self.coverage_radius <= self.cell_radius):
            raise ValueError("need coverage_radius <= cell_radius")
        sigma = self.shadowing_sigma_db
        if sigma is not None and not _is_real(sigma):
            raise ValueError(f"shadowing_sigma_db must be None or a real number, got {_shown(sigma)}")
        if sigma is not None and not (0 <= sigma <= SHADOWING_MAX_DB):
            raise ValueError(
                f"shadowing_sigma_db must be None or between 0 and {SHADOWING_MAX_DB:g} dB, "
                f"got {sigma}"
            )
        for name in ("K", "trials", "master_seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {_shown(getattr(self, name))}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.K > K_MAX_SIM:
            raise ValueError(f"K must be at most {K_MAX_SIM}, got {self.K}")
        links = int(self.trials) * (int(self.K) ** 2 + TRIAL_LINKS)
        if links > LINKS_MAX_SIM:
            raise ValueError(
                f"trials * (K * K + {TRIAL_LINKS}) must be at most {LINKS_MAX_SIM}, got {links}"
            )


def erceg_pathloss(distance_m):
    """Median path loss in dB at the given distance(s).

    At and above ``REF_DISTANCE_M``: free-space loss at the reference
    point plus ``PATHLOSS_SLOPE`` times the log-distance; below it: plain
    free space (the log-slope is only specified from the reference
    distance out).  Every entry takes one logarithm for the log-distance
    branch, and only entries below the reference distance take a second
    one, for free space, written over the first.  Receivers sit at the
    model's 2 m reference height, which needs no correction.  Shadowing,
    when enabled, is drawn during network sampling, not here.  Raises
    ``ValueError`` unless every distance is positive and finite.
    """
    d = _real_array(distance_m, "distance")
    if d.size and not (d.min() > 0.0 and d.max() < math.inf):
        raise ValueError("distance must be positive and finite")
    out = _pathloss_db(d)
    return float(out) if np.isscalar(distance_m) else out


def _pathloss_db(d: np.ndarray) -> np.ndarray:
    """:func:`erceg_pathloss` of a float array of distances, unchecked, in a new array.

    For callers whose distances are positive and finite by construction:
    the simulation's are clamped to at least ``MIN_DISTANCE_M`` and bounded
    by the accepted radii.
    """
    out = np.divide(d, REF_DISTANCE_M, out=np.empty(d.shape))
    np.log10(out, out=out)
    out *= 10.0 * PATHLOSS_SLOPE
    out += _REF_LOSS_DB
    near = d < REF_DISTANCE_M
    if near.any():
        out[near] = 20.0 * np.log10(4.0 * math.pi * d[near] / WAVELENGTH_M)
    return out


def transmit_power_dbm(cfg: SimConfig) -> float:
    """Transmit power [dBm] putting the median SNR at the coverage radius on target."""
    return (
        NOISE_FLOOR_DBM
        + BOUNDARY_SNR_TARGET_DB
        + float(_pathloss_db(np.asarray(cfg.coverage_radius, dtype=float)))
        - ANTENNA_GAIN_DB
    )


@dataclass(frozen=True)
class NetworkInstance:
    tx_positions: np.ndarray  # (K, 2) meters
    rx_positions: np.ndarray  # (K, 2) meters
    pathloss_db: np.ndarray  # (K, K), receiver-major
    snr_inr_linear: np.ndarray  # (K, K), clipped at 1
    nominal_P: float
    alpha: ChannelMatrix

    def to_dict(self) -> dict:
        return {
            "K": self.alpha.K,
            "tx": [[float(x), float(y)] for x, y in self.tx_positions],
            "rx": [[float(x), float(y)] for x, y in self.rx_positions],
            "pathloss_db": [[float(v) for v in row] for row in self.pathloss_db],
            "nominal_P": float(self.nominal_P),
            "alpha": [[float(v) for v in row] for row in self.alpha.alpha],
        }


@dataclass(frozen=True)
class _Links:
    """Layouts and link budgets of n trials: positions as x and y planes, links stacked per trial."""

    tx: np.ndarray  # (2, n, K) meters: the x plane, then the y plane
    rx: np.ndarray  # (2, n, K) meters
    pathloss_db: np.ndarray  # (n, K, K), receiver-major
    y: np.ndarray  # (n, K, K) gains in dB over 10: the linear gain is 10**y, not clipped


def _disk(radius: float, u_radius: np.ndarray, u_angle: np.ndarray) -> np.ndarray:
    """Area-uniform points in a disk from two uniform draws per point, as x and y planes.

    Returns one ``(2, *u_radius.shape)`` array, so each plane is contiguous.
    """
    r = radius * np.sqrt(u_radius)
    theta = 2.0 * math.pi * u_angle
    xy = np.empty((2, *r.shape))
    np.multiply(r, np.cos(theta), out=xy[0])
    np.multiply(r, np.sin(theta), out=xy[1])
    return xy


def _link_distances(tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Receiver-major ``(n, K, K)`` distances ``sqrt(dx*dx + dy*dy)`` from ``(2, n, K)`` planes.

    The bits of ``np.linalg.norm`` over each pair's coordinate
    differences, without building the ``(n, K, K, 2)`` difference array.
    """
    dist = rx[0, :, :, None] - tx[0, :, None, :]
    dy = rx[1, :, :, None] - tx[1, :, None, :]
    dist *= dist
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def _uint32_words(n: int) -> list:
    """A nonnegative int as ``SeedSequence`` reads it: 32-bit words, lowest first; 0 is ``[0]``."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.cache
def _hash_constants(const: int, mult: int, calls: int) -> np.ndarray:
    """The running constants of ``calls`` successive ``hashmix`` calls, a ``(calls + 1, 1)`` column.

    Call ``k`` xors its value with entry ``k`` and multiplies it by entry
    ``k + 1``: ``SeedSequence`` steps the constant between the two.  The
    constants do not depend on the data, so a whole mix can share them.
    """
    column = [const]
    for _ in range(calls):
        column.append(column[-1] * mult & _MASK32)
    consts = np.array(column, dtype=np.uint32)[:, None]
    consts.flags.writeable = False  # shared by every caller
    return consts


def _hashmix(value, consts: np.ndarray) -> np.ndarray:
    """``hashmix`` of ``value`` by the calls of ``consts`` (one row more than the calls).

    The calls run along the first axis: a ``(m + 1, 1)`` slice of
    :func:`_hash_constants` mixes one word into ``m`` rows, or ``m`` rows of
    words each by its own call.
    """
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` of two ``uint32`` arrays."""
    result = x * _MIX_MULT_L
    result -= y * _MIX_MULT_R
    result ^= result >> 16
    return result


#: For each pool word, the three others it mixes into.
_OTHERS = [[dst for dst in range(4) if dst != src] for src in range(4)]
_HASH_OUT = _hash_constants(_INIT_B, _MULT_B, 8)


def _generate_state(entropy: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` in closed form, one column per trial.

    ``entropy`` is the list of 32-bit words ``SeedSequence`` assembles from
    its seed, each a Python int or an ``(n,)`` integer array; the result
    is ``(4, n)`` ``uint64``.  The four pool words are one stacked ``(4, n)``
    ``uint32`` array, whose products and differences wrap modulo 2**32 as
    ``SeedSequence``'s do (numpy wraps integer arrays silently): each
    source word is hashed for its three destination rows at once, and the
    output is one ``(8, n)`` hash.  So a block of trials takes one pass.
    """
    pool = np.zeros((4, max(np.size(word) for word in entropy)), dtype=np.uint32)
    for i, word in enumerate(entropy[:4]):  # missing words mix 0, as SeedSequence pads
        pool[i] = word
    consts = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * len(entropy[4:]))
    pool = _hashmix(pool, consts[:5])
    k = 4
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + 4]))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, consts[k:k + 5]))
        k += 4
    out = _hashmix(np.concatenate([pool, pool]), _HASH_OUT).astype(np.uint64)
    return out[0::2] | (out[1::2] << 32)


def _mul128(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """``(hi * 2**64 + lo) * _PCG64_MULT mod 2**128`` as ``(lo, hi)`` ``uint64`` arrays.

    The low halves' full product is taken on 32-bit limbs, whose middle
    column sums to less than 2**34; the cross terms only reach the high
    word, where ``uint64`` wrapping is the reduction mod 2**128.
    """
    x0, x1 = lo & _MASK32, lo >> 32
    p00, p01 = x0 * (_PCG64_MULT_LO & _MASK32), x0 * (_PCG64_MULT_LO >> 32)
    p10, p11 = x1 * (_PCG64_MULT_LO & _MASK32), x1 * (_PCG64_MULT_LO >> 32)
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    high = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    high += lo * _PCG64_MULT_HI + hi * _PCG64_MULT_LO
    return (mid << 32) | (p00 & _MASK32), high


def _stream_words(entropy: list) -> np.ndarray:
    """The PCG64 states of ``SeedSequence(entropy)``, one ``(n, 4)`` row per trial.

    A row holds ``[state_lo, state_hi, inc_lo, inc_hi]``, numpy's 32 bytes
    of a ``pcg64_random_t``.  Of the four words of :func:`_generate_state`,
    the first two are the 128-bit ``initstate`` and the last two
    ``initseq``, high word first; PCG64's seeding sets
    ``inc = (initseq << 1) | 1`` and ``state = (inc + initstate) * MULT + inc``
    mod 2**128.  Each 128-bit sum carries from its low word by comparison.
    """
    init_hi, init_lo, seq_hi, seq_lo = _generate_state(entropy)
    inc_lo = (seq_lo << 1) | 1
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    lo = inc_lo + init_lo
    lo, hi = _mul128(lo, inc_hi + init_hi + (lo < inc_lo))
    state_lo = lo + inc_lo
    return np.stack([state_lo, hi + inc_hi + (state_lo < inc_lo), inc_lo, inc_hi], axis=1)


def _trial_streams(master_seed: int, trials: range):
    """The stream states of the trials in ``trials``, in order, one block of words at a time.

    Yields the :func:`_stream_words` of up to ``_STREAM_BLOCK`` trials at
    once.  A block's indices go in as ``uint64`` arrays of two words each
    (the high one 0 below 2**32): with the seed's one or two words the
    entropy fills at most ``SeedSequence``'s four-word pool, where a zero
    word and a missing one mix the same.
    """
    seed = _uint32_words(int(master_seed) & _MASK64)
    for lo in range(trials.start, trials.stop, _STREAM_BLOCK):
        t = np.arange(lo, min(lo + _STREAM_BLOCK, trials.stop), dtype=np.uint64)
        yield _stream_words(seed + [t & _MASK32, t >> 32])


def _state_dict(words: list) -> dict:
    """``bit_generator.state`` of PCG64 at one row of :func:`_stream_words`, nothing buffered."""
    state_lo, state_hi, inc_lo, inc_hi = words
    return {"bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}


def _raw_state(bitgen: np.random.PCG64):
    """Views of ``bitgen``'s C state, or None where they would reach outside its object.

    ``bitgen.ctypes.state_address`` is numpy's ``pcg64_state``: a pointer
    to the 32-byte ``pcg64_random_t``, then ``int has_uint32`` and
    ``uint32_t uinteger``.  Returns a ``(4,)`` ``uint64`` array over the 32
    bytes and one ``c_uint64`` over the two buffer fields.  numpy keeps
    both structs inside the bit generator's own object; where a changed
    layout puts either outside it, nothing is read or written through it.
    """
    start = id(bitgen)
    end = start + type(bitgen).__basicsize__
    address = bitgen.ctypes.state_address
    buffered = address + ctypes.sizeof(ctypes.c_void_p)
    if not (start <= address and buffered + 8 <= end):
        return None
    pointer = ctypes.c_void_p.from_address(address).value or 0
    if not start <= pointer <= end - 32:
        return None
    views = (ctypes.c_uint64 * 4).from_address(pointer), ctypes.c_uint64.from_address(buffered)
    for view in views:
        view.owner = bitgen  # a view keeps alive the object whose memory it reaches
    return np.frombuffer(views[0], dtype=np.uint64), views[1]


@functools.cache
def _raw_state_checked() -> bool:
    """Whether writing :func:`_raw_state` sets PCG64 as its ``state`` setter does; once per process.

    A probe generator with half a 64-bit draw buffered gets four known
    words written raw, then must report them, with the buffer cleared.
    """
    bitgen = np.random.PCG64(0)
    bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": 0x89ABCDEF}
    raw = _raw_state(bitgen)
    if raw is None:
        return False
    probe = [0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x13579BDF02468ACF, 0xECA8642097531FDB]
    raw[0][...] = probe
    raw[1].value = 0
    return bitgen.state == _state_dict(probe)


def _stream_generator() -> tuple:
    """A call's one ``Generator`` and ``set_state(words)``, which puts it on one trial's stream.

    ``words`` is a row of :func:`_stream_words`.  Where the layout check
    holds and :func:`_raw_state` has views, ``set_state`` copies the row's
    32 bytes into the C state and clears its buffered half-draw; elsewhere
    it goes through the ``state`` dict, about eight times slower, with the same draws.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    raw = _raw_state(bitgen) if _raw_state_checked() else None
    if raw is not None:
        state, buffered = raw

        def set_state(words):
            state[...] = words
            buffered.value = 0
    else:

        def set_state(words):
            bitgen.state = _state_dict(words.tolist())

    return rng, set_state


def _sample_links(cfg: SimConfig, rng: np.random.Generator, set_state, words: np.ndarray,
                  power_dbm: float) -> _Links:
    """The layouts of ``len(words)`` trials, the k-th drawn by ``rng`` on the stream ``words[k]``.

    ``rng`` and ``set_state`` come from :func:`_stream_generator` and
    ``words`` from :func:`_stream_words`.  On trial ``t``'s stream, ``rng``
    draws what ``default_rng([master_seed mod 2**64, t])`` would, in this
    order: K radii and K angles for the transmitters, the same for the
    receiver offsets, then the K-by-K shadowing normals, each written
    straight into the batch's arrays.  Everything after the draws is
    computed on the whole stack at once, with the same operations per
    entry as for one trial: positions as contiguous x and y planes,
    distances from their differences and path losses by
    :func:`_pathloss_db`.  It stops at the gains in dB over 10: the caller
    raises to powers of 10 only what it reads.  ``power_dbm`` is :func:`transmit_power_dbm`,
    computed once by the caller.
    """
    K = cfg.K
    sigma = cfg.shadowing_sigma_db
    u = np.empty((len(words), 4, K))
    shadow = np.empty((len(words), K, K)) if sigma else None
    for k, row in enumerate(words):
        set_state(row)
        rng.random(out=u[k])  # the same numbers as four calls of K each
        if sigma:
            rng.standard_normal(out=shadow[k])
    if sigma:
        shadow *= sigma  # normal(0.0, sigma) is 0.0 + sigma * z: the same bits
    tx = _disk(cfg.cell_radius, u[:, 0], u[:, 1])
    rx = _disk(cfg.coverage_radius, u[:, 2], u[:, 3])
    rx += tx
    dist = _link_distances(tx, rx)
    np.maximum(dist, MIN_DISTANCE_M, out=dist)
    pl = _pathloss_db(dist)
    if sigma:
        pl += shadow
    y = np.subtract(power_dbm + ANTENNA_GAIN_DB, pl, out=dist)  # distances are spent
    y -= NOISE_FLOOR_DBM
    y /= 10.0
    return _Links(tx, rx, pl, y)


def sample_network(cfg: SimConfig, trial_index: int) -> NetworkInstance:
    """One random layout, deterministic in (master_seed, trial_index).

    Raises ``ValueError`` unless ``trial_index`` is a nonnegative integer.
    """
    if not _is_integer(trial_index) or trial_index < 0:
        raise ValueError(f"trial_index must be a nonnegative integer, got {_shown(trial_index)}")
    entropy = _uint32_words(int(cfg.master_seed) & _MASK64) + _uint32_words(int(trial_index))
    links = _sample_links(cfg, *_stream_generator(), _stream_words(entropy),
                          transmit_power_dbm(cfg))
    linear = np.power(10.0, links.y[0])
    nominal_P = max(float(linear.max()), 2.0)
    return NetworkInstance(
        tx_positions=links.tx[:, 0].T.copy(),
        rx_positions=links.rx[:, 0].T.copy(),
        pathloss_db=links.pathloss_db[0],
        snr_inr_linear=np.maximum(1.0, linear),
        nominal_P=nominal_P,
        alpha=ChannelMatrix(link_exponents(linear, nominal_P)),
    )


def _wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple:
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ConditionEstimate:
    K: int
    coverage_radius: float
    trials: int
    passes: int
    prob: float
    ci_low: float
    ci_high: float


def _check_workers(workers) -> None:
    if not _is_integer(workers):
        raise ValueError(f"workers must be an integer, got {_shown(workers)}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _count_passes(ext: np.ndarray) -> int:
    """How many of the ``(n, 3, K)`` extremes in dB over 10 meet the condition.

    A trial's exponents are ``e / s`` up to rounding, ``e`` its extremes
    clipped at 0 (a gain below 1 counts as 1) and ``s`` the largest one,
    at least ``log10(2)`` as the nominal power is at least 2.  Its verdict
    is read off its worst margin in those terms unless that margin lies
    within ``_FILTER_DELTA`` of ``-EPS_CONDITION``; those trials, and any
    whose margin is NaN, take the exact path on their own rows: powers of
    10, :func:`link_exponents` over the nominal power ``max(2, largest
    gain)``, and margins of the exponents.  There the largest raised
    extreme is the largest gain because ``np.power(10.0, .)`` never
    decreases.
    """
    e = np.maximum(ext, 0.0)
    worst = extreme_margins(e).min(axis=-1)
    worst /= np.maximum(e.max(axis=(-2, -1)), math.log10(2.0))
    passed = worst >= -EPS_CONDITION + _FILTER_DELTA
    near = ~(passed | (worst < -EPS_CONDITION - _FILTER_DELTA))
    passes = int(np.count_nonzero(passed))
    if near.any():
        gains = np.power(10.0, ext[near])
        nominal_P = np.maximum(gains.max(axis=(-2, -1)), 2.0)
        margins = extreme_margins(link_exponents(gains, nominal_P))
        passes += int(np.all(margins >= -EPS_CONDITION, axis=-1).sum())
    return passes


def condition_probability(cfg: SimConfig, workers: int = 1) -> ConditionEstimate:
    """Fraction of random layouts where the optimality condition holds.

    The verdict per layout does not depend on the nominal-power policy
    (the condition is homogeneous in the exponents), so the estimate is a
    pure function of (config, master_seed).  Trials run in batches in
    this process: ``workers`` (an integer, at least 1) changes neither the
    result nor the speed.
    """
    _check_workers(workers)
    if cfg.trials < 100:
        raise ValueError("need at least 100 trials for the interval to be meaningful")
    per_batch = max(1, _BATCH_LINKS // (cfg.K * cfg.K))
    power_dbm = transmit_power_dbm(cfg)
    rng, set_state = _stream_generator()
    passes = 0
    for words in _trial_streams(cfg.master_seed, range(cfg.trials)):
        for first in range(0, len(words), per_batch):
            y = _sample_links(cfg, rng, set_state, words[first:first + per_batch], power_dbm).y
            # verdicts from the 3K extremes in dB; no power or logarithm away from the band
            passes += _count_passes(condition_extremes(y))
    lo, hi = _wilson_interval(passes, cfg.trials)
    return ConditionEstimate(
        K=cfg.K,
        coverage_radius=cfg.coverage_radius,
        trials=cfg.trials,
        passes=passes,
        prob=passes / cfg.trials,
        ci_low=lo,
        ci_high=hi,
    )


def sweep(
    base: SimConfig,
    K_values: Sequence[int],
    radius_values: Sequence[float],
    workers: int = 1,
) -> list:
    """Condition-probability grid over user counts and coverage radii.

    Every grid point's configuration is validated before the first trial
    runs, each ``K`` and radius as given, and then ``workers``, once, also
    for an empty grid.  ``workers`` changes neither the result nor the speed.
    """
    radii = _entries(radius_values, "radius_values")
    cfgs = [
        replace(base, K=K, coverage_radius=radius)
        for K in _entries(K_values, "K_values")
        for radius in radii
    ]
    _check_workers(workers)
    return [condition_probability(cfg) for cfg in cfgs]


SWEEP_CSV_HEADER = "K,coverage_radius_m,trials,prob,ci_low,ci_high"


def sweep_to_csv(rows: Sequence[ConditionEstimate]) -> str:
    """Fixed-format CSV (12 significant digits) for byte-stable outputs."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.K},{format(r.coverage_radius, '.12g')},{r.trials},"
            f"{format(r.prob, '.12g')},{format(r.ci_low, '.12g')},"
            f"{format(r.ci_high, '.12g')}"
        )
    return "\n".join(lines) + "\n"
