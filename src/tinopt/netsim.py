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
trials at a time (``sample_network``'s one trial on Python ints), and set
on the call's one ``Generator`` before the trial draws, so no trial builds
a generator of its own (``tests/test_netsim.py::TestTrialStreams`` fails
if numpy ever seeds differently).  ``condition_probability`` draws a
batch of trials (at most 4096 link entries, trials * K * K) one stream
after another, then computes geometry, path loss and gains on
``(trials, K, K)`` arrays, the largest it builds, with the same
per-entry operations as :func:`sample_network`: distances from
per-coordinate differences, and one path-loss logarithm per link plus
one more for each link below the reference distance.  Each layout's
gains are kept in dB over 10 and reduced to the three extremes per user
that the condition reads, and the verdict is decided on those extremes
in dB: the condition is homogeneous, so dividing by the largest one
stands in for the logarithm of the nominal power.  Only a trial whose
worst margin lies within ``_FILTER_DELTA`` of the tolerance band's edge,
where that shortcut's rounding could matter, takes powers of 10 and
logarithms, so every estimate has the same bytes as one computed a trial
at a time from full exponent matrices.
Simulations take at most ``K_MAX_SIM`` users, and a run at most
``LINKS_MAX_SIM`` link entries, each trial counted as its K * K links plus
``TRIAL_LINKS`` for its fixed cost.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel_model import (
    EPS_CONDITION,
    ChannelMatrix,
    _is_integer,
    _is_real,
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

#: A trial's fixed cost in link entries: one trial takes about 7.5 us at K=1,
#: and a link 45-46 ns from K=100 up (README, "Cellular Monte-Carlo").
TRIAL_LINKS = 150

#: Largest cost, trials * (K * K + TRIAL_LINKS) link entries, a simulation
#: accepts: the default 1000 trials at ``K_MAX_SIM``, under a minute.  The
#: most trials it admits take about 50 s at K=1 (6,623,509), 67 s at K=10
#: and 45 s at K=100 (README, "Cellular Monte-Carlo").
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

#: Trials whose stream states are derived together, in one vectorized pass of
#: about 0.3 ms (at most 1024 states held at once, whatever the trial count).
#: Blocks are independent of the link batches, which hold one trial each
#: from K=65 up.
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
_MASK128 = (1 << 128) - 1
# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit multiplier (PCG_DEFAULT_MULTIPLIER_128).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not (RADIUS_MIN_M <= value <= RADIUS_MAX_M):
                raise ValueError(
                    f"{name} must be between {RADIUS_MIN_M:g} and {RADIUS_MAX_M:g} m, "
                    f"got {value}"
                )
        if not (self.coverage_radius <= self.cell_radius):
            raise ValueError("need coverage_radius <= cell_radius")
        sigma = self.shadowing_sigma_db
        if sigma is not None and not _is_real(sigma):
            raise ValueError(f"shadowing_sigma_db must be None or a real number, got {sigma!r}")
        if sigma is not None and not (0 <= sigma <= SHADOWING_MAX_DB):
            raise ValueError(
                f"shadowing_sigma_db must be None or between 0 and {SHADOWING_MAX_DB:g} dB, "
                f"got {sigma}"
            )
        for name in ("K", "trials", "master_seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
    d = np.asarray(distance_m, dtype=float)
    if d.size and not (d.min() > 0.0 and d.max() < math.inf):
        raise ValueError("distance must be positive and finite")
    d0 = REF_DISTANCE_M
    A = 20.0 * math.log10(4.0 * math.pi * d0 / WAVELENGTH_M)
    out = np.divide(d, d0, out=np.empty(d.shape))
    np.log10(out, out=out)
    out *= 10.0 * PATHLOSS_SLOPE
    out += A
    near = d < d0
    if near.any():
        out[near] = 20.0 * np.log10(4.0 * math.pi * d[near] / WAVELENGTH_M)
    return float(out) if np.isscalar(distance_m) else out


def transmit_power_dbm(cfg: SimConfig) -> float:
    """Transmit power [dBm] putting the median SNR at the coverage radius on target."""
    return (
        NOISE_FLOOR_DBM
        + BOUNDARY_SNR_TARGET_DB
        + erceg_pathloss(cfg.coverage_radius)
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
    """Layouts and link budgets of several trials, stacked along the first axis."""

    tx: np.ndarray  # (n, K, 2) meters
    rx: np.ndarray  # (n, K, 2) meters
    pathloss_db: np.ndarray  # (n, K, K), receiver-major
    y: np.ndarray  # (n, K, K) gains in dB over 10: the linear gain is 10**y, not clipped


def _disk(radius: float, u_radius: np.ndarray, u_angle: np.ndarray) -> np.ndarray:
    """Area-uniform points in a disk from two uniform draws per point."""
    r = radius * np.sqrt(u_radius)
    theta = 2.0 * math.pi * u_angle
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def _link_distances(tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Receiver-major ``(n, K, K)`` distances ``sqrt(dx*dx + dy*dy)`` from stacked positions.

    The bits of ``np.linalg.norm`` over each pair's coordinate
    differences, without building the ``(n, K, K, 2)`` difference array.
    """
    dist = rx[:, :, None, 0] - tx[:, None, :, 0]
    dy = rx[:, :, None, 1] - tx[:, None, :, 1]
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


def _hasher(const: int, mult: int):
    """``SeedSequence``'s ``hashmix``, with its running hash constant starting at ``const``."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _generate_state(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` in closed form.

    ``entropy`` is the list of 32-bit words ``SeedSequence`` assembles from
    its seed.  Each word is a Python int or a ``uint64`` array, and so is
    each of the four words returned.  Every product and difference is
    masked to 32 bits at once: a product of two words stays below 2**64,
    and a ``uint64`` difference that wrapped masks to the same word as a
    Python int's, so the same arithmetic serves both, and a block of
    trials whose words are arrays takes one pass.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    # A pool word with no entropy word mixes 0, as SeedSequence pads it.
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashout = _hasher(_INIT_B, _MULT_B)
    out = [hashout(pool[i % 4]) for i in range(8)]
    return [out[2 * k] | (out[2 * k + 1] << 32) for k in range(4)]


def _stream_state(words) -> dict:
    """The state of ``PCG64`` seeded with the four words of :func:`_generate_state`.

    The first two words are the 128-bit ``initstate`` and the last two
    ``initseq``, high word first; PCG64's seeding sets
    ``inc = (initseq << 1) | 1`` and steps from 0, adds ``initstate`` and
    steps again.  ``has_uint32`` and ``uinteger`` are reset, so no buffered
    half of an earlier stream's 64-bit draw carries over.
    """
    w0, w1, w2, w3 = words
    inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
    state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _trial_streams(master_seed: int, trials: range):
    """The stream state of each trial in ``trials``, in order, ``_STREAM_BLOCK`` derived at once.

    A block's indices go in as ``uint64`` arrays of two words each (the
    high one 0 below 2**32): with the seed's one or two words the entropy
    fills at most ``SeedSequence``'s four-word pool, where a zero word and
    a missing one mix the same.
    """
    seed = _uint32_words(int(master_seed) & _MASK64)
    for lo in range(trials.start, trials.stop, _STREAM_BLOCK):
        t = np.arange(lo, min(lo + _STREAM_BLOCK, trials.stop), dtype=np.uint64)
        words = _generate_state(seed + [t & _MASK32, t >> 32])
        yield from map(_stream_state, zip(*(w.tolist() for w in words)))


def _stream_generator() -> np.random.Generator:
    """A call's one ``Generator``; each trial sets its stream's state on it before drawing."""
    return np.random.Generator(np.random.PCG64(0))


def _sample_links(cfg: SimConfig, rng: np.random.Generator, states: Sequence[dict],
                  power_dbm: float) -> _Links:
    """The layouts of ``len(states)`` trials, the k-th drawn by ``rng`` set to ``states[k]``.

    Set to trial ``t``'s state, ``rng`` draws what ``default_rng([master_seed
    mod 2**64, t])`` would, in this order: K radii and K angles for the
    transmitters, the same for the receiver offsets, then the K-by-K
    shadowing normals, each written straight into the batch's arrays.
    Everything after the draws is computed on the whole stack at once,
    with the same operations per entry as for one trial, and stops at the
    gains in dB over 10: the caller raises to powers of 10 only what it
    reads.  ``power_dbm`` is :func:`transmit_power_dbm`, computed once by
    the caller.
    """
    K = cfg.K
    sigma = cfg.shadowing_sigma_db
    trials = len(states)
    u = np.empty((trials, 4, K))
    shadow = np.empty((trials, K, K)) if sigma else None
    bitgen = rng.bit_generator
    for k, state in enumerate(states):
        bitgen.state = state
        rng.random(out=u[k])  # the same numbers as four calls of K each
        if sigma:
            rng.standard_normal(out=shadow[k])
    if sigma:
        shadow *= sigma  # normal(0.0, sigma) is 0.0 + sigma * z: the same bits
    tx = _disk(cfg.cell_radius, u[:, 0], u[:, 1])
    rx = tx + _disk(cfg.coverage_radius, u[:, 2], u[:, 3])
    dist = _link_distances(tx, rx)
    np.maximum(dist, MIN_DISTANCE_M, out=dist)
    pl = erceg_pathloss(dist)
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
        raise ValueError(f"trial_index must be a nonnegative integer, got {trial_index!r}")
    entropy = _uint32_words(int(cfg.master_seed) & _MASK64) + _uint32_words(int(trial_index))
    state = _stream_state(_generate_state(entropy))
    links = _sample_links(cfg, _stream_generator(), [state], transmit_power_dbm(cfg))
    linear = np.power(10.0, links.y[0])
    nominal_P = max(float(linear.max()), 2.0)
    return NetworkInstance(
        tx_positions=links.tx[0],
        rx_positions=links.rx[0],
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
        raise ValueError(f"workers must be an integer, got {workers!r}")
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
    streams = _trial_streams(cfg.master_seed, range(cfg.trials))
    rng = _stream_generator()
    passes = 0
    while batch := list(itertools.islice(streams, per_batch)):
        # verdicts from the 3K extremes in dB; no power or logarithm away from the band
        passes += _count_passes(condition_extremes(_sample_links(cfg, rng, batch, power_dbm).y))
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
    cfgs = [
        replace(base, K=K, coverage_radius=radius)
        for K in K_values
        for radius in radius_values
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
