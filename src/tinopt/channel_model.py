"""Channel strength matrices and the TIN GDoF arithmetic for K-user interference networks.

All channel state is carried as a square matrix of nonnegative strength
exponents: entry ``alpha[i][j]`` is the exponent of the link from
transmitter ``j`` to receiver ``i``, on the scale where the direct link of
a reference user at nominal power ``P`` has exponent 1.  Transmit powers
are expressed the same way, as per-user exponents ``r_i <= 0`` (power
``P**r_i``), with a dedicated ``SILENT`` sentinel for a switched-off
transmitter, whose exponent is ``-inf`` in the rate formulas.  Exponents,
nominal powers and power allocations each have one check here, and a
caller's numbers and sequences one conversion each.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Absolute tolerance for the per-user optimality comparison.  Strength
#: exponents come from logarithms of measured powers, so exact ties are
#: measure-zero but float-fragile; a tie within this band counts as a pass.
EPS_CONDITION = 1e-9

#: Largest accepted strength exponent and GDoF target entry: no sum the
#: library forms from such values overflows (README, "Numerical conventions").
EXPONENT_MAX = 1e150


class _Silent:
    """Sentinel marking a transmitter with zero power (rate exponent -inf)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "SILENT"

    def __reduce__(self):
        return (_Silent, ())


SILENT = _Silent()


class _NestedRepr(reprlib.Repr):
    """``repr`` as the builtin gives it, but for containers nested more than ``maxlevel``
    deep, shown as ``...``: no size limit, and sets and dicts in their own order."""

    def __init__(self, depth: int):
        super().__init__()
        self.maxlevel = depth
        for limit in ("maxtuple", "maxlist", "maxarray", "maxdict", "maxset", "maxfrozenset",
                      "maxdeque", "maxstring", "maxlong", "maxother"):
            setattr(self, limit, sys.maxsize)

    def repr_set(self, x, level):
        return self._repr_iterable(x, level, "{", "}", self.maxset) if x else "set()"

    def repr_frozenset(self, x, level):
        if not x:
            return "frozenset()"
        return self._repr_iterable(x, level, "frozenset({", "})", self.maxfrozenset)

    def repr_dict(self, x, level):
        if x and level <= 0:
            return "{...}"
        r = self.repr1
        return "{" + ", ".join(f"{r(k, level - 1)}: {r(v, level - 1)}" for k, v in x.items()) + "}"


#: The one ``repr`` of a caller's argument in an error message: nested past 32
#: levels it ends in ``...`` instead of ``RecursionError``; shallower, it is the
#: builtin's, byte for byte.
_shown = _NestedRepr(32).repr


def _is_integer(value) -> bool:
    """An int or numpy integer; ``bool`` is refused although it subclasses ``int``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int, float or numpy real; ``bool`` is refused although it subclasses ``int``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real_type(t: type) -> bool:
    """:func:`_is_real` of a type, for testing each distinct type of a sequence once."""
    return issubclass(t, numbers.Real) and not issubclass(t, bool)


def _real_array(values, name: str) -> np.ndarray:
    """The one conversion of caller numbers: ``values`` as a new float array.

    A numpy array of integer or float dtype converts by its dtype.  Anything
    else converts only when every entry's type is real (:func:`_real_type`),
    each distinct type tested once; else ``ValueError``, naming the first
    entry's type that is not: a bool, string, complex number or ``None``,
    and a sequence where a number belongs (ragged nesting, or more than
    numpy's 64 levels).  An integer past the float range reads as
    ``+-inf``, which every caller's range check refuses.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return np.array(values, dtype=float)
    a = np.array(values, dtype=object)
    entries = a.ravel().tolist()
    if not all(map(_real_type, set(map(type, entries)))):
        bad = next(t for t in map(type, entries) if not _real_type(t))  # the first in order
        raise ValueError(f"{name} entries must be real numbers, got {bad.__name__}")
    try:
        return a.astype(float)
    except OverflowError:
        big = sys.float_info.max  # only an integer or fraction can lie past it
        return np.array([(math.inf if x > 0 else -math.inf)
                         if isinstance(x, numbers.Rational) and abs(x) > big else x
                         for x in entries], dtype=float).reshape(a.shape)


def _entries(values, name: str) -> tuple:
    """The one conversion of caller sequences: ``values`` as a tuple; ``ValueError`` unless iterable."""
    try:
        it = iter(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {type(values).__name__}") from None
    return tuple(it)


def _check_exponents(a: np.ndarray, name: str = "alpha") -> None:
    """The one check of strength exponents and GDoF targets: in ``[0, EXPONENT_MAX]``, not NaN."""
    if not ((a >= 0) & (a <= EXPONENT_MAX)).all():  # NaN fails both
        raise ValueError(f"{name} must be nonnegative, finite and at most {EXPONENT_MAX:g}")


def _exponent_vector(values, K: int, name: str) -> np.ndarray:
    """``values`` as a float vector of ``K`` entries that :func:`_check_exponents` accepts."""
    v = _real_array(values, name)
    if v.shape != (K,):
        raise ValueError(f"{name} needs {K} entries, got {len(v) if v.ndim == 1 else v.shape}")
    _check_exponents(v, name)
    return v


def _check_power(P, name: str) -> float:
    """A nominal power as a float; ``ValueError`` unless it is real, finite and above 1."""
    if not _is_real(P):
        raise ValueError(f"{name} must be a real number, got {_shown(P)}")
    x = _real_array(P, name).item()
    if not (math.isfinite(x) and x > 1):
        raise ValueError(f"{name} must be finite and exceed 1, got {P}")
    return x


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Square matrix of channel strength exponents, receiver-major.

    ``alpha[i][j]`` is the strength exponent of the link from transmitter
    ``j`` to receiver ``i``.  Entries must be finite, nonnegative and at
    most ``EXPONENT_MAX`` (negative exponents are clipped to zero upstream, see
    :func:`from_link_budget`).
    """

    alpha: np.ndarray

    def __post_init__(self):
        a = _real_array(self.alpha, "alpha")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"alpha must be a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("need at least one user")
        _check_exponents(a)
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    @classmethod
    def _of_checked(cls, alpha: np.ndarray) -> "ChannelMatrix":
        """Wrap a read-only square float array gathered from a checked channel, unchecked."""
        ch = object.__new__(cls)
        object.__setattr__(ch, "alpha", alpha)
        return ch

    @property
    def K(self) -> int:
        return self.alpha.shape[0]

    def restrict(self, users: Sequence[int]) -> "ChannelMatrix":
        """Sub-channel over the given users, keeping their order.

        ``ValueError`` unless they are distinct integer indices in ``range(K)``
        (``int`` or numpy integer, not ``bool``).
        """
        idx = list(_entries(users, "users"))
        if not all(map(_is_integer, idx)):
            raise ValueError(f"users must be integer user indices, got {_shown(idx)}")
        idx = list(map(int, idx))
        if idx and not (len(set(idx)) == len(idx) and 0 <= min(idx) and max(idx) < self.K):
            raise ValueError(f"users must be distinct indices in range({self.K}), got {idx}")
        return ChannelMatrix(self.alpha[idx][:, idx])

    def to_dict(self, nominal_P: float | None = None) -> dict:
        d = {"K": self.K, "alpha": [[float(x) for x in row] for row in self.alpha]}
        if nominal_P is not None:
            d["nominal_P"] = float(nominal_P)
        return d


def channel_from_dict(data: dict) -> ChannelMatrix:
    """Build a :class:`ChannelMatrix` from its JSON dict form.

    Expected shape: ``{"K": <int>, "alpha": [[...]], "nominal_P": <optional>}``.
    """
    if not isinstance(data, dict):
        raise ValueError("channel document must be a JSON object")
    if "alpha" not in data:
        raise ValueError("channel document missing 'alpha'")
    ch = ChannelMatrix(data["alpha"])
    declared = data.get("K", ch.K)
    if isinstance(declared, bool) or not isinstance(declared, (int, float)) or declared != ch.K:
        raise ValueError(f"declared K={_shown(declared)} does not match alpha shape {ch.K}")
    return ch


def load_channel(path: str) -> ChannelMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("channel document nested too deeply") from None
    return channel_from_dict(data)


class PowerExponents:
    """Per-transmitter power exponents; each entry is a float <= 0 or SILENT."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable):
        entries = _entries(values, "r")
        floats = _real_array([0.0 if v is SILENT else v for v in entries], "r")
        if floats.ndim != 1:
            raise ValueError("r entries must be real numbers or SILENT, got a nested sequence")
        vals = []
        for k, (v, x) in enumerate(zip(entries, floats.tolist())):
            if v is SILENT:
                vals.append(SILENT)
                continue
            if not math.isfinite(x):
                raise ValueError(f"r[{k}] must be finite or SILENT, got {x}")
            if x > 0:
                raise ValueError(f"r[{k}] must be <= 0, got {x}")
            vals.append(x)
        self.values: tuple = tuple(vals)

    @classmethod
    def zeros(cls, K: int) -> "PowerExponents":
        return cls([0.0] * K)

    @classmethod
    def _of_checked(cls, values: tuple) -> "PowerExponents":
        """Wrap a tuple of Python floats <= 0 and SILENT, finite by construction, unchecked."""
        r = object.__new__(cls)
        r.values = values
        return r

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __eq__(self, other):
        return isinstance(other, PowerExponents) and self.values == other.values

    def __repr__(self) -> str:
        return f"PowerExponents({list(self.values)!r})"

    def is_silent(self, i: int) -> bool:
        return self.values[i] is SILENT

    @property
    def exponents(self) -> np.ndarray:
        """The entries as floats, ``-inf`` for SILENT: power ``P**-inf = 0``."""
        return np.array([-math.inf if v is SILENT else v for v in self.values])

    def to_jsonable(self) -> list:
        return [None if v is SILENT else float(v) for v in self.values]


@dataclass(frozen=True)
class ConditionReport:
    """Per-user verdicts of the TIN optimality condition.

    User ``i`` passes when its direct exponent covers the sum of the
    strongest exponent it causes at any other receiver and the strongest
    exponent it suffers from any other transmitter.
    """

    per_user: tuple
    margins: tuple
    overall: bool

    def to_dict(self) -> dict:
        return {
            "per_user": [bool(b) for b in self.per_user],
            "margins": [float(m) for m in self.margins],
            "overall": bool(self.overall),
        }


def _check_r(alpha: ChannelMatrix, r) -> np.ndarray:
    """The :attr:`PowerExponents.exponents` of ``r`` (floats <= 0 and SILENT), one per user."""
    r = PowerExponents(r)
    if len(r) != alpha.K:
        raise ValueError(f"r has length {len(r)}, channel has K={alpha.K}")
    return r.exponents


def _interference(a: np.ndarray, rv: np.ndarray) -> np.ndarray:
    """Per receiver ``i``: ``max(0, max_{j != i} (a_ij + r_j))``; a silent ``r_j = -inf`` adds nothing."""
    cross = np.where(np.eye(len(rv), dtype=bool), -np.inf, a + rv)
    return np.maximum(cross.max(axis=1, initial=-np.inf), 0.0)


def tin_gdof(alpha: ChannelMatrix, r) -> np.ndarray:
    """GDoF achieved per user by treating interference as noise at power ``P**r``.

    d_i = max(0, a_ii + r_i - max(0, max_{j != i}(a_ij + r_j))), SILENT read
    as ``r_i = -inf``: 0 and no interference.  ``r`` is a :class:`PowerExponents`
    or a sequence of floats <= 0 and SILENT.  Output entries are >= 0.
    """
    a = alpha.alpha
    rv = _check_r(alpha, r)
    return np.maximum(np.diag(a) + rv - _interference(a, rv), 0.0)


def polyhedral_tin_gdof(alpha: ChannelMatrix, r) -> np.ndarray:
    """Relaxed per-user GDoF without the clamp at zero; entries may be negative.

    Requires every power exponent finite: the relaxation has no notion of a
    silent user.  Componentwise never exceeds :func:`tin_gdof`.
    """
    a = alpha.alpha
    rv = _check_r(alpha, r)
    if np.isneginf(rv).any():
        raise ValueError("relaxed GDoF is undefined for SILENT entries")
    return np.diag(a) + rv - _interference(a, rv)


def condition_extremes(values: np.ndarray) -> np.ndarray:
    """The ``(..., 3, K)`` extremes the optimality condition reads, from stacked ``(..., K, K)`` values.

    Per user ``i``, the three rows hold the direct value ``v_ii``, the
    strongest value it causes ``max_{j != i} v_ji`` and the strongest it
    suffers ``max_{k != i} v_ik``.  Each maximum starts from 0, which also
    stands in for the diagonal: the values are exponents, or gains in dB
    over 10, where 0 is unit gain.  NaN propagates through every maximum.
    The diagonal is zeroed in a C-ordered copy.
    """
    off = np.array(values, dtype=float, order="C")
    K = off.shape[-1]
    ext = np.empty(off.shape[:-2] + (3, K))
    diagonal = off.reshape(-1, K * K)[:, :: K + 1]  # a view: off is C-contiguous
    ext[..., 0, :] = diagonal.reshape(off.shape[:-1])
    diagonal[...] = 0.0
    off.max(axis=-2, initial=0.0, out=ext[..., 1, :])
    off.max(axis=-1, initial=0.0, out=ext[..., 2, :])
    return ext


def extreme_margins(x: np.ndarray) -> np.ndarray:
    """Per-user margins ``direct - (caused + suffered)`` of ``(..., 3, K)`` exponent extremes."""
    return x[..., 0, :] - (x[..., 1, :] + x[..., 2, :])


def check_tin_condition(alpha: ChannelMatrix) -> ConditionReport:
    """Decide, per user, whether TIN with power control is GDoF-optimal.

    A user's margin is ``a_ii - (max_{j != i} a_ji + max_{k != i} a_ik)``,
    each maximum from 0 (:func:`condition_extremes`), and the user passes
    when it is at least ``-EPS_CONDITION``.  The test is homogeneous of
    degree one in the exponents and invariant under swapping the roles of
    transmitters and receivers.
    """
    margins = extreme_margins(condition_extremes(alpha.alpha))
    per_user = margins >= -EPS_CONDITION
    return ConditionReport(
        tuple(per_user.tolist()), tuple(margins.tolist()), bool(per_user.all())
    )


def transpose_channel(alpha: ChannelMatrix) -> ChannelMatrix:
    """Swap the roles of transmitters and receivers (matrix transpose)."""
    return ChannelMatrix(alpha.alpha.T)


def from_link_budget(
    snr: Sequence[float], inr: Sequence[Sequence[float]], nominal_P: float
) -> ChannelMatrix:
    """Convert linear-scale SNR/INR values into a strength-exponent matrix.

    Values below 1 are clipped up to 1 before taking logarithms, so the
    result is always nonnegative.  ``inr`` is a K-by-K matrix whose
    off-diagonal entry ``[k][i]`` is the INR of transmitter ``i`` at
    receiver ``k``; the diagonal is ignored.

    Args:
        snr: length-K positive linear SNRs (direct links).
        inr: K-by-K positive linear INRs (cross links; diagonal ignored).
        nominal_P: reference power, finite and above 1.

    Returns:
        ChannelMatrix with ``alpha = log(clipped value) / log(nominal_P)``.
    """
    nominal_P = _check_power(nominal_P, "nominal_P")
    s = _real_array(snr, "snr")
    x = _real_array(inr, "inr")
    if s.ndim != 1:
        raise ValueError("snr must be a vector")
    K = s.shape[0]
    if x.shape != (K, K):
        raise ValueError(f"inr must be {K}x{K}, got {x.shape}")
    np.fill_diagonal(x, s)
    return ChannelMatrix(link_exponents(x, nominal_P))


def link_exponents(gains: np.ndarray, nominal_P) -> np.ndarray:
    """Strength exponents ``log(max(1, g)) / log(nominal_P)`` of stacked gains.

    ``gains`` is a stack of ``(..., K, K)`` matrices or of the ``(..., 3, K)``
    rows of :func:`condition_extremes`; ``nominal_P`` is one value, or one per
    matrix (shape ``gains.shape[:-2]``), and the caller ensures it exceeds
    1.  Every logarithm is ``math.log`` of one entry, so each exponent has
    the same bits however many matrices are stacked.  Raises ``ValueError``
    for a gain that is not positive and for an exponent that is not finite
    and nonnegative.
    """
    g = np.asarray(gains, dtype=float)
    if np.any(g <= 0):
        raise ValueError("SNR/INR values must be positive")
    P = np.asarray(nominal_P, dtype=float)
    logs = np.fromiter(map(math.log, np.maximum(g, 1.0).ravel().tolist()), float, g.size)
    log_P = np.fromiter(map(math.log, P.ravel().tolist()), float, P.size)
    a = logs.reshape(g.shape) / log_P.reshape(P.shape + (1, 1))
    _check_exponents(a)
    return a
