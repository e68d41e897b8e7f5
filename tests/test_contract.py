"""The library's input contract: malformed numbers and sequences raise ``ValueError``.

Every public function and constructor that takes numbers or sequences is
called with one argument, or one entry of it, replaced by a malformed
value.  Whatever comes out must be a result, a ``ValueError`` or one of the
named ``ArithmeticError`` verdicts; never ``TypeError``, a bare
``OverflowError`` or ``RecursionError``.  Passing one library object where
another is expected (a float for a ``Polyhedron``) is out of scope.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tinopt
from tinopt import (ChannelMatrix, FiniteSnrChannel, PowerExponents, SimConfig, build_graph,
                    canonical_cycle, channel_from_dict, condition_probability, cyclic_quantities,
                    enumerate_cycles, erceg_pathloss, from_link_budget, gap_certificate,
                    gdof_limit_checks, max_weighted_gdof, point_in_tin_region,
                    polyhedral_region, polyhedral_tin_gdof, recover_power_allocation,
                    sample_network, sweep, tin_gdof, tin_rates)
from tinopt.capacity_gap import CertificateViolatedError
from tinopt.region import UncertifiedPointError, max_subset_sum

#: What a malformed input may raise.
DOCUMENTED = (ValueError, UncertifiedPointError, CertificateViolatedError)

#: Numbers and non-numbers that can stand where one real number belongs.
SCALARS = [
    0.0, 0.5, 1.0, -0.5, -1, 2, 150.0, math.nan, math.inf, -math.inf, 1e151, -1e151,
    10**400, -10**400, True, False, np.bool_(True), np.float32(0.5), np.int64(1), np.uint8(3),
    "0.5", "-0.1", "1", "abc", None, 1 + 2j, np.complex128(0.5), [], [0.5], {"a": 1},
]
#: Arrays and sequences of the wrong kind or shape.
CONTAINERS = [
    [], [[]], [[0.5], 0.5], [[0.5, 0.1], [0.2]], [[[0.5]]], np.zeros(0), np.zeros((2, 2)),
    np.array([True, False]), np.array([1 + 1j, 0.5]), np.array(["0.5", "1"]),
    np.array([0.5, None], dtype=object), np.array([10**400, 1], dtype=object),
    np.array([1, 2], dtype="datetime64[D]"), np.array([0.5, 1.0], dtype=np.float16),
]
JUNK = st.one_of(
    st.sampled_from(SCALARS + CONTAINERS),
    st.lists(st.sampled_from(SCALARS), max_size=5),
    st.lists(st.lists(st.sampled_from(SCALARS), min_size=1, max_size=4), max_size=4),
)


def _channel(K: int) -> ChannelMatrix:
    """Diagonal 1, cross 0.1: the optimality condition holds, so every verdict is reached."""
    a = np.full((K, K), 0.1)
    np.fill_diagonal(a, 1.0)
    return ChannelMatrix(a)


def _calls(K: int) -> dict:
    """Per public name, a function of its argument list and well-formed arguments for K users."""
    ch = _channel(K)
    fch = FiniteSnrChannel(ch, 100.0)
    poly = polyhedral_region(ch)
    cfg = SimConfig(K=K, coverage_radius=100.0, trials=100)
    d = [0.2 / K] * K
    r = [0.0] * K
    cycle = list(range(min(K, 2))) if K > 1 else [0, 1]
    alpha = ch.alpha.tolist()
    return {
        "ChannelMatrix": (ChannelMatrix, [alpha]),
        "ChannelMatrix.restrict": (ch.restrict, [[1, 0] if K > 1 else [0]]),
        "channel_from_dict": (lambda a, k: channel_from_dict({"K": k, "alpha": a}), [alpha, K]),
        "from_link_budget": (from_link_budget, [[100.0] * K, np.full((K, K), 2.0).tolist(), 100.0]),
        "PowerExponents": (PowerExponents, [r]),
        "tin_gdof": (lambda v: tin_gdof(ch, v), [r]),
        "polyhedral_tin_gdof": (lambda v: polyhedral_tin_gdof(ch, v), [r]),
        "build_graph": (lambda v: build_graph(ch, v), [d]),
        "recover_power_allocation": (lambda v: recover_power_allocation(ch, v), [d]),
        "point_in_tin_region": (lambda v: point_in_tin_region(ch, v), [d]),
        "Polyhedron": (lambda v: poly.contains(v), [d]),  # the one method that takes numbers
        "polyhedral_region": (lambda v: polyhedral_region(ch, v), [[0]]),
        "max_weighted_gdof": (lambda v: max_weighted_gdof(poly, v), [[1.0] * K]),
        "max_subset_sum": (lambda v: max_subset_sum(poly, v), [[0]]),
        "canonical_cycle": (canonical_cycle, [[1, 0]]),
        "enumerate_cycles": (enumerate_cycles, [list(range(K))]),
        "FiniteSnrChannel": (lambda p: FiniteSnrChannel(ch, p), [100.0]),
        "cyclic_quantities": (lambda c: cyclic_quantities(fch, c), [cycle]),
        "gdof_limit_checks": (lambda c, p: gdof_limit_checks(ch, c, p), [cycle, [1e2, 1e4]]),
        "tin_rates": (lambda v: tin_rates(fch, v), [r]),
        "gap_certificate": (lambda v: gap_certificate(fch, v), [d]),
        "SimConfig": (lambda *f: SimConfig(*f), [K, 100.0, 1000.0, 100, 0, 8.0]),
        "condition_probability": (lambda w: condition_probability(cfg, w), [1]),
        "sample_network": (lambda t: sample_network(cfg, t), [0]),
        "sweep": (lambda k, radii, w: sweep(cfg, k, radii, w), [[K], [100.0], 1]),
        "erceg_pathloss": (erceg_pathloss, [[10.0, 100.0]]),
    }


#: Public names that take no number or sequence: records, constants, a file path, or
#: functions of library objects alone.
NO_NUMBERS = {
    "SILENT", "EPS_LENGTH", "ConditionReport", "MembershipCertificate", "PotentialGraph",
    "LinearInequality", "RegionComponent", "TinMembership", "CyclicBoundQuantities",
    "GapReport", "ConditionEstimate", "NetworkInstance", "load_channel",
    "check_tin_condition", "transpose_channel", "decide_membership", "general_tin_region",
    "minimized", "polyhedron_vertices", "rate_outer_bounds", "sweep_to_csv",
}


def test_every_public_name_is_covered_or_takes_no_numbers():
    # region's max_subset_sum is not exported at the top level; restrict is a method
    covered = set(_calls(2)) - {"max_subset_sum", "ChannelMatrix.restrict"}
    assert covered.isdisjoint(NO_NUMBERS)
    assert covered | NO_NUMBERS == set(tinopt.__all__)


def _corrupt(value, junk, data):
    """``value`` whole replaced by ``junk``, or one of its entries at some nesting depth."""
    if not isinstance(value, list) or not value or data.draw(st.booleans()):
        return junk
    out = list(value)
    k = data.draw(st.integers(0, len(out) - 1))
    out[k] = _corrupt(out[k], junk, data)
    return out


@settings(max_examples=600, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_calls(1))), K=st.integers(1, 4), junk=JUNK, data=st.data())
def test_malformed_input_raises_a_documented_error(name, K, junk, data):
    call, args = _calls(K)[name]
    k = data.draw(st.integers(0, len(args) - 1))
    args[k] = _corrupt(args[k], junk, data)
    try:
        call(*args)
    except DOCUMENTED:
        pass


@pytest.mark.parametrize("name", sorted(_calls(1)))
@pytest.mark.parametrize("K", [2, 3])
def test_well_formed_arguments_are_accepted(name, K):
    call, args = _calls(K)[name]
    call(*args)


def _deep(depth: int, leaf=0.5):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


EX = _channel(2)
EX_POLY = polyhedral_region(EX)
EX_CONFIG = SimConfig(K=2, coverage_radius=100.0, trials=100)

#: Inputs that returned a result (bools and numeric strings read as numbers) or ended
#: in ``TypeError`` or ``OverflowError``; and the converter's refusal of nesting past
#: numpy's 64 dimensions, which numpy's own ``ValueError`` made before.
REFUSED = {
    "bool and string alpha": lambda: channel_from_dict({"K": 2, "alpha": [[True, "0.2"], [0.3, 1]]}),
    "string d": lambda: recover_power_allocation(EX, ["0.1", "0.1"]),
    "bool d": lambda: recover_power_allocation(EX, [True, 0.1]),
    "numpy bool d": lambda: point_in_tin_region(EX, np.array([True, False])),
    "string weights": lambda: max_weighted_gdof(EX_POLY, ["1", 1]),
    "string r": lambda: tin_gdof(EX, ["-0.1", 0.0]),
    "string target": lambda: build_graph(EX, ["1", 0]),
    "None in r": lambda: tin_gdof(EX, [None, 0]),
    "list in r": lambda: polyhedral_tin_gdof(EX, [[0.0], 0.0]),
    "complex snr": lambda: from_link_budget([1 + 1j, 2], [[1, 1], [1, 1]], 100.0),
    "complex inr": lambda: from_link_budget([2, 2], [[1, 1j], [1, 1]], 100.0),
    "scalar r": lambda: tin_gdof(EX, 5),
    "scalar silent set": lambda: polyhedral_region(EX, 5),
    "scalar users": lambda: max_subset_sum(EX_POLY, 5),
    "scalar cycle": lambda: canonical_cycle(5),
    "scalar powers": lambda: gdof_limit_checks(EX, [0, 1], 100),
    "scalar user counts": lambda: sweep(EX_CONFIG, 5, [100.0]),
    "scalar radii": lambda: sweep(EX_CONFIG, [2], 100.0),
    "None r": lambda: tin_rates(FiniteSnrChannel(EX, 100.0), None),
    "400-digit alpha": lambda: ChannelMatrix([[10**400, 0], [0, 1]]),
    "400-digit d": lambda: build_graph(EX, [-10**400, 0]),
    "400-digit r": lambda: tin_gdof(EX, [-10**400, 0]),
    "400-digit power": lambda: FiniteSnrChannel(EX, 10**400),
    "400-digit distance": lambda: erceg_pathloss([10**400]),
    "alpha nested 5000 deep": lambda: ChannelMatrix(_deep(5000)),
    "bool users to restrict": lambda: EX.restrict([True, False]),
    "float user to restrict": lambda: EX.restrict([0.5]),
    "string user to restrict": lambda: EX.restrict(["a"]),
    "repeated user to restrict": lambda: EX.restrict([1, 1]),
    "user past K to restrict": lambda: EX.restrict([0, 2]),
    "negative user to restrict": lambda: EX.restrict([-1]),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_malformed_input_is_refused(case):
    with pytest.raises(ValueError):
        REFUSED[case]()


def test_restrict_keeps_the_order_given():
    alpha = np.arange(9.0).reshape(3, 3)
    for users in ([2, 0], (np.int64(1), 2, 0), range(3)):
        idx = list(users)
        assert ChannelMatrix(alpha).restrict(users).alpha.tobytes() == alpha[idx][:, idx].tobytes()


#: Every error message that shows a caller's argument, as a function of that argument.
SHOWN_ARGUMENTS = {
    "FiniteSnrChannel power": lambda x: FiniteSnrChannel(EX, x),
    "canonical_cycle entry": lambda x: canonical_cycle([x, 1]),
    "polyhedral_region user": lambda x: polyhedral_region(EX, [x]),
    "restrict user": lambda x: EX.restrict([x]),
    "channel_from_dict K": lambda x: channel_from_dict({"K": x, "alpha": [[1.0]]}),
    "SimConfig coverage_radius": lambda x: SimConfig(K=2, coverage_radius=x),
    "SimConfig shadowing_sigma_db": lambda x: SimConfig(K=2, coverage_radius=100.0,
                                                        shadowing_sigma_db=x),
    "SimConfig trials": lambda x: SimConfig(K=2, coverage_radius=100.0, trials=x),
    "sample_network trial_index": lambda x: sample_network(EX_CONFIG, x),
    "condition_probability workers": lambda x: condition_probability(EX_CONFIG, x),
}


@pytest.mark.parametrize("site", sorted(SHOWN_ARGUMENTS))
def test_messages_show_deep_nesting_as_an_ellipsis(site):
    # nested 3,000 deep the builtin repr raised RecursionError; a message shows 32 levels
    # whole, the argument's own list around an entry included
    with pytest.raises(ValueError, match=r"\[\.\.\.\]") as deep:
        SHOWN_ARGUMENTS[site](_deep(3000))
    assert len(str(deep.value)) < 200
    with pytest.raises(ValueError) as shallow:
        SHOWN_ARGUMENTS[site](_deep(31))
    assert repr(_deep(31)) in str(shallow.value)


def test_shallow_arguments_keep_the_builtin_repr():
    # no size limit, and sets and dicts in their own order, not sorted as reprlib has them
    for x in ({2: 1, 1: 0}, {10, 3}, frozenset({10, 3}), set(), {}, [1, (2,), "a" * 100, None],
              list(range(50)), np.array([1.5, 2.0]), "0.5", b"x", _deep(31)):
        with pytest.raises(ValueError) as err:
            FiniteSnrChannel(EX, x)
        assert str(err.value) == f"nominal power must be a real number, got {x!r}"


def test_huge_integers_read_as_over_the_ceiling():
    with pytest.raises(ValueError, match="^alpha must be nonnegative, finite and at most 1e\\+150$"):
        ChannelMatrix([[10**400]])
    with pytest.raises(ValueError, match="^d entries must be finite and at most 1e\\+150 in magnitude$"):
        build_graph(EX, [-10**400, 0])
    with pytest.raises(ValueError, match="^nominal power must be finite and exceed 1"):
        FiniteSnrChannel(EX, 10**400)


def test_one_shape_message_for_every_target_vector():
    for call in (lambda d: build_graph(EX, d), EX_POLY.contains, lambda d: point_in_tin_region(EX, d)):
        with pytest.raises(ValueError, match="^d needs 2 entries, got 3$"):
            call([0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="^d needs 2 entries, got \\(\\)$"):
            call(0.1)


def test_numbers_keep_their_bits():
    """Lists, integers and numpy scalars convert to the floats ``float()`` gives."""
    values = [0.1, 1, np.float32(0.1), np.int64(7), 2**60 + 1, -0.0]
    assert PowerExponents([-abs(v) for v in values]).values == tuple(-abs(float(v)) for v in values)
    a = [[1, np.float32(0.1)], [2**60 + 1, 0.3]]
    assert ChannelMatrix(a).alpha.tobytes() == np.array([[float(x) for x in row] for row in a]).tobytes()
    assert ChannelMatrix(np.array(a, dtype=float)).alpha.tobytes() == ChannelMatrix(a).alpha.tobytes()
