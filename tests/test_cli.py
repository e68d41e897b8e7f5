import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import tinopt
from conftest import EX2_ALPHA
from tinopt import ChannelMatrix, SimConfig, point_in_tin_region, polyhedral_region
from tinopt import potential_graph
from tinopt.capacity_gap import (
    CertificateViolatedError,
    ConditionNotMetError,
    PointOutsideRegionError,
)
from tinopt.cli import _canon, main
from tinopt.channel_model import EXPONENT_MAX
from tinopt.region import K_MAX_EXPORT, K_MAX_UNION
from tinopt.netsim import (
    K_MAX_SIM,
    RADIUS_MAX_M,
    RADIUS_MIN_M,
    SHADOWING_MAX_DB,
    condition_probability,
)

#: Golden outputs, written from the full K-by-K exponent matrices.
DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ex2_path(tmp_path, ex2):
    p = tmp_path / "ex2.json"
    p.write_text(json.dumps(ex2.to_dict()))
    return str(p)


@pytest.fixture
def clean_path(tmp_path):
    ch = ChannelMatrix(np.array([[1.0, 0.2], [0.2, 1.0]]))
    p = tmp_path / "clean.json"
    p.write_text(json.dumps(ch.to_dict()))
    return str(p)


class TestCheckCondition:
    def test_failing_channel_exits_one(self, runner, ex2_path):
        result = runner.invoke(main, ["check-condition", ex2_path])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["per_user"] == [True, True, False]

    def test_passing_channel_exits_zero(self, runner, clean_path):
        result = runner.invoke(main, ["check-condition", clean_path])
        assert result.exit_code == 0
        assert json.loads(result.output)["overall"] is True

    def test_malformed_json_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"K": 2,\n "alpha": [[1, 2],\n')
        result = runner.invoke(main, ["check-condition", str(bad)])
        assert result.exit_code == 2
        assert "bad.json:" in result.output  # line-referenced message


class TestRegion:
    def test_matches_library(self, runner, ex2_path, ex2):
        result = runner.invoke(main, ["region", ex2_path])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        lib = polyhedral_region(ex2).to_dict()
        assert doc["cycles"] == lib["cycles"]
        assert doc["boxes"] == lib["boxes"]

    def test_minimize_prunes(self, runner, ex2_path):
        result = runner.invoke(main, ["region", ex2_path, "--minimize"])
        doc = json.loads(result.output)
        assert len(doc["cycles"]) == 4
        assert len(doc["boxes"]) == 3

    def test_round_trip_bytes(self, runner, ex2_path, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        r1 = runner.invoke(main, ["region", ex2_path, "-o", str(out1)])
        r2 = runner.invoke(main, ["region", ex2_path, "-o", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        # parsing and re-serializing through the same canonical writer is
        # also byte-stable
        doc = json.loads(out1.read_text())
        assert json.dumps(_canon(doc), indent=2) + "\n" == out1.read_text()

    def test_union_flag(self, runner, ex2_path):
        result = runner.invoke(main, ["region", ex2_path, "--union"])
        doc = json.loads(result.output)
        surviving = [c["silent"] for c in doc["components"] if c["subsumed_by"] is None]
        assert surviving == [[], [2]]

    def test_union_near_the_band(self, runner, tmp_path):
        # cycle (0, 1) has right-hand side -2e-9: empty under the 1e-9 band, feasible to HiGHS
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"K": 3, "alpha": [[0.8, 1.2, 1.1], [1.000000002, 1.4, 0.6],
                                                      [0.8, 0.1, 0.6]]}))
        result = runner.invoke(main, ["region", str(path), "--union"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        flags = [c["subsumed_by"] for c in doc["components"]]
        assert flags == [None, None, [], [], [0], None, None, [0]]

    def test_silent_set(self, runner, ex2_path):
        result = runner.invoke(main, ["region", ex2_path, "--silent-set", "2"])
        doc = json.loads(result.output)
        assert doc["silent"] == [2]
        assert doc["cycles"] == [{"seq": [0, 1], "rhs": 1.9}]

    def test_vertices_csv(self, runner, clean_path, tmp_path):
        out = tmp_path / "verts.csv"
        result = runner.invoke(main, ["region", clean_path, "--vertices", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d0,d1"
        assert len(lines) > 3

    def test_vertices_refused_before_any_row(self, runner, tmp_path, monkeypatch):
        def no_enumeration(n):
            raise AssertionError("cycles enumerated")

        monkeypatch.setattr(potential_graph, "_cycle_blocks", no_enumeration)
        path = tmp_path / "nine.json"
        path.write_text(json.dumps(_channel(9, cross=0.01)))
        result = runner.invoke(main, ["region", str(path), "--vertices", str(tmp_path / "v.csv")])
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: vertex enumeration supports at most 4 active users\n"
        assert not (tmp_path / "v.csv").exists()

    def test_minimize_vertices_refused_before_minimizing(self, runner, tmp_path, monkeypatch):
        def no_minimizing(poly):
            raise AssertionError("minimized")

        monkeypatch.setattr("tinopt.cli.minimized", no_minimizing)
        out = tmp_path / "v.csv"
        result = runner.invoke(main, ["region", str(DATA / "k6_condition.json"), "--minimize",
                                      "--vertices", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: vertex enumeration supports at most 4 active users\n"
        assert result.stdout == ""
        assert not out.exists()


class TestMembership:
    def test_inside_exits_zero(self, runner, ex2_path, ex2):
        result = runner.invoke(main, ["membership", ex2_path, "--gdof", "1,0.9,0"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["in_region"] is True
        assert doc["silent"] == [2]
        # thin adapter: numbers equal the library's
        lib = point_in_tin_region(ex2, [1, 0.9, 0])
        assert doc["r"] == lib.certificate.to_dict()["r"]

    def test_outside_exits_one(self, runner, ex2_path):
        result = runner.invoke(
            main, ["membership", ex2_path, "--gdof", "1,0.9,0.01"]
        )
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["violated_bound"]["users"] == [0, 1, 2]
        assert doc["violated_bound"]["rhs"] == pytest.approx(1.4)

    def test_wrong_length_exits_two(self, runner, ex2_path):
        result = runner.invoke(main, ["membership", ex2_path, "--gdof", "1,0.9"])
        assert result.exit_code == 2

    def test_negative_exits_two(self, runner, ex2_path):
        result = runner.invoke(main, ["membership", ex2_path, "--gdof", "-1,0,0"])
        assert result.exit_code == 2


class TestPowerAlloc:
    def test_feasible(self, runner, ex2_path):
        result = runner.invoke(
            main, ["power-alloc", ex2_path, "--gdof", "0.1,0.9,0.4"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["feasible"] is True
        achieved = np.array(doc["achieved_gdof"])
        assert np.all(achieved >= np.array([0.1, 0.9, 0.4]) - 1e-9)

    def test_infeasible_exits_one(self, runner, ex2_path):
        result = runner.invoke(main, ["power-alloc", ex2_path, "--gdof", "1,0.9,0"])
        assert result.exit_code == 1
        assert json.loads(result.output)["violated_bound"]["rhs"] == pytest.approx(1.4)


class TestGapCheck:
    def test_csv_output(self, runner, clean_path, tmp_path):
        out = tmp_path / "gaps.csv"
        result = runner.invoke(
            main,
            ["gap-check", clean_path, "--gdof", "0.8,0.8",
             "--power", "100", "--power", "10000", "-o", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("instance_id,constraint_type,users,P,")
        assert len(lines) == 1 + 2 * 3  # two powers x (2 users + 1 cycle)

    def test_condition_failure_exits_one(self, runner, ex2_path):
        result = runner.invoke(
            main, ["gap-check", ex2_path, "--gdof", "0.1,0.1,0.1", "--power", "100"]
        )
        assert result.exit_code == 1
        assert result.stderr == "error: gap certificates require the optimality condition\n"

    def test_outside_point_exits_one(self, runner, clean_path):
        result = runner.invoke(main, ["gap-check", clean_path, "--gdof", "1,1", "--power", "100"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: point is outside the all-active region: ")
        assert result.stderr.count("\n") == 1

    def test_oversize_is_the_enumerator_refusal(self, runner, tmp_path, monkeypatch):
        def no_enumeration(n):
            raise AssertionError("cycles enumerated")

        monkeypatch.setattr(potential_graph, "_cycle_blocks", no_enumeration)
        path = tmp_path / "ten.json"
        path.write_text(json.dumps(_channel(K_MAX_EXPORT + 1, cross=0.01)))
        result = runner.invoke(main, ["gap-check", str(path), "--gdof", ",".join(["0.1"] * 10),
                                      "--power", "100"])
        assert result.exit_code == 2
        assert result.stderr == "error: cycle enumeration supports at most 9 users, got 10\n"


class TestGdofLimits:
    def test_converged_exit_zero(self, runner, tmp_path):
        a = np.full((3, 3), 0.2)
        np.fill_diagonal(a, 1.0)
        p = tmp_path / "dense.json"
        p.write_text(json.dumps(ChannelMatrix(a).to_dict()))
        result = runner.invoke(main, ["gdof-limits", str(p), "--cycle", "0,1,2"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["monotone"] is True
        assert doc["final_error"] < 0.02

    def test_condition_violation_exits_one(self, runner, ex2_path):
        # a failed condition is a verdict, as in gap-check; a malformed cycle is still refused
        result = runner.invoke(main, ["gdof-limits", ex2_path, "--cycle", "0,1"])
        assert result.exit_code == 1
        assert result.stderr == "error: limit identities require the optimality condition\n"
        result = runner.invoke(main, ["gdof-limits", ex2_path, "--cycle", "0,5"])
        assert result.exit_code == 2
        assert result.stderr == "error: invalid cycle (0, 5) for K=3\n"


class TestMalformedInput:
    @pytest.mark.parametrize(
        "args",
        [
            ["region", "dense.json", "--silent-set", "x"],
            ["gdof-limits", "dense.json", "--cycle", "a,b"],
            ["gdof-limits", "dense.json", "--cycle", "0,1", "--powers", "x"],
            ["gdof-limits", "dense.json", "--cycle", "0,5"],
            ["region", "five.json", "--vertices", "verts.csv"],
            ["gap-check", "dense.json", "--gdof", "0.1,0.1,0.1", "--power", "0.5"],
            ["gap-check", "big.json", "--gdof", ",".join(["0.1"] * 13), "--power", "100"],
            ["simulate", "--users", "3", "--coverage", "100", "--trials", "100",
             "--workers", "0"],
            ["sweep", "--users", "2", "--coverage", "100", "--trials", "100",
             "--workers", "0"],
            ["membership", "dense.json", "--gdof", "nan,0.5,0.5"],
            ["power-alloc", "dense.json", "--gdof", "inf,0.5,0.5"],
            ["gap-check", "dense.json", "--gdof", "nan,0.1,0.1", "--power", "100"],
            ["gap-check", "dense.json", "--gdof", "-0.1,0.1,0.1", "--power", "100"],
            ["gap-check", "dense.json", "--gdof", "0.1,0.1,0.1", "--power", "inf"],
            ["gdof-limits", "dense.json", "--cycle", "0,1", "--powers", "1e2,inf"],
            ["region", "big.json"],
            ["region", "big.json", "--silent-set", "0,1,2"],
            ["region", "ten.json", "--minimize"],
            ["region", "ten.json", "--union"],
            ["gap-check", "ten.json", "--gdof", ",".join(["0.1"] * 10), "--power", "100"],
            ["simulate", "--users", "x", "--coverage", "100"],
            ["simulate", "--users", "3", "--coverage", "y"],
            ["region", "dense.json", "--bogus"],
            ["--bogus"],
            ["region"],
            ["region", "dense.json", "--union", "--silent-set", "0"],
            ["region", "dense.json", "--union", "--minimize"],
            ["region", "dense.json", "--union", "--vertices", "verts.csv"],
            ["gdof-limits", "dense.json", "--cycle", "0,1", "--tol", "nan"],
            ["gdof-limits", "dense.json", "--cycle", "0,1", "--tol", "-1"],
            ["gdof-limits", "dense.json", "--cycle", "0,1", "--tol", "0"],
            ["check-condition", "huge.json"],
            ["region", "huge.json"],
            ["power-alloc", "dense.json", "--gdof", "1e308,1e308,0"],
            ["membership", "dense.json", "--gdof", "0.5,2e150,0"],
        ],
    )
    def test_exits_two_with_one_line_error(self, runner, tmp_path, args):
        for name, K in (("dense.json", 3), ("five.json", 5), ("ten.json", 10), ("big.json", 13)):
            a = np.full((K, K), 0.1)
            np.fill_diagonal(a, 1.0)
            (tmp_path / name).write_text(json.dumps(ChannelMatrix(a).to_dict()))
        (tmp_path / "huge.json").write_text('{"K": 2, "alpha": [[0, 1e308], [1e308, 0]]}')
        assert_usage_error(runner, [str(tmp_path / x) if x.endswith((".json", ".csv")) else x
                                    for x in args])


class TestOneRefusalPath:
    """A ``ValueError`` from the library exits 2 with its message as the one ``error:`` line."""

    GDOF = ["--gdof", "0.1,0.1,0.1"]

    @pytest.mark.parametrize("target,args", [
        ("check_tin_condition", ["check-condition", "ch.json"]),
        ("general_tin_region", ["region", "ch.json", "--union"]),
        ("polyhedral_region", ["region", "ch.json"]),
        ("minimized", ["region", "ch.json", "--minimize"]),
        ("polyhedron_vertices", ["region", "ch.json", "--vertices", "v.csv"]),
        ("point_in_tin_region", ["membership", "ch.json"] + GDOF),
        ("recover_power_allocation", ["power-alloc", "ch.json"] + GDOF),
        ("FiniteSnrChannel", ["gap-check", "ch.json", "--power", "100"] + GDOF),
        ("gdof_limit_checks", ["gdof-limits", "ch.json", "--cycle", "0,1"]),
        ("condition_probability", ["simulate", "--users", "2", "--coverage", "100"]),
        ("sweep", ["sweep", "--users", "2", "--coverage", "100"]),
        ("gap_certificate", ["gap-check", "ch.json", "--power", "100"] + GDOF),
    ])
    def test_library_refusal_exits_two(self, runner, monkeypatch, ex2_path, tmp_path,
                                       target, args):
        def refuse(*args, **kwargs):
            raise ValueError("refused: the library's own words")

        monkeypatch.setattr(f"tinopt.cli.{target}", refuse)
        args = [ex2_path if a == "ch.json" else str(tmp_path / a) if a == "v.csv" else a
                for a in args]
        assert_usage_error(runner, args)
        assert runner.invoke(main, args).output == "error: refused: the library's own words\n"

    @pytest.mark.parametrize("error", [ConditionNotMetError, PointOutsideRegionError,
                                       CertificateViolatedError], ids=lambda e: e.__name__)
    def test_gap_certificate_refusal_is_a_verdict(self, runner, monkeypatch, ex2_path, error):
        # only the named verdicts exit 1; any other ValueError is malformed input
        def refuse(*args, **kwargs):
            raise error("the library's verdict")

        monkeypatch.setattr("tinopt.cli.gap_certificate", refuse)
        result = runner.invoke(main, ["gap-check", ex2_path, "--power", "100"] + self.GDOF)
        assert result.exit_code == 1
        assert result.output == "error: the library's verdict\n"

    def test_no_arguments_prints_help_and_exits_two(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("Usage: ")
        assert "gap-check" in result.stderr


def assert_usage_error(runner, args):
    """Exit 2 with exactly one ``error:`` line, no traceback and no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args)
    assert result.exit_code == 2, (args, result.output)
    assert isinstance(result.exception, SystemExit), (args, result.exception)
    assert result.output.startswith("error: "), (args, result.output)
    assert result.output.count("\n") == 1, (args, result.output)
    assert not caught, (args, [str(w.message) for w in caught])


def _rejects(conv, text: str) -> bool:
    try:
        conv(text)
    except ValueError:
        return True
    return False


#: Radii and shadowing spreads that are not finite, or negative.
BAD_REALS = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
    max_value=-5e-324, allow_infinity=False
)
#: Finite radii and spreads above what a simulation accepts.
HUGE_RADII = st.floats(min_value=RADIUS_MAX_M, exclude_min=True, allow_infinity=False)
#: Positive radii below what a simulation accepts, where every gain would underflow.
TINY_RADII = st.floats(min_value=0.0, max_value=RADIUS_MIN_M, exclude_min=True,
                       exclude_max=True)
HUGE_SHADOWING = st.floats(min_value=SHADOWING_MAX_DB, exclude_min=True, allow_infinity=False)
BAD_USERS = st.just(0) | st.integers(max_value=-1) | st.integers(K_MAX_SIM + 1, 10**12)


def _garbled(conv):
    return st.text(alphabet="ab.e,- ", max_size=3).filter(
        lambda t: all(_rejects(conv, x) for x in t.split(",")))


def _bad_list(good, bad):
    """Comma-separated tokens, at least one of them malformed."""
    return st.tuples(st.lists(good, max_size=2), bad, st.lists(good, max_size=2)).map(
        lambda parts: ",".join(parts[0] + [parts[1]] + parts[2]))


SCALAR_FAULTS = st.one_of(
    st.tuples(st.sampled_from(["--cell-radius", "--shadowing"]), BAD_REALS.map(repr)),
    st.tuples(st.just("--cell-radius"), HUGE_RADII.map(repr)),
    st.tuples(st.just("--shadowing"), HUGE_SHADOWING.map(repr)),
    st.tuples(st.just("--trials"), st.integers(max_value=99).map(str)),
    st.tuples(st.just("--workers"), st.integers(max_value=0).map(str)),
)
SIMULATE_FAULTS = st.one_of(
    SCALAR_FAULTS,
    st.tuples(st.just("--coverage"), (BAD_REALS | HUGE_RADII | TINY_RADII).map(repr)),
    st.tuples(st.just("--users"), BAD_USERS.map(str)),
)
SWEEP_FAULTS = st.one_of(
    SCALAR_FAULTS,
    st.tuples(st.just("--coverage"), _bad_list(
        st.sampled_from(["50", "100"]),
        (BAD_REALS | HUGE_RADII | TINY_RADII).map(repr) | _garbled(float))),
    st.tuples(st.just("--users"), _bad_list(
        st.sampled_from(["1", "2"]), BAD_USERS.map(str) | _garbled(int))),
)


class TestMonteCarloContract:
    """Malformed ``simulate``/``sweep`` arguments exit 2 with one ``error:`` line."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(command=st.sampled_from(["simulate", "sweep"]), data=st.data())
    def test_malformed_arguments_exit_two(self, command, data):
        option, value = data.draw(SIMULATE_FAULTS if command == "simulate" else SWEEP_FAULTS)
        opts = {"--users": "2", "--coverage": "100", "--trials": "100", option: value}
        args = [command] + [x for kv in opts.items() for x in kv]
        assert_usage_error(CliRunner(), args)

    def test_trial_count_bounded_before_any_trial(self, runner, monkeypatch):
        monkeypatch.setattr("tinopt.netsim._sample_links", lambda *args: pytest.fail("a trial ran"))
        for command in ("simulate", "sweep"):
            args = [command, "--users", str(K_MAX_SIM), "--coverage", "100", "--trials", "1001"]
            assert_usage_error(runner, args)
            assert "trials * (K * K + 150) must be at most" in runner.invoke(main, args).output

    def test_tiny_coverage_names_the_field(self, runner):
        args = ["simulate", "--users", "3", "--coverage", "1e-300", "--trials", "100"]
        assert_usage_error(runner, args)
        assert "coverage_radius" in runner.invoke(main, args).output


def _channel(K: int, cross: float = 0.1) -> dict:
    a = np.full((K, K), cross)
    np.fill_diagonal(a, 1.0)
    return {"K": K, "alpha": a.tolist()}


def _with_entry(K: int, i: int, j: int, value: float) -> dict:
    doc = _channel(K)
    doc["alpha"][i % K][j % K] = value
    return doc


#: ``alpha`` entries that JSON reads as a string, a bool and an integer past the float range.
NOT_REAL_ALPHAS = {"string": [["0.5"]], "bool": [[True]], "400 digits": [[1.0, 10**400], [0.1, 1.0]]}
#: Channel documents that are not a channel: non-finite or negative
#: exponents, a wrong shape or type of ``alpha``, or a wrong ``K``.
BAD_CHANNELS = st.one_of(
    st.builds(_with_entry, st.integers(1, 4), st.integers(0, 3), st.integers(0, 3),
              st.sampled_from([math.nan, math.inf, -math.inf])
              | st.floats(max_value=-5e-324, allow_infinity=False)),
    st.sampled_from([
        [[1.0, 0.1], [0.1]], [[1.0, 0.1, 0.2], [0.1, 1.0, 0.2]], [[[1.0]]], [[]], [],
        5.0, "abc", None, {"a": 1.0}, [["x"]], [[None]], [[{"a": 1}]],
        *NOT_REAL_ALPHAS.values(),
    ]).map(lambda alpha: {"alpha": alpha}),
    st.sampled_from([3, 0, -1, "x", None, [2], 2.5]).map(lambda K: {**_channel(2), "K": K}),
    st.sampled_from([[], "alpha", 3, None]),
    st.just({"K": 2}),
)
def _parses(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


#: Files that do not parse as JSON.
CORRUPT_TEXT = st.text(max_size=12).filter(lambda t: not _parses(t))
#: Files nested deeper than the JSON parser recurses: a bare list, a channel
#: whose ``alpha`` is nested, and an object of objects.
DEEP_TEXT = {
    "list": "[" * 100_000 + "]" * 100_000,
    "alpha": '{"K": 1, "alpha": ' + "[" * 5_000 + "1.0" + "]" * 5_000 + "}",
    "object": '{"a": ' * 3_000 + "1" + "}" * 3_000,
}
#: ``--silent-set`` lists for a K=3 channel with a malformed or out-of-range entry.
BAD_SILENT_SETS = _bad_list(
    st.sampled_from(["0", "1", "2"]),
    st.integers(3, 10**20).map(str) | st.integers(max_value=-1).map(str)
    | _garbled(int).filter(lambda t: any(x.strip() for x in t.split(",")))  # blanks are skipped
    | st.sampled_from(["1.5", "1e2", "0x1"]),
)
#: Every mode of ``region``; the vertex CSV goes to the working directory.
REGION_MODES = st.sampled_from([[], ["--minimize"], ["--union"], ["--vertices", "v.csv"]])


class TestRegionContract:
    """Malformed ``region`` input exits 2 with one ``error:`` line, in every mode."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mode=REGION_MODES, silent=st.sampled_from(["", "0"]), data=st.data())
    def test_malformed_input_exits_two(self, tmp_path_factory, mode, silent, data):
        path = tmp_path_factory.mktemp("region") / "ch.json"
        fault = data.draw(st.sampled_from(["channel", "text", "missing", "silent-set", "oversize"]))
        if fault == "channel":
            path.write_text(json.dumps(data.draw(BAD_CHANNELS)))
        elif fault == "text":
            path.write_text(data.draw(CORRUPT_TEXT))
        elif fault == "silent-set":
            path.write_text(json.dumps(_channel(3)))
            silent = data.draw(BAD_SILENT_SETS)
        elif fault == "oversize":
            # more active users than rows are exported for, or than the union takes
            K = data.draw(st.sampled_from([K_MAX_EXPORT + 1, K_MAX_UNION + 1, 13]))
            path.write_text(json.dumps(_channel(K, cross=0.01)))
            silent = ""
        with CliRunner().isolated_filesystem(temp_dir=path.parent):
            assert_usage_error(CliRunner(), ["region", str(path), "--silent-set", silent] + mode)

    def test_unwritable_output_exits_two(self, runner, ex2_path, tmp_path):
        missing = str(tmp_path / "no" / "such" / "dir" / "out")
        assert_usage_error(runner, ["region", ex2_path, "-o", missing])
        assert_usage_error(runner, ["region", ex2_path, "--vertices", missing + ".csv"])


#: Finite entries above the exponent ceiling.
OVER_CEILING = st.floats(min_value=EXPONENT_MAX, exclude_min=True, allow_infinity=False)
#: Vector entries that are not a GDoF target: non-finite, negative or over the ceiling.
BAD_ENTRIES = (BAD_REALS | OVER_CEILING).map(repr)
GOOD_ENTRIES = st.sampled_from(["0", "0.1", "0.5", "1", repr(EXPONENT_MAX)])


def _vector_faults(K: int):
    """``--gdof`` values for a K-user channel that must be refused."""
    good = st.lists(GOOD_ENTRIES, min_size=K - 1, max_size=K - 1)
    return st.one_of(
        _bad_list(GOOD_ENTRIES, _garbled(float)),
        st.tuples(good, BAD_ENTRIES, st.integers(0, K - 1)).map(
            lambda t: ",".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:])),
        st.lists(GOOD_ENTRIES, min_size=1, max_size=6).filter(lambda v: len(v) != K).map(
            ",".join),
    )


def _cycle_faults(K: int):
    """``--cycle`` values that name no cycle of a K-user channel."""
    user = st.integers(0, K - 1)
    return st.one_of(
        _bad_list(user.map(str), _garbled(int)),
        st.lists(user, max_size=2).flatmap(lambda us: st.tuples(
            st.just(us), st.integers(K, 10**20) | st.integers(max_value=-1))).map(
            lambda t: ",".join(map(str, t[0] + [t[1]]))),
        st.tuples(user, st.lists(user, max_size=2)).map(
            lambda t: ",".join(map(str, [t[0], *t[1], t[0]]))),  # a repeated user
        user.map(str),  # one user is no cycle
    )


POWER_FAULTS = (BAD_REALS | st.floats(max_value=1.0, allow_nan=False)).map(repr)


def _verdict_command(data, command: str, K: int, fault: str | None) -> list:
    """One call of ``command`` on ``ch.json`` (K users), with ``fault`` in one argument."""
    def pick(kind, bad, good):
        return data.draw(bad) if fault == kind else data.draw(good)

    vector = pick("vector", _vector_faults(K), st.lists(GOOD_ENTRIES, min_size=K, max_size=K)
                  .map(",".join))
    if command == "check-condition":
        return [command, "ch.json"]
    if command in ("membership", "power-alloc"):
        return [command, "ch.json", "--gdof", vector]
    if command == "gap-check":
        power = pick("powers", POWER_FAULTS, st.sampled_from(["1e2", "1e8", "1e300"]))
        return [command, "ch.json", "--gdof", vector, "--power", power]
    cycle = pick("cycle", _cycle_faults(K), st.permutations(range(K)).flatmap(
        lambda perm: st.integers(2, K).map(lambda m: ",".join(map(str, perm[:m])))))
    powers = pick("powers", st.one_of(
        _bad_list(st.just("1e2"), _garbled(float) | POWER_FAULTS),
        st.sampled_from(["1e4,1e2", "1e2,1e2"])), st.sampled_from(["1e2,1e4,1e8", "1e3,1e300"]))
    tol = pick("tol", (BAD_REALS | st.just(0.0)).map(repr), st.sampled_from(["0.02", "1e-12", "5"]))
    return [command, "ch.json", "--cycle", cycle, "--powers", powers, "--tol", tol]


#: The faults each subcommand can be given, besides a bad channel file.
ARGUMENT_FAULTS = {
    "check-condition": [],
    "membership": ["vector"],
    "power-alloc": ["vector"],
    "gap-check": ["vector", "powers"],
    "gdof-limits": ["cycle", "powers", "tol"],
}


class TestUnreadableChannel:
    """A channel file nested too deeply for the JSON parser, or whose ``alpha`` holds no
    real number, is malformed input in every channel subcommand, not a verdict."""

    @pytest.mark.parametrize("command", sorted(ARGUMENT_FAULTS) + ["region"])
    @pytest.mark.parametrize("doc", sorted(DEEP_TEXT) + sorted(NOT_REAL_ALPHAS))
    def test_exits_two_with_one_line(self, runner, tmp_path, command, doc):
        path = tmp_path / "ch.json"
        path.write_text(DEEP_TEXT[doc] if doc in DEEP_TEXT
                        else json.dumps({"alpha": NOT_REAL_ALPHAS[doc]}))
        args = [command, str(path)] + {
            "check-condition": [], "region": [], "membership": ["--gdof", "0.5"],
            "power-alloc": ["--gdof", "0.5"], "gap-check": ["--gdof", "0.5", "--power", "1e2"],
            "gdof-limits": ["--cycle", "0,1", "--powers", "1e2,1e4"]}[command]
        assert_usage_error(runner, args)
        if doc in DEEP_TEXT:
            assert runner.invoke(main, args).output == \
                f"error: {path}: channel document nested too deeply\n"


class TestVerdictContract:
    """The five channel subcommands: malformed input exits 2 with one ``error:`` line and
    no traceback; well-formed input exits 0 or 1 with no traceback and no warning."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(command=st.sampled_from(sorted(ARGUMENT_FAULTS)), data=st.data())
    def test_malformed_input_exits_two(self, tmp_path_factory, command, data):
        path = tmp_path_factory.mktemp("verdict") / "ch.json"
        fault = data.draw(st.sampled_from(["channel", "text", "missing", "ceiling"]
                                          + ARGUMENT_FAULTS[command]))
        K = 3
        if fault == "channel":
            path.write_text(json.dumps(data.draw(BAD_CHANNELS)))
        elif fault == "text":
            path.write_text(data.draw(CORRUPT_TEXT))
        elif fault == "ceiling":
            path.write_text(json.dumps(_with_entry(K, data.draw(st.integers(0, 2)),
                                                   data.draw(st.integers(0, 2)),
                                                   data.draw(OVER_CEILING))))
        elif fault != "missing":
            path.write_text(json.dumps(_channel(K)))
        args = _verdict_command(data, command, K, fault)
        with CliRunner().isolated_filesystem(temp_dir=path.parent):
            assert_usage_error(CliRunner(), [str(path) if a == "ch.json" else a for a in args])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(command=st.sampled_from(sorted(ARGUMENT_FAULTS)), K=st.integers(2, 4), data=st.data())
    def test_verdicts_exit_zero_or_one(self, tmp_path_factory, command, K, data):
        path = tmp_path_factory.mktemp("verdict") / "ch.json"
        cross = 0.1 if command == "gdof-limits" else data.draw(st.sampled_from([0.1, 0.6]))
        doc = _channel(K, cross)
        if command != "gdof-limits" and data.draw(st.booleans()):  # an exponent at the ceiling
            doc = _with_entry(K, data.draw(st.integers(0, K - 1)), data.draw(st.integers(0, K - 1)),
                              EXPONENT_MAX)
        path.write_text(json.dumps(doc))
        args = [str(path) if a == "ch.json" else a
                for a in _verdict_command(data, command, K, fault=None)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, args)
        assert result.exit_code in (0, 1), (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            (args, result.exception)
        assert "Traceback" not in result.output, (args, result.output)
        assert not caught, (args, [str(w.message) for w in caught])


#: Per subcommand, calls on well-formed input that reach each of its outcomes: ``pass``
#: is a 2-user channel under the optimality condition, ``fail`` the 3-user ``ex2``,
#: where it fails.
WELL_FORMED = {
    "check-condition": [["pass"], ["fail"]],
    "region": [["fail"], ["fail", "--union"], ["pass", "--minimize"]],
    "membership": [["fail", "--gdof", "0.1,0.1,0.1"], ["fail", "--gdof", "1,1,1"]],
    "power-alloc": [["fail", "--gdof", "0.1,0.1,0.1"], ["fail", "--gdof", "1,0.9,0"]],
    "gap-check": [["pass", "--gdof", "0.5,0.5", "--power", "100"],
                  ["pass", "--gdof", "1,1", "--power", "100"],
                  ["fail", "--gdof", "0.1,0.1,0.1", "--power", "100"]],
    "gdof-limits": [["pass", "--cycle", "0,1", "--tol", "5"],
                    ["pass", "--cycle", "0,1", "--tol", "1e-12"],
                    ["fail", "--cycle", "0,1", "--tol", "5"]],
    "simulate": [["--users", "2", "--coverage", "100", "--trials", "100"]],
    "sweep": [["--users", "2", "--coverage", "100", "--trials", "100"]],
}
#: The verdict a subcommand prints in its stdout JSON, from that document and its arguments.
VERDICTS = {
    "check-condition": lambda doc, args: doc["overall"],
    "membership": lambda doc, args: doc["in_region"],
    "power-alloc": lambda doc, args: doc["feasible"],
    "gdof-limits": lambda doc, args: doc["monotone"] and doc["final_error"] < float(args[-1]),
}
#: The one ``error:`` line of each named verdict: ``ConditionNotMetError`` (from gdof-limits
#: and from gap-check), ``PointOutsideRegionError`` and ``CertificateViolatedError``.
NAMED_VERDICT_LINE = re.compile(
    r"error: ((limit identities|gap certificates) require the optimality condition"
    r"|point is outside the all-active region: .+|certificate violated on .+)\n")


class TestExitOne:
    """Exit 1 comes only from a named verdict: a false verdict in stdout JSON with nothing on
    stderr, or one named verdict's ``error:`` line with nothing on stdout.  Exit 0 comes with
    a true verdict, or with none."""

    @pytest.mark.parametrize("command,source", [
        *((c, s) for c in sorted(ARGUMENT_FAULTS) + ["region"]
          for s in ("well-formed", "bad channel", "corrupt text", "deep")),
        *((c, s) for c in ("simulate", "sweep") for s in ("well-formed", "bad arguments")),
    ])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_only_from_a_named_verdict(self, tmp_path_factory, command, source, data):
        tmp = tmp_path_factory.mktemp("exit")
        for name, alpha in (("pass", [[1.0, 0.2], [0.2, 1.0]]), ("fail", EX2_ALPHA.tolist())):
            (tmp / f"{name}.json").write_text(json.dumps({"K": len(alpha), "alpha": alpha}))
        path = tmp / "ch.json"
        calls = [[str(tmp / f"{a}.json") if a in ("pass", "fail") else a for a in args]
                 for args in WELL_FORMED[command]]
        if source == "bad channel":
            path.write_text(json.dumps(data.draw(BAD_CHANNELS)))
        elif source == "corrupt text":
            path.write_text(data.draw(CORRUPT_TEXT))
        elif source == "bad arguments":
            option, value = data.draw(SIMULATE_FAULTS if command == "simulate" else SWEEP_FAULTS)
            calls = [args + [option, value] for args in calls]
        if source in ("bad channel", "corrupt text"):  # the well-formed calls' channel replaced
            calls = [[str(path), *args[1:]] for args in calls]
        elif source == "deep":
            calls = []
            for doc, text in DEEP_TEXT.items():
                (tmp / f"{doc}.json").write_text(text)
                calls += [[str(tmp / f"{doc}.json"), *args[1:]] for args in WELL_FORMED[command]]
        codes = set()
        for args in calls:
            result = CliRunner().invoke(main, [command, *args])
            codes.add(result.exit_code)
            assert result.exception is None or isinstance(result.exception, SystemExit), args
            verdict = VERDICTS[command](json.loads(result.stdout), args) \
                if command in VERDICTS and result.stdout else None
            if result.exit_code == 1:
                assert (verdict is False and result.stderr == "") or (
                    result.stdout == "" and NAMED_VERDICT_LINE.fullmatch(result.stderr)), args
            elif result.exit_code == 0:
                assert verdict in (True, None) and result.stderr == "", args
            else:
                assert result.exit_code == 2 and result.stdout == "", args
        # well-formed calls reach both outcomes where the subcommand has a verdict
        want = {0, 1} if command in VERDICTS or command == "gap-check" else {0}
        assert codes == (want if source == "well-formed" else {2}), codes


class TestSimulation:
    def test_simulate_smoke(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "--users", "3", "--coverage", "100", "--trials", "150",
             "--seed", "1"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["trials"] == 150
        assert 0.0 <= doc["prob"] <= 1.0

    def test_simulate_deterministic_bytes(self, runner):
        args = ["simulate", "--users", "4", "--coverage", "120", "--trials", "150",
                "--seed", "3"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args + ["--workers", "4"])
        assert a.output == b.output

    def test_sweep_csv(self, runner, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        base = ["sweep", "--users", "2,3", "--coverage", "80,120", "--trials",
                "120", "--seed", "5"]
        r1 = runner.invoke(main, base + ["-o", str(out1)])
        r2 = runner.invoke(main, base + ["--workers", "2", "-o", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0] == (
            "K,coverage_radius_m,trials,prob,ci_low,ci_high"
        )

    def test_simulate_csv_is_the_sweep_of_its_point(self, runner):
        point = ["--users", "3", "--coverage", "100", "--trials", "100", "--seed", "7"]
        simulated = runner.invoke(main, ["simulate", *point, "--format", "csv"])
        swept = runner.invoke(main, ["sweep", *point])
        assert simulated.exit_code == swept.exit_code == 0, simulated.output
        assert simulated.stdout_bytes == swept.stdout_bytes
        assert simulated.output.splitlines()[0] == "K,coverage_radius_m,trials,prob,ci_low,ci_high"

    def test_sweep_json_is_the_estimates_without_passes(self, runner):
        args = ["sweep", "--users", "2,3", "--coverage", "80,120", "--trials", "120",
                "--seed", "5", "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        want = []
        for K in (2, 3):
            for radius in (80.0, 120.0):
                est = condition_probability(SimConfig(K=K, coverage_radius=radius, trials=120,
                                                      master_seed=5))
                doc = {"coverage_radius_m" if k == "coverage_radius" else k: v
                       for k, v in dataclasses.asdict(est).items() if k != "passes"}
                want.append(doc)
        assert result.output == json.dumps(_canon(want), indent=2) + "\n"

    def test_dump_instance(self, runner, tmp_path):
        dump = tmp_path / "inst.json"
        result = runner.invoke(
            main,
            ["simulate", "--users", "2", "--coverage", "100", "--trials", "100",
             "--dump-instance", str(dump)],
        )
        assert result.exit_code == 0
        doc = json.loads(dump.read_text())
        assert doc["K"] == 2 and "alpha" in doc and "tx" in doc

    def test_every_sim_config_field_is_a_simulate_option(self, runner, monkeypatch):
        # a SimConfig field that no option sets is a knob without a caller
        seen = []
        monkeypatch.setattr("tinopt.cli.condition_probability", lambda cfg, workers: (
            seen.append(cfg) or condition_probability(cfg, workers)))
        args = ["simulate", "--users", "2", "--coverage", "50", "--cell-radius", "700",
                "--trials", "101", "--seed", "5", "--shadowing", "6"]
        assert runner.invoke(main, args).exit_code == 0
        want = {"K": 2, "coverage_radius": 50.0, "cell_radius": 700.0, "trials": 101,
                "master_seed": 5, "shadowing_sigma_db": 6.0}
        assert {f.name for f in dataclasses.fields(SimConfig)} == set(want)
        assert seen == [SimConfig(**want)]

    @pytest.mark.parametrize("zero", ["0", "-0.0"])
    def test_zero_shadowing_draws_as_no_fading(self, runner, zero):
        # a zero spread reaches SimConfig as it is, and draws what None draws
        args = ["simulate", "--users", "6", "--coverage", "200", "--trials", "300",
                "--seed", "3", "--shadowing", zero]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        est = condition_probability(SimConfig(K=6, coverage_radius=200.0, trials=300,
                                              master_seed=3, shadowing_sigma_db=None))
        want = {"coverage_radius_m" if k == "coverage_radius" else k: v
                for k, v in dataclasses.asdict(est).items()}
        assert result.output == json.dumps(_canon(want), indent=2) + "\n"


#: The points of the committed channels: weighted-sum optima, so some gap rows are tight.
K6_POINT = "0.3891,0.6189,0.5416,0.3229,0.4342,0.4503"
K7_POINT = "0.552,0.5251,0.3066,0.3622,0.3873,0.4633,0.3891"
POWERS = "--power 1e2 --power 1e4 --power 1e8"

#: Every committed output of a command: the file, the command run from ``tests/data``, and
#: its exit code.  A new row's file is written by the commit before the change it guards.
GOLDEN_FILES = [
    ("k6_condition_gap.csv", f"gap-check k6_condition.json --gdof {K6_POINT} {POWERS}", 0),
    ("k7_condition_gap.csv", f"gap-check k7_condition.json --gdof {K7_POINT} {POWERS}", 0),
    ("k6_condition_region.json", "region k6_condition.json", 0),
    ("k7_condition_region.json", "region k7_condition.json", 0),
    ("k6_condition_region_min.json", "region k6_condition.json --minimize", 0),
    ("k7_condition_region_min.json", "region k7_condition.json --minimize", 0),
    # neither cycle converges within 0.02 at the default powers: a verdict, exit 1
    ("k6_condition_limits.json", "gdof-limits k6_condition.json --cycle 0,1,2,3,4,5", 1),
    ("k6_condition_limits_31.json", "gdof-limits k6_condition.json --cycle 3,1", 1),
    ("k100_sweep.csv", "sweep --users 2,15,100 --coverage 50,200 --trials 100 --seed 11", 0),
    # the headline grid: 2-15 users at 50-200 m coverage, 2000 trials per point
    ("c10_sweep.csv", "sweep --users 2,5,10,15 --coverage 50,100,200 --trials 2000 --seed 0", 0),
    # three blocks of stream states, in link batches of 1024 trials (K=2) and of one (K=65)
    ("k2_k65_5m_500m_sweep.csv", "sweep --users 2,65 --coverage 5,500 --trials 2049 --seed 3", 0),
]


@pytest.mark.parametrize("fixture, command, exit_code", GOLDEN_FILES,
                         ids=[row[0] for row in GOLDEN_FILES])
def test_golden_file(runner, monkeypatch, fixture, command, exit_code):
    monkeypatch.chdir(DATA)  # gap-check prints the channel path as typed
    result = runner.invoke(main, command.split())
    assert result.exit_code == exit_code, result.output
    assert result.stdout_bytes == (DATA / fixture).read_bytes()


class TestCliBytes:
    """Stdout and exit codes of the channel subcommands, recorded before the exponent, power
    and power-allocation checks were merged into one helper each: seeded K 1-5 channels
    (under the condition, random, sparse), points inside, outside and on the boundary, and
    malformed vectors, powers, cycles, silent sets and channels, whose exit codes alone are
    recorded."""

    FIXTURE = json.loads((DATA / "cli_bytes.json").read_text())

    @pytest.mark.parametrize("doc", FIXTURE["channels"],
                             ids=lambda d: f"K{len(d['channel']['alpha'])}")
    def test_stdout_and_exit_codes(self, runner, tmp_path, doc):
        with runner.isolated_filesystem(temp_dir=tmp_path):  # gap-check prints the path
            Path("ch.json").write_text(json.dumps(doc["channel"]))
            results = [(args, exit_code, digest, runner.invoke(main, args))
                       for args, exit_code, *digest in doc["cases"]]
        for args, exit_code, digest, result in results:
            assert result.exit_code == exit_code, (args, result.output)
            if digest:
                assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest[0], \
                    (args, result.stdout)



class TestStartUp:
    def test_import_loads_no_numpy_random_and_no_scipy(self):
        # README, "CLI": the entry point imports numpy and click only, and
        # numpy loads np.random on first use, so tinopt touches it at no import
        src = str(Path(tinopt.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, tinopt.cli; "
                "print(*[m for m in sys.modules if m.startswith(('numpy.random', 'scipy'))])")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.split() == []
