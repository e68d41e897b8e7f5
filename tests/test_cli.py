import json

import numpy as np
import pytest
from click.testing import CliRunner

from tinopt import ChannelMatrix, point_in_tin_region, polyhedral_region
from tinopt.cli import main


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
        from tinopt.cli import _canon

        doc = json.loads(out1.read_text())
        assert json.dumps(_canon(doc), indent=2) + "\n" == out1.read_text()

    def test_union_flag(self, runner, ex2_path):
        result = runner.invoke(main, ["region", ex2_path, "--union"])
        doc = json.loads(result.output)
        surviving = [c["silent"] for c in doc["components"] if c["subsumed_by"] is None]
        assert surviving == [[], [2]]

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

    def test_condition_violation_exits_two(self, runner, ex2_path):
        result = runner.invoke(main, ["gdof-limits", ex2_path, "--cycle", "0,1"])
        assert result.exit_code == 2


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
        ],
    )
    def test_exits_two_with_one_line_error(self, runner, tmp_path, args):
        for name, K in (("dense.json", 3), ("five.json", 5), ("big.json", 13)):
            a = np.full((K, K), 0.1)
            np.fill_diagonal(a, 1.0)
            (tmp_path / name).write_text(json.dumps(ChannelMatrix(a).to_dict()))
        result = runner.invoke(main, [str(tmp_path / x) if x.endswith((".json", ".csv")) else x
                                      for x in args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1


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
