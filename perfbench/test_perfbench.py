"""The benchmark's own tests: a tiny run emits every metric, and every check bites.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tinopt  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Two users at half cross strength: the region is d_i <= 1, d_0 + d_1 <= 1.
A2 = np.array([[1.0, 0.5], [0.5, 1.0]])


def tiny_run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_named_metric(trace, key):
    text, by_workload = tiny_run(trace)
    assert set(by_workload) == {w["name"] for w in SPEC["workloads"]}
    for name, summary in by_workload.items():
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"], (name, text)
        assert summary["attempted"] >= 1
        assert set(summary["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert summary["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        for m in SPEC["end_to_end"]:
            assert all(s["metrics"][m["name"]]["value"] > 0 for s in by_workload.values()), m
        assert "trials_per_s" in text and "failed_frac" in text


def test_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "membership", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_length_does_not_depend_on_speed():
    import worker

    class Fake:
        block, BLOCK_S, ROUNDS = 3, 0.25, 2
        ops = list(range(4))

        def __init__(self, pause):
            self.run = lambda op: time.sleep(pause)

    n = worker.planned_inputs(Fake(0.0), 2.2)
    assert n == 12
    for pause in (0.0, 0.002):
        records, _ = worker.closed_loop(Fake(pause), n, Fake.ROUNDS)
        assert [k for k, *_ in records] == [0, 1, 2, 3] * 6
    assert worker.planned_inputs(Fake(0.0), 0.1) == 3  # at least one block


def test_latency_is_the_median_pass_and_times_scale_with_the_host():
    import worker

    # three passes over two inputs; input 1 ran slow on the first pass
    records = [(0, 1.0, None, None), (1, 9.0, None, None), (0, 2.0, None, None),
               (1, 2.0, None, None), (0, 3.0, None, None), (1, 3.0, None, None)]
    assert worker.per_input(records, 2) == [(0, 2.0), (1, 3.0)]
    assert worker.host_factor([worker.PROBE_REF_S * 2] * 3) == pytest.approx(2.0)

    class Fake:
        ops = [0, 1]

        def units(self, op):
            return 1

    slow = worker.e2e_metrics(Fake(), records, 2, 20.0, 2.0)
    assert slow["op_ms_p50"]["value"] == pytest.approx(slow["op_ms_p50"]["measured"] / 2)
    assert slow["ops_per_s"]["value"] == pytest.approx(2 * 6 / 20.0)


def test_own_modules_leave_scipy_optimize_to_the_library():
    # set-up time must not pay for an import the package under test might avoid
    code = "import sys; import checks, gen; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


def test_same_seed_same_inputs():
    one = workloads.Membership(tinopt, 5, tiny=True)
    two = workloads.Membership(tinopt, 5, tiny=True)
    assert all(np.array_equal(a.d, b.d) and a.expected == b.expected for a, b in zip(one.ops, two.ops))


# ------------------------------------------------------------ membership


def _membership(kind, d):
    ch = tinopt.ChannelMatrix(A2)
    if kind == "point":
        wl = workloads.Membership.__new__(workloads.Membership)
        return wl.plain(gen.Query(kind, 0, d, None), tinopt.point_in_tin_region(ch, d))
    return workloads._cert_plain(tinopt.recover_power_allocation(ch, d))


@pytest.mark.parametrize("kind", ["point", "power"])
def test_membership_check_accepts_true_outputs(kind):
    for d, verdict in (((0.5, 0.5), True), ((0.5, 0.5 + 1e-3), False), ((0.0, 0.7), True)):
        out = _membership(kind, np.array(d))
        assert out["feasible"] is verdict
        assert checks.check_membership(A2, np.array(d), kind, verdict, out) == []


@pytest.mark.parametrize("kind", ["point", "power"])
def test_membership_check_rejects_flipped_verdict(kind):
    d = np.array([0.5, 0.5 + 1e-3])
    out = _membership(kind, d)
    flipped = dict(out, feasible=True, r=[0.0, 0.0])
    assert checks.check_membership(A2, d, kind, None, flipped)
    assert checks.check_membership(A2, d, kind, True, out)  # contradicts the construction


def test_membership_check_rejects_perturbed_r():
    d = np.array([0.4, 0.5])
    out = _membership("power", d)
    r = list(out["r"])
    r[1] -= 0.2
    assert checks.check_membership(A2, d, "power", True, dict(out, r=r))
    silent = dict(out, r=[None, r[1]])  # SILENT off the zero set
    assert checks.check_membership(A2, d, "power", True, silent)


def test_membership_check_rejects_wrong_cycle_bound():
    d = np.array([0.5, 0.5 + 1e-3])
    out = _membership("power", d)
    assert checks.check_membership(A2, d, "power", False, dict(out, rhs=out["rhs"] + 0.1))
    assert checks.check_membership(A2, np.array([0.3, 0.3]), "power", None, dict(out, feasible=False))


def test_boundary_queries_know_their_verdict():
    rng = gen.rng_for(3, "test")
    a = gen.random_channel(rng, 6)
    seen = set()
    for _ in range(200):
        q = gen.boundary_query(rng, a, "point", 0)
        if q.expected is None:
            continue
        seen.add(q.expected)
        got = tinopt.point_in_tin_region(tinopt.ChannelMatrix(a), q.d).inside
        assert got == q.expected
    assert seen == {True, False}


# -------------------------------------------------------------- mc_sweep


def test_condition_estimate_check():
    cfg = tinopt.SimConfig(K=4, coverage_radius=100.0, trials=100, master_seed=3)
    est = tinopt.condition_probability(cfg)
    out = {k: getattr(est, k) for k in ("trials", "passes", "prob", "ci_low", "ci_high")}
    verdicts = workloads.recomputed_verdicts(tinopt, cfg)
    assert checks.check_condition_estimate(out, verdicts) == []
    flipped = list(verdicts)
    flipped[0] = not flipped[0]
    assert checks.check_condition_estimate(out, flipped)
    assert checks.check_condition_estimate(dict(out, prob=out["prob"] + 0.01), verdicts)
    assert checks.check_condition_estimate(dict(out, ci_high=out["ci_high"] + 1e-6), verdicts)


# -------------------------------------------------------------- geometry


def _geometry_out(condition: bool):
    rng = gen.rng_for(7, "test")
    wl = workloads.Geometry.__new__(workloads.Geometry)
    wl.api = tinopt
    from tinopt.region import EmptyPolyhedronError

    wl.empty_error = EmptyPolyhedronError
    a = gen.design_channel(rng, 4, condition)
    job = workloads.Design(a, tinopt.ChannelMatrix(a), condition, gen.positive_weights(rng, 4))
    return wl, job, wl.plain(job, wl.run(job))


@pytest.mark.parametrize("condition", [True, False])
def test_geometry_check_accepts_true_outputs(condition):
    wl, job, out = _geometry_out(condition)
    assert wl.check(0, job, out) == []


def test_geometry_check_rejects_wrong_lp_value():
    wl, job, out = _geometry_out(True)
    (v1, x1), (v2, x2) = out["opt"]
    assert wl.check(0, job, dict(out, opt=[(v1 + 1e-4, x1), (v2, x2)]))
    assert wl.check(0, job, dict(out, opt=[(v1, x1), (v2 - 1e-4, x2)]))
    moved = list(x2)
    moved[0] += 1e-3
    assert wl.check(0, job, dict(out, opt=[(v1, x1), (v2, moved)]))
    assert wl.check(0, job, dict(out, opt=None))  # claims an empty region


def test_geometry_check_rejects_bad_region_union_and_gap():
    wl, job, out = _geometry_out(True)
    assert wl.check(0, job, dict(out, full=out["full"][1:]))
    assert wl.check(0, job, dict(out, kept=[]))
    union = [(s, None) for s, _ in out["union"]]
    assert wl.check(0, job, dict(out, union=union))
    (x, b), *rest = out["gap_rows"]
    assert wl.check(0, job, dict(out, gap_rows=[(b + 1.0, b), *rest]))


def test_assignment_oracle_matches_reference_lp():
    rng = gen.rng_for(11, "test")
    for K in (3, 4, 5, 6):
        a = gen.design_channel(rng, K, True)
        assert abs(checks.sum_gdof_by_assignment(a) - checks.compact_lp(a, np.ones(K))) < 1e-7


# ------------------------------------------------------------------- cli


def test_cli_check_rejects_wrong_exit_code(tmp_path):
    wl = workloads.Cli(tinopt, 2, True, tmp_path / "inputs")
    try:
        for k, call in enumerate(wl.ops):
            out = wl.plain(call, wl.run(call))
            assert wl.check(k, call, out) == [], call.command
            wrong = dict(out, code={0: 1, 1: 0}[out["code"]])
            assert wl.check(k, call, wrong), call.command
        assert wl.check(0, wl.ops[0], dict(out, code=2, stderr="error: bad input"))
    finally:
        wl.cleanup()


def test_cli_traceback_counts_as_an_exception(tmp_path):
    wl = workloads.Cli(tinopt, 2, True, tmp_path / "inputs")
    try:
        path = next(c.args[1] for c in wl.ops if c.command == "region")
        # A malformed silent set ends in a traceback at this commit; either
        # way the call must not pass as a normal result.
        try:
            out = wl.plain(None, wl.run(workloads.Call("region", ("region", path, "--silent-set", "x"))))
        except workloads.CliCrash:
            return
        assert out["code"] == 2 and out["stderr"]
    finally:
        wl.cleanup()


def test_parse_importtime_separates_stderr():
    err = ("import time: self [us] | cumulative | imported package\n"
           "import time:       100 |        300 |   numpy.core\n"
           "import time:       200 |        500 | numpy\n"
           "Traceback (most recent call last):\n")
    imports, total, rest = workloads.parse_importtime(err)
    assert imports == {"numpy.core": 0.3, "numpy": 0.5}
    assert total == 0.5
    assert rest.startswith("Traceback")
