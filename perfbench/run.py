"""tinopt benchmark: one workload, end-to-end metrics or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Each run starts the workload in fresh interpreters (``worker.py``), one
at a time: a few set-up-only starts and one measured start whose
operations run in a closed loop with a single caller.  The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit and
sample count, and the full record (environment, failures, per-layer
table) goes to ``.perfbench_out/``.  Exit status is 0 when the run
completed, whatever the checks found, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("mc_sweep", "membership", "geometry", "cli")
#: Seed used when none is given, and the one the recorded baselines use.
DEFAULT_SEED = 1
#: Reserved for confirming a claimed gain: never use it while tuning a change.
HELDOUT_SEED = 9001
#: Fresh-interpreter starts whose set-up time is measured, the measured run included.
SETUP_SAMPLES = 5
#: Every process this script starts must have ended by then.
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run (missing sources, a worker that died)."""


def child_env() -> dict:
    """Environment for every process the benchmark starts: one BLAS/OpenMP thread each."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
        "seed": seed,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; "unknown" outside a git clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text(encoding="utf-8").strip()
            for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def start_worker(args, deadline: float, extra=()) -> tuple:
    """Run one worker to completion; returns (its JSON result, seconds from start to ready)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the measured run")
    t_spawn = time.monotonic()
    # Own process group, so that a timeout also ends the worker's children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        kill_group(proc)
        raise BenchError(f"worker exceeded the time budget ({timeout:.0f} s)") from exc
    except BaseException:  # interrupted or terminated: take the worker's group down too
        kill_group(proc)
        raise
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"worker exited with {proc.returncode}: {tail[0]}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - t_spawn


def kill_group(proc) -> None:
    """Kill a worker and everything it started, and wait until all have ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):  # orphaned children are reaped by init; wait for them
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(args, spec: dict) -> dict:
    """Set-up samples, then the measured (or traced) run; returns the full record."""
    deadline = time.monotonic() + BUDGET_S
    setups = []
    samples = 1 if args.trace else 2 if args.tiny else SETUP_SAMPLES  # tiny: quick own tests
    # Set-up-only starts before and after the measured one, so that the
    # samples span the run rather than one stretch of the host's speed.
    before = (samples - 1) // 2
    for _ in range(before):
        setups.append(start_worker(args, deadline, ["--setup-only"])[1])
    result, setup = start_worker(args, deadline)
    setups.append(setup)
    for _ in range(samples - 1 - before):
        setups.append(start_worker(args, deadline, ["--setup-only"])[1])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(args.seed), **result}
    if args.trace:
        wanted = spec["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in result["per_layer"]]
        if missing:
            raise BenchError(f"traced run did not produce {missing}")
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]} for m in wanted}
    else:
        measured = dict(result["metrics"])
        setup = statistics.median(setups)
        # scaled to the reference host's speed like the timed phase (worker.host_factor)
        measured["setup_s"] = {"value": setup / result["host_factor"], "measured": setup,
                               "samples": len(setups), "all": setups}
        metrics = {m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        record["metrics"] = measured
    record["summary"] = {
        "correct": result["check_failures"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return record


def report(record: dict, spec: dict) -> None:
    """Human-readable lines: every metric by name, unit and sample count."""
    env = record["env"]
    print(f"# workload={record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print(f"# env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} click={env['click']} commit={env['commit']} threads=1 per process")
    s = record["summary"]
    if record["trace"]:
        for name, m in s["metrics"].items():
            print(f"{name:52s} {m['value']:>14.6g} {m['unit']}")
        t = record["tracing"]
        print(f"# traced {t['ops']} ops, {t['spans']} spans -> {t['spans_file']}; "
              f"untraced {t['untraced_rate']:.6g}/s, traced {t['traced_rate']:.6g}/s")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name in units:
            m = record["metrics"][name]
            label = "trials_per_s" if name == "ops_per_s" and record["workload"] == "mc_sweep" else name
            note = f"n={m['samples']}"
            if "percentile" in m:
                note += f", p{m['percentile']:.2f} " + (
                    "(ten samples beyond it)" if m["percentile"] < 100 else "(the largest: under eleven samples)")
            if name == "ops_per_s":
                note += f", {m['passes']} passes over {m['inputs']} inputs in {m['elapsed_s']:.3f} s"
            if "measured" in m:
                note += f"; measured {m['measured']:.6g}"
            print(f"{label:14s} {m['value']:>14.6g} {units[name]:6s} {note}")
        print(f"# times scaled by host factor {record['host_factor']:.4f} from {record['probes']} probes")
    frac = s["failed"] / s["attempted"]
    print(f"{'failed_frac':14s} {frac:>14.6g} {'fraction':6s} n={s['attempted']}, failed={s['failed']} "
          f"(exceptions {record['errors'] or 'none'}, check failures {record['check_failures']})")
    for line in record["problems"][:5]:
        print(f"#   {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tinopt benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"held out for confirming gains: {HELDOUT_SEED}")
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "tinopt" / "__init__.py").is_file():
        print(f"error: no tinopt sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        args.workload = name
        try:
            record = run_one(args, spec)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        report(record, spec)
        summaries[name] = record["summary"]
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
