"""One workload in a fresh interpreter: set-up, closed-loop timed phase, checks.

Usage (normally started by ``run.py``):

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                               [--setup-only] [--tiny]

Prints one JSON object on stdout.  ``ready`` is the ``time.monotonic()``
reading when set-up (interpreter start, ``import tinopt``, input
generation) has finished; the parent subtracts its own reading taken
just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
#: The span that encloses one operation of the closed loop.
ROOT_SPAN = "op"
#: Share of the timed phase spent in the host-speed probe, between operations,
#: at most PROBE_BURST probes at a time so that a long operation does not
#: make one moment of the run weigh as much as many.
PROBE_SHARE = 0.04
PROBE_BURST = 5
#: Mean duration of ``probe()`` during a run on the reference host (Intel Xeon, 2.1 GHz), in seconds.
PROBE_REF_S = 0.0015
_PROBE_ROWS = [[(i * 8 + j) / 64.0 for j in range(8)] for i in range(8)]


def probe() -> float:
    """Duration of a fixed mix of small Python loops and small numpy calls, in seconds.

    The shared host runs the whole process slower for stretches of tens
    of seconds; the probe slows with it, and its mean over a run gives the
    run's host speed (see ``host_factor``).
    """
    import numpy as np

    m = np.array(_PROBE_ROWS)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(250):
        row = _PROBE_ROWS[i % 8]
        acc += max(row) - min(x * 0.5 for x in row)
        acc += float((m @ m[i % 8]).max())
    return time.perf_counter() - t0


def host_factor(probes: list) -> float:
    """How much slower than the reference host the process ran: mean probe / PROBE_REF_S.

    The probes are spread over the timed phase like the operations, so
    the mean probe and the operations' total time average the host's
    speed over the same stretch of time.
    """
    return statistics.fmean(probes) / PROBE_REF_S if probes else 1.0


def planned_inputs(wl, seconds: float) -> int:
    """Inputs of one run: whole blocks, so that ``wl.ROUNDS`` passes take about ``seconds``.

    A block is ``wl.block`` operations, the unit in which the workload's
    mix of sizes repeats; ``wl.BLOCK_S`` is its duration on the host the
    baselines were taken on.  The count depends on ``seconds`` only, not on
    the speed of the program: a faster or slower program runs the same
    operations, so every order statistic (median, tail) is taken over the
    same mix, and a program that is faster on every call can never report
    a slower median or tail.
    """
    return wl.block * max(1, round(seconds / (wl.ROUNDS * wl.BLOCK_S)))


def closed_loop(wl, n_inputs: int, rounds: int, tracer=None, probes=None) -> tuple:
    """Run the first ``n_inputs`` operations ``rounds`` times over, one pass after another.

    Each operation starts when the last returned.  Input ``k`` of a run is
    ``wl.ops[k % len(wl.ops)]``.  Returns ([(op index, latency s, output or
    None, exception or None)] in the order run, elapsed s); record ``i`` is
    input ``i % n_inputs`` of the run.  An output is kept only the first
    time its input runs, so memory does not grow with the run length; the
    library is deterministic, so a repeated input gives the output already
    kept.  With a ``probes`` list, ``probe()`` runs between operations for
    up to ``PROBE_SHARE`` of the time and its durations are appended.
    """
    records = []
    n_ops = len(wl.ops)
    seen = set()
    probe_s = 0.0
    start = time.perf_counter()
    for _ in range(rounds):
        for k in range(n_inputs):
            j = k % n_ops
            close = tracer.span(ROOT_SPAN) if tracer else None
            t0 = time.perf_counter()
            try:
                out, err = wl.run(wl.ops[j]), None
            except Exception as exc:  # the loop must go on; the failure is counted
                out, err = None, exc
            t1 = time.perf_counter()
            if close:
                close(err is not None)
            first = id(wl.ops[j]) not in seen
            seen.add(id(wl.ops[j]))
            records.append((j, t1 - t0, out if first else None, err))
            burst = 0
            while probes is not None and burst < PROBE_BURST and probe_s < PROBE_SHARE * (time.perf_counter() - start):
                probes.append(probe())
                probe_s += probes[-1]
                burst += 1
    return records, time.perf_counter() - start


def per_input(records, n_inputs: int) -> list:
    """(op index, median latency s over the passes) of each input of a run."""
    lats = [[] for _ in range(n_inputs)]
    for i, (_, lat, *_) in enumerate(records):
        lats[i % n_inputs].append(lat)
    return [(records[k][0], statistics.median(xs)) for k, xs in enumerate(lats)]


def rate(wl, records) -> float:
    """Work units per second of operation time, over every pass."""
    return sum(wl.units(wl.ops[j]) for j, *_ in records) / sum(lat for _, lat, *_ in records)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any process it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def latency_stats(lat_ms: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(lat_ms)
    n = len(xs)
    if n > 10:
        tail, pct = xs[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = xs[-1], 100.0
    return {"p50": statistics.median(xs), "tail": tail, "tail_pct": pct, "n": n}


def check_records(wl, records) -> dict:
    """Independent checks of every recorded operation, after the timed phase.

    A repeated input inherits the verdict of its first, checked, output.
    """
    failed_units = attempted_units = 0
    errors, problems = {}, []
    check_failures = 0
    verdicts = {}
    for idx, (k, _, out, err) in enumerate(records):
        op = wl.ops[k]
        units = wl.units(op)
        attempted_units += units
        if err is not None:
            key = type(err).__name__
            errors[key] = errors.get(key, 0) + 1
            failed_units += units
            if len(problems) < 20:
                problems.append(f"op {idx}: {key}: {err}")
            continue
        if id(op) not in verdicts:
            verdicts[id(op)] = [] if out is None else wl.check(idx, op, wl.plain(op, out))
        found = verdicts[id(op)]
        if found:
            check_failures += 1
            failed_units += units
            if len(problems) < 20:
                problems.append(f"op {idx}: {'; '.join(found)}")
    return {"attempted": attempted_units, "failed": failed_units, "errors": errors,
            "check_failures": check_failures, "problems": problems}


def e2e_metrics(wl, records, n_inputs, elapsed, factor) -> dict:
    """Throughput in work units (Monte-Carlo trials on mc_sweep) and latency per call.

    Latency is each input's median over the passes.  Both are scaled to
    the reference host's speed by ``factor`` (see ``host_factor``); the
    unscaled figures are kept under ``measured``.
    """
    lat = latency_stats([1e3 * t for _, t in per_input(records, n_inputs)])
    measured = rate(wl, records)
    return {
        "ops_per_s": {"value": factor * measured, "measured": measured, "samples": len(records),
                      "inputs": n_inputs, "passes": len(records) // n_inputs, "elapsed_s": elapsed},
        "op_ms_p50": {"value": lat["p50"] / factor, "measured": lat["p50"], "samples": lat["n"]},
        "op_ms_tail": {"value": lat["tail"] / factor, "measured": lat["tail"], "samples": lat["n"],
                       "percentile": lat["tail_pct"]},
        "peak_rss_mb": {"value": peak_rss_mb(), "samples": 1},
    }


def layer_metrics(wl, tracer, elapsed, base_rate, traced_rate, cli_imports) -> dict:
    """Flat per-layer metrics from the traced phase."""
    summary = tracer.summary(ROOT_SPAN)
    out = {}
    for name, s in summary["functions"].items():
        for key, v in s.items():
            out[f"{name}.{key}"] = v
    counts = summary["counts"]
    get = lambda k: counts.get(k, 0)
    dm = "potential_graph.decide_membership"
    out[f"{dm}.errors"] = get(f"{dm}.errors")
    out[f"{dm}.infeasible_frac"] = get(f"{dm}.infeasible") / max(1, out.get(f"{dm}.calls", 0) - get(f"{dm}.errors"))
    out["region.polyhedral_region.inequalities"] = get("region.polyhedral_region.inequalities")
    out["region.minimized.kept_frac"] = get("region.minimized.kept") / max(1, get("region.minimized.seen"))
    out["region.linprog.not_success"] = get("region.linprog.not_success")
    out["trace.overhead_frac"] = 1.0 - traced_rate / base_rate
    out["trace.uncovered_frac"] = 1.0 - summary["covered_s"] / elapsed
    for mod in ("tinopt", "tinopt.region", "scipy.optimize", "numpy", "click"):
        vals = [imp.get(mod, 0.0) for imp, _ in cli_imports]
        out[f"cli.import_ms.{mod}"] = statistics.median(vals) if vals else 0.0
    runs = [wall - imp_total for _, (wall, imp_total) in cli_imports if wall is not None]
    out["cli.run_ms"] = statistics.median(runs) if runs else 0.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tinopt
    import workloads

    if Path(tinopt.__file__).resolve().parent != ROOT / "src" / "tinopt":
        print(f"error: imported tinopt from {tinopt.__file__}, not from this checkout", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        workdir = OUT_DIR / f"cli-inputs-{args.seed}-{time.time_ns()}"
        wl = cls(tinopt, args.seed, args.tiny, workdir)
    else:
        wl = cls(tinopt, args.seed, args.tiny)
    ready = time.monotonic()
    result = {"ready": ready}
    try:
        if args.setup_only:
            print(json.dumps(result))
            return 0
        if not args.trace:
            n = planned_inputs(wl, args.seconds)
            probes = []
            records, elapsed = closed_loop(wl, n, wl.ROUNDS, probes=probes)
            result["host_factor"] = host_factor(probes)
            result["probes"] = len(probes)
            result["metrics"] = e2e_metrics(wl, records, n, elapsed, result["host_factor"])
        else:
            result.update(traced_run(wl, args))
            records, elapsed = result.pop("records")
        result.update(check_records(wl, records))
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    print(json.dumps(result))
    return 0


def traced_run(wl, args) -> dict:
    """Half the passes untraced, then the same operations traced; per-layer metrics from the second."""
    import tracing
    import workloads

    n = planned_inputs(wl, args.seconds)
    half = max(1, wl.ROUNDS // 2)
    base, _ = closed_loop(wl, n, half)
    base_rate = rate(wl, base)
    tracer = tracing.Tracer()
    if isinstance(wl, workloads.Cli):
        wl.importtime = True
    tracer.install(extra=[(workloads, "invoke_cli", "cli.invoke")])
    try:
        records, elapsed = closed_loop(wl, n, half, tracer=tracer)
    finally:
        tracer.uninstall()
        if isinstance(wl, workloads.Cli):
            wl.importtime = False
    traced_rate = rate(wl, records)
    if isinstance(wl, workloads.Cli):
        cli_imports = []
        for k, lat, out, err in records:
            if out is not None:
                imports, total, _ = workloads.parse_importtime(out[2])
                cli_imports.append((imports, (1e3 * lat, total)))
        if not cli_imports:
            raise RuntimeError("no traced tinopt process completed, so there is no import breakdown")
    else:
        cli_imports = [(imp, (None, 0.0)) for imp in setup_imports(args)]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_path)
    return {
        "records": (records, elapsed),
        "per_layer": layer_metrics(wl, tracer, elapsed, base_rate, traced_rate, cli_imports),
        "tracing": {"untraced_rate": base_rate, "traced_rate": traced_rate, "ops": len(records),
                  "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))},
    }


def setup_imports(args, reps: int = 3) -> list:
    """Import breakdown of this workload's set-up, from ``-X importtime`` children."""
    import subprocess

    import workloads

    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else []),
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise RuntimeError(f"set-up-only start exited with {proc.returncode}: {tail[0]}")
        out.append(workloads.parse_importtime(proc.stderr)[0])
    return out


if __name__ == "__main__":
    sys.exit(main())
