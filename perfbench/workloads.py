"""The four workloads: inputs from the seed, one operation, and its check.

Each workload object is built during set-up (its constructor generates
every input), then the worker calls ``run`` on the entries of ``ops`` in
a closed loop.  ``plain`` and ``check`` run after the timed phase: the
first turns library objects into plain data, the second applies the
independent checks from :mod:`checks`.  Library functions are looked up
on the package at call time, so the tracer's wrappers take effect.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen

#: The CLI's installed entry point, run from source.
CLI_MAIN = "from tinopt.cli import main; main()"
CLI_TIMEOUT_S = 120


def interleave(counts: dict) -> list:
    """Keys repeated ``counts[k]`` times, each key's copies spread evenly over the list."""
    slots = [((n + 0.5) / c, k) for k, c in counts.items() for n in range(c)]
    return [k for _, k in sorted(slots, key=lambda s: s[0])]


def recomputed_verdicts(api, cfg) -> list:
    """Each trial's condition verdict, from ``sample_network``'s link gains."""
    nets = (api.sample_network(cfg, t) for t in range(cfg.trials))
    return [checks.trial_verdict(n.snr_inr_linear, n.nominal_P) for n in nets]


def _cert_plain(cert) -> dict:
    return {
        "feasible": bool(cert.feasible),
        "r": cert.r.to_jsonable() if cert.feasible else None,
        "cycle": None if cert.cycle is None else tuple(int(u) for u in cert.cycle),
        "rhs": None if cert.violated_rhs is None else float(cert.violated_rhs),
    }


class McSweep:
    """The paper's Monte-Carlo experiment: ``condition_probability`` over a grid."""

    name = "mc_sweep"
    #: Passes over a run's inputs (see ``worker.closed_loop``).
    ROUNDS = 4
    #: Seconds per block on the reference host (see ``worker.planned_inputs``).
    BLOCK_S = 2.4
    TRIALS = 100

    def __init__(self, api, seed: int, tiny: bool):
        self.api = api
        # One block: every cell of the grid, K=2 once, K=5 twice, K=10
        # three times and K=15 twice, then one large-cell call, all of 100
        # trials.  Calls grow with K.  A 20 s run passes 4 times over 2
        # blocks, 50 calls: 6, 12, 18 and 12 by K of the grid and 2 at
        # K=100.  The median (the 25th and 26th) falls in the middle of the
        # K=10 calls and the tail (the 11th-largest) is the 4th-fastest
        # K=15 call, inside tiers whose cost does not depend on the
        # coverage radius.  The K=100 calls take most of the time.
        grid = {2: 1, 5: 1} if tiny else {2: 1, 5: 2, 10: 3, 15: 2}
        grid_cov = (100.0,) if tiny else (50.0, 100.0, 200.0)
        large = (10, 100.0) if tiny else (100, 100.0)
        blocks = 2 if tiny else 6
        cells = [(K, c) for c in grid_cov for K, reps in grid.items() for _ in range(reps)] + [large]
        self.block = len(cells)
        seeds = gen.monte_carlo_seeds(gen.rng_for(seed, self.name), blocks * len(cells))
        self.ops = [
            api.SimConfig(K=K, coverage_radius=c, trials=self.TRIALS, master_seed=s)
            for (K, c), s in zip(cells * blocks, seeds)
        ]

    def run(self, cfg):
        return self.api.condition_probability(cfg)

    def units(self, cfg) -> int:
        return cfg.trials

    def plain(self, cfg, est) -> dict:
        return {k: getattr(est, k) for k in ("trials", "passes", "prob", "ci_low", "ci_high")}

    def check(self, index: int, cfg, out) -> list:
        # calls of the first block, every cell and K=100: recompute every trial
        verdicts = recomputed_verdicts(self.api, cfg) if index < self.block else None
        return checks.check_condition_estimate(out, verdicts)


class Membership:
    """Point-in-region and power-recovery queries at shifted boundary points."""

    name = "membership"
    ROUNDS = 4
    BLOCK_S = 0.42

    def __init__(self, api, seed: int, tiny: bool):
        self.api = api
        # Per 560 queries; the median falls in the K=10 share and the
        # tail among the K=100 queries.  A 20 s run passes 4 times over
        # 12 blocks, with 120 K=100 queries, so the tail (the 11th-largest
        # query) sits near their 91st percentile; their cost varies with
        # the channel several-fold, and fewer of them made the tail
        # a matter of which channels the seed drew.  Every K=100 query in a run is a new input; the smaller
        # sizes cycle through ``pooled`` blocks' worth.
        mix = {4: 2, 10: 2} if tiny else {4: 150, 10: 200, 30: 200, 100: 10}
        blocks, pooled = (5, 5) if tiny else (14, 8)
        large = max(mix)
        rng = gen.rng_for(seed, self.name)
        self.alphas, by_size = gen.membership_inputs(
            rng, list(mix), [c * (blocks if K == large else pooled) for K, c in mix.items()],
            channels_per_size=32,
        )
        self.channels = [api.ChannelMatrix(a) for a in self.alphas]
        pools = {K: itertools.cycle(qs) for K, qs in zip(mix, by_size)}
        self.block = sum(mix.values())
        self.ops = [next(pools[K]) for _ in range(blocks) for K in interleave(mix)]

    def run(self, q):
        ch = self.channels[q.channel]
        if q.kind == "point":
            return self.api.point_in_tin_region(ch, q.d)
        return self.api.recover_power_allocation(ch, q.d)

    def units(self, q) -> int:
        return 1

    def plain(self, q, res) -> dict:
        if q.kind == "point":
            out = _cert_plain(res.certificate)
            out["feasible"] = bool(res.inside)
            out["silent"] = sorted(int(i) for i in res.silent)
            return out
        return _cert_plain(res)

    def check(self, index: int, q, out) -> list:
        return checks.check_membership(self.alphas[q.channel], q.d, q.kind, q.expected, out)


@dataclass(frozen=True)
class Design:
    alpha: np.ndarray
    channel: object
    condition: bool
    weights: np.ndarray


class Geometry:
    """One region design flow per channel: H-representation, optima, union, gap."""

    name = "geometry"
    POWERS = (1e2, 1e4, 1e8)
    UNION_MAX_K = 4
    ROUNDS = 2
    BLOCK_S = 3.2

    def __init__(self, api, seed: int, tiny: bool):
        from tinopt.region import EmptyPolyhedronError

        self.api = api
        self.empty_error = EmptyPolyhedronError
        # K -> (channels that meet the condition, channels that do not)
        # per block of 14 flows: half of them meet it.  Sorted by cost the
        # shares are K=5, K=6 without the condition, K=3, K=6 with it
        # (gap certificates) and K=4 (the union, the slowest).  A 20 s run
        # passes twice over 3 blocks, 42 flows: the median falls among the
        # 6 K=3 flows, and with 6 K=4 flows above the 12 K=6 flows under
        # the condition, the tail (the 11th-largest flow) sits inside those.
        mix = {3: (1, 1), 5: (1, 1)} if tiny else {3: (1, 1), 4: (1, 1), 5: (1, 3), 6: (4, 2)}
        blocks = 2 if tiny else 6
        rng = gen.rng_for(seed, self.name)
        self.block = sum(map(sum, mix.values()))
        self.ops = []
        for _ in range(blocks):
            left = {K: [True] * t + [False] * f for K, (t, f) in mix.items()}
            for K in interleave({K: t + f for K, (t, f) in mix.items()}):
                condition = left[K].pop()
                a = gen.design_channel(rng, K, condition)
                w = gen.positive_weights(rng, K)
                self.ops.append(Design(a, api.ChannelMatrix(a), condition, w))

    def run(self, job: Design):
        api = self.api
        K = job.alpha.shape[0]
        poly = api.polyhedral_region(job.channel)
        small = api.minimized(poly)
        try:
            opt = (api.max_weighted_gdof(small, np.ones(K)), api.max_weighted_gdof(small, job.weights))
        except self.empty_error:  # documented outcome: the all-active region is empty
            opt = None
        union = api.general_tin_region(job.channel) if K <= self.UNION_MAX_K else None
        gaps = []
        if job.condition and opt is not None:
            point = opt[0][1]
            gaps = [api.gap_certificate(api.FiniteSnrChannel(job.channel, P), point) for P in self.POWERS]
        return poly, small, opt, union, gaps

    def units(self, job) -> int:
        return 1

    def plain(self, job, res) -> dict:
        poly, small, opt, union, gaps = res
        ineqs = lambda p: [(tuple(int(u) for u in c.users), float(c.rhs)) for c in p.cycles]
        return {
            "boxes": [float(x) for x in poly.box_ub],
            "full": ineqs(poly),
            "kept": ineqs(small),
            "opt": None if opt is None else [(float(v), [float(x) for x in p]) for v, p in opt],
            "union": None if union is None else [
                (tuple(sorted(c.silent)), None if c.subsumed_by is None else tuple(sorted(c.subsumed_by)))
                for c in union
            ],
            "gap_rows": [(row.achieved_bits, row.outer_exact) for g in gaps for row in g.rows],
        }

    def check(self, index: int, job, out) -> list:
        a = job.alpha
        K = a.shape[0]
        problems = checks.check_full_region(a, out["full"]) + checks.check_pruning(a, out["kept"])
        if np.abs(np.asarray(out["boxes"]) - np.diag(a)).max() > checks.TOL:
            problems.append("box bounds differ from the direct exponents")
        opt = out["opt"] or [(None, None), (None, None)]
        for (value, point), w, is_sum in zip(opt, (np.ones(K), job.weights), (True, False)):
            problems += checks.check_optimum(a, w, value, point, job.condition, is_sum)
        if out["union"] is not None:
            problems += checks.check_union(K, out["union"], job.condition)
        if job.condition and out["opt"] is not None and not out["gap_rows"]:
            problems.append("no gap certificate under the condition")
        return problems + checks.check_gap_rows(out["gap_rows"])


@dataclass(frozen=True)
class Call:
    command: str
    args: tuple
    alpha: np.ndarray | None = None
    query: gen.Query | None = None
    sim: dict | None = None


class CliCrash(Exception):
    """A ``tinopt`` process ended in a Python traceback."""


def invoke_cli(argv: list, env: dict, importtime: bool):
    """One ``tinopt`` process, waited for; returns (exit code, stdout, stderr)."""
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CLI_MAIN, *argv],
        capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def parse_importtime(stderr: str) -> tuple:
    """Split ``-X importtime`` lines from the rest of stderr.

    Returns ({module: cumulative ms at its first import}, total ms of
    top-level imports, remaining stderr).
    """
    cumulative, total, rest = {}, 0.0, []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        cum_ms = int(fields[1]) / 1000.0
        raw = fields[2].rstrip()
        name = raw.strip()
        cumulative.setdefault(name, cum_ms)
        if len(raw) - len(raw.lstrip()) <= 1:  # no nesting indent: top level
            total += cum_ms
    return cumulative, total, "\n".join(rest)


class Cli:
    """Sequential ``tinopt`` processes over five subcommands."""

    name = "cli"
    COMMANDS = ("check-condition", "power-alloc", "membership", "region", "simulate")
    #: A 20 s run passes 4 times over one block, one process per command,
    #: so the median is the middle command and the tail (under eleven
    #: inputs) the slowest, each the median of its four processes.
    ROUNDS = 4
    BLOCK_S = 4.0

    def __init__(self, api, seed: int, tiny: bool, workdir: Path):
        self.api = api
        self.importtime = False  # the traced run sets it
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(api_src(api)))
        rng = gen.rng_for(seed, self.name)
        rounds = 1 if tiny else 4
        self.block = len(self.COMMANDS)
        self.ops = []
        for n in range(rounds * len(self.COMMANDS)):
            command = self.COMMANDS[n % len(self.COMMANDS)]
            if command == "simulate":
                sim = {"K": 10, "coverage": (50.0, 100.0, 200.0)[n % 3],
                       "trials": 200, "seed": int(rng.integers(0, 2**31 - 1))}
                args = ("simulate", "--users", "10", "--trials", "200",
                        "--coverage", repr(sim["coverage"]), "--seed", str(sim["seed"]))
                self.ops.append(Call(command, args, sim=sim))
                continue
            K = 3 + n % 3
            a = gen.random_channel(rng, K)
            path = workdir / f"channel{n}.json"
            path.write_text(json.dumps({"K": K, "alpha": a.tolist()}), encoding="utf-8")
            query = None
            args = (command, str(path))
            if command in ("power-alloc", "membership"):
                kind = "power" if command == "power-alloc" else "point"
                query = gen.boundary_query(rng, a, kind, n)
                args += ("--gdof", ",".join(repr(float(x)) for x in query.d))
            elif command == "region":
                args += ("--minimize",)
            self.ops.append(Call(command, args, alpha=a, query=query))

    def run(self, call: Call):
        code, out, err = invoke_cli(list(call.args), self.env, self.importtime)
        if "Traceback (most recent call last)" in err:
            raise CliCrash(err.strip().splitlines()[-1])
        return code, out, err

    def units(self, call) -> int:
        return 1

    def plain(self, call, res) -> dict:
        code, out, err = res
        return {"code": code, "stdout": out, "stderr": parse_importtime(err)[2]}

    def check(self, index: int, call: Call, out) -> list:
        code = out["code"]
        if out["stderr"].strip():
            return [f"exit {code} with stderr: {out['stderr'].strip().splitlines()[-1]}"]
        try:
            doc = json.loads(out["stdout"])
        except json.JSONDecodeError:
            return [f"exit {code}, stdout is not JSON"]
        a = call.alpha
        if call.command == "check-condition":
            want = checks.condition_holds(a)
            problems = [] if doc["per_user"] == want and doc["overall"] == all(want) else [
                f"verdicts {doc['per_user']} != {want}"]
            return problems + checks.check_exit_code(code, all(want))
        if call.command in ("power-alloc", "membership"):
            bound = doc.get("violated_bound") or {}
            res = {"feasible": doc["feasible"], "r": doc["r"],
                   "cycle": None if doc["violated_cycle"] is None else tuple(doc["violated_cycle"]),
                   "rhs": bound.get("rhs")}
            verdict = doc["feasible"]
            if call.command == "membership":
                res["silent"] = doc["silent"]
                verdict = doc["in_region"]
                if verdict != doc["feasible"]:
                    return ["in_region and feasible disagree"]
            q = call.query
            return checks.check_membership(a, q.d, q.kind, q.expected, res) + checks.check_exit_code(code, verdict)
        if call.command == "region":
            problems = checks.check_pruning(a, [(tuple(c["seq"]), c["rhs"]) for c in doc["cycles"]])
            boxes = {b["user"]: b["ub"] for b in doc["boxes"]}
            if any(abs(boxes.get(i, -1.0) - a[i, i]) > checks.TOL for i in range(a.shape[0])):
                problems.append("box bounds differ from the direct exponents")
            return problems + checks.check_exit_code(code, True)
        sim = call.sim
        cfg = self.api.SimConfig(K=sim["K"], coverage_radius=sim["coverage"],
                                 trials=sim["trials"], master_seed=sim["seed"])
        problems = checks.check_condition_estimate(doc, recomputed_verdicts(self.api, cfg))
        if (doc["K"], doc["trials"]) != (sim["K"], sim["trials"]):
            problems.append("K or trials echoed wrongly")
        return problems + checks.check_exit_code(code, True)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def api_src(api) -> Path:
    """The source directory the package under test was imported from."""
    return Path(api.__file__).resolve().parent.parent


WORKLOADS = {w.name: w for w in (McSweep, Membership, Geometry, Cli)}
