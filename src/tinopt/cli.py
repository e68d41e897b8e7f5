"""Command-line front end; every subcommand is a thin adapter over the library.

Exit codes: 0 success, 1 infeasible/violated result (so shell pipelines
can branch on it), 2 malformed input.  Numeric output is formatted to 12
significant digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import sys
from typing import NoReturn

import click
import numpy as np

from . import __version__
from .capacity_gap import FiniteSnrChannel, gap_certificate, gdof_limit_checks
from .channel_model import (
    ChannelMatrix,
    check_tin_condition,
    load_channel,
)
from .netsim import (
    SWEEP_CSV_HEADER,
    SimConfig,
    condition_probability,
    sample_network,
    sweep,
    sweep_to_csv,
)
from .potential_graph import recover_power_allocation
from .region import (
    K_MAX_UNION,
    general_tin_region,
    minimized,
    point_in_tin_region,
    polyhedral_region,
    polyhedron_vertices,
)
from .channel_model import polyhedral_tin_gdof, tin_gdof


def _fmt(x) -> float:
    """Round-trip floats through 12 significant digits for stable bytes."""
    return float(format(float(x), ".12g"))


def _canon(obj):
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or echo it to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _dump_json(obj, path: str | None) -> None:
    _emit(json.dumps(_canon(obj), indent=2) + "\n", path)


def _fail(message: str, code: int = 2) -> NoReturn:
    """One-line ``error:`` on stderr, then exit (2 = malformed input)."""
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str) -> ChannelMatrix:
    try:
        return load_channel(path)
    except json.JSONDecodeError as exc:
        _fail(f"{path}:{exc.lineno}: {exc.msg}")
    except (OSError, ValueError) as exc:
        _fail(f"{path}: {exc}")


def _parse_list(text: str, conv, name: str) -> list:
    try:
        return [conv(x) for x in text.split(",")]
    except ValueError:
        kind = "integers" if conv is int else "numbers"
        _fail(f"{name} must be comma-separated {kind}")


def _parse_vector(text: str, K: int, name: str) -> np.ndarray:
    """K finite nonnegative numbers, or a one-line error and exit 2."""
    vals = _parse_list(text, float, name)
    if len(vals) != K:
        _fail(f"{name} needs {K} entries, got {len(vals)}")
    v = np.array(vals)
    if not np.all(np.isfinite(v)):
        _fail(f"{name} entries must be finite")
    if np.any(v < 0):
        _fail(f"{name} entries must be nonnegative")
    return v


@click.group()
@click.version_option(__version__)
def main():
    """Decide when treating interference as noise is GDoF-optimal."""


@main.command("check-condition")
@click.argument("channel", type=click.Path(exists=True))
@click.option("--output", "-o", type=click.Path(), default=None)
def check_condition_cmd(channel, output):
    """Per-user optimality verdicts; exit 1 unless every user passes."""
    ch = _load(channel)
    report = check_tin_condition(ch)
    _dump_json(report.to_dict(), output)
    sys.exit(0 if report.overall else 1)


@main.command("region")
@click.argument("channel", type=click.Path(exists=True))
@click.option("--silent-set", default="", help="comma-separated 0-based users")
@click.option("--minimize", is_flag=True, help="prune implied inequalities")
@click.option("--union", "union_flag", is_flag=True, help="emit all silent-set polyhedra")
@click.option("--vertices", type=click.Path(), default=None, help="CSV of vertices (K<=4)")
@click.option("--output", "-o", type=click.Path(), default=None)
def region_cmd(channel, silent_set, minimize, union_flag, vertices, output):
    """Emit the H-representation of the achievable region."""
    ch = _load(channel)
    if union_flag:
        try:
            comps = general_tin_region(ch)
        except ValueError as exc:
            _fail(str(exc))
        _dump_json({"K": ch.K, "components": [c.to_dict() for c in comps]}, output)
        sys.exit(0)
    try:
        silent = [int(s) for s in silent_set.split(",") if s.strip() != ""]
    except ValueError:
        _fail("--silent-set must be comma-separated integers")
    try:
        poly = polyhedral_region(ch, silent)
    except ValueError as exc:
        _fail(str(exc))
    if minimize:
        poly = minimized(poly)
    if vertices:
        try:
            verts = polyhedron_vertices(poly)
        except ValueError as exc:
            _fail(str(exc))
        lines = [",".join(f"d{i}" for i in range(ch.K))]
        for v in verts:
            lines.append(",".join(format(_fmt(x), ".12g") for x in v))
        _emit("\n".join(lines) + "\n", vertices)
    _dump_json(poly.to_dict(), output)


@main.command("membership")
@click.argument("channel", type=click.Path(exists=True))
@click.option("--gdof", required=True, help="comma-separated target tuple")
@click.option("--output", "-o", type=click.Path(), default=None)
def membership_cmd(channel, gdof, output):
    """Union membership with certificate; exit 1 when outside."""
    ch = _load(channel)
    d = _parse_vector(gdof, ch.K, "--gdof")
    verdict = point_in_tin_region(ch, d)
    _dump_json(verdict.to_dict(), output)
    sys.exit(0 if verdict.inside else 1)


@main.command("power-alloc")
@click.argument("channel", type=click.Path(exists=True))
@click.option("--gdof", required=True, help="comma-separated target tuple")
@click.option("--output", "-o", type=click.Path(), default=None)
def power_alloc_cmd(channel, gdof, output):
    """Recover power exponents for an all-active target; exit 1 if infeasible."""
    ch = _load(channel)
    d = _parse_vector(gdof, ch.K, "--gdof")
    cert = recover_power_allocation(ch, d)
    out = cert.to_dict()
    if cert.feasible:
        out["achieved_gdof"] = [float(x) for x in tin_gdof(ch, cert.r)]
        out["relaxed_gdof"] = [float(x) for x in polyhedral_tin_gdof(ch, cert.r)]
    _dump_json(out, output)
    sys.exit(0 if cert.feasible else 1)


@main.command("gap-check")
@click.argument("channel", type=click.Path(exists=True))
@click.option("--gdof", required=True, help="comma-separated region point")
@click.option("--power", "powers", multiple=True, type=float, required=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def gap_check_cmd(channel, gdof, powers, output):
    """Constant-gap report as CSV, one block per nominal power."""
    ch = _load(channel)
    if ch.K > K_MAX_UNION:
        _fail(f"gap-check supports at most {K_MAX_UNION} users, got {ch.K}")
    d = _parse_vector(gdof, ch.K, "--gdof")
    try:
        channels = [FiniteSnrChannel(ch, P) for P in powers]
    except ValueError as exc:
        _fail(str(exc))
    lines = [
        "instance_id,constraint_type,users,P,analytic_sigma,"
        "empirical_sigma,bound_bits,achieved_bits"
    ]
    for fch in channels:
        try:
            report = gap_certificate(fch, d)
        except (ValueError, ArithmeticError) as exc:
            _fail(str(exc), code=1)
        for row in report.csv_rows(instance_id=channel):
            lines.append(",".join(
                v if isinstance(v, str) else format(_fmt(v), ".12g") for v in row.values()
            ))
    _emit("\n".join(lines) + "\n", output)


@main.command("gdof-limits")
@click.argument("channel", type=click.Path(exists=True))
@click.option("--cycle", required=True, help="comma-separated user cycle")
@click.option("--powers", default="1e2,1e4,1e8", show_default=True)
@click.option("--tol", default=0.02, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def gdof_limits_cmd(channel, cycle, powers, tol, output):
    """Convergence of normalized outer bounds; exit 1 unless converged."""
    ch = _load(channel)
    seq = _parse_list(cycle, int, "--cycle")
    plist = _parse_list(powers, float, "--powers")
    try:
        report = gdof_limit_checks(ch, seq, plist)
    except ValueError as exc:
        _fail(str(exc))
    _dump_json(
        {
            "cycle": list(report.cycle),
            "powers": list(report.powers),
            "kappa_sum_limit": report.kappa_sum_limit,
            "kappa_sum_errors": list(report.kappa_sum_errors),
            "rho_limits": list(report.rho_limits),
            "rho_errors": [list(e) for e in report.rho_errors],
            "monotone": report.monotone,
            "final_error": report.final_error,
        },
        output,
    )
    sys.exit(0 if report.converged(tol) else 1)


def _sim_config(users, coverage, trials, seed, cell_radius, shadowing):
    return SimConfig(
        K=users,
        coverage_radius=coverage,
        cell_radius=cell_radius,
        trials=trials,
        master_seed=seed,
        shadowing_sigma_db=shadowing if shadowing > 0 else None,
    )


SHADOWING_DEFAULT = 8.0


@main.command("simulate")
@click.option("--users", type=int, required=True)
@click.option("--coverage", type=float, required=True, help="coverage radius [m]")
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cell-radius", type=float, default=1000.0, show_default=True)
@click.option("--shadowing", type=float, default=SHADOWING_DEFAULT, show_default=True,
              help="lognormal sigma [dB]; 0 disables fading")
@click.option("--workers", type=int, default=1, show_default=True,
              help="at least 1; changes neither results nor speed")
@click.option("--dump-instance", type=click.Path(), default=None,
              help="write trial 0 layout as JSON")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def simulate_cmd(users, coverage, trials, seed, cell_radius, shadowing, workers,
                 dump_instance, fmt, output):
    """Estimate the probability that the optimality condition holds."""
    try:
        cfg = _sim_config(users, coverage, trials, seed, cell_radius, shadowing)
        est = condition_probability(cfg, workers=workers)
    except ValueError as exc:
        _fail(str(exc))
    if dump_instance:
        _dump_json(sample_network(cfg, 0).to_dict(), dump_instance)
    if fmt == "csv":
        _emit(sweep_to_csv([est]), output)
        return
    _dump_json(
        {
            "K": est.K,
            "coverage_radius_m": est.coverage_radius,
            "trials": est.trials,
            "passes": est.passes,
            "prob": est.prob,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
        },
        output,
    )


@main.command("sweep")
@click.option("--users", required=True, help="comma-separated user counts")
@click.option("--coverage", required=True, help="comma-separated radii [m]")
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cell-radius", type=float, default=1000.0, show_default=True)
@click.option("--shadowing", type=float, default=SHADOWING_DEFAULT, show_default=True,
              help="lognormal sigma [dB]; 0 disables fading")
@click.option("--workers", type=int, default=1, show_default=True,
              help="at least 1; changes neither results nor speed")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv",
              show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def sweep_cmd(users, coverage, trials, seed, cell_radius, shadowing, workers, fmt,
              output):
    """Condition-probability grid, emitted as CSV."""
    try:
        K_values = [int(x) for x in users.split(",")]
        radii = [float(x) for x in coverage.split(",")]
        base = _sim_config(max(K_values), max(radii), trials, seed, cell_radius,
                           shadowing)
        rows = sweep(base, K_values, radii, workers=workers)
    except ValueError as exc:
        _fail(str(exc))
    if fmt == "json":
        _dump_json(
            [
                {
                    "K": r.K,
                    "coverage_radius_m": r.coverage_radius,
                    "trials": r.trials,
                    "prob": r.prob,
                    "ci_low": r.ci_low,
                    "ci_high": r.ci_high,
                }
                for r in rows
            ],
            output,
        )
        return
    text = sweep_to_csv(rows)
    assert text.startswith(SWEEP_CSV_HEADER)
    _emit(text, output)


if __name__ == "__main__":
    main()
