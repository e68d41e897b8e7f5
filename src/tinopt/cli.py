"""Command-line front end; every subcommand is a thin adapter over the library.

Exit codes: 0 success, 1 infeasible/violated result (so shell pipelines
can branch on it), 2 malformed input.  One rule, in ``_Main.invoke``,
maps what the library raises: its three named verdicts,
``capacity_gap.ConditionNotMetError``, ``PointOutsideRegionError`` and
``CertificateViolatedError``, exit 1, and any other ``ValueError`` exits
2, each with its message as one ``error:`` line.  Numeric output is
formatted to 12 significant digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import NoReturn

import click
import numpy as np

from . import __version__
from .capacity_gap import (
    CONVERGENCE_TOL,
    GAP_CSV_HEADER,
    CertificateViolatedError,
    ConditionNotMetError,
    FiniteSnrChannel,
    PointOutsideRegionError,
    gap_certificate,
    gdof_limit_checks,
)
from .channel_model import (
    ChannelMatrix,
    _exponent_vector,
    check_tin_condition,
    load_channel,
    polyhedral_tin_gdof,
    tin_gdof,
)
from .netsim import SimConfig, condition_probability, sample_network, sweep, sweep_to_csv
from .potential_graph import recover_power_allocation
from .region import (
    K_MAX_EXPORT,
    _check_vertex_users,
    general_tin_region,
    minimized,
    point_in_tin_region,
    polyhedral_region,
    polyhedron_vertices,
)


def _canon(obj):
    """``obj`` with every float round-tripped through 12 significant digits, for stable bytes."""
    if isinstance(obj, float):
        return float(format(float(obj), ".12g"))
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def _csv_line(values) -> str:
    """One CSV row; a number at 12 significant digits reads as it would after :func:`_canon`."""
    return ",".join(v if isinstance(v, str) else format(float(v), ".12g") for v in values)


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or echo it to stdout when no path is given."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"{path}: {exc.strerror}")
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
    """K comma-separated exponents (``channel_model._exponent_vector``); else exit 2."""
    return _exponent_vector(_parse_list(text, float, name), K, name)


class _Main(click.Group):
    """Click's own usage errors (bad types, unknown options, missing
    arguments) and the library's ``ValueError`` end like every other
    malformed input: one ``error:`` line and exit 2.  The library's named
    verdicts end in the same one line and exit 1."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.exceptions.NoArgsIsHelpError:
            raise
        except click.UsageError as exc:
            _fail(exc.format_message())

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(exc.format_message())
        except (ConditionNotMetError, PointOutsideRegionError, CertificateViolatedError) as exc:
            _fail(str(exc), code=1)
        except ValueError as exc:
            _fail(str(exc))


@click.group(cls=_Main)
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
@click.option("--union", "union_flag", is_flag=True,
              help="emit all silent-set polyhedra; takes no other region option")
@click.option("--vertices", type=click.Path(), default=None, help="CSV of vertices (K<=4)")
@click.option("--output", "-o", type=click.Path(), default=None)
def region_cmd(channel, silent_set, minimize, union_flag, vertices, output):
    """Emit the H-representation of the achievable region."""
    if union_flag and (silent_set.strip() or minimize or vertices):
        _fail("--union takes none of --silent-set, --minimize and --vertices")
    ch = _load(channel)
    if union_flag:
        if ch.K > K_MAX_EXPORT:  # every component's rows are exported
            _fail(f"--union exports cycle rows for at most {K_MAX_EXPORT} users, got {ch.K}")
        comps = general_tin_region(ch)
        _dump_json({"K": ch.K, "components": [c.to_dict() for c in comps]}, output)
        return
    try:
        silent = [int(s) for s in silent_set.split(",") if s.strip() != ""]
    except ValueError:
        _fail("--silent-set must be comma-separated integers")
    poly = polyhedral_region(ch, silent)
    if vertices:  # more than 4 active users: refused before any row is built or minimized
        _check_vertex_users(poly)
    if minimize:
        poly = minimized(poly)
    if vertices:
        lines = [",".join(f"d{i}" for i in range(ch.K))]
        lines += map(_csv_line, polyhedron_vertices(poly))
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
    d = _parse_vector(gdof, ch.K, "--gdof")
    channels = [FiniteSnrChannel(ch, P) for P in powers]
    lines = [GAP_CSV_HEADER]
    for fch in channels:
        report = gap_certificate(fch, d)
        lines += (_csv_line(row.values()) for row in report.csv_rows(instance_id=channel))
    _emit("\n".join(lines) + "\n", output)


@main.command("gdof-limits")
@click.argument("channel", type=click.Path(exists=True))
@click.option("--cycle", required=True, help="comma-separated user cycle")
@click.option("--powers", default="1e2,1e4,1e8", show_default=True)
@click.option("--tol", default=CONVERGENCE_TOL, show_default=True, help="finite, above 0")
@click.option("--output", "-o", type=click.Path(), default=None)
def gdof_limits_cmd(channel, cycle, powers, tol, output):
    """Convergence of normalized outer bounds; exit 1 unless converged."""
    if not (np.isfinite(tol) and tol > 0):
        _fail(f"--tol must be a finite number above 0, got {tol}")
    ch = _load(channel)
    seq = _parse_list(cycle, int, "--cycle")
    plist = _parse_list(powers, float, "--powers")
    report = gdof_limit_checks(ch, seq, plist)
    _dump_json(dataclasses.asdict(report), output)
    sys.exit(0 if report.converged(tol) else 1)


_SIM_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SimConfig)}


def _sim_options(command):
    """The options ``simulate`` and ``sweep`` share, defaults from :class:`SimConfig`."""
    for option in reversed([
        click.option("--trials", type=int, default=_SIM_DEFAULTS["trials"], show_default=True),
        click.option("--seed", type=int, default=_SIM_DEFAULTS["master_seed"],
                     show_default=True),
        click.option("--cell-radius", type=float, default=_SIM_DEFAULTS["cell_radius"],
                     show_default=True),
        click.option("--shadowing", type=float, default=_SIM_DEFAULTS["shadowing_sigma_db"],
                     show_default=True, help="lognormal sigma [dB]; 0 disables fading"),
        click.option("--workers", type=int, default=1, show_default=True,
                     help="at least 1; changes neither results nor speed"),
    ]):
        command = option(command)
    return command


def _sim_config(users, coverage, trials, seed, cell_radius, shadowing):
    return SimConfig(
        K=users,
        coverage_radius=coverage,
        cell_radius=cell_radius,
        trials=trials,
        master_seed=seed,
        shadowing_sigma_db=shadowing,
    )


def _estimate_doc(est, passes: bool) -> dict:
    """One estimate as a JSON row; ``passes`` keeps the pass count."""
    doc = {"coverage_radius_m" if k == "coverage_radius" else k: v
           for k, v in dataclasses.asdict(est).items()}
    if not passes:
        del doc["passes"]
    return doc


@main.command("simulate")
@click.option("--users", type=int, required=True)
@click.option("--coverage", type=float, required=True, help="coverage radius [m]")
@_sim_options
@click.option("--dump-instance", type=click.Path(), default=None,
              help="write trial 0 layout as JSON")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def simulate_cmd(users, coverage, trials, seed, cell_radius, shadowing, workers,
                 dump_instance, fmt, output):
    """Estimate the probability that the optimality condition holds."""
    cfg = _sim_config(users, coverage, trials, seed, cell_radius, shadowing)
    est = condition_probability(cfg, workers=workers)
    if dump_instance:
        _dump_json(sample_network(cfg, 0).to_dict(), dump_instance)
    if fmt == "csv":
        _emit(sweep_to_csv([est]), output)
    else:
        _dump_json(_estimate_doc(est, passes=True), output)


@main.command("sweep")
@click.option("--users", required=True, help="comma-separated user counts")
@click.option("--coverage", required=True, help="comma-separated radii [m]")
@_sim_options
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv",
              show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def sweep_cmd(users, coverage, trials, seed, cell_radius, shadowing, workers, fmt,
              output):
    """Condition-probability grid, emitted as CSV."""
    K_values = _parse_list(users, int, "--users")
    radii = _parse_list(coverage, float, "--coverage")
    base = _sim_config(max(K_values), max(radii), trials, seed, cell_radius, shadowing)
    rows = sweep(base, K_values, radii, workers=workers)
    if fmt == "json":
        _dump_json([_estimate_doc(r, passes=False) for r in rows], output)
    else:
        _emit(sweep_to_csv(rows), output)


if __name__ == "__main__":
    main()
