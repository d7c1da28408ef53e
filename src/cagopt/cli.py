"""Command-line front-end: single runs and suite execution."""

from __future__ import annotations

import sys

import click

from .harness import (
    DEFAULT_GTOL,
    DEFAULT_MAX_EVALS,
    SOLVERS,
    RunConfig,
    format_suite_table,
    parse_suite_config,
    run as run_one,
    run_suite,
    write_suite_csv,
)
from .problems import FAMILIES, ProblemSpec
from .results import Status


@click.group()
def main():
    """Benchmark harness for the guarded-CG, AG, NCG and linear-CG solvers."""


@main.command("run")
@click.option("--family", type=click.Choice(FAMILIES), required=True)
@click.option("--n", type=int, required=True, help="problem dimension")
@click.option("--m", type=int, default=None, help="rows for the logistic family (default 2n)")
@click.option("--lambda", "lam", type=float, default=None, help="regularisation weight")
@click.option("--delta", type=float, default=None, help="abpdn smoothing parameter")
@click.option("--sigma", type=float, default=None, help="logistic noise level")
@click.option("--tau", type=float, default=None, help="huber cutoff")
@click.option("--seed", type=int, default=None, help="logistic design seed")
@click.option("--solver", type=click.Choice(SOLVERS), required=True)
@click.option("--gtol", type=float, default=DEFAULT_GTOL, show_default=True)
@click.option("--max-evals", type=int, default=DEFAULT_MAX_EVALS, show_default=True)
@click.option("--L", "l_override", type=float, default=None, help="override the smoothness bound")
@click.option("--ell", type=float, default=None, help="override the strong-convexity bound")
@click.option("--conjugate-z", is_flag=True, help="enable the conjugate-z progress test after AG blocks")
@click.option("--trace", "trace_path", type=click.Path(), default=None, help="write per-iteration CSV here")
@click.option("--json", "json_path", type=click.Path(), default=None, help="write run summary JSON here")
def run_cmd(family, n, m, lam, delta, sigma, tau, seed, solver, gtol, max_evals,
            l_override, ell, conjugate_z, trace_path, json_path):
    """Run one solver on one problem instance."""
    config = RunConfig(
        problem=ProblemSpec(family=family, n=n, m=m, lam=lam, delta=delta,
                            sigma=sigma, tau=tau, seed=seed),
        solver=solver,
        gtol=gtol,
        max_evals=max_evals,
        L=l_override,
        ell=ell,
        conjugate_z=conjugate_z,
        trace_path=trace_path,
        json_path=json_path,
    )
    result = run_one(config)
    click.echo(
        f"{solver}: {result.status.value}  iterations={result.iterations}  "
        f"evaluations={result.evaluations}  f={result.f_final:.9e}  "
        f"gnorm={result.gnorm_final:.3e}"
    )
    if result.status is not Status.CONVERGED:
        sys.exit(1)


@main.command("suite")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True,
              help="text file, one run per line as key=value pairs")
@click.option("--out", "out_path", type=click.Path(), default=None, help="write summary CSV here")
def suite_cmd(config_path, out_path):
    """Run every configuration in a suite file and print the summary table."""
    configs = parse_suite_config(config_path)
    rows = run_suite(configs)
    click.echo(format_suite_table(rows))
    if out_path:
        write_suite_csv(out_path, rows)


if __name__ == "__main__":
    main()
