"""Command-line front-end, click glue only: ``harness`` parses and checks the
runs and suite files it is given, and its errors become usage errors here."""

from __future__ import annotations

import sys

import click

from .errors import InvalidSpec
from .harness import (
    format_run_line,
    format_suite_table,
    parse_suite_config,
    run as run_one,
    run_config_from_tokens,
    run_suite,
    write_suite_csv,
)
from .results import Status


@click.group()
def main():
    """Benchmark harness for the guarded-CG, AG, NCG and linear-CG solvers."""


@main.command("run")
@click.argument("tokens", nargs=-1)
def run_cmd(tokens):
    """Run one solver on one problem, given as a suite line's key=value pairs:

    \b
        cagopt run family=huber n=200 tau=20 solver=cag conjugate_z=true

    \b
    Problem keys: family, n, m, lambda, delta, sigma, tau, seed
    Run keys: solver, gtol, max_evals, L, ell, conjugate_z,
              trace (per-iteration CSV file), json (summary JSON file)
    """
    try:
        config = run_config_from_tokens(tokens)
        result = run_one(config)
    except ValueError as e:  # InvalidSpec, or a value that is not a number
        raise click.UsageError(str(e)) from e
    click.echo(format_run_line(config, result))
    if result.status is not Status.CONVERGED:
        sys.exit(1)


@main.command("suite")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True,
              help="text file, one run per line as key=value pairs")
@click.option("--out", "out_path", type=click.Path(), default=None, help="write summary CSV here")
def suite_cmd(config_path, out_path):
    """Run every configuration in a suite file and print the summary table.

    A line counts the build of its problem in its time_s, unless the last
    line of its family to build one built the same instance.
    """
    try:
        configs = parse_suite_config(config_path, out_path)
    except InvalidSpec as e:
        raise click.UsageError(str(e)) from e
    rows = run_suite(configs)
    click.echo(format_suite_table(rows))
    if out_path:
        write_suite_csv(out_path, rows)


if __name__ == "__main__":
    main()
