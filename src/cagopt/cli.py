"""Command-line front-end: single runs, given as a suite line's key=value
tokens, and suite files; ``harness.run_config_from_tokens`` parses both."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .errors import InvalidSpec
from .harness import (
    _check_writable,
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
    click.echo(
        f"{config.solver_name}: {result.status.value}  iterations={result.iterations}  "
        f"evaluations={result.evaluations}  f={result.f_final:.9e}  "
        f"gnorm={result.gnorm_final:.3e}"
    )
    if result.status is not Status.CONVERGED:
        sys.exit(1)


def _check_suite_outputs(config_path: str, out_path: str | None, configs) -> None:
    """Raise ``InvalidSpec`` when --out is the suite file, or a row's trace= or
    json= file is the suite file, the --out file or an output file named
    before it in the suite."""
    kept = {Path(config_path).resolve(): f"the suite file {config_path}"}
    if out_path:
        if Path(out_path).resolve() in kept:
            raise InvalidSpec(f"--out {out_path} would overwrite the suite file {config_path}")
        kept[Path(out_path).resolve()] = f"the --out file {out_path}"
    for config in configs:
        for key, path in (("trace", config.trace_path), ("json", config.json_path)):
            if not path:
                continue
            resolved = Path(path).resolve()
            if resolved in kept:
                raise InvalidSpec(f"{path} would overwrite {kept[resolved]}")
            kept[resolved] = f"the {key}= file {path}"


@main.command("suite")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True,
              help="text file, one run per line as key=value pairs")
@click.option("--out", "out_path", type=click.Path(), default=None, help="write summary CSV here")
def suite_cmd(config_path, out_path):
    """Run every configuration in a suite file and print the summary table.

    Consecutive lines on one problem instance build it once, and only the
    first of them counts the build in its time_s: group lines by instance.
    """
    try:
        if out_path:
            _check_writable(out_path)
        configs = parse_suite_config(config_path)
        _check_suite_outputs(config_path, out_path, configs)
    except InvalidSpec as e:
        raise click.UsageError(str(e)) from e
    rows = run_suite(configs)
    click.echo(format_suite_table(rows))
    if out_path:
        write_suite_csv(out_path, rows)


if __name__ == "__main__":
    main()
