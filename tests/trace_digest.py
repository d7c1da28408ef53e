"""Bit-identity sweep: one line per run, problem instance and output format.

    PYTHONPATH=src python tests/trace_digest.py > after.txt
    PYTHONPATH=src python tests/trace_digest.py --against ../other/src

Each solver run prints its status, counts and one SHA-256 over the trace
rows, the status, f_final, gnorm_final, the counts and the bytes of
x_final.  Each benchmark cell (``perfbench/workloads.py``) also prints the
SHA-256 of the trace CSV and of the ``--json`` summary that ``run`` writes
for it.  The runs cover every benchmark cell and
cag, cag+z, ncg and ag at budgets 50 and 5,000, at each problem's default
L and at L/10.  The golden fixture's synthetic runs end diverged (explosive
cag and ag, concave ncg) and in a line-search failure (uphill ncg), and
lcg runs from x0 = 0 and x0 = ones, at budget 5 and to convergence, so
that every exit status is covered.  Each ``ProblemSpec`` of a grid over every family, with each
optional parameter unset and set, prints its label, default L and ell and
a SHA-256 of its evaluation at a fixed point; each rejected spec prints
its message.  Hand-built suite rows print the SHA-256 of the suite table
and CSV, and the CLI's help texts are hashed too.  ``cagopt run`` prints
its exit code and its line for a converged cag and cag+z run, a budget
exit, an lcg run and an ncg run on huber.  Suite lines that set
every problem and run key, and malformed ones, print the parsed
``RunConfig`` or the error message.  Outputs that would overwrite another
file print the message of ``cagopt suite`` and ``cagopt run``, or the
statuses of ``run_suite``.  A suite of abpdn rows whose start f overflows,
then a quad row, prints its statuses and evaluation counts, ``cagopt run``
on that abpdn instance its exit code and output, one cag run on it the
SHA-256 of its ``json=`` summary and whether that parses as strict JSON,
and lcg from x0 = 1e200 * ones, where f(x0) overflows, its run line.  A
suite whose rows alternate quad and huber, then a quad lcg row, prints how
often each family's constructor ran and how many systems
``quad_diag_system`` built.

To show that a change leaves behaviour bit-identical, run the script
against both source trees and diff the output: ``--against OTHER_SRC``
runs this script once with ``PYTHONPATH`` set to this tree's ``src`` and
once with it set to OTHER_SRC, as two concurrent subprocesses, prints the
unified diff of their outputs and exits 1 if they differ (0 if not, 2 if
either sweep fails).  Nothing is stored: round-off differs between
machines, so the digests are only comparable on one machine.  One sweep
takes about 15 s.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import cagopt.harness
import cagopt.problems
from cagopt import (
    InvalidSpec, ProblemSpec, RunConfig, Status, lcg_minimize, quad_diag_system, run, run_suite,
)
from cagopt.cli import main as cli_main
from cagopt.harness import (
    SuiteRow, format_suite_table, parse_suite_config, run_config_from_tokens, write_suite_csv,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, cells_for  # noqa: E402
from test_golden_traces import RUNS as GOLDEN_RUNS  # noqa: E402

SOLVERS = (("cag", False), ("cag", True), ("ncg", False), ("ag", False))
BUDGETS = (50, 5000)
DIRECT = (
    ProblemSpec("quad", 1000),
    ProblemSpec("huber", 1000),
    ProblemSpec("logistic", 200),
    ProblemSpec("abpdn", 400),
)
# Spelled out rather than read from cagopt.problems, so that the script runs
# unchanged on both trees: a value other than the default for each optional
# parameter, by field, and the fields that each family takes.
SET_VALUES = {"m": 25, "lam": 0.01, "delta": 0.001, "sigma": 0.8, "tau": 2.5, "seed": 3}
TAKES = {"quad": (), "abpdn": ("lam", "delta"), "logistic": ("m", "lam", "sigma", "seed"),
         "huber": ("tau",)}
REJECTED = (
    {"family": "cubic", "n": 10},
    {"family": "quad", "n": 0},
    {"family": "quad", "n": 10, "tau": 1.0},
    {"family": "huber", "n": 10, "lam": 1.0, "seed": 2},
    {"family": "abpdn", "n": 15},
    {"family": "abpdn", "n": 1},
    {"family": "abpdn", "n": 16, "lam": -1.0},
    {"family": "abpdn", "n": 16, "delta": math.inf},
    {"family": "abpdn", "n": 16, "sigma": 0.5},
    {"family": "logistic", "n": 10, "m": 0},
    {"family": "logistic", "n": 10, "sigma": 0.0},
    {"family": "logistic", "n": 10, "seed": -1},
    {"family": "logistic", "n": 10, "lam": math.nan},
    {"family": "logistic", "n": 10, "tau": 1.0},
    {"family": "huber", "n": 10, "tau": 0.0},
    {"family": "huber", "n": 10, "tau": math.inf},
    {"family": "huber", "n": 10, "tau": 1e308},
    {"family": "huber", "n": 0},
    {"family": "quad", "n": 3.5},
    {"family": "huber", "n": 3.5},
    {"family": "abpdn", "n": 16.0},
    {"family": "logistic", "n": 4, "seed": 1.5},
    {"family": "logistic", "n": 4, "m": 8.0},
    {"family": "huber", "n": 4, "tau": 10**200},
    {"family": "abpdn", "n": 4, "lam": 10**400},
    {"family": "logistic", "n": 4, "sigma": 10**400},
    {"family": "quad", "n": True},
)

# Suite lines that set every problem key and every run key, and malformed
# lines, each parsed as a suite file of its own.
_Q = "family=quad n=10 solver=cag"
SUITE_LINES = (
    _Q,
    _Q + " gtol=1e-6 max_evals=500 L=200 ell=0.5 conjugate_z=true trace=t.csv json=s.json",
    "family=abpdn n=16 lambda=0.01 delta=0.001 solver=ncg L=50",
    "family=logistic n=10 m=25 lambda=0.01 sigma=0.8 seed=3 solver=ag ell=0",
    "family=huber n=10 tau=2.5 solver=cag conjugate_z=YES",
    "family=huber n=10 solver=ag conjugate_z=no",
    "family=quad n=10 solver=lcg gtol=1e-10 max_evals=40",
    _Q + " L=1e-100 ell=0",
    _Q + " L=1e100",
    _Q + " L=500 L=100",
    "family=quad n=10 n=20 solver=cag",
    _Q + " trace=",
    _Q + " json=",
    _Q + " conjugate_z=ture",
    "family=quad n=10 solver=ag conjugate_z=off",
    _Q + " L=1e155",
    _Q + " L=1e300",
    _Q + " L=1e-160 ell=0",
    _Q + " L=1e-200 ell=0",
    _Q + " L=1e101",
    "family=quad n=10 cag",
    _Q + " =5",
    _Q + " momentum=0.9",
    "family=quad solver=cag",
    "family=quad n=10",
    _Q + " L=abc",
    "family=quad n=abc solver=cag",
    _Q + " max_evals=1e3",
    _Q + " L=0",
    _Q + " ell=-1",
    _Q + " L=1 ell=2",
    "family=quad n=10 solver=sgd",
    "family=huber n=10 solver=lcg",
    "family=quad n=10 solver=ncg conjugate_z=true",
    "family=quad n=10 solver=lcg L=5",
    "family=quad n=10 solver=ncg ell=5",
    "family=quad n=10 tau=5 solver=cag",
)

# Two-line suite files whose outputs would overwrite another file: the
# outputs of each line and the --out path, relative to a fresh directory.
OVERWRITES = (
    ("", "", "suite.txt"),
    ("", "trace=suite.txt", None),
    ("", "json=./suite.txt", "summary.csv"),
    ("", "trace=out.csv", "out.csv"),
    ("", "trace=t.csv json=sub/../out.csv", "out.csv"),
    ("trace=t.csv", "json=t.csv", None),
    ("trace=t.csv", "trace=t.csv", None),
    ("json=s.json", "json=sub/../s.json", None),
    ("trace=t.csv json=./t.csv", "", None),
)


def run_digest(result) -> str:
    h = hashlib.sha256()
    t = result.trace
    rows = zip(t.evals, t.f, t.gnorm, t.phi_star, t.kinds())
    for i, (evals, f, gnorm, phi_star, kind) in enumerate(rows):
        h.update(struct.pack("<qqddd", i, evals, f, gnorm, phi_star))
        h.update(kind.value.encode())
    h.update(result.status.value.encode())
    h.update(struct.pack("<ddqq", result.f_final, result.gnorm_final,
                         result.iterations, result.evaluations))
    h.update(np.ascontiguousarray(result.x_final, dtype=float).tobytes())
    return h.hexdigest()


def print_run(name: str, config: RunConfig) -> None:
    print_result(name, run(config))


def print_result(name: str, result) -> None:
    print(f"run {name}: {result.status.value} {result.iterations} {result.evaluations} "
          f"{run_digest(result)}")


def bench_cells() -> None:
    # seed 1 changes only the logistic cells; dict.fromkeys drops the repeats
    with tempfile.TemporaryDirectory() as tmp:
        trace, summary = Path(tmp) / "trace.csv", Path(tmp) / "summary.json"
        for workload in WORKLOADS:
            cells = dict.fromkeys(c for seed in (0, 1) for c in cells_for(workload, seed))
            for cell in cells:
                config = RunConfig(cell.spec(), cell.solver, cell.gtol,
                                   conjugate_z=cell.conjugate_z, trace_path=str(trace),
                                   json_path=str(summary))
                name = f"{workload} {cell.label}"
                print_run(name, config)
                print(f"out {name}: csv {hashlib.sha256(trace.read_bytes()).hexdigest()} "
                      f"json {hashlib.sha256(summary.read_bytes()).hexdigest()}")


def direct_runs() -> None:
    for spec in DIRECT:
        default_L = spec.build().default_L
        for (solver, z), budget, scale in itertools.product(SOLVERS, BUDGETS, (1, 10)):
            config = RunConfig(spec, solver, max_evals=budget, L=default_L / scale,
                               conjugate_z=z)
            print_run(f"{spec.label()} {config.solver_name} budget={budget} L/{scale}", config)


def exit_runs() -> None:
    for name in ("explosive-cag", "explosive-ag", "concave-ncg", "uphill-ncg"):
        print_result(name, GOLDEN_RUNS[name]())
    qp = quad_diag_system(100)
    for (start, x0), budget in itertools.product(
        (("zeros", np.zeros(qp.n)), ("ones", np.ones(qp.n))), (5, 10_000)
    ):
        print_result(f"lcg {qp.name} x0={start} max_iters={budget}",
                     lcg_minimize(qp, x0, 1e-8, budget))


def spec_grid() -> None:
    sizes = {"quad": 10, "abpdn": 16, "logistic": 10, "huber": 10}
    for family, params in TAKES.items():
        n = sizes[family]
        x = np.linspace(-1.0, 2.0, n)
        for chosen in itertools.product((False, True), repeat=len(params)):
            kwargs = {p: SET_VALUES[p] for p, on in zip(params, chosen) if on}
            spec = ProblemSpec(family, n, **kwargs)
            problem = spec.build()
            f, g = problem.evaluate(x)
            h = hashlib.sha256(struct.pack("<d", f) + np.asarray(g, dtype=float).tobytes())
            print(f"spec {family} {sorted(kwargs)}: {spec.label()} {problem.name} "
                  f"L={problem.default_L!r} ell={problem.default_ell!r} {h.hexdigest()}")
    for kwargs in REJECTED:
        try:
            ProblemSpec(**kwargs)
            print(f"rejected {kwargs}: accepted")
        except InvalidSpec as e:
            print(f"rejected {kwargs}: {e}")
        except Exception as e:
            print(f"rejected {kwargs}: {type(e).__name__}: {e}")
    for line in ("family=quad", "family=logistic n=10 seed=1.5 solver=cag"):
        try:
            print(f"tokens {line!r}: {run_config_from_tokens(line.split())!r}")
        except ValueError as e:
            print(f"tokens {line!r}: {type(e).__name__}: {e}")


# ``cagopt run`` invocations whose exit code and summary line are printed.
RUN_LINES = (
    "family=quad n=10 solver=cag",
    "family=quad n=10 solver=cag conjugate_z=true",
    "family=quad n=10 solver=cag max_evals=3",
    "family=quad n=10 solver=lcg",
    "family=huber n=10 tau=2.5 solver=ncg",
)


def suite_outputs() -> None:
    rows = [
        SuiteRow("quad(n=10)", "cag", Status.CONVERGED, 6, 13, -0.25, 3e-9, 0.012, best=True),
        SuiteRow("quad(n=10)", "cag+z", Status.CONVERGED, 6, 15, -0.25000000000000006,
                 2.5e-9, 0.0151),
        SuiteRow("quad(n=10)", "ag", Status.BUDGET_EXHAUSTED, 49, 50, -0.2, 0.4, 1.5),
        SuiteRow("huber(n=10,tau=1)", "cag", Status.INVALID, 0, 0, math.nan, math.nan, 0.0),
    ]
    for name, subset in (("empty", []), ("rows", rows)):
        table = format_suite_table(subset)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "suite.csv"
            write_suite_csv(path, subset)
            csv_bytes = path.read_bytes()
        print(f"suite {name} table {hashlib.sha256(table.encode()).hexdigest()}")
        print(f"suite {name} csv {hashlib.sha256(csv_bytes).hexdigest()}")
    for command in ("run", "suite"):
        text = CliRunner().invoke(cli_main, [command, "--help"]).output
        print(f"cli {command} --help {hashlib.sha256(text.encode()).hexdigest()}")
    for line in RUN_LINES:
        result = CliRunner().invoke(cli_main, ["run", *line.split()])
        print(f"cli run {line}: exit {result.exit_code} {result.output.rstrip()}")


def suite_parse() -> None:
    # each line alone, after a comment and a blank line, so an error names line 3
    for line in SUITE_LINES:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "suite.txt"
            path.write_text(f"# one run\n\n{line}\n")
            try:
                print(f"parse {line!r}: {parse_suite_config(path)[0]!r}")
            except InvalidSpec as e:
                print(f"parse {line!r}: rejected: {str(e).replace(str(path), 'suite.txt')}")


def output_checks() -> None:
    runner = CliRunner()
    for first, second, out in OVERWRITES:
        with runner.isolated_filesystem():
            os.mkdir("sub")
            Path("suite.txt").write_text(
                f"family=quad n=10 solver=cag {first}\nfamily=quad n=10 solver=ncg {second}\n")
            result = runner.invoke(
                cli_main, ["suite", "--config", "suite.txt"] + (["--out", out] if out else []))
            print(f"overwrite {first!r} {second!r} --out {out}: exit {result.exit_code} "
                  f"{result.output.splitlines()[-1]}")
    with runner.isolated_filesystem():
        result = runner.invoke(cli_main, ["run", "family=quad", "n=10", "solver=cag",
                                          "trace=out", "json=out"])
        print(f"overwrite run trace=out json=out: exit {result.exit_code} "
              f"{result.output.splitlines()[-1]}")
        rows = run_suite([RunConfig(ProblemSpec("quad", 10), "cag", trace_path="t.csv"),
                          RunConfig(ProblemSpec("quad", 12), "ncg", trace_path="t.csv")])
        print(f"overwrite run_suite trace=t.csv twice: {[r.status.value for r in rows]}")


def start_overflow() -> None:
    # abpdn's f(0) = |b|^2/2 + lambda n sqrt(delta) overflows at the start point
    line = "family=abpdn n=4 lambda=1e200 delta=1e300"
    configs = [run_config_from_tokens(f"{line} solver={solver}".split())
               for solver in ("cag", "ncg", "ag")]
    try:
        rows = run_suite(configs + [RunConfig(ProblemSpec("quad", 10), "cag")])
        print(f"overflow run_suite {line} cag, ncg, ag, quad cag: "
              f"{[(r.status.value, r.evaluations) for r in rows]}")
    except Exception as e:
        print(f"overflow run_suite {line}: {type(e).__name__}: {e}")
    result = CliRunner().invoke(cli_main, ["run", *line.split(), "solver=cag"])
    print(f"overflow cli run {line} solver=cag: exit {result.exit_code} "
          f"{result.output.rstrip() or repr(result.exception)}")
    with tempfile.TemporaryDirectory() as tmp:
        summary = Path(tmp) / "s.json"
        run(run_config_from_tokens(f"{line} solver=cag json={summary}".split()))
        text = summary.read_text()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    try:
        json.loads(text, parse_constant=refuse)
        strict = "strict JSON"
    except ValueError as e:
        strict = f"not strict JSON: {e}"
    print(f"overflow json= {line} solver=cag: {strict} "
          f"{hashlib.sha256(text.encode()).hexdigest()}")
    # lcg's f(x0) and initial residual norm overflow
    name = "overflow lcg quad_diag_system(5) x0=1e200*ones"
    try:
        print_result(name, lcg_minimize(quad_diag_system(5), np.full(5, 1e200), 1e-8, 50))
    except Exception as e:
        print(f"{name}: {type(e).__name__}: {e}")


def suite_builds() -> None:
    # on instances that no other sweep builds, so none is held beforehand
    families, calls = cagopt.problems._FAMILIES, []
    saved = dict(families)
    # every system quad_diag_system returns, by id: make_quad_diag calls it
    # through problems, an lcg row through harness; kept alive, so ids stay apart
    systems, system_of = {}, cagopt.problems.quad_diag_system

    def counted(family, make):
        def wrapped(**args):
            calls.append(family)
            return make(**args)
        return wrapped

    def seen(n):
        system = system_of(n)
        systems[id(system)] = system
        return system

    for family in ("quad", "huber"):
        families[family] = saved[family]._replace(make=counted(family, saved[family].make))
    cagopt.problems.quad_diag_system = cagopt.harness.quad_diag_system = seen
    try:
        run_suite([RunConfig(ProblemSpec(family, 20), solver)
                   for solver in ("cag", "ncg") for family in ("quad", "huber")]
                  + [RunConfig(ProblemSpec("quad", 20), "lcg")])
    finally:
        families.update(saved)
        cagopt.problems.quad_diag_system = cagopt.harness.quad_diag_system = system_of
    print(f"builds run_suite quad cag, huber cag, quad ncg, huber ncg, quad lcg: "
          f"quad {calls.count('quad')} huber {calls.count('huber')} "
          f"quad_diag_system {len(systems)}")


def compare_trees(other_src: str) -> int:
    """Run the sweep on this tree's ``src`` and on ``other_src``, print the
    unified diff of the two outputs and return 1 if they differ."""
    if not (Path(other_src) / "cagopt" / "__init__.py").is_file():
        print(f"trace_digest: no cagopt package in {other_src}", file=sys.stderr)
        return 2
    trees = (str(Path(__file__).resolve().parents[1] / "src"), other_src)
    sweeps = [subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE, text=True,
                               env={**os.environ, "PYTHONPATH": tree}) for tree in trees]
    outputs = [sweep.communicate()[0].splitlines(keepends=True) for sweep in sweeps]
    for tree, sweep in zip(trees, sweeps):
        if sweep.returncode:
            print(f"trace_digest: the sweep on {tree} failed ({sweep.returncode})", file=sys.stderr)
            return 2
    diff = list(difflib.unified_diff(*outputs, *trees))
    sys.stdout.writelines(diff)
    print(f"{len(outputs[0])} and {len(outputs[1])} lines, "
          f"{'different' if diff else 'identical'}")
    return 1 if diff else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare this tree's sweep with the one on another src directory")
    args = parser.parse_args()
    if args.against:
        return compare_trees(args.against)
    spec_grid()
    suite_outputs()
    suite_parse()
    output_checks()
    start_overflow()
    suite_builds()
    bench_cells()
    direct_runs()
    exit_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
