"""Run configuration, dispatch, trace/summary output, and suite execution."""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import ag_minimize, lcg_minimize, ncg_minimize
from .cag import CagConfig, cag_minimize
from .errors import InvalidSpec
from .problems import PROBLEM_KEYS, ProblemSpec, quad_diag_system
from .results import SolverResult, Status, TraceRecord

SOLVERS = ("cag", "ag", "ncg", "lcg")

# Evaluation budget: AG spends one evaluation per iteration and the CG-type
# solvers about two, so a single default covers both conventions.
DEFAULT_MAX_EVALS = 1_000_000
DEFAULT_GTOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """One (problem, solver) run with optional overrides and output paths."""

    problem: ProblemSpec
    solver: str
    gtol: float = DEFAULT_GTOL
    max_evals: int = DEFAULT_MAX_EVALS
    L: float | None = None
    ell: float | None = None
    conjugate_z: bool = False
    trace_path: str | None = None
    json_path: str | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise InvalidSpec(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")
        if not self.gtol > 0:
            raise InvalidSpec(f"gtol must be positive, got {self.gtol}")
        if self.max_evals < 1:
            raise InvalidSpec(f"max_evals must be positive, got {self.max_evals}")
        if self.solver == "lcg" and self.problem.family != "quad":
            raise InvalidSpec("the lcg solver applies only to the quad family")


def _format_float(v: float) -> str:
    return f"{v:.17g}"


def write_trace_csv(path: str | Path, trace: list[TraceRecord]) -> None:
    """CSV with header iter,evals,f,gnorm,phistar,step; 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "evals", "f", "gnorm", "phistar", "step"])
        for r in trace:
            writer.writerow(
                [
                    r.iteration,
                    r.evals,
                    _format_float(r.f),
                    _format_float(r.gnorm),
                    _format_float(r.phi_star),
                    r.step.value,
                ]
            )


def run(config: RunConfig) -> SolverResult:
    """Build the problem, resolve L/ell (override beats family default),
    dispatch the solver and write any requested outputs."""
    problem = config.problem.build()
    L = config.L if config.L is not None else problem.default_L
    ell = config.ell if config.ell is not None else problem.default_ell
    if not 0.0 <= ell <= L:
        raise InvalidSpec(f"resolved moduli violate 0 <= ell <= L: ell={ell}, L={L}")
    x0 = np.zeros(problem.n)

    if config.solver == "cag":
        cag_cfg = CagConfig(
            L=L,
            ell=ell,
            gtol=config.gtol,
            max_evals=config.max_evals,
            conjugate_z_mode=config.conjugate_z,
        )
        result = cag_minimize(problem, x0, cag_cfg)
    elif config.solver == "ag":
        result = ag_minimize(problem, x0, L, ell, config.gtol, config.max_evals)
    elif config.solver == "ncg":
        problem = replace(problem, default_L=L, default_ell=ell)
        result = ncg_minimize(problem, x0, config.gtol, config.max_evals)
    else:
        qp = quad_diag_system(config.problem.n)
        result = lcg_minimize(qp, x0, config.gtol, config.max_evals)

    if config.trace_path:
        write_trace_csv(config.trace_path, result.trace)
    if config.json_path:
        summary = {
            "problem": problem.name,
            "solver": config.solver,
            "status": result.status.value,
            "iterations": result.iterations,
            "evaluations": result.evaluations,
            "f_final": result.f_final,
            "gnorm_final": result.gnorm_final,
            "L": L,
            "ell": ell,
            "gtol": config.gtol,
        }
        with open(config.json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


@dataclass
class SuiteRow:
    """One line of the suite summary table."""

    problem: str
    solver: str
    status: Status
    iterations: int
    evaluations: int
    f_final: float
    gnorm_final: float
    wall_time: float
    best: bool = False


def run_suite(configs: list[RunConfig], parallelism: int = 1) -> list[SuiteRow]:
    """Execute all runs (optionally concurrently) and flag the per-problem best.

    Rows come back in input order regardless of completion order.  A failed
    run becomes a row with its terminal status; it never aborts the suite.
    The ``best`` flag marks, within each problem, the converged run with the
    fewest evaluations.
    """
    def one(config: RunConfig) -> SuiteRow:
        start = time.perf_counter()
        result = run(config)
        elapsed = time.perf_counter() - start
        return SuiteRow(
            problem=config.problem.label(),
            solver=config.solver,
            status=result.status,
            iterations=result.iterations,
            evaluations=result.evaluations,
            f_final=result.f_final,
            gnorm_final=result.gnorm_final,
            wall_time=elapsed,
        )

    if parallelism > 1 and len(configs) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(one, configs))
    else:
        rows = [one(c) for c in configs]

    by_problem: dict[str, list[SuiteRow]] = {}
    for row in rows:
        by_problem.setdefault(row.problem, []).append(row)
    for group in by_problem.values():
        converged = [r for r in group if r.status is Status.CONVERGED]
        if converged:
            min(converged, key=lambda r: r.evaluations).best = True
    return rows


def format_suite_table(rows: list[SuiteRow]) -> str:
    """Aligned text table; '*' in the best column marks the per-problem winner."""
    header = ("problem", "solver", "status", "iters", "evals", "f_final", "gnorm_final", "time_s", "best")
    body = [
        (
            r.problem,
            r.solver,
            r.status.value,
            str(r.iterations),
            str(r.evaluations),
            f"{r.f_final:.6e}",
            f"{r.gnorm_final:.3e}",
            f"{r.wall_time:.2f}",
            "*" if r.best else "",
        )
        for r in rows
    ]
    widths = [max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def write_suite_csv(path: str | Path, rows: list[SuiteRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["problem", "solver", "status", "iterations", "evaluations", "f_final", "gnorm_final", "wall_time", "best"]
        )
        for r in rows:
            writer.writerow(
                [
                    r.problem,
                    r.solver,
                    r.status.value,
                    r.iterations,
                    r.evaluations,
                    _format_float(r.f_final),
                    _format_float(r.gnorm_final),
                    f"{r.wall_time:.3f}",
                    int(r.best),
                ]
            )


def parse_suite_config(path: str | Path) -> list[RunConfig]:
    """One run per non-comment line, as space-separated key=value pairs.

    Problem keys: family, n, m, lambda, delta, sigma, tau, seed.
    Run keys: solver, gtol, max_evals, L, ell, conjugate_z, trace, json.
    """
    configs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pairs = {}
        for token in line.split():
            if "=" not in token:
                raise InvalidSpec(f"{path}:{lineno}: expected key=value, got {token!r}")
            key, _, value = token.partition("=")
            pairs[key] = value
        configs.append(run_config_from_kv(pairs, where=f"{path}:{lineno}"))
    return configs


_RUN_KEYS = {"solver", "gtol", "max_evals", "L", "ell", "conjugate_z", "trace", "json"}


def run_config_from_kv(pairs: dict[str, str], where: str = "") -> RunConfig:
    unknown = set(pairs) - PROBLEM_KEYS - _RUN_KEYS
    if unknown:
        raise InvalidSpec(f"{where}: unknown keys {sorted(unknown)}")
    if "solver" not in pairs:
        raise InvalidSpec(f"{where}: missing solver=...")
    spec = ProblemSpec.from_kv({k: v for k, v in pairs.items() if k in PROBLEM_KEYS})
    return RunConfig(
        problem=spec,
        solver=pairs["solver"],
        gtol=float(pairs.get("gtol", DEFAULT_GTOL)),
        max_evals=int(pairs.get("max_evals", DEFAULT_MAX_EVALS)),
        L=float(pairs["L"]) if "L" in pairs else None,
        ell=float(pairs["ell"]) if "ell" in pairs else None,
        conjugate_z=pairs.get("conjugate_z", "false").lower() in ("1", "true", "yes"),
        trace_path=pairs.get("trace"),
        json_path=pairs.get("json"),
    )
