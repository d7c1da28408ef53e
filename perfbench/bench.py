"""Closed-loop, single-process solver benchmark.

One client solves the workload's cells one after another through the
package's public entry point ``harness.run``; a pass is one solve of every
cell.  A short warm-up solve per cell is excluded from timing; the first
pass fixes each cell's reference iteration and evaluation counts, which
every later pass must repeat exactly.  Untraced passes repeat for
``--seconds``; with ``--trace 1`` traced passes alternate with them and give
the per-layer metrics.  Timings are per-cell medians over the passes, summed
over the workload's cells.  Every solve's output is checked.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import cagopt
from cagopt import SolverResult, Status
from tracing import Tracer, patched
from workloads import WORKLOADS, Cell, cells_for

# On the diagonal quadratic (ell = 1) gtol = 1e-8 leaves f - f* <= 5e-17;
# evaluation round-off is ~1e-16, so this only passes a truly solved run.
FSTAR_RTOL = 1e-10
# Runs of different solvers on one instance end within gtol of the same
# minimiser, so their values agree to far better than this.
AGREE_RTOL = 1e-9
# Evaluation budget of the warm-up solves.
WARM_UP_EVALS = 50

@dataclass
class Solve:
    """What a pass keeps of one solve; the SolverResult itself is dropped so
    that retained traces do not grow the heap from pass to pass."""

    iterations: int
    evaluations: int
    f_final: float
    problems: list[str]
    setup_s: float  # inside ProblemSpec.build and quad_diag_system
    solve_s: float  # the rest of the harness.run call


def check_solve(cell: Cell, result: SolverResult, fstar: float | None) -> list[str]:
    """Problems with one solve's output, given the instance's known optimum."""
    problems = []
    if result.status is not Status.CONVERGED:
        problems.append(f"status {result.status.value}")
    if not result.gnorm_final <= cell.gtol:
        problems.append(f"gnorm_final {result.gnorm_final!r} > gtol {cell.gtol!r}")
    if fstar is not None and not abs(result.f_final - fstar) <= FSTAR_RTOL * max(1.0, abs(fstar)):
        problems.append(f"f_final {result.f_final!r} differs from known f* {fstar!r}")
    return problems


def disagreeing(cells: list[Cell], f_finals: list[float]) -> set[int]:
    """Indices of cells whose instance's solvers disagree on f_final."""
    groups: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        groups.setdefault(cell.instance, []).append(i)
    bad: set[int] = set()
    for members in groups.values():
        values = [f_finals[i] for i in members]
        scale = max(1.0, max(abs(v) for v in values))
        if max(values) - min(values) > AGREE_RTOL * scale:
            bad.update(members)
    return bad


class Bench:
    """Runs passes over a workload's cells and checks every solve."""

    def __init__(self, cells: list[Cell], out_dir: Path):
        self.cells = cells
        self.out_dir = out_dir
        known = {}
        for cell in cells:
            if cell.instance not in known:
                known[cell.instance] = cell.spec().build().known_fstar
        self.fstar = [known[cell.instance] for cell in cells]
        self.reference: list[tuple[int, int]] | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def warm_up(self) -> None:
        """One short, unchecked solve per cell: fills caches and finishes
        lazy set-up in numpy and the package before anything is timed."""
        for i, cell in enumerate(self.cells):
            cagopt.run(replace(cell.config(self.out_dir, i), max_evals=WARM_UP_EVALS))

    def solve_pass(self, tracer: Tracer | None = None) -> list[Solve]:
        """Solve every cell once; with a tracer, trace every layer."""
        spans = tracer if tracer is not None else Tracer()
        solves = []
        with patched(spans, layers=tracer is not None) as run:
            for i, cell in enumerate(self.cells):
                config = cell.config(self.out_dir, i)
                setup_before = spans.setup_s()
                start = time.perf_counter()
                result = run(config)
                wall = time.perf_counter() - start
                setup = spans.setup_s() - setup_before
                solves.append(
                    Solve(
                        result.iterations,
                        result.evaluations,
                        result.f_final,
                        check_solve(cell, result, self.fstar[i]),
                        setup,
                        wall - setup,
                    )
                )
        self._check(solves)
        return solves

    def _check(self, solves: list[Solve]) -> None:
        counts = [(s.iterations, s.evaluations) for s in solves]
        if self.reference is None:
            self.reference = counts
        bad = disagreeing(self.cells, [s.f_final for s in solves])
        for i, (cell, solve) in enumerate(zip(self.cells, solves)):
            if counts[i] != self.reference[i]:
                solve.problems.append(f"(iterations, evaluations) {counts[i]} != reference {self.reference[i]}")
            if i in bad:
                solve.problems.append(f"f_final {solve.f_final!r} disagrees with another solver")
            self.attempted += 1
            if solve.problems:
                self.failed += 1
                self.failures.append(f"{cell.label}: " + "; ".join(solve.problems))


def cell_median_sum(passes: list[list[Solve]], attr: str) -> float:
    """Per-cell median over passes, summed over cells."""
    return sum(statistics.median(getattr(p[i], attr) for p in passes) for i in range(len(passes[0])))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass (overheads are added by the caller)."""
    t = tracer
    evaluate_calls = t.calls("problems.evaluate")
    cg_calls = t.calls("cag.cg_attempt")
    return {
        "problems.evaluate_calls": (evaluate_calls, "count"),
        "problems.evaluate_s": (t.total("problems.evaluate"), "s"),
        "problems.evaluate_us": (_ratio(t.total("problems.evaluate"), evaluate_calls) * 1e6, "us"),
        "oracle.check_s": (t.self_time("oracle.evaluate_counted"), "s"),
        "cag.cg_attempt_calls": (cg_calls, "count"),
        "cag.cg_attempt_accepted": (t.cg_accepted, "count"),
        "cag.cg_accept_ratio": (_ratio(t.cg_useful, cg_calls), "ratio"),
        "cag.rejected_attempt_evals": (t.rejected_attempt_evals, "count"),
        "cag.secant_alpha_self_s": (t.self_time("cag.secant_alpha"), "s"),
        "cag.hz_beta_s": (t.total("cag.hz_beta"), "s"),
        "cag.ag_step_calls": (t.calls("cag.ag_step"), "count"),
        "cag.ag_step_self_s": (t.self_time("cag.ag_step"), "s"),
        "cag.return_to_cg_calls": (t.calls("cag.return_to_cg"), "count"),
        "cag.bar_augment_calls": (t.calls("cag.bar_augment"), "count"),
        "cag.z_conjugate_update_s": (t.total("cag.z_conjugate_update"), "s"),
        "cag.driver_self_s": (t.self_time("cag.cag_minimize"), "s"),
        "estimate_sequence.advance_estimate_calls": (t.calls("estimate_sequence.advance_estimate"), "count"),
        "estimate_sequence.advance_estimate_s": (t.total("estimate_sequence.advance_estimate"), "s"),
        "estimate_sequence.compute_theta_gamma_s": (t.total("estimate_sequence.compute_theta_gamma"), "s"),
        "baselines.ncg_driver_self_s": (t.self_time("baselines.ncg_minimize"), "s"),
        "baselines.ag_driver_self_s": (t.self_time("baselines.ag_minimize"), "s"),
        "baselines.lcg_s": (t.total("baselines.lcg_minimize"), "s"),
        "harness.run_self_s": (t.self_time("harness.run"), "s"),
        "harness.write_trace_csv_s": (t.total("harness.write_trace_csv"), "s"),
    }


def measure(bench: Bench, seconds: float, trace: bool):
    """Warm-up, then untraced (and, with ``trace``, alternating traced)
    passes while another round still fits in ``seconds``; at least one."""
    bench.warm_up()
    untraced: list[list[Solve]] = []
    traced: list[tuple[Tracer, list[Solve]]] = []
    start = time.perf_counter()
    round_s = 0.0
    while not untraced or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        untraced.append(bench.solve_pass())
        if trace:
            tracer = Tracer()
            traced.append((tracer, bench.solve_pass(tracer)))
        round_s = time.perf_counter() - round_start
    return untraced, traced


def end_to_end_metrics(bench: Bench, untraced: list[list[Solve]]) -> dict[str, tuple[float, str]]:
    solve_s = cell_median_sum(untraced, "solve_s")
    evals = sum(e for _, e in bench.reference)
    return {
        "setup_s": (cell_median_sum(untraced, "setup_s"), "s"),
        "solve_s": (solve_s, "s"),
        "us_per_eval": (solve_s / evals * 1e6, "us"),
        "evals": (evals, "count"),
        "iters": (sum(i for i, _ in bench.reference), "count"),
        # failed_share = 1 - ok_share; reported this way round so that it is never 0.
        "ok_share": (1.0 - bench.failed / bench.attempted, "ratio"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer_metrics(
    bench: Bench, untraced: list[list[Solve]], traced: list[tuple[Tracer, list[Solve]]]
) -> dict[str, tuple[float, str]]:
    """Median of each layer metric over the traced passes, plus overheads."""
    per_pass = [layer_metrics(tracer) for tracer, _ in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    solve_s = cell_median_sum(untraced, "solve_s")
    evals = sum(e for _, e in bench.reference)
    overhead_us = (solve_s - metrics["problems.evaluate_s"][0]) / evals * 1e6
    metrics["overhead_us_per_eval"] = (overhead_us, "us")
    metrics["overhead_ratio"] = (_ratio(overhead_us, metrics["problems.evaluate_us"][0]), "ratio")
    traced_solve_s = cell_median_sum([solves for _, solves in traced], "solve_s")
    metrics["trace_overhead_s"] = (traced_solve_s - solve_s, "s")
    return metrics


def environment(blas_threads: int) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"python {platform.python_version()} numpy {np.__version__} "
        f"blas {blas.get('name')} {blas.get('version')} blas_threads {blas_threads} "
        f"cagopt {cagopt.__version__}"
    )


def print_cells(bench: Bench, untraced: list[list[Solve]]) -> None:
    print(f"# {'cell':<32} {'iters':>7} {'evals':>7} {'solve_ms':>10} {'setup_ms':>9}")
    for i, cell in enumerate(bench.cells):
        iters, evals = bench.reference[i]
        solve_ms = statistics.median(p[i].solve_s for p in untraced) * 1e3
        setup_ms = statistics.median(p[i].setup_s for p in untraced) * 1e3
        print(f"# {cell.label:<32} {iters:>7} {evals:>7} {solve_ms:>10.3f} {setup_ms:>9.3f}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="seed of the logistic instances")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str], root: Path, blas_threads: int) -> int:
    args = parse_args(argv)
    cells = cells_for(args.workload, args.seed)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# {environment(blas_threads)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-out-", dir=root) as out_dir:
        bench = Bench(cells, Path(out_dir))
        untraced, traced = measure(bench, args.seconds, bool(args.trace))
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced, after a warm-up")
    print_cells(bench, untraced)
    if args.trace:
        metrics = per_layer_metrics(bench, untraced, traced)
    else:
        metrics = end_to_end_metrics(bench, untraced)
    for name, (value, unit) in metrics.items():
        print(f"# {name:<42} {value:>16.6f} {unit}")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = bench.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1
