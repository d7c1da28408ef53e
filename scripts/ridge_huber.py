"""Ridge-huber probe: an instance on which cag trails ncg (ROADMAP item 17).

    python3 scripts/ridge_huber.py

The instance is huber n = 1000 with tau = n/10 plus a ridge,
f(x) + (lam/2) ||x||^2, with L = 8 + lam and ell = lam, built by wrapping
``make_huber(1000, 100)``'s ``evaluate``.  From x0 = 0 at gtol 1e-8 and a
500,000-evaluation budget, it prints evaluations to convergence for cag at
ell = lam (with its AG rows), cag at ell = 0, ncg, and ag at ell = lam, for lam in
{1e-4, 1e-5, 1e-6, 1e-8} ("> budget" marks a run that spent it), then
where cag's evaluations go at lam = 1e-6, ell = 0, beside ncg's run.
Takes about 45 s; it is a report, not a test.
"""

import statistics
import sys
import time
from itertools import groupby
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cagopt import (  # noqa: E402
    ObjectiveProblem,
    SolverConfig,
    Status,
    StepKind,
    ag_minimize,
    cag_minimize,
    make_huber,
    ncg_minimize,
)

N, TAU, GTOL, BUDGET = 1000, 100.0, 1e-8, 500_000
LAMBDAS = (1e-4, 1e-5, 1e-6, 1e-8)


def ridge_huber(lam):
    huber = make_huber(N, TAU).evaluate

    def evaluate(x):
        f, g = huber(x)
        return f + 0.5 * lam * float(x.dot(x)), g + lam * x

    return ObjectiveProblem(f"ridge-huber(n={N},lambda={lam:g})", N, evaluate, 8.0 + lam, lam)


def solve(minimize, prob, ell):
    return minimize(prob, np.zeros(N), SolverConfig(prob.default_L, ell, GTOL, BUDGET))


def count(res):
    text = f"{res.evaluations:,}"
    return text if res.status is Status.CONVERGED else f"> {BUDGET:,} (budget)"


def breakdown(name, res):
    """Rows and evaluations per step kind (a row's evaluations are its count
    less the previous row's), and the runs of consecutive cg rows (chains)
    and of consecutive ag rows (blocks)."""
    kinds = list(res.trace.kinds())
    deltas = np.diff(res.trace.evals)
    print(f"{name}: {res.evaluations:,} evaluations, {len(kinds) - 1:,} rows after init")
    for kind in (StepKind.CG, StepKind.SD, StepKind.AG):
        rows = [k is kind for k in kinds[1:]]
        print(f"  {kind.value} rows {sum(rows):,}, evaluations {int(deltas[rows].sum()):,}")
    runs = [(kind, len(list(group))) for kind, group in groupby(kinds[1:])]
    chains = [length for kind, length in runs if kind is StepKind.CG]
    blocks = [length for kind, length in runs if kind is StepKind.AG]
    if chains:
        print(f"  CG chains {len(chains)}, median length {statistics.median(chains):,g} rows,"
              f" longest {max(chains):,}")
    print(f"  AG blocks {len(blocks)}, {sum(blocks):,} rows")


def main():
    start = time.perf_counter()
    print(f"ridge-huber n={N} tau={TAU:g}, gtol {GTOL:g}, budget {BUDGET:,}, x0 = 0")
    print(f"{'lambda':>6} | {'cag ell=lambda (AG rows)':>30} | {'cag ell=0':>22} | "
          f"{'ncg':>22} | {'ag':>22}")
    detail = {}
    for lam in LAMBDAS:
        prob = ridge_huber(lam)
        cag_l = solve(cag_minimize, prob, lam)
        cag_0 = solve(cag_minimize, prob, 0.0)
        ncg = solve(ncg_minimize, prob, 0.0)
        ag = solve(ag_minimize, prob, lam)
        ag_rows = sum(kind is StepKind.AG for kind in cag_l.trace.kinds())
        print(f"{lam:>6g} | {f'{count(cag_l)} ({ag_rows:,})':>30} | {count(cag_0):>22} | "
              f"{count(ncg):>22} | {count(ag):>22}")
        if lam == 1e-6:
            detail = {"cag, ell=0": cag_0, "ncg": ncg}
    print("\nwhere the evaluations go at lambda=1e-6")
    for name, res in detail.items():
        breakdown(name, res)
    print(f"\nrun time {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
