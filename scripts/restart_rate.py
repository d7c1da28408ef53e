"""Restart-rate probe: is cag's restarted CG n-step quadratically convergent
(conjecture (iv), ROADMAP item 6)?

    python3 scripts/restart_rate.py

For n in {5, 10, 20} on ``make_logistic(2n, n, seed=1)`` (its own L and
ell), a first cag run at the default ``RESTART_FACTOR`` goes to gtol 1e-13
and its first iterate with ||g|| <= START_GNORM becomes the start point, so
that several restarts happen above the round-off floor.  From there cag runs
again to gtol 1e-13 with ``RESTART_FACTOR`` patched to 1 in this process, a
chain restarting from steepest descent after n + 1 steps.  At each chain
start the script prints the evaluations so far, ||g|| and ||g+|| / ||g||^2,
g+ being the gradient at the next chain start (after the last, at the final
point): under n-step quadratic convergence that ratio stays bounded as ||g||
falls.  A report, not a test; it runs in well under a second.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cagopt.cag  # noqa: E402
from cagopt import SolverConfig, make_logistic  # noqa: E402
from cagopt.cag import cag_step, run_steps  # noqa: E402

GTOL = 1e-13
START_GNORM = 1e-2
SIZES = (5, 10, 20)


def run(prob, x0):
    """cag from x0; returns the result, each row's iterate and the (evaluations,
    ||g||) of every chain start, the iterations at which i_cg is 0."""
    iterates, starts = [x0], []

    def step(r):
        if r.i_cg == 0:
            starts.append((r.counter.count, r.point.gnorm))
        row = cag_step(r)
        iterates.append(r.x)
        return row

    config = SolverConfig(prob.default_L, prob.default_ell, GTOL)
    return run_steps(step, prob, x0, config), iterates, starts


def main():
    for n in SIZES:
        prob = make_logistic(2 * n, n, seed=1)
        first, iterates, _ = run(prob, np.zeros(n))
        k = next(i for i, gnorm in enumerate(first.trace.gnorm) if gnorm <= START_GNORM)
        default_factor = cagopt.cag.RESTART_FACTOR
        cagopt.cag.RESTART_FACTOR = 1
        try:
            res, _, starts = run(prob, iterates[k])
        finally:
            cagopt.cag.RESTART_FACTOR = default_factor
        print(f"\nlogistic m={2 * n} n={n} seed=1: from row {k} of the default run "
              f"(||g|| = {first.trace.gnorm[k]:.3g}, {first.trace.evals[k]} evaluations in), "
              f"restart after {n + 1} steps: {res.status.value}, {res.evaluations} evaluations, "
              f"final ||g|| {res.gnorm_final:.3g}")
        print(f"  {'start':>5} {'evals':>6} {'||g||':>10} {'||g+||/||g||^2':>15}")
        for i, (evals, gnorm) in enumerate(starts):
            nxt = starts[i + 1][1] if i + 1 < len(starts) else res.gnorm_final
            print(f"  {i:>5} {evals:>6} {gnorm:>10.3e} {nxt / gnorm**2:>15.3e}")


if __name__ == "__main__":
    main()
