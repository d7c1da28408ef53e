"""The benchmark's three workloads, each a fixed list of solver runs (cells).

Every cell starts from x0 = 0 (the harness fixes it) and must converge to
its gtol.  Only the logistic instances depend on the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from cagopt import ProblemSpec, RunConfig
from cagopt.harness import DEFAULT_GTOL


@dataclass(frozen=True)
class Cell:
    """One (problem instance, solver) run of a workload."""

    family: str
    n: int
    solver: str
    conjugate_z: bool = False
    gtol: float = DEFAULT_GTOL
    seed: int | None = None
    write_outputs: bool = False

    @property
    def instance(self) -> tuple:
        """Cells sharing an instance must agree on f_final."""
        return (self.family, self.n, self.seed)

    @property
    def label(self) -> str:
        solver = self.solver + ("+z" if self.conjugate_z else "")
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return f"{self.family} n={self.n}{seed} {solver}"

    def spec(self) -> ProblemSpec:
        return ProblemSpec(self.family, self.n, seed=self.seed)

    def config(self, out_dir: Path, index: int) -> RunConfig:
        trace_path = json_path = None
        if self.write_outputs:
            trace_path = str(out_dir / f"cell{index}.trace.csv")
            json_path = str(out_dir / f"cell{index}.json")
        return RunConfig(
            problem=self.spec(),
            solver=self.solver,
            gtol=self.gtol,
            conjugate_z=self.conjugate_z,
            trace_path=trace_path,
            json_path=json_path,
        )


def cells_for(workload: str, seed: int) -> list[Cell]:
    if workload == "cheap-objective":
        # A raw evaluate costs 5-35 us here, so the solver layers (cag,
        # estimate_sequence, oracle, baselines) take 48-87% of the wall time:
        # a leaner iteration kernel shows here, an objective kernel does not.
        return [
            Cell("quad", 1000, "cag"),
            Cell("quad", 1000, "cag", conjugate_z=True),
            Cell("quad", 1000, "ncg"),
            Cell("quad", 1000, "ag"),
            Cell("quad", 1000, "lcg"),
            Cell("huber", 1000, "cag"),
            Cell("huber", 1000, "ncg"),
            Cell("huber", 1000, "ag"),
        ]
    if workload == "costly-objective":
        # evaluate takes ~75% of the abpdn solve (dense 100 x 10^4 DCT-row
        # matvec) and the 2000 x 1000 logistic design dominates the rest;
        # logistic's Box-Muller draw and power iteration dominate setup_s.
        # An objective-kernel change shows here, a solver-overhead cut
        # barely does.  gtol=1e-5 keeps abpdn near 2,600 iterations (the
        # default gtol costs ~46,000).
        return [
            Cell("abpdn", 10_000, "cag", gtol=1e-5),
            Cell("logistic", 1000, "cag", seed=seed),
            Cell("logistic", 1000, "ncg", seed=seed),
        ]
    if workload == "fallback-heavy":
        # cag's slow path: 3,130 of 7,432 iterations are AG steps, with
        # rejected CG/SD attempts, return_to_cg exits and (z-mode, 20,477
        # evals against 11,769) bar_augment calls; both runs write their
        # trace CSV and JSON summary, so harness output is on the clock.
        return [
            Cell("huber", 5000, "cag", write_outputs=True),
            Cell("huber", 5000, "cag", conjugate_z=True, write_outputs=True),
        ]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


WORKLOADS = ("cheap-objective", "costly-objective", "fallback-heavy")
