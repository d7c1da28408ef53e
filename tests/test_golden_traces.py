"""Golden traces: solver runs pinned against a recorded fixture.

Each run must repeat its status, iteration and evaluation counts and the
per-row (evaluations, step kind) columns exactly, and its final value and
gradient norm to 1e-12 relative.  The fixture stores the columns as runs of
identical (evaluation delta, step) pairs.  A deliberate change of solver
behaviour re-records it with

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cagopt import ProblemSpec, RunConfig, Status, run
from cagopt.baselines import ag_minimize, ncg_minimize
from cagopt.cag import SolverConfig, cag_minimize
from cagopt.oracle import ObjectiveProblem

from conftest import concave_problem, explosive_problem

FIXTURE = Path(__file__).with_name("golden_traces.json")
RTOL = 1e-12


def _harness_run(family, n, solver, conjugate_z=False, max_evals=None, seed=None):
    extra = {} if max_evals is None else {"max_evals": max_evals}
    spec = ProblemSpec(family, n, seed=seed)
    return lambda: run(RunConfig(spec, solver, conjugate_z=conjugate_z, **extra))


def _understated_L_run(family, n, L=None):
    # cag on a budget of 5,000 with L below the problem's true curvature
    # (default L/10 when L is None), so that the fallback ladder runs
    def solve():
        spec = ProblemSpec(family, n)
        wrong_L = spec.build().default_L / 10 if L is None else L
        return run(RunConfig(spec, "cag", max_evals=5000, L=wrong_L))
    return solve


def _explosive_run(solve=cag_minimize):
    return solve(explosive_problem(), np.array([2.0]),
                 SolverConfig(L=0.01, ell=0.0, gtol=1e-12, max_evals=5000))


def _concave_ncg_run():
    return ncg_minimize(concave_problem(), np.zeros(5),
                        SolverConfig(L=1.0, gtol=1e-12, max_evals=5000))


def _uphill_ncg_run():
    # f = x^2/2 with the gradient's sign flipped: no step along -g decreases f
    prob = ObjectiveProblem(
        name="uphill", n=1, evaluate=lambda x: (0.5 * float(x @ x), -x), default_L=1.0
    )
    return ncg_minimize(prob, np.array([1.0]), SolverConfig(L=1.0))


RUNS = {
    "quad-100-cag": _harness_run("quad", 100, "cag"),
    "quad-100-cag+z": _harness_run("quad", 100, "cag", conjugate_z=True),
    "quad-100-ncg": _harness_run("quad", 100, "ncg"),
    "quad-100-ag": _harness_run("quad", 100, "ag"),
    "quad-100-lcg": _harness_run("quad", 100, "lcg"),
    "huber-700-cag": _harness_run("huber", 700, "cag"),
    "huber-700-cag+z": _harness_run("huber", 700, "cag", conjugate_z=True),
    "huber-700-ncg": _harness_run("huber", 700, "ncg"),
    "huber-700-ag": _harness_run("huber", 700, "ag"),
    "logistic-100-seed0-cag": _harness_run("logistic", 100, "cag", seed=0),
    "logistic-100-seed0-ncg": _harness_run("logistic", 100, "ncg", seed=0),
    "abpdn-400-cag": _harness_run("abpdn", 400, "cag"),
    "quad-100-cag-budget20": _harness_run("quad", 100, "cag", max_evals=20),
    "quad-100-ncg-budget20": _harness_run("quad", 100, "ncg", max_evals=20),
    "quad-100-ag-budget20": _harness_run("quad", 100, "ag", max_evals=20),
    "explosive-cag": _explosive_run,
    "explosive-ag": lambda: _explosive_run(ag_minimize),
    "concave-ncg": _concave_ncg_run,
    "uphill-ncg": _uphill_ncg_run,
    "huber-200-cag-L0.8": _understated_L_run("huber", 200, L=0.8),
    "logistic-50-cag-L/10": _understated_L_run("logistic", 50),
    "quad-100-cag-L1000": _understated_L_run("quad", 100, L=1000.0),
}


def summarize(result) -> dict:
    columns: list[list] = []
    previous = 0
    for evals, kind in zip(result.trace.evals, result.trace.kinds()):
        pair = [evals - previous, kind.value]
        previous = evals
        if columns and columns[-1][:2] == pair:
            columns[-1][2] += 1
        else:
            columns.append(pair + [1])
    return {
        "status": result.status.value,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "f_final": result.f_final,
        "gnorm_final": result.gnorm_final,
        "columns": columns,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", RUNS)
def test_run_matches_golden_trace(name, golden):
    expected = golden[name]
    got = summarize(RUNS[name]())
    for key in ("status", "iterations", "evaluations", "columns"):
        assert got[key] == expected[key], key
    for key in ("f_final", "gnorm_final"):
        assert got[key] == pytest.approx(expected[key], rel=RTOL, abs=0.0), key


@pytest.mark.parametrize("name", ["quad-100-cag", "quad-100-cag-budget20"])
def test_trace_deltas_partition_the_count_on_converged_and_budget_exits(name):
    result = RUNS[name]()
    evals = [0, *result.trace.evals]
    assert all(later - earlier >= 1 for earlier, later in zip(evals, evals[1:]))
    assert evals[-1] == result.evaluations


def test_a_diverged_run_records_no_row_for_the_iteration_that_ends_it():
    # the AG step whose evaluation is not finite adds no row: 130 of 131 evaluations
    result = RUNS["quad-100-cag-L1000"]()
    assert result.status is Status.DIVERGED
    assert (result.trace.evals[-1], result.evaluations) == (130, 131)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: summarize(fn()) for name, fn in RUNS.items()}, indent=1) + "\n"
    )
