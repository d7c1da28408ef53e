"""The benchmark's own checks: tracing is transparent, its counts and self
times are consistent, and the output check catches wrong answers.

Cells run on smaller instances of the same families, solvers and modes as
the real workloads, so the whole file takes seconds:

    PYTHONPATH=src python -m pytest perfbench
"""

from dataclasses import replace

import pytest

import cagopt.baselines
import cagopt.cag
import cagopt.harness
from bench import Bench, check_solve, disagreeing, layer_metrics
from cagopt import ProblemSpec, evaluate_counted, run
from tracing import Tracer
from workloads import WORKLOADS, Cell, cells_for


# abpdn needs a perfect square; huber n=700 is about the smallest instance
# on which cag still takes AG steps.
_SMALL_N = {("abpdn", 10_000): 400, ("huber", 5000): 700}


def small(cell: Cell) -> Cell:
    """The same cell on a smaller instance."""
    return replace(cell, n=_SMALL_N.get((cell.family, cell.n), cell.n // 10))


@pytest.fixture(scope="module", params=WORKLOADS)
def passes(request, tmp_path_factory):
    cells = [small(c) for c in cells_for(request.param, seed=0)]
    bench = Bench(cells, tmp_path_factory.mktemp(request.param))
    untraced = bench.solve_pass()
    tracer = Tracer()
    traced = bench.solve_pass(tracer)
    return bench, untraced, tracer, traced


def test_traced_run_matches_untraced_in_every_cell(passes):
    bench, untraced, _, traced = passes
    for u, t in zip(untraced, traced):
        assert (t.iterations, t.evaluations, t.f_final) == (u.iterations, u.evaluations, u.f_final)
    assert bench.failed == 0, bench.failures


def test_evaluate_calls_equal_counted_evaluations(passes):
    bench, _, tracer, traced = passes
    expected = sum(s.evaluations for c, s in zip(bench.cells, traced) if c.solver != "lcg")
    assert tracer.calls("problems.evaluate") == expected
    assert tracer.calls("oracle.evaluate_counted") == expected


def test_self_times_are_nonnegative(passes):
    _, _, tracer, traced = passes
    for name, (calls, total, self_s) in tracer.stats.items():
        assert 0.0 <= self_s <= total, name
    for name, (value, _) in layer_metrics(tracer).items():
        assert value >= 0, name


def test_originals_are_restored_after_a_traced_pass(passes):
    assert cagopt.cag.evaluate_counted is evaluate_counted
    assert cagopt.baselines.secant_alpha is cagopt.cag.secant_alpha
    assert cagopt.harness.cag_minimize is cagopt.cag.cag_minimize
    for fn in (cagopt.cag.cg_attempt, cagopt.harness.quad_diag_system, ProblemSpec.build):
        assert fn.__module__.startswith("cagopt."), fn


def test_fallback_path_is_traced(tmp_path):
    bench = Bench([small(c) for c in cells_for("fallback-heavy", seed=0)], tmp_path)
    tracer = Tracer()
    bench.solve_pass(tracer)
    for name in ("cag.ag_step", "cag.return_to_cg", "cag.bar_augment", "harness.write_trace_csv"):
        assert tracer.calls(name) > 0, name
    assert tracer.rejected_attempt_evals > 0
    assert tracer.cg_useful < tracer.calls("cag.cg_attempt")


def test_quad_accepts_every_cg_attempt(tmp_path):
    bench = Bench([Cell("quad", 100, "cag"), Cell("quad", 100, "cag", conjugate_z=True)], tmp_path)
    tracer = Tracer()
    bench.solve_pass(tracer)
    metrics = layer_metrics(tracer)
    assert metrics["cag.cg_accept_ratio"][0] == 1.0
    assert metrics["cag.rejected_attempt_evals"][0] == 0


def test_output_check_passes_on_seed_one(tmp_path):
    bench = Bench([small(c) for c in cells_for("costly-objective", seed=1)], tmp_path)
    bench.solve_pass()
    assert bench.failed == 0, bench.failures


def test_output_check_fails_on_a_wrong_reference_value(tmp_path):
    cell = Cell("quad", 100, "cag")
    bench = Bench([cell], tmp_path)
    result = run(cell.config(tmp_path, 0))
    assert check_solve(cell, result, bench.fstar[0]) == []
    assert check_solve(cell, result, bench.fstar[0] * (1 + 1e-6))

    bench.solve_pass()
    assert bench.failed == 0

    known = bench.fstar
    bench.fstar = [known[0] * (1 + 1e-6)]
    bench.solve_pass()
    assert bench.failed == 1
    assert "known f*" in bench.failures[-1]

    bench.fstar = known
    bench.reference = [(1, 2)]
    bench.solve_pass()
    assert bench.failed == 2
    assert "reference" in bench.failures[-1]


def test_solvers_must_agree_on_an_instance():
    cells = [Cell("huber", 10, "cag"), Cell("huber", 10, "ncg"), Cell("quad", 10, "ag")]
    assert disagreeing(cells, [5.0, 5.0, 1.0]) == set()
    assert disagreeing(cells, [5.0, 5.0 * (1 + 1e-6), 1.0]) == {0, 1}
