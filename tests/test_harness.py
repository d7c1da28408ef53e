import csv
import json

import numpy as np
import pytest

from cagopt import (
    InvalidSpec,
    ProblemSpec,
    RunConfig,
    Status,
    format_suite_table,
    parse_suite_config,
    run,
    run_suite,
    write_suite_csv,
)


class TestRun:
    def test_tiny_quadratic_all_solvers(self):
        # closed-form oracle: x*_i = sin(i)/i^2, f* = f(x*); near the optimum
        # the objective error is quadratic in the iterate error, so every
        # solver that reaches gtol = 1e-12 agrees with f* to far below 1e-12
        i = np.arange(1.0, 3.0)
        xstar = np.sin(i) / i**2
        fstar = -0.5 * float(np.sum(np.sin(i) ** 2 / i**2))
        for solver in ("cag", "ag", "ncg", "lcg"):
            res = run(RunConfig(problem=ProblemSpec("quad", 2), solver=solver,
                                gtol=1e-12))
            assert res.converged, solver
            assert abs(res.f_final - fstar) <= 1e-12
            assert np.linalg.norm(res.x_final - xstar) <= 1e-11

    def test_override_beats_family_default(self, tmp_path):
        path = tmp_path / "summary.json"
        res = run(RunConfig(problem=ProblemSpec("quad", 10), solver="cag",
                            gtol=1e-8, L=200.0, ell=0.5,
                            json_path=str(path)))
        assert res.converged
        summary = json.loads(path.read_text())
        assert summary["L"] == 200.0
        assert summary["ell"] == 0.5
        assert summary["status"] == "converged"

    def test_lcg_requires_quadratic_family(self):
        with pytest.raises(InvalidSpec):
            run(RunConfig(problem=ProblemSpec("huber", 10), solver="lcg"))

    def test_unknown_solver_rejected(self):
        with pytest.raises(InvalidSpec):
            RunConfig(problem=ProblemSpec("quad", 4), solver="sgd")


class TestTraceCsv:
    def test_format_and_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = lambda path: RunConfig(problem=ProblemSpec("quad", 30), solver="cag",
                                     gtol=1e-8, trace_path=str(path))
        run(cfg(p1))
        run(cfg(p2))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "iter,evals,f,gnorm,phistar,step"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1" and first[5] == "init"
        steps = {line.split(",")[-1] for line in lines[1:]}
        assert steps <= {"init", "cg", "sd", "ag", "bar", "lcg"}

    def test_seventeen_digit_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        res = run(RunConfig(problem=ProblemSpec("quad", 10), solver="cag",
                            gtol=1e-8, trace_path=str(path)))
        rows = path.read_text().splitlines()[1:]
        for rec, row in zip(res.trace, rows):
            f_text = row.split(",")[2]
            assert float(f_text) == rec.f

    def test_logistic_trace_is_seed_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = ProblemSpec("logistic", 20, m=40, lam=1e-4, seed=9)
        run(RunConfig(problem=spec, solver="ag", gtol=1e-4, trace_path=str(p1)))
        run(RunConfig(problem=spec, solver="ag", gtol=1e-4, trace_path=str(p2)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_trace_sum_matches_counter(self, tmp_path):
        res = run(RunConfig(problem=ProblemSpec("huber", 50, tau=5.0), solver="cag",
                            gtol=1e-6))
        assert res.trace[-1].evals == res.evaluations


class TestSuite:
    def test_three_solvers_one_best(self):
        spec = ProblemSpec("huber", 60, tau=6.0)
        rows = run_suite(
            [RunConfig(problem=spec, solver=s, gtol=1e-6) for s in ("cag", "ag", "ncg")]
        )
        assert len(rows) == 3
        assert [r.solver for r in rows] == ["cag", "ag", "ncg"]
        assert sum(r.best for r in rows) == 1
        winner = [r for r in rows if r.best][0]
        assert winner.evaluations == min(r.evaluations for r in rows
                                         if r.status is Status.CONVERGED)

    def test_one_instance_one_label_one_best(self):
        # tau = 6 is huber n=60's default, so both rows run one instance
        rows = run_suite([
            RunConfig(problem=ProblemSpec("huber", 60), solver="cag", gtol=1e-6),
            RunConfig(problem=ProblemSpec("huber", 60, tau=6.0), solver="ncg", gtol=1e-6),
        ])
        assert rows[0].problem == rows[1].problem == "huber(n=60,tau=6)"
        assert all(r.status is Status.CONVERGED for r in rows)
        assert sum(r.best for r in rows) == 1

    def test_conjugate_z_rows_are_named_cag_plus_z(self, tmp_path):
        spec = ProblemSpec("huber", 60)
        summary = tmp_path / "summary.json"
        rows = run_suite([
            RunConfig(problem=spec, solver="cag", gtol=1e-6),
            RunConfig(problem=spec, solver="cag", gtol=1e-6, conjugate_z=True,
                      json_path=str(summary)),
        ])
        out = tmp_path / "suite.csv"
        write_suite_csv(out, rows)
        with open(out, newline="") as fh:
            assert [r["solver"] for r in csv.DictReader(fh)] == ["cag", "cag+z"]
        assert json.loads(summary.read_text())["solver"] == "cag+z"
        assert format_suite_table(rows).splitlines()[2].split()[1] == "cag+z"

    def test_empty_suite(self):
        rows = run_suite([])
        assert rows == []
        table = format_suite_table(rows)
        assert table.startswith("problem")

    def test_failed_run_becomes_row(self):
        configs = [
            RunConfig(problem=ProblemSpec("quad", 40), solver="ag", gtol=1e-14,
                      max_evals=25),
            RunConfig(problem=ProblemSpec("quad", 8), solver="cag", gtol=1e-8),
        ]
        rows = run_suite(configs)
        assert rows[0].status is Status.BUDGET_EXHAUSTED
        assert rows[1].status is Status.CONVERGED

    def test_invalid_row_does_not_abort_the_suite(self):
        # ell = 200 exceeds quad n=10's default L = 100, which only the built
        # problem knows: that row is reported and the next one still runs
        good = RunConfig(problem=ProblemSpec("quad", 10), solver="cag")
        bad = RunConfig(problem=ProblemSpec("quad", 10), solver="cag", ell=200.0)
        rows = run_suite([good, bad, good])
        assert [r.status for r in rows] == [Status.CONVERGED, Status.INVALID, Status.CONVERGED]
        assert rows[1].evaluations == 0 and rows[1].iterations == 0
        assert not rows[1].best
        assert "invalid" in format_suite_table(rows)

    def test_mini_table_runs_end_to_end(self, tmp_path):
        # eight-row miniature of the comparison table, mixed families
        configs = []
        for spec in (ProblemSpec("quad", 50),
                     ProblemSpec("abpdn", 256, lam=1e-3, delta=1e-4),
                     ProblemSpec("logistic", 30, m=60, lam=1e-4, seed=0),
                     ProblemSpec("huber", 100, tau=10.0)):
            for solver in ("cag", "ncg"):
                configs.append(RunConfig(problem=spec, solver=solver, gtol=1e-6))
        rows = run_suite(configs)
        assert len(rows) == 8
        assert all(r.status is Status.CONVERGED for r in rows)
        out = tmp_path / "summary.csv"
        write_suite_csv(out, rows)
        assert len(out.read_text().splitlines()) == 9
        table = format_suite_table(rows)
        assert len(table.splitlines()) == 9


class TestSuiteConfigFile:
    def test_parse_round_trip(self, tmp_path):
        cfg = tmp_path / "suite.txt"
        cfg.write_text(
            "# comparison suite\n"
            "\n"
            "family=quad n=100 solver=lcg gtol=1e-6\n"
            "family=huber n=200 tau=20 solver=cag gtol=1e-6 max_evals=50000 conjugate_z=true\n"
            "family=logistic n=30 m=60 lambda=1e-4 seed=3 solver=ag gtol=1e-5\n"
        )
        configs = parse_suite_config(cfg)
        assert len(configs) == 3
        assert configs[0].solver == "lcg"
        assert configs[1].conjugate_z is True
        assert configs[1].max_evals == 50000
        assert configs[2].problem.m == 60
        assert configs[2].problem.seed == 3

    def test_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "suite.txt"
        cfg.write_text("family=quad n=10 solver=cag momentum=0.9\n")
        with pytest.raises(InvalidSpec):
            parse_suite_config(cfg)

    def test_rejects_malformed_tokens(self, tmp_path):
        cfg = tmp_path / "suite.txt"
        cfg.write_text("family=quad n=10 cag\n")
        with pytest.raises(InvalidSpec):
            parse_suite_config(cfg)

    @pytest.mark.parametrize(
        "row",
        [
            "family=abpdn n=10 solver=cag",  # not a perfect square
            "family=abpdn n=1 solver=cag",  # no DCT row 2 in a 1 x 1 matrix
            "family=huber n=10 solver=lcg",  # lcg needs the quadratic family
            "family=abpdn n=16 solver=lcg",
            "family=logistic n=10 solver=lcg",
            "family=abpdn n=16 lambda=-1 solver=cag",  # out-of-range family parameters
            "family=abpdn n=16 delta=0 solver=cag",
            "family=huber n=10 tau=-1 solver=cag",
            "family=logistic n=10 sigma=-1 solver=cag",
            "family=logistic n=10 m=0 solver=cag",
            "family=quad n=10 solver=cag L=1 ell=2",  # out-of-range moduli
            "family=quad n=10 solver=cag L=0",
            "family=quad n=10 solver=cag ell=-1",
            "family=quad n=10 tau=5 solver=cag",  # a parameter the family ignores
            "family=huber n=10 seed=1 solver=cag",
            "family=quad n=10 solver=ncg conjugate_z=true",  # conjugate z is cag-only
        ],
    )
    def test_invalid_row_fails_before_any_run(self, tmp_path, row):
        # the suite file is rejected whole at parse time, so run_suite never
        # meets a row that would raise midway
        cfg = tmp_path / "suite.txt"
        cfg.write_text("family=quad n=10 solver=cag\n" + row + "\n")
        with pytest.raises(InvalidSpec):
            parse_suite_config(cfg)

    def test_ell_above_default_L_fails_at_its_row(self):
        # the one bad row RunConfig cannot reject: the family's default L
        # (n^2 = 100 here) is known only once the problem is built
        config = RunConfig(problem=ProblemSpec("quad", 10), solver="cag", ell=200.0)
        with pytest.raises(InvalidSpec):
            run(config)
