import csv
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cagopt.harness
import cagopt.problems
from cagopt import (
    InvalidSpec,
    ProblemSpec,
    RunConfig,
    SolverConfig,
    Status,
    SuiteRow,
    cag_minimize,
    format_suite_table,
    lcg_minimize,
    make_abpdn,
    ncg_minimize,
    parse_suite_config,
    quad_diag_system,
    run,
    run_suite,
    write_suite_csv,
    write_trace_csv,
)
from cagopt.harness import run_config_from_tokens

from conftest import count_builds


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
            assert res.status is Status.CONVERGED, solver
            assert abs(res.f_final - fstar) <= 1e-12
            assert np.linalg.norm(res.x_final - xstar) <= 1e-11

    def test_override_beats_family_default(self, tmp_path):
        path = tmp_path / "summary.json"
        res = run(RunConfig(problem=ProblemSpec("quad", 10), solver="cag",
                            gtol=1e-8, L=200.0, ell=0.5,
                            json_path=str(path)))
        assert res.status is Status.CONVERGED
        summary = json.loads(path.read_text())
        assert summary["L"] == 200.0
        assert summary["ell"] == 0.5
        assert summary["status"] == "converged"

    def test_json_names_the_instance_by_its_label(self, tmp_path):
        # the label, not make_logistic's own name, is the suite table's name too
        specs = [ProblemSpec("logistic", 20), ProblemSpec("logistic", 20, sigma=0.8),
                 ProblemSpec("abpdn", 16)]
        names = []
        for spec in specs:
            path = tmp_path / "summary.json"
            run(RunConfig(problem=spec, solver="ag", max_evals=3, json_path=str(path)))
            names.append(json.loads(path.read_text())["problem"])
        assert names == [
            "logistic(n=20,m=40,lambda=0.0001,sigma=0.4,seed=0)",
            "logistic(n=20,m=40,lambda=0.0001,sigma=0.8,seed=0)",
            "abpdn(n=16,lambda=0.001,delta=0.0001)",
        ]
        assert names == [spec.label() for spec in specs]

    def test_lcg_requires_quadratic_family(self):
        with pytest.raises(InvalidSpec):
            run(RunConfig(problem=ProblemSpec("huber", 10), solver="lcg"))

    @pytest.mark.parametrize("override", [dict(L=5.0), dict(ell=0.5)], ids=["L", "ell"])
    def test_lcg_rejects_moduli_overrides(self, override):
        # lcg reads neither, so an override would be silently dropped
        with pytest.raises(InvalidSpec, match="lcg solver takes no L or ell"):
            RunConfig(problem=ProblemSpec("quad", 10), solver="lcg", **override)

    def test_lcg_builds_its_system_once(self, monkeypatch):
        calls = []
        original = cagopt.problems.quad_diag_system

        def counted(n):
            calls.append(n)
            return original(n)

        # make_quad_diag reaches it through problems, harness through its own name
        monkeypatch.setattr(cagopt.problems, "quad_diag_system", counted)
        monkeypatch.setattr(cagopt.harness, "quad_diag_system", counted)
        assert run(RunConfig(ProblemSpec("quad", 10), "lcg")).status is Status.CONVERGED
        assert calls == [10]

    def test_lcg_json_has_null_moduli(self, tmp_path):
        path = tmp_path / "summary.json"
        run(RunConfig(problem=ProblemSpec("quad", 10), solver="lcg", json_path=str(path)))
        summary = json.loads(path.read_text())
        assert summary["L"] is None and summary["ell"] is None
        assert summary["solver"] == "lcg" and summary["status"] == "converged"

    def test_ncg_rejects_an_ell_override(self):
        # ncg reads no ell: quad n=10 took the same 21 evaluations with ell=5
        with pytest.raises(InvalidSpec, match="^the ncg solver takes no ell$"):
            RunConfig(problem=ProblemSpec("quad", 10), solver="ncg", ell=5.0)
        with pytest.raises(InvalidSpec, match="ncg solver takes no ell"):
            run_config_from_tokens("family=quad n=10 solver=ncg ell=5".split())
        assert RunConfig(problem=ProblemSpec("quad", 10), solver="ncg", L=200.0).L == 200.0

    def test_ncg_json_has_a_null_ell(self, tmp_path):
        path = tmp_path / "summary.json"
        run(RunConfig(problem=ProblemSpec("quad", 10), solver="ncg", json_path=str(path)))
        summary = json.loads(path.read_text())
        assert summary["L"] == 100.0 and summary["ell"] is None
        assert summary["solver"] == "ncg" and summary["status"] == "converged"

    def test_ncg_checks_no_family_ell_against_L(self):
        # quad's ell is 1: an L of 0.5 rejects a cag row, not an ncg row
        with pytest.raises(InvalidSpec, match="ell <= L"):
            run(RunConfig(ProblemSpec("quad", 10), "cag", L=0.5))
        res = run(RunConfig(ProblemSpec("quad", 10), "ncg", L=0.5))
        assert res.status is Status.CONVERGED

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
        for f, row in zip(res.trace.f, rows, strict=True):
            f_text = row.split(",")[2]
            assert float(f_text) == f

    def test_logistic_trace_is_seed_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = ProblemSpec("logistic", 20, m=40, lam=1e-4, seed=9)
        run(RunConfig(problem=spec, solver="ag", gtol=1e-4, trace_path=str(p1)))
        run(RunConfig(problem=spec, solver="ag", gtol=1e-4, trace_path=str(p2)))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("solver, kinds", [
        ("cag+z", "init cg sd ag bar"),  # every phi* finite
        ("ncg", "init cg"),              # every phi* NaN
        ("lcg", "init lcg"),
    ])
    def test_csv_matches_a_rendering_of_the_rows(self, tmp_path, solver, kinds):
        # the writer goes through the csv module; this renders the columns by hand
        if solver == "lcg":
            res = lcg_minimize(quad_diag_system(30), np.ones(30), 1e-10, 100)
        else:
            prob = make_abpdn(36)
            solve = cag_minimize if solver == "cag+z" else ncg_minimize
            res = solve(prob, np.linspace(-0.1, 0.1, 36),
                        SolverConfig(prob.default_L, prob.default_ell, 1e-8, 5000,
                                     conjugate_z=solver == "cag+z"))
        t = res.trace
        assert {kind.value for kind in t.kinds()} == set(kinds.split())
        phi_star = np.asarray(t.phi_star)
        assert (np.isfinite(phi_star) if solver == "cag+z" else np.isnan(phi_star)).all()
        path = tmp_path / "t.csv"
        write_trace_csv(path, t)
        lines = ["iter,evals,f,gnorm,phistar,step"] + [
            f"{i},{e},{f:.17g},{g:.17g},{p:.17g},{k.value}"
            for i, (e, f, g, p, k) in enumerate(zip(t.evals, t.f, t.gnorm, t.phi_star, t.kinds()))
        ]
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    def test_trace_sum_matches_counter(self, tmp_path):
        res = run(RunConfig(problem=ProblemSpec("huber", 50, tau=5.0), solver="cag",
                            gtol=1e-6))
        assert res.trace.evals[-1] == res.evaluations


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

    def test_labels_that_differ_past_six_digits_are_two_instances(self):
        # tau = 2.0000001 and 2.0000002 build two instances with two labels;
        # the ncg row is the only run of the second, so it wins it
        rows = run_suite([RunConfig(ProblemSpec("huber", 50, tau=tau), solver)
                          for tau, solver in ((2.0000001, "cag"), (2.0000002, "ncg"),
                                              (2.0000001, "ncg"))])
        assert [r.problem for r in rows] == [
            "huber(n=50,tau=2.0000001)", "huber(n=50,tau=2.0000002)", "huber(n=50,tau=2.0000001)"]
        assert all(r.status is Status.CONVERGED for r in rows)
        assert [r.best for r in rows] == [True, True, False]

    def test_rows_that_share_a_label_share_one_best_flag(self):
        # interleaved rows of two labels; lambda=-0 and lambda=0 are two
        # labels, so two best flags, though they build one instance
        specs = [ProblemSpec("logistic", 10, lam=lam) for lam in (0.01, -0.0, 0.0)]
        rows = run_suite([RunConfig(specs[i], solver, gtol=1e-6)
                          for i, solver in ((0, "cag"), (1, "ncg"), (0, "ncg"), (2, "ag"),
                                            (0, "ag"), (1, "cag"))])
        assert [r.problem.split(",")[2] for r in rows] == [
            "lambda=0.01", "lambda=-0", "lambda=0.01", "lambda=0", "lambda=0.01", "lambda=-0"]
        assert all(r.status is Status.CONVERGED for r in rows)
        for spec in specs:
            group = [r for r in rows if r.problem == spec.label()]
            assert sum(r.best for r in group) == 1
            assert [r for r in group if r.best][0].evaluations == min(r.evaluations for r in group)

    def test_rows_on_one_instance_build_it_once(self, monkeypatch):
        # one family's rows in a row, then rows that alternate two families,
        # then an lcg row between quad rows, which shares the quad instance's system
        build_system = cagopt.problems._build_quad_diag_system
        for cases in ((("huber", "cag"), ("huber", "ncg"), ("huber", "ag")),
                      (("quad", "cag"), ("huber", "cag"), ("quad", "ncg"), ("huber", "ncg")),
                      (("quad", "cag"), ("quad", "lcg"), ("quad", "ncg"))):
            configs = [RunConfig(problem=ProblemSpec(family, 60), solver=s, gtol=1e-6)
                       for family, s in cases]
            fresh = []
            for config in configs:
                cagopt.problems._built.clear()
                fresh.append(run(config))
            cagopt.problems._built.clear()
            families = {family for family, _ in cases}
            calls = {family: count_builds(monkeypatch, family) for family in families}
            systems = []
            monkeypatch.setattr(cagopt.problems, "_build_quad_diag_system",
                                lambda n, name: systems.append(n) or build_system(n, name))
            rows = run_suite(configs)
            assert {family: len(args) for family, args in calls.items()} == dict.fromkeys(
                families, 1)
            assert systems == ([60] if "quad" in families else [])
            assert ([(r.status, r.iterations, r.evaluations, r.f_final) for r in rows]
                    == [(r.status, r.iterations, r.evaluations, r.f_final) for r in fresh])
            monkeypatch.undo()

        # an lcg row on another n frees the held system before it builds the next
        held = weakref.ref(quad_diag_system(60))
        alive_at_build = []
        monkeypatch.setattr(cagopt.problems, "_build_quad_diag_system",
                            lambda n, name: alive_at_build.append(held() is not None)
                            or build_system(n, name))
        assert run(RunConfig(ProblemSpec("quad", 61), "lcg", gtol=1e-6)).status is Status.CONVERGED
        assert alive_at_build == [False]

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

    def test_a_non_finite_start_diverges_and_does_not_abort_the_suite(self, tmp_path):
        # f(0) = |b|^2/2 + lambda n sqrt(delta) overflows; the run ends after
        # its counted start evaluation and writes its outputs like any run
        overflow = ProblemSpec("abpdn", 4, lam=1e200, delta=1e300)
        good = RunConfig(ProblemSpec("quad", 10), "cag")
        trace = tmp_path / "t.csv"
        rows = run_suite([good, RunConfig(overflow, "cag", trace_path=str(trace),
                                          json_path=str(tmp_path / "s.json")),
                          RunConfig(overflow, "ncg"), good])
        assert [r.status for r in rows] == [Status.CONVERGED, Status.DIVERGED, Status.DIVERGED,
                                            Status.CONVERGED]
        assert [r.problem for r in rows[1:3]] == ["abpdn(n=4,lambda=1e+200,delta=1e+300)"] * 2
        assert [(r.iterations, r.evaluations) for r in rows[1:3]] == [(0, 1)] * 2
        assert trace.read_text() == "iter,evals,f,gnorm,phistar,step\n0,1,nan,nan,nan,init\n"
        assert json.loads((tmp_path / "s.json").read_text())["evaluations"] == 1
        assert "diverged" in format_suite_table(rows)

    def test_a_non_finite_summary_is_strict_json(self, tmp_path):
        # RFC 8259 has no NaN: the diverged start's f_final and gnorm_final read null
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        path = tmp_path / "s.json"
        run(RunConfig(ProblemSpec("abpdn", 4, lam=1e200, delta=1e300), "cag", json_path=str(path)))
        summary = json.loads(path.read_text(), parse_constant=refuse)
        assert summary["status"] == "diverged" and summary["evaluations"] == 1
        assert summary["f_final"] is None and summary["gnorm_final"] is None
        assert summary["L"] == 1.0 + 1e200 / math.sqrt(1e300) and summary["gtol"] == 1e-8

    @pytest.mark.parametrize("key", ["trace_path", "json_path"])
    def test_unwritable_output_path_does_not_abort_the_suite(self, tmp_path, monkeypatch, key):
        # the path is rejected before the row builds or solves anything
        builds = count_builds(monkeypatch, "quad")
        bad = RunConfig(problem=ProblemSpec("quad", 10), solver="cag",
                        **{key: str(tmp_path / "missing" / "out")})
        good = RunConfig(problem=ProblemSpec("quad", 10), solver="ncg")
        rows = run_suite([bad, good])
        assert [r.status for r in rows] == [Status.INVALID, Status.CONVERGED]
        assert rows[0].evaluations == 0 and len(builds) == 1

    def test_trace_and_json_naming_one_file_make_an_invalid_row(self, tmp_path, monkeypatch):
        # else the JSON summary would overwrite the CSV; "sub/../out"
        # resolves to the same file as "out"
        (tmp_path / "sub").mkdir()
        builds = count_builds(monkeypatch, "quad")
        out, same = str(tmp_path / "out"), str(tmp_path / "sub" / ".." / "out")
        bad = RunConfig(ProblemSpec("quad", 10), "cag", trace_path=out, json_path=same)
        good = RunConfig(problem=ProblemSpec("quad", 10), solver="ncg")
        message = f"{same} would overwrite the trace= file {out}"
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            run(bad)
        rows = run_suite([bad, good])
        assert [r.status for r in rows] == [Status.INVALID, Status.CONVERGED]
        assert len(builds) == 1 and not (tmp_path / "out").exists()

    def test_row_naming_an_earlier_rows_output_is_invalid_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        # else the later row replaces the earlier row's file: both rows
        # used to end converged, and only the second file was left
        trace = str(tmp_path / "t.csv")
        configs = [RunConfig(ProblemSpec("quad", 10), "cag", trace_path=trace),
                   RunConfig(ProblemSpec("quad", 12), "ncg", json_path=trace),
                   RunConfig(ProblemSpec("quad", 14), "ag", trace_path=str(tmp_path / "u.csv"))]
        cagopt.problems._built.clear()
        builds = count_builds(monkeypatch, "quad")
        rows = run_suite(configs)
        assert [r.status for r in rows] == [Status.CONVERGED, Status.INVALID, Status.CONVERGED]
        assert rows[1].evaluations == 0 and [args["n"] for args in builds] == [10, 14]
        written = (tmp_path / "t.csv").read_bytes()
        run(RunConfig(ProblemSpec("quad", 10), "cag", trace_path=str(tmp_path / "ref.csv")))
        assert written == (tmp_path / "ref.csv").read_bytes()

    def test_output_path_that_is_a_directory_is_invalid(self, tmp_path):
        with pytest.raises(InvalidSpec, match="cannot write"):
            run(RunConfig(problem=ProblemSpec("quad", 10), solver="lcg",
                          trace_path=str(tmp_path)))

    def test_writable_output_paths_get_both_files(self, tmp_path):
        trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
        run(RunConfig(problem=ProblemSpec("quad", 10), solver="cag",
                      trace_path=str(trace), json_path=str(summary)))
        assert trace.read_text().startswith("iter,evals,f,gnorm,phistar,step")
        assert json.loads(summary.read_text())["status"] == "converged"

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


class TestSummaryLayout:
    """The keys, headers and cell formats that the json= file, the suite table
    and the suite CSV print, pinned whole."""

    @pytest.mark.parametrize("solver,L,ell", [("cag", 100.0, 1.0), ("lcg", None, None),
                                              ("ncg", 100.0, None)])
    def test_json_keys_in_order(self, tmp_path, solver, L, ell):
        path = tmp_path / "summary.json"
        run(RunConfig(ProblemSpec("quad", 10), solver, json_path=str(path)))
        summary = json.loads(path.read_text())
        assert list(summary) == ["L", "ell", "evaluations", "f_final", "gnorm_final", "gtol",
                                 "iterations", "problem", "solver", "status"]
        assert (summary["L"], summary["ell"], summary["gtol"]) == (L, ell, 1e-8)
        assert (summary["problem"], summary["solver"]) == ("quad(n=10)", solver)
        assert path.read_text().startswith('{\n  "L": ')

    def test_table_and_csv_layout(self, tmp_path):
        rows = [SuiteRow("quad(n=10)", "cag", Status.CONVERGED, 6, 13, -0.25000000000000006,
                         3e-9, 0.012, best=True),
                SuiteRow("quad(n=10)", "ag", Status.INVALID, 0, 0, math.nan, math.nan, 1.5)]
        assert format_suite_table(rows).splitlines() == [
            "problem     solver  status     iters  evals  f_final        gnorm_final  time_s  best",
            "quad(n=10)  cag     converged  6      13     -2.500000e-01  3.000e-09    0.01    *",
            "quad(n=10)  ag      invalid    0      0      nan            nan          1.50",
        ]
        assert format_suite_table([]) == (
            "problem  solver  status  iters  evals  f_final  gnorm_final  time_s  best")
        out = tmp_path / "suite.csv"
        write_suite_csv(out, rows)
        assert out.read_bytes().decode().split("\r\n") == [
            "problem,solver,status,iterations,evaluations,f_final,gnorm_final,wall_time,best",
            "quad(n=10),cag,converged,6,13,-0.25000000000000006,3e-09,0.012,1",
            "quad(n=10),ag,invalid,0,0,nan,nan,1.500,0",
            "",
        ]


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
            "family=quad n=10 solver=lcg L=5",  # lcg reads no moduli
            "family=quad n=10 solver=lcg ell=0.5",
            "family=quad n=0 solver=cag",  # n below 1
            "family=quad n=10",  # a required key left out
            "family=quad solver=cag",
            "n=10 solver=cag",
        ],
    )
    def test_invalid_row_fails_before_any_run(self, tmp_path, row):
        # the suite file is rejected whole at parse time, so run_suite never
        # meets a row that would raise midway
        cfg = tmp_path / "suite.txt"
        cfg.write_text("family=quad n=10 solver=cag\n" + row + "\n")
        with pytest.raises(InvalidSpec):
            parse_suite_config(cfg)

    @pytest.mark.parametrize(
        "tokens,key",
        [
            ("solver=cag L=500 L=100", "L"),
            ("solver=cag trace=", "trace"),
            ("solver=cag json=", "json"),
            ("solver=cag conjugate_z=ture", "conjugate_z"),
            ("solver=ag conjugate_z=off", "conjugate_z"),
        ],
        ids=["repeated-key", "empty-trace", "empty-json", "conjugate_z-typo", "conjugate_z-off"],
    )
    def test_malformed_token_names_its_key_and_line(self, tmp_path, tokens, key):
        cfg = tmp_path / "suite.txt"
        cfg.write_text(f"family=quad n=10 solver=cag\nfamily=quad n=10 {tokens}\n")
        with pytest.raises(InvalidSpec, match=f"^{re.escape(str(cfg))}:2: .*{key}"):
            parse_suite_config(cfg)

    @pytest.mark.parametrize(
        "first,second,out,message",
        [
            ("", "", "suite.txt", "--out suite.txt would overwrite the suite file suite.txt"),
            ("", "trace=suite.txt", None,
             "suite.txt:2: suite.txt would overwrite the suite file suite.txt"),
            ("", "json=./suite.txt", "summary.csv",
             "suite.txt:2: ./suite.txt would overwrite the suite file suite.txt"),
            ("", "trace=out.csv", "out.csv",
             "suite.txt:2: out.csv would overwrite the --out file out.csv"),
            ("", "trace=t.csv json=sub/../out.csv", "out.csv",
             "suite.txt:2: sub/../out.csv would overwrite the --out file out.csv"),
            ("trace=t.csv", "json=t.csv", None,
             "suite.txt:2: t.csv would overwrite the trace= file t.csv of line 1"),
            ("json=s.json", "json=sub/../s.json", None,
             "suite.txt:2: sub/../s.json would overwrite the json= file s.json of line 1"),
            ("trace=t.csv json=./t.csv", "", None,
             "suite.txt:1: ./t.csv would overwrite the trace= file t.csv of line 1"),
        ],
        ids=["out-is-the-suite-file", "trace-is-the-suite-file", "json-is-the-suite-file",
             "trace-is-the-out-file", "json-is-the-out-file", "trace-then-json",
             "json-then-json", "trace-and-json-of-one-row"],
    )
    def test_output_that_would_overwrite_another_file_fails_before_any_build(
        self, tmp_path, monkeypatch, first, second, out, message
    ):
        # paths relative to the working directory, compared once resolved
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        text = f"family=quad n=10 solver=cag {first}\nfamily=quad n=10 solver=ncg {second}\n"
        (tmp_path / "suite.txt").write_text(text)
        builds = count_builds(monkeypatch, "quad")
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            parse_suite_config("suite.txt", out)
        assert builds == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "suite.txt"]

    def test_suite_of_two_rows_naming_one_trace_file_runs_no_row(self, tmp_path, monkeypatch):
        # both rows used to end converged, the second trace overwriting the first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "suite.txt").write_text(
            "family=quad n=10 solver=cag trace=t.csv\nfamily=quad n=12 solver=ncg trace=t.csv\n")
        builds = count_builds(monkeypatch, "quad")
        message = "suite.txt:2: t.csv would overwrite the trace= file t.csv of line 1"
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            run_suite(parse_suite_config("suite.txt"))
        assert builds == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.txt"]

    def test_overwrite_error_names_the_later_and_the_earlier_line(self, tmp_path, monkeypatch):
        # it named neither: "t.csv would overwrite the trace= file t.csv";
        # and it came after the L=abc error of a later line
        monkeypatch.chdir(tmp_path)
        (tmp_path / "suite.txt").write_text(
            "# runs\n\nfamily=quad n=10 solver=cag trace=t.csv\n# again\n"
            "family=quad n=12 solver=ncg trace=./t.csv\nfamily=quad n=10 solver=cag L=abc\n")
        message = "suite.txt:5: ./t.csv would overwrite the trace= file t.csv of line 3"
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            parse_suite_config("suite.txt")

    @pytest.mark.parametrize("tokens,missing", [
        ("n=10", "family=... solver=..."),
        ("family=quad", "n=... solver=..."),
        ("solver=cag gtol=1e-6", "family=... n=..."),
        ("", "family=... n=... solver=..."),
    ])
    def test_one_message_names_every_missing_key(self, tokens, missing):
        with pytest.raises(InvalidSpec, match=f"^missing {re.escape(missing)}$"):
            run_config_from_tokens(tokens.split())

    @pytest.mark.parametrize(
        "value,expected",
        [("1", True), ("true", True), ("Yes", True), ("0", False), ("FALSE", False), ("no", False)],
    )
    def test_conjugate_z_values(self, value, expected):
        config = run_config_from_tokens(f"family=quad n=10 solver=cag conjugate_z={value}".split())
        assert config.conjugate_z is expected

    def test_unset_keys_keep_the_dataclass_defaults(self):
        assert run_config_from_tokens(["family=huber", "n=20", "solver=ncg"]) == RunConfig(
            ProblemSpec("huber", 20), "ncg"
        )

    def test_each_run_key_sets_its_field(self):
        config = run_config_from_tokens(
            "family=quad n=10 solver=cag gtol=1e-6 max_evals=77 L=200 ell=0.5 conjugate_z=1 "
            "trace=t.csv json=s.json".split()
        )
        assert config == RunConfig(ProblemSpec("quad", 10), "cag", gtol=1e-6, max_evals=77,
                                   L=200.0, ell=0.5, conjugate_z=True, trace_path="t.csv",
                                   json_path="s.json")

    def test_ell_above_default_L_fails_at_its_row(self):
        # the one bad row RunConfig cannot reject: the family's default L
        # (n^2 = 100 here) is known only once the problem is built
        config = RunConfig(problem=ProblemSpec("quad", 10), solver="cag", ell=200.0)
        with pytest.raises(InvalidSpec):
            run(config)


@pytest.mark.parametrize("L", [1e-200, 1e-160, 1e-101, 1e101, 1e155, 1e300])
def test_run_config_rejects_L_outside_the_estimate_sequences_range(L):
    with pytest.raises(InvalidSpec, match="L must be positive"):
        RunConfig(ProblemSpec("quad", 10), "cag", L=L, ell=0.0)


@pytest.mark.parametrize("L", [1e-100, 1e100])
def test_L_at_the_ends_of_its_range_ends_every_run_with_a_status(L):
    # outside this range, compute_theta_gamma's b^2 + 4 L gamma over- or
    # underflowed: a numpy warning and a ZeroDivisionError at L = 1e155, an
    # InvalidState at L = 1e-160
    # ell = 0 stays below L; ncg takes no ell and checks none
    configs = [RunConfig(ProblemSpec(family, n), solver, L=L, max_evals=300, conjugate_z=z,
                         ell=None if solver == "ncg" else 0.0)
               for family, n in (("quad", 10), ("logistic", 10), ("abpdn", 16))
               for solver, z in (("cag", False), ("cag", True), ("ncg", False), ("ag", False))]
    rows = run_suite(configs)
    assert all(r.status is not Status.INVALID for r in rows)
    assert all(r.evaluations > 0 for r in rows)


def _decades(*odd):
    """The powers of ten across the whole double range, 1e-310 to 1e308, as
    a suite line spells them, or one of the ``odd`` values."""
    return st.sampled_from([f"1e{e}" for e in range(-310, 309)] + list(odd))


# Values of the optional keys of a suite line, some out of range or not
# numbers at all.
_VALUES = {
    "m": st.sampled_from([str(m) for m in range(1, 41)] + ["0", "-1"]),
    "lambda": _decades("0", "-1", "nan", "inf"),
    "delta": _decades("0", "nan"),
    "sigma": _decades("0", "inf"),
    "tau": _decades("0", "-2", "inf"),
    "seed": st.integers(0, 2**40).map(str),
    "gtol": _decades("0"),
    "L": _decades("0", "-1", "nan"),
    "ell": st.one_of(st.just("0"), _decades("-1")),
    "conjugate_z": st.sampled_from(["1", "no", "true", "maybe"]),
}
_TAKES = {"quad": [], "huber": ["tau"], "logistic": ["m", "lambda", "sigma", "seed"],
          "abpdn": ["lambda", "delta"]}
# Tokens that break a line: no key, no value, an unknown key, values that
# are not numbers, and a repeated key.
_MALFORMED = ["=5", "n", "max_evals=", "bogus=1", "L=abc", "seed=1.5", "family=quad"]


@st.composite
def suite_lines(draw, family):
    """The tokens of one suite line of ``family``: n, a solver and a small
    budget, a drawn subset of the other keys that the family and the solver
    take, and perhaps a malformed token, in a drawn order."""
    solver = draw(st.sampled_from(["cag", "ag", "ncg"] + (["lcg"] if family == "quad" else [])))
    n = draw(st.sampled_from([4, 9, 16, 25]) if family == "abpdn" else st.integers(1, 30))
    keys = _TAKES[family] + ["gtol"] + {"lcg": [], "ncg": ["L"]}.get(solver, ["L", "ell"])
    keys += ["conjugate_z"] if solver == "cag" else []
    chosen = draw(st.fixed_dictionaries({}, optional={key: _VALUES[key] for key in keys}))
    tokens = [f"family={family}", f"n={n}", f"solver={solver}",
              f"max_evals={draw(st.integers(1, 40))}"]
    tokens += [f"{key}={value}" for key, value in chosen.items()]
    tokens += filter(None, [draw(st.sampled_from([None] * 8 + _MALFORMED))])
    return draw(st.permutations(tokens))


@pytest.mark.parametrize("family", sorted(_TAKES))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_a_suite_line_gives_a_value_error_or_a_row_with_a_status(family, data):
    # never another exception and never a warning: a logistic sigma of 1e77
    # or more overflowed the build with numpy warnings
    try:
        config = run_config_from_tokens(data.draw(suite_lines(family)))
    except ValueError:  # InvalidSpec is one
        return
    [row] = run_suite([config])
    assert isinstance(row.status, Status)
