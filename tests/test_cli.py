import csv
import re

import pytest
from click.testing import CliRunner

from cagopt import ProblemSpec, RunConfig, run
from cagopt.cli import main
from cagopt.harness import RUN_KEYS
from cagopt.problems import PROBLEM_KEYS

from conftest import count_builds


def test_run_prints_converged_status():
    result = CliRunner().invoke(main, ["run", "family=quad", "n=10", "solver=cag"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("cag: converged")


def test_run_names_conjugate_z_mode():
    result = CliRunner().invoke(
        main, ["run", "family=quad", "n=10", "solver=cag", "conjugate_z=true"]
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("cag+z: converged")


def test_run_capped_by_budget_exits_nonzero():
    result = CliRunner().invoke(
        main, ["run", "family=quad", "n=10", "solver=cag", "max_evals=3"]
    )
    assert result.exit_code == 1
    assert "budget_exhausted" in result.output


@pytest.mark.parametrize(
    "args,exit_code,line",
    [
        ("family=huber n=10 tau=2.5 solver=ncg", 0,
         "ncg: converged  iterations=10  evaluations=21  f=2.612500000e+02  gnorm=0.000e+00"),
        ("family=huber n=10 tau=1 solver=cag conjugate_z=true", 0,
         "cag+z: converged  iterations=0  evaluations=1  f=1.210000000e+02  gnorm=0.000e+00"),
        ("family=quad n=10 solver=cag max_evals=3", 1,
         "cag: budget_exhausted  iterations=1  evaluations=3  f=-7.520579265e-02  gnorm=2.001e+00"),
    ],
    ids=["ncg", "cag+z-at-a-minimiser", "budget-exit"],
)
def test_run_prints_one_summary_line(args, exit_code, line):
    # tau <= 1 makes x0 = 0 a minimiser, at f = sum(2 b_i - 1) = 121 on n = 10
    result = CliRunner().invoke(main, ["run", *args.split()])
    assert (result.exit_code, result.output) == (exit_code, line + "\n")


def test_run_from_a_non_finite_start_exits_1_with_a_diverged_line():
    # abpdn's f(0) = |b|^2/2 + lambda n sqrt(delta) overflows: the run ends
    # after its start evaluation, as any diverged run does
    result = CliRunner().invoke(main, ["run", "family=abpdn", "n=4", "lambda=1e200",
                                       "delta=1e300", "solver=cag"])
    assert (result.exit_code, result.output) == (
        1, "cag: diverged  iterations=0  evaluations=1  f=nan  gnorm=nan\n")


def test_suite_with_a_non_finite_start_prints_every_row(tmp_path):
    config = tmp_path / "suite.txt"
    config.write_text("family=abpdn n=4 lambda=1e200 delta=1e300 solver=cag\n"
                      "family=quad n=10 solver=cag\n")
    result = CliRunner().invoke(main, ["suite", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert [line.split()[2] for line in result.output.splitlines()[1:]] == [
        "diverged", "converged"]


def test_suite_prints_table_and_writes_csv(tmp_path):
    config = tmp_path / "suite.txt"
    config.write_text(
        "family=quad n=10 solver=cag\n"
        "family=quad n=10 solver=lcg\n"
        "family=huber n=20 tau=2 solver=ag gtol=1e-6\n"
    )
    out = tmp_path / "summary.csv"
    result = CliRunner().invoke(main, ["suite", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].split()[:3] == ["problem", "solver", "status"]
    assert len(lines) == 4
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["solver"] for r in rows] == ["cag", "lcg", "ag"]
    assert {r["status"] for r in rows} == {"converged"}


@pytest.mark.parametrize(
    "override,message",
    [(["L=0"], "L must be positive"), (["ell=200"], "need 0 <= ell <= L")],
    ids=["L-zero", "ell-above-default-L"],
)
def test_run_with_invalid_moduli_is_a_usage_error(override, message):
    # L=0 fails in RunConfig; ell=200 only once quad's default L = 100 is known
    result = CliRunner().invoke(
        main, ["run", "family=quad", "n=10", "solver=cag", *override]
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("override", [["L=5"], ["ell=0.5"]], ids=["L", "ell"])
def test_lcg_with_moduli_override_is_a_usage_error(override):
    result = CliRunner().invoke(
        main, ["run", "family=quad", "n=10", "solver=lcg", *override]
    )
    assert result.exit_code == 2, result.output
    assert "lcg solver takes no L or ell" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_ncg_with_an_ell_override_is_a_usage_error():
    # it ran, took the 21 evaluations of the run without ell and wrote "ell": 5.0
    result = CliRunner().invoke(main, ["run", "family=quad", "n=10", "solver=ncg", "ell=5"])
    assert result.exit_code == 2, result.output
    assert "ncg solver takes no ell" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_suite_with_invalid_row_is_a_usage_error(tmp_path):
    config = tmp_path / "suite.txt"
    config.write_text("family=quad n=10 solver=cag L=0\n")
    result = CliRunner().invoke(main, ["suite", "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert "L must be positive" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "row,message",
    [
        ("family=quad n=10 solver=cag L=abc", "could not convert string to float: 'abc'"),
        ("family=quad n=abc solver=cag", "invalid literal for int()"),
        ("family=quad n=10 solver=cag max_evals=1e3", "invalid literal for int()"),
        ("family=quad n=10 solver=cag L=0", "L must be positive"),
    ],
    ids=["L-not-a-number", "n-not-a-number", "max_evals-not-an-int", "L-zero"],
)
def test_suite_row_error_names_its_line(tmp_path, row, message):
    config = tmp_path / "suite.txt"
    config.write_text("# a comment line\nfamily=quad n=10 solver=ag\n" + row + "\n")
    result = CliRunner().invoke(main, ["suite", "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert f"{config}:3: {message}" in result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


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
def test_run_rejects_a_malformed_token(tokens, key):
    result = CliRunner().invoke(main, ["run", "family=quad", "n=10", *tokens.split()])
    assert result.exit_code == 2, result.output
    assert key in result.output.splitlines()[-1]
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_run_writes_the_trace_and_summary_that_harness_run_writes(tmp_path):
    result = CliRunner().invoke(
        main, ["run", "family=huber", "n=20", "tau=2", "solver=cag", "conjugate_z=yes",
               f"trace={tmp_path / 'cli.csv'}", f"json={tmp_path / 'cli.json'}"]
    )
    assert result.exit_code == 0, result.output
    run(RunConfig(ProblemSpec("huber", 20, tau=2.0), "cag", conjugate_z=True,
                  trace_path=str(tmp_path / "run.csv"), json_path=str(tmp_path / "run.json")))
    for suffix in ("csv", "json"):
        written = (tmp_path / f"cli.{suffix}").read_bytes()
        assert written and written == (tmp_path / f"run.{suffix}").read_bytes()


def test_run_with_an_unwritable_output_path_is_a_usage_error(tmp_path):
    path = tmp_path / "missing" / "j.json"
    result = CliRunner().invoke(main, ["run", "family=quad", "n=10", "solver=cag", f"json={path}"])
    assert result.exit_code == 2, result.output
    assert f"cannot write {path}" in result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_run_with_trace_and_json_naming_one_file_is_a_usage_error(tmp_path):
    path = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["run", "family=quad", "n=10", "solver=cag", f"trace={path}", f"json={path}"])
    assert result.exit_code == 2, result.output
    assert f"{path} would overwrite the trace= file {path}" in result.output
    assert not path.exists()


def test_suite_row_with_an_unwritable_trace_path_is_invalid_and_the_next_row_runs(tmp_path):
    config = tmp_path / "suite.txt"
    config.write_text(
        f"family=quad n=10 solver=cag trace={tmp_path / 'missing' / 't.csv'}\n"
        "family=quad n=10 solver=ncg\n"
    )
    out = tmp_path / "summary.csv"
    result = CliRunner().invoke(main, ["suite", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["solver"], r["status"]) for r in rows] == [("cag", "invalid"), ("ncg", "converged")]


@pytest.mark.parametrize(
    "config,out,message",
    [
        ("suite.txt", "missing/summary.csv", "cannot write"),
        ("suite.txt", ".", "cannot write"),
        (".", None, "cannot read"),
        ("binary.txt", None, "cannot read"),
    ],
    ids=["out-in-a-missing-directory", "out-is-a-directory", "config-is-a-directory",
         "config-is-not-text"],
)
def test_suite_with_a_bad_path_is_a_usage_error_before_any_row_runs(
    tmp_path, monkeypatch, config, out, message
):
    (tmp_path / "suite.txt").write_text("family=quad n=10 solver=cag\n")
    (tmp_path / "binary.txt").write_bytes(b"\xfffamily=quad n=10 solver=cag\n")
    builds = count_builds(monkeypatch, "quad")
    bad = tmp_path / (out or config)
    args = ["suite", "--config", str(tmp_path / config)]
    if out:
        args += ["--out", str(tmp_path / out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"{message} {bad}" in result.output
    assert builds == []
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "row_outputs,out,message",
    [
        ("", "suite.txt", "--out suite.txt would overwrite the suite file suite.txt"),
        ("trace=suite.txt", None, "suite.txt would overwrite the suite file suite.txt"),
        ("json=./suite.txt", "summary.csv", "./suite.txt would overwrite the suite file"),
        ("trace=out.csv", "out.csv", "out.csv would overwrite the --out file out.csv"),
        ("trace=t.csv json=sub/../out.csv", "out.csv",
         "sub/../out.csv would overwrite the --out file out.csv"),
    ],
    ids=["out-is-the-suite-file", "trace-is-the-suite-file", "json-is-the-suite-file",
         "trace-is-the-out-file", "json-is-the-out-file"],
)
def test_suite_output_that_would_overwrite_another_file_is_a_usage_error_before_any_row_runs(
    tmp_path, monkeypatch, row_outputs, out, message
):
    # paths relative to the working directory, compared once resolved
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    text = f"family=quad n=10 solver=ncg\nfamily=quad n=10 solver=cag {row_outputs}\n"
    (tmp_path / "suite.txt").write_text(text)
    builds = count_builds(monkeypatch, "quad")
    args = ["suite", "--config", "suite.txt"] + (["--out", out] if out else [])
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert builds == []
    assert (tmp_path / "suite.txt").read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "suite.txt"]


@pytest.mark.parametrize(
    "outputs,message",
    [
        (("trace=t.csv", "json=t.csv"), "t.csv would overwrite the trace= file t.csv"),
        (("json=s.json", "json=sub/../s.json"),
         "sub/../s.json would overwrite the json= file s.json"),
        (("trace=t.csv json=./t.csv", ""), "./t.csv would overwrite the trace= file t.csv"),
    ],
    ids=["trace-then-json", "json-then-json", "trace-and-json-of-one-row"],
)
def test_rows_naming_one_output_file_are_a_usage_error_before_any_row_runs(
    tmp_path, monkeypatch, outputs, message
):
    # else the later write replaces the earlier: the suite used to exit 0
    # and keep only the second file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    first, second = outputs
    text = f"family=quad n=10 solver=cag {first}\nfamily=quad n=10 solver=ncg {second}\n"
    (tmp_path / "suite.txt").write_text(text)
    builds = count_builds(monkeypatch, "quad")
    result = CliRunner().invoke(main, ["suite", "--config", "suite.txt"])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert builds == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "suite.txt"]


def test_run_help_names_every_key():
    text = CliRunner().invoke(main, ["run", "--help"]).output
    for key in PROBLEM_KEYS | RUN_KEYS:
        assert re.search(rf"\b{key}\b", text), key


def test_run_value_that_is_not_a_number_is_a_usage_error():
    result = CliRunner().invoke(main, ["run", "family=quad", "n=10", "solver=cag", "L=abc"])
    assert result.exit_code == 2, result.output
    assert "could not convert string to float: 'abc'" in result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
