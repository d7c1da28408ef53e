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
