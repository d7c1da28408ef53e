import csv

import pytest
from click.testing import CliRunner

from cagopt.cli import main


def test_run_prints_converged_status():
    result = CliRunner().invoke(main, ["run", "--family", "quad", "--n", "10", "--solver", "cag"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("cag: converged")


def test_run_names_conjugate_z_mode():
    result = CliRunner().invoke(
        main, ["run", "--family", "quad", "--n", "10", "--solver", "cag", "--conjugate-z"]
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("cag+z: converged")


def test_run_capped_by_budget_exits_nonzero():
    result = CliRunner().invoke(
        main, ["run", "--family", "quad", "--n", "10", "--solver", "cag", "--max-evals", "3"]
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
    [(["--L", "0"], "L must be positive"), (["--ell", "200"], "need 0 <= ell <= L")],
    ids=["L-zero", "ell-above-default-L"],
)
def test_run_with_invalid_moduli_is_a_usage_error(override, message):
    # --L 0 fails in RunConfig; --ell 200 only once quad's default L = 100 is known
    result = CliRunner().invoke(
        main, ["run", "--family", "quad", "--n", "10", "--solver", "cag", *override]
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
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
