import csv

from click.testing import CliRunner

from cagopt.cli import main


def test_run_prints_converged_status():
    result = CliRunner().invoke(main, ["run", "--family", "quad", "--n", "10", "--solver", "cag"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("cag: converged")


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
