"""Command-line interface: subcommands, outputs, and exit codes."""

from pathlib import Path

import pytest

from ecomp.cli import main
from ecomp.runner import RESULT_COLUMNS, parse_results

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MICRO = """
kind = two_cell_sweep
sum_energy = 10
sweep_points = 2
betas = 0.5, 1
cross_gain = 0.5
n_realizations = 2
seed = 5
"""


def _micro_path(tmp_path):
    path = tmp_path / "micro.scn"
    path.write_text(MICRO)
    return str(path)


def test_validate_ok(capsys):
    rc = main(["validate", str(SCENARIO_DIR / "two_cell_sweep.scn")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("ok: two_cell_sweep")


def test_validate_missing_file(capsys):
    rc = main(["validate", "no/such/file.scn"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_validate_bad_scenario(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("kind = two_cell_sweep\nbetas = 0, 2\n")
    rc = main(["validate", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, raw", [
    ("n_realizations", "2.5"),
    ("sum_energy", "abc"),
    ("mixes", "a:b; 1:0; 0:1"),
    ("schemes", "joint@x"),
    ("beta", "high"),
])
def test_validate_malformed_number_is_a_parse_error(tmp_path, capsys, key, raw):
    kind = "three_cell_profile" if key == "mixes" else "two_cell_sweep"
    path = tmp_path / "bad.scn"
    path.write_text(f"kind = {kind}\nbetas = 0.5\n{key} = {raw}\n")
    rc = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {path}: {key}: ")

def test_run_writes_csv(tmp_path):
    out = tmp_path / "out.csv"
    rc = main(["run", _micro_path(tmp_path), "--out", str(out)])
    assert rc == 0
    table = parse_results(out)
    assert len(table) == 4  # 2 points x 2 beta values
    assert {row.scheme for row in table.rows} == {"joint@0.5", "joint@1"}


def test_run_to_stdout(tmp_path, capsys):
    rc = main(["run", _micro_path(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 5
    # Without --out the same bytes go to stdout, in either format.
    for fmt in ("csv", "jsonl"):
        out = tmp_path / f"out.{fmt}"
        assert main(["run", _micro_path(tmp_path), "--format", fmt]) == 0
        printed = capsys.readouterr().out
        assert main(["run", _micro_path(tmp_path), "--format", fmt,
                     "--out", str(out)]) == 0
        assert printed.encode() == out.read_bytes()


def test_run_overrides_seed_and_realizations(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["run", _micro_path(tmp_path), "--out", str(out_a),
          "--seed", "123", "--realizations", "3"])
    main(["run", _micro_path(tmp_path), "--out", str(out_b),
          "--seed", "123", "--realizations", "3"])
    assert out_a.read_text() == out_b.read_text()
    assert parse_results(out_a).rows[0].n == 3


def test_run_jsonl_format(tmp_path):
    out = tmp_path / "out.jsonl"
    rc = main(["run", _micro_path(tmp_path), "--format", "jsonl",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("{")


def test_region_boundary_output(tmp_path):
    out = tmp_path / "region.csv"
    rc = main(["region", "--budgets", "10,5", "--beta", "0.8",
               "--samples", "11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p1,p2"
    assert len(lines) == 12
    p1 = [float(line.split(",")[0]) for line in lines[1:]]
    assert p1 == sorted(p1)


def test_region_rejects_bad_budgets(capsys):
    rc = main(["region", "--budgets", "10", "--beta", "0.5"])
    assert rc == 1
    assert "two values" in capsys.readouterr().err


def test_region_rejects_bad_beta(capsys):
    rc = main(["region", "--budgets", "10,5", "--beta", "1.5"])
    assert rc == 1


def test_runtime_error_maps_to_exit_2(tmp_path, monkeypatch, capsys):
    import ecomp.cli as cli

    def boom(*a, **k):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "run_scenario", boom)
    rc = main(["run", _micro_path(tmp_path)])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err
