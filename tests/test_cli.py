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


@pytest.mark.parametrize("name, curves", [("two_cell_sweep.scn", 4),
                                          ("three_cell_profile.scn", 4)])
def test_validate_counts_the_curves_a_run_emits(capsys, tmp_path, name, curves):
    # A two_cell_sweep emits one joint curve per betas entry.
    assert main(["validate", str(SCENARIO_DIR / name)]) == 0
    assert f", {curves} scheme(s), " in capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert main(["run", str(SCENARIO_DIR / name), "--realizations", "1",
                 "--out", str(out)]) == 0
    assert len({row.scheme for row in parse_results(out).rows}) == curves


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
    # Each file holds only keys its kind reads.
    if key in ("mixes", "schemes", "beta"):
        head = "kind = three_cell_profile\n"
    else:
        head = "kind = two_cell_sweep\nbetas = 0.5\n"
    path = tmp_path / "bad.scn"
    path.write_text(f"{head}{key} = {raw}\n")
    rc = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {path}: {key}: ")


@pytest.mark.parametrize("text", [
    "kind = two_cell_sweep\nbetas = 0.5\nbeta = 0.3\n",
    "kind = two_cell_random\nenergy_db = 0, 10\nbetas = 0.3\n",
    "kind = three_cell_profile\nenergy_db = 0, 10\n",
    "kind = three_cell_sweep\nenergy_db = 0, 10\nebar_dbw = 20\n",
    "kind = two_cell_sweep\nbetas = 0.5\nnoise = 2\nnoise_dbm = -85\n",
    "kind = three_cell_profile\nmixes = -1:1; 1:1; 1:1\n",
], ids=["sweep-beta", "random-betas", "profile-energy_db", "sweep3-ebar_dbw",
        "noise-and-noise_dbm", "negative-mix"])
def test_validate_rejects_unread_keys_double_noise_and_negative_mixes(
        tmp_path, capsys, text):
    path = tmp_path / "bad.scn"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("text", [
    "kind = two_cell_sweep\nbetas = 0.5\nseed = -1\n",
    "kind = three_cell_profile\nn_mt = 5\n",
], ids=["negative-seed", "uneven-cells"])
def test_validate_and_run_reject_what_a_run_cannot_draw(tmp_path, capsys, text):
    path = tmp_path / "bad.scn"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--realizations", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count(f"error: {path}: ") == 2 and "runtime error" not in err


def test_run_rejects_a_profile_value_that_is_not_finite(tmp_path, capsys):
    profile = tmp_path / "profile.csv"
    profile.write_text("timestamp,wind,solar\n2013-10-01T00:00,0.5,0.2\n"
                       "2013-10-01T00:15,nan,0.1\n")
    path = tmp_path / "nan.scn"
    path.write_text(f"kind = three_cell_profile\nprofile = {profile}\n")
    assert main(["run", str(path), "--realizations", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {profile}: line 3: ")


def test_run_rejects_a_negative_seed_override(tmp_path, capsys):
    assert main(["run", _micro_path(tmp_path), "--seed", "-2"]) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"


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


@pytest.mark.parametrize("beta", ["0", "0.8"])
def test_region_prints_samples_points_and_rejects_fewer_than_3(capsys, beta):
    assert main(["region", "--budgets", "10,5", "--beta", beta, "--samples", "101"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 102
    assert main(["region", "--budgets", "10,5", "--beta", beta, "--samples", "2"]) == 1
    assert "n_samples must be at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("budgets", ["-5,3", "nan,3", "3,inf"])
def test_region_rejects_negative_and_non_finite_budgets(capsys, budgets):
    assert main(["region", f"--budgets={budgets}", "--beta", "0.5", "--samples", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "budgets must be finite and nonnegative" in err


def test_runtime_error_maps_to_exit_2(tmp_path, monkeypatch, capsys):
    import ecomp.cli as cli

    def boom(*a, **k):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "run_scenario", boom)
    rc = main(["run", _micro_path(tmp_path)])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", None], ["region", "--budgets", "10,5",
                                                      "--beta", "0.5"]])
@pytest.mark.parametrize("where", ["missing/out.csv", "."])
def test_an_unwritable_out_path_is_a_runtime_error(tmp_path, capsys, command, where):
    # A missing directory and a directory path fail alike, on both subcommands.
    argv = [_micro_path(tmp_path) if arg is None else arg for arg in command]
    path = str(tmp_path / where)
    assert main(argv + ["--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: OSError: cannot write ")
    assert f" to {path}: " in err


@pytest.mark.parametrize("workers", ["abc", "0", "-2", "1.5", ""])
def test_run_rejects_a_bad_worker_count(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.setenv("ECOMP_WORKERS", workers)
    out = tmp_path / "out.csv"
    assert main(["run", _micro_path(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ECOMP_WORKERS must be an integer of at least 1")
    assert repr(workers) in err and not out.exists()
