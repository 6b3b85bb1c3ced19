"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from ecomp import scenario_from_mapping  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _micro_setup():
    sc = scenario_from_mapping({"kind": "two_cell_sweep", "sum_energy": "20",
                                "sweep_points": "3", "betas": "0, 0.7, 1",
                                "n_realizations": "2", "seed": "7"})
    spec = wl.ScenarioSpec("two_cell_sweep.scn", realizations=2, workers=1)
    return wl.ScenarioSetup("sweep2", spec, sc, sc, None, {})


def _bound(targets):
    return [getattr(t.module, t.attr) for t in targets]


def test_wrappers_are_restored_and_spans_cover_the_wall(tmp_path):
    targets = wl.scenario_targets()
    before = _bound(targets)
    tracer = wl.Tracer(targets)
    with tracer:
        assert _bound(targets) != before
        t0, t1, table = wl.run_rep(_micro_setup(), tmp_path / "t.csv", 1, tracer=tracer)
    assert all(a is b for a, b in zip(_bound(targets), before))
    assert not table.errors
    m = wl.layer_metrics(tracer, t1 - t0)
    # beta 0.7 at 3 points, beta 0 only at the middle one: with all energy
    # at one station and no transfers every terminal is pinned to zero
    assert m["solver.ellipsoid_calls"] == (3 + 1) * 2
    assert m["solver.bisect_calls"] == 3 * 2             # lossless beta = 1
    assert m["solver.cuts_per_solve"] > 0
    assert m["trace.self_sum_frac"] == pytest.approx(1.0, abs=1e-3)
    joint = [s for s in tracer.spans if s.name == "solver.joint"]
    assert all(tracer.spans[s.solve].name == "solver.joint"
               for s in tracer.spans if s.solve >= 0)
    assert len({s.solve for s in tracer.spans if s.solve >= 0}) == len(joint)


def test_wrappers_are_restored_when_the_run_raises():
    targets = wl.direct_solve_targets()
    before = _bound(targets)
    with pytest.raises(ZeroDivisionError):
        with wl.Tracer(targets):
            1 / 0
    assert all(a is b for a, b in zip(_bound(targets), before))


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    setup = _micro_setup()
    wl.run_rep(setup, tmp_path / "plain.csv", 1)
    tracer = wl.Tracer(wl.scenario_targets())
    with tracer:
        wl.run_rep(setup, tmp_path / "traced.csv", 1, tracer=tracer)
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()


def test_fail_frac_counts_injected_failures(monkeypatch):
    instances = wl.make_direct(5)[:20]
    args = SimpleNamespace(trace=0, seconds=0.0, workload="direct", seed=5)

    def measure():
        out = {"metrics": {}, "problems": [], "details": {}}
        run.run_direct_workload(wl, instances, args, out)
        return out

    base = measure()
    healthy = [i for i in range(len(instances))
               if not isinstance(wl.solve(instances[i]), Exception)
               and not wl.certificate_failures(instances[i], wl.solve(instances[i]))]
    raise_on, break_on = instances[healthy[0]].gains, instances[healthy[1]].gains
    original = wl.solver.solve_p1

    def injected(gains, es, beta, **kw):
        if gains is raise_on:
            raise wl.solver.ConvergenceError("injected", None)
        sol = original(gains, es, beta, **kw)
        if gains is break_on:
            sol = dataclasses.replace(sol, p=2.0 * sol.p + 1.0)
        return sol

    monkeypatch.setattr(wl.solver, "solve_p1", injected)
    out = measure()
    assert out["failed"] == base["failed"] + 2
    assert out["metrics"]["ok_frac"] == pytest.approx(
        base["metrics"]["ok_frac"] - 2 / len(instances))
    assert out["details"]["failures"]["raised:ConvergenceError"] == 1
    assert (out["details"]["failures"]["certificate:budget"]
            == base["details"]["failures"].get("certificate:budget", 0) + 1)


def test_reference_check_flags_a_changed_value():
    setup = wl.setup_scenario("sweep2", wl.REFERENCE_SEED)
    rows = wl.reference_table("sweep2")
    assert wl.check_reference(setup, rows) == []
    assert wl.check_table(setup, rows, []) == []
    rows[5] = dict(rows[5], mean_rate=str(float(rows[5]["mean_rate"]) * 1.01))
    assert len(wl.check_reference(setup, rows)) == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep2", "profile3", "direct"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
    assert any(line.startswith("fail_frac = ") for line in lines)
    if workload == "direct":
        assert result["failed"] > 0          # the general-beta recovery defect


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
