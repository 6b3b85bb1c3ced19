"""The outcome comparison of ``tools/direct_outcomes.py``."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "direct_outcomes.py"
_spec = importlib.util.spec_from_file_location("direct_outcomes", _PATH)
direct_outcomes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(direct_outcomes)


def _record(classes, objectives):
    return {"1": {"class": classes, "objective": objectives}}


def test_parse_seeds_takes_ranges_and_lists():
    assert direct_outcomes.parse_seeds("1-3") == [1, 2, 3]
    assert direct_outcomes.parse_seeds("2,5-6,9") == [2, 5, 6, 9]


def test_compare_reports_swaps_and_fails_only_on_a_new_failure(capsys):
    old = _record(["ok", "ok", "raised:InfeasibleError", "certificate:kkt"],
                  [1.0, 2.0, None, 3.0])
    swapped = _record(["ok", "ok", "certificate:gap,kkt", "raised:InfeasibleError"],
                      [1.0, 2.0 * (1 + 1e-12), 4.0, None])
    assert direct_outcomes.compare(old, swapped) == 0
    out = capsys.readouterr().out
    assert "seed 1: failed 2 -> 2" in out and "class swaps: 2" in out
    assert "seed 1 #2: raised:InfeasibleError -> certificate:gap,kkt" in out
    assert "(seed 1 #1)" in out
    broken = _record(["ok", "raised:ConvergenceError", "ok", "certificate:kkt"],
                     [1.0, None, 5.0, 3.0])
    assert direct_outcomes.compare(old, broken) == 1
    out = capsys.readouterr().out
    assert "newly failing: 1" in out and "seed 1 #1: raised:ConvergenceError" in out
    assert "newly passing: 1" in out


def test_compare_lists_every_objective_that_moved_beyond_the_bound(capsys):
    # A fixed zero answer (#1, change 1.0) is the largest move, and it must
    # not hide the smaller ones above the bound (#2); #3 moves by 1e-12.
    old = _record(["ok", "ok", "ok", "ok", "raised:InfeasibleError"],
                  [1.0, 0.0, 2.0, 3.0, None])
    new = _record(["ok", "ok", "ok", "ok", "ok"],
                  [1.0, 5.5e-7, 2.0 * (1 + 1e-6), 3.0 * (1 + 1e-12), 4.0])
    assert direct_outcomes.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "objective moved by more than 1e-09 relative: 2\n" in out
    assert "  seed 1 #1: 0 -> 5.5e-07 (relative 1)\n" in out
    assert "  seed 1 #2: 2 -> 2.000002 (relative 1e-06)\n" in out
    assert "seed 1 #3:" not in out and "seed 1 #4: was raised" in out
    assert "largest relative objective change on passing instances: 1 (seed 1 #1)" in out


def test_a_compact_record_lists_only_failures_and_compares_with_a_full_one(capsys):
    full = _record(["ok", "raised:InfeasibleError", "ok", "certificate:kkt"],
                   [1.0, None, 2.0, 3.0])
    pinned = direct_outcomes.compact(full)
    assert pinned["seeds"] == {"1": {"instances": 4, "failing": {
        "1": "raised:InfeasibleError", "3": "certificate:kkt"}}}
    assert direct_outcomes.expand(pinned)["1"]["class"] == full["1"]["class"]
    assert direct_outcomes.compare(pinned, full) == 0
    out = capsys.readouterr().out
    assert f"old record taken with numpy {pinned['numpy']}" in out
    assert "total: failed 2 -> 2; 2 pass on both sides" in out
    assert "class swaps: 0" in out and "objective change" not in out
    broken = _record(["ok", "raised:InfeasibleError", "certificate:gap", "certificate:kkt"],
                     [1.0, None, 2.0, 3.0])
    assert direct_outcomes.compare(pinned, broken) == 1
    assert "seed 1 #2: certificate:gap" in capsys.readouterr().out
    shorter = _record(["ok"] * 3, [1.0] * 3)
    assert direct_outcomes.compare(pinned, shorter) == 1


def test_the_pinned_record_never_holds_more_failures_than_when_it_was_taken():
    # A retake may drop failures; it may never absorb a new one.
    pinned = json.loads((_PATH.parent.parent / "tests" / "data"
                         / "direct_outcomes.json").read_text())
    seeds = pinned["seeds"]
    assert list(seeds) == [str(s) for s in range(1, 11)]
    assert all(r["instances"] == 800 for r in seeds.values())
    counts = [len(r["failing"]) for r in seeds.values()]
    assert all(n <= cap for n, cap in zip(counts, [3, 3, 3, 5, 3, 1, 5, 0, 4, 6]))
    classes = [c for r in seeds.values() for c in r["failing"].values()]
    assert all(c == "raised:InfeasibleError" or c.startswith("certificate:")
               for c in classes)


def test_compare_prints_mean_cuts_only_when_both_records_carry_them(capsys):
    old = _record(["ok", "ok", "raised:InfeasibleError", "ok"], [1.0, 2.0, None, 3.0])
    old["1"]["iterations"] = [0, 300, None, 500]
    new = _record(["ok", "ok", "ok", "ok"], [1.0, 2.0, 4.0, 3.0])
    new["1"]["iterations"] = [0, 100, 250, 200]
    assert direct_outcomes.compare(old, new) == 0
    # Closed-form solves (0 cuts) and raised ones (null) are left out.
    assert "seed 1: mean cuts 400.0 over 2 -> 183.3 over 3" in capsys.readouterr().out
    assert direct_outcomes.compare(direct_outcomes.compact(old), new) == 0
    assert "mean cuts" not in capsys.readouterr().out
    assert "iterations" not in direct_outcomes.compact(new)["seeds"]["1"]


def _fake_workloads(monkeypatch, e_entry=0.25, p_entry=1.0, w_entry=1.0):
    """A stand-in for bench/workloads.py: one raise, one certificate
    failure and two passes, the last with ``e[0, 1] = e_entry`` and
    ``p[1] = p_entry``, and with ``p[1] = w_entry`` when solved warm
    (``w_entry=None`` makes that warm solve raise)."""
    def solution(idx, e_01=0.25, p_1=1.0, start=None):
        e = np.array([[0.0, e_01], [0.0, 0.0]])
        return types.SimpleNamespace(p=np.array([0.5, p_1]), e=e, mu=np.array([2.0, 1.0]),
                                     objective=1.5, dual_value=1.5 + 1e-12,
                                     iterations=10 * min(idx, 2) if start is None else 0)

    def solve(inst):
        if inst.gains == 0:
            return ValueError("x")
        last = inst.gains == 3
        return solution(inst.gains, e_entry if last else 0.25, p_entry if last else 1.0)

    def solve_p1(gains, es, beta, start):
        assert np.array_equal(start, [1.0, 0.5])
        if gains == 3 and w_entry is None:
            raise ValueError("warm")
        return solution(gains, p_1=w_entry if gains == 3 else 1.0, start=start)

    fake = types.ModuleType("workloads")
    fake.make_direct = lambda seed: [types.SimpleNamespace(gains=i, es=None, beta=None)
                                     for i in range(4)]
    fake.solve = solve
    fake.solver = types.SimpleNamespace(solve_p1=solve_p1)
    fake.certificate_failures = lambda inst, sol: ["gap"] if inst.gains == 1 else []
    monkeypatch.setitem(sys.modules, "workloads", fake)


def test_a_full_record_keeps_each_instance_s_iterations(monkeypatch):
    _fake_workloads(monkeypatch)
    rec = direct_outcomes.record([3])
    digests, e_digests = rec["3"].pop("digest"), rec["3"].pop("e_digest")
    w_digests = rec["3"].pop("w_digest")
    assert rec == {"3": {"class": ["raised:ValueError", "certificate:gap", "ok", "ok"],
                         "objective": [None, 1.5, 1.5, 1.5],
                         "iterations": [None, 10, 20, 20]}}
    # Equal solutions hash alike; #1 differs from them in its iterations.
    assert digests[0] is None and digests[2] == digests[3] != digests[1]
    assert e_digests[0] is None and e_digests[1] == e_digests[2] == e_digests[3]
    # Only passing instances are solved warm; their warm solves differ from
    # the cold ones in the iterations alone.
    assert w_digests[:2] == [None, None] and w_digests[2] == w_digests[3]
    assert w_digests[2] not in digests + e_digests
    assert all(len(d) == 16 and int(d, 16) >= 0
               for d in digests[1:] + e_digests[1:] + w_digests[2:])


def test_compare_reports_a_last_bit_change_in_one_transfer(monkeypatch, capsys):
    _fake_workloads(monkeypatch)
    old = direct_outcomes.record([3])
    _fake_workloads(monkeypatch, e_entry=np.nextafter(0.25, 1.0))
    new = direct_outcomes.record([3])
    assert direct_outcomes.compare(old, new) == 0
    out = capsys.readouterr().out
    # Objective and iterations agree exactly; only the transfers' digest
    # sees the change, and the rest of the solution keeps its digest.
    assert "objective or iterations changed on 0 of 2 passing instances (exact)" in out
    assert "solution bits changed on 0 of 2 passing instances" in out
    assert "transfer bits changed on 1 of 2 passing instances" in out
    assert direct_outcomes.compare(old, old) == 0
    out = capsys.readouterr().out
    assert "solution bits changed on 0 of 2" in out and "transfer bits changed on 0 of 2" in out
    assert direct_outcomes.compare(direct_outcomes.compact(old), new) == 0
    assert "bits changed" not in capsys.readouterr().out


def test_compare_reports_a_last_bit_change_in_one_power_apart_from_the_transfers(
        monkeypatch, capsys):
    _fake_workloads(monkeypatch)
    old = direct_outcomes.record([3])
    _fake_workloads(monkeypatch, p_entry=np.nextafter(1.0, 2.0))
    new = direct_outcomes.record([3])
    assert direct_outcomes.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "solution bits changed on 1 of 2 passing instances" in out
    assert "transfer bits changed on 0 of 2 passing instances" in out
    # A record without e_digest (taken before it existed) prints the solution count only.
    for rec in (old, new):
        del rec["3"]["e_digest"]
    assert direct_outcomes.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "solution bits changed on 1 of 2" in out and "transfer bits" not in out


def test_compare_reports_a_last_bit_change_in_a_warm_solve_alone(monkeypatch, capsys):
    _fake_workloads(monkeypatch)
    old = direct_outcomes.record([3])
    _fake_workloads(monkeypatch, w_entry=np.nextafter(1.0, 2.0))
    new = direct_outcomes.record([3])
    assert direct_outcomes.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "solution bits changed on 0 of 2 passing instances" in out
    assert "transfer bits changed on 0 of 2 passing instances" in out
    assert "warm bits changed on 1 of 2 passing instances" in out
    # A warm solve that raises is recorded by its class, and counts as changed.
    _fake_workloads(monkeypatch, w_entry=None)
    raised = direct_outcomes.record([3])
    assert raised["3"]["w_digest"][3] == "raised:ValueError"
    assert direct_outcomes.compare(old, raised) == 0
    assert "warm bits changed on 1 of 2" in capsys.readouterr().out


def test_record_leaves_sys_path_as_it_was(monkeypatch):
    # The checkout's src and bench are on the path only while workloads
    # is imported, so the benchmark's modules do not leak to the caller.
    monkeypatch.setitem(sys.modules, "workloads", types.ModuleType("workloads"))
    before = list(sys.path)
    assert direct_outcomes.record([]) == {}
    assert sys.path == before


def test_compare_counts_exact_changes_only_when_both_records_are_full(capsys):
    old = _record(["ok", "ok", "raised:InfeasibleError", "ok", "ok"],
                  [1.0, 2.0, None, 3.0, 4.0])
    old["1"]["iterations"] = [0, 300, None, 500, 90]
    new = _record(["ok", "ok", "ok", "ok", "ok"], [1.0, 2.0, 4.0, 3.0 + 4e-16, 4.0])
    new["1"]["iterations"] = [0, 301, 250, 500, 90]
    assert direct_outcomes.compare(old, new) == 0
    # #1 takes one more cut and #3 moves by one ulp; #2 passes on one side only.
    assert ("objective or iterations changed on 2 of 4 passing instances (exact)"
            in capsys.readouterr().out)
    assert direct_outcomes.compare(new, new) == 0
    assert "changed on 0 of 5 passing" in capsys.readouterr().out
    assert direct_outcomes.compare(direct_outcomes.compact(old), new) == 0
    assert "changed on" not in capsys.readouterr().out
