"""The outcome comparison of ``tools/direct_outcomes.py``."""

import importlib.util
from pathlib import Path

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
