"""Scenario file parsing and validation."""

import dataclasses
from pathlib import Path

import pytest

from ecomp import Scenario, ScenarioError, load_scenario, scenario_from_mapping
from ecomp.scenario import SchemeSpec

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _write(tmp_path, text):
    path = tmp_path / "scenario.scn"
    path.write_text(text)
    return path


BASE = """
kind = two_cell_random
energy_db = 0, 10
schemes = joint, comm_only
"""


def test_shipped_scenarios_parse():
    expected = {"two_cell_sweep": "two_cell_sweep",
                "two_cell_crossover": "two_cell_random",
                "three_cell_profile": "three_cell_profile",
                "three_cell_sweep": "three_cell_sweep"}
    for name, kind in expected.items():
        sc = load_scenario(SCENARIO_DIR / f"{name}.scn")
        assert sc.kind == kind


def test_crossover_scenario_has_a_skewed_budget_draw():
    sc = load_scenario(SCENARIO_DIR / "two_cell_crossover.scn")
    assert sc.budget_skew == pytest.approx(0.4)
    assert sc.cross_gain == "random"


def test_key_value_parsing_with_comments(tmp_path):
    path = _write(tmp_path, """
# comment line
kind = two_cell_sweep            # trailing comment
betas = 0, 0.5, 1
sum_energy = 20
""")
    sc = load_scenario(path)
    assert sc.kind == "two_cell_sweep"
    assert sc.schemes == tuple(SchemeSpec("joint", b) for b in (0.0, 0.5, 1.0))
    assert sc.sum_energy == 20.0


def test_duplicate_key_reports_line_number(tmp_path):
    path = _write(tmp_path, BASE + "seed = 1\nseed = 2\n")
    with pytest.raises(ScenarioError, match="line 6.*duplicate"):
        load_scenario(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = _write(tmp_path, "kind = two_cell_sweep\nnot a key value\n")
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(path)


def test_unknown_key_is_rejected(tmp_path):
    path = _write(tmp_path, BASE + "volume = 11\n")
    with pytest.raises(ScenarioError, match="volume"):
        load_scenario(path)


def test_scheme_parsing_with_per_scheme_beta():
    sc = scenario_from_mapping({
        "kind": "two_cell_random", "energy_db": "0, 10",
        "schemes": "joint@1, energy_only@0.5, comm_only, none",
    })
    labels = [s.label() for s in sc.schemes]
    assert labels == ["joint@1", "energy_only@0.5", "comm_only", "none"]


def test_transfer_free_schemes_reject_a_beta():
    with pytest.raises(ScenarioError, match="comm_only"):
        scenario_from_mapping({"kind": "two_cell_random",
                               "energy_db": "0, 10",
                               "schemes": "comm_only@0.5"})


@pytest.mark.parametrize("mapping, label", [
    ({"kind": "two_cell_random", "energy_db": "0, 10", "beta": "0.9",
      "schemes": "joint, comm_only, joint@0.9"}, "joint@0.9"),
    ({"kind": "two_cell_sweep", "betas": "0.5, 0.5"}, "joint@0.5"),
    ({"kind": "two_cell_random", "energy_db": "0, 10", "schemes": "none, none"}, "none"),
])
def test_a_scheme_listed_twice_is_rejected(mapping, label):
    # Both would be solved at every draw and emit rows with the same key.
    with pytest.raises(ScenarioError, match=f"^scheme {label} is listed twice$"):
        scenario_from_mapping(mapping)


def test_noise_dbm_is_converted_to_watts():
    sc = scenario_from_mapping({"kind": "two_cell_random",
                                "energy_db": "0, 10",
                                "schemes": "joint",
                                "noise_dbm": "-85"})
    assert sc.noise == pytest.approx(10.0 ** (-11.5))


def test_mixes_parsing():
    sc = scenario_from_mapping({"kind": "three_cell_profile",
                                "schemes": "joint",
                                "mixes": "0.5:0.5; 0.1:0.9; 0.9:0.1"})
    assert sc.mixes == ((0.5, 0.5), (0.1, 0.9), (0.9, 0.1))


def test_validation_rejects_bad_shapes():
    with pytest.raises(ScenarioError):
        Scenario(kind="two_cell_sweep", n_bs=2, m_ant=1, n_mt=5,
                 schemes=(SchemeSpec("joint", 0.9),))
    with pytest.raises(ScenarioError):
        Scenario(kind="two_cell_sweep", n_bs=3, m_ant=1, n_mt=2,
                 schemes=(SchemeSpec("joint", 0.9),))
    with pytest.raises(ScenarioError):
        Scenario(kind="two_cell_random", n_bs=2, m_ant=1, n_mt=2,
                 schemes=(SchemeSpec("joint", 0.9),), energy_db=(10.0, 0.0))
    # Every float field must be finite: NaN slips past the range checks.
    nan, inf = float("nan"), float("inf")
    sweep = {"kind": "two_cell_sweep", "betas": "0.5"}
    for key, raw in (("sum_energy", "nan"), ("noise", "nan"), ("noise", "inf"),
                     ("cross_gain", "nan"), ("weights", "1, nan")):
        with pytest.raises(ScenarioError, match=f"{key} must be finite"):
            scenario_from_mapping({**sweep, key: raw})
    for key, raw in (("ebar_dbw", "nan"), ("ebar_dbw", "-inf"),
                     ("mixes", "1:nan; 1:1; 1:1")):
        with pytest.raises(ScenarioError, match=f"{key} must be finite"):
            scenario_from_mapping({"kind": "three_cell_profile", key: raw})
    for raw in ("0, 1", "1, -1"):
        with pytest.raises(ScenarioError, match="weights must be positive"):
            scenario_from_mapping({**sweep, "weights": raw})
    for energy_db in ((0.0, nan), (0.0, inf)):
        with pytest.raises(ScenarioError, match="energy_db must be finite"):
            Scenario(kind="two_cell_random", n_bs=2, m_ant=1, n_mt=2,
                     schemes=(SchemeSpec("joint", 0.9),), energy_db=energy_db)
    # A negative seed and uneven three-cell terminals would only fail at run time.
    with pytest.raises(ScenarioError, match="seed must be nonnegative"):
        scenario_from_mapping({**sweep, "seed": "-1"})
    for n_mt in ("5", "4"):
        with pytest.raises(ScenarioError, match="must be a multiple of n_bs"):
            scenario_from_mapping({"kind": "three_cell_profile", "n_mt": n_mt})


def test_validation_rejects_bad_beta_and_skew():
    with pytest.raises(ScenarioError):
        scenario_from_mapping({"kind": "two_cell_random",
                               "energy_db": "0, 10",
                               "schemes": "joint@1.5"})
    with pytest.raises(ScenarioError):
        scenario_from_mapping({"kind": "two_cell_random",
                               "energy_db": "0, 10", "schemes": "joint",
                               "budget_skew": "2.5"})
    for schemes in ("jiont@0.9, none", "joint, Joint", "nnoe"):
        with pytest.raises(ScenarioError, match="unknown scheme"):
            scenario_from_mapping({"kind": "two_cell_random",
                                   "energy_db": "0, 10", "schemes": schemes})
    with pytest.raises(ScenarioError, match="unknown scheme"):
        Scenario(kind="two_cell_random", n_bs=2, m_ant=1, n_mt=2,
                 schemes=(SchemeSpec("comm-only"),), energy_db=(0.0, 10.0))
    # A scheme that never transfers takes no beta, and one that does needs
    # it, whether parsed or built directly.
    for variant in ("comm_only", "none"):
        with pytest.raises(ScenarioError, match=f"{variant} does not take a beta"):
            scenario_from_mapping({"kind": "two_cell_random", "energy_db": "0, 10",
                                   "schemes": f"{variant}@0.5"})
        with pytest.raises(ScenarioError, match=f"{variant} does not take a beta"):
            Scenario(kind="two_cell_random", n_bs=2, m_ant=1, n_mt=2,
                     schemes=(SchemeSpec(variant, 0.5),), energy_db=(0.0, 10.0))
    for variant in ("joint", "energy_only"):
        with pytest.raises(ScenarioError, match=f"{variant} needs a beta"):
            Scenario(kind="two_cell_random", n_bs=2, m_ant=1, n_mt=2,
                     schemes=(SchemeSpec(variant),), energy_db=(0.0, 10.0))
    # two_cell_sweep takes its curves from betas; a schemes list would be
    # validated and then ignored.
    for schemes in ("comm_only, none", "joint"):
        with pytest.raises(ScenarioError, match="schemes: two_cell_sweep"):
            scenario_from_mapping({"kind": "two_cell_sweep", "betas": "0.5",
                                   "schemes": schemes})
    with pytest.raises(ScenarioError, match="needs a betas list"):
        scenario_from_mapping({"kind": "two_cell_sweep"})


def test_each_kind_rejects_keys_it_does_not_read():
    unread = {"two_cell_sweep": ("beta", "0.3"),
              "two_cell_random": ("betas", "0.3"),
              "three_cell_profile": ("energy_db", "0, 10"),
              "three_cell_sweep": ("ebar_dbw", "20")}
    for kind, (key, raw) in unread.items():
        with pytest.raises(ScenarioError, match=f"^{key}: {kind} "):
            scenario_from_mapping({"kind": kind, key: raw})


def test_noise_and_noise_dbm_are_exclusive():
    # Either order: neither key may silently override the other.
    for pair in ({"noise": "2", "noise_dbm": "-85"},
                 {"noise_dbm": "-85", "noise": "2"}):
        with pytest.raises(ScenarioError, match="noise"):
            scenario_from_mapping({"kind": "two_cell_random",
                                   "energy_db": "0, 10", **pair})


def test_negative_mixes_are_rejected():
    with pytest.raises(ScenarioError, match="mixes must be nonnegative"):
        scenario_from_mapping({"kind": "three_cell_sweep", "energy_db": "0, 10",
                               "mixes": "1:1; 1:-0.5; 1:1"})


def test_kind_defaults_are_applied():
    sc = scenario_from_mapping({"kind": "three_cell_profile",
                                "schemes": "joint"})
    assert (sc.n_bs, sc.m_ant, sc.n_mt) == (3, 2, 6)
    assert sc.noise == pytest.approx(10.0 ** (-11.5))


def test_missing_kind_is_an_error():
    with pytest.raises(ScenarioError, match="kind"):
        scenario_from_mapping({"schemes": "joint"})


def test_overrides_round_trip_through_replace():
    sc = load_scenario(SCENARIO_DIR / "two_cell_sweep.scn")
    sc2 = dataclasses.replace(sc, seed=99, n_realizations=5)
    assert sc2.seed == 99 and sc2.n_realizations == 5
    assert sc2.schemes == sc.schemes
    # The curves live in schemes alone; there is no beta field to replace.
    with pytest.raises(TypeError):
        dataclasses.replace(sc, beta=0.5)
