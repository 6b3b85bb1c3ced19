"""End-to-end acceptance checks, one test per criterion.

Each test prints a short detail line and asserts the documented
tolerance.  Instance families and scenario tables are cached at module
level so later criteria reuse earlier computations.
"""

import dataclasses
import math
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from ecomp import load_scenario, scenario_from_mapping
from ecomp.baselines import solve_comm_only, solve_energy_only, solve_no_coop
from ecomp.channel import (generate_rayleigh, per_bs_zf_gains,
                           strongest_channel_association, zf_gains)
from ecomp.energy import EnergyState, as_beta_matrix
from ecomp.oracle import kkt_residual
from ecomp.profiles import load_profiles
from ecomp.runner import run_scenario
from ecomp.solver import _cancel_bidirectional, solve_p1
from verifiers import grid_search_p1, waterfill_sum_power

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

CHAIN_TOL = 1e-8


# ---------------------------------------------------------------------------
# Shared instance families and scenario tables


def _two_cell_instance(r):
    """Small random instance: 2 BS, 1 antenna, 2 terminals."""
    rng = np.random.default_rng([101, r])
    var = np.ones((2, 2))
    var[1, 0] = rng.uniform(0.0, 1.0)
    var[0, 1] = rng.uniform(0.0, 1.0)
    ch = generate_rayleigh(2, 1, 2, var, rng)
    es = EnergyState(re=rng.uniform(0.0, 30.0, size=2))
    beta = (0.0, 0.3, 0.7, 1.0)[r % 4]
    return ch, var, es, beta


def _three_cell_instance(r):
    """Larger random instance: 3 BS, 2 antennas, 4 terminals."""
    rng = np.random.default_rng([202, r])
    var = rng.uniform(0.05, 0.3, size=(3, 4))
    for k in range(4):
        var[k % 3, k] = 1.0
    ch = generate_rayleigh(3, 2, 4, var, rng)
    es = EnergyState(re=rng.uniform(0.5, 30.0, size=3))
    beta = float(rng.uniform(0.05, 0.95))
    return ch, var, es, beta


@lru_cache(maxsize=None)
def _small_family():
    out = []
    for r in range(200):
        ch, var, es, beta = _two_cell_instance(r)
        g = zf_gains(ch)
        out.append((ch, var, g, es, beta, solve_p1(g, es, beta)))
    return out


@lru_cache(maxsize=None)
def _large_family():
    out = []
    for r in range(100):
        ch, var, es, beta = _three_cell_instance(r)
        g = zf_gains(ch)
        out.append((ch, var, g, es, beta, solve_p1(g, es, beta)))
    return out


@lru_cache(maxsize=None)
def _sweep_table():
    scenario = load_scenario(SCENARIO_DIR / "two_cell_sweep.scn")
    start = time.perf_counter()
    table = run_scenario(scenario)
    return table, time.perf_counter() - start


@lru_cache(maxsize=None)
def _crossover_table():
    scenario = load_scenario(SCENARIO_DIR / "two_cell_crossover.scn")
    scenario = dataclasses.replace(scenario, n_realizations=100)
    return run_scenario(scenario)


@lru_cache(maxsize=None)
def _profile_table():
    scenario = scenario_from_mapping({
        "kind": "three_cell_profile",
        "profile": "bundled",
        "ebar_dbw": "10",
        "mixes": "0.5:0.5; 0.1:0.9; 0.9:0.1",
        "noise_dbm": "-85",
        "schemes": "joint@0.9, joint@1, comm_only, energy_only@0.9, none",
        "slot_stride": "8",
        "n_realizations": "10",
        "seed": "42",
    })
    return run_scenario(scenario)


def _rows_by_group(table):
    """Map (sweep_key, slot) -> {scheme: (mean, stderr)}."""
    groups = {}
    for row in table.rows:
        groups.setdefault((row.sweep_key, row.slot), {})[row.scheme] = \
            (row.mean_rate, row.stderr)
    return groups


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for _, _, g, es, beta, sol in _small_family():
        ref, _, _ = grid_search_p1(g, es, beta)
        rel = abs(sol.objective - ref) / max(abs(ref), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst relative gap {worst:.3g} over 200 instances, "
          f"{elapsed:.1f} s")
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_2_kkt_certification():
    start = time.perf_counter()
    worst_kkt, worst_gap = 0.0, 0.0
    for ch, var, g, es, beta, sol in _large_family():
        worst_kkt = max(worst_kkt, kkt_residual(sol, g, es, beta))
        worst_gap = max(worst_gap, abs(sol.duality_gap))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: worst kkt {worst_kkt:.3g}, worst gap {worst_gap:.3g}, "
          f"{elapsed:.1f} s")
    assert worst_kkt <= 1e-5
    assert worst_gap <= 1e-6
    assert elapsed < 120.0


def test_criterion_3_tightness_and_unidirectional_flows():
    worst_slack, worst_pair = 0.0, 0.0
    for ch, var, g, es, beta, sol in _large_family():
        bm = as_beta_matrix(beta, es.n_bs)
        spent = g.b @ sol.p
        avail = es.budget + (bm * sol.e).sum(axis=0) - sol.e.sum(axis=1)
        slack = np.abs(avail - spent) / np.maximum(es.budget, 1.0)
        worst_slack = max(worst_slack, float(slack.max()))
        pair = np.minimum(sol.e.sum(axis=0), sol.e.sum(axis=1))
        worst_pair = max(worst_pair, float(pair.max()))
    print(f"criterion 3: worst normalized slack {worst_slack:.3g}, "
          f"worst min(inflow, outflow) {worst_pair:.3g}")
    assert worst_slack <= 1e-6
    assert worst_pair <= 1e-8


def test_criterion_4_special_case_collapse():
    # Lossless transfers reduce to water-filling over the pooled budget.
    worst = 0.0
    for r in range(50):
        ch, var, es, _ = _two_cell_instance(r)
        g = zf_gains(ch)
        sol = solve_p1(g, es, beta=1.0)
        p_ref = waterfill_sum_power(g.weights, g.a, g.b.sum(axis=0),
                                    float(es.budget.sum()))
        ref = float(g.weights @ np.log2(1.0 + g.a * p_ref))
        worst = max(worst, abs(sol.objective - ref) / max(ref, 1.0))
    print(f"criterion 4: worst pooled-budget gap {worst:.3g}")
    assert worst <= 1e-6

    # No transfers plus one empty station pins every power to zero.
    rng = np.random.default_rng(404)
    ch = generate_rayleigh(2, 1, 2, np.ones((2, 2)), rng)
    es = EnergyState(re=np.array([10.0, 0.0]))
    g = zf_gains(ch)
    sol = solve_p1(g, es, beta=0.0)
    assert sol.objective == 0.0
    assert np.all(sol.p == 0.0)
    # The empty station's price certifies the zero powers.
    assert kkt_residual(sol, g, es, beta=0.0) <= 1e-9


def test_criterion_5_two_cell_energy_sweep():
    table, elapsed = _sweep_table()
    assert not table.errors
    groups = _rows_by_group(table)
    e1_grid = np.linspace(0.0, 30.0, 13)
    step = e1_grid[1] - e1_grid[0]
    curves = {}
    for beta_label in ("joint@0", "joint@0.5", "joint@0.9", "joint@1"):
        curves[beta_label] = np.array(
            [groups[(f"{e1:g}", -1)][beta_label] for e1 in e1_grid])

    # The balanced split maximizes every curve (up to exact ties for the
    # lossless curve, which is flat in the split).
    for label, curve in curves.items():
        means = curve[:, 0]
        top = means.max()
        near = e1_grid[means >= top - 1e-9 * max(top, 1.0)]
        assert np.any(np.abs(near - 15.0) <= step + 1e-9), \
            f"{label}: maximum at E1={e1_grid[int(means.argmax())]:g}"

    # Without transfers an all-or-nothing split strands one terminal.
    assert curves["joint@0"][0, 0] == 0.0
    assert curves["joint@0"][-1, 0] == 0.0

    # Higher transfer efficiency never hurts, pointwise within noise.
    order = ("joint@0", "joint@0.5", "joint@0.9", "joint@1")
    for lo, hi in zip(order, order[1:]):
        mlo, slo = curves[lo][:, 0], curves[lo][:, 1]
        mhi, shi = curves[hi][:, 0], curves[hi][:, 1]
        assert np.all(mhi >= mlo - 2.0 * (slo + shi)), f"{hi} below {lo}"

    print(f"criterion 5: peak at balanced split for all beta, run {elapsed:.1f} s")
    assert elapsed < 300.0


def test_criterion_6_dominance_chain():
    # Per instance the model promises only the within-family links: more
    # transfer efficiency enlarges the feasible set of the same scheme.
    # Across families (per-BS ZF on 1/N band shares vs cluster ZF on the
    # full band) neither feasible set contains the other, so the links
    # energy_only<=joint and none<=comm_only may reverse on a fixed draw;
    # criterion 4's zero joint objective, beside a non-cooperative scheme
    # that still serves one cell, is the extreme case.  A reversal must be
    # the model's and not a solver failure: every baseline solution carries
    # a KKT certificate, and on two-station instances both schemes of a
    # reversed pair match the brute-force oracle within criterion 1's bound.
    within = ("none<=energy_only", "comm_only<=joint")
    violations = {"none<=energy_only": 0, "energy_only<=joint": 0,
                  "none<=comm_only": 0, "comm_only<=joint": 0}
    margins = {key: 0.0 for key in violations}
    worst_kkt, worst_oracle, n_certified, total = 0.0, 0.0, 0, 0

    for family in (_small_family(), _large_family()):
        for ch, var, g, es, beta, sol in family:
            total += 1
            association = strongest_channel_association(var, ch.m_ant)
            gbar = per_bs_zf_gains(ch, association)
            share = 1.0 / ch.n_bs
            # scheme -> (solution, gains, beta, bandwidth share)
            solved = {
                "joint": (sol, g, beta, 1.0),
                "comm_only": (solve_comm_only(g, es), g, 0.0, 1.0),
                "energy_only": (solve_energy_only(gbar, es, beta), gbar, beta, share),
                "none": (solve_no_coop(gbar, es), gbar, 0.0, share),
            }
            for name in ("comm_only", "energy_only", "none"):
                s, gains, b, bw = solved[name]
                worst_kkt = max(worst_kkt,
                                kkt_residual(s, gains, es, b, bandwidth=bw))

            reversed_schemes = set()
            for key in violations:
                lo, hi = key.split("<=")
                lo_obj, hi_obj = solved[lo][0].objective, solved[hi][0].objective
                if lo_obj > hi_obj + CHAIN_TOL * max(1.0, abs(hi_obj)):
                    violations[key] += 1
                    margins[key] = max(margins[key], lo_obj - hi_obj)
                    reversed_schemes.update((lo, hi))
            if ch.n_bs > 2:
                continue
            for name in reversed_schemes:
                s, gains, b, bw = solved[name]
                scaled = dataclasses.replace(gains, weights=gains.weights * bw)
                ref, _, _ = grid_search_p1(scaled, es, b)
                worst_oracle = max(worst_oracle,
                                   abs(s.objective - ref) / max(abs(ref), 1e-12))
                n_certified += 1

    row_violations = []
    for table, schemes in ((_crossover_table(),
                            ("none", "energy_only@0.9", "comm_only", "joint@0.9")),
                           (_profile_table(),
                            ("none", "energy_only@0.9", "comm_only", "joint@0.9"))):
        for key, rows in _rows_by_group(table).items():
            nn, eo, co, jt = (rows[s][0] for s in schemes)
            for lo_label, lo, hi_label, hi in (("none", nn, "energy_only", eo),
                                               ("energy_only", eo, "joint", jt),
                                               ("none", nn, "comm_only", co),
                                               ("comm_only", co, "joint", jt)):
                if lo > hi + CHAIN_TOL * max(1.0, abs(hi)):
                    row_violations.append((key, f"{lo_label}<={hi_label}", lo - hi))

    detail = "; ".join(f"{key}: {count}/{total} instances (worst +{margins[key]:.3g})"
                       for key, count in violations.items())
    print(f"criterion 6: {detail}; row-level violations: {len(row_violations)}; "
          f"worst baseline kkt {worst_kkt:.3g}; worst oracle gap "
          f"{worst_oracle:.3g} over {n_certified} reversed-pair solutions")
    assert not row_violations, row_violations
    assert all(violations[key] == 0 for key in within), (
        f"more transfer efficiency lowered a scheme's objective: {detail}")
    assert worst_kkt <= 1e-5
    assert worst_oracle <= 1e-3


def test_criterion_7_profile_and_crossover_properties():
    # (a) Slightly lossy transfers perform within 3% of lossless ones.
    profile_groups = _rows_by_group(_profile_table())
    ratios = [rows["joint@0.9"][0] / rows["joint@1"][0]
              for rows in profile_groups.values()]
    ratio = float(np.mean(ratios))
    assert ratio >= 0.97, f"joint@0.9 / joint@1 = {ratio:.4f}"

    # (b) Energy cooperation wins at low average energy, communication
    # cooperation at high average energy.
    cross_groups = _rows_by_group(_crossover_table())
    low = cross_groups[("-10", -1)]
    high = cross_groups[("20", -1)]
    assert low["energy_only@0.9"][0] > low["comm_only"][0]
    assert high["comm_only"][0] > high["energy_only@0.9"][0]

    # (c) The transfer gain over pure communication cooperation is larger
    # when solar generation is scarce than at peak generation.
    profile = load_profiles("bundled")
    slots = sorted({slot for _, slot in profile_groups})
    solar = np.array([profile.solar[slot] for slot in slots])
    gap = np.array([profile_groups[(key, slot)]["joint@0.9"][0]
                    - profile_groups[(key, slot)]["comm_only"][0]
                    for key, slot in sorted(profile_groups, key=lambda g: g[1])])
    order = np.argsort(solar)
    third = len(slots) // 3
    gap_low = float(gap[order[:third]].mean())
    gap_high = float(gap[order[-third:]].mean())
    print(f"criterion 7: ratio {ratio:.4f}, crossover "
          f"({low['energy_only@0.9'][0]:.3f} vs {low['comm_only'][0]:.3f} at -10 dB, "
          f"{high['comm_only'][0]:.3f} vs {high['energy_only@0.9'][0]:.3f} at 20 dB), "
          f"gap low-solar {gap_low:.3f} vs high-solar {gap_high:.3f}")
    assert gap_low > gap_high


def test_criterion_8_zero_forcing_correctness():
    rng = np.random.default_rng(808)
    worst_leak, worst_sum = 0.0, 0.0
    for t in range(1000):
        n_bs = int(rng.integers(2, 4))
        m_ant = int(rng.integers(1, 3))
        n_mt = int(rng.integers(2, n_bs * m_ant + 1))
        var = rng.uniform(0.1, 1.0, size=(n_bs, n_mt))
        ch = generate_rayleigh(n_bs, m_ant, n_mt, var, rng)
        g = zf_gains(ch)
        for k in range(n_mt):
            for l in range(n_mt):
                if l == k:
                    continue
                leak = abs(ch.h[l] @ g.t_dir[k]) ** 2 \
                    / (ch.h[l] @ ch.h[l].conj()).real
                worst_leak = max(worst_leak, float(leak))
        worst_sum = max(worst_sum, float(np.max(np.abs(g.b.sum(axis=0) - 1.0))))
    print(f"criterion 8: worst leakage {worst_leak:.3g}, "
          f"worst power-fraction sum error {worst_sum:.3g}")
    assert worst_leak <= 1e-9
    assert worst_sum <= 1e-12


def test_criterion_9_rerouting_frees_power_everywhere():
    rng = np.random.default_rng(909)
    worst_pair, worst_loss, worst_delta = 0.0, 0.0, math.inf
    for t in range(100):
        # Station positions on a non-degenerate triangle give transfer
        # efficiencies exp(-distance) with a strict triangle property:
        # the direct link always beats any two-hop relay.
        while True:
            pos = rng.uniform(0.0, 2.0, size=(3, 2))
            u, v = pos[1] - pos[0], pos[2] - pos[0]
            area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
            if area > 0.05:
                break
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        bm = np.exp(-dist)
        np.fill_diagonal(bm, 0.0)

        e = rng.uniform(0.1, 1.0, size=(3, 3))
        np.fill_diagonal(e, 0.0)
        budgets = e.sum(axis=1) + rng.uniform(0.1, 1.0, size=3)

        def net(pattern):
            return budgets + (bm * pattern).sum(axis=0) - pattern.sum(axis=1)

        before = net(e)
        e2 = _cancel_bidirectional(e, bm)
        pair = np.minimum(e2.sum(axis=0), e2.sum(axis=1))
        worst_pair = max(worst_pair, float(pair.max()))
        after = net(e2)
        worst_loss = max(worst_loss, float(np.max(before - after)))
        gain = after - before
        s = int(np.argmax(gain))
        assert gain[s] > 1e-12, "rerouting freed no power"
        # Station s keeps half its freed power and forwards the rest, so
        # every station strictly gains.
        delta = bm[s] * gain[s] / 4.0
        delta[s] = gain[s] / 2.0
        worst_delta = min(worst_delta, float(delta.min()))
    print(f"criterion 9: worst residual bidirectional flow {worst_pair:.3g}, "
          f"worst per-station loss {worst_loss:.3g}, "
          f"smallest guaranteed extra power {worst_delta:.3g}")
    assert worst_pair <= 1e-9
    assert worst_loss <= 1e-9
    assert worst_delta > 0.0
