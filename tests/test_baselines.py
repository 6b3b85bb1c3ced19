"""Cooperation baselines: beamforming-only, transfer-only, and no cooperation."""

import numpy as np
import pytest

from ecomp import (
    EnergyState,
    generate_rayleigh,
    kkt_residual,
    per_bs_zf_gains,
    solve_comm_only,
    solve_energy_only,
    solve_no_coop,
    solve_p1,
    strongest_channel_association,
    zf_gains,
)


def _instance(seed, n_bs=2, m_ant=1, n_mt=2, e_hi=30.0):
    rng = np.random.default_rng(seed)
    var = rng.uniform(0.2, 1.0, size=(n_bs, n_mt))
    ch = generate_rayleigh(n_bs, m_ant, n_mt, var, rng)
    es = EnergyState(re=rng.uniform(0.0, e_hi, size=n_bs))
    assoc = strongest_channel_association(var, m_ant)
    return ch, var, es, assoc


def test_comm_only_is_the_joint_solver_without_transfers():
    ch, _, es, _ = _instance(0)
    g = zf_gains(ch)
    a = solve_comm_only(g, es)
    b = solve_p1(g, es, beta=0.0)
    assert a.objective == pytest.approx(b.objective, abs=1e-12)
    np.testing.assert_allclose(a.p, b.p, atol=1e-12)
    assert np.all(a.e == 0.0)


def test_no_coop_is_energy_only_without_transfers():
    ch, _, es, assoc = _instance(1)
    a = solve_no_coop(ch, assoc, es)
    b = solve_energy_only(ch, assoc, es, beta=0.0)
    assert a.objective == pytest.approx(b.objective, abs=1e-12)


def test_energy_only_divides_the_band_across_cells():
    # Each cell transmits in its own subband, so the common rate factor
    # is 1/N while each station's power feeds only its own terminals.
    ch, _, es, assoc = _instance(2, n_bs=3, m_ant=2, n_mt=4)
    gbar = per_bs_zf_gains(ch, assoc)
    sol = solve_energy_only(ch, assoc, es, beta=0.5)
    expected = np.sum(gbar.weights / 3.0 * np.log2(1.0 + gbar.a * sol.p))
    assert sol.objective == pytest.approx(float(expected), rel=1e-12)


def test_transfers_never_hurt_either_scheme_family():
    for seed in range(8):
        ch, _, es, assoc = _instance(seed, n_bs=3, m_ant=2, n_mt=4)
        g = zf_gains(ch)
        assert solve_p1(g, es, 0.8).objective >= \
            solve_comm_only(g, es).objective - 1e-8
        assert solve_energy_only(ch, assoc, es, 0.8).objective >= \
            solve_no_coop(ch, assoc, es).objective - 1e-8


def test_energy_only_pools_budgets_at_full_efficiency():
    ch, _, _, assoc = _instance(3)
    lop = EnergyState(re=np.array([20.0, 0.1]))
    sol = solve_energy_only(ch, assoc, lop, beta=1.0)
    starved = solve_energy_only(ch, assoc, lop, beta=0.0)
    assert sol.objective > starved.objective


def test_no_coop_with_empty_station_still_serves_the_other_cell():
    # The empty station's terminals are pinned to zero power; its price
    # must still certify that, so the KKT check runs on per-BS gains.
    for seed, n_bs, m_ant, n_mt in ((4, 2, 1, 2), (5, 3, 2, 5)):
        ch, _, _, assoc = _instance(seed, n_bs, m_ant, n_mt)
        es = EnergyState(re=np.array([10.0, 0.0, 10.0][:n_bs]))
        sol = solve_no_coop(ch, assoc, es)
        assert sol.objective > 0.0
        gains = per_bs_zf_gains(ch, assoc)
        assert kkt_residual(sol, gains, es, 0.0, bandwidth=1.0 / n_bs) <= 1e-9
