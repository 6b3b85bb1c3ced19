"""Cooperation baselines: beamforming-only, transfer-only, and no cooperation."""

import dataclasses

import numpy as np
import pytest

from ecomp import (
    EnergyState,
    TransferNetwork,
    generate_rayleigh,
    kkt_residual,
    per_bs_zf_gains,
    recover_transfers,
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
    gbar = per_bs_zf_gains(ch, assoc)
    a = solve_no_coop(gbar, es)
    b = solve_energy_only(gbar, es, beta=0.0)
    assert a.objective == pytest.approx(b.objective, abs=1e-12)


def test_energy_only_divides_the_band_across_cells():
    # Each cell transmits in its own subband, so the common rate factor
    # is 1/N while each station's power feeds only its own terminals.
    ch, _, es, assoc = _instance(2, n_bs=3, m_ant=2, n_mt=4)
    gbar = per_bs_zf_gains(ch, assoc)
    sol = solve_energy_only(gbar, es, beta=0.5)
    expected = np.sum(gbar.weights / 3.0 * np.log2(1.0 + gbar.a * sol.p))
    assert sol.objective == pytest.approx(float(expected), rel=1e-12)


def test_transfers_never_hurt_either_scheme_family():
    for seed in range(8):
        ch, _, es, assoc = _instance(seed, n_bs=3, m_ant=2, n_mt=4)
        g, gbar = zf_gains(ch), per_bs_zf_gains(ch, assoc)
        assert solve_p1(g, es, 0.8).objective >= \
            solve_comm_only(g, es).objective - 1e-8
        assert solve_energy_only(gbar, es, 0.8).objective >= \
            solve_no_coop(gbar, es).objective - 1e-8


def test_energy_only_pools_budgets_at_full_efficiency():
    ch, _, _, assoc = _instance(3)
    gbar = per_bs_zf_gains(ch, assoc)
    lop = EnergyState(re=np.array([20.0, 0.1]))
    sol = solve_energy_only(gbar, lop, beta=1.0)
    starved = solve_energy_only(gbar, lop, beta=0.0)
    assert sol.objective > starved.objective


def test_no_coop_with_empty_station_still_serves_the_other_cell():
    # The empty station's terminals are pinned to zero power; its price
    # must still certify that, so the KKT check runs on per-BS gains.
    for seed, n_bs, m_ant, n_mt in ((4, 2, 1, 2), (5, 3, 2, 5)):
        ch, _, _, assoc = _instance(seed, n_bs, m_ant, n_mt)
        es = EnergyState(re=np.array([10.0, 0.0, 10.0][:n_bs]))
        gains = per_bs_zf_gains(ch, assoc)
        sol = solve_no_coop(gains, es)
        assert sol.objective > 0.0
        assert kkt_residual(sol, gains, es, 0.0, bandwidth=1.0 / n_bs) <= 1e-9


def test_a_transfer_network_gives_the_raw_beta_s_solutions_bit_for_bit():
    rng = np.random.default_rng(27)
    for seed in range(8):
        n = 2 + seed % 3
        ch, _, es, assoc = _instance(40 + seed, n_bs=n, m_ant=2, n_mt=n + 1)
        g, gbar = zf_gains(ch), per_bs_zf_gains(ch, assoc)
        beta = 0.7 if seed % 2 else rng.uniform(size=(n, n)) * (rng.random((n, n)) < 0.7)
        net, zero = TransferNetwork(beta, n), TransferNetwork(0.0, n)
        joint = solve_p1(g, es, beta)
        # comm_only and no_coop take no beta: they match a beta = 0 network.
        pairs = [(joint, solve_p1(g, es, net)),
                 (solve_comm_only(g, es), solve_p1(g, es, zero)),
                 (solve_energy_only(gbar, es, beta), solve_energy_only(gbar, es, net)),
                 (solve_no_coop(gbar, es), solve_energy_only(gbar, es, zero))]
        for raw, built in pairs:
            for f in dataclasses.fields(raw):
                np.testing.assert_array_equal(getattr(built, f.name), getattr(raw, f.name))
        assert kkt_residual(joint, g, es, net) == kkt_residual(joint, g, es, beta)
        np.testing.assert_array_equal(recover_transfers(joint.p, es.budget, net, g.b),
                                      recover_transfers(joint.p, es.budget, beta, g.b))


def test_a_network_of_another_station_count_raises():
    ch, _, es, assoc = _instance(3)
    g = zf_gains(ch)
    net = TransferNetwork(0.5, 3)
    with pytest.raises(ValueError, match="shape"):
        solve_p1(g, es, net)
    with pytest.raises(ValueError, match="shape"):
        solve_energy_only(per_bs_zf_gains(ch, assoc), es, net)
    with pytest.raises(ValueError, match="shape"):
        recover_transfers(np.zeros(2), es.budget, net, g.b)
    with pytest.raises(ValueError, match="shape"):
        kkt_residual(solve_p1(g, es, 0.5), g, es, net)
