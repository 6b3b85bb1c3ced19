"""Independent verifiers: grid search, sum-power water-filling, KKT scoring."""

import numpy as np
import pytest

from ecomp import (
    EnergyState,
    ZfGains,
    generate_rayleigh,
    kkt_residual,
    solve_p1,
    zf_gains,
)
from ecomp.solver import Solution
from verifiers import grid_search_p1, waterfill_sum_power


def _gains(a, b, weights=None):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.ones(a.size) if weights is None else np.asarray(weights, float)
    t = np.zeros((a.size, b.shape[0]), dtype=complex)
    return ZfGains(a=a, b=b, t_dir=t, weights=w)


def test_waterfill_single_terminal_uses_the_whole_budget():
    p = waterfill_sum_power([1.0], [2.0], [1.0], budget=5.0)
    np.testing.assert_allclose(p, [5.0], rtol=1e-10)


def test_waterfill_equalizes_weighted_marginals():
    w = np.array([1.0, 2.0, 1.0])
    a = np.array([0.5, 1.5, 3.0])
    c = np.ones(3)
    p = waterfill_sum_power(w, a, c, budget=10.0)
    np.testing.assert_allclose(float(c @ p), 10.0, rtol=1e-10)
    marg = w * a / (1.0 + a * p)
    active = p > 1e-9
    assert active.sum() >= 2
    spread = np.ptp(marg[active]) / np.max(marg[active])
    assert spread < 1e-8


def test_waterfill_drops_weak_terminals_at_low_budget():
    p = waterfill_sum_power([1.0, 1.0], [10.0, 0.01], [1.0, 1.0], budget=0.1)
    assert p[1] == 0.0
    np.testing.assert_allclose(p[0], 0.1, rtol=1e-9)


def test_waterfill_validates_inputs():
    with pytest.raises(ValueError):
        waterfill_sum_power([1.0], [0.0], [1.0], budget=1.0)
    with pytest.raises(ValueError):
        waterfill_sum_power([1.0], [1.0], [1.0], budget=-1.0)
    assert np.all(waterfill_sum_power([1.0], [1.0], [1.0], budget=0.0) == 0.0)


def test_grid_search_matches_closed_form_single_terminal():
    # One terminal, no transfers: the power is capped by the tighter station.
    g = _gains([2.0], [[0.5], [0.5]])
    es = EnergyState(re=np.array([3.0, 1.0]))
    obj, p, e = grid_search_p1(g, es, beta=0.0)
    np.testing.assert_allclose(p, [2.0], rtol=1e-6)
    np.testing.assert_allclose(obj, np.log2(1.0 + 2.0 * 2.0), rtol=1e-9)
    assert np.all(e == 0.0)


def test_grid_search_exploits_lossless_transfers():
    # Station 1 funds the terminal; station 2's budget is only reachable
    # through a transfer.
    g = _gains([1.0], [[0.999999], [1e-6]])
    es = EnergyState(re=np.array([1.0, 5.0]))
    obj1, p1, _ = grid_search_p1(g, es, beta=0.0)
    obj2, p2, _ = grid_search_p1(g, es, beta=1.0)
    assert p2[0] > p1[0] + 1.0
    assert obj2 > obj1


def test_grid_search_rejects_large_instances():
    g = _gains(np.ones(4), np.full((2, 4), 0.5))
    with pytest.raises(ValueError):
        grid_search_p1(g, EnergyState(re=np.ones(2)), beta=0.5)


def test_kkt_residual_accepts_the_solver_output():
    rng = np.random.default_rng(8)
    var = rng.uniform(0.2, 1.0, size=(2, 2))
    ch = generate_rayleigh(2, 1, 2, var, rng)
    g = zf_gains(ch)
    es = EnergyState(re=np.array([9.0, 4.0]))
    sol = solve_p1(g, es, beta=0.6)
    assert kkt_residual(sol, g, es, beta=0.6) < 1e-6


def test_kkt_residual_flags_a_perturbed_solution():
    rng = np.random.default_rng(9)
    var = rng.uniform(0.2, 1.0, size=(2, 2))
    ch = generate_rayleigh(2, 1, 2, var, rng)
    g = zf_gains(ch)
    es = EnergyState(re=np.array([9.0, 4.0]))
    sol = solve_p1(g, es, beta=0.6)
    worse = Solution(p=sol.p * 0.8, e=sol.e, mu=sol.mu, rates=sol.rates,
                     objective=sol.objective, net_exchange=sol.net_exchange,
                     dual_value=sol.dual_value, duality_gap=sol.duality_gap,
                     iterations=sol.iterations)
    assert kkt_residual(worse, g, es, beta=0.6) > 1e-3


def test_every_exported_name_resolves_and_the_references_stay_in_the_tests():
    import ecomp

    assert all(hasattr(ecomp, name) for name in ecomp.__all__)
    assert len(set(ecomp.__all__)) == len(ecomp.__all__)
    assert not {"grid_search_p1", "waterfill_sum_power"} & set(dir(ecomp))
