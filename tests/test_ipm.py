"""Batched interior-point method: prices independent of the batch, certified warm starts."""

import dataclasses

import numpy as np
import pytest

from ecomp import EnergyState, TransferNetwork, runner, solve_p1
from ecomp import baselines, ipm, solver
from ecomp.solver import _normalize
from test_runner import _csv, _golden, _recorded_warm_starts
from test_solver import _direct_instances, _instance


def _cluster_draws(count, beta):
    """Seeded (gains, es, network) cases of 3 stations, 2 antennas each and 6 terminals."""
    net = TransferNetwork(beta, 3)
    return [(*_instance(3000 + seed, n_bs=3, m_ant=2, n_mt=6), net) for seed in range(count)]


@pytest.mark.parametrize("beta", [0.9, 0.0])
def test_an_instance_s_prices_do_not_depend_on_its_batch(beta):
    probs = [_normalize(*case)[4] for case in _cluster_draws(24, beta)]
    batch = ipm.ipm_prices(probs)
    reversed_batch = ipm.ipm_prices(probs[::-1])[::-1]
    assert sum(x is not None for x in batch) >= 23
    for prob, x, y in zip(probs, batch, reversed_batch):
        alone = ipm.ipm_prices([prob])[0]
        assert (x is None) == (y is None) == (alone is None)
        if x is not None:
            assert np.array_equal(x, y) and np.array_equal(x, alone)


def test_a_singular_system_drops_only_its_instance(monkeypatch):
    # Stubbed: every batched solve fails, so each instance is solved alone,
    # and instance 1's first system is singular.  The others keep their bits.
    probs = [_normalize(*case)[4] for case in _cluster_draws(4, 0.9)]
    want = ipm.ipm_prices(probs)
    real, alone = np.linalg.solve, []

    def stub(mat, rhs):
        if mat.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        alone.append(len(alone))
        if len(alone) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(mat, rhs)

    monkeypatch.setattr(np.linalg, "solve", stub)
    got = ipm.ipm_prices(probs)
    assert got[1] is None and all(x is not None for x in want)
    for i in (0, 2, 3):
        assert np.array_equal(got[i], want[i])


def _cases():
    direct = [(g, es, TransferNetwork.of(beta, es.n_bs))
              for g, es, beta in _direct_instances(300) if es.n_bs <= 3]
    return _cluster_draws(48, 0.9) + _cluster_draws(48, 0.0) + direct


def test_the_ipm_starts_without_a_price_box_and_converges_on_every_case(monkeypatch):
    # The start is the one-price water level, so no box() is built; each
    # instance runs alone, as its prices do not depend on the batch.
    def no_box(self):
        raise AssertionError("ipm_prices built a price box")

    monkeypatch.setattr(solver._DualProblem, "box", no_box)
    probs = [prob for prob in (_normalize(*case)[4] for case in _cases())
             if prob is not None and prob.n > 1]
    assert len(probs) == 195
    assert all(ipm.ipm_prices([prob])[0] is not None for prob in probs)


def test_ipm_starts_certify_at_zero_cuts_and_match_the_cold_solve():
    # Each start is polished before any cut: accepted, the solve matches the
    # cold one within the certificate's gap tolerance.  Of the solves that
    # start cold without one (the ellipsoid's cuts), 95% must start warm.
    cases = _cases()
    starts = ipm.warm_starts(cases)
    cold_runs = accepted = 0
    for (gains, es, net), start in zip(cases, starts):
        cold = solve_p1(gains, es, net)
        cold_runs += cold.iterations > 0
        if start is None:
            continue
        sol = solve_p1(gains, es, net, start=start)
        accepted += sol.iterations == 0
        assert abs(sol.objective - cold.objective) <= 1e-6 * max(abs(cold.objective), 1.0)
    assert cold_runs >= 150 and accepted >= 0.95 * cold_runs, (cold_runs, accepted)


def test_only_solves_that_would_reach_the_ellipsoid_are_batched(monkeypatch):
    # One price (lossless links merge every station) and a terminal served by
    # one station each (the separable dual at one scalar beta) take the
    # closed forms, and a case with every station dead keeps no terminal.
    batched = []
    real = ipm.ipm_prices
    monkeypatch.setattr(ipm, "ipm_prices", lambda probs: batched.extend(probs) or real(probs))
    cases = _cluster_draws(3, 0.5)
    gains, es, net = cases[0]
    own = dataclasses.replace(gains, b=(gains.b == gains.b.max(axis=0)).astype(float))
    cases += [(gains, es, TransferNetwork(1.0, 3)), (own, es, net),
              (gains, EnergyState(re=np.zeros(3)), net)]
    starts = ipm.warm_starts(cases)
    assert len(batched) == 3
    assert [s is None for s in starts] == [False] * 3 + [True] * 3


def test_a_batch_that_converges_nowhere_falls_back_to_the_cold_path(monkeypatch, tmp_path):
    # A stubbed IPM that converges nowhere: every profile solve starts cold,
    # and the table is the golden one.
    starts = []
    real_solve = runner.solve_p1

    def recorded(gains, es, beta, start=None):
        starts.append(start)
        return real_solve(gains, es, beta, start=start)

    monkeypatch.setenv("ECOMP_WORKERS", "1")
    monkeypatch.setattr(ipm, "ipm_prices", lambda probs: [None] * len(probs))
    monkeypatch.setattr(runner, "solve_p1", recorded)
    sc, golden = _golden("three_cell_profile")
    table = runner.run_scenario(sc)
    assert starts and all(start is None for start in starts)
    assert _csv(table, tmp_path) == golden


def test_every_profile_solve_starts_from_ipm_prices_at_zero_cuts(monkeypatch, tmp_path):
    # The golden profile is one unit of 16 draws; every joint and comm_only
    # solve starts from its draw's IPM prices, the polish accepts each of
    # them, and the table keeps its bytes.
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    given, iterations = _recorded_warm_starts(monkeypatch), []
    real_solve = solver.solve_p1

    def recorded_solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(runner, "solve_p1", recorded_solve)
    monkeypatch.setattr(baselines, "solve_p1", recorded_solve)
    sc, golden = _golden("three_cell_profile")
    table = runner.run_scenario(sc)
    assert [len(batch) for batch in given] == [16, 16]
    assert all(start is not None for batch in given for start in batch)
    assert len(iterations) == 64 and iterations.count(0) == 64      # 4 schemes, 16 draws
    assert _csv(table, tmp_path) == golden
