"""Phase-1 simplex feasibility solver."""

import numpy as np
import pytest

from ecomp import InfeasibleError, phase1_feasible
from ecomp.energy import _incidence


def test_finds_feasible_point_of_consistent_system():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([2.0, 3.0])
    x = phase1_feasible(a, b)
    assert np.all(x >= 0)
    np.testing.assert_allclose(a @ x, b, atol=1e-9)


def test_handles_negative_right_hand_sides():
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-2.0, 1.0])
    x = phase1_feasible(a, b)
    assert np.all(x >= 0)
    np.testing.assert_allclose(a @ x, b, atol=1e-9)


def test_detects_infeasible_system():
    # x1 >= 0 with x1 = 1 and x1 = 2 simultaneously.
    a = np.array([[1.0], [1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(InfeasibleError) as exc:
        phase1_feasible(a, b)
    assert exc.value.residual > 0.5


def test_detects_sign_infeasibility():
    a = np.array([[1.0, 1.0]])
    b = np.array([-1.0])
    with pytest.raises(InfeasibleError):
        phase1_feasible(a, b)


def test_degenerate_ties_terminate():
    # Degenerate vertex (zero right-hand side) exercises the anti-cycling
    # tie-breaking rule.
    a = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0], [1.0, 1.0, 1.0]])
    b = np.array([0.0, 0.0, 3.0])
    x = phase1_feasible(a, b)
    np.testing.assert_allclose(a @ x, b, atol=1e-9)
    np.testing.assert_allclose(x, [1.0, 1.0, 1.0], atol=1e-9)


def test_random_consistent_systems_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, n = 3, 6
        a = rng.normal(size=(m, n))
        x_true = rng.uniform(0.0, 1.0, size=n)
        b = a @ x_true
        x = phase1_feasible(a, b)
        assert np.all(x >= 0)
        np.testing.assert_allclose(a @ x, b, atol=1e-8)


def _ref_phase1(a_eq: np.ndarray, b_eq: np.ndarray,
                tol: float = 1e-9) -> np.ndarray:
    """Phase-1 simplex with a Python loop over the entering columns and
    numpy ratio arrays; ``phase1_feasible`` must match it bit for bit."""
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float).copy()
    m, n = a.shape
    a = a.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Tableau: [A | I][x; art] = b, minimize sum of artificials.
    tab = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost = np.concatenate([np.zeros(n), np.ones(m)])

    max_pivots = 500 * (n + m + 1)
    for _ in range(max_pivots):
        # Reduced costs of the phase-1 objective.
        y = cost[basis] @ tab[:, :-1]
        reduced = cost - y
        entering = -1
        for j in range(n + m):           # Bland: lowest eligible index
            if reduced[j] < -1e-12:
                entering = j
                break
        if entering < 0:
            break
        col = tab[:, entering]
        ratios = np.full(m, np.inf)
        pos = col > 1e-12
        ratios[pos] = tab[pos, -1] / col[pos]
        if not np.any(pos):
            break                        # unbounded direction: cost stuck
        best = np.min(ratios[pos])
        ties = [r for r in range(m) if pos[r] and ratios[r] <= best + 1e-15]
        leaving = min(ties, key=lambda r: basis[r])   # Bland on ties
        piv = tab[leaving, entering]
        tab[leaving] /= piv
        for r in range(m):
            if r != leaving and abs(tab[r, entering]) > 0:
                tab[r] -= tab[r, entering] * tab[leaving]
        basis[leaving] = entering

    x_full = np.zeros(n + m)
    x_full[basis] = tab[:, -1]
    residual = float(np.sum(x_full[n:]))
    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    if residual > tol * scale:
        raise InfeasibleError(residual)
    return np.maximum(x_full[:n], 0.0)


def _transfer_systems():
    """Seeded ``[D^T | I]`` systems of transfer recovery, N from 2 to 6.

    The efficiencies mix zeros, ones and U(0, 1); the right-hand sides are
    small integers, so zeros, negatives and tied ratios are common, and
    some systems ask for more than the network can deliver.
    """
    rng = np.random.default_rng(2501)
    for trial in range(1500):
        n = 2 + trial % 5
        beta = rng.uniform(size=(n, n))
        u = rng.random((n, n))
        beta[u < 0.3] = 0.0
        beta[u > 0.85] = 1.0
        np.fill_diagonal(beta, 0.0)
        _, _, d = _incidence(beta)
        rhs = rng.integers(-3, 4, size=n).astype(float)
        if trial % 3 == 0:
            rhs *= rng.uniform(0.5, 2.0)
        yield np.hstack([d.T, np.eye(n)]), rhs


def test_phase1_matches_the_loop_reference_bit_for_bit():
    feasible = infeasible = 0
    for a, b in _transfer_systems():
        try:
            ref = _ref_phase1(a, b, tol=1e-7)
        except InfeasibleError as exc:
            infeasible += 1
            with pytest.raises(InfeasibleError) as got:
                phase1_feasible(a, b, tol=1e-7)
            assert got.value.residual == exc.residual and str(got.value) == str(exc)
            continue
        feasible += 1
        got = phase1_feasible(a, b, tol=1e-7)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert feasible >= 500 and infeasible >= 200
