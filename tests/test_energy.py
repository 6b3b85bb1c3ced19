"""Energy budgets, transfer efficiencies, and the two-station power region."""

import re

import numpy as np
import pytest

from ecomp import (
    EnergyState,
    as_beta_matrix,
    power_region_boundary,
)


def test_budget_is_the_renewable_rate_vector():
    es = EnergyState(re=[4.0, 1.0, 0.0])
    np.testing.assert_array_equal(es.budget, [4.0, 1.0, 0.0])
    assert es.budget is es.re and es.budget.dtype == float
    assert es.n_bs == 3


def test_energy_state_rejects_negative_supply():
    with pytest.raises(ValueError):
        EnergyState(re=np.array([-1.0, 2.0]))
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"re": [1.0, nan]}, {"re": [inf]}):
        with pytest.raises(ValueError, match="finite"):
            EnergyState(**kwargs)
    # Shapes no solver can use: stations must be one nonempty axis.
    for rates in ([[1.0], [2.0]], [[1.0, 2.0]], [], 1.0):
        with pytest.raises(ValueError, match="1-D"):
            EnergyState(re=rates)


def test_as_beta_matrix_scalar_expansion():
    bm = as_beta_matrix(0.7, 3)
    assert bm.shape == (3, 3)
    assert np.all(np.diag(bm) == 0.0)
    off = ~np.eye(3, dtype=bool)
    assert np.all(bm[off] == 0.7)


def test_as_beta_matrix_validates_range_and_shape():
    with pytest.raises(ValueError):
        as_beta_matrix(1.2, 2)
    with pytest.raises(ValueError):
        as_beta_matrix(np.ones((2, 3)), 2)
    # NaN passes both range comparisons; a lone station has no off-diagonal
    # entry to check, so its scalar must be checked as given.
    nan_entry = np.array([[0.0, np.nan], [0.5, 0.0]])
    for beta, n in ((np.nan, 2), (np.inf, 3), (nan_entry, 2), (5.0, 1), (-0.1, 1)):
        with pytest.raises(ValueError):
            as_beta_matrix(beta, n)
    # Only off-diagonal entries are efficiencies; the diagonal is ignored.
    assert as_beta_matrix(np.array([[np.nan, 0.3], [0.5, 7.0]]), 2)[0, 1] == 0.3
    assert as_beta_matrix(1.0, 1).shape == (1, 1)


def test_power_region_contains_the_no_transfer_corner():
    pts = power_region_boundary([6.0, 2.0], 0.5)
    corner = pts[np.isclose(pts[:, 0], 6.0)]
    assert corner.size and np.any(np.isclose(corner[:, 1], 2.0))


def test_power_region_extremes_and_monotonicity():
    e1, e2, beta = 6.0, 2.0, 0.5
    pts = power_region_boundary([e1, e2], beta)
    assert pts[0, 0] == 0.0
    np.testing.assert_allclose(pts[0, 1], e2 + beta * e1)
    np.testing.assert_allclose(pts[-1, 0], e1 + beta * e2)
    np.testing.assert_allclose(pts[-1, 1], 0.0)
    assert np.all(np.diff(pts[:, 0]) >= 0)
    assert np.all(np.diff(pts[:, 1]) <= 1e-12)


def test_power_region_without_transfers_is_the_budget_box():
    pts = power_region_boundary([6.0, 2.0], 0.0)
    np.testing.assert_allclose(pts[:, 1], 2.0)
    np.testing.assert_allclose(pts[-1, 0], 6.0)


@pytest.mark.parametrize("beta", [0.0, 0.8, [[0.0, 0.8], [0.0, 0.0]]],
                         ids=["none", "both-ways", "1-to-2-only"])
def test_power_region_returns_exactly_n_samples_points(beta):
    # Without a transfer into BS 1 the boundary is one segment.
    for n_samples in (3, 4, 11, 101):
        assert power_region_boundary([10.0, 5.0], beta, n_samples).shape == (n_samples, 2)
    for n_samples in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="at least 3"):
            power_region_boundary([10.0, 5.0], beta, n_samples)


@pytest.mark.parametrize("budgets", [[-5.0, 3.0], [10.0, -1e-12], [np.nan, 3.0],
                                     [np.inf, 3.0], [3.0, -np.inf]])
def test_power_region_rejects_negative_and_non_finite_budgets(budgets):
    # One budget rule: the region and EnergyState give the same message.
    message = re.escape(f"budgets must be finite and nonnegative; got {budgets}")
    with pytest.raises(ValueError, match=message):
        power_region_boundary(budgets, 0.5, 5)
    with pytest.raises(ValueError, match=message):
        EnergyState(re=budgets)
