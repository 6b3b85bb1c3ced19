"""Per-BS energy budgets, transfer efficiencies and the two-BS power region.

Each BS i has a transmit budget E_i = RE_i + G - P_C from its renewable
rate plus a constant grid draw.  BSs may exchange energy through the grid:
BS i injects e_ij and BS j may draw beta_ij * e_ij, the rest is network
loss.  ``as_beta_matrix`` expands and validates the efficiencies once;
the solver finds the transfer pattern itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnergyState:
    """Hybrid energy supply of the N BSs of one cluster."""

    re: np.ndarray           # per-BS renewable rate
    grid: float = 0.0        # constant grid draw G
    circuit: float = 0.0     # constant non-transmission power P_C

    def __post_init__(self):
        re = np.atleast_1d(np.asarray(self.re, dtype=float))
        object.__setattr__(self, "re", re)
        if not np.all(np.isfinite(np.append(re, [self.grid, self.circuit]))):
            raise ValueError("renewable rates, grid draw and circuit power must be finite")
        if np.any(re < 0):
            raise ValueError("renewable rates must be nonnegative")
        if self.grid < self.circuit:
            raise ValueError("grid draw G must cover the circuit power P_C")
        if np.any(self.budget < 0):
            raise ValueError("transmit budgets must be nonnegative")

    @property
    def n_bs(self) -> int:
        return self.re.size

    @property
    def budget(self) -> np.ndarray:
        """Per-BS transmit power budget E_i = RE_i + G - P_C."""
        return self.re + self.grid - self.circuit


def as_beta_matrix(beta, n_bs: int) -> np.ndarray:
    """Expand scalar or matrix transfer efficiencies to an N x N array."""
    b = np.asarray(beta, dtype=float)
    if b.ndim == 0:
        out = np.full((n_bs, n_bs), float(b))
    else:
        out = b.copy()
        if out.shape != (n_bs, n_bs):
            raise ValueError(f"beta matrix shape {out.shape} != {(n_bs, n_bs)}")
    np.fill_diagonal(out, 0.0)
    # A scalar is checked even when N = 1 leaves no off-diagonal entry;
    # NaN fails both comparisons.
    vals = b if b.ndim == 0 else out[~np.eye(n_bs, dtype=bool)]
    if not np.all((vals >= 0) & (vals <= 1)):
        raise ValueError("transfer efficiencies must be finite and lie in [0, 1]")
    return out


def power_region_boundary(budgets, beta, n_samples: int = 101) -> np.ndarray:
    """Pareto boundary of the two-BS feasible transmit power region.

    Returns ``n_samples`` (at least 3) points (P1, P2) with P1 increasing
    and P2 the largest power BS 2 can spend while BS 1 spends P1, over all
    nonnegative transfer patterns.  Only N=2 is supported.  Raises
    ValueError for a negative or non-finite budget, an invalid ``beta``
    or fewer than 3 samples.
    """
    e = np.atleast_1d(np.asarray(budgets, dtype=float))
    if e.size != 2:
        raise ValueError("power_region_boundary supports exactly two BSs")
    if not np.all((e >= 0) & np.isfinite(e)):
        raise ValueError(f"budgets must be finite and nonnegative; got {e.tolist()}")
    if n_samples < 3:
        raise ValueError(f"n_samples must be at least 3; got {n_samples}")
    bm = as_beta_matrix(beta, 2)
    b12, b21 = bm[0, 1], bm[1, 0]
    e1, e2 = float(e[0]), float(e[1])
    p1_max = e1 + (b21 * e2 if b21 > 0 else 0.0)
    if p1_max > e1:
        # Sample both linear segments so the no-transfer corner (E1, E2) is
        # hit exactly.
        lo = np.linspace(0.0, e1, n_samples // 2 + 1)
        hi = np.linspace(e1, p1_max, n_samples - lo.size + 1)
        p1_grid = np.concatenate([lo, hi[1:]])
    else:
        p1_grid = np.linspace(0.0, e1, n_samples)
    pts = np.empty((p1_grid.size, 2))
    for idx, p1 in enumerate(p1_grid):
        if p1 <= e1:
            # BS 1 has surplus e1 - p1 it may forward to BS 2.
            p2 = e2 + b12 * (e1 - p1)
        else:
            # BS 2 must cover the deficit through a transfer.
            p2 = e2 - (p1 - e1) / b21
        pts[idx] = (p1, max(p2, 0.0))
    return pts
