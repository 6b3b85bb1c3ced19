"""Per-BS energy budgets and the inter-BS energy transfer model.

Each BS i has a transmit budget E_i = RE_i + G - P_C from its renewable
rate plus a constant grid draw.  BSs may exchange energy through the grid:
BS i injects e_ij and BS j may draw beta_ij * e_ij, the rest is network
loss.  The aggregate injected power always equals drawn plus lost, so the
exchange is grid neutral.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EnergyState:
    """Hybrid energy supply of the N BSs of one cluster."""

    re: np.ndarray           # per-BS renewable rate
    grid: float = 0.0        # constant grid draw G
    circuit: float = 0.0     # constant non-transmission power P_C
    pa_eff: float = 1.0      # PA efficiency; the solver assumes 1

    def __post_init__(self):
        re = np.atleast_1d(np.asarray(self.re, dtype=float))
        object.__setattr__(self, "re", re)
        if np.any(re < 0):
            raise ValueError("renewable rates must be nonnegative")
        if self.grid < self.circuit:
            raise ValueError("grid draw G must cover the circuit power P_C")
        if not 0.0 < self.pa_eff <= 1.0:
            raise ValueError("PA efficiency must lie in (0, 1]")
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


@dataclass(frozen=True)
class TransferModel:
    """Pairwise transfer efficiencies and a (possibly solved) transfer pattern."""

    beta: np.ndarray
    e: np.ndarray = None

    def __post_init__(self):
        n = np.asarray(self.beta).shape[0] if np.asarray(self.beta).ndim else None
        if n is None:
            raise ValueError("TransferModel needs a full beta matrix; "
                             "use as_beta_matrix for scalars")
        beta = as_beta_matrix(self.beta, n)
        object.__setattr__(self, "beta", beta)
        e = np.zeros((n, n)) if self.e is None else np.asarray(self.e, dtype=float)
        object.__setattr__(self, "e", e)
        if e.shape != (n, n) or np.any(e < 0) or np.any(np.diag(e) != 0):
            raise ValueError("transfers must be nonnegative with zero diagonal")
        off = ~np.eye(n, dtype=bool)
        if n >= 3 and np.all((beta[off] > 0) & (beta[off] < 1)):
            # Relaying through a third BS must be strictly lossier.
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    for m in range(n):
                        if m in (i, j):
                            continue
                        if beta[i, j] <= beta[i, m] * beta[m, j]:
                            raise ValueError(
                                f"beta[{i},{j}] must exceed the relayed "
                                f"efficiency beta[{i},{m}]*beta[{m},{j}]")

    @property
    def n_bs(self) -> int:
        return self.beta.shape[0]


def available_power(es: EnergyState, tm: TransferModel, i: int) -> float:
    """Transmit power available at BS i under the transfer pattern.

    May be negative, which signals an infeasible pattern; the solver's LP
    is responsible for feasibility.
    """
    inflow = float(tm.beta[:, i] @ tm.e[:, i])
    outflow = float(np.sum(tm.e[i, :]))
    return es.pa_eff * (float(es.budget[i]) + inflow - outflow)


def grid_neutrality_check(tm: TransferModel) -> tuple[float, float, float]:
    """Return (injected, drawn, lost) aggregate powers; injected = drawn + lost."""
    injected = float(np.sum(tm.e))
    drawn = float(np.sum(tm.beta * tm.e))
    lost = float(np.sum((1.0 - tm.beta) * tm.e))
    return injected, drawn, lost


def power_region_boundary(budgets, beta, n_samples: int = 101) -> np.ndarray:
    """Pareto boundary of the two-BS feasible transmit power region.

    Returns ``n_samples`` points (P1, P2) with P1 increasing and P2 the
    largest power BS 2 can spend while BS 1 spends P1, over all
    nonnegative transfer patterns.  Only N=2 is supported.
    """
    e = np.atleast_1d(np.asarray(budgets, dtype=float))
    if e.size != 2:
        raise ValueError("power_region_boundary supports exactly two BSs")
    bm = as_beta_matrix(beta, 2)
    b12, b21 = bm[0, 1], bm[1, 0]
    e1, e2 = float(e[0]), float(e[1])
    p1_max = e1 + (b21 * e2 if b21 > 0 else 0.0)
    # Sample both linear segments so the no-transfer corner (E1, E2) is hit
    # exactly.
    lo = np.linspace(0.0, e1, max(n_samples // 2 + 1, 2))
    hi = np.linspace(e1, p1_max, max(n_samples - lo.size + 1, 2))
    p1_grid = np.concatenate([lo, hi[1:]]) if p1_max > e1 else lo
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
