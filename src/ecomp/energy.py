"""Per-BS energy budgets, transfer efficiencies and the two-BS power region.

Each BS i has a transmit budget E_i = RE_i + G - P_C from its renewable
rate plus a constant grid draw.  BSs may exchange energy through the grid:
BS i injects e_ij and BS j may draw beta_ij * e_ij, the rest is network
loss.  ``TransferNetwork`` validates the efficiencies once and derives
all that solves over them share; the solver finds the transfer pattern.
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


def _best_paths(eff: np.ndarray) -> np.ndarray:
    """Best multi-hop efficiency between all station pairs, zero diagonal."""
    for m in range(eff.shape[0]):
        eff = np.maximum(eff, eff[:, m, None] * eff[m])
        np.fill_diagonal(eff, 0.0)
    return eff


def _incidence(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges and incidence matrix D of the transfer network.

    The edges are the positive pairs (src, dst) of ``beta``, whose diagonal
    is zero, in row-major order; edge (i, j) is the row e_i - beta_ij e_j
    of D.  So D mu >= 0 is the price cone beta_ij mu_j <= mu_i, and D^T e
    is what each station sends minus what it is delivered.
    """
    src, dst = np.nonzero(beta > 0)
    d = np.zeros((src.size, beta.shape[0]))
    rows = np.arange(src.size)
    d[rows, src], d[rows, dst] = 1.0, -beta[src, dst]
    return src, dst, d


class TransferNetwork:
    """Validated efficiencies ``beta`` of N stations and all derived from them alone; read-only.

    Best ``paths``; lossless ``groups`` (paths of 1 both ways, which float products of factors
    <= 1 give only on loss-free links) and ``label``; group ``betag``, ``pathsg``, ``cone`` and
    ``edges`` (g, h, b); station incidence ``(src, dst, d)``, the group one if none merge.
    """

    def __init__(self, beta, n_bs: int):
        self.n_bs, self.beta = n_bs, as_beta_matrix(beta, n_bs)
        self.paths = _best_paths(self.beta)
        linked = (self.paths >= 1.0) & (self.paths.T >= 1.0) | np.eye(n_bs, dtype=bool)
        rep = linked.argmax(axis=1)
        first = (rep == np.arange(n_bs)).nonzero()[0]
        ng, self.label = first.size, first.searchsorted(rep)
        self.groups = [(self.label == g).nonzero()[0].tolist() for g in range(ng)]
        # Across groups keep the largest efficiency; hops inside a group are free.
        self.betag, self.pathsg = np.zeros((ng, ng)), np.zeros((ng, ng))
        for group_level, station_level in ((self.betag, self.beta), (self.pathsg, self.paths)):
            np.maximum.at(group_level, (self.label[:, None], self.label), station_level)
            np.fill_diagonal(group_level, 0.0)
        src, dst, self.cone = _incidence(self.betag)
        self.edges = list(zip(src.tolist(), dst.tolist(), self.betag[src, dst].tolist()))
        self.src, self.dst, self.d = (src, dst, self.cone) if ng == n_bs else _incidence(self.beta)

    @classmethod
    def of(cls, beta, n_bs: int) -> TransferNetwork:
        """``beta`` itself when it is a network of ``n_bs`` stations, else one built from it."""
        if isinstance(beta, cls) and beta.n_bs != n_bs:
            raise ValueError(f"beta matrix shape {beta.beta.shape} != {(n_bs, n_bs)}")
        return beta if isinstance(beta, cls) else cls(beta, n_bs)


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
