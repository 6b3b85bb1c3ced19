"""Tiny phase-1 simplex for equality-form feasibility problems.

The transfer-recovery step only needs a feasible point of
``A x = b, x >= 0`` with a handful of variables, so a dense tableau with
Bland's rule (anti-cycling) is plenty.
"""

from __future__ import annotations

import numpy as np


class InfeasibleError(RuntimeError):
    """The phase-1 optimum left a nonzero artificial residual."""

    def __init__(self, residual: float):
        super().__init__(f"LP infeasible, residual {residual:.3e}")
        self.residual = residual


def phase1_feasible(a_eq: np.ndarray, b_eq: np.ndarray,
                    tol: float = 1e-9) -> np.ndarray:
    """Find x >= 0 with ``a_eq @ x = b_eq`` via phase-1 simplex.

    Raises InfeasibleError when the minimal artificial residual exceeds
    ``tol`` (scaled by the problem magnitude).
    """
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
        # Reduced costs of the phase-1 objective; Bland: lowest eligible index.
        eligible = (cost - cost[basis] @ tab[:, :-1] < -1e-12).nonzero()[0]
        if not eligible.size:
            break
        entering = int(eligible[0])
        col, rhs = tab[:, entering].tolist(), tab[:, -1].tolist()
        ratios = [(rhs[r] / c, r) for r, c in enumerate(col) if c > 1e-12]
        if not ratios:
            break                        # unbounded direction: cost stuck
        best = min(ratio for ratio, _ in ratios)
        ties = [r for ratio, r in ratios if ratio <= best + 1e-15]
        leaving = min(ties, key=lambda r: basis[r])   # Bland on ties
        tab[leaving] /= col[leaving]
        for r in range(m):
            if r != leaving and abs(col[r]) > 0:
                tab[r] -= col[r] * tab[leaving]
        basis[leaving] = entering

    x_full = np.zeros(n + m)
    x_full[basis] = tab[:, -1]
    residual = float(x_full[n:].sum())
    scale = max(1.0, float(abs(b).max()) if m else 1.0)
    if residual > tol * scale:
        raise InfeasibleError(residual)
    return np.maximum(x_full[:n], 0.0)
