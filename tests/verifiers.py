"""Independent references for the solver: brute force and water-filling.

Both avoid the dual-decomposition path so the tests can check it against
them: the grid search enumerates the primal box directly, and the
sum-power water-filler bisects a single multiplier.  They run only in
the tests, so they live here rather than in the package.
"""

from __future__ import annotations

import numpy as np

from ecomp.channel import ZfGains
from ecomp.energy import EnergyState, as_beta_matrix
from ecomp.solver import LN2

MAX_GRID_MTS = 3
MAX_GRID_BSS = 2
GRID_RESOLUTION = 15
REFINE_ROUNDS = 40
SHRINK = 1.4
WATERFILL_TOL = 1e-13


def grid_search_p1(gains: ZfGains, es: EnergyState,
                   beta) -> tuple[float, np.ndarray, np.ndarray]:
    """Brute-force the joint problem on a refined grid over (p, e).

    Two reductions keep the search low-dimensional without losing the
    optimum.  First, with two stations a simultaneous pair of opposite
    transfers is dominated: shrinking e21 by d and e12 by beta21*d keeps
    station 1's available power unchanged and frees d*(1 - b12*b21) >= 0
    at station 2, so only a single signed net transfer t is gridded
    (t > 0 sends 1->2, t < 0 sends 2->1).  Second, the objective is
    increasing in every power, so the last terminal's power is always
    budget-maximal given the rest and is computed in closed form rather
    than gridded.  The box repeatedly shrinks around the incumbent.
    Returns (objective, p, e) of the best feasible point, a lower bound
    on the optimum.  Guarded to tiny instances (K <= 3, N <= 2).
    """
    n, k = gains.b.shape
    if k > MAX_GRID_MTS or n > MAX_GRID_BSS:
        raise ValueError(f"grid search limited to K<={MAX_GRID_MTS}, "
                         f"N<={MAX_GRID_BSS}; got K={k}, N={n}")
    bm = as_beta_matrix(beta, n)
    budgets = es.budget
    has_t = n == 2 and (bm[0, 1] > 0 or bm[1, 0] > 0)

    # Box upper bounds: one transfer hop can at most add beta_ji E_j.
    avail_up = budgets + bm.T @ budgets
    p_up = np.empty(k)
    for kk in range(k):
        with np.errstate(divide="ignore"):
            p_up[kk] = np.min(np.where(gains.b[:, kk] > 1e-12,
                                       avail_up / np.maximum(gains.b[:, kk], 1e-12),
                                       np.inf))

    dims = (k - 1) + (1 if has_t else 0)  # last terminal power is implied
    lo0 = np.zeros(k - 1)
    hi0 = p_up[:-1].copy()
    if has_t:
        lo0 = np.append(lo0, -budgets[1] if bm[1, 0] > 0 else 0.0)
        hi0 = np.append(hi0, budgets[0] if bm[0, 1] > 0 else 0.0)
    lo, hi = lo0.copy(), np.maximum(hi0, lo0 + 1e-12)
    best_obj = 0.0
    best_x = np.zeros(dims)
    best_plast = 0.0

    def evaluate(coords):
        """Objective over broadcastable per-dimension coordinate arrays."""
        head = []
        feasible = True
        for i in range(n):
            room = budgets[i] - sum(gains.b[i, kk] * coords[kk]
                                    for kk in range(k - 1))
            if has_t:
                t = coords[-1]
                out, back = (t, bm[1, 0] * (-t)) if i == 0 else (-t, bm[0, 1] * t)
                room = room - np.maximum(out, 0.0) + np.maximum(back, 0.0)
            feasible = feasible & (room >= -1e-12)
            head.append(room)
        p_last = np.minimum.reduce([
            np.where(gains.b[i, k - 1] > 1e-12,
                     head[i] / max(gains.b[i, k - 1], 1e-12), np.inf)
            for i in range(n)])
        p_last = np.maximum(p_last, 0.0)
        obj = gains.weights[k - 1] * np.log2(1.0 + gains.a[k - 1] * p_last)
        obj = obj + sum(gains.weights[kk] * np.log2(1.0 + gains.a[kk] * coords[kk])
                        for kk in range(k - 1))
        return np.where(feasible, obj, -np.inf), p_last

    # Two passes: the second restarts the box around the first incumbent,
    # which recovers cases where an early shrink drifted along a ridge.
    for r in range(2 * REFINE_ROUNDS):
        if r == REFINE_ROUNDS:
            span = (hi0 - lo0) / 20.0
            lo = np.maximum(best_x - span, lo0)
            hi = np.maximum(np.minimum(best_x + span, hi0), lo + 1e-15)
        axes = [np.linspace(lo[d], hi[d], GRID_RESOLUTION) for d in range(dims)]
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        obj, p_last = evaluate(mesh)
        flat = int(np.argmax(obj))
        idx = np.unravel_index(flat, obj.shape)
        if obj[idx] > best_obj:
            best_obj = float(obj[idx])
            best_x = np.array([axes[d][idx[d]] for d in range(dims)])
            best_plast = float(np.broadcast_to(p_last, obj.shape)[idx])
        # Line searches over the full original range along each axis: lets
        # the incumbent escape a shrunken box that excluded a boundary.
        for d in range(dims):
            cand = np.concatenate([
                np.linspace(lo0[d], hi0[d], 257),
                np.linspace(lo[d], hi[d], 65),
                [best_x[d]]])
            coords = [np.full_like(cand, best_x[dd]) for dd in range(dims)]
            coords[d] = cand
            obj_l, p_last_l = evaluate(coords)
            j = int(np.argmax(obj_l))
            if obj_l[j] > best_obj:
                best_obj = float(obj_l[j])
                best_x = best_x.copy()
                best_x[d] = cand[j]
                best_plast = float(p_last_l[j])
        # Sweep along the two-station budget kink: for each transfer value
        # solve the power that equalises both stations' implied caps on the
        # last terminal.  Coordinate moves jam on this diagonal ridge.
        if has_t and n == 2 and gains.b[0, k - 1] > 1e-12 and gains.b[1, k - 1] > 1e-12:
            b0l, b1l = gains.b[0, k - 1], gains.b[1, k - 1]
            tc = np.concatenate([np.linspace(lo0[-1], hi0[-1], 257),
                                 np.linspace(lo[-1], hi[-1], 65)])
            back0 = bm[1, 0] * np.maximum(-tc, 0.0)
            back1 = bm[0, 1] * np.maximum(tc, 0.0)
            for j in range(k - 1):
                c0 = budgets[0] - np.maximum(tc, 0.0) + back0
                c1 = budgets[1] - np.maximum(-tc, 0.0) + back1
                for kk in range(k - 1):
                    if kk != j:
                        c0 = c0 - gains.b[0, kk] * best_x[kk]
                        c1 = c1 - gains.b[1, kk] * best_x[kk]
                denom = gains.b[0, j] * b1l - gains.b[1, j] * b0l
                if abs(denom) < 1e-12:
                    continue
                pj = np.clip((c0 * b1l - c1 * b0l) / denom, 0.0, hi0[j])
                coords = [np.full_like(tc, best_x[dd]) for dd in range(dims)]
                coords[j] = pj
                coords[-1] = tc
                obj_r, p_last_r = evaluate(coords)
                m = int(np.argmax(obj_r))
                if obj_r[m] > best_obj:
                    best_obj = float(obj_r[m])
                    best_x = best_x.copy()
                    best_x[j] = pj[m]
                    best_x[-1] = tc[m]
                    best_plast = float(p_last_r[m])
        # Shrink the box around the incumbent, clipped to the original one.
        width = (hi - lo) / SHRINK
        lo = np.maximum(best_x - width / 2, lo0)
        hi = np.minimum(best_x + width / 2, hi0)
        hi = np.maximum(hi, lo + 1e-15)

    e = np.zeros((n, n))
    if has_t:
        t = best_x[-1]
        if t > 0:
            e[0, 1] = t
        else:
            e[1, 0] = -t
    p = np.concatenate([best_x[:k - 1], [best_plast]])
    return best_obj, p, e


def waterfill_sum_power(weights, a, c, budget: float) -> np.ndarray:
    """Weighted water-filling under a single budget with per-MT costs.

    Maximizes sum w_k log2(1 + a_k p_k) subject to sum c_k p_k <= budget,
    by bisecting the budget multiplier.
    """
    w = np.asarray(weights, dtype=float)
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if np.any(a <= 0) or np.any(c <= 0):
        raise ValueError("gains and costs must be positive")
    if budget == 0:
        return np.zeros_like(a)

    def powers(nu):
        return np.maximum(w / (LN2 * nu * c) - 1.0 / a, 0.0)

    hi = float(np.max(w * a / (LN2 * c)))           # all powers zero here
    lo = hi * 1e-18
    while float(c @ powers(lo)) < budget:
        lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(c @ powers(mid)) > budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= WATERFILL_TOL * hi:
            break
    p = powers(0.5 * (lo + hi))
    used = float(c @ p)
    if used > 0:                                    # exact budget balance
        p *= budget / used
    return p
