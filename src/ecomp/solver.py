"""Joint power-allocation and energy-transfer optimizer.

Maximizes the weighted sum rate of a ZF-precoded cluster subject to per-BS
power budgets coupled by lossy inter-BS energy transfers.  The problem is
concave with affine constraints, so it is solved through its dual: pricing
each BS budget with a multiplier mu_i, the per-terminal power allocation
has a water-filling closed form, the dual is minimized with the ellipsoid
method over the cone {mu >= 0, beta_ij mu_j <= mu_i} (or exactly, when
one price covers all stations or each terminal has a price of its own).
The transfers are the flows of an accepted Newton polish with one station
per price, or else come from the optimal powers through a small LP.
``solve_p1`` is one pass of array stages: normalize, dual, powers,
transfers, certificate.  A ``start`` is polished before any cut; for the
cold solves of a three_cell_profile unit it comes from the batched
interior-point method of ``ipm``, which shares the normalize stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ZfGains
from .energy import EnergyState, TransferNetwork
from .simplex import InfeasibleError, phase1_feasible

LN2 = math.log(2.0)

# Transfers below this fraction of the energy scale are flushed to zero
# during the unidirectionality post-processing.
FLOW_FLOOR = 1e-11

# Final ellipsoid width and the widths at which its best point so far is
# polished early, in units of min(1, the start box's largest price);
# phase-1 residual of recovery.
DUAL_TOL = 1e-9
POLISH_AT = (1e-3, 1e-6)
RECOVERY_TOL = 1e-7


class ConvergenceError(RuntimeError):
    """Ellipsoid ended unconverged (cut cap, degenerate shape), no polish accepted."""


@dataclass(frozen=True)
class Solution:
    """Primal/dual solution of the joint cooperation problem."""

    p: np.ndarray              # per-MT transmit powers
    e: np.ndarray              # N x N transfer pattern
    mu: np.ndarray             # per-BS dual prices of the power constraints
    rates: np.ndarray          # per-MT rates (bps/Hz, bandwidth share included)
    objective: float           # weighted sum rate
    dual_value: float
    duality_gap: float
    iterations: int            # ellipsoid cuts; 0 in closed form or from an accepted start


# ---------------------------------------------------------------------------
# dual minimization


def _dot(u, v) -> float:
    """Left-to-right dot product of two float sequences."""
    t = 0.0
    for a, b in zip(u, v):
        t += a * b
    return t


class _DualProblem:
    """Reduced dual problem over the lossless groups: one price per group.

    A loss-free cycle leaves the cone no interior, so each lossless group of
    the ``TransferNetwork`` shares a price (``paths`` is its ``pathsg``).
    ``bg[g, k]`` is what terminal k spends at group g per unit power, ``eg``
    the group budgets.  An accepted ``_polish_dual`` leaves ``polished``: its
    last oracle's powers and value (at its prices), active cone rows and flows.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, w: np.ndarray, budget: np.ndarray, network):
        self.n, self.label, self.groups = len(network.groups), network.label, network.groups
        self.betag, self.paths, self.beta1 = network.betag, network.pathsg, network.beta1
        self.cone, self.edges = network.cone, network.edges
        self.w, self.a = w, a
        one = self.n == network.n_bs        # every group is one station
        self.bg = b if one else np.array([b[g].sum(axis=0) for g in self.groups])
        self.eg = budget if one else np.array([budget[g].sum() for g in self.groups])
        self.polished = None
        # Float tables for the oracle: per terminal (bg[:, k], w_k, a_k, 1/a_k); bg's rows.
        self._terminals = list(zip(self.bg.T.tolist(), w.tolist(), a.tolist(),
                                   (1.0 / a).tolist()))
        self._rows, self._eg = self.bg.tolist(), self.eg.tolist()

    def oracle(self, x) -> tuple[list, float, list]:
        """Water-filling powers, dual value and subgradient (budget - spent) at x.

        Python floats, every sum left to right, so no BLAS build moves a bit:
        s_k = sum_g bg[g, k] x_g, then sum_k (w_k log2(1 + a_k p_k) - s_k p_k)
        + sum_g x_g eg_g and eg_g - sum_k bg[g, k] p_k.
        """
        if isinstance(x, np.ndarray):
            x = x.tolist()
        ps, val = [], 0.0
        for col, w, a, inv_a in self._terminals:
            s = max(_dot(col, x), 1e-300)
            p = max(w / (LN2 * s) - inv_a, 0.0)
            ps.append(p)
            val += w * math.log2(1.0 + a * p) - s * p
        sub = [e - _dot(row, ps) for e, row in zip(self._eg, self._rows)]
        return ps, val + _dot(x, self._eg), sub

    def violated_cut(self, x):
        """The most violated cone constraint as (i, j, b), or None.

        The cut's gradient is b e_j - e_i: a bound x_i >= 0 reads
        (i, i, 0.0) and an edge b x_j <= x_i reads (i, j, b).  Bounds come
        first and win ties; among the edges the first strict maximum in
        row-major order wins.  Zero-efficiency pairs are left out: their
        violation -x_i never exceeds the bound cut's.
        """
        worst, cut = 0.0, None
        for i, xi in enumerate(x):
            if -xi > worst:
                worst, cut = -xi, (i, i, 0.0)
        for i, j, b in self.edges:
            v = b * x[j] - x[i]
            if v > worst:
                worst, cut = v, (i, j, b)
        return cut

    def box(self) -> list[float]:
        """Upper corner u of a price box [0, u] that holds a dual optimum.

        p = 0 is feasible, so the dual is at least x . eg on the cone, and
        x = 1 lies in the cone (every efficiency is at most 1).  A dual
        optimum x therefore has x_g <= D(1) / eg_g wherever eg_g > 0.  Where
        every terminal spends at g, a price above w_k a_k / (ln2 bg[g, k])
        for every k switches every terminal off, so x_g stays below the
        largest of these caps; elsewhere g may export its budget, and its
        price then follows the prices its exports reach.  Each bound is
        tightened along the best paths: x_i >= paths_ij x_j gives
        u_j <= u_i / paths_ij.  A group no finite bound reaches has no budget
        and nothing reaching it: the dual is flat in its price, which
        ``solve_p1`` overwrites, so it takes the largest finite bound.
        """
        u = np.divide(self.oracle([1.0] * self.n)[1], self.eg,
                      out=np.full(self.n, np.inf), where=self.eg > 0)
        every = np.all(self.bg > 0, axis=1)
        caps = self.w * self.a / LN2 / self.bg[every]
        u[every] = np.minimum(u[every], np.max(caps, axis=1))
        via = np.divide(u[:, None], self.paths, out=np.full(self.paths.shape, np.inf),
                        where=self.paths > 0)
        u = np.minimum(u, via.min(axis=0))
        u[np.isinf(u)] = np.max(u[np.isfinite(u)])
        return u.tolist()


def _water_levels(prob: _DualProblem, c: np.ndarray,
                  grp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each group's one-price dual minimizer, and the terminals' cutoffs.

    Terminal k, priced c_k x and served by group ``grp[k]``, transmits
    below tau_k = w_k a_k / (ln2 c_k).  With the set T of its terminals
    on, group g spends sum_T w/(ln2 x) - c/a, so it spends eg_g at the
    level sum_T w/ln2 / (eg_g + sum_T c/a).  Switching on any set of
    terminals spends at most what the true on-set does, so each set's
    level is at most the minimizer, with equality at the true set, which
    is a top set of tau.  The minimizer is therefore the largest level
    over the top sets.  A zero budget leaves the largest tau, a group
    with no terminal the price 0.
    """
    eg = prob.eg
    tau = prob.w * prob.a / (LN2 * c)
    # top[j, k]: terminal k is on whenever terminal j is.
    top = (grp[:, None] == grp) & (tau >= tau[:, None])
    level = (top @ (prob.w / LN2)) / (eg[grp] + top @ (c / prob.a))
    mine = np.arange(eg.size)[:, None] == grp
    x = np.max(np.where(mine, np.where(eg[:, None] > 0, level, tau), 0.0), axis=1)
    return x, tau


def _minimize_dual_1d(prob: _DualProblem) -> float:
    """Exact minimizer of the one-price dual (all groups merged, or N = 1)."""
    x, _ = _water_levels(prob, np.maximum(prob.bg[0], 1e-12),
                         np.zeros(prob.a.size, dtype=int))
    return float(x[0])


def _minimize_dual_separable(prob: _DualProblem) -> np.ndarray | None:
    """Exact dual minimizer under per-station prices and one scalar beta.

    Applies when each terminal spends at exactly one group and every
    cross-group efficiency is one beta < 1; returns None otherwise.  The
    dual then sums one convex term per group, and the cone
    beta x_h <= x_g says that every price lies in [L, L / beta] for
    L = min x.  For fixed L each group takes its own minimizer clipped to
    the band, and Phi'(L), the slope of the dual in L, is nondecreasing:
    it sums the budget surplus E_g - S_g(L) of the groups clipped up to L,
    and 1 / beta times E_g - S_g(L / beta) of those clipped down.  Between
    the sorted breakpoints (the minimizers, the cutoffs tau and both
    times beta) it reads A - B / L, so the root is B / A on the first
    piece whose right end has Phi' >= 0.
    """
    beta = prob.beta1
    if beta is None or any(sum(c > 0 for c in col) != 1 for col, *_ in prob._terminals):
        return None
    grp = np.argmax(prob.bg > 0, axis=0)
    c = prob.bg[grp, np.arange(grp.size)]
    x_star, tau = _water_levels(prob, c, grp)
    if beta == 0.0:
        return x_star
    ends = np.concatenate([x_star, tau])
    ends = np.sort(np.concatenate([ends, beta * ends]))
    ends = ends[ends > 0]
    starts = np.concatenate([[0.0], ends[:-1]])
    mid = 0.5 * (starts + ends)
    # On each piece: which groups are clipped up to L or down to L / beta,
    # and which of their terminals transmit there.
    up = x_star[:, None] < mid
    down = beta * x_star[:, None] > mid
    on_up = up[grp] & (tau[:, None] > mid)
    on_down = down[grp] & (beta * tau[:, None] > mid)
    cost = c / prob.a
    slope_a = prob.eg @ up + cost @ on_up + (prob.eg @ down + cost @ on_down) / beta
    slope_b = (prob.w / LN2) @ (on_up | on_down)
    # Past the last breakpoint Phi' is sum(eg) > 0 (solve_p1 scales the
    # largest budget to 1), so some right end qualifies.
    i = int(np.argmax(slope_a - slope_b / ends >= 0.0))
    root = slope_b[i] / slope_a[i] if slope_a[i] > 0 else ends[i]
    low = min(max(root, starts[i]), ends[i])
    return np.clip(x_star, low, low / beta)


def _minimize_dual_ellipsoid(prob: _DualProblem, start=None) -> tuple[np.ndarray, int, bool]:
    """Central-cut ellipsoid on the reduced dual, ended by the Newton polish.

    A ``start`` (group prices) is polished first: accepted, it is the result
    at 0 cuts; rejected, the run goes on exactly as without it.  The run
    starts at the centre c = u / 2 of the price box [0, u] from
    ``prob.box()``, in the axis-aligned ellipsoid of shape n c_g^2 through
    the box's corners.  Widths are in units of the box, s = min(1, max(u)).
    When an objective cut's width first reaches s times a width in
    ``POLISH_AT``, the best point so far is polished; an accepted polish
    ends the run, and a rejected one lets the same cut sequence go on.
    Every other exit (width s ``DUAL_TOL``, a degenerate shape matrix, or
    5000 n^2 cuts) polishes its final point once and keeps the raw point
    when the polish rejects it.  Returns the point, the cuts and whether
    the run converged (it left at width s ``DUAL_TOL`` or a polish
    accepted).
    The loop runs on Python floats: ``A g`` is a left-to-right sum, for a
    cone cut (i, j, b) the two terms b A[:, j] - A[:, i], which round as
    the dense sum does.
    """
    if start is not None:
        polished = _polish_dual(prob, start)
        if polished is not None:
            return polished, 0, True
    n = prob.n
    u = prob.box()
    s = min(1.0, max(u))
    x = [0.5 * v for v in u]
    a_mat = [n * x[i] * x[i] if i == j else 0.0 for i in range(n) for j in range(n)]
    c1, c2 = (n * n) / (n * n - 1.0), 2.0 / (n + 1)
    best_x, best_f = None, math.inf
    converged = False
    polish_at = [s * m for m in POLISH_AT]
    it = 0
    for it in range(1, 5000 * n * n + 1):
        cut = prob.violated_cut(x)
        if cut is None:
            _, f, g = prob.oracle(x)
            if f < best_f:
                best_f, best_x = f, x
            ag = [_dot(a_mat[k:k + n], g) for k in range(0, n * n, n)]
            gag = _dot(g, ag)
        else:
            i, j, b = cut
            ag = [b * aj - ai for aj, ai in zip(a_mat[j::n], a_mat[i::n])]
            gag = b * ag[j] - ag[i]
        if gag <= 0.0:
            break
        width = math.sqrt(gag)
        if cut is None and width <= s * DUAL_TOL:
            converged = True
            break
        if width <= s * 1e-18:
            break
        if cut is None and polish_at and width <= polish_at[0]:
            polish_at = [m for m in polish_at if m < width]
            polished = _polish_dual(prob, np.array(best_x))
            if polished is not None:
                return polished, it, True
        gn = [v / width for v in ag]
        x = [xi - gi / (n + 1) for xi, gi in zip(x, gn)]
        # gn_i * gn_j == gn_j * gn_i, so the update keeps a_mat exactly symmetric.
        outer = [gr * gc for gr in gn for gc in gn]
        a_mat = [c1 * (arc - c2 * o) for arc, o in zip(a_mat, outer)]
    best_x = np.maximum(x, 0.0) if best_x is None else np.array(best_x)
    polished = _polish_dual(prob, best_x)
    if polished is None:
        return best_x, it, converged
    return polished, it, True


def _polish_dual(prob: _DualProblem, x0: np.ndarray) -> np.ndarray | None:
    """Newton refinement of the reduced KKT system at the ellipsoid point.

    The active structure at x0 fixes an equality-constrained Newton KKT
    system in the free prices, the transmitting powers and the active-edge
    flows (group-level transfers), with rows water-filling stationarity,
    the free groups' budgets and the active cone edges:
    [-B^T S 0; 0 B Dg^T; -Dg 0 0], where B is ``prob.bg`` and Dg is
    ``prob.cone`` restricted to the active sets.  Only S, the stationarity
    diagonal, depends on the powers, so each active-set round builds the
    Jacobian once and each Newton step rewrites S.  A round validates when no flow, power or
    price comes out negative, no inactive terminal rises and no group held
    at price 0 overspends; otherwise the sets are adjusted and another
    round runs.  A round that misses the residual test for 20 steps has
    stalled: it drops the free group with the largest surplus, or the
    polish rejects.  A round whose budget rows cannot be met, checked once
    at its first singular Newton step, stalls at once: it skips only steps
    that could not pass the test (and a failed or non-finite lstsq among
    them, which would reject).  Returns the refined prices, or None when
    none validate; an accepted round leaves ``prob.polished``.  numpy builds
    the Jacobian, multiplies by it and the cone and runs the equilibrated
    lstsq; the rest runs on Python values, in numpy's float operations.
    """
    xs = x0.tolist()
    scale = max(max(xs), 1e-12)
    big = max(scale, 1.0)
    p0, f0, slack = prob.oracle(xs)
    p_on = 1e-8 * max(p0 + [1.0])
    active_p = [p > p_on for p in p0]
    free = [x > 1e-7 * scale for x in xs]
    # Over-include nearly-active edges: spurious ones are pruned when their
    # flow comes out negative, while a missing edge leaves the balance
    # equations inconsistent and stalls the Newton iteration.
    edges = [c < 1e-3 * scale for c in (prob.cone @ x0).tolist()]

    # A round depends only on the three sets, so a repeated one would cycle
    # through the remaining rounds to a rejection.
    seen = set()
    for _ in range(6):          # active-set adjustment rounds
        sets = (tuple(active_p), tuple(free), tuple(edges))
        if sets in seen:
            return None
        seen.add(sets)
        ks, gs, rows = ([i for i, on in enumerate(s) if on] for s in sets)
        if not ks or not gs:
            return None
        nk, ng = len(ks), len(gs)
        d_act = prob.cone.take(rows, 0)
        dg = d_act.take(gs, 1)
        jac = np.zeros((nk + ng + len(rows),) * 2)
        bgk = prob.bg.take(gs, 0).take(ks, 1)
        jac[:nk, :ng] = -bgk.T
        jac[nk:nk + ng, ng:ng + nk] = bgk
        jac[nk:nk + ng, ng + nk:] = dg.T
        jac[nk + ng:, :ng] = 0.0 - dg       # keeps the zeros +0.0
        # S is at (k, ng + k); the other entries and their row maxima are fixed.
        s_diag = jac.reshape(-1)[ng::jac.shape[0] + 1][:nk]
        off_s = abs(jac).max(axis=1).tolist()
        off_rest = [o or 1.0 for o in off_s[nk:]]
        a = [prob._terminals[k][2] for k in ks]
        wa = [prob._terminals[k][1] * ak for k, ak in zip(ks, a)]
        hess = [-prob._terminals[k][1] * (ak * ak) for k, ak in zip(ks, a)]
        eg = [prob._eg[g] for g in gs]

        v = [xs[g] for g in gs] + [p0[k] for k in ks] + [0.0] * len(rows)
        ok = checked = False
        # Converging rounds pass the residual test within about 19 steps;
        # a round still short of it after 20 has stalled.
        for _ in range(20):
            # The residual lives in price units while the powers respond with
            # a factor ~1/s^2, so take one more step after the residual test
            # before accepting: quadratic convergence squares the power error.
            if ok:
                break
            denom = [1.0 + ak * pk for ak, pk in zip(a, v[ng:ng + nk])]
            s_diag[:] = 0.0
            f = (jac @ v).tolist()
            # At a zero divisor numpy's inf, and an S that overflows near it,
            # would give lstsq a NaN matrix, on which it can spin: reject.
            try:
                f[:nk] = [fk + c / (LN2 * d) for fk, c, d in zip(f, wa, denom)]
                s_k = [h / (LN2 * (d * d)) for h, d in zip(hess, denom)]
            except ZeroDivisionError:
                return None
            if not all(map(math.isfinite, s_k)):
                return None
            s_diag[:] = s_k
            f[nk:nk + ng] = [fg - e for fg, e in zip(f[nk:], eg)]
            ok = all(abs(r) < 1e-12 * big for r in f)
            # Equilibrate: stationarity rows are O(a^2) while budget rows are
            # O(1), and the raw system's conditioning caps lstsq accuracy.
            row_s = [(o if o >= abs(s) else abs(s)) or 1.0 for o, s in zip(off_s, s_k)] + off_rest
            jac_r = jac / np.array(row_s)[:, None]
            col_s = abs(jac_r).max(axis=0)
            col_s[col_s == 0.0] = 1.0
            try:
                step, _, rank, _ = np.linalg.lstsq(
                    jac_r / col_s[None, :], [-r / s for r, s in zip(f, row_s)], rcond=None)
                # The budget rows [B | Dg^T] y = eg are linear, so every
                # iterate has max|f| >= |r|_2 / sqrt(ng) for their least-
                # squares residual r.  Where that bound is 1000x the residual
                # test's, no step can pass it: the round has stalled.
                if not checked and rank < len(f):
                    checked = True
                    budget_rows = jac[nk:nk + ng, ng:]
                    r = budget_rows @ np.linalg.lstsq(budget_rows, eg, rcond=None)[0] - eg
                    if np.linalg.norm(r) > math.sqrt(ng) * 1e-9 * big:
                        break
            except np.linalg.LinAlgError:
                return None
            step = (step / col_s).tolist()
            if not all(map(math.isfinite, step)):
                return None
            v = [vi + si for vi, si in zip(v, step)]
        if not ok:
            # Newton can stall when a nearly-zero price was misread as a
            # tight budget, making the balance equations inconsistent.
            # Drop the free group with the largest surplus and retry.
            g_drop = max(gs, key=slack.__getitem__)
            if ng > 1 and slack[g_drop] > 0:
                free[g_drop] = False
                continue
            return None
        at = dict(zip(gs, v))
        xx = [at.get(g, 0.0) for g in range(prob.n)]
        # Validate the active-set guess; shrink it where signs flipped.
        # Terminals left out of the active set can come back above the water
        # level at the refined prices; transfer recovery sees their power, so
        # the balance equations must too.
        flow = v[ng + nk:]
        neg_e = [i for i, fl in zip(rows, flow) if fl < -1e-9 * big]
        neg_k = [k for k, p in zip(ks, v[ng:]) if p < -1e-10]
        xx_plus = [x if x > 0.0 else 0.0 for x in xx]     # +0.0 at -0.0, as np.maximum
        p_xx, f_xx, spare = prob.oracle(xx_plus)
        rises = [p > 0.0 for p in p_xx]
        neg_x = [x < -1e-10 * scale for x in xx]
        # A group held at price 0 has no budget row; with the flows on the
        # active edges it must still not overspend, or it gets a price.
        sent = (d_act.T @ flow).tolist()
        over = [not fr and s - t < -1e-9 * scale for fr, s, t in zip(free, spare, sent)]
        if (neg_e or neg_k or any(r and not on for r, on in zip(rises, active_p))
                or any(neg_x) or any(over)):
            edges = [on and i not in neg_e for i, on in enumerate(edges)]
            active_p = [(on and k not in neg_k) or r
                        for k, (on, r) in enumerate(zip(active_p, rises))]
            free = [(fr and not nx) or ov for fr, nx, ov in zip(free, neg_x, over)]
            continue
        if any(c < -1e-9 * big for c in (prob.cone @ xx_plus).tolist()):
            return None
        if f_xx > f0 + 1e-9 * big:
            return None
        prob.polished = (p_xx, f_xx, rows, flow)
        return np.array(xx_plus)
    return None


def _solve_dual(prob: _DualProblem, start) -> tuple[np.ndarray, int]:
    """Reduced dual minimizer and its step count; raises ConvergenceError."""
    if prob.n == 1:
        return np.array([_minimize_dual_1d(prob)]), 0
    x = _minimize_dual_separable(prob)
    if x is not None:
        return x, 0
    x, it, converged = _minimize_dual_ellipsoid(prob, start)
    if not converged:
        raise ConvergenceError(f"dual not converged after {it} cuts")
    return x, it


# ---------------------------------------------------------------------------
# transfer recovery


def _cancel_bidirectional(e: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Reroute flows so no BS both sends and receives.

    Keeps the net inflow unchanged at the rerouted BS and the final
    receiver.  A relay j -> i -> l moves onto the direct link only when
    beta_jl >= beta_ji beta_il, so no sender injects more; otherwise the
    pass stops and the relay stays, which general beta allows.
    """
    n = e.shape[0]
    scale = max(float(e.max()), 1.0)
    e = np.where(e < FLOW_FLOOR * scale, 0.0, e)
    # Every flow left is positive: with no relay there is nothing to reroute.
    src, dst = e.nonzero()
    if set(src.tolist()).isdisjoint(dst.tolist()):
        return e
    for _ in range(4 * n * n * n):
        inflow = e.sum(axis=0)
        outflow = e.sum(axis=1)
        mid = ((inflow > 0) & (outflow > 0)).nonzero()[0]
        if mid.size == 0:
            break
        i = int(mid[0])
        jbar = int(e[:, i].argmax())            # sender into i
        jtil = int(e[i, :].argmax())            # receiver from i
        if jbar == jtil:
            # Two-BS cycle: cancel; the counterpart keeps its net inflow.
            x = min(e[jbar, i], e[i, jbar] / max(beta[jbar, i], 1e-300))
            e[jbar, i] -= x
            e[i, jbar] -= beta[jbar, i] * x
        elif beta[jbar, jtil] >= beta[jbar, i] * beta[i, jtil]:
            x = min(e[jbar, i], e[i, jtil] / max(beta[jbar, i], 1e-300))
            e[jbar, i] -= x
            e[i, jtil] -= beta[jbar, i] * x
            e[jbar, jtil] += beta[jbar, i] * beta[i, jtil] * x / beta[jbar, jtil]
        else:
            break
        e[e < FLOW_FLOOR * scale] = 0.0
    return np.maximum(e, 0.0)


def recover_transfers(p_star, budget: np.ndarray, beta, b: np.ndarray) -> np.ndarray:
    """Feasible transfer pattern for the optimal powers (phase-1 LP).

    ``budget`` holds the per-BS budgets E_i, ``beta`` the efficiencies (as in
    ``solve_p1``) and ``b`` the ZF power fractions.  Finds e >= 0 with spent_i <=
    E_i + sum_j beta_ji e_ji - sum_j e_ij at every BS, then reroutes any
    bidirectional flows away.  Raises InfeasibleError when no pattern covers
    the deficits, which signals that ``p_star`` is not primal optimal.
    """
    n = budget.size
    net = TransferNetwork.of(beta, n)
    deficit = b @ np.asarray(p_star, dtype=float) - budget
    if not net.src.size:
        if deficit.max() > RECOVERY_TOL * max(1.0, float(budget.max(initial=1.0))):
            raise InfeasibleError(float(deficit.max()))
        return np.zeros((n, n))
    # Row i: (D^T e)_i + slack_i = -deficit_i.
    x = phase1_feasible(net.phase1, -deficit, tol=RECOVERY_TOL)
    e = np.zeros((n, n))
    e[net.src, net.dst] = x[:net.src.size]
    return _cancel_bidirectional(e, net.beta)


def _polished_transfers(net: TransferNetwork, rows, flow, deficit) -> np.ndarray | None:
    """Flows on cone ``rows`` (station edges: no merges) as e, or None past RECOVERY_TOL."""
    flow = np.maximum(flow, 0.0)
    if (deficit + net.d[rows].T @ flow).max() > RECOVERY_TOL:
        return None
    e = np.zeros((net.n_bs, net.n_bs))
    e[net.src[rows], net.dst[rows]] = flow
    return _cancel_bidirectional(e, net.beta)


# ---------------------------------------------------------------------------
# full pipeline


def _normalize(gains: ZfGains, es: EnergyState, net: TransferNetwork, bandwidth: float = 1.0):
    """``(w, dead, keep, scale, prob)``: ``solve_p1``'s problem before its dual.

    ``w`` are the weights times ``bandwidth``; ``dead`` the stations no
    positive budget reaches, even over several hops, which force p_k = 0 for
    every terminal they must power; ``keep`` the other terminals.  Over
    those, p = scale * q maps the problem onto one with O(1) budgets and
    gains a * scale, which keeps the absolute solver tolerances meaningful
    at any energy level; ``prob`` is its ``_DualProblem`` (None, and
    ``scale`` None, when no terminal is kept).
    """
    a, b, budget = gains.a, gains.b, es.budget
    w = gains.weights * bandwidth
    dead = budget + net.paths.T @ budget <= 0.0
    keep = ~((b > 1e-12) & dead[:, None]).any(axis=0)
    if not keep.any():
        return w, dead, keep, None, None
    scale = float(budget.max())
    return w, dead, keep, scale, _DualProblem(a[keep] * scale, b[:, keep], w[keep],
                                              budget / scale, net)


def solve_p1(gains: ZfGains, es: EnergyState, beta,
             bandwidth: float = 1.0, start=None) -> Solution:
    """Solve the joint power-allocation and energy-transfer problem.

    ``beta`` is a scalar, an N x N matrix or a ``TransferNetwork``.  ``bandwidth``
    scales every rate (used by the per-BS baseline, which splits the band in N
    orthogonal shares).  ``start``, the ``mu`` of an earlier solution for the same
    stations, is polished before any ellipsoid cut.  The returned objective is
    certified by the reported duality gap.  A ``bandwidth`` that is not positive
    and finite, or a ``start`` that is not N finite prices >= 0, raises ValueError.
    """
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be positive and finite; got {bandwidth}")
    if gains.n_bs != es.n_bs:
        raise ValueError("gains and energy state disagree on the BS count")
    a, b, budget = gains.a, gains.b, es.budget
    n, k_all = b.shape
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (n,) or not all(0.0 <= s < math.inf for s in start.tolist()):
            raise ValueError(f"start must hold {n} finite prices >= 0; got {start}")
    net = TransferNetwork.of(beta, n)
    w, dead, keep, scale, prob = _normalize(gains, es, net, bandwidth)

    p = np.zeros(k_all)
    e = np.zeros((n, n))
    mu = np.zeros(n)
    dual_value, iters = 0.0, 0
    if prob is not None:
        budget_s = budget / scale
        x0 = None if start is None else start[[g[0] for g in prob.groups]] * scale
        x, iters = _solve_dual(prob, x0)
        polished, q = prob.polished, np.zeros(k_all)
        q[keep], dual_value = polished[:2] if polished else prob.oracle(x)[:2]
        e = (_polished_transfers(net, *polished[2:], b @ q - budget_s)
             if polished and prob.n == n and net.src.size else None)
        e = scale * (recover_transfers(q, budget_s, net, b) if e is None else e)
        p = scale * q
        mu = x[prob.label] / scale
    if dead.any():
        # One common price on the unreachable stations: it prices every
        # pinned terminal at least at its marginal rate at zero power, and
        # it covers beta_ij mu_j toward each reachable j.  No positive-
        # efficiency edge runs from a reachable station to an unreachable
        # one, so the prices stay in the cone.
        pinned = ~keep
        cap = w[pinned] * a[pinned] / (LN2 * b[dead][:, pinned].max(axis=0))
        mu[dead] = max(cap.max(initial=0.0),
                       (net.beta[dead][:, ~dead] * mu[~dead]).max(initial=0.0))

    rates = bandwidth * np.log2(1.0 + a * p)
    objective = float(gains.weights @ rates)
    return Solution(p=p, e=e, mu=mu, rates=rates, objective=objective, dual_value=dual_value,
                    duality_gap=float(dual_value - objective), iterations=iters)
