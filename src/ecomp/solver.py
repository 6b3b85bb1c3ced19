"""Joint power-allocation and energy-transfer optimizer.

Maximizes the weighted sum rate of a ZF-precoded cluster subject to per-BS
power budgets coupled by lossy inter-BS energy transfers.  The problem is
concave with affine constraints, so it is solved through its dual: pricing
each BS budget with a multiplier mu_i, the per-terminal power allocation
has a water-filling closed form, the dual is minimized with the ellipsoid
method over the cone {mu >= 0, beta_ij mu_j <= mu_i}, and a feasible
transfer pattern is recovered from the optimal powers with a small LP.
``solve_p1`` is one pass of array stages: normalize, dual, powers,
transfers, certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ZfGains
from .energy import EnergyState, as_beta_matrix
from .simplex import InfeasibleError, phase1_feasible

LN2 = math.log(2.0)

# Transfers below this fraction of the energy scale are flushed to zero
# during the unidirectionality post-processing.
FLOW_FLOOR = 1e-11


class InvalidDualError(ValueError):
    """Dual prices leave some terminal with a zero aggregate price."""


class ConvergenceError(RuntimeError):
    """Ellipsoid iteration budget exhausted before the tolerance was met."""

    def __init__(self, msg: str, best_mu: np.ndarray):
        super().__init__(msg)
        self.best_mu = best_mu


@dataclass(frozen=True)
class Solution:
    """Primal/dual solution of the joint cooperation problem."""

    p: np.ndarray              # per-MT transmit powers
    e: np.ndarray              # N x N transfer pattern
    mu: np.ndarray             # per-BS dual prices of the power constraints
    rates: np.ndarray          # per-MT rates (bps/Hz, bandwidth share included)
    objective: float           # weighted sum rate
    net_exchange: np.ndarray   # per-BS grid draw (+) / injection (-)
    dual_value: float
    duality_gap: float
    iterations: int


def dual_power_alloc(a: np.ndarray, b: np.ndarray, w: np.ndarray,
                     mu: np.ndarray) -> np.ndarray:
    """Water-filling powers maximizing the Lagrangian at fixed prices."""
    s = b.T @ mu
    if np.any(s <= 0):
        raise InvalidDualError("some terminal sees a zero aggregate price")
    return np.maximum(w / (LN2 * s) - 1.0 / a, 0.0)


# ---------------------------------------------------------------------------
# dual minimization


def _best_paths(eff: np.ndarray) -> np.ndarray:
    """Best multi-hop efficiency between all station pairs, zero diagonal."""
    for m in range(eff.shape[0]):
        eff = np.maximum(eff, eff[:, m, None] * eff[m])
        np.fill_diagonal(eff, 0.0)
    return eff


def _merge_lossless_groups(beta: np.ndarray) -> list[list[int]]:
    """Stations joined by chains of loss-free transfers in both directions.

    beta_ij = beta_ji = 1 forces mu_i = mu_j in the dual cone, which makes
    the feasible set lower-dimensional; collapsing those BSs into one dual
    variable keeps the ellipsoid method well posed.  Groups come in
    ascending order of their first member.
    """
    linked = _best_paths(((beta >= 1.0) & (beta.T >= 1.0)).astype(float)) > 0
    np.fill_diagonal(linked, True)
    rows = {tuple(j for j, on in enumerate(row) if on) for row in linked.tolist()}
    return [list(g) for g in sorted(rows)]


class _DualProblem:
    """Reduced dual problem over merged BS groups."""

    def __init__(self, a: np.ndarray, b: np.ndarray, w: np.ndarray,
                 budget: np.ndarray, beta: np.ndarray):
        self.groups = _merge_lossless_groups(beta)
        self.n = len(self.groups)
        self.label = np.empty(beta.shape[0], dtype=int)     # group of each BS
        for gi, grp in enumerate(self.groups):
            self.label[grp] = gi
        self.w = w
        self.a = a
        self.bg = np.array([b[g].sum(axis=0) for g in self.groups])
        self.eg = np.array([budget[g].sum() for g in self.groups])
        # Cross-group cone constraints keep the tightest (largest) efficiency.
        self.betag = np.zeros((self.n, self.n))
        np.maximum.at(self.betag, (self.label[:, None], self.label), beta)
        np.fill_diagonal(self.betag, 0.0)
        self.edges = [(i, j, float(self.betag[i, j])) for i in range(self.n)
                      for j in range(self.n) if i != j and self.betag[i, j] > 0]
        self.inv_a = 1.0 / self.a

    def _prices_powers(self, x: np.ndarray):
        """Aggregate terminal prices and the water-filling powers at x."""
        s = np.maximum(self.bg.T @ x, 1e-300)
        return s, np.maximum(self.w / (LN2 * s) - self.inv_a, 0.0)

    def powers(self, x: np.ndarray) -> np.ndarray:
        return self._prices_powers(x)[1]

    def value_and_subgradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Dual value and subgradient (budget minus spent power) at x."""
        s, p = self._prices_powers(x)
        val = (self.w * np.log2(1.0 + self.a * p) - s * p).sum()
        return float(val + x @ self.eg), self.eg - self.bg @ p

    def value(self, x: np.ndarray) -> float:
        return self.value_and_subgradient(x)[0]

    def subgradient(self, x: np.ndarray) -> np.ndarray:
        return self.eg - self.bg @ self.powers(x)

    def violated_cut(self, x: np.ndarray):
        """Gradient of the most violated cone constraint, or None.

        Bounds x_i >= 0 come first and win ties.  Among the edges the
        first strict maximum in row-major order wins, as numpy's argmax
        over the pairs picks it; b * x_j - x_i rounds as numpy's
        elementwise ops do.  Zero-efficiency pairs are left out: their
        violation -x_i never exceeds the bound cut's.
        """
        xs = x.tolist()
        worst, cut = 0.0, None
        for i, xi in enumerate(xs):
            if xi < -0.0 and -xi > worst:
                worst, cut = -xi, (i, i, -1.0)      # gradient -e_i
        for i, j, b in self.edges:
            v = b * xs[j] - xs[i]
            if v > worst:
                worst, cut = v, (i, j, b)
        if cut is None:
            return None
        i, j, b = cut
        g = np.zeros(self.n)
        g[j] = b
        g[i] = -1.0
        return g

    def expand(self, x: np.ndarray) -> np.ndarray:
        return x[self.label]

    def radius(self) -> float:
        """Ball around the init point guaranteed to contain a dual optimum.

        Whenever some terminal transmits, its aggregate price is at most
        w_k a_k / ln 2, which caps each group price through that
        terminal's cost coefficient.
        """
        caps = self.w * self.a / LN2 / np.maximum(self.bg, 1e-12)
        upper = np.max(np.where(self.bg > 1e-12, caps, 0.0), axis=1)
        upper = np.where(upper > 0, upper, np.max(self.w * self.a) / LN2)
        return float(np.linalg.norm(upper) + math.sqrt(self.n) + 1.0)


def _minimize_dual_1d(prob: _DualProblem, tol: float) -> tuple[float, int]:
    """Bisection on the scalar dual when all groups merged (or N = 1)."""
    hi = max(float(np.max(prob.w * prob.a / (LN2 * np.maximum(prob.bg[0], 1e-12)))), 1.0)
    lo = min(tol, 1e-12) * 1e-3
    it = 0
    for it in range(200):
        mid = 0.5 * (lo + hi)
        # Once the midpoint rounds onto a bound, no later step moves hi.
        last = not lo < mid < hi
        g = prob.subgradient(np.array([mid]))[0]
        if g >= 0:
            hi = mid
        else:
            lo = mid
        if last or hi - lo <= 1e-16 * max(hi, 1.0):
            break
    return hi, it + 1


def _minimize_dual_ellipsoid(prob: _DualProblem, tol: float,
                             max_iter: int) -> tuple[np.ndarray, int, bool]:
    n = prob.n
    x = np.ones(n)
    r = prob.radius()
    a_mat = (r * r) * np.eye(n)
    best_x, best_f = None, np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        g = prob.violated_cut(x)
        objective_cut = g is None
        if objective_cut:
            f, g = prob.value_and_subgradient(x)
            if f < best_f:
                best_f, best_x = f, x.copy()
        ag = a_mat @ g
        gag = float(g @ ag)
        if gag <= 0:
            converged = best_x is not None
            break
        width = math.sqrt(gag)
        if objective_cut and width <= tol:
            converged = True
            break
        if width <= 1e-18:
            converged = best_x is not None
            break
        gn = ag / width
        x = x - gn / (n + 1)
        # gn_i * gn_j == gn_j * gn_i, so the update keeps a_mat exactly symmetric.
        a_mat = (n * n) / (n * n - 1.0) * (a_mat - (2.0 / (n + 1)) * (gn[:, None] * gn))
    if best_x is None:
        best_x = np.maximum(x, 0.0)
    return best_x, it, converged


def _polish_dual(prob: _DualProblem, x0: np.ndarray) -> np.ndarray | None:
    """Newton refinement of the reduced KKT system at the ellipsoid point.

    The active structure at x0 fixes a square smooth system.  Its columns
    are the free prices, the transmitting powers and the active-edge flows
    (the group-level transfers); its rows are water-filling stationarity,
    budget balance and equality on the active cone edges.  Only a
    stationarity row's own power enters nonlinearly, so each active-set
    round builds the Jacobian once and each Newton step rewrites its
    stationarity diagonal.  Returns the refined price vector, or None when
    the active-set guess does not validate.
    """
    n = prob.n
    scale = max(float(np.max(x0)), 1e-12)
    p0 = prob.powers(x0)
    active_p = p0 > 1e-8 * max(float(np.max(p0, initial=0.0)), 1.0)
    free = x0 > 1e-7 * scale
    src, dst = np.nonzero(prob.betag > 0)       # the cone edges, as in prob.edges
    eff = prob.betag[src, dst]
    # Over-include nearly-active edges: spurious ones are pruned when their
    # flow comes out negative, while a missing edge leaves the balance
    # equations inconsistent and stalls the Newton iteration.
    edges = eff * x0[dst] - x0[src] > -1e-3 * scale

    for _ in range(6):          # active-set adjustment rounds
        ks, gs = np.flatnonzero(active_p), np.flatnonzero(free)
        if not ks.size or not gs.size:
            return None
        nk, ng = ks.size, gs.size
        # col[g]: column of price g, and its budget row is nk + col[g].
        col = np.full(n, -1)
        col[gs] = np.arange(ng)
        e_src, e_dst, e_eff = col[src[edges]], col[dst[edges]], eff[edges]
        # Edge e has flow column and equality row nk + ng + e.
        tail = nk + ng + np.arange(e_eff.size)
        out, into = e_src >= 0, e_dst >= 0
        jac = np.zeros((tail.size + nk + ng,) * 2)
        bgk = prob.bg[gs][:, ks]
        jac[:nk, :ng] = -bgk.T
        jac[nk:nk + ng, ng:ng + nk] = bgk
        jac[nk + e_src[out], tail[out]] = 1.0
        jac[nk + e_dst[into], tail[into]] = -e_eff[into]
        jac[tail[out], e_src[out]] = -1.0
        jac[tail[into], e_dst[into]] = e_eff[into]
        rhs = np.zeros(jac.shape[0])
        rhs[nk:nk + ng] = -prob.eg[gs]
        diag = (np.arange(nk), ng + np.arange(nk))
        a, w = prob.a[ks], prob.w[ks]

        v = np.concatenate([x0[gs], p0[ks], np.zeros(tail.size)])
        ok = False
        for _ in range(60):
            denom = 1.0 + a * v[ng:ng + nk]
            jac[diag] = 0.0
            f = jac @ v + rhs
            f[:nk] += w * a / (LN2 * denom)
            jac[diag] = -w * a ** 2 / (LN2 * denom ** 2)
            # The residual lives in price units while the powers respond with
            # a factor ~1/s^2, so take one more step after the residual test
            # before accepting: quadratic convergence squares the power error.
            if ok:
                break
            if float(np.max(np.abs(f))) < 1e-12 * max(scale, 1.0):
                ok = True
            # Equilibrate: stationarity rows are O(a^2) while budget rows are
            # O(1), and the raw system's conditioning caps lstsq accuracy.
            row_s = np.max(np.abs(jac), axis=1)
            row_s[row_s == 0.0] = 1.0
            jac_r = jac / row_s[:, None]
            col_s = np.max(np.abs(jac_r), axis=0)
            col_s[col_s == 0.0] = 1.0
            try:
                step = np.linalg.lstsq(jac_r / col_s[None, :], -f / row_s,
                                       rcond=None)[0] / col_s
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(step)):
                return None
            v = v + step
        if not ok:
            # Newton can stall when a nearly-zero price was misread as a
            # tight budget, making the balance equations inconsistent.
            # Drop the free group with the largest surplus and retry.
            slack = prob.subgradient(x0)
            g_drop = gs[np.argmax(slack[gs])]
            if ng > 1 and slack[g_drop] > 0:
                free[g_drop] = False
                continue
            return None
        xx = np.zeros(n)
        xx[gs] = v[:ng]
        # Validate the active-set guess; shrink it where signs flipped.
        # Terminals left out of the active set can come back above the water
        # level at the refined prices; transfer recovery sees their power, so
        # the balance equations must too.
        neg_e = v[ng + nk:] < -1e-9 * max(scale, 1.0)
        neg_k = ks[v[ng:ng + nk] < -1e-10]
        rises = prob.powers(np.maximum(xx, 0.0)) > 0.0
        neg_x = xx < -1e-10 * scale
        if neg_e.any() or neg_k.size or np.any(rises & ~active_p) or neg_x.any():
            edges[np.flatnonzero(edges)[neg_e]] = False
            active_p[neg_k] = False
            active_p |= rises
            free &= ~neg_x
            continue
        xx = np.maximum(xx, 0.0)
        cone = prob.betag * xx[None, :] - xx[:, None]
        np.fill_diagonal(cone, -np.inf)
        if float(np.max(cone)) > 1e-9 * max(scale, 1.0):
            return None
        if prob.value(xx) > prob.value(x0) + 1e-9 * max(scale, 1.0):
            return None
        return xx
    return None


def _solve_dual(prob: _DualProblem, tol: float) -> tuple[np.ndarray, int]:
    """Reduced dual minimizer and its step count; raises ConvergenceError."""
    if prob.n == 1:
        t, it = _minimize_dual_1d(prob, tol)
        return np.array([t]), it
    x, it, converged = _minimize_dual_ellipsoid(prob, tol, 5000 * prob.n * prob.n)
    polished = _polish_dual(prob, x)
    if polished is not None:
        x = polished
    if not converged:
        raise ConvergenceError(f"dual not converged after {it} cuts", prob.expand(x))
    return x, it


# ---------------------------------------------------------------------------
# transfer recovery


def _cancel_bidirectional(e: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Reroute flows so no BS both sends and receives.

    Keeps the net inflow unchanged at the rerouted BS and the final
    receiver; the original sender only gains slack.  A no-op at a true
    optimum with strictly lossy transfers, where bidirectional patterns
    cannot occur.
    """
    n = e.shape[0]
    e = e.copy()
    scale = max(float(np.max(e)), 1.0)
    e[e < FLOW_FLOOR * scale] = 0.0
    for _ in range(4 * n * n * n):
        inflow = e.sum(axis=0)
        outflow = e.sum(axis=1)
        mid = np.where((inflow > 0) & (outflow > 0))[0]
        if mid.size == 0:
            break
        i = int(mid[0])
        jbar = int(np.argmax(e[:, i]))          # sender into i
        jtil = int(np.argmax(e[i, :]))          # receiver from i
        if jbar == jtil:
            # Two-BS cycle: cancel; the counterpart keeps its net inflow.
            x = min(e[jbar, i], e[i, jbar] / max(beta[jbar, i], 1e-300))
            e[jbar, i] -= x
            e[i, jbar] -= beta[jbar, i] * x
        elif beta[jbar, jtil] > 0:
            x = min(e[jbar, i], e[i, jtil] / max(beta[jbar, i], 1e-300))
            e[jbar, i] -= x
            e[i, jtil] -= beta[jbar, i] * x
            e[jbar, jtil] += beta[jbar, i] * beta[i, jtil] * x / beta[jbar, jtil]
        else:
            break
        e[e < FLOW_FLOOR * scale] = 0.0
    return np.maximum(e, 0.0)


def recover_transfers(p_star, budget: np.ndarray, beta: np.ndarray, b: np.ndarray,
                      tol: float = 1e-7) -> np.ndarray:
    """Feasible transfer pattern for the optimal powers (phase-1 LP).

    ``budget`` holds the per-BS budgets E_i, ``beta`` the N x N efficiency
    matrix from ``as_beta_matrix`` and ``b`` the ZF power fractions.  Finds
    e >= 0 with spent_i <= E_i + sum_j beta_ji e_ji - sum_j e_ij at every
    BS, then reroutes any bidirectional flows away.  Raises
    InfeasibleError when no pattern covers the deficits, which signals
    that ``p_star`` is not primal optimal.
    """
    n = budget.size
    deficit = b @ np.asarray(p_star, dtype=float) - budget
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and beta[i, j] > 0]
    if not pairs:
        if np.max(deficit) > tol * max(1.0, float(np.max(budget, initial=1.0))):
            raise InfeasibleError(float(np.max(deficit)))
        return np.zeros((n, n))
    # Row i: sum_j e_ij - sum_j beta_ji e_ji + slack_i = -deficit_i.
    a_eq = np.zeros((n, len(pairs) + n))
    for col, (i, j) in enumerate(pairs):
        a_eq[i, col] += 1.0
        a_eq[j, col] -= beta[i, j]
    a_eq[:, len(pairs):] = np.eye(n)
    x = phase1_feasible(a_eq, -deficit, tol=tol)
    e = np.zeros((n, n))
    for col, (i, j) in enumerate(pairs):
        e[i, j] = x[col]
    return _cancel_bidirectional(e, beta)


# ---------------------------------------------------------------------------
# full pipeline


def solve_p1(gains: ZfGains, es: EnergyState, beta, tol: float = 1e-9,
             bandwidth: float = 1.0) -> Solution:
    """Solve the joint power-allocation and energy-transfer problem.

    ``bandwidth`` scales every rate (used by the per-BS baseline, which
    splits the band in N orthogonal shares).  The returned objective is
    certified by the reported duality gap.
    """
    if gains.n_bs != es.n_bs:
        raise ValueError("gains and energy state disagree on the BS count")
    a, b, budget = gains.a, gains.b, es.budget
    n, k_all = b.shape
    bm = as_beta_matrix(beta, n)
    w = gains.weights * bandwidth
    # Stations no positive budget reaches, even over several hops, force
    # p_k = 0 for every terminal they must power.
    dead = budget + _best_paths(bm).T @ budget <= 0.0
    keep = ~np.any((b > 1e-12) & dead[:, None], axis=0)

    p = np.zeros(k_all)
    e = np.zeros((n, n))
    mu = np.zeros(n)
    dual_value, iters = 0.0, 0
    if np.any(keep):
        # Normalize the budget scale: p = scale * q maps the problem onto
        # one with O(1) budgets and gains a * scale, which keeps the
        # absolute solver tolerances meaningful at any energy level.
        scale = float(np.max(budget))
        a_s, b_s, budget_s = a[keep] * scale, b[:, keep], budget / scale
        prob = _DualProblem(a_s, b_s, w[keep], budget_s, bm)
        x, iters = _solve_dual(prob, tol)
        mu_s = prob.expand(x)
        q = np.zeros(k_all)
        q[keep] = dual_power_alloc(a_s, b_s, w[keep], mu_s)
        e = scale * recover_transfers(q, budget_s, bm, b, tol=max(tol, 1e-7))
        p = scale * q
        mu = mu_s / scale
        dual_value = prob.value(x)
    if np.any(dead):
        # One common price on the unreachable stations: it prices every
        # pinned terminal at least at its marginal rate at zero power, and
        # it covers beta_ij mu_j toward each reachable j.  No positive-
        # efficiency edge runs from a reachable station to an unreachable
        # one, so the prices stay in the cone.
        pinned = ~keep
        cap = w[pinned] * a[pinned] / (LN2 * b[dead][:, pinned].max(axis=0))
        mu[dead] = max(np.max(cap, initial=0.0),
                       np.max(bm[dead][:, ~dead] * mu[~dead], initial=0.0))

    rates = bandwidth * np.log2(1.0 + a * p)
    objective = float(gains.weights @ rates)
    return Solution(p=p, e=e, mu=mu, rates=rates, objective=objective,
                    net_exchange=b @ p - budget, dual_value=dual_value,
                    duality_gap=float(dual_value - objective), iterations=iters)
