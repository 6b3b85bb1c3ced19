"""Batched primal-dual interior-point method (IPM): dual prices for warm starts.

Solves B reduced problems of one shape (groups, terminals, cone rows) at
once, each the normalized, group-reduced primal of a ``_DualProblem``:

    min -sum_k w_k log2(1 + a_k p_k)  s.t.  bg p + cone^T f <= eg,  p >= 0,  f >= 0.

The budget multipliers are the group prices, and stationarity in the
flows f is the price cone ``cone x >= 0``.  The method is Mehrotra's
predictor-corrector (Mehrotra, SIAM J. Optim. 2, 1992; Wright,
*Primal-Dual Interior-Point Methods*, 1997) with sigma = (mu_aff / mu)^3.
Each iteration solves one Newton system twice; a step goes 0.99 of the
way to the boundary of the multipliers and slacks, and at most half the
way to ``1 + a p = 0``.  Every sum runs left to right (``cumsum``) and
every other operation is elementwise or one LAPACK solve per matrix, so
an instance's bits do not depend on the batch it is solved in.
``warm_starts`` feeds the prices to ``solve_p1``, whose Newton polish
certifies them or falls back to the ellipsoid.
"""

from __future__ import annotations

import numpy as np

from .solver import LN2, _minimize_dual_separable, _normalize

MAX_ITER = 80


def _total(x, axis=-1):
    """Left-to-right sum over ``axis``."""
    return x.cumsum(axis).take(-1, axis)


def _solve(mat, rhs, live):
    """Per-matrix solutions of mat x = rhs; a singular matrix clears its ``live`` entry."""
    try:
        return np.linalg.solve(mat, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.zeros_like(rhs)
        for i in range(rhs.shape[0]):
            try:
                out[i] = np.linalg.solve(mat[i], rhs[i, :, None])[:, 0]
            except np.linalg.LinAlgError:
                live[i] = False
        return out


def _step_limit(v, dv, frac=1.0):
    """Per instance, ``frac`` of the largest t with v + t dv >= 0 for v > 0 (inf if dv >= 0)."""
    low = (dv / v).min(axis=1)
    return np.where(low < 0.0, -frac / low, np.inf)


def ipm_prices(probs) -> list:
    """Group prices of B ``_DualProblem``s of one shape; None where the IPM did not converge.

    The inequality rows are the bounds z = (p, f) >= 0, then the budgets;
    ``s`` and ``lam`` hold their slacks and multipliers.  Start
    (infeasible): p = 0.01 min(positive eg) / K, f = 0, the budget
    multipliers ``box() / 2``, every other multiplier their mean, and slacks
    max(h - G z, 0.01).  Stop: max|r_dual| <= 1e-10 (1 + max|grad|),
    max|r_primal| <= 1e-10 (1 + max eg) and s . lam <= 1e-13 |objective|,
    within ``MAX_ITER`` iterations.  Each Newton system is the augmented
    one in (dz, dy), ``[H + diag(lam / s), G^T; G, -diag(s / y)]`` with G
    the budget rows ``[bg | cone^T]``: its entries stay bounded as budgets
    tighten, where the normal equations' y / s would not.  An instance with
    a singular system or a value that is not finite gets None.
    """
    bg = np.array([prob.bg for prob in probs])
    nb, n, k = bg.shape
    gt = np.concatenate([bg, np.array([prob.cone.T for prob in probs])], axis=2)
    q = gt.shape[2]
    m = q + n
    eg = np.array([prob.eg for prob in probs])
    w = np.array([prob.w for prob in probs])
    a = np.array([prob.a for prob in probs])
    wa = w * a / LN2
    base = np.zeros((nb, m, m))
    base[:, :q, q:] = gt.transpose(0, 2, 1)
    base[:, q:, :q] = gt
    diag, bound = np.arange(m), np.arange(m) < q

    z = np.zeros((nb, q))
    z[:, :k] = (0.01 * np.where(eg > 0, eg, np.inf).min(axis=1) / k)[:, None]
    y = np.array([prob.box() for prob in probs]) / 2.0
    lam = np.concatenate([np.repeat(_total(y)[:, None] / n, q, axis=1), y], axis=1)
    s = np.maximum(np.concatenate([z, eg - _total(gt * z[:, None, :])], axis=1), 0.01)
    idx, out = np.arange(nb), [None] * nb

    with np.errstate(all="ignore"):     # a value that is not finite drops its instance
        for _ in range(MAX_ITER):
            d = 1.0 + a * z[:, :k]
            grad = -wa / d
            r_d = _total(gt * lam[:, q:, None], axis=1) - lam[:, :q]
            r_d[:, :k] += grad
            r_p = s - np.concatenate([z, eg - _total(gt * z[:, None, :])], axis=1)
            gap = _total(s * lam)
            err_d, err_p = np.abs(r_d).max(axis=1), np.abs(r_p).max(axis=1)
            done = ((err_d <= 1e-10 * (1.0 + np.abs(grad).max(axis=1)))
                    & (err_p <= 1e-10 * (1.0 + eg.max(axis=1)))
                    & (gap <= 1e-13 * np.abs(_total(w * np.log2(d)))))
            for i in done.nonzero()[0].tolist():
                out[idx[i]] = lam[i, q:].copy()
            live = ~done & np.isfinite(gap + err_d + err_p)
            rl = lam / s
            mat = base.copy()
            mat[:, diag, diag] = np.where(bound, rl, -s / lam)
            mat[:, diag[:k], diag[:k]] += wa * a / (d * d)

            def direction(c):
                """(dz, dlam, ds) for complementarity targets s lam + ds lam + s dlam = c."""
                cs = c / s
                rhs = np.concatenate([(rl * r_p + cs)[:, :q] - r_d, -(r_p + c / lam)[:, q:]],
                                     axis=1)
                dzy = _solve(mat, rhs, live)
                dlam = np.concatenate([(rl * (r_p - dzy) + cs)[:, :q], dzy[:, q:]], axis=1)
                return dzy[:, :q], dlam, (c - s * dlam) / lam

            c = -s * lam
            _, dlam, ds = direction(c)
            t = np.minimum(_step_limit(np.concatenate([s, lam], axis=1),
                                       np.concatenate([ds, dlam], axis=1)), 1.0)[:, None]
            gap_aff = _total((s + t * ds) * (lam + t * dlam))
            dz, dlam, ds = direction(((gap_aff / gap) ** 3 * gap / m)[:, None] + c - ds * dlam)
            t = np.minimum(np.minimum(_step_limit(np.concatenate([s, lam], axis=1),
                                                  np.concatenate([ds, dlam], axis=1), 0.99),
                                      _step_limit(d, a * dz[:, :k], 0.5)), 1.0)[:, None]
            z, lam, s = z + t * dz, lam + t * dlam, s + t * ds
            if not live.all():
                if not live.any():
                    break
                gt, base, eg, w, a, wa, z, lam, s, idx = (
                    v[live] for v in (gt, base, eg, w, a, wa, z, lam, s, idx))
    return out


def warm_starts(cases) -> list:
    """Station prices to start ``solve_p1`` from, one per ``(gains, es, network)`` case.

    The cases whose solve would reach the ellipsoid (some terminal kept,
    two or more groups, no separable closed form) are bucketed by shape,
    and each bucket runs one batched ``ipm_prices``; a converged
    instance's start is ``x[label] / scale``.  Every other case gets None.
    """
    starts = [None] * len(cases)
    buckets = {}
    for i, (gains, es, net) in enumerate(cases):
        *_, scale, prob = _normalize(gains, es, net)
        if prob is not None and prob.n > 1 and _minimize_dual_separable(prob) is None:
            buckets.setdefault((prob.bg.shape, prob.cone.shape), []).append((i, scale, prob))
    for bucket in buckets.values():
        for (i, scale, prob), x in zip(bucket, ipm_prices([prob for _, _, prob in bucket])):
            if x is not None:
                starts[i] = x[prob.label] / scale
    return starts
