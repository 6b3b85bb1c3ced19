"""The optimality certificate of a joint solution: the KKT residual.

``kkt_residual`` scores a candidate solution against the optimality
system of the convex program, apart from the dual path that produced
it.  With the duality gap it certifies a ``Solution``.
"""

from __future__ import annotations

import numpy as np

from .channel import ZfGains
from .energy import EnergyState, TransferNetwork
from .solver import LN2, Solution


def kkt_residual(solution: Solution, gains: ZfGains, es: EnergyState, beta,
                 bandwidth: float = 1.0) -> float:
    """Max-norm residual of the KKT system at a candidate solution.

    Aggregates stationarity in p and e, primal and dual feasibility, and
    complementary slackness; a small value certifies (near-)optimality of
    the convex program.
    """
    bm = TransferNetwork.of(beta, es.n_bs).beta
    p = solution.p
    e = solution.e
    mu = solution.mu
    w = gains.weights * bandwidth
    s = gains.b.T @ mu

    res = 0.0
    # Stationarity in p: marginal rate equals price when p > 0.
    grad = w * gains.a / (LN2 * (1.0 + gains.a * p))
    active = p > 1e-9
    res = max(res, float(np.max(np.abs(grad[active] - s[active]), initial=0.0)))
    res = max(res, float(np.max(grad[~active] - s[~active], initial=0.0)))
    # Stationarity in e: cone multipliers price every used transfer exactly.
    cone = bm * mu[None, :] - mu[:, None]
    res = max(res, float(np.max(cone, initial=0.0)))            # dual feasibility
    used = e > 1e-9
    res = max(res, float(np.max(np.abs(cone[used]), initial=0.0)))
    # Primal feasibility and complementary slackness.
    slack = es.budget + (bm * e).sum(axis=0) - e.sum(axis=1) - gains.b @ p
    res = max(res, float(np.max(-slack, initial=0.0)))
    res = max(res, float(np.max(np.abs(mu * slack), initial=0.0)))
    res = max(res, float(np.max(-mu, initial=0.0)))
    res = max(res, float(np.max(-p, initial=0.0)))
    res = max(res, float(np.max(-e, initial=0.0)))
    return res
