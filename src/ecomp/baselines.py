"""Benchmark schemes: cooperation on only one axis, or neither.

All three reuse the joint solver with modified inputs: communication-only
zeroes the transfer efficiencies, energy-only replaces the cluster-wide ZF
precoder with per-BS precoding over orthogonal 1/N band shares, and
no-cooperation does both.

Ordering.  Within a family, more transfer efficiency never lowers the
objective on any instance: it enlarges the feasible set of the same
scheme, so ``none <= energy_only`` and ``comm_only <= joint`` hold
instance by instance.  Across families (per-BS ZF on 1/N band shares
versus cluster ZF on the full band) the rate functions differ and
neither feasible set contains the other, so there is no per-instance
ordering: ``energy_only`` may beat ``joint``, and ``none`` may beat
``comm_only``, on a fixed draw.  The full chain is a property of means
over draws, as in the shipped scenarios.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channel import ClusterChannel, ZfGains, per_bs_zf_gains
from .energy import EnergyState, TransferNetwork
from .solver import Solution, solve_p1


@lru_cache(maxsize=None)
def no_transfers(n_bs: int) -> TransferNetwork:
    """The beta = 0 network of ``n_bs`` stations, built once (networks are read-only)."""
    return TransferNetwork(0.0, n_bs)


def solve_comm_only(gains: ZfGains, es: EnergyState, start=None) -> Solution:
    """Cluster-wide ZF with no energy transfers (beta = 0); ``start`` as in ``solve_p1``."""
    return solve_p1(gains, es, beta=no_transfers(gains.n_bs), start=start)


def solve_energy_only(ch: ClusterChannel, association, es: EnergyState, beta,
                      weights=None) -> Solution:
    """Per-BS ZF over orthogonal 1/N band shares, with energy transfers."""
    gains = per_bs_zf_gains(ch, association, weights)
    return solve_p1(gains, es, beta=beta, bandwidth=1.0 / ch.n_bs)


def solve_no_coop(ch: ClusterChannel, association, es: EnergyState,
                  weights=None) -> Solution:
    """Per-BS ZF, per-BS budgets, no transfers."""
    sol = solve_energy_only(ch, association, es, beta=no_transfers(ch.n_bs), weights=weights)
    assert np.all(sol.e == 0.0)
    return sol
