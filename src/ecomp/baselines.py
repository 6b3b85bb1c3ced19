"""Benchmark schemes: cooperation on only one axis, or neither.

All three reuse the joint solver with modified inputs: communication-only
zeroes the transfer efficiencies, energy-only takes per-BS ZF gains
(``per_bs_zf_gains``) in place of the cluster-wide ones and solves over
orthogonal 1/N band shares, and no-cooperation does both.  Each takes
gains its caller designed, so one design serves every scheme of a draw.

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

# per_bs_zf_gains is bound here only because bench/workloads.py traces it here (ROADMAP item 4).
from .channel import ZfGains, per_bs_zf_gains
from .energy import EnergyState, TransferNetwork
from .solver import Solution, solve_p1


@lru_cache(maxsize=None)
def no_transfers(n_bs: int) -> TransferNetwork:
    """The beta = 0 network of ``n_bs`` stations, built once (networks are read-only)."""
    return TransferNetwork(0.0, n_bs)


def solve_comm_only(gains: ZfGains, es: EnergyState, start=None) -> Solution:
    """Cluster-wide ZF with no energy transfers (beta = 0); ``start`` as in ``solve_p1``."""
    return solve_p1(gains, es, beta=no_transfers(gains.n_bs), start=start)


def solve_energy_only(gains: ZfGains, es: EnergyState, beta) -> Solution:
    """Per-BS ZF ``gains`` over orthogonal 1/N band shares, with energy transfers."""
    return solve_p1(gains, es, beta=beta, bandwidth=1.0 / gains.n_bs)


def solve_no_coop(gains: ZfGains, es: EnergyState) -> Solution:
    """Per-BS ZF ``gains``, per-BS budgets, no transfers."""
    sol = solve_energy_only(gains, es, beta=no_transfers(gains.n_bs))
    assert np.all(sol.e == 0.0)
    return sol
