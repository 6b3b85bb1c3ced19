"""Joint transmit-power allocation and inter-station energy transfer for a
renewable-powered cooperative downlink cluster.

The library solves the weighted sum-rate maximization over per-terminal
powers and pairwise lossy energy transfers between base stations, plus
the reduced-cooperation baselines, a KKT-residual certificate for its
answers, and a Monte-Carlo scenario harness with a CLI front end.
"""

from .baselines import solve_comm_only, solve_energy_only, solve_no_coop
from .channel import (ClusterChannel, DegeneracyError, FeasibilityError,
                      ZfGains, generate_rayleigh, per_bs_zf_gains,
                      strongest_channel_association, variance_matrix, zf_gains)
from .energy import EnergyState, TransferNetwork, as_beta_matrix, power_region_boundary
from .oracle import kkt_residual
from .profiles import EnergyProfile, ProfileError, load_profiles
from .runner import ResultRow, ResultTable, emit_results, parse_results, run_scenario
from .scenario import Scenario, ScenarioError, SchemeSpec, load_scenario, scenario_from_mapping
from .simplex import InfeasibleError, phase1_feasible
from .solver import Solution, recover_transfers, solve_p1

__all__ = [
    "ClusterChannel", "DegeneracyError", "EnergyProfile", "EnergyState",
    "FeasibilityError", "InfeasibleError", "ProfileError", "ResultRow",
    "ResultTable", "Scenario", "ScenarioError", "SchemeSpec", "Solution",
    "TransferNetwork", "ZfGains", "as_beta_matrix", "emit_results", "generate_rayleigh",
    "kkt_residual", "load_profiles", "load_scenario", "parse_results",
    "per_bs_zf_gains", "phase1_feasible", "power_region_boundary",
    "recover_transfers", "run_scenario", "scenario_from_mapping",
    "solve_comm_only", "solve_energy_only", "solve_no_coop", "solve_p1",
    "strongest_channel_association", "variance_matrix", "zf_gains",
]

__version__ = "0.1.0"
