"""Monte-Carlo experiment runner and result emission.

Each scenario kind expands into sweep points, each a sweep key, a slot
and a budget level, and into draws of a channel, its variances and a
budget base; a draw's budgets at a point are base * level.  Seeds derive
from (scenario seed, slot, realization).  Where a sweep only rescales
energies, one draw at every point, a chain, is a unit of work.
three_cell_profile draws fresh terminals at every point, so its unit is
a run of consecutive points, one per worker and at most ``UNIT_DRAWS``
draws, each solved at its own slot's point.  A unit runs scheme by
scheme, with one stacked ZF call per design family.  A draw's joint and
comm_only solves start from its prices at the point before or, in a
profile, from one batched interior-point run per scheme
(``ipm.warm_starts``) that the solver's polish certifies.  Units share
nothing (ECOMP_WORKERS runs them in parallel), and neither an instance's
prices nor its stacked ZF bits depend on its batch, so results do not
depend on the worker count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .baselines import no_transfers, solve_comm_only, solve_energy_only, solve_no_coop
# zf_gains is bound here only because bench/workloads.py traces it here (ROADMAP item 4).
from .channel import (DegeneracyError, FeasibilityError, generate_rayleigh, per_bs_zf_gains_stack,
                      strongest_channel_association, variance_matrix, zf_gains, zf_gains_stack)
from .energy import EnergyState, TransferNetwork
from .ipm import warm_starts
from .profiles import EnergyProfile, load_profiles
from .scenario import Scenario, ScenarioError
from .simplex import InfeasibleError
from .solver import ConvergenceError, solve_p1

RESULT_COLUMNS = ("sweep_key", "slot", "scheme", "beta", "mean_rate", "stderr", "n")

# A three_cell_profile unit holds at most this many draws (rounded up to
# whole points), which bounds a worker's memory; below that, one per worker.
UNIT_DRAWS = 128

# Failures a valid draw can meet; they are recorded per row.  Any other
# exception is a bug and aborts the run.
SOLVER_ERRORS = (DegeneracyError, FeasibilityError, ConvergenceError,
                 InfeasibleError)

# Three-cell geometry: equilateral triangle of stations 1 km apart whose
# hexagonal cells tile the plane (apothem 500 m, circumradius 1000/sqrt(3)).
INTER_BS_DISTANCE = 1000.0
HEX_CIRCUMRADIUS = INTER_BS_DISTANCE / math.sqrt(3.0)
MIN_MT_DISTANCE = 10.0

_BS_POSITIONS_3 = np.array([
    [0.0, 0.0],
    [INTER_BS_DISTANCE, 0.0],
    [INTER_BS_DISTANCE / 2.0, INTER_BS_DISTANCE * math.sqrt(3.0) / 2.0],
])


@dataclass(frozen=True)
class ResultRow:
    sweep_key: str
    slot: int            # -1 when the scenario is not slot-indexed
    scheme: str
    beta: float
    mean_rate: float
    stderr: float
    n: int

    def as_tuple(self):
        return (self.sweep_key, self.slot, self.scheme, self.beta,
                self.mean_rate, self.stderr, self.n)


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # (row context, message)

    def __len__(self):
        return len(self.rows)


def _aggregate(samples) -> tuple[float, float, int]:
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    if n == 0:
        return math.nan, math.nan, 0
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, stderr, n


# ---------------------------------------------------------------------------
# Realizations: (channel, variances, budget base) per draw; a point's
# budgets are base * level.


def _two_cell_variances(scenario, rng):
    if scenario.cross_gain == "random":
        cg = rng.uniform(0.0, 1.0, size=2)
    else:
        cg = np.array([scenario.cross_gain, scenario.cross_gain], dtype=float)
    k = scenario.n_mt
    var = np.ones((2, k))
    # terminal k belongs to cell k % 2; the other station is the cross link
    for kk in range(k):
        var[1 - kk % 2, kk] = cg[kk % 2]
    return var


def _two_cell_draws(scenario, picks):
    """Two-cell realizations ``picks``; two_cell_sweep's base is 1.

    two_cell_random draws uniforms times caps, scaled at each point by the
    mean energy; budget_skew < 1 tilts the harvest toward station 2 while
    keeping the expected total at that mean.
    """
    caps = np.array([scenario.budget_skew, 2.0 - scenario.budget_skew])
    for r in picks:
        rng = np.random.default_rng([scenario.seed, r])
        var = _two_cell_variances(scenario, rng)
        base = rng.uniform(0.0, 1.0, size=2) * caps if scenario.kind == "two_cell_random" else 1.0
        ch = generate_rayleigh(2, scenario.m_ant, scenario.n_mt, var, rng,
                               noise_var=scenario.noise)
        yield ch, var, base


def _sample_hex_mts(rng, n_bs, per_cell):
    """Uniform terminal positions, ``per_cell`` in each hexagonal cell."""
    normals = np.array([[math.cos(a), math.sin(a)]
                        for a in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)])
    apothem = INTER_BS_DISTANCE / 2.0
    points = []
    for i in range(n_bs):
        center = _BS_POSITIONS_3[i]
        got = 0
        while got < per_cell:
            cand = rng.uniform(-HEX_CIRCUMRADIUS, HEX_CIRCUMRADIUS, size=2)
            if np.max(np.abs(normals @ cand)) > apothem:
                continue
            if np.linalg.norm(cand) < MIN_MT_DISTANCE:
                continue
            points.append(center + cand)
            got += 1
    return np.array(points)


def _three_cell_draws(scenario, profile, picks):
    """Three-cell realizations ``picks``, (slot, realization) pairs, fresh positions each.

    Station i's base at slot t is w_wind_i * wind[t] + w_solar_i * solar[t],
    with its weights from ``scenario.mixes``; the level is the mean energy.
    """
    per_cell = scenario.n_mt // scenario.n_bs
    for slot, r in picks:
        w, s = profile.wind[slot], profile.solar[slot]
        mix = np.array([ww * w + ws * s for ww, ws in scenario.mixes])
        rng = np.random.default_rng([scenario.seed, slot, r])
        mt_pos = _sample_hex_mts(rng, scenario.n_bs, per_cell)
        var = variance_matrix(_BS_POSITIONS_3, mt_pos)
        ch = generate_rayleigh(scenario.n_bs, scenario.m_ant, scenario.n_mt,
                               var, rng, noise_var=scenario.noise)
        yield ch, var, mix


# ---------------------------------------------------------------------------
# Sweep points and units of work


def _points(scenario, profile):
    """``(sweep_key, slot, level)`` of every point; two_cell_sweep's level is its budgets."""
    if scenario.kind == "two_cell_sweep":
        return [(f"{e1:g}", -1, np.array([e1, scenario.sum_energy - e1]))
                for e1 in np.linspace(0.0, scenario.sum_energy, scenario.sweep_points).tolist()]
    if scenario.kind == "three_cell_profile":
        level, t0 = 10.0 ** (scenario.ebar_dbw / 10.0), profile.timestamps[0]
        return [(f"{(profile.timestamps[slot] - t0).total_seconds() / 3600.0:g}", slot, level)
                for slot in range(0, len(profile), scenario.slot_stride)]
    return [(f"{e_db:g}", -1, 10.0 ** (e_db / 10.0)) for e_db in scenario.energy_db]


def _units(scenario, profile, workers):
    """Units of work, each a list of picks: each pick is drawn once, then solved at its points.

    Where a sweep only rescales energies, a unit is a chain: one
    realization (for three_cell_sweep one (slot, realization)) solved at
    every point.  three_cell_profile draws fresh terminals at every point:
    a unit is a run of consecutive points with all their realizations,
    each solved at its own slot's point: near-equal runs, one per worker,
    of at most ``UNIT_DRAWS`` draws rounded up to whole points.
    """
    realizations = range(scenario.n_realizations)
    if scenario.kind.startswith("two_cell"):
        return [[r] for r in realizations]
    slots = range(0, len(profile), scenario.slot_stride)
    if scenario.kind == "three_cell_profile":
        per = min(-(-len(slots) // workers), -(-UNIT_DRAWS // len(realizations)))
        return [[(slot, r) for slot in slots[i:i + per] for r in realizations]
                for i in range(0, len(slots), per)]
    return [[(slot, r)] for slot in slots for r in realizations]


_shared = None      # a pool worker's (scenario, profile, networks, points), set by its initializer


def _share(*shared):
    global _shared
    _shared = shared


def _solve(spec, gains, es, net, start):
    """``(outcome, prices)`` of scheme ``spec`` on one draw's design ``gains`` at budgets ``es``.

    A design that raised, or one of SOLVER_ERRORS, gives the outcome ``"Class: message"``
    and no prices.  joint and energy_only solve over ``net``, joint and comm_only from ``start``.
    """
    try:
        if isinstance(gains, Exception):
            raise gains
        sol = (solve_p1(gains, es, net, start=start) if spec.variant == "joint" else
               solve_comm_only(gains, es, start=start) if spec.variant == "comm_only" else
               solve_energy_only(gains, es, net) if spec.variant == "energy_only" else
               solve_no_coop(gains, es))
    except SOLVER_ERRORS as exc:
        return f"{type(exc).__name__}: {exc}", None
    return sol.objective, sol.mu


def _eval_unit(unit, shared=None):
    """``(point index, outcomes by label)`` of each evaluation of a unit's draws, in order.

    A chain's draw is solved at every point, a three_cell_profile draw at
    its own slot's point only.  The unit runs scheme by scheme: the first
    scheme of a family makes its design, cluster or per-BS ZF, in one stacked
    call, and a draw keeps its gains or the error each scheme of the family
    records.  A draw's joint and comm_only solves start from its prices at the
    point before (none after a failure), a profile draw's from one ``warm_starts`` batch.
    """
    (scenario, profile, networks, points), picks = shared or _shared, unit
    profiled = scenario.kind == "three_cell_profile"
    draws = list(_two_cell_draws(scenario, picks) if scenario.kind.startswith("two_cell")
                 else _three_cell_draws(scenario, profile, picks))
    ats = ([[slot // scenario.slot_stride] for slot, _ in picks] if profiled
           else [range(len(points))] * len(draws))
    states = [[EnergyState(re=base * points[pi][2]) for pi in at]
              for (_, _, base), at in zip(draws, ats)]
    chs, weights = [ch for ch, _, _ in draws], scenario.weight_vector
    designs, outs = {}, [[{} for _ in at] for at in ats]
    for spec in scenario.schemes:
        cluster, net, label = spec.variant in ("joint", "comm_only"), networks[spec], spec.label()
        if cluster not in designs:
            designs[cluster] = (zf_gains_stack(chs, weights) if cluster else per_bs_zf_gains_stack(
                chs, [strongest_channel_association(var, ch.m_ant) for ch, var, _ in draws],
                weights))
        design, starts = designs[cluster], [None] * len(draws)
        if profiled and cluster:
            cases = [j for j, gains in enumerate(design) if not isinstance(gains, Exception)]
            batch = warm_starts([(design[j], states[j][0], net) for j in cases])
            for j, start in zip(cases, batch):
                starts[j] = start
        for gains, ess, start, out in zip(design, states, starts, outs):
            for es, by_label in zip(ess, out):
                by_label[label], start = _solve(spec, gains, es, net, start)
    return [(pi, by_label) for at, out in zip(ats, outs) for pi, by_label in zip(at, out)]


def _workers() -> int:
    """The worker count from ECOMP_WORKERS (default 1); ScenarioError unless >= 1."""
    raw = os.environ.get("ECOMP_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ScenarioError(f"ECOMP_WORKERS must be an integer of at least 1, got {raw!r}")
    return workers


def run_scenario(scenario: Scenario, profile: EnergyProfile = None) -> ResultTable:
    """Run all sweep points and realizations of a scenario.

    Deterministic for a fixed scenario (seed included); per-realization
    solver failures (``SOLVER_ERRORS``) are recorded in ``table.errors``
    and excluded from the row aggregates rather than aborting the run.
    Raises ScenarioError when ECOMP_WORKERS is not an integer of at least 1.
    """
    workers = _workers()
    if profile is None and scenario.kind.startswith("three_cell"):
        profile = load_profiles(scenario.profile)
    points = _points(scenario, profile)
    units = _units(scenario, profile, workers)
    networks = {spec: no_transfers(scenario.n_bs) if spec.beta is None
                else TransferNetwork(spec.beta, scenario.n_bs) for spec in scenario.schemes}
    shared = (scenario, profile, networks, points)
    if workers > 1 and len(units) > 1:
        import numpy.random  # noqa: F401  (imported once here, every forked worker has it)
        with ProcessPoolExecutor(max_workers=min(workers, len(units)), initializer=_share,
                                 initargs=shared) as pool:
            results = list(pool.map(_eval_unit, units))
    else:
        results = [_eval_unit(unit, shared) for unit in units]
    # Back to point-major order, realizations in unit order at each point.
    outcomes = [[] for _ in points]
    for found in results:
        for pi, out in found:
            outcomes[pi].append(out)
    table = ResultTable()
    for (sweep_key, slot, _), point_outcomes in zip(points, outcomes):
        for spec in scenario.schemes:
            label = spec.label()
            got = [out[label] for out in point_outcomes]
            rates = [v for v in got if not isinstance(v, str)]
            table.rows.append(ResultRow(sweep_key, slot, label, spec.beta or 0.0,
                                        *_aggregate(rates)))
            table.errors += [(f"{sweep_key}/{slot}/{label}", v)
                             for v in got if isinstance(v, str)]
    return table


# ---------------------------------------------------------------------------
# Emission


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _result_lines(table, fmt):
    """The lines of a result table as CSV or JSON lines; ValueError for another format."""
    if fmt == "csv":
        return [",".join(RESULT_COLUMNS) + "\n"] + [
            ",".join(_format_value(v) for v in row.as_tuple()) + "\n" for row in table.rows]
    if fmt != "jsonl":
        raise ValueError(f"unknown format {fmt!r}")
    # JSON has no NaN: a row with no successful realization gets nulls.
    return [json.dumps({col: (val if not isinstance(val, float) else
                              float(f"{val:.9g}") if math.isfinite(val) else None)
                        for col, val in zip(RESULT_COLUMNS, row.as_tuple())}) + "\n"
            for row in table.rows]


def write_results(table: ResultTable, fh, fmt: str = "csv") -> None:
    """Write a result table to an open text stream as CSV or JSON lines."""
    fh.writelines(_result_lines(table, fmt))


def emit_results(table: ResultTable, path, fmt: str = "csv") -> None:
    """Write a result table as CSV or JSON lines with stable columns."""
    lines = _result_lines(table, fmt)
    try:
        with open(path, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def parse_results(path) -> ResultTable:
    """Read back a CSV produced by emit_results (round-trip helper)."""
    table = ResultTable()
    with open(path, "r") as fh:
        header = fh.readline().strip().split(",")
        if header != list(RESULT_COLUMNS):
            raise ValueError(f"unexpected header {header}")
        for line in fh:
            parts = line.strip().split(",")
            table.rows.append(ResultRow(parts[0], int(parts[1]), parts[2],
                                        float(parts[3]), float(parts[4]),
                                        float(parts[5]), int(parts[6])))
    return table
