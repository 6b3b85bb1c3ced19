"""Workload inputs, the timed calls into ecomp, and the output checks.

``run.py`` puts ``src`` on ``sys.path`` before importing this module, so
importing it imports ecomp; the set-up time counts from here.

Workloads (why each one is here):

* ``sweep2`` -- ``scenarios/two_cell_sweep.scn`` through ``run_scenario``
  and ``emit_results`` with one worker.  Joint scheme only at four betas
  on a 2-station, 1-antenna cluster: nearly all time is the 2-D ellipsoid,
  plus 1-D bisection for the lossless beta=1 curve.  Channel work is
  trivial and neither baselines nor the process pool run, so solver
  changes show most clearly here.
* ``profile3`` -- ``scenarios/three_cell_profile.scn`` with two workers:
  96 sweep points of a 3-station, M=2, K=6 cluster with all four schemes.
  Geometry, joint and per-BS ZF, the baselines, aggregation and the pool
  do their largest share here, and the ellipsoid works in 3-D.
* ``direct`` -- one caller in a closed loop, each call ``solve_p1`` on a
  pre-generated instance (the library use).  It is the only workload with
  beta matrices and N > 3, so transfer recovery, the simplex and the
  known budget-violation defect for general beta show up here; a change
  that batches a sweep point's realizations does not reach it.

``two_cell_crossover`` and ``three_cell_sweep`` are left out: they run
the same code paths as ``sweep2`` and ``profile3``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
from pathlib import Path
from time import perf_counter

import numpy as np

import ecomp  # noqa: F401  (the set-up time includes the package import)
from ecomp import baselines, channel, runner, scenario, solver
from ecomp import profiles as profiles_mod
from ecomp.energy import EnergyState, as_beta_matrix
from ecomp.oracle import kkt_residual

from speed import SpeedProbe  # noqa: F401  (run.py)
from tracer import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Seed of the shipped scenario files; the stored reference tables were
# produced at this seed and the pinned sizes below.
REFERENCE_SEED = 42
# Relative tolerance of the reference comparison: the tables are written
# with 9 significant digits, and the arithmetic is deterministic.
REFERENCE_RTOL = 1e-6
# Slack of the per-instance ordering checks (joint >= comm_only and so on),
# relative to the larger mean: the solver certifies to a ~1e-9 gap.
ORDER_RTOL = 1e-6


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    file: str
    realizations: int   # pinned size: R per sweep point, reduced from the file
    workers: int        # ECOMP_WORKERS for the untraced run


SCENARIOS = {
    "sweep2": ScenarioSpec("two_cell_sweep.scn", realizations=6, workers=1),
    "profile3": ScenarioSpec("three_cell_profile.scn", realizations=1, workers=2),
}

# direct: instances per (N, M, beta kind) cell -- 20 cells, so 800
# instances, about one 25 s run per pass -- and the prefix solved per
# traced pass.
DIRECT_PER_CELL = 40
DIRECT_TRACE_BLOCK = 100
# Relative tolerances of the direct certificate checks; the KKT bound is
# acceptance criterion 2's.
BUDGET_RTOL = 1e-6
GAP_RTOL = 1e-6
KKT_BOUND = 1e-5


# ---------------------------------------------------------------------------
# scenario workloads


@dataclasses.dataclass
class ScenarioSetup:
    name: str
    spec: ScenarioSpec
    scenario: object
    reference_scenario: object
    profile: object
    load_s: dict          # scenario.load_s / profiles.load_s


def setup_scenario(name: str, seed: int) -> ScenarioSetup:
    spec = SCENARIOS[name]
    t0 = perf_counter()
    base = scenario.load_scenario(ROOT / "scenarios" / spec.file)
    t1 = perf_counter()
    profile = None
    if base.kind.startswith("three_cell"):
        profile = profiles_mod.load_profiles(base.profile)
    t2 = perf_counter()
    pinned = dataclasses.replace(base, n_realizations=spec.realizations)
    return ScenarioSetup(
        name=name, spec=spec,
        scenario=dataclasses.replace(pinned, seed=seed),
        reference_scenario=dataclasses.replace(pinned, seed=REFERENCE_SEED),
        profile=profile,
        load_s={"scenario.load_s": t1 - t0, "profiles.load_s": t2 - t1})


def run_rep(setup: ScenarioSetup, out_path, workers: int, sc=None,
            tracer: Tracer | None = None):
    """One run_scenario + emit_results call; returns (start, end, table)."""
    sc = setup.scenario if sc is None else sc
    os.environ["ECOMP_WORKERS"] = str(workers)
    if tracer is None:
        t0 = perf_counter()
        table = runner.run_scenario(sc, setup.profile)
        runner.emit_results(table, out_path)
        return t0, perf_counter(), table
    t0 = perf_counter()
    with tracer.span("runner.run"):
        table = runner.run_scenario(sc, setup.profile)
    with tracer.span("runner.emit"):
        runner.emit_results(table, out_path)
    return t0, perf_counter(), table


def read_table(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def reference_table(name: str) -> list[dict]:
    return read_table((REFERENCE_DIR / f"{name}.csv").read_text())


def _key(row):
    return (row["sweep_key"], row["slot"], row["scheme"], row["beta"])


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_table(setup: ScenarioSetup, rows: list[dict], errors: list) -> list[str]:
    """Problems with one emitted table of the seeded run (empty when fine).

    Keys must match the reference table; each row's ``n`` plus its
    recorded failures must equal R; means must be finite.  With no failure
    in a group, the per-instance orderings that hold by feasibility
    inclusion must hold for the means: a larger beta never lowers the
    joint optimum, so joint@b is nondecreasing in b (sweep2) and
    joint >= comm_only, energy_only >= none (profile3).
    """
    problems = []
    reference = reference_table(setup.name)
    if [_key(r) for r in rows] != [_key(r) for r in reference]:
        return [f"{setup.name}: row keys differ from the reference table"]
    failed_rows: dict = {}
    for ctx, _ in errors:
        failed_rows[ctx] = failed_rows.get(ctx, 0) + 1
    r_count = setup.spec.realizations
    groups: dict = {}
    for row in rows:
        ctx = f"{row['sweep_key']}/{row['slot']}/{row['scheme']}"
        n = int(row["n"])
        if n + failed_rows.get(ctx, 0) != r_count:
            problems.append(f"{ctx}: n={n} with {failed_rows.get(ctx, 0)} failures, R={r_count}")
        mean = float(row["mean_rate"])
        if n and not (math.isfinite(mean) and mean >= 0.0):
            problems.append(f"{ctx}: mean_rate {mean}")
        groups.setdefault((row["sweep_key"], row["slot"]), {})[row["scheme"]] = (
            mean, n == r_count)

    def ordered(group, lo, hi, where):
        (m_lo, ok_lo), (m_hi, ok_hi) = group[lo], group[hi]
        if ok_lo and ok_hi and m_lo > m_hi + ORDER_RTOL * max(abs(m_hi), 1e-300):
            problems.append(f"{where}: mean {lo}={m_lo!r} exceeds {hi}={m_hi!r}")

    for key, group in groups.items():
        if setup.name == "sweep2":
            labels = sorted(group, key=lambda s: float(s.split("@")[1]))
            for lo, hi in zip(labels, labels[1:]):
                ordered(group, lo, hi, key)
        else:
            joint = [s for s in group if s.startswith("joint")][0]
            energy = [s for s in group if s.startswith("energy_only")][0]
            ordered(group, "comm_only", joint, key)
            ordered(group, "none", energy, key)
    return problems


def check_reference(setup: ScenarioSetup, rows: list[dict]) -> list[str]:
    """The reference-seed table against the stored one: keys and n exact,
    values within REFERENCE_RTOL."""
    reference = reference_table(setup.name)
    if len(rows) != len(reference):
        return [f"{setup.name}: {len(rows)} rows, reference has {len(reference)}"]
    problems = []
    for got, want in zip(rows, reference):
        if _key(got) != _key(want) or got["n"] != want["n"]:
            problems.append(f"{setup.name}: row {_key(got)} n={got['n']} "
                            f"differs from reference {_key(want)} n={want['n']}")
            continue
        for col in ("mean_rate", "stderr"):
            if not _close(float(got[col]), float(want[col]), REFERENCE_RTOL):
                problems.append(f"{setup.name}: {_key(got)} {col} {got[col]} "
                                f"!= reference {want[col]}")
    return problems


# ---------------------------------------------------------------------------
# direct workload


@dataclasses.dataclass(frozen=True)
class Instance:
    gains: object
    es: EnergyState
    beta: object          # float or N x N matrix

    @property
    def n_bs(self) -> int:
        return self.es.n_bs


def make_direct(seed: int) -> list[Instance]:
    """Seeded mix of library calls, stratified so seeds differ only within cells.

    Every cell of N in {2..6} x M in {1, 2} x (scalar beta, beta matrix)
    holds DIRECT_PER_CELL instances, in round-robin order so any prefix
    of the list covers the cells evenly.  Within a cell: K in [N, N*M];
    a scalar beta from {0, 0.5, 0.9, 1, U(0,1)}, or a random N x N matrix
    with some 0 and 1 entries; per-station budgets U(0,1) times a scale
    10^U(-4,4), each zero with probability 0.1.  A channel that ZF cannot
    serve is drawn again (set-up, not a solve attempt).  The channel draw
    and the ZF design run here, in set-up, through ``ecomp.channel``'s
    module attributes so the traced run can time them.
    """
    rng = np.random.default_rng([seed, 0xD1])
    cells = [(n, m, matrix) for n in range(2, 7) for m in (1, 2) for matrix in (False, True)]
    out = []
    for _ in range(DIRECT_PER_CELL):
        for n, m, matrix in cells:
            out.append(_draw_instance(rng, n, m, matrix))
    return out


def _draw_instance(rng, n: int, m: int, matrix: bool) -> Instance:
    while True:
        k = int(rng.integers(n, n * m + 1))
        variances = 10.0 ** rng.uniform(-1.0, 0.0, size=(n, k))
        weights = rng.uniform(0.5, 2.0, size=k)
        if matrix:
            beta = rng.uniform(size=(n, n))
            u = rng.random((n, n))
            beta[u < 0.15] = 0.0
            beta[u > 0.85] = 1.0
            np.fill_diagonal(beta, 0.0)
        else:
            beta = (0.0, 0.5, 0.9, 1.0, float(rng.uniform()))[int(rng.integers(5))]
        budget = rng.uniform(size=n) * 10.0 ** rng.uniform(-4.0, 4.0)
        budget[rng.random(n) < 0.1] = 0.0
        ch = channel.generate_rayleigh(n, m, k, variances, rng)
        try:
            gains = channel.zf_gains(ch, weights)
        except channel.DegeneracyError:
            continue
        return Instance(gains, EnergyState(re=budget), beta)


def solve(inst: Instance):
    """One library call; the exception is the outcome when it raises."""
    try:
        return solver.solve_p1(inst.gains, inst.es, inst.beta)
    except Exception as exc:  # every failure is counted, by class
        return exc


def certificate_failures(inst: Instance, sol) -> list[str]:
    """Names of the certificate checks a returned solution fails."""
    bad = []
    if np.any(sol.p < 0) or np.any(sol.e < 0):
        bad.append("nonnegative")
    bm = as_beta_matrix(inst.beta, inst.n_bs)
    budget = inst.es.budget
    slack = budget + (bm * sol.e).sum(axis=0) - sol.e.sum(axis=1) - inst.gains.b @ sol.p
    if np.min(slack) < -BUDGET_RTOL * float(np.max(budget)):
        bad.append("budget")
    if abs(sol.duality_gap) > GAP_RTOL * max(abs(sol.objective), 1.0):
        bad.append("gap")
    if not kkt_residual(sol, inst.gains, inst.es, inst.beta) <= KKT_BOUND:
        bad.append("kkt")
    return bad


def same_outcome(a, b) -> bool:
    """Bitwise equality of two outcomes of the same call."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return (a.objective == b.objective and a.duality_gap == b.duality_gap
            and a.iterations == b.iterations
            and np.array_equal(a.p, b.p) and np.array_equal(a.e, b.e))


def classify(instances, outcomes) -> tuple[int, dict]:
    """(failed count, breakdown) over (instance index, outcome) pairs.

    A failure is a raised exception or a returned solution that fails a
    certificate check; the breakdown counts ``raised:<class>`` and
    ``certificate:<check>`` (one solution can fail several checks).
    """
    failed, breakdown = 0, {}
    for idx, out in outcomes:
        if isinstance(out, Exception):
            reasons = [f"raised:{type(out).__name__}"]
        else:
            reasons = [f"certificate:{c}" for c in certificate_failures(instances[idx], out)]
        if reasons:
            failed += 1
        for r in reasons:
            breakdown[r] = breakdown.get(r, 0) + 1
    return failed, dict(sorted(breakdown.items()))


# ---------------------------------------------------------------------------
# traced run


def _cuts(out):
    return out[1]          # (x, cuts, converged)


def _accepted(out):
    return 0 if out is None else 1


def _stage_targets():
    return [
        Target(solver, "_minimize_dual_ellipsoid", "solver.ellipsoid", info=_cuts),
        Target(solver, "_minimize_dual_1d", "solver.bisect"),
        Target(solver, "_polish_dual", "solver.polish", info=_accepted),
        Target(solver, "recover_transfers", "solver.recover"),
        Target(solver, "_cancel_bidirectional", "solver.reroute"),
        Target(solver, "phase1_feasible", "simplex.phase1"),
    ]


def scenario_targets():
    """Names the runner path calls each layer through.

    The runner imports its callees by name, so its own bindings are the
    ones to wrap; a baseline's nested ``solve_p1`` is ``solver.p1``, not
    joint time.
    """
    return [
        Target(runner, "generate_rayleigh", "channel.draw"),
        Target(runner, "variance_matrix", "channel.geometry"),
        Target(runner, "strongest_channel_association", "channel.geometry"),
        Target(runner, "zf_gains", "channel.zf"),
        Target(baselines, "per_bs_zf_gains", "channel.per_bs_zf"),
        Target(runner, "solve_p1", "solver.joint", solve=True),
        Target(runner, "solve_comm_only", "baselines.comm_only", solve=True),
        Target(runner, "solve_energy_only", "baselines.energy_only", solve=True),
        Target(runner, "solve_no_coop", "baselines.no_coop", solve=True),
        Target(baselines, "solve_p1", "solver.p1"),
    ] + _stage_targets()


def direct_setup_targets():
    return [Target(channel, "generate_rayleigh", "channel.draw"),
            Target(channel, "zf_gains", "channel.zf")]


def direct_solve_targets():
    return [Target(solver, "solve_p1", "solver.joint", solve=True)] + _stage_targets()


def layer_metrics(tr: Tracer, wall: float) -> dict:
    """Per-layer figures of one traced pass.

    ``*_s`` are inclusive span times summed over calls, except
    ``runner.self_s``, which is the runner's own time: the run span minus
    every layer call below it.  ``trace.self_sum_frac`` is the sum of all
    self times over the traced wall; it is 1 when the spans account for
    the whole pass.
    """
    tot = tr.totals()
    own = tr.self_times()

    def secs(name):
        return tot.get(name, (0.0, 0, []))[0]

    def calls(name):
        return tot.get(name, (0.0, 0, []))[1]

    cuts = tot.get("solver.ellipsoid", (0.0, 0, []))[2]
    accepted = tot.get("solver.polish", (0.0, 0, []))[2]
    return {
        "channel.draw_s": secs("channel.draw"),
        "channel.geometry_s": secs("channel.geometry"),
        "channel.zf_s": secs("channel.zf"),
        "channel.per_bs_zf_s": secs("channel.per_bs_zf"),
        "channel.zf_calls": calls("channel.zf"),
        "solver.joint_s": secs("solver.joint"),
        "solver.ellipsoid_s": secs("solver.ellipsoid"),
        "solver.ellipsoid_calls": calls("solver.ellipsoid"),
        "solver.cuts_per_solve": float(np.mean(cuts)) if cuts else 0.0,
        "solver.cuts_per_solve_max": max(cuts, default=0),
        "solver.bisect_s": secs("solver.bisect"),
        "solver.bisect_calls": calls("solver.bisect"),
        "solver.polish_s": secs("solver.polish"),
        "solver.polish_calls": calls("solver.polish"),
        "solver.polish_accept_ratio": (sum(accepted) / len(accepted)) if accepted else 0.0,
        "solver.recover_s": secs("solver.recover"),
        "solver.reroute_s": secs("solver.reroute"),
        "simplex.phase1_s": secs("simplex.phase1"),
        "simplex.phase1_calls": calls("simplex.phase1"),
        "baselines.comm_only_s": secs("baselines.comm_only"),
        "baselines.energy_only_s": secs("baselines.energy_only"),
        "baselines.no_coop_s": secs("baselines.no_coop"),
        "runner.self_s": own.get("runner.run", 0.0),
        "runner.emit_s": secs("runner.emit"),
        "trace.self_sum_frac": sum(own.values()) / wall,
    }
