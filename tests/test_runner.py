"""Monte-Carlo runner: determinism, parallelism, and result emission."""

import io
import math
import os

import pytest

import numpy as np

from ecomp import EnergyProfile, runner, scenario_from_mapping
from ecomp.runner import (RESULT_COLUMNS, ResultRow, ResultTable,
                          emit_results, parse_results, run_scenario, write_results)
from ecomp.channel import DegeneracyError
from ecomp.solver import ConvergenceError


def _micro_scenario(**overrides):
    mapping = {
        "kind": "two_cell_sweep",
        "sum_energy": "20",
        "sweep_points": "3",
        "betas": "0, 0.7, 1",
        "cross_gain": "0.5",
        "n_realizations": "4",
        "seed": "7",
    }
    mapping.update(overrides)
    return scenario_from_mapping(mapping)


def _as_tuples(table):
    return [row.as_tuple() for row in table.rows]


def test_runs_are_deterministic():
    sc = _micro_scenario()
    t1 = run_scenario(sc)
    t2 = run_scenario(sc)
    assert _as_tuples(t1) == _as_tuples(t2)
    assert not t1.errors


def test_worker_count_does_not_change_results(monkeypatch):
    sc = _micro_scenario()
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    serial = run_scenario(sc)
    monkeypatch.setenv("ECOMP_WORKERS", "2")
    parallel = run_scenario(sc)
    assert _as_tuples(serial) == _as_tuples(parallel)


def test_solver_errors_are_recorded_and_other_errors_propagate(monkeypatch):
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    sc = _micro_scenario()
    real_solve = runner.solve_p1
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ConvergenceError("dual not converged after 7 cuts")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(runner, "solve_p1", fail_once)
    table = run_scenario(sc)
    first = table.rows[0]
    assert table.errors == [(f"{first.sweep_key}/-1/{first.scheme}",
                             "ConvergenceError: dual not converged after 7 cuts")]
    assert first.n == sc.n_realizations - 1
    assert all(row.n == sc.n_realizations for row in table.rows[1:])

    def broken(*args, **kwargs):
        raise TypeError("bad argument")

    monkeypatch.setattr(runner, "solve_p1", broken)
    with pytest.raises(TypeError, match="bad argument"):
        run_scenario(sc)


def test_rows_cover_every_point_and_scheme_in_order():
    sc = _micro_scenario()
    table = run_scenario(sc)
    # 3 sweep points x 3 beta values, grouped by point in grid order
    assert len(table) == 9
    keys = [row.sweep_key for row in table.rows]
    assert keys == ["0"] * 3 + ["10"] * 3 + ["20"] * 3
    betas = [row.beta for row in table.rows[:3]]
    assert betas == [0.0, 0.7, 1.0]
    for row in table.rows:
        assert row.n == sc.n_realizations
        assert math.isfinite(row.mean_rate) and row.stderr >= 0.0


def test_random_energy_scenario_runs_all_schemes():
    sc = scenario_from_mapping({
        "kind": "two_cell_random",
        "energy_db": "0, 10",
        "beta": "0.9",
        "schemes": "joint, comm_only, energy_only, none",
        "n_realizations": "3",
        "seed": "11",
    })
    table = run_scenario(sc)
    assert len(table) == 8
    labels = {row.scheme for row in table.rows}
    assert labels == {"joint@0.9", "comm_only", "energy_only@0.9", "none"}
    assert not table.errors


def test_profile_scenario_reports_slots_and_hours():
    sc = scenario_from_mapping({
        "kind": "three_cell_profile",
        "profile": "bundled",
        "ebar_dbw": "10",
        "mixes": "0.5:0.5; 0.5:0.5; 0.5:0.5",
        "beta": "0.9",
        "schemes": "joint",
        "slot_stride": "48",
        "n_realizations": "1",
        "seed": "3",
    })
    table = run_scenario(sc)
    assert len(table) >= 2
    slots = [row.slot for row in table.rows]
    assert slots == sorted(slots) and slots[0] == 0
    hours = [float(row.sweep_key) for row in table.rows]
    assert hours == sorted(hours)


def test_three_cell_budgets_combine_mixes_and_mean_level():
    sc = scenario_from_mapping({"kind": "three_cell_profile", "n_realizations": "1",
                                "mixes": "1:0; 0:1; 0.5:0.5"})
    prof = EnergyProfile(timestamps=("t0", "t1"), wind=np.array([1.0, 0.5]),
                         solar=np.array([0.0, 1.0]))
    budgets = [mix * 4.0 for _, _, mix in runner._three_cell_draws(sc, prof, [(0, 0), (1, 0)])]
    np.testing.assert_allclose(budgets, [[4.0, 0.0, 2.0], [2.0, 4.0, 3.0]])


def _sample_hex_mts_numpy(rng, n_bs, per_cell):
    """``_sample_hex_mts`` with its accept test on numpy arrays: the float test's reference."""
    normals = np.array([[math.cos(a), math.sin(a)]
                        for a in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)])
    points = []
    for i in range(n_bs):
        got = 0
        while got < per_cell:
            cand = rng.uniform(-runner.HEX_CIRCUMRADIUS, runner.HEX_CIRCUMRADIUS, size=2)
            if np.max(np.abs(normals @ cand)) > runner.INTER_BS_DISTANCE / 2.0:
                continue
            if np.linalg.norm(cand) < runner.MIN_MT_DISTANCE:
                continue
            points.append(runner._BS_POSITIONS_3[i] + cand)
            got += 1
    return np.array(points)


def test_hex_terminals_match_the_numpy_sampler_and_stay_in_their_cells():
    # A station's hexagon is its cell of the triangular lattice of stations
    # 1 km apart: no farther from it than from any of its six neighbours.
    # Every point lies in its station's cell, at least MIN_MT_DISTANCE away.
    angles = np.radians(np.arange(0.0, 360.0, 60.0))
    neighbours = 1000.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for seed in range(2000):
        got = runner._sample_hex_mts(np.random.default_rng(seed), 3, 2)
        np.testing.assert_array_equal(
            got, _sample_hex_mts_numpy(np.random.default_rng(seed), 3, 2))
        rel = got - np.repeat(runner._BS_POSITIONS_3, 2, axis=0)
        own = np.hypot(*rel.T)
        assert np.all(own >= runner.MIN_MT_DISTANCE)
        for nb in neighbours:
            assert np.all(own <= np.hypot(*(rel - nb).T) + 1e-9)


def test_csv_round_trip(tmp_path):
    table = run_scenario(_micro_scenario())
    path = tmp_path / "out.csv"
    emit_results(table, path, fmt="csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    back = parse_results(path)
    assert len(back) == len(table)
    for a, b in zip(back.rows, table.rows):
        assert a.sweep_key == b.sweep_key
        assert a.scheme == b.scheme
        assert a.mean_rate == pytest.approx(b.mean_rate, rel=1e-8)
        assert (a.slot, a.n) == (b.slot, b.n)


def test_jsonl_emission(tmp_path):
    import json

    table = run_scenario(_micro_scenario())
    path = tmp_path / "out.jsonl"
    emit_results(table, path, fmt="jsonl")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == len(table)
    assert set(records[0]) == set(RESULT_COLUMNS)
    assert records[0]["n"] == 4


def test_a_row_without_realizations_is_strict_json_and_nan_in_csv(tmp_path, monkeypatch):
    import json

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    def fail(*args, **kwargs):
        raise ConvergenceError("dual not converged after 7 cuts")

    monkeypatch.setenv("ECOMP_WORKERS", "1")
    monkeypatch.setattr(runner, "solve_p1", fail)
    table = run_scenario(_micro_scenario(sweep_points="1"))
    assert [row.n for row in table.rows] == [0, 0, 0]
    emit_results(table, tmp_path / "out.jsonl", fmt="jsonl")
    lines = (tmp_path / "out.jsonl").read_text().splitlines()
    records = [json.loads(line, parse_constant=no_constant) for line in lines]
    assert [(r["mean_rate"], r["stderr"], r["n"]) for r in records] == [(None, None, 0)] * 3
    emit_results(table, tmp_path / "out.csv")
    back = parse_results(tmp_path / "out.csv")
    assert all(math.isnan(row.mean_rate) and math.isnan(row.stderr) for row in back.rows)


def test_unknown_format_rejected(tmp_path):
    # Neither writes anything: no text to the stream, no file on disk.
    table = ResultTable(rows=[ResultRow("0", -1, "joint@0.9", 0.9, 1.5, 0.25, 2)])
    fh = io.StringIO()
    with pytest.raises(ValueError, match="format"):
        write_results(table, fh, fmt="tsv")
    assert fh.getvalue() == ""
    with pytest.raises(ValueError, match="format"):
        emit_results(table, tmp_path / "out.bin", fmt="bin")
    assert not (tmp_path / "out.bin").exists()


def test_unwritable_path_raises_oserror(tmp_path):
    with pytest.raises(OSError, match="cannot write"):
        emit_results(ResultTable(), tmp_path / "missing" / "out.csv")


def test_parse_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        parse_results(path)


# Micro scenarios of the other kinds, each pinned byte for byte in
# tests/data/golden_<kind>.csv; two_cell_sweep is _micro_scenario().
_GOLDEN_MICRO = {
    "two_cell_random": {
        "kind": "two_cell_random", "cross_gain": "random",
        "energy_db": "-5, 5, 15", "budget_skew": "0.4", "beta": "0.9",
        "n_realizations": "4", "seed": "7",
    },
    "three_cell_profile": {
        "kind": "three_cell_profile", "profile": "bundled", "ebar_dbw": "10",
        "mixes": "0.5:0.5; 0.1:0.9; 0.9:0.1", "noise_dbm": "-85", "beta": "0.9",
        "slot_stride": "48", "n_realizations": "2", "seed": "7",
    },
    "three_cell_sweep": {
        "kind": "three_cell_sweep", "profile": "bundled", "energy_db": "0, 10",
        "mixes": "0.5:0.5; 0.1:0.9; 0.9:0.1", "noise_dbm": "-85", "beta": "0.9",
        "slot_stride": "48", "n_realizations": "2", "seed": "7",
    },
}


def _golden(kind):
    """The micro scenario of ``kind`` and the text of its golden CSV."""
    if kind == "two_cell_sweep":
        sc, name = _micro_scenario(), "golden_micro.csv"
    else:
        sc, name = scenario_from_mapping(_GOLDEN_MICRO[kind]), f"golden_{kind}.csv"
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
        return sc, fh.read()


def _csv(table, tmp_path):
    path = tmp_path / "fresh.csv"
    emit_results(table, path, fmt="csv")
    return path.read_text()


@pytest.mark.parametrize("kind", ["two_cell_sweep", *_GOLDEN_MICRO])
def test_golden_micro_scenario_is_pinned(tmp_path, kind):
    """Byte-for-byte output lock against tests/data/golden_<kind>.csv."""
    sc, golden = _golden(kind)
    table = run_scenario(sc)
    assert not table.errors
    assert _csv(table, tmp_path) == golden


def _counting(monkeypatch, *names):
    """Wrap the runner's ``names``; returns the dict of their call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(runner, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(runner, name, counted)
    return calls


def _stack_sizes(monkeypatch, *names, fail_first=False):
    """Wrap the runner's stacked ZF designs ``names``; returns each one's list of stack sizes.

    With ``fail_first``, the first draw of each one's first call gets a
    DegeneracyError in place of its gains.
    """
    sizes = {name: [] for name in names}
    for name in names:
        def recorded(chs, *args, _name=name, _real=getattr(runner, name)):
            got = _real(chs, *args)
            if fail_first and not sizes[_name]:
                got[0] = DegeneracyError("rank-deficient channel matrix")
            sizes[_name].append(len(chs))
            return got
        monkeypatch.setattr(runner, name, recorded)
    return sizes


@pytest.mark.parametrize("kind, chains, points", [("two_cell_sweep", 4, 3),
                                                  ("three_cell_sweep", 16, 2),
                                                  ("two_cell_random", 4, 3)])
def test_a_chain_draws_its_channel_and_zf_once(monkeypatch, tmp_path, kind, chains, points):
    # three_cell_sweep: 8 slots of the bundled profile (384 rows, stride 48)
    # times 2 realizations, each solved at 2 energy levels.  A chain is a
    # unit of one draw, so each design is a stack of one.  energy_only and
    # none share one per-BS ZF per chain; two_cell_sweep lists joint alone.
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    calls = _counting(monkeypatch, "generate_rayleigh")
    sizes = _stack_sizes(monkeypatch, "zf_gains_stack", "per_bs_zf_gains_stack")
    sc, golden = _golden(kind)
    table = run_scenario(sc)
    per_bs = chains if any(spec.variant in ("energy_only", "none") for spec in sc.schemes) else 0
    assert calls == {"generate_rayleigh": chains}
    assert sizes == {"zf_gains_stack": [1] * chains, "per_bs_zf_gains_stack": [1] * per_bs}
    assert sum(row.n for row in table.rows) == chains * points * len(sc.schemes)
    assert _csv(table, tmp_path) == golden


def test_a_zf_failure_is_recorded_at_every_point_of_its_chain(monkeypatch):
    # The first chain's ZF fails once; its joint and comm_only schemes get
    # the message at each point, in scheme order, as a fresh ZF per point
    # would give them.  The per-BS schemes still solve that draw.
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    sizes = _stack_sizes(monkeypatch, "zf_gains_stack", fail_first=True)
    sc = scenario_from_mapping(_GOLDEN_MICRO["two_cell_random"])
    table = run_scenario(sc)
    assert sizes["zf_gains_stack"] == [1] * sc.n_realizations
    message = "DegeneracyError: rank-deficient channel matrix"
    keys = [f"{row.sweep_key}/-1/{row.scheme}" for row in table.rows
            if row.scheme in ("joint@0.9", "comm_only")]
    assert len(keys) == 2 * len(sc.energy_db)
    assert table.errors == [(key, message) for key in keys]
    for row in table.rows:
        assert row.n == sc.n_realizations - (row.scheme in ("joint@0.9", "comm_only"))


def test_a_per_bs_zf_failure_is_recorded_at_every_point_of_its_chain(monkeypatch):
    # The mirror of the cluster-ZF case: the first chain's per-BS ZF fails
    # once, and energy_only and none get the message at each point, in
    # scheme order.  The cluster schemes still solve that draw.
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    sizes = _stack_sizes(monkeypatch, "per_bs_zf_gains_stack", fail_first=True)
    sc = scenario_from_mapping(_GOLDEN_MICRO["two_cell_random"])
    table = run_scenario(sc)
    assert sizes["per_bs_zf_gains_stack"] == [1] * sc.n_realizations
    message = "DegeneracyError: rank-deficient channel matrix"
    per_bs = ("energy_only@0.9", "none")
    keys = [f"{row.sweep_key}/-1/{row.scheme}" for row in table.rows if row.scheme in per_bs]
    assert len(keys) == 2 * len(sc.energy_db)
    assert table.errors == [(key, message) for key in keys]
    for row in table.rows:
        assert row.n == sc.n_realizations - (row.scheme in per_bs)


def _recorded_warm_starts(monkeypatch):
    """Wrap ``runner.warm_starts``; returns the list of its results, one list per batch."""
    given, real = [], runner.warm_starts

    def recorded(cases):
        given.append(real(cases))
        return given[-1]

    monkeypatch.setattr(runner, "warm_starts", recorded)
    return given


def test_a_zf_failure_in_a_profile_chunk_leaves_its_draw_out_of_the_batches(monkeypatch):
    # With one worker the micro profile is one unit of 16 draws, designed in
    # one stacked call.  Its first draw (slot 0, realization 0) fails its
    # ZF: it is left out of the joint and comm_only batches, and those two
    # schemes record the message at its point only.  The per-BS schemes
    # still solve it.
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    sizes = _stack_sizes(monkeypatch, "zf_gains_stack", fail_first=True)
    given = _recorded_warm_starts(monkeypatch)
    table = run_scenario(scenario_from_mapping(_GOLDEN_MICRO["three_cell_profile"]))
    assert sizes["zf_gains_stack"] == [16]
    assert [len(batch) for batch in given] == [15, 15]
    message = "DegeneracyError: rank-deficient channel matrix"
    assert table.errors == [("0/0/joint@0.9", message), ("0/0/comm_only", message)]
    for row in table.rows:
        failing = row.slot == 0 and row.scheme in ("joint@0.9", "comm_only")
        assert row.n == (1 if failing else 2)


def test_a_profile_without_cluster_schemes_designs_no_cluster_zf(monkeypatch, tmp_path):
    # With no joint or comm_only scheme there is no warm-start batch, so no
    # draw needs its cluster ZF; the per-BS rows are the full run's.
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    calls = _counting(monkeypatch, "zf_gains", "zf_gains_stack")
    given = _recorded_warm_starts(monkeypatch)
    _, golden = _golden("three_cell_profile")
    table = run_scenario(scenario_from_mapping({**_GOLDEN_MICRO["three_cell_profile"],
                                                "schemes": "energy_only, none"}))
    assert calls == {"zf_gains": 0, "zf_gains_stack": 0} and given == []
    assert len(table) == 16 and not table.errors
    header, *rows = golden.splitlines(keepends=True)
    assert _csv(table, tmp_path) == "".join(
        [header] + [row for row in rows if row.split(",")[2] in ("energy_only@0.9", "none")])


def test_comm_only_starts_from_its_prices_at_the_point_before(monkeypatch):
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    real_solve, starts, prices = runner.solve_comm_only, [], []

    def recorded(gains, es, start=None):
        starts.append(start)
        sol = real_solve(gains, es, start=start)
        prices.append(sol.mu)
        return sol

    monkeypatch.setattr(runner, "solve_comm_only", recorded)
    sc = scenario_from_mapping(_GOLDEN_MICRO["two_cell_random"])
    run_scenario(sc)
    points = len(sc.energy_db)
    assert len(starts) == points * sc.n_realizations
    for c, start in enumerate(starts):       # chain c // points, point c % points
        if c % points == 0:
            assert start is None
        else:
            np.testing.assert_array_equal(start, prices[c - 1])
    # A profile draws fresh terminals at every point: each comm_only solve
    # starts from its own draw's batched IPM prices, never from another draw's.
    starts.clear()
    given = _recorded_warm_starts(monkeypatch)
    run_scenario(scenario_from_mapping(_GOLDEN_MICRO["three_cell_profile"]))
    comm_only = given[1]        # one unit: the joint batch, then the comm_only one
    assert len(starts) == len(comm_only) == 16
    for start, want in zip(starts, comm_only):
        np.testing.assert_array_equal(start, want)


@pytest.mark.parametrize("kind", ["two_cell_random", "three_cell_sweep", "three_cell_profile"])
def test_golden_kinds_do_not_depend_on_the_worker_count(monkeypatch, kind):
    # At 3 realizations the micro profile's 8 points split into units of
    # 4 and 4 points at 2 workers and 3, 3 and 2 at 3 workers, so the pool
    # runs, with uneven units at 3.
    sc = scenario_from_mapping({**_GOLDEN_MICRO[kind], "n_realizations": "3"})
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    serial = run_scenario(sc)
    for workers in ("2", "3"):
        monkeypatch.setenv("ECOMP_WORKERS", workers)
        parallel = run_scenario(sc)
        assert _as_tuples(serial) == _as_tuples(parallel)
        assert serial.errors == parallel.errors


def test_a_profile_splits_its_points_by_worker_count_and_a_sweep_one_unit_per_chain(monkeypatch):
    # A profile draws fresh terminals at every point, so its unit is a run of
    # consecutive points: one near-equal run per worker, of at most
    # UNIT_DRAWS draws rounded up to whole points.  With w = min(workers,
    # units) > 1 the parent is one of the w workers: it runs the first
    # units // w units itself and forks w - 1 children for the rest.  Each
    # joint solve starts from its draw's IPM prices.
    real_solve, real_eval, starts, sent, made = runner.solve_p1, runner._eval_unit, [], [], []
    pooled = []

    def recorded(gains, es, beta, start=None):
        starts.append(start)
        return real_solve(gains, es, beta, start=start)

    def evaluated(unit, shared=None):
        sent.append(unit)
        return real_eval(unit, shared)

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its worker count, runs the units here."""

        def __init__(self, max_workers, initializer, initargs):
            made.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units):
            pooled.extend(units)
            return map(fn, units)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(runner, "solve_p1", recorded)
    monkeypatch.setattr(runner, "_eval_unit", evaluated)
    given = _recorded_warm_starts(monkeypatch)
    sc = scenario_from_mapping({**_GOLDEN_MICRO["three_cell_profile"], "n_realizations": "3"})
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    want = run_scenario(sc)
    assert sorted({row.slot for row in want.rows}) == [48 * pi for pi in range(8)]
    assert all(row.n == 3 for row in want.rows) and not want.errors
    # 8 points at 3 realizations; a cap of 7 draws is ceil(7 / 3) = 3 points,
    # and a cap of 3 draws one point, so the parent runs several units.
    # ``own`` counts the units the parent runs.
    for workers, cap, runs, forks, own in [
            (1, 128, [8], [], 1), (2, 128, [4, 4], [1], 1), (3, 128, [3, 3, 2], [2], 1),
            (5, 128, [2, 2, 2, 2], [3], 1), (1, 7, [3, 3, 2], [], 3), (2, 7, [3, 3, 2], [1], 1),
            (2, 3, [1] * 8, [1], 4), (3, 3, [1] * 8, [2], 2)]:
        monkeypatch.setenv("ECOMP_WORKERS", str(workers))
        monkeypatch.setattr(runner, "UNIT_DRAWS", cap)
        for got in (starts, sent, given, made, pooled):
            got.clear()
        table = run_scenario(sc)
        assert _as_tuples(table) == _as_tuples(want) and table.errors == want.errors
        firsts = [sum(runs[:i]) for i in range(len(runs))]
        assert sent == [[(48 * pi, r) for pi in range(first, first + run) for r in range(3)]
                        for first, run in zip(firsts, runs)]
        assert made == forks and pooled == sent[own:]
        joint = [start for batch in given[::2] for start in batch]   # per unit: joint, comm_only
        assert len(starts) == len(joint) == 24 and all(start is not None for start in joint)
        for start, want_start in zip(starts, joint):
            np.testing.assert_array_equal(start, want_start)
    # A sweep's unit is a chain: 8 workers on 4 chains are 4 workers, the
    # parent and 3 forks, and the parent runs the first chain.
    for got in (sent, made, pooled):
        got.clear()
    sc = _micro_scenario()
    monkeypatch.setenv("ECOMP_WORKERS", "8")
    run_scenario(sc)
    assert sent == [[r] for r in range(sc.n_realizations)]
    assert made == [3] and pooled == sent[1:] and sc.n_realizations == 4


def test_a_chain_restarts_cold_after_a_failure_and_errors_stay_point_major(monkeypatch):
    # Each chain (a realization) solves 3 betas at 3 points.  A solve is
    # keyed by (chain, beta, point), whatever order the runner takes them in.
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    sc = _micro_scenario()
    betas = [spec.beta for spec in sc.schemes]
    real_solve, real_eval, chain, solved, starts, prices = (runner.solve_p1, runner._eval_unit,
                                                           [], [], {}, {})
    failing = [(0, 1, 1), (1, 0, 0), (1, 1, 1)]   # chain 0 point 1, chain 1 points 0 and 1

    def evaluated(unit, shared=None):
        chain[:] = unit
        return real_eval(unit, shared)

    def recorded(gains, es, beta, start=None):
        key = (chain[0], betas.index(beta.beta[0, 1]), round(es.re[0] / 10.0))
        solved.append(key)
        starts[key] = start
        if key in failing:
            prices[key] = None
            raise ConvergenceError("chain {} beta {} point {}".format(*key))
        sol = real_solve(gains, es, beta, start=start)
        prices[key] = sol.mu
        return sol

    monkeypatch.setattr(runner, "_eval_unit", evaluated)
    monkeypatch.setattr(runner, "solve_p1", recorded)
    table = run_scenario(sc)
    assert len(solved) == len(set(solved)) == 36
    for (c, b, p), start in starts.items():
        before = prices[c, b, p - 1] if p else None    # the same beta, a point before
        assert (start is None) == (before is None)
        if before is not None:
            np.testing.assert_array_equal(start, before)
    assert starts[0, 1, 2] is None and starts[1, 0, 1] is None and starts[1, 0, 2] is not None
    key = [(row.sweep_key, row.scheme) for row in table.rows]
    message = "ConvergenceError: chain {} beta {} point {}".format
    assert table.errors == [(f"{key[0][0]}/-1/{key[0][1]}", message(1, 0, 0)),
                            (f"{key[4][0]}/-1/{key[4][1]}", message(0, 1, 1)),
                            (f"{key[4][0]}/-1/{key[4][1]}", message(1, 1, 1))]


@pytest.mark.parametrize("fail", [False, True])
@pytest.mark.parametrize("kind", ["two_cell_random", "three_cell_profile"])
def test_the_scheme_order_changes_no_row_error_or_design_call(monkeypatch, kind, fail):
    # A unit runs scheme by scheme and the first scheme of a family makes its
    # design, so listed in reverse the per-BS ZF comes first.  Rows and
    # errors stay those of the default order, errors point-major in the
    # listed order, and each family is one stacked call per unit.  With
    # ``fail`` the first draw of each family's first call fails its design.
    monkeypatch.setenv("ECOMP_WORKERS", "1")
    stack, runs = [16] if kind == "three_cell_profile" else [1] * 4, []   # draws per unit
    for schemes in ("joint@0.9, comm_only, energy_only@0.9, none",
                    "none, energy_only@0.9, comm_only, joint@0.9"):
        with monkeypatch.context() as m:
            sizes = _stack_sizes(m, "zf_gains_stack", "per_bs_zf_gains_stack", fail_first=fail)
            runs.append(run_scenario(scenario_from_mapping({**_GOLDEN_MICRO[kind],
                                                            "schemes": schemes})))
        assert sizes == {"zf_gains_stack": stack, "per_bs_zf_gains_stack": stack}
    default, reverse = runs
    assert [row.scheme for row in reverse.rows[:4]] == ["none", "energy_only@0.9", "comm_only",
                                                        "joint@0.9"]
    by_label = [{(row.sweep_key, row.slot, row.scheme): row for row in run.rows} for run in runs]
    assert len(reverse) == len(default) == len(by_label[1]) and by_label[0] == by_label[1]
    order = {f"{row.sweep_key}/{row.slot}/{row.scheme}": i for i, row in enumerate(reverse.rows)}
    assert bool(default.errors) == fail
    assert reverse.errors == sorted(default.errors, key=lambda error: order[error[0]])
