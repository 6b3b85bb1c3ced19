"""Outside-in benchmark of ecomp.

    python3 bench/run.py --workload {sweep2,profile3,direct} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is taken from ``src``.
With ``--trace 0`` the untraced program runs for about S seconds and the
end-to-end metrics of BENCHMARK.json are reported; with ``--trace 1``
untraced and traced passes alternate for about S seconds and the
per-layer metrics are reported.  Times are scaled to a nominal machine
speed (see speed.py).  Outputs are checked outside the timed region.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count distinct operations (each instance or
scenario solve once): repeats must give the same outcome (checked), so
both counts follow from the seed alone, not from how many repeats fit in
the time.
Details (run metadata, raw times, failure breakdown, spans of the first
traced pass) go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# setup_s is the median of this many set-ups: this process's own plus
# fresh interpreters that import ecomp and set up again.
SETUP_SAMPLES = 5
# Tail percentile of the direct per-call latency: the highest with at
# least ten calls beyond it at the fewest calls a run makes, one pass
# over the 800 instances.
TAIL_PCT = 98.75

median = statistics.median


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep2", "profile3", "direct"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import ecomp, set the workload up, print the scaled and raw seconds")
    return ap.parse_args(argv)


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus, with a pool, workers x the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def _setup_samples(args, first) -> list:
    samples = [first]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        scaled, raw = done.stdout.split()[-2:]
        samples.append((float(scaled), float(raw)))
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _percentile(values, pct):
    """Linear-interpolated percentile."""
    v = sorted(values)
    pos = (len(v) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _scaled_layers(layer: dict, factor: float) -> dict:
    return {k: v * factor if k.endswith("_s") else v for k, v in layer.items()}


def _medians(dicts) -> dict:
    return {k: median(d[k] for d in dicts) for k in dicts[0]}


# ---------------------------------------------------------------------------
# scenario workloads (sweep2, profile3)


def run_scenario_workload(wl, setup, args, out):
    """Fills ``out`` (metrics, attempted, failed, problems, details)."""
    workers = setup.spec.workers
    r_count = setup.spec.realizations
    csv_path = RESULTS / f"{args.workload}-seed{args.seed}.csv"
    problems = out["problems"]
    first = {}
    reps = {"pool": [], "single": [], "traced": []}     # (start, end) per rep
    traced = []                                         # (layer metrics, start, end)

    def record(kind, start, end, table):
        text = csv_path.read_text()
        if not first:
            first.update(text=text, table=table)
            out["attempted"] = len(table.rows) * r_count
            out["failed"] = len(table.errors)
        elif text != first["text"] or table.errors != first["table"].errors:
            problems.append(f"{kind} run output differs from the first run")
        reps[kind].append((start, end))

    with wl.SpeedProbe() as probe:
        t_start = perf_counter()
        while True:
            record("pool", *wl.run_rep(setup, csv_path, workers))
            if args.trace:
                if workers > 1:
                    record("single", *wl.run_rep(setup, csv_path, 1))
                tracer = wl.Tracer(wl.scenario_targets())
                with tracer:
                    start, end, table = wl.run_rep(setup, csv_path, 1, tracer=tracer)
                record("traced", start, end, table)
                if len(traced) == 0:
                    tracer.write_jsonl(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
                layer = wl.layer_metrics(tracer, end - start)
                layer["solver.fail_frac"] = len(table.errors) / (len(table.rows) * r_count)
                traced.append((layer, start, end))
            if perf_counter() - t_start >= args.seconds:
                break
    rss = _peak_rss_mb(workers)

    table = first["table"]
    problems.extend(wl.check_table(setup, wl.read_table(first["text"]), table.errors))
    ref_path = RESULTS / f"{args.workload}-reference.csv"
    _, _, ref_table = wl.run_rep(setup, ref_path, workers, sc=setup.reference_scenario)
    problems.extend(wl.check_reference(setup, wl.read_table(ref_path.read_text())))

    per_rep = len(table.rows) * r_count
    walls = {k: [probe.scaled(a, b) for a, b in v] for k, v in reps.items()}
    out["details"].update(reps=len(reps["pool"]), solves_per_rep=per_rep,
                          rep_walls_s=walls, errors=table.errors[:20],
                          reference_errors=ref_table.errors[:20],
                          raw_rep_walls_s={k: [b - a for a, b in v] for k, v in reps.items()})
    if args.trace:
        single = walls["single"] or walls["pool"]
        m = _medians([_scaled_layers(layer, probe.factor(a, b)) for layer, a, b in traced])
        m.update(setup.load_s)
        m["runner.scaling_eff"] = median(single) / (workers * median(walls["pool"]))
        m["trace.overhead_frac"] = median(walls["traced"]) / median(single) - 1.0
    else:
        wall = median(walls["pool"])
        m = {"solves_per_s": per_rep / wall,
             "solve_ms_p50": 1e3 * wall / per_rep,
             "solve_ms_tail": 1e3 * max(walls["pool"]) / per_rep,
             "ok_frac": 1.0 - out["failed"] / out["attempted"],
             "peak_rss_mb": rss}
    out["metrics"].update(m)


# ---------------------------------------------------------------------------
# direct workload


def _timed_pass(wl, instances):
    calls = []
    for inst in instances:
        t0 = perf_counter()
        result = wl.solve(inst)
        calls.append((t0, perf_counter(), result))
    return calls


def run_direct_workload(wl, instances, args, out):
    if args.trace:
        return _run_direct_traced(wl, instances, args, out)
    problems = out["problems"]
    calls = []                      # (instance index, start, end, outcome)
    with wl.SpeedProbe() as probe:
        t_start = perf_counter()
        while True:
            idx = len(calls) % len(instances)
            t0 = perf_counter()
            result = wl.solve(instances[idx])
            t1 = perf_counter()
            calls.append((idx, t0, t1, result))
            if t1 - t_start >= args.seconds and len(calls) >= len(instances):
                break
    rss = _peak_rss_mb(1)

    first = {}
    for idx, _, _, result in calls:
        if idx not in first:
            first[idx] = result
        elif not wl.same_outcome(first[idx], result):
            problems.append(f"instance {idx} gave two different outcomes")
    failed, breakdown = wl.classify(instances, sorted(first.items()))
    calls_ms = [1e3 * probe.scaled(t0, t1) for _, t0, t1, _ in calls]
    tail = _percentile(calls_ms, TAIL_PCT)
    out["attempted"] = len(instances)
    out["failed"] = failed
    out["details"].update(failures=breakdown, calls=len(calls),
                          passes=len(calls) / len(instances),
                          tail_percentile=TAIL_PCT,
                          calls_beyond_tail=sum(t > tail for t in calls_ms),
                          raw_wall_s=calls[-1][2] - calls[0][1])
    out["metrics"].update({
        "solves_per_s": 1e3 * len(calls) / sum(calls_ms),
        "solve_ms_p50": median(calls_ms),
        "solve_ms_tail": tail,
        "ok_frac": 1.0 - failed / len(instances),
        "peak_rss_mb": rss,
    })


def _run_direct_traced(wl, instances, args, out):
    problems = out["problems"]
    block = instances[:wl.DIRECT_TRACE_BLOCK]
    plain_walls, traced_walls, traced = [], [], []
    with wl.SpeedProbe() as probe:
        t0 = perf_counter()
        with wl.Tracer(wl.direct_setup_targets()) as setup_tracer:
            again = wl.make_direct(args.seed)
        setup_span = (t0, perf_counter())
        t_start = perf_counter()
        while True:
            plain = _timed_pass(wl, block)
            tracer = wl.Tracer(wl.direct_solve_targets())
            with tracer:
                seen = _timed_pass(wl, block)
            if not all(wl.same_outcome(a[2], b[2]) for a, b in zip(plain, seen)):
                problems.append("traced outcomes differ from the untraced ones")
            n_failed, breakdown = wl.classify(block, [(i, c[2]) for i, c in enumerate(seen)])
            if not traced:
                tracer.write_jsonl(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
                out["attempted"], out["failed"] = len(block), n_failed
            elif n_failed != out["failed"]:
                problems.append("traced passes over the same block failed differently")
            span = (seen[0][0], seen[-1][1])
            layer = wl.layer_metrics(tracer, span[1] - span[0])
            layer["solver.fail_frac"] = n_failed / len(block)
            traced.append((layer, span))
            plain_walls.append((plain[0][0], plain[-1][1]))
            traced_walls.append(span)
            if perf_counter() - t_start >= args.seconds:
                break
    if any(not (a.gains.a == b.gains.a).all() for a, b in zip(instances, again)):
        problems.append("traced set-up drew different instances")
    m = _medians([_scaled_layers(layer, probe.factor(*span)) for layer, span in traced])
    channel = _scaled_layers(
        wl.layer_metrics(setup_tracer, setup_span[1] - setup_span[0]),
        probe.factor(*setup_span))
    m.update({k: v for k, v in channel.items() if k.startswith("channel.")})
    plain_s = median(probe.scaled(*w) for w in plain_walls)
    m.update({"scenario.load_s": 0.0, "profiles.load_s": 0.0,
              "runner.scaling_eff": 1.0,
              "trace.overhead_frac": median(probe.scaled(*w) for w in traced_walls) / plain_s - 1.0})
    out["details"].update(failures=breakdown, block=len(block),
                          raw_traced_walls_s=[b - a for a, b in traced_walls],
                          raw_untraced_walls_s=[b - a for a, b in plain_walls])
    out["metrics"].update(m)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    for need in ("src/ecomp/__init__.py", "scenarios", "BENCHMARK.json"):
        if not (ROOT / need).exists():
            print(f"bench: {need} is missing; run from a full ecomp checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    t0 = perf_counter()
    import speed    # imports numpy, which ecomp needs too
    with speed.SpeedProbe() as probe:
        t_probe = perf_counter()
        import workloads as wl
        if args.workload == "direct":
            setup = wl.make_direct(args.seed)
        else:
            setup = wl.setup_scenario(args.workload, args.seed)
        t1 = perf_counter()
    first_setup = ((t1 - t0) * probe.factor(t_probe, t1), t1 - t0)
    if args.setup_only:
        print(*first_setup)
        return 0

    RESULTS.mkdir(exist_ok=True)
    out = {"metrics": {}, "problems": [], "details": {}, "attempted": 0, "failed": 0}
    if args.workload == "direct":
        run_direct_workload(wl, setup, args, out)
        workers = 1
    else:
        run_scenario_workload(wl, setup, args, out)
        workers = setup.spec.workers
    if not args.trace:
        samples = _setup_samples(args, first_setup)
        out["metrics"]["setup_s"] = median(s for s, _ in samples)
        out["details"]["setup_samples_s"] = samples

    import numpy
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "ECOMP_WORKERS": workers, "attempted": out["attempted"],
            "failed": out["failed"],
            "fail_frac": out["failed"] / max(out["attempted"], 1)}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": float(out["metrics"][m["name"]]), "unit": m["unit"]}
               for m in wanted}
    details = {"meta": meta, "problems": out["problems"], **out["details"],
               "metrics": metrics}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str) + "\n")

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for key in ("failures", "passes", "tail_percentile", "calls_beyond_tail", "reps"):
        if key in out["details"]:
            print(f"# {key}: {out['details'][key]}")
    for problem in out["problems"][:20]:
        print(f"# CHECK FAILED: {problem}")
    print(f"fail_frac = {meta['fail_frac']:.6g} frac")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not out["problems"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
