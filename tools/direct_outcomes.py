"""Record or compare the outcome of every ``direct`` benchmark instance.

    python3 tools/direct_outcomes.py --seeds 1-10 --out outcomes.json
    python3 tools/direct_outcomes.py --seeds 1-10 --compact --out pinned.json
    python3 tools/direct_outcomes.py --compare old.json new.json

The first form solves each instance of ``make_direct`` (``bench/workloads.py``)
once per seed and writes its class -- ``ok``, ``raised:<Class>`` or
``certificate:<check,...>`` with the benchmark's own checks -- its
objective, its ``iterations``, the ``digest`` of the solution without its
transfers and the ``e_digest`` of its transfers (all null when the solve
raised), and the ``w_digest`` of a warm solve of the same instance started
from half its prices, ``solve_p1(..., start=0.5 * mu)`` (null unless the
instance passes; ``raised:<Class>`` when the warm solve raises).  The digest
is 16 hex digits of BLAKE2b over the bytes of ``p`` and ``mu`` and of the
objective, the dual value and the iterations, the e_digest the same over
the bytes of ``e``, the w_digest the same over the warm solution's digest
and e_digest; equal digest pairs mean bit-identical results, and a change
that only moves the transfers keeps the other digests.  With
``--compact`` it writes only the numpy version, each seed's instance count
and its failing instances with their class; every instance not listed is
``ok``.  The third form prints the per-seed ``failed`` counts, the
instances that pass on one side only, the failing instances whose class
changed, every instance that passes on both sides and whose objective
moved by more than ``MOVED_RTOL`` relative, and the largest relative
objective change over the instances that pass on both sides with an
objective.  When both records carry
iterations, it also prints each seed's mean ellipsoid cuts: the mean of
the positive ``iterations`` (closed-form solves take none), and how many
instances that pass on both sides changed their objective or their
iterations at all, compared exactly.  For each digest both records
carry, it prints on how many of those instances its bits changed.
Either side may be compact.  It exits 1 when an instance that passes in
OLD fails in NEW.

``tests/data/direct_outcomes.json`` is the compact record of seeds 1-10
that CI compares HEAD against.  It holds the failures the solver had when
it was taken; retake it only when a change removes failures, never to
absorb a new one.

The package comes from ``src`` of the checkout that holds this file, and
``bench/workloads.py`` is imported as it is; both leave ``sys.path`` again
once ``workloads`` is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MOVED_RTOL = 1e-9
# The digests a full record carries, and what --compare calls each.
DIGESTS = {"digest": "solution", "e_digest": "transfer", "w_digest": "warm"}


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (ranges allowed inside the list) to a seed list."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def digest(sol) -> str:
    """16 hex digits of BLAKE2b over p, mu, objective, dual value and cuts."""
    h = hashlib.blake2b(digest_size=8)
    for arr in (sol.p, sol.mu):
        h.update(arr.tobytes())
    h.update(struct.pack("<ddq", sol.objective, sol.dual_value, sol.iterations))
    return h.hexdigest()


def e_digest(sol) -> str:
    """16 hex digits of BLAKE2b over the transfers e."""
    return hashlib.blake2b(sol.e.tobytes(), digest_size=8).hexdigest()


def w_digest(wl, inst, sol) -> str:
    """The digest of the instance's solve started from half of ``sol``'s prices."""
    try:
        warm = wl.solver.solve_p1(inst.gains, inst.es, inst.beta, start=0.5 * sol.mu)
    except Exception as exc:  # a warm solve that raises is an outcome too
        return f"raised:{type(exc).__name__}"
    return hashlib.blake2b((digest(warm) + e_digest(warm)).encode(), digest_size=8).hexdigest()


def record(seeds: list[int]) -> dict:
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.path[:0] = paths
    try:
        import workloads as wl
    finally:
        for path in paths:
            sys.path.remove(path)

    out = {}
    for seed in seeds:
        rec = {key: [] for key in ("class", "objective", "iterations", *DIGESTS)}
        for inst in wl.make_direct(seed):
            sol = wl.solve(inst)
            if isinstance(sol, Exception):
                got = [f"raised:{type(sol).__name__}", None, None, None, None, None]
            else:
                bad = wl.certificate_failures(inst, sol)
                got = ["certificate:" + ",".join(bad) if bad else "ok", sol.objective,
                       sol.iterations, digest(sol), e_digest(sol),
                       None if bad else w_digest(wl, inst, sol)]
            for values, value in zip(rec.values(), got):
                values.append(value)
        out[str(seed)] = rec
        print(f"seed {seed}: failed {sum(c != 'ok' for c in rec['class'])} "
              f"of {len(rec['class'])}", file=sys.stderr)
    return out


def compact(full: dict) -> dict:
    """The numpy version and, per seed, the instance count and failing classes."""
    import numpy

    return {"numpy": numpy.__version__,
            "seeds": {seed: {"instances": len(r["class"]),
                             "failing": {str(i): c for i, c in enumerate(r["class"])
                                         if c != "ok"}}
                      for seed, r in full.items()}}


def expand(rec: dict) -> dict:
    """A full record (classes, objectives) from a full or compact one."""
    if "seeds" not in rec:
        return rec
    return {seed: {"class": [r["failing"].get(str(i), "ok") for i in range(r["instances"])],
                   "objective": [None] * r["instances"]}
            for seed, r in rec["seeds"].items()}


def mean_cuts(rec: dict) -> str:
    """Mean of a seed's positive iteration counts, and how many there are."""
    cuts = [c for c in rec["iterations"] if c]
    return f"{sum(cuts) / len(cuts):.1f} over {len(cuts)}" if cuts else "none"


def compare(old: dict, new: dict) -> int:
    """Print the differences of two records; 1 if NEW fails where OLD passed."""
    for side, rec in (("old", old), ("new", new)):
        if "numpy" in rec:
            print(f"{side} record taken with numpy {rec['numpy']}")
    old, new = expand(old), expand(new)
    newly_failing, newly_passing, swaps, moved = [], [], [], []
    worst, worst_at = 0.0, None
    total_old = total_new = both = priced = 0
    exact = changed = 0
    flipped = {key: [0, 0] for key in DIGESTS}     # [changed, compared]
    for seed in sorted(set(old) & set(new), key=int):
        a, b = old[seed], new[seed]
        if len(a["class"]) != len(b["class"]):
            print(f"seed {seed}: {len(a['class'])} instances against {len(b['class'])}")
            return 1
        fail_a = sum(c != "ok" for c in a["class"])
        fail_b = sum(c != "ok" for c in b["class"])
        total_old, total_new = total_old + fail_a, total_new + fail_b
        print(f"seed {seed}: failed {fail_a} -> {fail_b}")
        full = "iterations" in a and "iterations" in b
        if full:
            print(f"seed {seed}: mean cuts {mean_cuts(a)} -> {mean_cuts(b)}")
        for idx, (ca, cb) in enumerate(zip(a["class"], b["class"])):
            where = f"seed {seed} #{idx}"
            if ca == "ok" and cb != "ok":
                newly_failing.append(f"{where}: {cb}")
            elif ca != "ok" and cb == "ok":
                newly_passing.append(f"{where}: was {ca}")
            elif ca != cb:
                swaps.append(f"{where}: {ca} -> {cb}")
            elif ca == "ok":
                both += 1
                fa, fb = a["objective"][idx], b["objective"][idx]
                if full:
                    exact += 1
                    changed += fa != fb or a["iterations"][idx] != b["iterations"][idx]
                for key, count in flipped.items():
                    if key in a and key in b:
                        count[0] += a[key][idx] != b[key][idx]
                        count[1] += 1
                if fa is None or fb is None:
                    continue
                priced += 1
                rel = abs(fa - fb) / max(abs(fa), abs(fb), 1e-300)
                if rel > MOVED_RTOL:
                    moved.append(f"{where}: {fa:.10g} -> {fb:.10g} (relative {rel:.3g})")
                if rel > worst:
                    worst, worst_at = rel, where
    print(f"total: failed {total_old} -> {total_new}; {both} pass on both sides")
    if exact:
        print(f"objective or iterations changed on {changed} of {exact} "
              "passing instances (exact)")
    for key, (moved_bits, hashed) in flipped.items():
        if hashed:
            print(f"{DIGESTS[key]} bits changed on {moved_bits} of {hashed} "
                  "passing instances")
    lists = [("newly failing", newly_failing), ("newly passing", newly_passing),
             ("class swaps", swaps)]
    if priced:
        lists.append((f"objective moved by more than {MOVED_RTOL:g} relative", moved))
    for title, lines in lists:
        print(f"{title}: {len(lines)}")
        for line in lines:
            print(f"  {line}")
    if priced:
        print(f"largest relative objective change on passing instances: {worst:.3g}"
              + (f" ({worst_at})" if worst_at else ""))
    return 1 if newly_failing else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", type=parse_seeds, help="seeds to record, e.g. 1-10")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="two records written by --out")
    ap.add_argument("--out", help="where --seeds writes its record")
    ap.add_argument("--compact", action="store_true",
                    help="with --seeds, write only the failing instances")
    args = ap.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(f).read_text()) for f in args.compare)
        return compare(old, new)
    if not args.out:
        ap.error("--seeds needs --out")
    rec = record(args.seeds)
    text = json.dumps(compact(rec), indent=1) + "\n" if args.compact else json.dumps(rec)
    Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
