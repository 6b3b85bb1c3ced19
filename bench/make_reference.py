"""Regenerate the stored reference tables from the current code.

    python3 bench/make_reference.py

Writes ``bench/reference/<workload>.csv`` for the scenario workloads at
the reference seed and the pinned sizes of ``workloads.SCENARIOS``.  Run
it only when a change is meant to alter the tables, and say so.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def main():
    for name in wl.SCENARIOS:
        setup = wl.setup_scenario(name, wl.REFERENCE_SEED)
        path = wl.REFERENCE_DIR / f"{name}.csv"
        _, _, table = wl.run_rep(setup, path, 1)
        if table.errors:
            raise SystemExit(f"{name}: reference run recorded failures {table.errors[:3]}")
        print(f"wrote {path.relative_to(HERE.parent)} ({len(table.rows)} rows)")


if __name__ == "__main__":
    main()
