"""Command-line interface.

Subcommands:
  run       execute a scenario file and emit a result table
  region    emit feasible two-station power-region boundary points
  validate  parse and validate a scenario file

Exit codes: 0 success, 1 validation/parse error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .energy import power_region_boundary
from .profiles import ProfileError
from .runner import emit_results, run_scenario, write_results
from .scenario import ScenarioError, load_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecomp",
        description="Joint power-allocation and energy-transfer simulator "
                    "for a renewable-powered cooperative cluster.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario", help="path to a key=value scenario file")
    run.add_argument("--out", default=None, help="output path (default stdout)")
    run.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    run.add_argument("--realizations", type=int, default=None,
                     help="override realization count")

    region = sub.add_parser("region", help="two-station power-region boundary")
    region.add_argument("--budgets", required=True,
                        help="comma-separated harvested budgets E1,E2")
    region.add_argument("--beta", type=float, required=True)
    region.add_argument("--samples", type=int, default=101)
    region.add_argument("--out", default=None, help="output path (default stdout)")

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("scenario")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.realizations is not None:
        overrides["n_realizations"] = args.realizations
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    table = run_scenario(scenario)
    if args.out is None:
        write_results(table, sys.stdout, args.format)
    else:
        emit_results(table, args.out, args.format)
    for context, message in table.errors:
        print(f"warning: {context}: {message}", file=sys.stderr)
    return 0


def _cmd_region(args) -> int:
    budgets = args.budgets.split(",")
    if len(budgets) != 2:
        raise ScenarioError("--budgets expects exactly two values E1,E2")
    try:
        points = power_region_boundary([float(tok) for tok in budgets], args.beta,
                                       n_samples=args.samples)
    except ValueError as exc:
        raise ScenarioError(f"bad region arguments: {exc}") from None
    lines = ["p1,p2"] + [f"{p1:.9g},{p2:.9g}" for p1, p2 in points]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write region points to {args.out}: {exc}") from exc
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"ok: {scenario.kind} scenario, {len(scenario.schemes)} scheme(s), "
          f"seed {scenario.seed}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "region": _cmd_region,
               "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except (ScenarioError, ProfileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to a distinct code
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
