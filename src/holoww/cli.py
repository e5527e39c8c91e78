"""Command-line entry points: simulate / verify / fit."""

import argparse
import os
import sys
import time

from .errors import HolowwError, UsageError
from .runner import RunConfig, fit, output_root, resume, simulate
from .suites import SUITES, verify


def _cmd_simulate(args):
    out = args.out or os.path.join(output_root(), time.strftime("run_%Y%m%d_%H%M%S"))
    if args.resume_from:
        resume(args.resume_from, out)
    else:
        simulate(RunConfig.load(args.config), out)
    print(f"run written to {out}")
    return 0


def _cmd_verify(args):
    checks = verify(args.suite, seed=args.seed)
    for check in checks:
        print(check.line())
    gating = [c for c in checks if not c.informational]
    failed = [c for c in gating if not c.passed]
    print(f"{len(gating) - len(failed)}/{len(gating)} checks passed"
          + (f" ({len(failed)} failed)" if failed else ""))
    return 1 if failed else 0


def _cmd_fit(args):
    report = fit(args.run, args.norm)
    print(f"{report.norm}: slope {report.slope:.4f} +- {report.stderr:.4f} "
          f"({report.samples} samples) -> {report.table_path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="holoww",
        description="Pseudospectral gravity-wave simulator in holomorphic "
                    "coordinates, with normal-form and wave-packet diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured experiment")
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="key = value text file")
    source.add_argument("--resume-from",
                        help="existing run directory to continue, with its own config")
    p_sim.add_argument("--out", help="run directory (default under $HOLOWW_OUT)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run an acceptance suite")
    p_ver.add_argument("--suite", required=True,
                       help=f"one of: {', '.join([*SUITES, 'all'])}")
    p_ver.add_argument("--seed", type=int, default=1234)
    p_ver.set_defaults(func=_cmd_verify)

    p_fit = sub.add_parser("fit", help="fit a decay exponent from a run")
    p_fit.add_argument("--run", required=True, help="run directory")
    p_fit.add_argument("--norm", required=True, help="norms.csv column name")
    p_fit.set_defaults(func=_cmd_fit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HolowwError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
