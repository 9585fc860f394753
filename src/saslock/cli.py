"""Command-line front end for the bench experiments.

Exit codes: 0 all criteria passed, 1 criterion failure, 2 configuration
error, 3 run failure.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigError, SaslockError
from .harness import (
    ExperimentReport,
    ingest_scope_csv,
    load_config,
    load_default_config,
    manifold_window,
    run_fluorescence_experiment,
    run_lock_experiment,
    run_sweep_experiment,
    run_temp_step_experiment,
)
from .spectrum import depth_metrics, extract_markers

EXIT_OK = 0
EXIT_CRITERIA = 1
EXIT_CONFIG = 2
EXIT_RUN = 3

CONFIG_DIR_ENV = "SASLOCK_CONFIG_DIR"

# The experiments by sub-command, in the order `all` runs them.
_RUNNERS = {
    "sweep": run_sweep_experiment,
    "lock": run_lock_experiment,
    "temp-step": run_temp_step_experiment,
    "fluorescence": run_fluorescence_experiment,
}


def _resolve_config(path_arg):
    if path_arg:
        return load_config(path_arg)
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir:
        return load_config(Path(env_dir) / "default.cfg")
    return load_default_config()


def _print_report(report: ExperimentReport):
    status = "PASS" if report.passed else "FAIL"
    print(f"[{report.experiment}] {status}")
    for c in report.criteria:
        mark = "ok " if c.passed else "FAIL"
        print(f"  {mark} {c.name}: {c.measured:.6g} {c.units} (want {c.requirement})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saslock",
        description="Rubidium D2 saturated-absorption and laser-lock bench simulator",
    )
    parser.add_argument("--config", help="scenario config file (sas-config/1)")
    parser.add_argument("--seed", type=int, help="override the config noise seed")
    parser.add_argument("--out", default="saslock-out", help="output directory")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report file format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_RUNNERS, "all"):
        sub.add_parser(name)
    analyze = sub.add_parser("analyze", help="calibrate and analyze a scope CSV export")
    analyze.add_argument("csv_path")
    return parser


def _analyze(cfg, args):
    table = cfg.load_table()
    trace = ingest_scope_csv(args.csv_path, table, cfg.ingest)
    markers = extract_markers(
        trace, manifold_window(table, cfg), cfg.markers.selection(), table, cfg.medium
    )
    depths = depth_metrics(markers)
    print(f"markers: A={markers.A:.4f} B={markers.B:.4f} C={markers.C:.4f} D={markers.D:.4f} V")
    print(
        f"depths: doppler={depths.doppler_depth:.2f}% "
        f"hyperfine={depths.hyperfine_depth:.2f}% "
        f"crossover={depths.crossover_depth:.2f}%"
    )
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        cfg = _resolve_config(args.config)
        if args.command == "analyze":
            return _analyze(cfg, args)
        names = _RUNNERS if args.command == "all" else [args.command]
        reports = [_RUNNERS[name](cfg, Path(args.out), args.format, args.seed)
                   for name in names]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SaslockError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN

    for report in reports:
        _print_report(report)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CRITERIA


if __name__ == "__main__":
    sys.exit(main())
