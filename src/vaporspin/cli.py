"""Command-line front end.

Subcommands:
  rates               collision/wall rate budget for the configured cell
  run                 integrate one configuration, write CSV outputs
  sweep               one run per sweep value, plus an aggregate table
  reproduce-figures   write the full set of headline result CSVs

Exit codes: 0 success; 2 bad usage or bad config; 3 a run left the physical
state space (trace/positivity guard tripped); 4 any other runtime failure;
5 ``run``/``sweep`` wrote its outputs but a steady-state solve did not converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
from .dynamics import PhysicsViolationError
from .figures import reproduce_figures
from .pipeline import (
    SWEEP_STATUS_ERROR,
    SWEEP_STATUS_NOT_CONVERGED,
    SWEEP_STATUS_OK,
    SWEEP_STATUS_PHYSICS,
    build_simulation,
    run_single,
    run_sweep,
    write_rates_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_RUNTIME = 4
EXIT_NOT_CONVERGED = 5


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaporspin",
        description="Driven-dissipative spin dynamics of an optically pumped alkali vapor cell",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, metavar="PATH",
                         help="key=value config file (built-in defaults when omitted)")
        cmd.add_argument("--out", type=Path, default=None, metavar="DIR",
                         help="output directory (default: out_dir from the config)")
        cmd.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                         help="accepted and ignored; every command runs in one process")
        return cmd

    add_command("rates", "compute the cell's collision and wall rates")
    add_command("run", "integrate one run and write rates/trajectory/summary CSVs")
    add_command("sweep", "run every sweep value and write per-point dirs + sweep.csv")
    add_command("reproduce-figures", "write all headline figure CSVs and a manifest")
    return parser


def _cmd_rates(cfg: RunConfig, out_dir: Path) -> int:
    _, rates, params = build_simulation(cfg)
    path = write_rates_csv(out_dir / "rates.csv", rates)
    print(f"cell: radius {rates.cell.radius_cm} cm, {rates.cell.temperature_c} C, "
          f"He {rates.cell.p_he_torr} Torr, N2 {rates.cell.p_n2_torr} Torr")
    print(f"n_rb_cm3        = {rates.n_rb_cm3:.6g}")
    print(f"gamma_se_per_s  = {rates.gamma_se:.6g}")
    print(f"gamma_sd_per_s  = {rates.gamma_sd:.6g}")
    print(f"  rb-rb         = {rates.gamma_sd_rbrb:.6g}")
    print(f"  rb-he         = {rates.gamma_sd_rbhe:.6g}")
    print(f"  rb-n2         = {rates.gamma_sd_rbn2:.6g}")
    print(f"  wall          = {rates.gamma_wall:.6g}" +
          ("" if rates.cell.include_wall else "  (excluded from total)"))
    print(f"se/sd ratio     = {rates.se_to_sd_ratio:.6g}")
    print(f"r_op_per_s      = {params.r_op:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    summary = run_single(cfg, out_dir)
    print(f"wrote {out_dir / 'rates.csv'}")
    print(f"wrote {out_dir / 'trajectory.csv'}")
    print(f"wrote {out_dir / 'summary.csv'}")
    print(f"reached_steady  = {summary['reached_steady']}")
    print(f"s_along_pump    = {summary['s_along_pump']:.6g} "
          f"(predicted {summary['s_along_pump_predicted']:.6g})")
    print(f"efficiency      = {summary['efficiency']:.6g}")
    if not summary["ness_converged"]:
        print(f"warning: the steady-state solve did not converge (residual "
              f"{summary['ness_residual_per_s']:.3g}/s after {summary['ness_iterations']} "
              "iterations); summary.csv holds the last iterate", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    path, statuses = run_sweep(cfg, out_dir)
    n_ok = statuses.count(SWEEP_STATUS_OK)
    print(f"wrote {path} ({n_ok}/{len(statuses)} points ok)")
    if SWEEP_STATUS_PHYSICS in statuses:
        return EXIT_PHYSICS
    if SWEEP_STATUS_ERROR in statuses:
        return EXIT_RUNTIME
    if SWEEP_STATUS_NOT_CONVERGED in statuses:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_figures(cfg: RunConfig, out_dir: Path) -> int:
    manifest = reproduce_figures(cfg, out_dir)
    with open(manifest) as fh:
        n_files = sum(1 for _ in fh) - 1
    print(f"wrote {n_files} files, manifest at {manifest}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig().validate()
        out_dir = args.out if args.out is not None else Path(cfg.out_dir)
        if args.command == "rates":
            return _cmd_rates(cfg, out_dir)
        if args.command == "run":
            return _cmd_run(cfg, out_dir)
        if args.command == "sweep":
            return _cmd_sweep(cfg, out_dir)
        if args.command == "reproduce-figures":
            return _cmd_figures(cfg, out_dir)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsViolationError as exc:
        print(f"physics violation: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
