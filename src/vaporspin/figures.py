"""Headline result files: time series, radius sweep, and QFI-vs-cost curves.

Everything is written as plain CSV (one file per panel) plus a manifest, so
the outputs diff cleanly and can be plotted with anything.  The recipes fix
the pump grids; the cell itself (temperature, fill, radius) comes from the
active config, so the whole set scales coherently if the cell changes.

Panel layout:
  fig2a/fig2b     pump-axis spin buildup, z pump / x pump, three polarizations
  fig3a..fig3f    entropy, entropy production, production rate — rows over
                  photon polarization and over pumping rate
  fig4a..fig4f    rotation QFI about x/y/z — same two rows
  fig5            steady state vs cell radius (wall-limited regime included)
  fig6a..fig6f    steady-path QFI reparametrized by efficiency and by
                  cumulative entropy production
  fit_summary     linear fits of QFI against entropy production
  manifest        inventory of all files written
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .dynamics import PhysicsViolationError, solve_steady_state
from .metrology import linear_fit, reparametrize_monotone
from .pipeline import (
    build_simulation,
    integrate_runs,
    simulate,  # not called here; perfbench/traced.py wraps figures.simulate
    stacked_observables,
    steady_state_columns,
    write_csv,
)

__all__ = ["reproduce_figures", "S_GRID", "R_OP_GRID", "RADIUS_GRID"]

S_GRID = (0.25, 0.5, 0.75)
R_OP_GRID = (0.25, 0.5, 1.0, 2.0)
RADIUS_GRID = tuple(np.geomspace(0.01, 2.5, 13))

FIGURE_T_END = 10.0
FIGURE_STRIDE = 50
FIT_SIGMA_FRACTION = 0.01  # drop samples below this fraction of final sigma

QFI_REPARAM_S = 0.75
QFI_REPARAM_R_OP = 1.0
RADIUS_SWEEP_R_OP = 0.5

# the distinct (pump axis, |s|, R_op / G_SE) time series behind fig2-fig4 and
# fig6, integrated as one block
SERIES = tuple(dict.fromkeys(
    [("z", s, 1.0) for s in S_GRID]
    + [("z", 0.5, r) for r in R_OP_GRID]
    + [("x", s, 1.0) for s in S_GRID]
))


def _series_config(base: RunConfig, axis: str, s: float, r_op: float) -> RunConfig:
    return dataclasses.replace(
        base,
        pump_axis=axis,
        s_magnitude=s,
        r_op_over_gamma_se=r_op,
        t_end_over_t_se=FIGURE_T_END,
        sample_every=FIGURE_STRIDE,
        stop_at_steady=False,
    )


def _tag(value: float) -> str:
    return f"{int(round(100 * value)):03d}"


def _radius_point(base: RunConfig, radius: float) -> dict[str, object]:
    cfg = dataclasses.replace(
        base,
        radius_cm=radius,
        pump_axis="z",
        s_magnitude=0.5,
        r_op_over_gamma_se=RADIUS_SWEEP_R_OP,
    )
    ops, _, params = build_simulation(cfg)
    rho, info = solve_steady_state(params, ops)
    if not info.converged:
        raise RuntimeError(f"steady-state solve failed at radius {radius} cm")
    return {
        "radius_cm": cfg.radius_cm,
        "gamma_se_per_s": params.gamma_se,
        "gamma_sd_per_s": params.gamma_sd,
        **steady_state_columns(cfg, ops, params, rho),
    }


def reproduce_figures(base: RunConfig, out_dir: Path) -> Path:
    """Write every figure CSV plus manifest.csv; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # -- the time series, one block on one grid --------------------------
    # one RK4 step for the block, set by the fastest pump
    try:
        runs = integrate_runs([_series_config(base, *key) for key in SERIES], fixed_step=True)
    except ConfigError as exc:
        # the recipe fixes the horizon and the stride; only the step is the config's
        need = str(exc).partition(" needs ")[2]
        raise ConfigError(f"dt_steps_per_rate = {base.dt_steps_per_rate:g} needs {need}") from exc
    except PhysicsViolationError as exc:
        axis, s, r_op = SERIES[exc.column]
        raise PhysicsViolationError(
            f"{exc.reason} in the series pumped along {axis} with s = {s:g} and "
            f"R_op = {r_op:g} G_SE", exc.step, exc.t,
        ) from exc
    bundles = {
        key: {**stacked_observables(traj.states, params, ops), "t_norm": traj.t_norm}
        for key, (ops, _, params, traj) in zip(SERIES, runs)
    }
    grid = bundles[SERIES[0]]["t_norm"]

    s_row = [bundles[("z", s, 1.0)] for s in S_GRID]
    r_row = [bundles[("z", 0.5, r)] for r in R_OP_GRID]
    x_row = [bundles[("x", s, 1.0)] for s in S_GRID]
    s_tags = [f"s{_tag(s)}" for s in S_GRID]
    r_tags = [f"r{_tag(r)}" for r in R_OP_GRID]

    manifest: list[tuple[str, int, int, str]] = []

    def emit(name: str, header: list[str], columns: list[np.ndarray], description: str):
        rows = [list(row) for row in zip(*columns)]
        write_csv(out_dir / f"{name}.csv", header, rows)
        manifest.append((f"{name}.csv", len(rows), len(header), description))

    # -- fig2: spin buildup along the pump axis --------------------------
    for name, axis, pump, row in (("fig2a", "z", "a z", s_row), ("fig2b", "x", "an x", x_row)):
        emit(name, ["t_norm"] + [f"{p}{axis}_{t}" for p in "fs" for t in s_tags],
             [grid] + [b[f"{p}{axis}"] for p in "fs" for b in row],
             f"collective and electron spin along {axis} under {pump} pump, three polarizations")

    # -- fig3: entropy bookkeeping, fig4: rotation QFI -------------------
    # panels a-c run over photon polarization, d-f over pumping rate
    fig3 = (("s_vn", "s_vn", "von Neumann entropy"),
            ("sigma", "sigma", "cumulative entropy production"),
            ("sigma_rate_per_s", "sigma_rate", "entropy production rate (1/s)"))
    fig4 = tuple((f"qfi_{a}", f"qfi_{a}", f"QFI for rotations about {a}") for a in "xyz")
    for fig, panels in (("fig3", fig3), ("fig4", fig4)):
        for letters, row, tags, grid_name in (("abc", s_row, s_tags, "three polarizations"),
                                              ("def", r_row, r_tags, "four pumping rates")):
            for letter, (field, label, what) in zip(letters, panels):
                emit(f"{fig}{letter}", ["t_norm"] + [f"{label}_{t}" for t in tags],
                     [grid] + [b[field] for b in row], f"{what} vs time, {grid_name}")

    # -- fig5: steady state vs cell radius -------------------------------
    fig5_cols = [
        "radius_cm", "gamma_se_per_s", "gamma_sd_per_s", "s_along_pump",
        "beta_fit", "s_vn", "sigma", "energy_over_a", "ergotropy_over_a",
        "efficiency", "qfi_x", "qfi_y", "qfi_z",
    ]
    points = [_radius_point(base, float(radius)) for radius in RADIUS_GRID]
    emit("fig5", fig5_cols, [[p[c] for p in points] for c in fig5_cols],
         "steady state vs cell radius; small cells are wall-relaxation dominated")

    # -- fig6: QFI against efficiency and against entropy production -----
    source = bundles[("z", QFI_REPARAM_S, QFI_REPARAM_R_OP)]
    fit_rows = []
    for i, axis in enumerate("xyz"):
        eff_x, eff_y = reparametrize_monotone(source["efficiency"], source[f"qfi_{axis}"])
        emit(f"fig6{'abc'[i]}", ["efficiency", f"qfi_{axis}"], [eff_x, eff_y],
             f"QFI about {axis} against pumping efficiency along the driven path")
    sigma_final = float(source["sigma"][-1])
    threshold = FIT_SIGMA_FRACTION * sigma_final
    for i, axis in enumerate("xyz"):
        sig_x, sig_y = reparametrize_monotone(source["sigma"], source[f"qfi_{axis}"])
        emit(f"fig6{'def'[i]}", ["sigma", f"qfi_{axis}"], [sig_x, sig_y],
             f"QFI about {axis} against cumulative entropy production")
        fit_x, fit_y = reparametrize_monotone(
            source["sigma"], source[f"qfi_{axis}"], drop_below=threshold
        )
        slope, intercept, r2 = linear_fit(fit_x, fit_y)
        fit_rows.append([axis, slope, intercept, r2, len(fit_x), threshold])
    emit("fit_summary",
         ["axis", "slope", "intercept", "r_squared", "n_points", "sigma_threshold"],
         list(zip(*fit_rows)),
         "linear fit of QFI vs entropy production past the initial transient")

    manifest_path = write_csv(
        out_dir / "manifest.csv",
        ["file", "n_rows", "n_cols", "description"],
        [list(entry) for entry in manifest],
    )
    return manifest_path
