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
import functools
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dynamics import default_dt, solve_steady_state
from .metrology import linear_fit, reparametrize_monotone
from .pipeline import (
    build_simulation,
    fan_out,
    simulate,
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


def _series_bundle(cfg: RunConfig, dt: float) -> dict[str, np.ndarray]:
    """Time-series observables of one run, keyed by trajectory.csv column."""
    result = simulate(cfg, dt=dt)
    bundle = stacked_observables(result.traj.states, result.params, result.ops)
    bundle["t_norm"] = result.traj.t_norm
    return bundle


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


def reproduce_figures(base: RunConfig, out_dir: Path, jobs: int = 1) -> Path:
    """Write every figure CSV plus manifest.csv; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # -- unique time-series runs, cached by (axis, s, r_op) --------------
    keys: list[tuple[str, float, float]] = []
    for s in S_GRID:
        keys.append(("z", s, 1.0))
    for r in R_OP_GRID:
        key = ("z", 0.5, r)
        if key not in keys:
            keys.append(key)
    for s in S_GRID:
        keys.append(("x", s, 1.0))

    configs = [_series_config(base, *key) for key in keys]
    # one RK4 step for every series, set by the fastest pump, so that all
    # series share one sampling grid
    _, _, fastest = build_simulation(max(configs, key=lambda c: c.r_op_over_gamma_se))
    dt = default_dt(fastest, steps_per_rate=base.dt_steps_per_rate)
    bundles = dict(zip(keys, fan_out(functools.partial(_series_bundle, dt=dt), configs, jobs)))
    grid = bundles[keys[0]]["t_norm"]
    assert all(np.array_equal(b["t_norm"], grid) for b in bundles.values()), "series grids differ"

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
    emit(
        "fig2a",
        ["t_norm"] + [f"fz_{t}" for t in s_tags] + [f"sz_{t}" for t in s_tags],
        [grid] + [b["fz"] for b in s_row] + [b["sz"] for b in s_row],
        "collective and electron spin along z under a z pump, three polarizations",
    )
    emit(
        "fig2b",
        ["t_norm"] + [f"fx_{t}" for t in s_tags] + [f"sx_{t}" for t in s_tags],
        [grid] + [b["fx"] for b in x_row] + [b["sx"] for b in x_row],
        "collective and electron spin along x under an x pump, three polarizations",
    )

    # -- fig3: entropy bookkeeping ---------------------------------------
    for name, field, label, desc in (
        ("fig3a", "s_vn", "s_vn", "von Neumann entropy vs time, three polarizations"),
        ("fig3b", "sigma", "sigma", "cumulative entropy production vs time, three polarizations"),
        ("fig3c", "sigma_rate_per_s", "sigma_rate",
         "entropy production rate (1/s) vs time, three polarizations"),
    ):
        emit(name, ["t_norm"] + [f"{label}_{t}" for t in s_tags],
             [grid] + [b[field] for b in s_row], desc)
    for name, field, label, desc in (
        ("fig3d", "s_vn", "s_vn", "von Neumann entropy vs time, four pumping rates"),
        ("fig3e", "sigma", "sigma", "cumulative entropy production vs time, four pumping rates"),
        ("fig3f", "sigma_rate_per_s", "sigma_rate",
         "entropy production rate (1/s) vs time, four pumping rates"),
    ):
        emit(name, ["t_norm"] + [f"{label}_{t}" for t in r_tags],
             [grid] + [b[field] for b in r_row], desc)

    # -- fig4: rotation QFI ----------------------------------------------
    axis_names = ("x", "y", "z")
    for name, axis in zip(("fig4a", "fig4b", "fig4c"), axis_names):
        emit(name, ["t_norm"] + [f"qfi_{axis}_{t}" for t in s_tags],
             [grid] + [b[f"qfi_{axis}"] for b in s_row],
             f"QFI for rotations about {axis} vs time, three polarizations")
    for name, axis in zip(("fig4d", "fig4e", "fig4f"), axis_names):
        emit(name, ["t_norm"] + [f"qfi_{axis}_{t}" for t in r_tags],
             [grid] + [b[f"qfi_{axis}"] for b in r_row],
             f"QFI for rotations about {axis} vs time, four pumping rates")

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
    for i, axis in enumerate(axis_names):
        eff_x, eff_y = reparametrize_monotone(source["efficiency"], source[f"qfi_{axis}"])
        emit(f"fig6{'abc'[i]}", ["efficiency", f"qfi_{axis}"], [eff_x, eff_y],
             f"QFI about {axis} against pumping efficiency along the driven path")
    sigma_final = float(source["sigma"][-1])
    threshold = FIT_SIGMA_FRACTION * sigma_final
    for i, axis in enumerate(axis_names):
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
