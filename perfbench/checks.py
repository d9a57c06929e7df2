"""Output checks for one CLI invocation, and the reference they compare with.

Every check is written so that a later change to the numerics (step control,
evaluation order) still passes: row counts follow from the config, and the
Newton-polished steady state is compared with a closed form at a stated
tolerance, never with digits recorded from one commit. Byte identity is
checked only between runs of one commit (see ``csv_digests``).

The reference: under circular pumping along n, the fixed point of the master
equation is the spin-temperature state rho ~ exp(beta n.F) with electron
polarization P = |s| R_op / (R_op + G_SD) and beta = ln((1 + P) / (1 - P)).
It is built here in the uncoupled |m_I> x |m_S> basis with H0 = I.S (energy
in units of A), an independent route from the package's coupled |F, m_F>
operators. All the compared observables are basis-free.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from workloads import (
    DEFAULT_SAMPLE_EVERY, FIGURE_FILES, FIGURE_STRIDE, FIGURE_T_END, RADIUS_POINTS, RADIUS_SWEEP,
    Workload,
)

# The Newton solve stops at a residual of 1e-10 of the fastest rate, so the
# state is good to about 1e-10 absolute. At moderate polarization the columns
# agree with the closed form to about 1e-11; at |s| = 1 the worst seen
# (80 seeds) is 3e-10 absolute. beta_fit is a least-squares fit of ln p over
# all eight populations. At |s| = 1 the smallest populations fall to about
# 1e-10, where the solver's error dominates, and the fit degrades: 6% off at
# sweep seed 22, where summary.csv reports beta_fit_residual = 2.4. So
# beta_fit is held to 1e-4 relative plus the fit residual the program reports.
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-8
BETA_FIT_RTOL = 1e-4
S_ALONG_PUMP_RTOL = 1e-8  # as tests/test_pipeline.py checks it
POPULATION_SUM_TOL = 1e-9
NEWTON_COLUMNS = (
    "s_along_pump", "beta_fit", "s_vn", "sigma", "energy_over_a",
    "ergotropy_over_a", "efficiency", "qfi_x", "qfi_y", "qfi_z",
)
AXES = "xyz"


class CheckFailed(Exception):
    pass


def _spin_matrices(j: float) -> list[np.ndarray]:
    m = np.arange(j, -j - 1, -1)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    return [(jp + jp.T) / 2, (jp - jp.T) / 2j, np.diag(m).astype(complex)]


_I = _spin_matrices(1.5)
_S = _spin_matrices(0.5)
_F = [np.kron(i, np.eye(2)) + np.kron(np.eye(4), s) for i, s in zip(_I, _S)]
_H0 = sum(np.kron(i, s) for i, s in zip(_I, _S))
_H0_LEVELS = np.linalg.eigvalsh(_H0)


def spin_temperature_reference(s_magnitude: float, r_op: float, gamma_sd: float, axis: str) -> dict:
    """Steady-state observables of the spin-temperature state (rates in 1/s)."""
    pol = s_magnitude * r_op / (r_op + gamma_sd)
    beta = math.log((1 + pol) / (1 - pol))
    m, v = np.linalg.eigh(_F[AXES.index(axis)])
    p = np.exp(beta * (m - m.max()))
    p /= p.sum()
    rho = (v * p) @ v.conj().T
    energy = float(np.trace(rho @ _H0).real) - _H0_LEVELS[0]
    ergotropy = energy + _H0_LEVELS[0] - float(np.sort(p)[::-1] @ _H0_LEVELS)
    s_vn = float(-p @ np.log(p))
    pair = (p[:, None] - p[None, :]) ** 2 / (p[:, None] + p[None, :])
    qfi = [float(2 * np.sum(pair * np.abs(v.conj().T @ f @ v) ** 2)) for f in _F]
    return {
        "s_along_pump": pol / 2,
        "beta_fit": beta,
        "s_vn": s_vn,
        "sigma": math.log(8) - s_vn,
        "energy_over_a": energy,
        "ergotropy_over_a": ergotropy,
        "efficiency": ergotropy / energy,
        "qfi_x": qfi[0],
        "qfi_y": qfi[1],
        "qfi_z": qfi[2],
    }


def read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _compare_reference(row: dict, ref: dict, where: str) -> None:
    for col in NEWTON_COLUMNS:
        got, want = float(row[col]), ref[col]
        rtol = REFERENCE_RTOL
        if col == "beta_fit":
            rtol = BETA_FIT_RTOL + float(row.get("beta_fit_residual", 0.0))
        _expect(
            abs(got - want) <= REFERENCE_ATOL + rtol * abs(want),
            f"{where}: {col} = {got!r}, spin-temperature reference {want!r}",
        )


def check_run_dir(out: Path, t_end_over_t_se: float, wl: Workload, s_magnitude: float) -> None:
    """rates.csv, trajectory.csv and summary.csv of one `run` (or sweep point)."""
    _expect(len(read_csv(out / "rates.csv")) == 1, "rates.csv must hold one row")
    summary = read_csv(out / "summary.csv")
    _expect(len(summary) == 1, "summary.csv must hold one row")
    row = summary[0]
    sample_every = int(wl.config.get("sample_every", DEFAULT_SAMPLE_EVERY))
    expected = wl.expected_samples(t_end_over_t_se, sample_every)
    traj = read_csv(out / "trajectory.csv")
    _expect(abs(len(traj) - expected) <= 1, f"trajectory.csv has {len(traj)} rows, expected {expected}")
    _expect(int(row["n_samples"]) == len(traj), "summary n_samples disagrees with trajectory.csv")
    pop_cols = [c for c in traj[0] if c.startswith("p_f")]
    _expect(len(pop_cols) == 8, f"expected 8 population columns, got {len(pop_cols)}")
    worst = max(abs(sum(float(r[c]) for c in pop_cols) - 1.0) for r in traj)
    _expect(worst <= POPULATION_SUM_TOL, f"populations sum to 1 only within {worst:.3g}")
    _expect(row["ness_converged"] == "true", "ness_converged is not true")
    s_along, s_pred = float(row["s_along_pump"]), float(row["s_along_pump_predicted"])
    _expect(abs(s_along - s_pred) <= S_ALONG_PUMP_RTOL * abs(s_pred),
            f"s_along_pump {s_along!r} vs predicted {s_pred!r}")
    ref = spin_temperature_reference(
        s_magnitude, float(row["r_op_per_s"]), float(row["gamma_sd_per_s"]), row["pump_axis"]
    )
    _compare_reference(row, ref, f"{out.name}/summary.csv")


def check_sweep(out: Path, wl: Workload) -> None:
    rows = read_csv(out / "sweep.csv")
    values = sorted(wl.config["sweep_values"])
    _expect(len(rows) == len(values), f"sweep.csv has {len(rows)} rows, expected {len(values)}")
    for i, (row, value) in enumerate(zip(rows, values)):
        _expect(row["status"] == "ok", f"sweep point {value} has status {row['status']!r}: {row['error']}")
        check_run_dir(out / f"point_{i:02d}", wl.config["t_end_over_t_se"], wl, value)


def check_figures(out: Path, wl: Workload) -> None:
    manifest = read_csv(out / "manifest.csv")
    _expect(len(manifest) == FIGURE_FILES, f"manifest lists {len(manifest)} files, expected {FIGURE_FILES}")
    series_rows = wl.expected_samples(FIGURE_T_END, FIGURE_STRIDE)
    for entry in manifest:
        rows = read_csv(out / entry["file"])
        _expect(len(rows) == int(entry["n_rows"]), f"{entry['file']}: row count disagrees with manifest")
        _expect(len(rows[0]) == int(entry["n_cols"]), f"{entry['file']}: column count disagrees with manifest")
        if entry["file"].startswith(("fig2", "fig3", "fig4", "fig6")):
            _expect(abs(len(rows) - series_rows) <= 1,
                    f"{entry['file']} has {len(rows)} rows, expected {series_rows}")
    fig5 = read_csv(out / "fig5.csv")
    _expect(len(fig5) == RADIUS_POINTS, f"fig5.csv has {len(fig5)} rows, expected {RADIUS_POINTS}")
    for row in fig5:
        gamma_se = float(row["gamma_se_per_s"])
        ref = spin_temperature_reference(
            RADIUS_SWEEP["s_magnitude"], RADIUS_SWEEP["r_op_over_gamma_se"] * gamma_se,
            float(row["gamma_sd_per_s"]), "z",
        )
        _compare_reference(row, ref, f"fig5.csv radius {row['radius_cm']}")


def check_outputs(out: Path, wl: Workload) -> None:
    """Raise CheckFailed unless the outputs of one invocation of `wl` are right."""
    if wl.command == "run":
        check_run_dir(out, wl.config["t_end_over_t_se"], wl, wl.config["s_magnitude"])
    elif wl.command == "sweep":
        check_sweep(out, wl)
    else:
        check_figures(out, wl)


def csv_digests(out: Path) -> dict[str, str]:
    """sha256 of every CSV under an output directory, keyed by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*.csv"))
    }
