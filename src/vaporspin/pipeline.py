"""End-to-end runs: config -> rates -> integration -> observables -> CSV.

Samples and Newton's steady state are pump-frame coordinates on the Delta m_F
= 0 sector.  The observable pass (:func:`stacked_observables`) reads each
state off the closed-form spectra of its m_F blocks, with no state
diagonalized, turned or lifted to a d x d matrix; ``run`` and ``sweep`` hand
it each flush of the stepper and append its rows to trajectory.csv.

Output conventions shared by every writer here:
  * floats are written with ``%.12g`` (full double precision, stable across
    runs, so identical inputs give byte-identical files),
  * infinities are written as ``inf``, booleans as ``true``/``false``,
  * energies are in units of the hyperfine coupling, times in seconds with
    a normalized companion column in spin-exchange times.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cell_rates import RateSet, compute_rates
from .config import ConfigError, RunConfig
from .dynamics import (
    PumpParams,
    PhysicsViolationError,
    SteadyStateInfo,
    Trajectory,
    block_rhs,
    block_spectra,
    build_superops,
    default_dt,
    fit_spin_temperature,
    integrate,  # noqa: F401 — not called here; kept only because perfbench/traced.py wraps it
    integrate_block,
    lab_states,
    mf_blocks,
    pump_frame,
    pump_polarization,
    sampling_plan,
    solve_steady_state,
)
# quantum_fisher_information and thermo_sample: not called here; perfbench/traced.py wraps them
from .metrology import PAIR_CUTOFF, qfi_floor, quantum_fisher_information  # noqa: F401
from .spin_algebra import SpinOperatorSet, build_coupled_operators
from .thermo import EIG_CLIP, ENERGY_FLOOR, production_rate_floor, thermo_sample  # noqa: F401

__all__ = [
    "SimulationResult",
    "build_simulation",
    "integrate_runs",
    "simulate",
    "trajectory_horizon",
    "steady_state_columns",
    "steady_state_row",
    "stacked_observables",
    "trajectory_table",
    "write_csv",
    "write_rates_csv",
    "run_single",
    "run_sweep",
    "format_value",
]

# largest sample store of one block, as sample_store_bytes counts it, for the stored trajectories of
# simulate, integrate_runs and the figure series; run and sweep store none but refuse the same configs
MAX_TRAJECTORY_BYTES = 2**30

# what the configs of one integrator block share: the nuclear spin and the sampling
BLOCK_KEYS = ("nuclear_spin", "t_end_s", "sample_every", "stop_at_steady", "steady_tol")


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_floats(fh, rows: np.ndarray) -> None:  # each value with %.12g
    line = ",".join(["%.12g"] * rows.shape[1]) + "\r\n"
    fh.writelines(line % tuple(row) for row in rows.tolist())


def write_csv(path: Path, header: list[str], rows: list[list] | np.ndarray) -> Path:
    """Write ``header`` and ``rows`` as CSV, byte for byte what csv.writer writes ("\\r\\n", no quoting).

    ``rows`` is a list of rows, each value through :func:`format_value`, or
    a 2-D float array, each value written with ``%.12g``.  The file is
    written under a temporary name in its directory and moved into place
    whole; on failure the temporary file is removed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            if isinstance(rows, list):
                writer.writerows([format_value(v) for v in row] for row in rows)
            else:
                _write_floats(fh, rows)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)  # left only by a failure
    return path


def build_simulation(cfg: RunConfig) -> tuple[SpinOperatorSet, RateSet, PumpParams]:
    """Operators, cell rates and pump parameters implied by a config."""
    rates = compute_rates(cfg.cell())
    params = PumpParams(
        r_op=cfg.r_op_over_gamma_se * rates.gamma_se,
        s=tuple(cfg.s_magnitude * (axis == cfg.pump_axis) for axis in "xyz"),
        gamma_se=rates.gamma_se,
        gamma_sd=rates.gamma_sd,
        a_hfs=cfg.a_hfs_over_gamma_se * rates.gamma_se,
    )
    return build_coupled_operators(cfg.nuclear_spin), rates, params


@dataclass
class SimulationResult:
    config: RunConfig
    ops: SpinOperatorSet
    rates: RateSet
    params: PumpParams
    traj: Trajectory
    ness: np.ndarray  # (d + 4I,) pump-frame sector coordinates of the steady state
    ness_info: SteadyStateInfo

    @property
    def ness_rho(self) -> np.ndarray:
        """The steady state in the lab frame, a d x d matrix lifted from ``ness``."""
        return lab_states(self.ness, self.params, self.ops)


def integrate_runs(
    cfgs: list[RunConfig], *, fixed_step: bool = False, keep: Callable | None = None
) -> list[tuple[SpinOperatorSet, RateSet, PumpParams, Trajectory]]:
    """Integrate configs as one block from the maximally mixed state: the path of run, sweep and figures.

    The configs must agree on ``BLOCK_KEYS`` (else :class:`ValueError` names the
    key); each keeps its own rates, pump and A.  The block samples on their smallest
    :func:`default_dt`, and is refused with :class:`ConfigError` past
    ``MAX_TRAJECTORY_BYTES``.  ``keep(ops, params)``, if given, makes the ``keep`` of :func:`integrate_block`,
    and the trajectories store no sample.  Returns (operators, rates, pump parameters, trajectory) per config.
    """
    sims = [build_simulation(cfg) for cfg in cfgs]
    shared = [
        (cfg.nuclear_spin, cfg.t_end_over_t_se * params.t_se,
         cfg.sample_every, cfg.stop_at_steady, cfg.steady_tol)
        for cfg, (_, _, params) in zip(cfgs, sims)
    ]
    for key, values in zip(BLOCK_KEYS, zip(*shared)):
        if len(set(values)) > 1:
            raise ValueError(f"the configs of one block differ in {key}: {sorted(set(values))}")
    cfg, (ops, _, params) = cfgs[0], sims[0]
    dt = min(default_dt(p, steps_per_rate=c.dt_steps_per_rate) for c, (_, _, p) in zip(cfgs, sims))
    t_end = trajectory_horizon(cfg, params, ops, dt, columns=len(cfgs))
    params_seq = [p for _, _, p in sims]
    trajs = integrate_block(
        params_seq, ops, t_end=t_end, dt=dt,
        sample_every=cfg.sample_every, stop_at_steady=cfg.stop_at_steady, steady_tol=cfg.steady_tol,
        fixed_step=fixed_step, keep=None if keep is None else keep(ops, params_seq),
    )
    return [(*sim, traj) for sim, traj in zip(sims, trajs)]


def simulate(cfg: RunConfig) -> SimulationResult:
    """Integrate from the maximally mixed state, and solve for the steady state.

    The steady state does not depend on the trajectory: Newton starts from its
    closed form (:func:`~vaporspin.dynamics.solve_steady_state`).  A run whose samples
    would need more than ``MAX_TRAJECTORY_BYTES`` raises :class:`ConfigError` before integrating.
    """
    [(ops, rates, params, traj)] = integrate_runs([cfg])
    return SimulationResult(cfg, ops, rates, params, traj, *solve_steady_state(params, ops))


def sample_store_bytes(n_samples: int, dim: int) -> int:
    """Bytes the cap counts for one run's samples: 16 (d^2 + 1) each, a d x d complex state and two floats.

    It bounds the stored trajectories of simulate, integrate_runs and the figure series, which hold 232 bytes
    a sample at I = 3/2 (its sector coordinates, their dx/dt and its time); run and sweep store none but are
    counted alike, so that they refuse what they always refused.
    """
    return n_samples * (dim**2 + 1) * 16


def trajectory_horizon(
    cfg: RunConfig, params: PumpParams, ops: SpinOperatorSet, dt: float, columns: int = 1
) -> float:
    """Horizon in seconds of ``columns`` runs of ``cfg`` sampled on the grid of ``dt``.

    Raises :class:`ConfigError` when their samples, all held at once, would
    need more than ``MAX_TRAJECTORY_BYTES`` (:func:`sample_store_bytes`).
    """
    t_end = cfg.t_end_over_t_se * params.t_se
    _, n_samples = sampling_plan(t_end, dt, cfg.sample_every)
    n_bytes = columns * sample_store_bytes(n_samples, ops.dim)
    if n_bytes > MAX_TRAJECTORY_BYTES:
        runs = f" for each of {columns} runs" if columns > 1 else ""
        raise ConfigError(f"t_end_over_t_se = {cfg.t_end_over_t_se:g} at dt_steps_per_rate = "
                          f"{cfg.dt_steps_per_rate:g} and sample_every = {cfg.sample_every} needs "
                          f"{n_samples} samples{runs}, {n_bytes >> 20} MiB, over the "
                          f"{MAX_TRAJECTORY_BYTES >> 20} MiB cap")
    return t_end


def _population_columns(ops: SpinOperatorSet) -> list[str]:
    def tag(x: float) -> str:
        return f"{x:g}".replace("-", "m").replace(".", "_")

    return [f"p_f{tag(f)}_m{tag(m)}" for f, m in ops.labels]


TRAJECTORY_COLUMNS = [
    "t_s", "t_norm",
    "s_vn", "sigma", "sigma_rate_per_s",
    "energy_over_a", "ergotropy_over_a", "efficiency",
    "qfi_x", "qfi_y", "qfi_z",
    "crb_x", "crb_y", "crb_z",
    "fx", "fy", "fz", "sx", "sy", "sz",
]


def stacked_observables(x: np.ndarray, params: PumpParams, ops: SpinOperatorSet,
                        rhs: np.ndarray) -> dict[str, np.ndarray]:
    """Every per-sample observable of pump-frame states, from their sector coordinates ``x``, shape (n, d + 4I).

    ``x`` holds each state's :attr:`~vaporspin.dynamics.MFBlocks.sector`
    coordinates in the pump frame of ``params``
    (:func:`~vaporspin.dynamics.pump_frame`), as a
    :class:`~vaporspin.dynamics.Trajectory` keeps them.  Returns one array
    per trajectory.csv observable column (``s_vn`` through ``sz``), each of
    shape (n,), plus the lab-frame ``populations`` of shape (n, d).  Each
    state is read off the closed-form spectra of its m_F blocks
    (:func:`~vaporspin.dynamics.block_spectra`); none is diagonalized or
    turned to the lab.  The entropy production rate is ``rhs``, the in-frame
    dx/dt at each state (:func:`block_rhs`), dotted with the coordinates of
    log rho.  The state commutes with the frame's F_z, so in the lab <F> and
    <S> lie along n, the lab direction of the frame's z axis (s/|s|, or z
    for pumps along +-z and for s = 0), and the QFI about lab axis k is
    q (1 - n_k^2), q the QFI about the frame's x axis.  The pass evaluates
    ``x`` as one stack, and it applies the floors of
    :func:`~vaporspin.metrology.qfi_floor` and
    :func:`~vaporspin.thermo.production_rate_floor`: a QFI or entropy
    production rate below its floor is exactly 0, and the QFI's bound inf.
    The scalar routines in :mod:`vaporspin.thermo` and
    :mod:`vaporspin.metrology` are the reference this pass is tested against.
    """
    d, blocks = ops.dim, mf_blocks(ops)
    pairs = blocks.upper.size
    w, theta, phi = block_spectra(x, ops)
    # each pair's eigenvectors are (c, e^{-i phi} s) and (-e^{i phi} s, c)
    c, s, turn = np.cos(0.5 * theta), np.sin(0.5 * theta), np.exp(1j * phi)
    out: dict[str, np.ndarray] = {}

    # entropy and its production (thermo.von_neumann_entropy and
    # thermo.entropy_production_rate, one row per state)
    clipped = np.clip(w, EIG_CLIP, 1.0)
    occupied = np.where(w > EIG_CLIP, clipped, 0.0)  # a level at or below EIG_CLIP is empty
    p = occupied / occupied.sum(axis=1, keepdims=True)
    occupied_p = np.where(p > 0.0, p, 1.0)
    out["s_vn"] = 0.0 - np.sum(p * np.log(occupied_p), axis=1)  # a pure state reads 0, not -0
    # D(rho || 1/d) = sum p ln(d p) = ln d - S, without the cancellation of
    # the difference; it is >= 0, so roundoff below reads 0
    out["sigma"] = np.maximum(np.sum(p * np.log(d * occupied_p), axis=1), 0.0)
    # Tr(drho/dt log rho) in the pump frame, as the dot product of sector
    # coordinates; each pair's part of log rho is L+ v+ v+^dag + L- v- v-^dag
    log_w = np.log(clipped)
    up, low = log_w[:, blocks.upper], log_w[:, blocks.lower]
    c2, s2 = c * c, s * s
    log_x = np.empty_like(x)
    log_x[:, :d] = log_w
    log_x[:, blocks.upper] = up * c2 + low * s2
    log_x[:, blocks.lower] = up * s2 + low * c2
    coherence = (up - low) * (math.sqrt(2.0) * c * s)  # sqrt 2 |<upper|log rho|lower>|
    log_x[:, d : d + pairs] = coherence * turn.real
    log_x[:, d + pairs :] = coherence * turn.imag
    rate = np.einsum("ni,ni->n", rhs, log_x)
    resolved = np.abs(rate) > production_rate_floor(clipped, params, ops)
    out["sigma_rate_per_s"] = np.where(resolved, rate, 0.0)

    # energy above the ground state, ergotropy and efficiency from sorted
    # spectra (thermo.ergotropy and thermo.efficiency); H0 is diagonal in
    # |F, m_F> and invariant under the frame's rotation
    energy = (params.a_hfs * ops.i_dot_s).diagonal().real
    eps = np.sort(energy)
    energy_raw = x[:, :d] @ energy
    energy_above = energy_raw - eps[0]
    erg = np.maximum(energy_raw - np.sort(w, axis=1)[:, ::-1] @ eps, 0.0)
    stored = np.isfinite(energy_above) & (energy_above > ENERGY_FLOOR * (eps[-1] - eps[0]))
    eff = np.zeros_like(energy_above)
    eff[stored] = np.clip(erg[stored] / energy_above[stored], 0.0, 1.0)
    scale = params.a_hfs if params.a_hfs > 0.0 else 1.0
    out["energy_over_a"] = energy_above / scale
    out["ergotropy_over_a"] = erg / scale
    out["efficiency"] = eff

    # QFI (metrology.quantum_fisher_information).  The state commutes with
    # the frame's F_z, so its QFI matrix is q (1 - n n^T), with q about the
    # frame's x axis: F_x joins neighbouring m_F blocks only
    lam = np.clip(w, 0.0, None)
    block_lam = np.where(blocks.levels >= 0, lam[:, blocks.levels], 0.0)  # (n, blocks, 2)
    vectors = np.zeros(block_lam.shape + (2,), dtype=complex)  # the eigenvectors as columns
    vectors[:, [0, -1], 0, 0] = vectors[:, [0, -1], 1, 1] = 1.0  # the blocks of one
    vectors[:, 1:-1, 0, 0] = vectors[:, 1:-1, 1, 1] = c
    vectors[:, 1:-1, 0, 1] = -turn * s
    vectors[:, 1:-1, 1, 0] = turn.conj() * s
    g_eig = vectors[:, :-1].conj().swapaxes(-1, -2) @ blocks.fx @ vectors[:, 1:]
    li, lj = block_lam[:, :-1, :, None], block_lam[:, 1:, None, :]
    denom = li + lj
    keep = denom > PAIR_CUTOFF * np.maximum(lam.sum(axis=1), 1e-300)[:, None, None, None]
    weight = np.where(keep, (li - lj) ** 2 / np.where(keep, denom, 1.0), 0.0)
    transverse = 4.0 * np.sum(weight * np.abs(g_eig) ** 2, axis=(1, 2, 3))  # both orders of each pair
    pump = params.s_vec
    axis = pump / np.linalg.norm(pump) if pump[0] != 0.0 or pump[1] != 0.0 else np.array([0.0, 0.0, 1.0])
    qfi = transverse[:, None] * (1.0 - axis**2)
    resolved = qfi > qfi_floor(w, ops.f_ops[2])[:, None]  # ||F_k||_F is the same for every axis
    crb = np.where(resolved, 1.0 / np.sqrt(np.where(resolved, qfi, 1.0)), np.inf)
    qfi = np.where(resolved, qfi, 0.0)
    # <F> and <S> lie along the frame's z axis; + 0.0 writes a -0 as 0
    along = np.concatenate([x[:, blocks.plus] - x[:, blocks.minus], x[:, d:]], axis=1) @ blocks.odd
    spin = along[:, :, None] * axis + 0.0
    for k, name in enumerate("xyz"):
        out[f"qfi_{name}"], out[f"crb_{name}"] = qfi[:, k], crb[:, k]
        out[f"f{name}"], out[f"s{name}"] = spin[:, 0, k], spin[:, 1, k]
    # the sector coordinates of R^dag |a><a| R, one column per level a
    frame = pump_frame(ops, params.s)
    coherence = math.sqrt(2.0) * (frame[:, blocks.upper].conj() * frame[:, blocks.lower]).T
    lab = np.vstack([(frame.conj() * frame).real.T, coherence.real, coherence.imag])
    out["populations"] = np.clip(x @ lab, 0.0, None)
    return out


def _trajectory_rows(t: np.ndarray, x: np.ndarray, rhs: np.ndarray, params: PumpParams, ops: SpinOperatorSet):
    """trajectory.csv's rows, as floats, of the states ``x`` at the times ``t`` with dx/dt ``rhs``."""
    obs = stacked_observables(x, params, ops, rhs)
    columns = [t, t / params.t_se] + [obs[c] for c in TRAJECTORY_COLUMNS[2:]]
    return np.column_stack(columns + [obs["populations"]])


def trajectory_table(traj: Trajectory, ops: SpinOperatorSet) -> tuple[list[str], np.ndarray]:
    """The header and the rows of a stored trajectory's trajectory.csv, as one block."""
    rows = _trajectory_rows(traj.times, traj.coordinates, traj.rhs, traj.params, ops)
    return TRAJECTORY_COLUMNS + _population_columns(ops), rows


def steady_state_columns(
    cfg: RunConfig, ops: SpinOperatorSet, params: PumpParams, x: np.ndarray
) -> dict[str, object]:
    """The steady-state columns of summary.csv, read off pump-frame sector coordinates ``x``."""
    d = ops.dim
    beta_fit, beta_resid = fit_spin_temperature(np.clip(x[:d], 0.0, None), ops.labels)
    obs = stacked_observables(x[None], params, ops, block_rhs(x[None], build_superops(params, ops)))
    return {
        "s_along_pump": float(obs[f"s{cfg.pump_axis}"][0]),
        "s_along_pump_predicted": 0.5 * pump_polarization(params),
        "beta_fit": beta_fit,
        "beta_fit_residual": beta_resid,
        "off_diag_mass_pump_frame": float(np.sum(x[d:] ** 2)),  # sum_{i != j} |rho_ij|^2
        **{key: float(obs[key][0]) for key in TRAJECTORY_COLUMNS[2:14]},
    }


def steady_state_row(result: SimulationResult) -> dict[str, object]:
    """Steady-state summary (one flat dict, the row of summary.csv)."""
    cfg, params, traj = result.config, result.params, result.traj
    steady_time = traj.times[traj.steady_index] if traj.steady_index is not None else float("nan")
    return {
        "radius_cm": cfg.radius_cm,
        "temperature_c": cfg.temperature_c,
        "p_he_torr": cfg.p_he_torr,
        "p_n2_torr": cfg.p_n2_torr,
        "nuclear_spin": cfg.nuclear_spin,
        "pump_axis": cfg.pump_axis,
        "s_magnitude": cfg.s_magnitude,
        "r_op_over_gamma_se": cfg.r_op_over_gamma_se,
        "a_hfs_over_gamma_se": cfg.a_hfs_over_gamma_se,
        "gamma_se_per_s": params.gamma_se,
        "gamma_sd_per_s": params.gamma_sd,
        "r_op_per_s": params.r_op,
        "a_hfs_per_s": params.a_hfs,
        "dt_s": traj.dt,
        "t_end_s": traj.times[-1],
        "n_samples": len(traj),
        "reached_steady": traj.reached_steady,
        "steady_time_s": steady_time,
        "ness_converged": result.ness_info.converged,
        "ness_residual_per_s": result.ness_info.residual,
        "ness_iterations": result.ness_info.iterations,
        **steady_state_columns(cfg, result.ops, params, result.ness),
    }


RATES_COLUMNS = [
    "radius_cm", "temperature_c", "p_he_torr", "p_n2_torr",
    "vapor_pressure_torr", "n_rb_cm3", "n_he_cm3", "n_n2_cm3",
    "v_rbrb_cm_s", "v_rbhe_cm_s", "v_rbn2_cm_s", "d_cm2_s",
    "gamma_se_per_s", "gamma_sd_rbrb_per_s", "gamma_sd_rbhe_per_s",
    "gamma_sd_rbn2_per_s", "gamma_wall_per_s", "include_wall",
    "gamma_sd_per_s", "se_to_sd_ratio",
]


def write_rates_csv(path: Path, rates: RateSet) -> Path:
    cell = rates.cell
    return write_csv(path, RATES_COLUMNS, [[
        cell.radius_cm, cell.temperature_c, cell.p_he_torr, cell.p_n2_torr,
        rates.vapor_pressure_torr, rates.n_rb_cm3, rates.n_he_cm3, rates.n_n2_cm3,
        rates.v_rbrb_cm_s, rates.v_rbhe_cm_s, rates.v_rbn2_cm_s, rates.d_cm2_s,
        rates.gamma_se, rates.gamma_sd_rbrb, rates.gamma_sd_rbhe,
        rates.gamma_sd_rbn2, rates.gamma_wall, cell.include_wall,
        rates.gamma_sd, rates.se_to_sd_ratio,
    ]])


def _run_block(cfgs: list[RunConfig], out_dirs: list[Path]) -> list[dict[str, object] | Exception]:
    """Run configs as one block, each writing rates.csv, trajectory.csv and summary.csv to its directory.

    Each flush's rows go through the pass to their column's temporary trajectory.csv.  Raises what stepping
    raises; returns each config's summary row, or what stopped its Newton solve or its files.  A failure
    leaves no temporary file, no trajectory.csv and no directory made here.
    """
    partials = [out_dir / f".trajectory.csv.{os.getpid()}.tmp" for out_dir in out_dirs]
    made = [d for out_dir in out_dirs for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first

    def start(ops: SpinOperatorSet, params_seq: list[PumpParams]) -> Callable:
        for partial in partials:
            partial.parent.mkdir(parents=True, exist_ok=True)
            partial.write_text(",".join(TRAJECTORY_COLUMNS + _population_columns(ops)) + "\r\n", newline="")

        def keep(cols, k, t, x, f):  # a column's file is opened per flush, so none stays open
            for j in np.flatnonzero(np.bincount(cols)):  # np.unique would import numpy.ma, 13 ms cold
                mine = cols == j
                with open(partials[j], "a", newline="") as fh:
                    _write_floats(fh, _trajectory_rows(t[mine], x[mine], f[mine], params_seq[j], ops))
        return keep

    results = []
    try:
        for cfg, partial, (ops, rates, params, traj) in zip(cfgs, partials, integrate_runs(cfgs, keep=start)):
            try:
                summary = steady_state_row(
                    SimulationResult(cfg, ops, rates, params, traj, *solve_steady_state(params, ops)))
                write_rates_csv(partial.parent / "rates.csv", rates)
                os.replace(partial, partial.parent / "trajectory.csv")
                write_csv(partial.parent / "summary.csv", list(summary), [list(summary.values())])
                results.append(summary)
            except Exception as exc:  # noqa: BLE001 — recorded per config
                results.append(exc)
        return results
    finally:
        for partial in partials:
            partial.unlink(missing_ok=True)
        for made_dir in made:
            if made_dir.is_dir() and not any(made_dir.iterdir()):
                made_dir.rmdir()


def run_single(cfg: RunConfig, out_dir: Path) -> dict[str, object]:
    """One full run, a block of one; writes rates.csv, trajectory.csv and summary.csv and returns the summary row."""
    [summary] = _run_block([cfg], [Path(out_dir)])
    if isinstance(summary, Exception):
        raise summary
    return summary


SWEEP_STATUS_OK = "ok"
SWEEP_STATUS_NOT_CONVERGED = "not_converged"
SWEEP_STATUS_PHYSICS = "physics_violation"
SWEEP_STATUS_ERROR = "error"


def run_sweep(cfg: RunConfig, out_dir: Path) -> tuple[Path, list[str]]:
    """Run one point per sweep value; aggregate summaries into sweep.csv.

    Points are laid out in out_dir/point_NN (ordered by ascending value) and
    failures are recorded per point without aborting the rest of the sweep.
    Points sharing the nuclear spin, the sample grid and the horizon run as
    blocks of :func:`run_single`'s path, of at most ``MAX_TRAJECTORY_BYTES``
    of samples (:func:`sample_store_bytes`); columns are independent, so
    each point writes what :func:`run_single` would.  A column that trips a
    guard is recorded as ``physics_violation`` and the rest of its block re-run.
    Returns the aggregate path and the list of per-point statuses.
    """
    if not cfg.sweep_variable:
        raise ConfigError("sweep requires sweep_variable and sweep_values in the config")
    out_dir = Path(out_dir)
    values = sorted(cfg.sweep_values)
    outcomes: list[tuple[str, str, dict]] = [None] * len(values)
    groups: dict[tuple, list] = {}
    for i, value in enumerate(values):
        point = dataclasses.replace(cfg, sweep_variable="", sweep_values=(), **{cfg.sweep_variable: value})
        try:
            ops, _, params = build_simulation(point.validate())
            dt = default_dt(params, steps_per_rate=point.dt_steps_per_rate)
            key = (ops.dim, dt, trajectory_horizon(point, params, ops, dt))
        except Exception as exc:  # noqa: BLE001 — a sweep must report, not die
            outcomes[i] = (SWEEP_STATUS_ERROR, f"{type(exc).__name__}: {exc}", {})
            continue
        groups.setdefault(key, []).append((i, point))

    for (dim, dt, t_end), members in groups.items():
        _, n_samples = sampling_plan(t_end, dt, cfg.sample_every)
        size = MAX_TRAJECTORY_BYTES // sample_store_bytes(n_samples, dim)
        for start in range(0, len(members), size):
            block, results = members[start : start + size], []
            while block:
                try:
                    results = _run_block([p for _, p in block], [out_dir / f"point_{i:02d}" for i, _ in block])
                    break
                except PhysicsViolationError as exc:
                    outcomes[block.pop(exc.column)[0]] = (SWEEP_STATUS_PHYSICS, str(exc), {})
                except Exception as exc:  # noqa: BLE001 — the whole block shares the failure
                    results = [exc] * len(block)
                    break
            for (i, _), summary in zip(block, results):
                if isinstance(summary, Exception):
                    outcomes[i] = (SWEEP_STATUS_ERROR, f"{type(summary).__name__}: {summary}", {})
                else:
                    status = SWEEP_STATUS_OK if summary["ness_converged"] else SWEEP_STATUS_NOT_CONVERGED
                    outcomes[i] = (status, "", summary)

    first_summary = next((summary for *_, summary in outcomes if summary), {})
    summary_cols = [c for c in first_summary if c != cfg.sweep_variable]
    header = [cfg.sweep_variable, "status", "error"] + summary_cols
    rows = [[value, status, message] + [summary.get(c, "") for c in summary_cols]
            for value, (status, message, summary) in zip(values, outcomes)]
    return write_csv(out_dir / "sweep.csv", header, rows), [status for status, _, _ in outcomes]
