"""End-to-end runs: config -> rates -> integration -> observables -> CSV.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cell_rates import CellConfig, CrossSections, DiffusionParams, RateSet, compute_rates
from .config import ConfigError, RunConfig
from .dynamics import (
    MasterSuperops,
    PumpParams,
    PhysicsViolationError,
    SteadyStateInfo,
    Trajectory,
    block_rhs,
    build_superops,
    default_dt,
    fit_spin_temperature,
    integrate,  # noqa: F401 — not called here; kept only because perfbench/traced.py wraps it
    integrate_block,
    pump_polarization,
    sampling_plan,
    solve_steady_state,
    to_coordinates,
)
# quantum_fisher_information and thermo_sample: not called here; perfbench/traced.py wraps them
from .metrology import PAIR_CUTOFF, qfi_floor, quantum_fisher_information  # noqa: F401
from .spin_algebra import SpinOperatorSet, build_coupled_operators
from .thermo import EIG_CLIP, ENERGY_FLOOR, production_rate_floor, thermo_sample  # noqa: F401

__all__ = [
    "SimulationResult",
    "build_cell",
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
    "write_run",
    "run_single",
    "run_sweep",
    "format_value",
]

# states per batched eigendecomposition in stacked_observables; a fixed block
# keeps the pass's scratch memory independent of the trajectory length
OBSERVABLE_BLOCK = 64

# largest sample store of one integrator block, all columns together; one run
# at the built-in defaults needs 78 MB, at t_end_over_t_se = 1e5 52 GB
MAX_TRAJECTORY_BYTES = 2**30

# what the configs of one integrator block share: H0 and the sampling
BLOCK_KEYS = ("nuclear_spin", "a_hfs_per_s", "t_end_s", "sample_every", "stop_at_steady", "steady_tol")


def format_value(value) -> str:
    # floats are nearly every cell written, so they skip the isinstance chain
    if type(value) is float or type(value) is np.float64:
        return f"{float(value):.12g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    formats: dict[int, str] = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            # a row of floats is written with one format string, byte for byte
            # what format_value and csv.writer (no quoting, "\r\n") would write
            if all(type(v) is float or type(v) is np.float64 for v in row):
                if len(row) not in formats:
                    formats[len(row)] = ",".join(["%.12g"] * len(row)) + "\r\n"
                fh.write(formats[len(row)] % tuple(row))
            else:
                writer.writerow([format_value(v) for v in row])
    return path


def build_cell(cfg: RunConfig) -> CellConfig:
    return CellConfig(
        radius_cm=cfg.radius_cm,
        temperature_c=cfg.temperature_c,
        p_he_torr=cfg.p_he_torr,
        p_n2_torr=cfg.p_n2_torr,
        cross_sections=CrossSections(
            se_rbrb=cfg.sigma_se_rbrb,
            sd_rbrb=cfg.sigma_sd_rbrb,
            sd_rbhe=cfg.sigma_sd_rbhe,
            sd_rbn2=cfg.sigma_sd_rbn2,
        ),
        diffusion=DiffusionParams(
            d0_he=cfg.d0_he_cm2_s,
            d0_n2=cfg.d0_n2_cm2_s,
            temp_exponent=cfg.d_temp_exponent,
        ),
    )


def build_simulation(cfg: RunConfig) -> tuple[SpinOperatorSet, RateSet, PumpParams]:
    """Operators, cell rates and pump parameters implied by a config."""
    rates = compute_rates(build_cell(cfg), include_wall=cfg.include_wall)
    a_hfs = cfg.a_hfs_over_gamma_se * rates.gamma_se
    ops = build_coupled_operators(nuclear_spin=cfg.nuclear_spin, a_hfs=a_hfs)
    params = PumpParams(
        r_op=cfg.r_op_over_gamma_se * rates.gamma_se,
        s=tuple(cfg.s_magnitude * (axis == cfg.pump_axis) for axis in "xyz"),
        gamma_se=rates.gamma_se,
        gamma_sd=rates.gamma_sd,
        a_hfs=a_hfs,
    )
    return ops, rates, params


@dataclass
class SimulationResult:
    config: RunConfig
    ops: SpinOperatorSet
    rates: RateSet
    params: PumpParams
    traj: Trajectory
    ness_rho: np.ndarray
    ness_info: SteadyStateInfo


def integrate_runs(
    cfgs: list[RunConfig], *, fixed_step: bool = False
) -> list[tuple[SpinOperatorSet, RateSet, PumpParams, Trajectory]]:
    """Integrate configs as one block from the maximally mixed state: the path of run, sweep and figures.

    The configs must agree on ``BLOCK_KEYS`` (else :class:`ValueError` names
    the key).  The block samples on their smallest :func:`default_dt`, and is
    refused with :class:`ConfigError` past ``MAX_TRAJECTORY_BYTES``.  Returns
    (operators, rates, pump parameters, trajectory) per config.
    """
    sims = [build_simulation(cfg) for cfg in cfgs]
    shared = [
        (cfg.nuclear_spin, params.a_hfs, cfg.t_end_over_t_se * params.t_se,
         cfg.sample_every, cfg.stop_at_steady, cfg.steady_tol)
        for cfg, (_, _, params) in zip(cfgs, sims)
    ]
    for key, values in zip(BLOCK_KEYS, zip(*shared)):
        if len(set(values)) > 1:
            raise ValueError(f"the configs of one block differ in {key}: {sorted(set(values))}")
    cfg, (ops, _, params) = cfgs[0], sims[0]
    dt = min(default_dt(p, steps_per_rate=c.dt_steps_per_rate) for c, (_, _, p) in zip(cfgs, sims))
    t_end = trajectory_horizon(cfg, params, ops, dt, columns=len(cfgs))
    trajs = integrate_block(
        ops.maximally_mixed(), [p for _, _, p in sims], ops, t_end=t_end, dt=dt,
        sample_every=cfg.sample_every, stop_at_steady=cfg.stop_at_steady, steady_tol=cfg.steady_tol,
        fixed_step=fixed_step,
    )
    return [(*sim, traj) for sim, traj in zip(sims, trajs)]


def simulate(cfg: RunConfig) -> SimulationResult:
    """Integrate from the maximally mixed state, and solve for the steady state.

    The steady state does not depend on the trajectory: Newton starts from the
    closed-form spin-temperature state, an exact fixed point (rho = rho_I (x) rho_S
    commutes with H0, and with phi = rho_I (x) 1/2 the collision and pump terms
    cancel at P = |s| R_op / (R_op + G_SD)).  A run whose samples would need more
    than ``MAX_TRAJECTORY_BYTES`` raises :class:`ConfigError` before integrating.
    """
    [(ops, rates, params, traj)] = integrate_runs([cfg])
    return SimulationResult(cfg, ops, rates, params, traj, *solve_steady_state(params, ops))


def sample_store_bytes(n_samples: int, dim: int) -> int:
    """Bytes of one run's samples: each a d x d complex state, its time and its residual norm."""
    return n_samples * (dim**2 + 1) * 16


def trajectory_horizon(
    cfg: RunConfig, params: PumpParams, ops: SpinOperatorSet, dt: float, columns: int = 1
) -> float:
    """Horizon in seconds of ``columns`` runs of ``cfg`` sampled on the grid of ``dt``.

    Raises :class:`ConfigError` when their samples, all held at once, would
    need more than ``MAX_TRAJECTORY_BYTES``.
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
        text = f"{x:g}".replace("-", "m").replace(".", "_")
        return text

    return [f"p_f{tag(f)}_m{tag(m)}" for f, m in ops.labels]


TRAJECTORY_COLUMNS = [
    "t_s", "t_norm",
    "s_vn", "sigma", "sigma_rate_per_s",
    "energy_over_a", "ergotropy_over_a", "efficiency",
    "qfi_x", "qfi_y", "qfi_z",
    "crb_x", "crb_y", "crb_z",
    "fx", "fy", "fz", "sx", "sy", "sz",
]


def _observable_block(
    rho: np.ndarray, sup: MasterSuperops, eps: np.ndarray, params: PumpParams, ops: SpinOperatorSet
) -> dict[str, np.ndarray]:
    """Observables of one (m, d, d) block from a single batched eigh."""
    d = ops.dim
    w, u = np.linalg.eigh(rho)
    u_h = u.conj().swapaxes(1, 2)
    out: dict[str, np.ndarray] = {}

    # entropy and its production (thermo.von_neumann_entropy and
    # thermo.entropy_production_rate, one row per state)
    clipped = np.clip(w, EIG_CLIP, 1.0)
    log_rho = (u * np.log(clipped)[:, None, :]) @ u_h
    p = clipped / clipped.sum(axis=1, keepdims=True)
    s_vn = -np.sum(p * np.log(p), axis=1)
    out["s_vn"] = s_vn
    out["sigma"] = float(np.log(d)) - s_vn
    # Tr(drho/dt log rho), as the dot product of real coordinates
    drho = block_rhs(to_coordinates(rho), sup)
    rate = np.einsum("ni,ni->n", drho, to_coordinates(log_rho))
    resolved = np.abs(rate) > production_rate_floor(clipped, params, ops)
    out["sigma_rate_per_s"] = np.where(resolved, rate, 0.0)

    # energy above the ground state, ergotropy and efficiency from sorted
    # spectra (thermo.ergotropy and thermo.efficiency)
    energy_raw = np.trace(rho @ ops.h0, axis1=1, axis2=2).real
    energy = energy_raw - eps[0]
    erg = np.maximum(energy_raw - w[:, ::-1] @ eps, 0.0)
    stored = np.isfinite(energy) & (energy > ENERGY_FLOOR * (eps[-1] - eps[0]))
    eff = np.zeros_like(energy)
    eff[stored] = np.clip(erg[stored] / energy[stored], 0.0, 1.0)
    scale = params.a_hfs if params.a_hfs > 0.0 else 1.0
    out["energy_over_a"] = energy / scale
    out["ergotropy_over_a"] = erg / scale
    out["efficiency"] = eff

    # QFI about each axis (metrology.quantum_fisher_information): the pair
    # weights depend on the spectrum only, one basis change per generator
    lam = np.clip(w, 0.0, None)
    li, lj = lam[:, :, None], lam[:, None, :]
    denom = li + lj
    keep = denom > PAIR_CUTOFF * np.maximum(lam.sum(axis=1), 1e-300)[:, None, None]
    weight = np.where(keep, (li - lj) ** 2 / np.where(keep, denom, 1.0), 0.0)
    for axis, g in zip("xyz", ops.f_ops):
        g_eig = u_h @ g @ u
        qfi = 2.0 * np.sum(weight * np.abs(g_eig) ** 2, axis=(1, 2))
        resolved = qfi > qfi_floor(w, g)
        out[f"qfi_{axis}"] = np.where(resolved, qfi, 0.0)
        out[f"crb_{axis}"] = np.where(resolved, 1.0 / np.sqrt(np.where(resolved, qfi, 1.0)), np.inf)

    for prefix, group in (("f", ops.f_ops), ("s", ops.s_ops)):
        for axis, g in zip("xyz", group):
            out[f"{prefix}{axis}"] = np.trace(g @ rho, axis1=1, axis2=2).real
    out["populations"] = np.clip(np.diagonal(rho, axis1=1, axis2=2).real, 0.0, None)
    return out


def stacked_observables(
    states: np.ndarray, params: PumpParams, ops: SpinOperatorSet
) -> dict[str, np.ndarray]:
    """Every per-sample observable of a stack of states, shape (n, d, d).

    Returns one array per trajectory.csv observable column (``s_vn`` through
    ``sz``), each of shape (n,), plus ``populations`` of shape (n, d).  Each
    state is diagonalized once; the superoperators and the spectrum of H0 are
    built once per call.  This pass serves trajectories, the figure series and
    steady states (a stack of one), and it applies the floors of
    :func:`~vaporspin.metrology.qfi_floor` and
    :func:`~vaporspin.thermo.production_rate_floor`: a QFI or entropy
    production rate below its floor is exactly 0, and the QFI's bound inf.
    The scalar routines in :mod:`vaporspin.thermo` and
    :mod:`vaporspin.metrology` are the reference this pass is tested against.
    """
    sup = build_superops(params, ops)
    eps = np.linalg.eigvalsh(ops.h0)
    blocks = [
        _observable_block(states[i : i + OBSERVABLE_BLOCK], sup, eps, params, ops)
        for i in range(0, len(states), OBSERVABLE_BLOCK)
    ]
    return {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}


def trajectory_table(traj: Trajectory, ops: SpinOperatorSet) -> tuple[list[str], list[list]]:
    """Per-sample observables table (header, rows) for trajectory.csv."""
    header = TRAJECTORY_COLUMNS + _population_columns(ops)
    obs = stacked_observables(traj.states, traj.params, ops)
    columns = [traj.times, traj.t_norm] + [obs[c] for c in TRAJECTORY_COLUMNS[2:]]
    table = np.column_stack(columns + [obs["populations"]])
    return header, table.tolist()


def rotation_to_pump_frame(ops: SpinOperatorSet, axis: str) -> np.ndarray:
    """Unitary taking the z quantization axis onto the pump axis.

    Populations of rho in the pump frame are diag(U^dag rho U); for a z pump
    this is the identity.
    """
    if axis == "z":
        return np.eye(ops.dim, dtype=complex)
    if axis == "x":
        generator, angle = ops.f_ops[1], 0.5 * math.pi  # rotate about y
    elif axis == "y":
        generator, angle = ops.f_ops[0], -0.5 * math.pi  # rotate about x
    else:
        raise ValueError(f"unknown axis {axis!r}")
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def off_diagonal_mass(rho: np.ndarray) -> float:
    """sum_{i != j} |rho_ij|^2 — coherence weight in the given basis."""
    return float(np.sum(np.abs(rho) ** 2) - np.sum(np.abs(np.diag(rho)) ** 2))


def steady_state_columns(
    cfg: RunConfig, ops: SpinOperatorSet, params: PumpParams, rho: np.ndarray
) -> dict[str, object]:
    """Observables of a steady state ``rho`` (the closing columns of summary.csv)."""
    frame = rotation_to_pump_frame(ops, cfg.pump_axis)
    rho_pump = frame.conj().T @ rho @ frame
    pops = np.clip(np.diag(rho_pump).real, 0.0, None)
    beta_fit, beta_resid = fit_spin_temperature(pops, ops.labels)
    obs = stacked_observables(rho[None], params, ops)
    return {
        "s_along_pump": float(obs[f"s{cfg.pump_axis}"][0]),
        "s_along_pump_predicted": 0.5 * pump_polarization(params),
        "beta_fit": beta_fit,
        "beta_fit_residual": beta_resid,
        "off_diag_mass_pump_frame": off_diagonal_mass(rho_pump),
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
        **steady_state_columns(cfg, result.ops, params, result.ness_rho),
    }


RATES_COLUMNS = [
    "radius_cm", "temperature_c", "p_he_torr", "p_n2_torr",
    "vapor_pressure_torr", "n_rb_cm3", "n_he_cm3", "n_n2_cm3",
    "v_rbrb_cm_s", "v_rbhe_cm_s", "v_rbn2_cm_s", "d_cm2_s",
    "gamma_se_per_s", "gamma_sd_rbrb_per_s", "gamma_sd_rbhe_per_s",
    "gamma_sd_rbn2_per_s", "gamma_wall_per_s", "include_wall",
    "gamma_sd_per_s", "se_to_sd_ratio",
]


def rates_row(rates: RateSet) -> list:
    cell = rates.cell
    return [
        cell.radius_cm, cell.temperature_c, cell.p_he_torr, cell.p_n2_torr,
        rates.vapor_pressure_torr, rates.n_rb_cm3, rates.n_he_cm3, rates.n_n2_cm3,
        rates.v_rbrb_cm_s, rates.v_rbhe_cm_s, rates.v_rbn2_cm_s, rates.d_cm2_s,
        rates.gamma_se, rates.gamma_sd_rbrb, rates.gamma_sd_rbhe,
        rates.gamma_sd_rbn2, rates.gamma_wall, rates.include_wall,
        rates.gamma_sd, rates.se_to_sd_ratio,
    ]


def write_rates_csv(path: Path, rates: RateSet) -> Path:
    return write_csv(path, RATES_COLUMNS, [rates_row(rates)])


def write_run(result: SimulationResult, out_dir: Path) -> dict[str, object]:
    """Write rates.csv, trajectory.csv and summary.csv; returns the summary row."""
    out_dir = Path(out_dir)
    write_rates_csv(out_dir / "rates.csv", result.rates)
    header, rows = trajectory_table(result.traj, result.ops)
    write_csv(out_dir / "trajectory.csv", header, rows)
    summary = steady_state_row(result)
    write_csv(out_dir / "summary.csv", list(summary.keys()), [list(summary.values())])
    return summary


def run_single(cfg: RunConfig, out_dir: Path) -> dict[str, object]:
    """One full run; writes rates.csv, trajectory.csv and summary.csv."""
    return write_run(simulate(cfg), out_dir)


SWEEP_STATUS_OK = "ok"
SWEEP_STATUS_NOT_CONVERGED = "not_converged"
SWEEP_STATUS_PHYSICS = "physics_violation"
SWEEP_STATUS_ERROR = "error"


def run_sweep(cfg: RunConfig, out_dir: Path) -> tuple[Path, list[str]]:
    """Run one point per sweep value; aggregate summaries into sweep.csv.

    Points are laid out in out_dir/point_NN (ordered by ascending value) and
    failures are recorded per point without aborting the rest of the sweep.
    Points sharing H0, the sample grid and the horizon go through
    :func:`integrate_runs` as blocks of at most ``MAX_TRAJECTORY_BYTES`` of
    samples; columns are independent, so each point writes what
    :func:`run_single` would.  A column that trips a guard is recorded as
    ``physics_violation`` and the rest of its block re-run.
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
            key = (ops.dim, ops.a_hfs, dt, trajectory_horizon(point, params, ops, dt))
        except Exception as exc:  # noqa: BLE001 — a sweep must report, not die
            outcomes[i] = (SWEEP_STATUS_ERROR, f"{type(exc).__name__}: {exc}", {})
            continue
        groups.setdefault(key, []).append((i, point))

    for (dim, _, dt, t_end), members in groups.items():
        _, n_samples = sampling_plan(t_end, dt, cfg.sample_every)
        size = MAX_TRAJECTORY_BYTES // sample_store_bytes(n_samples, dim)
        for start in range(0, len(members), size):
            block, runs = members[start : start + size], []
            while block:
                try:
                    runs = integrate_runs([point for _, point in block])
                    break
                except PhysicsViolationError as exc:
                    outcomes[block.pop(exc.column)[0]] = (SWEEP_STATUS_PHYSICS, str(exc), {})
                except Exception as exc:  # noqa: BLE001 — the whole block shares the failure
                    for i, _ in block:
                        outcomes[i] = (SWEEP_STATUS_ERROR, f"{type(exc).__name__}: {exc}", {})
                    block = []
            for (i, point), (ops, rates, params, traj) in zip(block, runs):
                try:
                    result = SimulationResult(point, ops, rates, params, traj, *solve_steady_state(params, ops))
                    summary = write_run(result, out_dir / f"point_{i:02d}")
                    status = SWEEP_STATUS_OK if summary["ness_converged"] else SWEEP_STATUS_NOT_CONVERGED
                    outcomes[i] = (status, "", summary)
                except Exception as exc:  # noqa: BLE001
                    outcomes[i] = (SWEEP_STATUS_ERROR, f"{type(exc).__name__}: {exc}", {})

    first_summary = next((summary for *_, summary in outcomes if summary), {})
    summary_cols = [c for c in first_summary if c != cfg.sweep_variable]
    header = [cfg.sweep_variable, "status", "error"] + summary_cols
    rows = []
    statuses = []
    for value, (status, message, summary) in zip(values, outcomes):
        statuses.append(status)
        rows.append([value, status, message] + [summary.get(c, "") for c in summary_cols])
    path = write_csv(out_dir / "sweep.csv", header, rows)
    return path, statuses
