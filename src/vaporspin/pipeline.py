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
from concurrent.futures import ProcessPoolExecutor
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
    integrate,
    sampling_plan,
    solve_steady_state,
)
from .metrology import PAIR_CUTOFF, QFI_FLOOR, cramer_rao_bound, quantum_fisher_information
from .spin_algebra import SpinOperatorSet, build_coupled_operators
from .thermo import EIG_CLIP, ENERGY_FLOOR, thermo_sample

__all__ = [
    "SimulationResult",
    "build_cell",
    "build_simulation",
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
    "fan_out",
    "format_value",
]

AXIS_UNIT = {"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0]), "z": np.array([0.0, 0.0, 1.0])}

# states per batched eigendecomposition in stacked_observables; a fixed block
# keeps the pass's scratch memory independent of the trajectory length
OBSERVABLE_BLOCK = 64

# largest sample store simulate lets integrate preallocate; the built-in
# defaults need 78 MB, t_end_over_t_se = 1e5 would need 52 GB
MAX_TRAJECTORY_BYTES = 2**30


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
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
    s_vec = cfg.s_magnitude * AXIS_UNIT[cfg.pump_axis]
    params = PumpParams(
        r_op=cfg.r_op_over_gamma_se * rates.gamma_se,
        s=tuple(s_vec),
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


def simulate(cfg: RunConfig, *, dt: float | None = None) -> SimulationResult:
    """Integrate from the maximally mixed state, then polish the steady state.

    The Newton polish is seeded with the trajectory endpoint, so it converges
    in a few iterations and gives steady-state observables at solver precision
    regardless of how long the time integration ran.  ``dt`` overrides the step
    set by ``cfg.dt_steps_per_rate``.  A run whose samples would need more than
    ``MAX_TRAJECTORY_BYTES`` raises :class:`ConfigError` before integrating.
    """
    ops, rates, params = build_simulation(cfg)
    if dt is None:
        dt = default_dt(params, steps_per_rate=cfg.dt_steps_per_rate)
    t_end = trajectory_horizon(cfg, params, ops, dt)
    traj = integrate(
        ops.maximally_mixed(),
        params,
        ops,
        t_end=t_end,
        dt=dt,
        sample_every=cfg.sample_every,
        stop_at_steady=cfg.stop_at_steady,
        steady_tol=cfg.steady_tol,
    )
    ness_rho, ness_info = solve_steady_state(params, ops, seed=traj.states[-1])
    return SimulationResult(
        config=cfg, ops=ops, rates=rates, params=params,
        traj=traj, ness_rho=ness_rho, ness_info=ness_info,
    )


def trajectory_horizon(
    cfg: RunConfig, params: PumpParams, ops: SpinOperatorSet, dt: float, columns: int = 1
) -> float:
    """Horizon in seconds of ``columns`` runs of ``cfg`` stepped at ``dt``.

    Raises :class:`ConfigError` when their samples, all held at once, would
    need more than ``MAX_TRAJECTORY_BYTES``.
    """
    t_end = cfg.t_end_over_t_se * params.t_se
    _, n_samples = sampling_plan(t_end, dt, cfg.sample_every)
    # each sample stores a d x d complex state, its time and its residual norm
    n_bytes = columns * n_samples * (ops.dim**2 + 1) * 16
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
    rho: np.ndarray, sup: MasterSuperops, eps: np.ndarray, scale: float, ops: SpinOperatorSet
) -> dict[str, np.ndarray]:
    """Observables of one (m, d, d) block from a single batched eigh."""
    d = ops.dim
    w, u = np.linalg.eigh(rho)
    u_h = u.conj().swapaxes(1, 2)
    out: dict[str, np.ndarray] = {}

    # entropy and its production (thermo.von_neumann_entropy and
    # thermo.entropy_production_rate, one row per state)
    p = np.clip(w, EIG_CLIP, 1.0)
    log_rho = (u * np.log(p)[:, None, :]) @ u_h
    p = p / p.sum(axis=1, keepdims=True)
    s_vn = -np.sum(p * np.log(p), axis=1)
    out["s_vn"] = s_vn
    out["sigma"] = float(np.log(d)) - s_vn
    drho = block_rhs(rho.reshape(len(rho), d * d), sup).reshape(rho.shape)
    out["sigma_rate_per_s"] = np.einsum("nij,nji->n", drho, log_rho).real

    # energy above the ground state, ergotropy and efficiency from sorted
    # spectra (thermo.ergotropy and thermo.efficiency)
    energy_raw = np.trace(rho @ ops.h0, axis1=1, axis2=2).real
    energy = energy_raw - eps[0]
    erg = np.maximum(energy_raw - w[:, ::-1] @ eps, 0.0)
    stored = np.isfinite(energy) & (energy > ENERGY_FLOOR * (eps[-1] - eps[0]))
    eff = np.zeros_like(energy)
    eff[stored] = np.clip(erg[stored] / energy[stored], 0.0, 1.0)
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
        out[f"qfi_{axis}"] = qfi
        out[f"crb_{axis}"] = np.where(
            qfi > QFI_FLOOR, 1.0 / np.sqrt(np.maximum(qfi, QFI_FLOOR)), np.inf
        )

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
    built once per call.  The scalar routines in :mod:`vaporspin.thermo` and
    :mod:`vaporspin.metrology` are the reference this pass is tested against.
    """
    sup = build_superops(params, ops)
    eps = np.linalg.eigvalsh(ops.h0)
    scale = params.a_hfs if params.a_hfs > 0.0 else 1.0
    blocks = [
        _observable_block(states[i : i + OBSERVABLE_BLOCK], sup, eps, scale, ops)
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

    n_axis = AXIS_UNIT[cfg.pump_axis]
    s_along = float(np.trace((n_axis[0] * ops.s_ops[0] + n_axis[1] * ops.s_ops[1] + n_axis[2] * ops.s_ops[2]) @ rho).real)
    denom = params.r_op + params.gamma_sd
    s_pred = 0.5 * cfg.s_magnitude * params.r_op / denom if denom > 0.0 else 0.0

    th = thermo_sample(rho, params, ops)
    qfi = [quantum_fisher_information(rho, g) for g in ops.f_ops]
    return {
        "s_along_pump": s_along,
        "s_along_pump_predicted": s_pred,
        "beta_fit": beta_fit,
        "beta_fit_residual": beta_resid,
        "off_diag_mass_pump_frame": off_diagonal_mass(rho_pump),
        "s_vn": th.s_vn,
        "sigma": th.sigma,
        "sigma_rate_per_s": th.sigma_rate,
        "energy_over_a": th.energy,
        "ergotropy_over_a": th.ergotropy,
        "efficiency": th.efficiency,
        "qfi_x": qfi[0],
        "qfi_y": qfi[1],
        "qfi_z": qfi[2],
        "crb_x": cramer_rao_bound(qfi[0]),
        "crb_y": cramer_rao_bound(qfi[1]),
        "crb_z": cramer_rao_bound(qfi[2]),
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


def run_single(cfg: RunConfig, out_dir: Path) -> dict[str, object]:
    """One full run; writes rates.csv, trajectory.csv and summary.csv."""
    result = simulate(cfg)
    out_dir = Path(out_dir)
    write_rates_csv(out_dir / "rates.csv", result.rates)
    header, rows = trajectory_table(result.traj, result.ops)
    write_csv(out_dir / "trajectory.csv", header, rows)
    summary = steady_state_row(result)
    write_csv(out_dir / "summary.csv", list(summary.keys()), [list(summary.values())])
    return summary


SWEEP_STATUS_OK = "ok"
SWEEP_STATUS_NOT_CONVERGED = "not_converged"
SWEEP_STATUS_PHYSICS = "physics_violation"
SWEEP_STATUS_ERROR = "error"


def _sweep_point(args: tuple[RunConfig, str, float, Path]) -> tuple[float, str, str, dict]:
    base, variable, value, point_dir = args
    cfg = dataclasses.replace(base, sweep_variable="", sweep_values=(), **{variable: value})
    try:
        summary = run_single(cfg, point_dir)
        status = SWEEP_STATUS_OK if summary["ness_converged"] else SWEEP_STATUS_NOT_CONVERGED
        return value, status, "", summary
    except PhysicsViolationError as exc:
        return value, SWEEP_STATUS_PHYSICS, str(exc), {}
    except Exception as exc:  # noqa: BLE001 — a sweep must report, not die
        return value, SWEEP_STATUS_ERROR, f"{type(exc).__name__}: {exc}", {}


def fan_out(fn, items: list, jobs: int = 1) -> list:
    """``[fn(x) for x in items]``, in ``jobs`` worker processes when ``jobs > 1``.

    ``fn`` is pickled: a module-level function or a ``functools.partial`` of one.
    """
    if jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def run_sweep(cfg: RunConfig, out_dir: Path, jobs: int = 1) -> tuple[Path, list[str]]:
    """Run one point per sweep value; aggregate summaries into sweep.csv.

    Points are laid out in out_dir/point_NN (ordered by ascending value) and
    failures are recorded per point without aborting the rest of the sweep.
    Returns the aggregate path and the list of per-point statuses.
    """
    if not cfg.sweep_variable:
        raise ConfigError("sweep requires sweep_variable and sweep_values in the config")
    out_dir = Path(out_dir)
    values = sorted(cfg.sweep_values)
    tasks = [
        (cfg, cfg.sweep_variable, value, out_dir / f"point_{i:02d}")
        for i, value in enumerate(values)
    ]
    outcomes = fan_out(_sweep_point, tasks, jobs)

    first_summary = next((o[3] for o in outcomes if o[3]), {})
    summary_cols = [c for c in first_summary if c != cfg.sweep_variable]
    header = [cfg.sweep_variable, "status", "error"] + summary_cols
    rows = []
    statuses = []
    for value, status, message, summary in outcomes:
        statuses.append(status)
        rows.append([value, status, message] + [summary.get(c, "") for c in summary_cols])
    path = write_csv(out_dir / "sweep.csv", header, rows)
    return path, statuses
