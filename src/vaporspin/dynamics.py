"""Master equation for an optically pumped, collisionally relaxed alkali spin.

The state evolves under

    drho/dt = -i[H0, rho]
              + (R_op + G_SE + G_SD) * (phi - rho)
              + sum_k (R_op*s_k + 2*G_SE*<S_k>) * {phi, S_k}

where ``phi = rho/4 + sum_k S_k rho S_k`` is the electron-depolarized part of
the state, s is the photon spin vector of the pump light, and <S_k> is
recomputed from rho at every evaluation (mean-field spin-exchange term).  The
anticommutator form is the Hermitian symmetrization of the operator products
``phi*(1 + 2 s.S)`` and ``phi*(1 + 4<S>.S)``.

Two equivalent evaluation routes are provided: a readable matrix form
(:func:`master_rhs`) and a vectorized superoperator form used by the
fixed-step RK4 integrator (:func:`integrate`).  Steady states can be
detected along a trajectory or solved for directly with a Newton iteration
(:func:`solve_steady_state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spin_algebra import SpinOperatorSet

__all__ = [
    "PumpParams",
    "PhysicsViolationError",
    "Trajectory",
    "SteadyStateInfo",
    "nuclear_part",
    "master_rhs",
    "build_superops",
    "rhs_block",
    "default_dt",
    "sampling_plan",
    "integrate",
    "detect_steady_state",
    "spin_temperature_state",
    "fit_spin_temperature",
    "solve_steady_state",
]

# integration guardrails (states are checked at every sample)
TRACE_TOL = 1e-6
EIGENVALUE_FLOOR = -1e-6


class PhysicsViolationError(RuntimeError):
    """A trajectory left the physical state space (trace or positivity)."""

    def __init__(self, message: str, step: int, t: float):
        super().__init__(f"{message} at step {step} (t = {t:.6e} s)")
        self.step = step
        self.t = t


@dataclass(frozen=True)
class PumpParams:
    """Rates and pump geometry for one run.

    All rates are angular rates in 1/s (hbar = 1).  ``s`` is the photon spin
    vector; its magnitude is the degree of circular polarization (|s| <= 1).
    """

    r_op: float
    s: tuple[float, float, float]
    gamma_se: float
    gamma_sd: float
    a_hfs: float

    def __post_init__(self):
        for name in ("r_op", "gamma_se", "gamma_sd", "a_hfs"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite non-negative rate, got {value}")
            object.__setattr__(self, name, value)
        s = np.asarray(self.s, dtype=float)
        if s.shape != (3,):
            raise ValueError(f"s must be a 3-vector, got shape {s.shape}")
        if np.linalg.norm(s) > 1.0 + 1e-9:
            raise ValueError(f"photon spin magnitude must be <= 1, got {np.linalg.norm(s)}")
        object.__setattr__(self, "s", tuple(float(x) for x in s))

    @property
    def s_vec(self) -> np.ndarray:
        return np.asarray(self.s, dtype=float)

    @property
    def t_se(self) -> float:
        """Spin-exchange time 1/G_SE, the natural time unit of a run."""
        return 1.0 / self.gamma_se if self.gamma_se > 0.0 else math.inf


def nuclear_part(rho: np.ndarray, ops: SpinOperatorSet) -> np.ndarray:
    """phi = rho/4 + sum_k S_k rho S_k (strips the electron polarization).

    Tr[S_k phi(rho)] = 0 for every rho, which is what makes phi the
    "electron-reset" target of the collisional terms.
    """
    sx, sy, sz = ops.s_ops
    return rho / 4.0 + sx @ rho @ sx + sy @ rho @ sy + sz @ rho @ sz


def master_rhs(rho: np.ndarray, params: PumpParams, ops: SpinOperatorSet) -> np.ndarray:
    """Readable matrix-form evaluation of drho/dt."""
    phi = nuclear_part(rho, ops)
    h0 = ops.h0
    out = -1j * (h0 @ rho - rho @ h0)
    out = out + (params.r_op + params.gamma_se + params.gamma_sd) * (phi - rho)
    for k in range(3):
        sk = ops.s_ops[k]
        coeff = params.r_op * params.s[k] + 2.0 * params.gamma_se * np.trace(sk @ rho).real
        if coeff != 0.0:
            out = out + coeff * (phi @ sk + sk @ phi)
    return out


@dataclass
class MasterSuperops:
    """Vectorized (row-major vec) form of the equation of motion.

    drho/dt = lin @ v + two_gamma_se * sum_k Re(tr_rows[k] @ v) * (g[k] @ v)
    with g stacked into one (3*dim^2, dim^2) matrix for BLAS-friendly calls.
    """

    dim: int
    lin: np.ndarray = field(repr=False)
    gstack: np.ndarray = field(repr=False)
    tr_rows: np.ndarray = field(repr=False)
    two_gamma_se: float = 0.0
    gamma_se: float = 0.0


def build_superops(params: PumpParams, ops: SpinOperatorSet) -> MasterSuperops:
    d = ops.dim
    eye = np.eye(d, dtype=complex)

    def lmul(x):  # vec(X rho)
        return np.kron(x, eye)

    def rmul(x):  # vec(rho X)
        return np.kron(eye, x.T)

    phi_map = 0.25 * np.eye(d * d, dtype=complex)
    for sk in ops.s_ops:
        phi_map += np.kron(sk, sk.T)

    g = np.stack([(lmul(sk) + rmul(sk)) @ phi_map for sk in ops.s_ops])
    lin = -1j * (lmul(ops.h0) - rmul(ops.h0))
    lin += (params.r_op + params.gamma_se + params.gamma_sd) * (phi_map - np.eye(d * d))
    for k in range(3):
        if params.s[k] != 0.0:
            lin += (params.r_op * params.s[k]) * g[k]
    tr_rows = np.stack([sk.T.reshape(-1) for sk in ops.s_ops])
    return MasterSuperops(
        dim=d,
        lin=np.ascontiguousarray(lin),
        gstack=np.ascontiguousarray(g.reshape(3 * d * d, d * d)),
        tr_rows=np.ascontiguousarray(tr_rows),
        two_gamma_se=2.0 * params.gamma_se,
        gamma_se=params.gamma_se,
    )


def _rhs_vec(v: np.ndarray, sup: MasterSuperops) -> np.ndarray:
    out = sup.lin @ v
    if sup.two_gamma_se != 0.0:
        sv = (sup.tr_rows @ v).real
        gv = (sup.gstack @ v).reshape(3, -1)
        out += sup.two_gamma_se * (sv @ gv)
    return out


def rhs_block(states: np.ndarray, sup: MasterSuperops) -> np.ndarray:
    """drho/dt for a stack of states, shape (n, dim, dim) in and out."""
    n, d = len(states), sup.dim
    v = states.reshape(n, d * d)
    out = v @ sup.lin.T
    if sup.two_gamma_se != 0.0:
        sv = (v @ sup.tr_rows.T).real
        gv = (v @ sup.gstack.T).reshape(n, 3, d * d)
        out += sup.two_gamma_se * np.einsum("nk,nki->ni", sv, gv)
    return out.reshape(n, d, d)


def default_dt(params: PumpParams, steps_per_rate: float = 50.0) -> float:
    """Fixed RK4 step: 1/(steps_per_rate * fastest rate in the problem)."""
    fastest = max(params.a_hfs, params.r_op, params.gamma_se, params.gamma_sd)
    if fastest <= 0.0:
        raise ValueError("all rates are zero; no intrinsic time scale to step with")
    return 1.0 / (steps_per_rate * fastest)


def sampling_plan(t_end: float, dt: float, sample_every: int) -> tuple[int, int]:
    """RK4 steps and stored samples of :func:`integrate` over ``t_end``."""
    n_steps = max(1, math.ceil(t_end / dt - 1e-9))
    return n_steps, n_steps // sample_every + 1 + (1 if n_steps % sample_every else 0)


@dataclass
class Trajectory:
    """Sampled solution of one integration run."""

    times: np.ndarray  # (n,) seconds
    states: np.ndarray  # (n, dim, dim)
    rhs_norms: np.ndarray  # (n,) Frobenius norm of drho/dt at each sample
    params: PumpParams
    dt: float
    reached_steady: bool
    steady_index: int | None
    max_trace_drift: float
    max_herm_defect: float
    min_eigenvalue: float

    @property
    def t_se(self) -> float:
        return self.params.t_se

    @property
    def t_norm(self) -> np.ndarray:
        """Times in units of the spin-exchange time."""
        return self.times / self.t_se

    def __len__(self) -> int:
        return len(self.times)


def _validate_state(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state must be ({dim}, {dim}), got {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError(f"state trace must be 1, got {np.trace(rho)}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("state must be Hermitian")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError("state must be positive semidefinite")
    return rho


def integrate(
    rho0: np.ndarray,
    params: PumpParams,
    ops: SpinOperatorSet,
    t_end: float,
    dt: float | None = None,
    sample_every: int = 10,
    *,
    stop_at_steady: bool = False,
    steady_tol: float = 1e-7,
) -> Trajectory:
    """Propagate rho0 with classical fixed-step RK4 and sample along the way.

    Samples are taken every ``sample_every`` steps (plus the final step).  At
    each sample the state is checked: trace drift beyond 1e-6 or an
    eigenvalue below -1e-6 raises :class:`PhysicsViolationError` (no silent
    projection back to the physical cone).  ``steady_tol`` is measured in
    units of G_SE: a sample with ||drho/dt||_F < steady_tol * G_SE marks the
    trajectory as steady, and with ``stop_at_steady`` integration ends there.
    """
    if dt is None:
        dt = default_dt(params)
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    d = ops.dim
    rho0 = _validate_state(rho0, d)

    n_steps, n_samples = sampling_plan(t_end, dt, sample_every)
    sup = build_superops(params, ops)
    steady_threshold = steady_tol * params.gamma_se

    times = np.empty(n_samples)
    samples = np.empty((n_samples, d * d), dtype=complex)
    rhs_norms = np.empty(n_samples)

    v = rho0.reshape(-1).copy()
    diag_idx = np.arange(d) * (d + 1)
    si = 0
    reached = False
    steady_index: int | None = None
    max_trace_drift = 0.0
    max_herm_defect = 0.0
    min_eig = np.inf
    for step in range(n_steps + 1):
        k1 = None
        if step % sample_every == 0 or step == n_steps:
            if not np.all(np.isfinite(v.view(np.float64))):
                raise PhysicsViolationError("state became non-finite", step, step * dt)
            k1 = _rhs_vec(v, sup)
            times[si] = step * dt
            samples[si] = v
            rhs_norms[si] = np.linalg.norm(k1)
            rho = v.reshape(d, d)
            trace_drift = abs(v[diag_idx].sum().real - 1.0)
            if trace_drift > TRACE_TOL:
                raise PhysicsViolationError("trace drift exceeded 1e-6", step, step * dt)
            herm_defect = np.max(np.abs(rho - rho.conj().T))
            eig_min = np.linalg.eigvalsh(rho).min()
            max_trace_drift = max(max_trace_drift, trace_drift)
            max_herm_defect = max(max_herm_defect, herm_defect)
            min_eig = min(min_eig, eig_min)
            if eig_min < EIGENVALUE_FLOOR:
                raise PhysicsViolationError(
                    f"eigenvalue {eig_min:.3e} below -1e-6", step, step * dt
                )
            if not reached and rhs_norms[si] < steady_threshold:
                reached = True
                steady_index = si
            si += 1
            if step == n_steps or (reached and stop_at_steady):
                break
        if k1 is None:
            k1 = _rhs_vec(v, sup)
        k2 = _rhs_vec(v + (0.5 * dt) * k1, sup)
        k3 = _rhs_vec(v + (0.5 * dt) * k2, sup)
        k4 = _rhs_vec(v + dt * k3, sup)
        v = v + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    return Trajectory(
        times=times[:si],
        states=samples[:si].reshape(si, d, d),
        rhs_norms=rhs_norms[:si],
        params=params,
        dt=dt,
        reached_steady=reached,
        steady_index=steady_index,
        max_trace_drift=max_trace_drift,
        max_herm_defect=max_herm_defect,
        min_eigenvalue=float(min_eig),
    )


def detect_steady_state(traj: Trajectory, tol: float) -> tuple[bool, int | None]:
    """First sample where ||drho/dt||_F < tol * G_SE, if any."""
    threshold = tol * traj.params.gamma_se
    hits = np.nonzero(traj.rhs_norms < threshold)[0]
    if hits.size == 0:
        return False, None
    return True, int(hits[0])


def spin_temperature_state(
    beta: float, ops: SpinOperatorSet, axis: np.ndarray | None = None
) -> np.ndarray:
    """Spin-temperature state rho ~ exp(beta * n.F).

    With ``axis=None`` (the z axis) the state is diagonal in the coupled
    basis with populations proportional to exp(beta * m_F).
    """
    if axis is None:
        m = np.array([mf for _, mf in ops.labels])
        w = np.exp(beta * (m - m.max()))
        return np.diag(w / w.sum()).astype(complex)
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise ValueError("axis must be a nonzero vector")
    n = n / norm
    gen = n[0] * ops.f_ops[0] + n[1] * ops.f_ops[1] + n[2] * ops.f_ops[2]
    w, u = np.linalg.eigh(gen)
    p = np.exp(beta * (w - w.max()))
    p /= p.sum()
    return (u * p) @ u.conj().T


def fit_spin_temperature(
    populations: np.ndarray, labels: tuple[tuple[float, float], ...]
) -> tuple[float, float]:
    """Fit populations to p(F, m_F) ~ exp(beta*m_F) with one shared norm.

    Linear least squares of ln p against m_F across both hyperfine
    manifolds.  Returns (beta, max relative population residual).
    """
    p = np.clip(np.asarray(populations, dtype=float), 1e-300, None)
    m = np.array([mf for _, mf in labels])
    design = np.stack([m, np.ones_like(m)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.log(p), rcond=None)
    fitted = np.exp(design @ coef)
    residual = float(np.max(np.abs(fitted - p) / p))
    return float(coef[0]), residual


@dataclass
class SteadyStateInfo:
    converged: bool
    residual: float  # ||drho/dt||_F at the solution
    iterations: int


def _spin_temperature_guess(params: PumpParams, ops: SpinOperatorSet) -> np.ndarray:
    smag = float(np.linalg.norm(params.s_vec))
    denom = params.r_op + params.gamma_sd
    pol = smag * params.r_op / denom if denom > 0.0 else 0.0
    pol = min(pol, 1.0 - 1e-9)
    if pol <= 0.0 or smag == 0.0:
        return ops.maximally_mixed()
    beta = math.log((1.0 + pol) / (1.0 - pol))
    return spin_temperature_state(beta, ops, axis=params.s_vec / smag)


def solve_steady_state(
    params: PumpParams,
    ops: SpinOperatorSet,
    seed: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 80,
) -> tuple[np.ndarray, SteadyStateInfo]:
    """Newton solve of drho/dt = 0 with the trace pinned to 1.

    ``tol`` is relative to the fastest collisional/pumping rate.  The seed
    defaults to a spin-temperature ansatz along the pump axis, which is close
    to the true fixed point whenever spin exchange dominates, so convergence
    is quadratic and takes a handful of iterations.
    """
    d = ops.dim
    sup = build_superops(params, ops)
    scale = max(params.gamma_se, params.r_op, params.gamma_sd)
    if scale <= 0.0:
        rho = ops.maximally_mixed() if seed is None else _validate_state(seed, d)
        return rho, SteadyStateInfo(converged=True, residual=0.0, iterations=0)

    if seed is None:
        seed = _spin_temperature_guess(params, ops)
    v = np.asarray(seed, dtype=complex).reshape(-1).copy()
    tr_row = np.eye(d, dtype=complex).reshape(-1)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        f = _rhs_vec(v, sup)
        residual = float(np.linalg.norm(f))
        if residual < tol * scale:
            break
        jac = sup.lin.copy()
        if sup.two_gamma_se != 0.0:
            sv = (sup.tr_rows @ v).real
            gv = (sup.gstack @ v).reshape(3, -1)
            for k in range(3):
                jac += sup.two_gamma_se * sv[k] * sup.gstack[k * d * d : (k + 1) * d * d]
                jac += sup.two_gamma_se * np.outer(gv[k], sup.tr_rows[k])
        system = np.vstack([jac, tr_row])
        target = np.concatenate([-f, [1.0 - tr_row @ v]])
        delta, *_ = np.linalg.lstsq(system, target, rcond=None)
        v = v + delta
        rho = v.reshape(d, d)
        v = (0.5 * (rho + rho.conj().T)).reshape(-1)

    rho = v.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    converged = bool(residual < tol * scale and np.linalg.eigvalsh(rho).min() > -1e-9)
    return rho, SteadyStateInfo(converged=converged, residual=residual, iterations=iterations)
