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
(:func:`master_rhs`, the oracle) and an exact low-rank form over a block of
states (:func:`block_rhs`), used by the fixed-step RK4 integrator
(:func:`integrate_block`, :func:`integrate`), the Newton solve and the
entropy production rate.  Steady states can be detected along a trajectory
or solved for directly with a Newton iteration (:func:`solve_steady_state`).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .spin_algebra import SpinOperatorSet, build_spin_matrices

__all__ = [
    "PumpParams",
    "PhysicsViolationError",
    "Trajectory",
    "SteadyStateInfo",
    "nuclear_part",
    "master_rhs",
    "build_superops",
    "block_rhs",
    "default_dt",
    "sampling_plan",
    "integrate",
    "integrate_block",
    "detect_steady_state",
    "spin_temperature_state",
    "fit_spin_temperature",
    "solve_steady_state",
]

# integration guardrails (states are checked at every sample)
TRACE_TOL = 1e-6
EIGENVALUE_FLOOR = -1e-6


class PhysicsViolationError(RuntimeError):
    """A trajectory left the physical state space (trace or positivity).

    ``column`` is the offending column of an :func:`integrate_block` block.
    """

    def __init__(self, reason: str, step: int, t: float, column: int = 0):
        super().__init__(f"{reason} at step {step} (t = {t:.6e} s)")
        self.reason = reason
        self.step = step
        self.t = t
        self.column = int(column)

    def __reduce__(self):  # pickled across fan_out's worker processes
        return type(self), (self.reason, self.step, self.t, self.column)


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


@dataclass(frozen=True)
class MasterSuperops:
    """Exact low-rank form of the equation of motion for a block of B columns.

    The electron-depolarized part is phi = Tr_S(rho) (x) 1/2 (Appelt et al.,
    PRA 58, 1412 (1998)), so in row-major vec form, with n = Tr_S(rho) taken in
    the uncoupled |m_I> x |m_S> basis (m^2 entries, m = dim/2; rank 16 for
    I = 3/2),

        f(v) = (omega - c) * v + c K_0 n + sum_k alpha_k K_k n,
        c = R_op + G_SE + G_SD,  alpha_k = R_op s_k + 2 G_SE <S_k>,

    where K_0 n = vec(n (x) 1/2) and K_k n = vec(n (x) S_k), both mapped back to
    the coupled basis, and omega is the diagonal of -i[H0, .] (H0 is diagonal
    in |F, m_F>).  Column b's scalars live in ``diag[b]``, ``two_gamma_se[b]``
    and the first m^2 rows of ``expand[b]``, which hold the constant part
    c K_0 + sum_k R_op s_k K_k.
    """

    reduce: np.ndarray = field(repr=False)  # (d^2, m^2 + 3): v @ reduce = (n, Tr S_k rho)
    expand: np.ndarray = field(repr=False)  # (B, 4 m^2, d^2): (c K_0 + R_op s.K)^T, K_x^T, K_y^T, K_z^T
    diag: np.ndarray = field(repr=False)  # (B, d^2): omega - c
    two_gamma_se: np.ndarray = field(repr=False)  # (B, 1, 1)

    def take(self, columns: np.ndarray) -> MasterSuperops:
        """The columns selected by an index or boolean array."""
        return dataclasses.replace(
            self,
            expand=self.expand[columns],
            diag=self.diag[columns],
            two_gamma_se=self.two_gamma_se[columns],
        )


def build_superops(
    params: PumpParams | Sequence[PumpParams], ops: SpinOperatorSet
) -> MasterSuperops:
    """Low-rank factors for one parameter set, or one column per set of a sequence."""
    params_seq = [params] if isinstance(params, PumpParams) else list(params)
    # w[s] = U (1 (x) |m_S = s>): coupled images of the uncoupled states with
    # electron projection s, so Tr_S(U^dag rho U) = sum_s w[s]^dag rho w[s]
    w = [ops.u[:, s::2] for s in range(2)]
    partial_trace = sum(np.kron(ws.conj().T, ws.T) for ws in w)
    pairs = {(s, t): np.kron(w[s], w[t].conj()) for s in range(2) for t in range(2)}

    def embed(m: np.ndarray) -> np.ndarray:  # vec(n) -> vec(U (n (x) m) U^dag)
        return sum(m[s, t] * pair for (s, t), pair in pairs.items())

    k_0 = embed(0.5 * np.eye(2))
    k_spin = [embed(m) for m in build_spin_matrices(0.5)]
    tr_rows = ops.s_ops.transpose(0, 2, 1).reshape(3, -1)
    energy = ops.h0.diagonal().real
    omega = (-1j * (energy[:, None] - energy[None, :])).reshape(-1)
    spin_rows = np.vstack([k.T for k in k_spin])
    expand, diag = [], []
    for p in params_seq:
        decay = p.r_op + p.gamma_se + p.gamma_sd
        constant = decay * k_0
        for k in range(3):
            constant = constant + (p.r_op * p.s[k]) * k_spin[k]
        expand.append(np.vstack([constant.T, spin_rows]))
        diag.append(omega - decay)
    return MasterSuperops(
        reduce=np.ascontiguousarray(np.vstack([partial_trace, tr_rows]).T),
        expand=np.stack(expand),
        diag=np.stack(diag),
        two_gamma_se=np.array([2.0 * p.gamma_se for p in params_seq]).reshape(-1, 1, 1),
    )


def block_rhs(v: np.ndarray, sup: MasterSuperops) -> np.ndarray:
    """drho/dt for a (B, d^2) block of vec'd states; column b uses scalars b.

    Both products are stacked matmuls on (B, 1, .) operands, one BLAS call per
    column, so a column's result does not depend on the block it sits in.  A
    one-column ``sup`` applies to every row of ``v``.
    """
    m2 = sup.reduce.shape[1] - 3
    r = np.matmul(v[:, None, :], sup.reduce)
    n = r[:, :, :m2]
    spin_n = (sup.two_gamma_se * r[:, :, m2:].real).swapaxes(1, 2) * n  # 2 G_SE <S_k> n
    w = np.concatenate([n, spin_n.reshape(len(v), 1, -1)], axis=2)
    out = np.matmul(w, sup.expand)[:, 0]
    out += sup.diag * v
    return out


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
    This is :func:`integrate_block` with one column.
    """
    return integrate_block(
        rho0, [params], ops, t_end, dt, sample_every,
        stop_at_steady=stop_at_steady, steady_tol=steady_tol,
    )[0]


def integrate_block(
    rho0: np.ndarray,
    params_seq: Sequence[PumpParams],
    ops: SpinOperatorSet,
    t_end: float,
    dt: float | None = None,
    sample_every: int = 10,
    *,
    stop_at_steady: bool = False,
    steady_tol: float = 1e-7,
) -> list[Trajectory]:
    """:func:`integrate` for B parameter sets at once, one column each.

    Every column starts from ``rho0`` and steps on the same grid; ``dt``
    defaults to the smallest :func:`default_dt` of the block.  Each column
    keeps its own guards, steady index and, under ``stop_at_steady``, its own
    stop, so each returned trajectory equals the standalone run of its
    parameters bit for bit.  A guard failure raises
    :class:`PhysicsViolationError` with ``column`` set to the offending index.
    """
    params_seq = list(params_seq)
    if dt is None:
        dt = min(default_dt(p) for p in params_seq)
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    d = ops.dim
    rho0 = _validate_state(rho0, d)

    b = len(params_seq)
    n_steps, n_samples = sampling_plan(t_end, dt, sample_every)
    sup = build_superops(params_seq, ops)

    times = np.empty(n_samples)
    samples = np.empty((b, n_samples, d * d), dtype=complex)
    rhs_norms = np.empty((b, n_samples))
    # per live column: steady threshold and index, guard margins so far
    live = np.arange(b)
    threshold = np.array([steady_tol * p.gamma_se for p in params_seq])
    steady = np.full(b, -1)
    drift_max, herm_max, eig_low = np.zeros(b), np.zeros(b), np.full(b, np.inf)
    finished: dict[int, tuple] = {}  # column -> (samples kept, steady, margins)

    def finish(mask: np.ndarray) -> None:
        for j in np.flatnonzero(mask):
            finished[int(live[j])] = (si, int(steady[j]), drift_max[j], herm_max[j], eig_low[j])

    v = np.tile(rho0.reshape(-1), (b, 1))
    diag_idx = np.arange(d) * (d + 1)
    ones = np.ones((d, 1))
    si = 0
    for step in range(n_steps + 1):
        k1 = None
        if step % sample_every == 0 or step == n_steps:
            t = step * dt
            if not np.isfinite(v.view(np.float64)).all():
                finite = np.isfinite(v.view(np.float64)).all(axis=1)
                raise PhysicsViolationError("state became non-finite", step, t, live[np.argmin(finite)])
            k1 = block_rhs(v, sup)
            rho = v.reshape(-1, d, d)
            # a stacked matmul sums each column's diagonal in the same order
            # whatever the block size; a reduction along axis 1 does not
            trace_drift = np.abs(np.matmul(v[:, None, diag_idx].real, ones)[:, 0, 0] - 1.0)
            herm_defect = np.abs(rho - rho.conj().swapaxes(1, 2)).max(axis=(1, 2))
            eig_min = np.linalg.eigvalsh(rho).min(axis=1)
            if trace_drift.max() > TRACE_TOL or eig_min.min() < EIGENVALUE_FLOOR:
                j = np.argmax((trace_drift > TRACE_TOL) | (eig_min < EIGENVALUE_FLOOR))
                reason = ("trace drift exceeded 1e-6" if trace_drift[j] > TRACE_TOL
                          else f"eigenvalue {eig_min[j]:.3e} below -1e-6")
                raise PhysicsViolationError(reason, step, t, live[j])
            norms = np.linalg.norm(k1, axis=1)
            times[si] = t
            samples[live, si] = v
            rhs_norms[live, si] = norms
            np.maximum(drift_max, trace_drift, out=drift_max)
            np.maximum(herm_max, herm_defect, out=herm_max)
            np.minimum(eig_low, eig_min, out=eig_low)
            fresh = (steady < 0) & (norms < threshold)
            steady[fresh] = si
            si += 1
            if step == n_steps:
                break
            if stop_at_steady and fresh.any():
                finish(fresh)
                keep = ~fresh
                live, v, k1, sup = live[keep], v[keep], k1[keep], sup.take(keep)
                threshold, steady = threshold[keep], steady[keep]
                drift_max, herm_max, eig_low = drift_max[keep], herm_max[keep], eig_low[keep]
                if not live.size:
                    break
        if k1 is None:
            k1 = block_rhs(v, sup)
        k2 = block_rhs(v + (0.5 * dt) * k1, sup)
        k3 = block_rhs(v + (0.5 * dt) * k2, sup)
        k4 = block_rhs(v + dt * k3, sup)
        v = v + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    finish(np.ones(live.size, dtype=bool))

    trajectories = []
    for j, p in enumerate(params_seq):
        kept, steady_index, max_trace_drift, max_herm_defect, min_eigenvalue = finished[j]
        trajectories.append(Trajectory(
            times=times[:kept],
            states=samples[j, :kept].reshape(kept, d, d),
            rhs_norms=rhs_norms[j, :kept],
            params=p,
            dt=dt,
            reached_steady=steady_index >= 0,
            steady_index=steady_index if steady_index >= 0 else None,
            max_trace_drift=float(max_trace_drift),
            max_herm_defect=float(max_herm_defect),
            min_eigenvalue=float(min_eigenvalue),
        ))
    return trajectories


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
    # Jacobian of block_rhs, with <S_k> = Tr(S_k rho) differentiated as the
    # complex-linear form it is on Hermitian states
    m2 = sup.reduce.shape[1] - 3
    partial_trace, tr_rows = sup.reduce[:, :m2].T, sup.reduce[:, m2:].T
    constant, spin_rows = sup.expand[0, :m2], sup.expand[0, m2:].reshape(3, m2, d * d)
    two_gamma_se = float(sup.two_gamma_se[0, 0, 0])
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        f = block_rhs(v[None], sup)[0]
        residual = float(np.linalg.norm(f))
        if residual < tol * scale:
            break
        n = partial_trace @ v
        spin = (tr_rows @ v).real
        mixed = constant + np.tensordot(two_gamma_se * spin, spin_rows, axes=1)
        jac = np.diag(sup.diag[0]) + mixed.T @ partial_trace
        jac += two_gamma_se * (n @ spin_rows).T @ tr_rows
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
