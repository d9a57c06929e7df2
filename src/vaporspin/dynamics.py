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
states (:func:`block_rhs`), used by the integrators, the Newton solve and the
entropy production rate.  The low-rank form works in real coordinates: a
state is x in R^(d^2), its coefficients on the orthonormal Hermitian basis of
:func:`hermitian_basis` (|i><i|, then (|i><j| + |j><i|)/sqrt 2, then
i(|i><j| - |j><i|)/sqrt 2 for i < j).  So ||rho||_F = ||x||,
Tr(AB) = x_A . x_B, and every state stepped is Hermitian by construction;
:func:`to_coordinates` and :func:`from_coordinates` convert.

:func:`integrate_block` (and :func:`integrate`, its one-column form) steps
with Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, *Solving ODEs
I*, sec. II.5-II.6), under error control with ``RTOL`` and ``ATOL`` on the
real coordinates; each column of a block keeps its own step and clock.
Samples fall on the grid ``(k * sample_every) * dt`` plus the end and are
read off the order-7 dense output, so the step never has to land on them.
``fixed_step=True`` selects classical RK4 at the step ``dt`` instead, which
the figure series and the tests that need a known step use.  Every sample is
guarded (finite, trace, positivity), in stacked passes of up to
``SAMPLE_CHUNK`` samples; a failure is reported for the first sample that
fails, as if each had been checked when it was taken.  Steady states are
detected along a trajectory (``Trajectory.steady_index``) or solved for
directly with a Newton iteration from their closed form (:func:`solve_steady_state`).
"""

from __future__ import annotations

import dataclasses
import functools
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
    "hermitian_basis",
    "to_coordinates",
    "from_coordinates",
    "build_superops",
    "block_rhs",
    "default_dt",
    "sampling_plan",
    "integrate",
    "integrate_block",
    "pump_polarization",
    "spin_temperature_state",
    "fit_spin_temperature",
    "solve_steady_state",
]

# integration guardrails (states are checked at every sample)
TRACE_TOL = 1e-6
EIGENVALUE_FLOOR = -1e-6
# Newton's stopping residual, relative to the fastest rate, and iteration cap
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 80
# queued samples per stacked guard pass; the result does not depend on it
SAMPLE_CHUNK = 64

# error control of the adaptive stepper, on the real coordinates of rho
RTOL = 1e-10
ATOL = 1e-12
# a step below this fraction of the sample interval (sample_every * dt, or the
# whole horizon if that is shorter) is a guard failure, so that a column the
# controller cannot follow stops instead of crawling; the floor never exceeds
# MAX_FLOOR_GRID_FRACTION of the grid unit dt, so a sparse sample grid cannot
# trip it on a healthy run (whose steps are about 0.3 / A or more)
MIN_STEP_FRACTION = 1e-6
MAX_FLOOR_GRID_FRACTION = 1e-3
# step-size controller (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0

# 1 and the electron spin matrices S_k = sigma_k / 2 of the electron factor
_SIGMA = np.stack([np.eye(2, dtype=complex), *build_spin_matrices(0.5)])

# Dormand-Prince 8(5,3), the tableau of Hairer's DOP853 code (ibid., sec. II.5
# and II.6), row by row as {stage: coefficient}: stages 1-11, the 8th-order
# weights (stage 12 is drho/dt at the new point), then the three extra stages
# of the dense output
_DOP853_A = (
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {
        0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023
    },
    {
        0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
        6: 20.154067550477894, 7: -43.48988418106996
    },
    {
        0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627
    },
    {
        0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
        6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196
    },
    {
        0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
        6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
        10: 0.6433927460157636
    },
    {
        0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
        8: 0.3111643669578199, 9: -0.1521609496625161, 10: 0.20136540080403034,
        11: 0.04471061572777259
    },
    {
        0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
        8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
        11: 0.007567897660545699, 12: -0.008298
    },
    {
        0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
        7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
        12: -0.00034046500868740456, 13: 0.1413124436746325
    },
    {
        0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
        8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
        14: -9.15095847217987
    },
)
# 5th- and 3rd-order error estimators over stages 0-12
_DOP853_E = (
    {
        0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
        7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
        10: 0.08192320648511571, 11: -0.022355307863886294
    },
    {
        0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
        8: -0.4226823213237919, 9: -0.1521609496625161, 10: 0.20136540080403034,
        11: 0.02265179219836082
    },
)
# dense output: the coefficients of x^2(1-x)^2, x^3(1-x)^2, x^3(1-x)^3 and x^4(1-x)^3
_DOP853_D = (
    {
        0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
        8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
        12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356,
        15: -4.436036387594894
    },
    {
        0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
        8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398,
        11: -9.332130526430229, 12: 15.697238121770845, 13: -31.139403219565178,
        14: -9.35292435884448, 15: 35.81684148639408
    },
    {
        0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
        8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
        12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716,
        15: 11.99229113618279
    },
    {
        0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
        8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
        12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544,
        15: -149.72683625798564
    },
)


def _tableau(rows: tuple[dict[int, float], ...], width: int, offset: int = 0) -> np.ndarray:
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, offset + j] = value
    return out


# The stepper keeps, per column, w[0] = the state at the start of the step and
# w[1 + i] = step * stage i, so every stage input, the new state, the error
# estimates and the dense output are one (1, m) @ (m, d^2) product each.
# Stage s (the new state for s = 12) from w[:s + 1]:
_DOP853_STAGES = [None] + [
    np.hstack([np.ones((1, 1)), _tableau(_DOP853_A[s - 1 : s], s)]) for s in range(1, 16)
]
_DOP853_ERROR = _tableau(_DOP853_E, 14, offset=1)  # from w[:14]


def _dense_output_rows() -> np.ndarray:
    """Hairer's continuous extension of DOP853 as one row of w-coefficients per power of x.

    y(x) = y0 + x F0 + x(1-x) F1 + x^2(1-x) F2 + x^2(1-x)^2 F3 + x^3(1-x)^2 F4
    + x^3(1-x)^3 F5 + x^4(1-x)^3 F6, with F0 = dy, F1 = h k0 - dy,
    F2 = 2 dy - h (k0 + k12) and F3..F6 = h D k.  Regrouped over y0, dy = B h k,
    h k0, h k12 and the rows of D, the weights are 1, 3x^2 - 2x^3, x(1-x)^2,
    -x^2(1-x), x^2(1-x)^2, x^3(1-x)^2, x^3(1-x)^3 and x^4(1-x)^3.
    """
    weights_in_powers = np.array([  # one column per weight, x^0 to x^7 down
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 3, -2, -1, 1, 0, 0, 0],
        [0, -2, 1, 1, -2, 1, 1, 0],
        [0, 0, 0, 0, 1, -2, -3, 1],
        [0, 0, 0, 0, 0, 1, 3, -3],
        [0, 0, 0, 0, 0, 0, -1, 3],
        [0, 0, 0, 0, 0, 0, 0, -1],
    ], dtype=float)
    return weights_in_powers @ np.vstack([
        np.eye(1, 17),
        _tableau(_DOP853_A[11:12], 17, offset=1),
        np.eye(1, 17, 1),
        np.eye(1, 17, 13),
        _tableau(_DOP853_D, 17, offset=1),
    ])


_DOP853_DENSE = _dense_output_rows()


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


@functools.lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each pair i < j of a d x d matrix, in row-major order."""
    i, j = np.triu_indices(d, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def hermitian_basis(d: int) -> np.ndarray:
    """The orthonormal Hermitian basis of d x d matrices, shape (d^2, d, d).

    |i><i| for each i, then (|i><j| + |j><i|)/sqrt 2 and then
    i(|i><j| - |j><i|)/sqrt 2 for each pair i < j in row-major order.
    """
    i, j = _pairs(d)
    pairs = np.arange(i.size)
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    basis[d + pairs, i, j] = basis[d + pairs, j, i] = math.sqrt(0.5)
    basis[d + i.size + pairs, i, j] = 1j * math.sqrt(0.5)
    basis[d + i.size + pairs, j, i] = -1j * math.sqrt(0.5)
    return basis


def to_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates Tr(E_a rho) on :func:`hermitian_basis`, shape (..., d^2).

    For a matrix that is not Hermitian this is the coordinates of its
    Hermitian part.
    """
    i, j = _pairs(rho.shape[-1])
    upper, lower = rho[..., i, j], rho[..., j, i]
    return np.concatenate([
        np.diagonal(rho, axis1=-2, axis2=-1).real,
        (upper.real + lower.real) * math.sqrt(0.5),
        (upper.imag - lower.imag) * math.sqrt(0.5),
    ], axis=-1)


def from_coordinates(x: np.ndarray) -> np.ndarray:
    """The Hermitian matrices with real coordinates ``x``, shape (..., d, d)."""
    d = math.isqrt(x.shape[-1])
    i, j = _pairs(d)
    rho = np.empty(x.shape[:-1] + (d, d), dtype=complex)
    k = np.arange(d)
    rho[..., k, k] = x[..., :d]
    upper = (x[..., d : d + i.size] + 1j * x[..., d + i.size :]) * math.sqrt(0.5)
    rho[..., i, j] = upper
    rho[..., j, i] = upper.conj()
    return rho


@dataclass(frozen=True)
class MasterSuperops:
    """Exact low-rank form of the equation of motion for a block of B columns.

    The electron-depolarized part is phi = Tr_S(rho) (x) 1/2 (Appelt et al.,
    PRA 58, 1412 (1998)).  With x the real coordinates of rho, n those of
    Tr_S(rho) in the uncoupled |m_I> basis (m^2 of them, m = dim/2; 16 for
    I = 3/2) and G_k n the coordinates of U (n (x) sigma_k) U^dag mapped back
    to the coupled basis (sigma_0 = 1, sigma_k = S_k), the right-hand side is

        f(x) = L x + (c/2) G_0 n + sum_k alpha_k G_k n,
        c = R_op + G_SE + G_SD,  alpha_k = R_op s_k + 2 G_SE <S_k>,

    with L the commutator with H0 (H0 is diagonal in |F, m_F>, so L rotates
    each pair of off-diagonal coordinates) minus c.  As row vectors, ``reduce``
    gives (n, <S_k>) = x @ reduce, and ``expand[b]`` is column b's
    (d^2 + 3 m^2) x d^2 factor: its first d^2 rows fold in L and the constant
    terms (c/2) G_0 + R_op s.G (n is linear in x), the rest hold
    2 G_SE G_k^T, so f(x) = [x, <S> (x) n] @ expand[b].
    """

    reduce: np.ndarray = field(repr=False)  # (d^2, m^2 + 3)
    expand: np.ndarray = field(repr=False)  # (B, d^2 + 3 m^2, d^2)

    def take(self, columns: np.ndarray) -> MasterSuperops:
        """The columns selected by an index or boolean array."""
        return dataclasses.replace(self, expand=self.expand[columns])


def build_superops(
    params: PumpParams | Sequence[PumpParams], ops: SpinOperatorSet
) -> MasterSuperops:
    """Low-rank factors for one parameter set, or one column per set of a sequence.

    The factors that do not depend on the parameters are built once per call;
    each column's ``expand`` is a linear combination of them.
    """
    params_seq = [params] if isinstance(params, PumpParams) else list(params)
    d, m = ops.dim, ops.dim // 2
    d2 = d * d
    # g[k, b] = coordinates of U (B_b (x) sigma_k) U^dag, for B_b the Hermitian
    # basis of the nuclear factor; n_b = Tr((B_b (x) 1) U^dag rho U) = g[0, b] . x
    nuclear = hermitian_basis(m)
    product = (nuclear[None, :, :, None, :, None] * _SIGMA[:, None, None, :, None, :]).reshape(-1, d)
    coupled = np.tensordot(ops.u, (product @ ops.u.conj().T).reshape(-1, d, d), axes=(1, 1))
    g = to_coordinates(coupled.transpose(1, 0, 2)).reshape(4, m * m, d2)
    # stored as the transpose of a contiguous array, so block_rhs reads reduce.T in order
    reduce = np.vstack([g[0], to_coordinates(ops.s_ops)]).T
    # x @ (g_0^T g_k) = (G_k n)^T; the commutator rotates each off-diagonal
    # pair: d/dt (x_s + i x_a) = -i (E_i - E_j) (x_s + i x_a)
    constant = np.matmul(g[0].T, g)
    energy = ops.h0.diagonal().real
    i, j = _pairs(d)
    sym, anti = d + np.arange(i.size), d + i.size + np.arange(i.size)
    rotation = np.zeros((d2, d2))
    rotation[anti, sym] = energy[i] - energy[j]
    rotation[sym, anti] = energy[j] - energy[i]
    diagonal = np.arange(d2)
    expand = np.empty((len(params_seq), d2 + 3 * m * m, d2))
    for b, p in enumerate(params_seq):
        decay = p.r_op + p.gamma_se + p.gamma_sd
        linear = rotation + (0.5 * decay) * constant[0]
        for k in range(3):
            linear += (p.r_op * p.s[k]) * constant[1 + k]
        linear[diagonal, diagonal] -= decay
        expand[b, :d2] = linear
        expand[b, d2:] = (2.0 * p.gamma_se) * g[1:].reshape(-1, d2)
    return MasterSuperops(reduce=reduce, expand=expand)


def block_rhs(x: np.ndarray, sup: MasterSuperops) -> np.ndarray:
    """dx/dt for a (B, d^2) block of real coordinates; column b uses factor b.

    Both products are stacked matmuls, one BLAS call per column, so a
    column's result does not depend on the block it sits in.  A one-column
    ``sup`` applies to every row of ``x``.
    """
    b, d2 = x.shape
    m2 = sup.reduce.shape[1] - 3
    w = np.empty((b, sup.expand.shape[1]))
    w[:, :d2] = x
    r = np.matmul(sup.reduce.T, x[:, :, None])  # (n, <S_k>) as columns
    np.multiply(r[:, m2:], r[:, None, :m2, 0], out=w[:, d2:].reshape(b, 3, m2))  # <S> (x) n
    return np.matmul(w[:, None, :], sup.expand).reshape(b, d2)


def default_dt(params: PumpParams, steps_per_rate: float = 50.0) -> float:
    """Grid unit 1/(steps_per_rate * fastest rate) of the samples; under ``fixed_step``, the RK4 step."""
    fastest = max(params.a_hfs, params.r_op, params.gamma_se, params.gamma_sd)
    if fastest <= 0.0:
        raise ValueError("all rates are zero; no intrinsic time scale to step with")
    return 1.0 / (steps_per_rate * fastest)


def sampling_plan(t_end: float, dt: float, sample_every: int) -> tuple[int, int]:
    """Grid steps of ``dt`` and stored samples of :func:`integrate` over ``t_end``."""
    n_steps = max(1, math.ceil(t_end / dt - 1e-9))
    return n_steps, n_steps // sample_every + 1 + (1 if n_steps % sample_every else 0)


@dataclass
class Trajectory:
    """Sampled solution of one integration run."""

    times: np.ndarray  # (n,) seconds
    states: np.ndarray  # (n, dim, dim)
    rhs_norms: np.ndarray  # (n,) Frobenius norm of drho/dt at each sample
    params: PumpParams
    dt: float  # grid unit: samples at multiples of sample_every * dt (under fixed_step, the step)
    reached_steady: bool
    steady_index: int | None
    max_trace_drift: float
    min_eigenvalue: float
    steps: int  # accepted steps
    rhs_evals: int  # evaluations of drho/dt, the samples' included

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
    fixed_step: bool = False,
) -> Trajectory:
    """Propagate rho0 and sample it every ``sample_every * dt`` (plus the end).

    The stepper is DOP853 under error control (``RTOL``, ``ATOL``), sampled
    through its dense output; ``fixed_step`` selects classical RK4 with step
    ``dt`` instead.  At each sample the state is checked: trace drift beyond
    1e-6 or an eigenvalue below -1e-6 raises :class:`PhysicsViolationError`
    (no silent projection back to the physical cone).  ``steady_tol`` is
    measured in units of G_SE: a sample with ||drho/dt||_F < steady_tol * G_SE
    marks the trajectory as steady, and with ``stop_at_steady`` integration
    ends there.  This is :func:`integrate_block` with one column.
    """
    return integrate_block(
        rho0, [params], ops, t_end, dt, sample_every,
        stop_at_steady=stop_at_steady, steady_tol=steady_tol, fixed_step=fixed_step,
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
    fixed_step: bool = False,
) -> list[Trajectory]:
    """:func:`integrate` for B parameter sets at once, one column each.

    Every column starts from ``rho0`` and is sampled on the same grid; ``dt``
    defaults to the smallest :func:`default_dt` of the block, and under
    ``fixed_step`` every column steps with RK4 at ``dt``.  Each column keeps
    its own step size, clock, guards, steady index and, under
    ``stop_at_steady``, its own stop, so each returned trajectory equals the
    standalone run of its parameters bit for bit.  A guard failure raises
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

    n_steps, n_samples = sampling_plan(t_end, dt, sample_every)
    times = np.minimum(np.arange(n_samples) * sample_every, n_steps) * dt
    samples = _Samples(times, params_seq, d, steady_tol, stop_at_steady)
    x = np.tile(to_coordinates(rho0), (len(params_seq), 1))
    sup = build_superops(params_seq, ops)
    if fixed_step:
        _rk4(samples, x, sup, dt, sample_every, n_steps)
    else:
        _dop853(samples, x, sup, dt, min(MIN_STEP_FRACTION * times[1], MAX_FLOOR_GRID_FRACTION * dt))
    samples.flush()

    trajectories = []
    for j, p in enumerate(params_seq):
        kept, steady_index = samples.taken[j], int(samples.steady[j])
        trajectories.append(Trajectory(
            times=times[:kept],
            states=samples.states[j, :kept],
            rhs_norms=samples.rhs_norms[j, :kept],
            params=p,
            dt=dt,
            reached_steady=steady_index >= 0,
            steady_index=steady_index if steady_index >= 0 else None,
            max_trace_drift=float(samples.drift[j]),
            min_eigenvalue=float(samples.eig_low[j]),
            steps=int(samples.steps[j]),
            rhs_evals=int(samples.rhs_evals[j]),
        ))
    return trajectories


class _Samples:
    """Sample store, guard margins, steady detection and work counts of a block.

    Every array is indexed by block column; a stepper hands each column's
    samples to :meth:`take` in time order.  ``take`` computes the residual
    norms and detects steady states at once, since they decide when a
    column stops; it queues the samples, and :meth:`flush` guards, converts
    and stores the queue as one stack.
    """

    def __init__(self, times: np.ndarray, params_seq: list[PumpParams], d: int, steady_tol: float,
                 stop_at_steady: bool):
        b = len(params_seq)
        self.times = times
        self.stop_at_steady = stop_at_steady
        self.states = np.empty((b, len(times), d, d), dtype=complex)
        self.rhs_norms = np.empty((b, len(times)))
        self.taken = np.zeros(b, dtype=int)
        self.threshold = np.array([steady_tol * p.gamma_se for p in params_seq])
        self.steady = np.full(b, -1)
        self.drift, self.eig_low = np.zeros(b), np.full(b, np.inf)
        self.steps = np.zeros(b, dtype=int)
        self.rhs_evals = np.zeros(b, dtype=int)
        self.d = d
        self._ones = np.ones((d, 1))
        self._queue: list[tuple[np.ndarray, ...]] = []
        self._queued = 0

    def fail(self, reason: str, column: int, t: float) -> PhysicsViolationError:
        """The stepper's own failure, raised only after every queued sample passed its guards."""
        self.flush()
        return PhysicsViolationError(reason, int(self.steps[column]), float(t), column)

    def take(self, cols: np.ndarray, k: np.ndarray, x: np.ndarray, derivative) -> tuple[np.ndarray, np.ndarray]:
        """Take samples ``k`` of columns ``cols``, states ``x``, one per row.

        A column may fill several rows, in time order.  ``derivative(x)``
        gives dx/dt at the states.  Every row is queued for the guards;
        under ``stop_at_steady`` a column keeps no sample past its first
        steady one.  Returns the mask of rows where a column turned steady,
        and the derivatives.
        """
        f = derivative(x)
        norms = np.sqrt(np.matmul(f[:, None, :], f[:, :, None])[:, 0, 0])
        fresh = (self.steady[cols] < 0) & (norms < self.threshold[cols])
        if fresh.any():  # keep only each column's first row below the threshold
            below = np.flatnonzero(fresh)
            fresh[below] = False
            fresh[below[np.unique(cols[below], return_index=True)[1]]] = True
            self.steady[cols[fresh]] = k[fresh]
        kept = np.ones(len(cols), dtype=bool)
        if self.stop_at_steady:
            kept = (self.steady[cols] < 0) | (k <= self.steady[cols])
        self.rhs_norms[cols[kept], k[kept]] = norms[kept]
        np.maximum.at(self.taken, cols[kept], k[kept] + 1)
        self._queue.append((cols, k, self.steps[cols], kept, x))
        self._queued += len(cols)
        if self._queued >= SAMPLE_CHUNK:
            self.flush()
        return fresh, f

    def flush(self) -> None:
        """Guard, convert and store the queued samples as one stack.

        Raises for the sample that a check at :meth:`take` would have
        raised for: the earliest ``take`` with a failing row, within it a
        non-finite row first, else the first row over a trace or eigenvalue
        guard, with the step count of that ``take``.
        """
        if not self._queue:
            return
        queue, self._queue, self._queued = self._queue, [], 0
        call = np.repeat(np.arange(len(queue)), [len(entry[0]) for entry in queue])
        cols, k, steps, kept, x = (np.concatenate(part) for part in zip(*queue))
        finite = np.isfinite(x).all(axis=1)
        x = np.where(finite[:, None], x, 0.0)
        rho = from_coordinates(x)
        # stacked matmuls sum each row in the same order whatever the number
        # of rows; a reduction along axis 1 need not
        trace_drift = np.abs(np.matmul(x[:, None, : self.d], self._ones)[:, 0, 0] - 1.0)
        eig_min = np.linalg.eigvalsh(rho).min(axis=1)
        failed = ~finite | (trace_drift > TRACE_TOL) | (eig_min < EIGENVALUE_FLOOR)
        if failed.any():
            first = call == call[np.argmax(failed)]
            j = np.argmax(first & (~finite if (first & ~finite).any() else failed))
            reason = ("state became non-finite" if not finite[j]
                      else "trace drift exceeded 1e-6" if trace_drift[j] > TRACE_TOL
                      else f"eigenvalue {eig_min[j]:.3e} below -1e-6")
            raise PhysicsViolationError(reason, int(steps[j]), float(self.times[k[j]]), cols[j])
        cols, k, rho = cols[kept], k[kept], rho[kept]
        self.states[cols, k] = rho
        np.maximum.at(self.drift, cols, trace_drift[kept])
        np.minimum.at(self.eig_low, cols, eig_min[kept])


def _rk4(samples: _Samples, x: np.ndarray, sup: MasterSuperops, dt: float, sample_every: int,
         n_steps: int) -> None:
    """Classical RK4 at the fixed step ``dt``, sampled every ``sample_every`` steps."""
    live = np.arange(len(x))
    for step in range(n_steps + 1):
        k1 = None
        if step % sample_every == 0 or step == n_steps:
            # four evaluations a step; the one at this sample is the next step's k1
            samples.steps[live], samples.rhs_evals[live] = step, 4 * step + 1
            fresh, k1 = samples.take(live, samples.taken[live], x, lambda y: block_rhs(y, sup))
            if step == n_steps:
                break
            if samples.stop_at_steady and fresh.any():
                keep = ~fresh
                live, x, k1, sup = live[keep], x[keep], k1[keep], sup.take(keep)
                if not live.size:
                    break
        if k1 is None:
            k1 = block_rhs(x, sup)
        k2 = block_rhs(x + (0.5 * dt) * k1, sup)
        k3 = block_rhs(x + (0.5 * dt) * k2, sup)
        k4 = block_rhs(x + dt * k3, sup)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _combine(coef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``coef @ w`` for each column, one stacked matmul each, as a (B, d^2) block."""
    return np.matmul(coef, w)[:, 0]


def _error_norm(w: np.ndarray, x: np.ndarray, x_new: np.ndarray) -> np.ndarray:
    """DOP853's blend of its 5th- and 3rd-order error estimates, per column."""
    b, n = x.shape
    scale = ATOL + RTOL * np.maximum(np.abs(x), np.abs(x_new))
    err = np.matmul(_DOP853_ERROR, w)
    err /= scale[:, None, :]
    squares = np.matmul(err, err.swapaxes(1, 2))  # per column: [[|e5|^2, .], [., |e3|^2]]
    e5, e3 = squares[:, 0, 0], squares[:, 1, 1]
    denom = e5 + 0.01 * e3
    return np.divide(e5, np.sqrt(denom * n), out=np.zeros(b), where=denom != 0.0)


def _interpolate(theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """DOP853's 7th-order dense output of one column at fractions ``theta`` of its step."""
    powers = theta[:, None, None] ** np.arange(8)
    return _combine(np.matmul(powers, _DOP853_DENSE), w)


def _dop853(samples: _Samples, x: np.ndarray, sup: MasterSuperops, dt: float, floor: float) -> None:
    """DOP853 under error control, each column with its own step and clock.

    The first step is ``dt``.  A column whose step falls below ``floor`` or
    whose error estimate is not finite raises :class:`PhysicsViolationError`.
    Samples inside a step come from the dense output, each column's as one
    stack, so a column sees the same calls in any block.
    """
    times = samples.times
    t_final = times[-1]
    live = np.arange(len(x))
    column_sup = [sup.take([j]) for j in live]
    samples.rhs_evals[live] += 1
    fresh, f = samples.take(live, samples.taken[live], x, lambda y: block_rhs(y, sup))
    if samples.stop_at_steady and fresh.any():
        keep = ~fresh
        live, x, f, sup = live[keep], x[keep], f[keep], sup.take(keep)
    t = np.zeros((live.size, 1))
    h = np.full((live.size, 1), dt)
    rejected = np.zeros(live.size, dtype=bool)
    while live.size:
        small = h[:, 0] < floor
        if small.any():
            j = np.argmax(small)
            raise samples.fail(f"step {h[j, 0]:.3e} s below the floor of {floor:.3e} s", live[j], t[j, 0])
        t_new = np.minimum(t + h, t_final)
        step = t_new - t
        # w[:, 0] is the state at the step's start, w[:, 1 + i] the step times stage i
        w = np.empty((live.size, 17, x.shape[1]))
        w[:, 0] = x
        np.multiply(step, f, out=w[:, 1])
        for s in range(1, 12):
            np.multiply(step, block_rhs(_combine(_DOP853_STAGES[s], w[:, : s + 1]), sup), out=w[:, s + 1])
        x_new = _combine(_DOP853_STAGES[12], w[:, :13])
        f_new = block_rhs(x_new, sup)
        np.multiply(step, f_new, out=w[:, 13])
        samples.rhs_evals[live] += 12
        err = _error_norm(w[:, :14], x, x_new)
        if not np.isfinite(err).all():
            j = np.argmin(np.isfinite(err))
            raise samples.fail("step error estimate became non-finite", live[j], t[j, 0])
        accepted = err < 1.0
        factor = SAFETY * np.maximum(err, 1e-300) ** ERROR_EXPONENT
        grow = np.minimum(MAX_FACTOR, factor)
        grow = np.where(rejected, np.minimum(1.0, grow), grow)
        h = step * np.where(accepted, grow, np.maximum(MIN_FACTOR, factor))[:, None]
        rejected = ~accepted

        # the samples in (t, t_new] of each accepted column; those strictly
        # inside the step need the three extra stages of the dense output
        first = samples.taken[live]
        due = np.where(accepted, np.searchsorted(times, t_new[:, 0], side="right") - first, 0)
        inside = np.where(accepted, np.searchsorted(times, t_new[:, 0], side="left") - first, 0)
        stopped = np.zeros(live.size, dtype=bool)
        if due.any():
            dense = np.flatnonzero(inside)
            if dense.size:
                sub, rows_w = (sup, slice(None)) if dense.size == live.size else (sup.take(dense), dense)
                for s in range(13, 16):
                    stage = block_rhs(_combine(_DOP853_STAGES[s], w[rows_w, : s + 1]), sub)
                    w[rows_w, s + 1] = step[rows_w] * stage
                samples.rhs_evals[live[dense]] += 3
            rows = np.repeat(np.arange(live.size), due)
            start = np.cumsum(due) - due
            k = np.arange(rows.size) + np.repeat(first - start, due)
            pieces = [(j, slice(start[j], start[j] + inside[j])) for j in dense]
            states = x_new[rows]
            for j, rows_j in pieces:
                states[rows_j] = _interpolate((times[k[rows_j]] - t[j, 0]) / step[j, 0], w[j])

            def derivative(y):
                out = f_new[rows]
                for j, rows_j in pieces:
                    out[rows_j] = block_rhs(y[rows_j], column_sup[live[j]])
                    samples.rhs_evals[live[j]] += inside[j]
                return out

            fresh, _ = samples.take(live[rows], k, states, derivative)
            if samples.stop_at_steady:
                stopped[rows[fresh]] = True

        t = np.where(accepted[:, None], t_new, t)
        x = np.where(accepted[:, None], x_new, x)
        f = np.where(accepted[:, None], f_new, f)
        samples.steps[live[accepted]] += 1
        done = stopped | (accepted & (t_new[:, 0] == t_final))
        if done.any():
            keep = ~done
            live, t, h, x, f, rejected = live[keep], t[keep], h[keep], x[keep], f[keep], rejected[keep]
            sup = sup.take(keep)


def spin_temperature_state(
    beta: float, ops: SpinOperatorSet, axis: Sequence[float] = (0.0, 0.0, 1.0)
) -> np.ndarray:
    """Spin-temperature state rho ~ exp(beta * n.F), n the unit vector along ``axis``.

    Along z it is diagonal in the coupled basis, with populations
    proportional to exp(beta * m_F).
    """
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

    Least squares of ln p against m_F across both hyperfine manifolds, each
    ln p weighted by p, since an absolute error dp moves ln p by dp/p.  Returns
    (beta, max relative population residual).
    """
    p = np.clip(np.asarray(populations, dtype=float), 1e-300, None)
    m = np.array([mf for _, mf in labels])
    design = np.stack([m, np.ones_like(m)], axis=1)
    coef, *_ = np.linalg.lstsq(p[:, None] * design, p * np.log(p), rcond=None)
    fitted = np.exp(design @ coef)
    residual = float(np.max(np.abs(fitted - p) / p))
    return float(coef[0]), residual


@dataclass
class SteadyStateInfo:
    converged: bool
    residual: float  # ||drho/dt||_F at the solution
    iterations: int


def pump_polarization(params: PumpParams) -> float:
    """Electron polarization P = |s| R_op / (R_op + G_SD) of the steady state (0 undriven)."""
    denom = params.r_op + params.gamma_sd
    return float(np.linalg.norm(params.s_vec)) * params.r_op / denom if denom > 0.0 else 0.0


def solve_steady_state(params: PumpParams, ops: SpinOperatorSet) -> tuple[np.ndarray, SteadyStateInfo]:
    """Newton solve of drho/dt = 0 with the trace pinned to 1, from the closed form.

    Newton starts from rho ~ exp(beta n.F) along the pump axis n, with
    beta = ln((1 + P) / (1 - P)) and P = :func:`pump_polarization`.  That is an
    exact fixed point: rho = rho_I (x) rho_S commutes with H0 = A I.S, and
    phi = rho_I (x) 1/2, so the collision and pump terms reduce to
    rho_I (x) n.S [R_op |s| - (R_op + G_SD) P] = 0 and the G_SE terms cancel.
    So Newton stops at its first residual check (below ``NEWTON_TOL`` of the
    fastest collisional or pumping rate, within ``NEWTON_MAX_ITER`` iterations),
    and the result depends on ``(params, ops)`` alone.  With every rate zero
    it is the maximally mixed state.
    """
    d = ops.dim
    sup = build_superops(params, ops)
    scale = max(params.gamma_se, params.r_op, params.gamma_sd)
    if scale <= 0.0:
        return ops.maximally_mixed(), SteadyStateInfo(converged=True, residual=0.0, iterations=0)

    pol = min(pump_polarization(params), 1.0 - 1e-9)  # P = 1 would be a pure state
    rho = ops.maximally_mixed()
    if pol > 0.0:
        rho = spin_temperature_state(math.log((1.0 + pol) / (1.0 - pol)), ops, axis=params.s_vec)
    x = to_coordinates(rho)
    trace_row = np.zeros(d * d)
    trace_row[:d] = 1.0
    residual = math.inf
    iterations = 0
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        f = block_rhs(x[None], sup)[0]
        residual = float(np.linalg.norm(f))
        if residual < NEWTON_TOL * scale:
            break
        system = np.vstack([_jacobian(x, sup), trace_row])
        target = np.concatenate([-f, [1.0 - trace_row @ x]])
        delta, *_ = np.linalg.lstsq(system, target, rcond=None)
        x = x + delta

    rho = from_coordinates(x)
    converged = bool(residual < NEWTON_TOL * scale and np.linalg.eigvalsh(rho).min() > -1e-9)
    return rho, SteadyStateInfo(converged=converged, residual=residual, iterations=iterations)


def _jacobian(x: np.ndarray, sup: MasterSuperops) -> np.ndarray:
    """d(block_rhs)/dx of a one-column ``sup`` at the coordinates ``x``, shape (d^2, d^2).

    With f = x @ A + sum_k <S_k> n @ E_k, where (n, <S_k>) = x @ reduce and
    E_k are the spin rows of ``expand``, the derivative of f_i by x_j is
    A_ji + reduce_j,<S_k> (n @ E_k)_i + (reduce_j,n @ sum_k <S_k> E_k)_i.
    """
    d2 = len(x)
    m2 = sup.reduce.shape[1] - 3
    r = x @ sup.reduce
    spin_rows = sup.expand[0, d2:].reshape(3, m2, d2)
    transposed = sup.expand[0, :d2] + sup.reduce[:, m2:] @ (r[:m2] @ spin_rows)
    transposed += sup.reduce[:, :m2] @ np.tensordot(r[m2:], spin_rows, axes=1)
    return transposed.T
