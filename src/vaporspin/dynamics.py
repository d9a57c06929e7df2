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

:func:`integrate_block` (and :func:`integrate`, its one-column form) starts
every run from the maximally mixed state, the thermal state of the vapor at
kT >> A, and steps each column in its pump frame (:func:`pump_frame`), where
s lies along z.  H0 and the collision terms are invariant under rotations,
so there the column is the z-pumped run with the same |s|, and the
projection of F on the pump axis is conserved (Happer, Rev. Mod. Phys. 44,
169 (1972)).  The mixed state is the same in every frame, and from it only
the Delta m_F = 0 coordinates ever move (:func:`pump_sector`), 14 of 64 for
I = 3/2 and 22 of 144 for I = 5/2; the block steps those alone
(:meth:`MasterSuperops.restrict`).  Each stored sample is turned back to
the lab frame, so trajectories hold lab-frame states.  The stepper is
Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*,
sec. II.5-II.6), under error control with ``RTOL`` and ``ATOL`` on the real
coordinates; each column of a block keeps its own step and clock.
Samples fall on the grid ``(k * sample_every) * dt`` plus the end and are
read off the order-7 dense output, so the step never has to land on them.
``fixed_step=True`` selects classical RK4 at the step ``dt`` instead, which
the figure series and the tests that need a known step use.  A stepper only
steps and queues what its samples need; everything else a sample takes (the
dense output, dx/dt and its norm, steady detection and the guards: finite,
trace, positivity) runs in stacked passes of up to ``SAMPLE_CHUNK`` samples,
with the results, stops and failures of checking each sample when it is
taken.  Steady states are detected along a trajectory
(``Trajectory.steady_index``) or solved for directly with a Newton iteration
from their closed form (:func:`solve_steady_state`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .spin_algebra import SpinOperatorSet, build_coupled_operators, build_spin_matrices

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
    "pump_frame",
    "pump_sector",
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
# populations within this of one stretched level fit to beta = +-inf
STRETCHED_TOL = 1e-12
# queued samples per stacked sample pass; the result does not depend on it
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


# A step keeps, per column, w[0] = the state at the start of the step and
# w[1 + i] = step * stage i, so every stage input, the new state, the error
# estimates and the dense output are one (1, m) @ (m, d^2) product each.  The
# stepper fills w[:_STEP_ROWS] (stages 0-12); the sample pass adds the dense
# output's stages 13-15.  Stage s (the new state for s = 12) from w[:s + 1]:
_STEP_ROWS = 14
_DOP853_STAGES = [None] + [
    np.hstack([np.ones((1, 1)), _tableau(_DOP853_A[s - 1 : s], s)]) for s in range(1, 16)
]
_DOP853_ERROR = _tableau(_DOP853_E, _STEP_ROWS, offset=1)  # from w[:_STEP_ROWS]


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
        if not (np.isfinite(s).all() and np.linalg.norm(s) <= 1.0 + 1e-9):
            raise ValueError(f"photon spin must be finite with magnitude <= 1, got {tuple(s.tolist())}")
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
    h0 = params.a_hfs * ops.i_dot_s
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

    :meth:`restrict` keeps n of the coordinates, with the nuclear coordinates
    and spin components they feed (``spin_columns`` of them), so ``reduce``
    and ``expand`` may be narrower than the shapes below.
    """

    reduce: np.ndarray = field(repr=False)  # (d^2, m^2 + 3)
    expand: np.ndarray = field(repr=False)  # (B, d^2 + 3 m^2, d^2)
    spin_columns: int = 3

    def take(self, columns: np.ndarray) -> MasterSuperops:
        """The columns selected by an index or boolean array."""
        return dataclasses.replace(self, expand=self.expand[columns])

    def restrict(self, kept: np.ndarray) -> MasterSuperops:
        """The factors on the coordinates ``kept`` alone.

        Keeps the nuclear coordinates and spin components where the rows
        ``kept`` of ``reduce`` are nonzero, and the rows of ``expand`` of
        ``kept`` and of those (spin, nuclear) pairs, so on states that vanish
        off ``kept`` it gives the full right-hand side on ``kept``.
        """
        m2 = self.reduce.shape[1] - self.spin_columns
        fed = (self.reduce[kept] != 0).any(axis=0)
        nuclear, spin = np.flatnonzero(fed[:m2]), np.flatnonzero(fed[m2:])
        rows = np.concatenate([kept, (self.expand.shape[2] + spin[:, None] * m2 + nuclear).ravel()])
        # stored as the transpose of a contiguous array, as _superop_factors stores it
        reduce = np.ascontiguousarray(self.reduce[np.ix_(kept, np.concatenate([nuclear, m2 + spin]))].T).T
        expand = np.ascontiguousarray(self.expand[:, rows][:, :, kept])
        return MasterSuperops(reduce=reduce, expand=expand, spin_columns=spin.size)


@functools.lru_cache(maxsize=None)
def _superop_factors(nuclear_spin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors of :func:`build_superops` that do not depend on the parameters.

    They depend on the nuclear spin alone, so they are built once per nuclear
    spin and shared, read-only: ``reduce``, ``constant`` (x @ constant[k] =
    (G_k n)^T for k = 0..3) and ``spin_rows``, the last 3 m^2 rows of
    ``expand`` before their factor 2 G_SE.
    """
    ops = build_coupled_operators(nuclear_spin)
    d, m = ops.dim, ops.dim // 2
    # g[k, b] = coordinates of U (B_b (x) sigma_k) U^dag, for B_b the Hermitian
    # basis of the nuclear factor; n_b = Tr((B_b (x) 1) U^dag rho U) = g[0, b] . x
    nuclear = hermitian_basis(m)
    product = (nuclear[None, :, :, None, :, None] * _SIGMA[:, None, None, :, None, :]).reshape(-1, d)
    coupled = np.tensordot(ops.u, (product @ ops.u.conj().T).reshape(-1, d, d), axes=(1, 1))
    g = to_coordinates(coupled.transpose(1, 0, 2)).reshape(4, m * m, d * d)
    # stored as the transpose of a contiguous array, so block_rhs reads reduce.T in order
    reduce = np.vstack([g[0], to_coordinates(ops.s_ops)]).T
    constant = np.matmul(g[0].T, g)
    spin_rows = g[1:].reshape(-1, d * d)
    for factor in (reduce, constant, spin_rows):
        factor.setflags(write=False)
    return reduce, constant, spin_rows


def build_superops(
    params: PumpParams | Sequence[PumpParams], ops: SpinOperatorSet
) -> MasterSuperops:
    """Low-rank factors for one parameter set, or one column per set of a sequence.

    Each column's ``expand`` combines the cached parameter-free factors with
    its own rates and the rotation by its own H0 = A I.S.
    """
    params_seq = [params] if isinstance(params, PumpParams) else list(params)
    reduce, constant, spin_rows = _superop_factors(ops.nuclear_spin)
    d = ops.dim
    d2 = d * d
    # the commutator rotates each off-diagonal pair:
    # d/dt (x_s + i x_a) = -i (E_i - E_j) (x_s + i x_a)
    i, j = _pairs(d)
    sym, anti = d + np.arange(i.size), d + i.size + np.arange(i.size)
    diagonal = np.arange(d2)
    expand = np.empty((len(params_seq), d2 + len(spin_rows), d2))
    for b, p in enumerate(params_seq):
        energy = (p.a_hfs * ops.i_dot_s).diagonal().real
        rotation = np.zeros((d2, d2))
        rotation[anti, sym] = energy[i] - energy[j]
        rotation[sym, anti] = energy[j] - energy[i]
        decay = p.r_op + p.gamma_se + p.gamma_sd
        linear = rotation + (0.5 * decay) * constant[0]
        for k in range(3):
            linear += (p.r_op * p.s[k]) * constant[1 + k]
        linear[diagonal, diagonal] -= decay
        expand[b, :d2] = linear
        expand[b, d2:] = (2.0 * p.gamma_se) * spin_rows
    return MasterSuperops(reduce=reduce, expand=expand)


def pump_sector(ops: SpinOperatorSet) -> np.ndarray:
    """The coordinates, in order, that a pump-frame run from the maximally mixed state can make nonzero.

    The d populations, then the real and then the imaginary coordinates of
    the coherence between each pair of levels with equal m_F: d + 4I
    coordinates.  A z pump conserves F_z, so from a state diagonal in m_F
    no coherence with Delta m_F != 0 ever grows; on states that vanish off
    the sector the right-hand side vanishes there too, so ``restrict`` of
    it is exact along the run.
    """
    d = ops.dim
    i, j = _pairs(d)
    m_f = np.array([m for _, m in ops.labels])
    equal = np.flatnonzero(m_f[i] == m_f[j])
    return np.concatenate([np.arange(d), d + equal, d + i.size + equal])


def pump_frame(ops: SpinOperatorSet, s: Sequence[float]) -> np.ndarray:
    """The rotation exp(-i theta n.F) that turns the z axis onto the photon spin ``s``.

    In the pump frame, rho' = R^dag rho R, the pump lies along z; n is the
    unit vector along z x s and theta the angle between z and s.  For s along
    z, or s = 0, R is the identity.
    """
    sx, sy, sz = (float(c) for c in s)
    across = math.hypot(sx, sy)
    if across == 0.0:
        return np.eye(ops.dim, dtype=complex)
    w, v = np.linalg.eigh((-sy / across) * ops.f_ops[0] + (sx / across) * ops.f_ops[1])
    return (v * np.exp(-1j * math.atan2(across, sz) * w)) @ v.conj().T


class _RhsScratch:
    """The buffers of :func:`block_rhs` for a block of ``b`` rows, with their views.

    ``w`` is [x, <S> (x) n] per row, shape (b, 1, n + k m) for n coordinates,
    m nuclear coordinates and k spin components, ``x`` its first n columns as
    (b, n) and ``x3`` the same memory as (b, 1, n); ``r`` holds (n, <S_k>)
    and ``f`` the result.  A state written into ``x`` is read where it lies.
    """

    def __init__(self, b: int, sup: MasterSuperops):
        n, k = sup.expand.shape[2], sup.spin_columns
        m = sup.reduce.shape[1] - k
        self.w = np.empty((b, 1, sup.expand.shape[1]))
        self.x3 = self.w[:, :, :n]
        self.x = self.x3[:, 0]
        self.x_column = self.x[:, :, None]
        self.spin = self.w[:, 0, n:].reshape(b, k, m)
        self.r = np.empty((b, m + k, 1))
        self.r_spin, self.r_nuclear = self.r[:, m:], self.r[:, None, :m, 0]
        self.f3 = np.empty((b, 1, n))
        self.f = self.f3[:, 0]


def block_rhs(x: np.ndarray, sup: MasterSuperops, scratch: _RhsScratch | None = None) -> np.ndarray:
    """dx/dt for a (B, n) block of real coordinates; column b uses factor b.

    n is d^2, or the width of a restricted ``sup``.  Both products are
    stacked matmuls, one BLAS call per column, so a column's result does not
    depend on the block it sits in.  A one-column
    ``sup`` applies to every row of ``x``.  A stepper passes its block's
    ``scratch``, so that the call allocates nothing (``x`` may be
    ``scratch.x`` itself); the result is then ``scratch.f``, valid until the
    next call.
    """
    if scratch is None:
        scratch = _RhsScratch(len(x), sup)
    if x is not scratch.x:
        scratch.x[...] = x
    np.matmul(sup.reduce.T, scratch.x_column, out=scratch.r)  # (n, <S_k>) as columns
    np.multiply(scratch.r_spin, scratch.r_nuclear, out=scratch.spin)  # <S> (x) n
    np.matmul(scratch.w, sup.expand, out=scratch.f3)
    return scratch.f


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


def integrate(
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
    """Propagate the maximally mixed state and sample it every ``sample_every * dt`` (plus the end).

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
        [params], ops, t_end, dt, sample_every,
        stop_at_steady=stop_at_steady, steady_tol=steady_tol, fixed_step=fixed_step,
    )[0]


def integrate_block(
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

    Every column starts from the maximally mixed state and is sampled on the
    same grid; ``dt`` defaults to the smallest :func:`default_dt` of the
    block, and under ``fixed_step`` every column steps with RK4 at ``dt``.
    Each column keeps its own step size, clock, guards, steady index and,
    under ``stop_at_steady``, its own stop.  Each column steps in its pump
    frame, on the coordinates of :func:`pump_sector`, so a returned
    trajectory equals the standalone run of its parameters bit for bit.  A
    guard failure raises :class:`PhysicsViolationError` with ``column`` set
    to the offending index.
    """
    params_seq = list(params_seq)
    if dt is None:
        dt = min(default_dt(p) for p in params_seq)
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    n_steps, n_samples = sampling_plan(t_end, dt, sample_every)
    times = np.minimum(np.arange(n_samples) * sample_every, n_steps) * dt
    # in its pump frame a column is pumped along z with its own |s|
    frames = np.stack([pump_frame(ops, p.s) for p in params_seq])
    in_frame = [p if p.s[0] == p.s[1] == 0.0 else dataclasses.replace(p, s=(0.0, 0.0, math.hypot(*p.s)))
                for p in params_seq]
    sector = pump_sector(ops)
    sup = build_superops(in_frame, ops).restrict(sector)
    # the maximally mixed state is the same in every frame
    x = np.tile(to_coordinates(ops.maximally_mixed())[sector], (len(params_seq), 1))
    samples = _Samples(times, params_seq, sup, steady_tol, stop_at_steady, sector, frames)
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

    Every array is indexed by block column.  A stepper only steps: for the
    samples due in a step it queues one record per column with :meth:`take`
    (the step's end state and dx/dt there; for a DOP853 step with samples
    inside it also the start time, the step and the stages; the sample range;
    and ``steps`` and ``rhs_evals`` as they stand after the step).
    :meth:`flush` turns the queue into samples as stacks, once at least
    ``SAMPLE_CHUNK`` samples are queued, when the stepper fails and at the
    end of the run: the three extra stages and the order-7 interpolation of
    the dense output, dx/dt at the samples inside a step (one
    :func:`block_rhs` call over all of them, on ``sup.take`` of their
    columns), the residual norms, steady detection, the guards, and the
    store.  The stepper's states are the pump-frame coordinates
    ``sector``; the pass lifts them to all d^2 coordinates, guards them,
    and stores each turned back by its column's ``frames``.

    Each column's results, stop and failure are those of checking every
    sample when it is taken.  Under ``stop_at_steady`` a column ends at its
    first steady sample: the rows of the step that holds it are guarded as
    usual and stored up to it; its later records are dropped unguarded; its
    ``steps`` and ``rhs_evals`` are those recorded with that step; and it is
    marked in ``stopped``, for the stepper to drop.
    """

    def __init__(self, times: np.ndarray, params_seq: list[PumpParams], sup: MasterSuperops,
                 steady_tol: float, stop_at_steady: bool, sector: np.ndarray, frames: np.ndarray):
        b, n = len(params_seq), sup.expand.shape[2]
        self.d = frames.shape[1]
        self.sector, self.frames = sector, frames
        self.turned = ~(frames == np.eye(self.d)).all(axis=(1, 2))
        self.times = times
        self.stop_at_steady = stop_at_steady
        self.sup = sup
        self.states = np.empty((b, len(times), self.d, self.d), dtype=complex)
        self.rhs_norms = np.empty((b, len(times)))
        self.queued = np.zeros(b, dtype=int)  # samples handed to take
        self.taken = np.zeros(b, dtype=int)  # samples stored
        self.threshold = np.array([steady_tol * p.gamma_se for p in params_seq])
        self.steady = np.full(b, -1)
        self.stopped = np.zeros(b, dtype=bool)
        self.drift, self.eig_low = np.zeros(b), np.full(b, np.inf)
        self.steps = np.zeros(b, dtype=int)
        self.rhs_evals = np.zeros(b, dtype=int)
        self._ones = np.ones((self.d, 1))
        self._no_dense = (np.empty(0), np.empty(0), np.empty((0, _STEP_ROWS, n)))
        self._queue: list[tuple[np.ndarray, ...]] = []
        self._pending = 0

    def stepper_failure(self, reason: str, column: int, t: float) -> None:
        """Raise the stepper's failure of ``column``, unless the queued samples stop it first.

        The queue is flushed first, so a guard failure among its samples is
        raised instead, as it would have been when they were taken.
        """
        self.flush()
        if not self.stopped[column]:
            raise PhysicsViolationError(reason, int(self.steps[column]), float(t), column)

    def take(self, cols: np.ndarray, x: np.ndarray, f: np.ndarray, due: np.ndarray | None = None,
             inside: np.ndarray | None = None, dense: tuple[np.ndarray, ...] | None = None,
             stepped: int = 0) -> None:
        """Queue the next ``due`` samples (default 1) of columns ``cols``, one record each.

        ``x`` and ``f`` are each column's state and dx/dt at the end of its
        step, which is the time of its last sample unless that lies inside
        the step.  The first ``inside`` samples (default none) lie inside it;
        ``dense`` gives the start time, the step and ``w[:_STEP_ROWS]`` of
        each column with ``inside > 0``.  A guard failure reports the step
        count less ``stepped``, the count before this step.
        """
        due = np.ones(len(cols), dtype=int) if due is None else due
        inside = np.zeros(len(cols), dtype=int) if inside is None else inside
        steps = self.steps[cols]
        self._queue.append((cols, self.queued[cols], due, inside, steps - stepped, steps,
                            self.rhs_evals[cols], x, f, *(self._no_dense if dense is None else dense)))
        self.queued[cols] += due
        self._pending += int(due.sum())
        if self._pending >= SAMPLE_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Turn the queued records into stored samples, as one stack.

        Raises for the sample that a check at :meth:`take` would have raised
        for: the earliest :meth:`take` with a failing row, within it a
        non-finite row first, else the first row over a trace or eigenvalue
        guard, with that record's step count.
        """
        if not self._queue:
            return
        queue, self._queue, self._pending = self._queue, [], 0
        call = np.repeat(np.arange(len(queue)), [len(entry[0]) for entry in queue])
        cols, first, due, inside, guard_steps, steps, rhs_evals, x_end, f_end, t0, h, w = (
            np.concatenate(part) for part in zip(*queue)
        )
        record = np.repeat(np.arange(len(cols)), due)  # one row per sample
        offset = np.arange(record.size) - np.repeat(np.cumsum(due) - due, due)
        k = first[record] + offset
        x, f = x_end[record], f_end[record]
        interior = np.flatnonzero(offset < inside[record])
        if interior.size:
            dense = inside > 0
            x[interior], f[interior] = self._dense_output(
                k[interior], cols[record[interior]], (np.cumsum(dense) - 1)[record[interior]],
                cols[dense], t0, h, w)
        call, cols = call[record], cols[record]
        norms = np.sqrt(np.matmul(f[:, None, :], f[:, :, None])[:, 0, 0])

        fresh = (self.steady[cols] < 0) & (norms < self.threshold[cols])
        if fresh.any():  # each column's first row below the threshold
            below = np.flatnonzero(fresh)
            rows = below[np.unique(cols[below], return_index=True)[1]]
            self.steady[cols[rows]] = k[rows]
            if self.stop_at_steady:  # a column's takes after its stop never happened
                stop = cols[rows]
                self.stopped[stop] = True
                self.steps[stop], self.rhs_evals[stop] = steps[record[rows]], rhs_evals[record[rows]]
                last_call = np.full(len(self.steady), len(queue))
                last_call[stop] = call[rows]
                alive = call <= last_call[cols]
                call, cols, k, x, norms, record = (a[alive] for a in (call, cols, k, x, norms, record))

        finite = np.isfinite(x).all(axis=1)
        x = np.where(finite[:, None], x, 0.0)
        full = np.zeros((len(x), self.d**2))
        full[:, self.sector] = x
        rho = from_coordinates(full)  # in the pump frame
        # stacked matmuls sum each row in the same order whatever the number
        # of rows; a reduction along axis 1 need not.  The sector starts
        # with the d diagonal coordinates.
        trace_drift = np.abs(np.matmul(x[:, None, : self.d], self._ones)[:, 0, 0] - 1.0)
        eig_min = np.linalg.eigvalsh(rho).min(axis=1)
        failed = ~finite | (trace_drift > TRACE_TOL) | (eig_min < EIGENVALUE_FLOOR)
        if failed.any():
            first_failing = call == call[np.argmax(failed)]
            j = np.argmax(first_failing & (~finite if (first_failing & ~finite).any() else failed))
            reason = ("state became non-finite" if not finite[j]
                      else "trace drift exceeded 1e-6" if trace_drift[j] > TRACE_TOL
                      else f"eigenvalue {eig_min[j]:.3e} below -1e-6")
            raise PhysicsViolationError(reason, int(guard_steps[record[j]]), float(self.times[k[j]]), cols[j])
        kept = np.ones(len(cols), dtype=bool)
        if self.stop_at_steady:  # a column keeps no sample past its first steady one
            kept = (self.steady[cols] < 0) | (k <= self.steady[cols])
        cols, k, rho = cols[kept], k[kept], rho[kept]
        turned = np.flatnonzero(self.turned[cols])
        if turned.size:  # back to the lab frame, R rho R^dag
            frame = self.frames[cols[turned]]
            rho[turned] = frame @ rho[turned] @ frame.conj().swapaxes(1, 2)
        self.states[cols, k] = rho
        self.rhs_norms[cols, k] = norms[kept]
        np.maximum.at(self.taken, cols, k + 1)
        np.maximum.at(self.drift, cols, trace_drift[kept])
        np.minimum.at(self.eig_low, cols, eig_min[kept])

    def _dense_output(self, k: np.ndarray, cols: np.ndarray, step_of: np.ndarray, step_cols: np.ndarray,
                      t0: np.ndarray, h: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """States and dx/dt at samples ``k`` of columns ``cols`` from DOP853's dense output.

        Sample i lies inside step ``step_of[i]``, which column ``step_cols``
        took from ``t0`` over ``h`` with stages ``w[:, :_STEP_ROWS]``.
        """
        stages = np.empty((len(w), 17, w.shape[2]))
        stages[:, :_STEP_ROWS] = w
        step_sup = self.sup.take(step_cols)
        for s in range(13, 16):
            y = np.matmul(_DOP853_STAGES[s], stages[:, : s + 1])[:, 0]
            stages[:, s + 1] = h[:, None] * block_rhs(y, step_sup)
        theta = (self.times[k] - t0[step_of]) / h[step_of]
        powers = theta[:, None, None] ** np.arange(8)
        x = np.matmul(np.matmul(powers, _DOP853_DENSE), stages[step_of])[:, 0]
        return x, block_rhs(x, self.sup.take(cols))


def _rk4(samples: _Samples, x: np.ndarray, sup: MasterSuperops, dt: float, sample_every: int,
         n_steps: int) -> None:
    """Classical RK4 at the fixed step ``dt``, sampled every ``sample_every`` steps."""
    live = np.arange(len(x))
    rhs = _RhsScratch(live.size, sup)
    for step in range(n_steps + 1):
        k1 = None
        if step % sample_every == 0 or step == n_steps:
            # four evaluations a step; the one at this sample is the next step's k1
            samples.steps[live], samples.rhs_evals[live] = step, 4 * step + 1
            k1 = block_rhs(x, sup, rhs).copy()
            samples.take(live, x, k1)
            if step == n_steps:
                break
            stopped = samples.stopped[live]
            if stopped.any():
                keep = ~stopped
                live, x, k1, sup = live[keep], x[keep], k1[keep], sup.take(keep)
                if not live.size:
                    break
                rhs = _RhsScratch(live.size, sup)
        if k1 is None:
            k1 = block_rhs(x, sup, rhs).copy()
        k2 = block_rhs(x + (0.5 * dt) * k1, sup, rhs).copy()
        k3 = block_rhs(x + (0.5 * dt) * k2, sup, rhs).copy()
        k4 = block_rhs(x + dt * k3, sup, rhs)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _error_norm(w: np.ndarray, x: np.ndarray, x_new: np.ndarray) -> np.ndarray:
    """DOP853's blend of its 5th- and 3rd-order error estimates, per column, as an RMS over the width of x."""
    b, n = x.shape
    scale = ATOL + RTOL * np.maximum(np.abs(x), np.abs(x_new))
    err = np.matmul(_DOP853_ERROR, w)
    err /= scale[:, None, :]
    squares = np.matmul(err, err.swapaxes(1, 2))  # per column: [[|e5|^2, .], [., |e3|^2]]
    e5, e3 = squares[:, 0, 0], squares[:, 1, 1]
    denom = e5 + 0.01 * e3
    return np.divide(e5, np.sqrt(denom * n), out=np.zeros(b), where=denom != 0.0)


def _dop853(samples: _Samples, x: np.ndarray, sup: MasterSuperops, dt: float, floor: float) -> None:
    """DOP853 under error control, each column with its own step and clock.

    The first step is ``dt``.  A column whose step falls below ``floor`` or
    whose error estimate is not finite raises :class:`PhysicsViolationError`,
    unless the sample pass finds that it stopped at a steady state before.
    The stages go into buffers of the live block, rebuilt only when a column
    leaves; an accepted step with samples due queues them with
    :meth:`_Samples.take`, which works out everything else they need.
    """
    times = samples.times
    t_final = times[-1]
    # the error is an RMS over all d^2 coordinates, of which those off the sector are 0
    rms_over_d2 = math.sqrt(x.shape[1] / samples.d**2)
    live = np.arange(len(x))
    f = block_rhs(x, sup)
    samples.rhs_evals[live] += 1
    samples.take(live, x.copy(), f.copy())  # x, t and f are updated in place below
    t = np.zeros((live.size, 1))
    h = np.full((live.size, 1), dt)
    rejected = np.zeros(live.size, dtype=bool)
    leaving = np.zeros(live.size, dtype=bool)
    built = 0
    while True:
        leaving |= samples.stopped[live]
        if leaving.any():
            keep = ~leaving
            live, t, h, x, f, rejected, leaving = (
                a[keep] for a in (live, t, h, x, f, rejected, leaving)
            )
            sup = sup.take(keep)
        if not live.size:
            return
        if built != live.size:
            # w[:, 0] is the state at the step's start, w[:, 1 + i] the step times stage i
            w = np.empty((live.size, _STEP_ROWS, x.shape[1]))
            heads = [w[:, : s + 1] for s in range(_STEP_ROWS)]
            rows = list(w.swapaxes(0, 1))
            rhs = _RhsScratch(live.size, sup)
            built = live.size
        small = h[:, 0] < floor
        if small.any():
            j = np.argmax(small)
            samples.stepper_failure(f"step {h[j, 0]:.3e} s below the floor of {floor:.3e} s", live[j], t[j, 0])
            continue
        t_new = np.minimum(t + h, t_final)
        step = t_new - t
        rows[0][...] = x
        np.multiply(step, f, out=rows[1])
        for s in range(1, 13):
            np.matmul(_DOP853_STAGES[s], heads[s], out=rhs.x3)  # stage s's state; at s = 12 the new one
            np.multiply(block_rhs(rhs.x, sup, rhs), step, out=rows[s + 1])
        x_new, f_new = rhs.x, rhs.f
        err = _error_norm(w, x, x_new) * rms_over_d2
        if not np.isfinite(err).all():
            j = np.argmin(np.isfinite(err))
            samples.stepper_failure("step error estimate became non-finite", live[j], t[j, 0])
            continue
        accepted = err < 1.0
        factor = SAFETY * np.maximum(err, 1e-300) ** ERROR_EXPONENT
        grow = np.minimum(MAX_FACTOR, factor)
        grow = np.where(rejected, np.minimum(1.0, grow), grow)
        h = step * np.where(accepted, grow, np.maximum(MIN_FACTOR, factor))[:, None]
        rejected = ~accepted

        # the samples in (t, t_new] of each accepted column; those strictly
        # inside the step need the three extra stages of the dense output and
        # one evaluation each
        first = samples.queued[live]
        due = np.where(accepted, np.searchsorted(times, t_new[:, 0], side="right") - first, 0)
        inside = np.where(accepted, np.searchsorted(times, t_new[:, 0], side="left") - first, 0)
        samples.steps[live] += accepted
        samples.rhs_evals[live] += 12 + np.where(inside > 0, 3 + inside, 0)
        if due.any():
            sel = np.flatnonzero(due)
            dense = sel[inside[sel] > 0]
            samples.take(live[sel], x_new[sel], f_new[sel], due[sel], inside[sel],
                         (t[dense, 0], step[dense, 0], w[dense]), stepped=1)

        for now, new in ((t, t_new), (x, x_new), (f, f_new)):
            np.copyto(now, new, where=accepted[:, None])
        leaving = accepted & (t_new[:, 0] == t_final)


def spin_temperature_state(
    beta: float, ops: SpinOperatorSet, axis: Sequence[float] = (0.0, 0.0, 1.0)
) -> np.ndarray:
    """Spin-temperature state rho ~ exp(beta * n.F), n the unit vector along ``axis``.

    Along z it is diagonal in the coupled basis, with populations
    proportional to exp(beta * m_F).  At beta = +inf (-inf) it is the pure
    stretched state m_F = F (m_F = -F) along n.
    """
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise ValueError("axis must be a nonzero vector")
    n = n / norm
    gen = n[0] * ops.f_ops[0] + n[1] * ops.f_ops[1] + n[2] * ops.f_ops[2]
    w, u = np.linalg.eigh(gen)
    shift = w - (w.min() if beta < 0.0 else w.max())
    # exp(beta * shift) with the extreme level at exactly 1, also at beta = +-inf
    p = np.exp(np.multiply(beta, shift, out=np.zeros_like(shift), where=shift != 0.0))
    p /= p.sum()
    return (u * p) @ u.conj().T


def fit_spin_temperature(
    populations: np.ndarray, labels: tuple[tuple[float, float], ...]
) -> tuple[float, float]:
    """Fit populations to p(F, m_F) ~ exp(beta*m_F) with one shared norm.

    Least squares of ln p against m_F across both hyperfine manifolds, each
    ln p weighted by p, since an absolute error dp moves ln p by dp/p.  Returns
    (beta, max relative population residual).  Populations on one stretched
    level, m_F = +-F, to within ``STRETCHED_TOL`` are fully polarized:
    (+-inf, 0).
    """
    p = np.clip(np.asarray(populations, dtype=float), 1e-300, None)
    m = np.array([mf for _, mf in labels])
    for sign in (1.0, -1.0):
        if p[np.argmax(sign * m)] >= (1.0 - STRETCHED_TOL) * p.sum():
            return sign * math.inf, 0.0
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
    beta = ln((1 + P) / (1 - P)), inf at P = 1, and P = :func:`pump_polarization`.
    That is an exact fixed point: rho = rho_I (x) rho_S commutes with H0 = A I.S, and
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

    pol = pump_polarization(params)
    rho = ops.maximally_mixed()
    if pol > 0.0:  # at P = 1, beta = inf: the pure stretched state
        beta = math.log((1.0 + pol) / (1.0 - pol)) if pol < 1.0 else math.inf
        rho = spin_temperature_state(beta, ops, axis=params.s_vec)
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
    m2 = sup.reduce.shape[1] - sup.spin_columns
    r = x @ sup.reduce
    spin_rows = sup.expand[0, d2:].reshape(sup.spin_columns, m2, d2)
    transposed = sup.expand[0, :d2] + sup.reduce[:, m2:] @ (r[:m2] @ spin_rows)
    transposed += sup.reduce[:, :m2] @ np.tensordot(r[m2:], spin_rows, axes=1)
    return transposed.T
