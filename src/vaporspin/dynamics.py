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
(:func:`master_rhs`, the oracle) and, over a block of states on the
pump-frame sector, the exact quadratic field f(x) = x A + (x . r)(x K) of
:func:`build_superops` (:func:`block_rhs`), used by the integrators, the
Newton solve and the entropy production rate.  The field works in real
coordinates: a state's coefficients on the orthonormal Hermitian basis
of :func:`hermitian_basis` (|i><i|, then (|i><j| + |j><i|)/sqrt 2, then
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
the Delta m_F = 0 coordinates ever move (:attr:`MFBlocks.sector`), 14 of 64 for
I = 3/2 and 22 of 144 for I = 5/2; the block steps those alone, with the
factors of :func:`build_superops`.  :mod:`vaporspin.stepper` steps them (an
order-24 Taylor series under error control, which may stop a column at its
steady state; ``fixed_step=True``: RK4 at the step ``dt`` to the end) and
knows nothing of rho: this module hands it the factors A, K and r of each
block of columns and the guards.  A pump-frame state is
block-diagonal in m_F, with blocks of one or two levels, so its spectrum is
closed form (:func:`block_spectra`); the guards read trace and positivity
off it.  A :class:`Trajectory` keeps the sector coordinates as stepped,
with the dx/dt that steady detection evaluated at each of them.
Samples fall on the grid ``(k * sample_every) * dt`` plus the end.  Steady
states are detected along a trajectory (``Trajectory.steady_index``) or
solved for on the sector with a Newton iteration from their closed form
(:func:`solve_steady_state`); :func:`lab_states` lifts either to the lab.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import stepper
from .spin_algebra import SpinOperatorSet, build_coupled_operators, build_spin_matrices
from .stepper import PhysicsViolationError

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
    "lab_states",
    "mf_blocks",
    "block_spectra",
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
# 1 and the electron spin matrices S_k = sigma_k / 2 of the electron factor
_SIGMA = np.stack([np.eye(2, dtype=complex), *build_spin_matrices(0.5)])

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
class MFBlocks:
    """What the pump-frame Delta m_F = 0 sector of one nuclear spin fixes (:func:`mf_blocks`).

    ``sector`` lists, in order, the coordinates that a pump-frame run from
    the maximally mixed state can make nonzero: the d populations, then the
    real and then the imaginary coordinates of the coherence between each
    pair of levels with equal m_F, d + 4I coordinates.  A z pump conserves
    F_z, so from a state diagonal in m_F no coherence with Delta m_F != 0
    ever grows; on states that vanish off the sector the right-hand side
    vanishes there too, so :func:`build_superops`, which acts on the sector
    alone, is exact along the run.

    Two levels share an m_F only across the manifolds F = I +- 1/2, so each
    block has one or two levels.  ``single`` are the two levels alone in
    theirs, m_F = +-(I + 1/2).  Pair k, m_F descending, is the level
    ``upper[k]`` of F = I + 1/2 and ``lower[k]`` of F = I - 1/2; its
    coherence rho[upper, lower] is (x[d + k] + i x[d + 2I + k]) / sqrt 2.
    ``levels`` lists every block, m_F descending, as [upper, lower], with
    -1 for the missing level of a block of one: the first and the last.

    The factors of :func:`build_superops` that do not depend on the
    parameters (:class:`MasterSuperops` has the notation): ``r``, the
    sector coordinates of S_z; ``constant``, with x @ constant[0] =
    (G_0 q)^T and x @ constant[1] = (G_z q)^T; and ``spin``, the map
    x -> (G_z q)^T that K scales by 2 G_SE.

    The tables of :func:`vaporspin.pipeline.stacked_observables`:
    ``fx[k]``, real, is F_x from m_F block k to k + 1 as [upper -> upper,
    lower -> lower], 0 where a block has one level: F_x conserves F, so it
    joins no upper level to a lower one (those elements are 0 to rounding).
    ``odd`` holds F_z and S_z as columns, on the population differences
    x[plus] - x[minus] of each level with m_F > 0 and its m_F -> -m_F
    mirror in the same manifold, then on the coherence coordinates: both
    operators are odd under that mirror, so a state symmetric under it
    reads exactly 0, whatever the rounding of their matrix elements.

    Every array is read-only, since every caller shares it.
    """

    sector: np.ndarray
    single: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    levels: np.ndarray
    r: np.ndarray
    constant: np.ndarray
    spin: np.ndarray
    fx: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    odd: np.ndarray


@functools.lru_cache(maxsize=None)
def _mf_blocks(nuclear_spin: float) -> MFBlocks:
    ops = build_coupled_operators(nuclear_spin)
    d, d_i = ops.dim, ops.dim // 2
    i, j = _pairs(d)
    m_f = np.array([m for _, m in ops.labels])
    equal = np.flatnonzero(m_f[i] == m_f[j])
    upper, lower = i[equal], j[equal]
    single = np.flatnonzero(np.abs(m_f) == m_f.max())
    pad = np.array([-1])
    sector = np.concatenate([np.arange(d), d + equal, d + i.size + equal])
    levels = np.stack([np.concatenate([single[:1], upper, single[1:]]),
                       np.concatenate([pad, lower, pad])], axis=1)

    # g[k, b] = coordinates of U (B_b (x) sigma_k) U^dag, for B_b the Hermitian
    # basis of the nuclear factor; q_b = Tr((B_b (x) 1) U^dag rho U) = g[0, b] . x
    nuclear = hermitian_basis(d_i)
    product = (nuclear[None, :, :, None, :, None] * _SIGMA[:, None, None, :, None, :]).reshape(-1, d)
    coupled = np.tensordot(ops.u, (product @ ops.u.conj().T).reshape(-1, d, d), axes=(1, 1))
    g = to_coordinates(coupled.transpose(1, 0, 2)).reshape(4, d_i * d_i, d * d)[[0, 3]]
    # a sector state feeds the populations of m_I, the first d_i of B_b, and <S_z>
    fed = g[:, :d_i, sector]
    # formed at full width, then cut: formed from cut operands, the sums run
    # in another order and the last bits change
    constant = np.matmul(g[0].T, g)[:, sector[:, None], sector]

    present = levels >= 0
    index = {label: k for k, label in enumerate(ops.labels)}
    plus = np.array([k for k, (_, m) in enumerate(ops.labels) if m > 0])
    coordinates = to_coordinates(np.stack([ops.f_ops[2], ops.s_ops[2]]))[:, sector]
    blocks = MFBlocks(
        sector=sector,
        single=single,
        upper=upper,
        lower=lower,
        levels=levels,
        # its own contiguous array: a row of ``coordinates`` holds the same
        # values, but as a strided view, and on it matmul sums in another order
        r=to_coordinates(ops.s_ops[2])[sector],
        constant=constant,
        spin=fed[0].T @ fed[1],
        fx=np.where(present[:-1] & present[1:], ops.f_ops[0][levels[:-1], levels[1:]].real, 0.0),
        plus=plus,
        minus=np.array([index[f, -m] for f, m in (ops.labels[k] for k in plus)]),
        odd=np.concatenate([coordinates[:, plus], coordinates[:, d:]], axis=1).T,
    )
    for table in vars(blocks).values():
        table.setflags(write=False)
    return blocks


def mf_blocks(ops: SpinOperatorSet) -> MFBlocks:
    """The sector record of ``ops``' nuclear spin (:class:`MFBlocks`), built once per nuclear spin."""
    return _mf_blocks(ops.nuclear_spin)


@dataclass(frozen=True)
class MasterSuperops:
    """The pump-frame sector equations of a block of B columns, as the factors of a quadratic field.

    The electron-depolarized part is phi = Tr_S(rho) (x) 1/2 (Appelt et al.,
    PRA 58, 1412 (1998)).  In its pump frame a column is pumped along z, with
    s_z = +-|s|, and its state stays on :attr:`MFBlocks.sector`, where it commutes
    with F_z.  There x holds the n = d + 4I sector coordinates of rho,
    Tr_S(rho) is diagonal in the uncoupled |m_I> basis with populations q
    (linear in x), only <S_z> = x . r of <S> is nonzero, and G_k q are the
    sector coordinates of U (diag q (x) sigma_k) U^dag in the coupled basis
    (sigma_0 = 1, sigma_z = S_z).  The right-hand side is

        f(x) = L x + (c/2) G_0 q + alpha G_z q,
        c = R_op + G_SE + G_SD,  alpha = R_op s_z + 2 G_SE <S_z>,

    with L the commutator with H0 (H0 is diagonal in |F, m_F>, so L rotates
    each pair of coherence coordinates) minus c.  As row vectors that is
    f(x) = x A + (x . r)(x K) (:func:`vaporspin.stepper.field`): ``A[b]``
    folds in L and the constant terms (c/2) G_0 + R_op s_z G_z of column b,
    ``K[b]`` is 2 G_SE times the map x -> G_z q, and ``r`` holds the sector
    coordinates of S_z, shared by every column.
    """

    A: np.ndarray = field(repr=False)  # (B, n, n)
    K: np.ndarray = field(repr=False)  # (B, n, n)
    r: np.ndarray = field(repr=False)  # (n,)


def build_superops(params: PumpParams | Sequence[PumpParams], ops: SpinOperatorSet) -> MasterSuperops:
    """The factors A, K and r of the pump-frame sector equations, for one parameter set or one column per set of a sequence.

    Each column is taken to its pump frame, where s lies along z with its
    |s| (a -z pump keeps its sign, and the identity frame), and its factors
    act on the coordinates of :attr:`MFBlocks.sector` alone: the right-hand side
    f(x) = x A + (x . r)(x K) that a run steps.  Each column's A combines
    the cached parameter-free factors with its own rates and the rotation by
    its own H0 = A I.S, and its K is 2 G_SE times the cached spin factor.
    """
    params_seq = [params] if isinstance(params, PumpParams) else list(params)
    blocks = mf_blocks(ops)
    upper, lower, constant, spin = blocks.upper, blocks.lower, blocks.constant, blocks.spin
    n = constant.shape[1]
    # the commutator rotates each coherence pair:
    # d/dt (x_s + i x_a) = -i (E_upper - E_lower) (x_s + i x_a)
    sym = ops.dim + np.arange(upper.size)
    anti = sym + upper.size
    diagonal = np.arange(n)
    linear = np.empty((len(params_seq), n, n))
    quadratic = np.empty((len(params_seq), n, n))
    for b, p in enumerate(params_seq):
        s_z = p.s[2] if p.s[0] == p.s[1] == 0.0 else math.hypot(*p.s)
        energy = (p.a_hfs * ops.i_dot_s).diagonal().real
        rotation = np.zeros((n, n))
        rotation[anti, sym] = energy[upper] - energy[lower]
        rotation[sym, anti] = energy[lower] - energy[upper]
        decay = p.r_op + p.gamma_se + p.gamma_sd
        linear[b] = rotation + (0.5 * decay) * constant[0] + (p.r_op * s_z) * constant[1]
        linear[b, diagonal, diagonal] -= decay
        quadratic[b] = (2.0 * p.gamma_se) * spin
    return MasterSuperops(A=linear, K=quadratic, r=blocks.r)


def block_spectra(x: np.ndarray, ops: SpinOperatorSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form spectra of pump-frame states from their sector coordinates ``x``, shape (..., d + 4I).

    A level alone in its m_F block (:func:`mf_blocks`) is its own
    eigenvalue.  A pair with populations a (upper) and c (lower) and
    coherence b has the eigenvalues mu +- r, mu = (a + c)/2,
    r = sqrt(delta^2 + |b|^2), delta = (a - c)/2, with the eigenvectors
    (cos t, e^{-i phi} sin t) and (-e^{i phi} sin t, cos t) on
    (upper, lower), t = theta/2.  Returns the eigenvalues, shape (..., d),
    with mu + r at each pair's upper level and mu - r = (ac - |b|^2)/(mu + r),
    to ulps where b = 0, at its lower (mu - r itself where mu + r = 0), and
    each pair's rotation angles theta = atan2(|b|, delta) and phi = arg b,
    shape (..., 2I).
    """
    blocks = mf_blocks(ops)
    d, pairs = ops.dim, blocks.upper.size
    a, c = x[..., blocks.upper], x[..., blocks.lower]
    re = x[..., d : d + pairs] * math.sqrt(0.5)
    im = x[..., d + pairs :] * math.sqrt(0.5)
    size, delta, mu = np.hypot(re, im), 0.5 * (a - c), 0.5 * (a + c)
    r = np.hypot(delta, size)
    w = np.empty(x.shape[:-1] + (d,))
    w[..., blocks.single] = x[..., blocks.single]
    w[..., blocks.upper] = top = mu + r
    w[..., blocks.lower] = np.divide(a * c - (re * re + im * im), top, out=mu - r, where=top != 0.0)
    return w, np.arctan2(size, delta), np.arctan2(im, re)


def lab_states(x: np.ndarray, params: PumpParams, ops: SpinOperatorSet) -> np.ndarray:
    """Lab-frame states R rho R^dag, shape (..., d, d), of pump-frame sector coordinates ``x``."""
    full = np.zeros(x.shape[:-1] + (ops.dim**2,))
    full[..., mf_blocks(ops).sector] = x
    rho, frame = from_coordinates(full), pump_frame(ops, params.s)
    if (frame == np.eye(ops.dim)).all():
        return rho
    return frame @ rho @ frame.conj().T


def _trace_drift(x: np.ndarray, d: int) -> np.ndarray:
    """|Tr rho - 1| of each row of coordinates ``x``, whose first d are the populations."""
    # stacked matmuls sum each row in the same order whatever the number of
    # rows; a reduction along axis 1 need not
    return np.abs(np.matmul(x[:, None, :d], np.ones((d, 1)))[:, 0, 0] - 1.0)


def pump_frame(ops: SpinOperatorSet, s: Sequence[float]) -> np.ndarray:
    """The rotation exp(-i theta n.F) that turns the z axis onto the photon spin ``s``.

    In the pump frame, rho' = R^dag rho R, the pump lies along z; n is the
    unit vector along z x s and theta the angle between z and s.  For s along
    z, or s = 0, R is the identity.  The last frames built are kept, read-only,
    so a run, its observable pass and its steady state share one.
    """
    return _pump_frame(ops.nuclear_spin, tuple(float(c) for c in s))


@functools.lru_cache(maxsize=64)
def _pump_frame(nuclear_spin: float, s: tuple[float, float, float]) -> np.ndarray:
    ops = build_coupled_operators(nuclear_spin)
    sx, sy, sz = s
    across = math.hypot(sx, sy)
    if across == 0.0:
        frame = np.eye(ops.dim, dtype=complex)
    else:
        w, v = np.linalg.eigh((-sy / across) * ops.f_ops[0] + (sx / across) * ops.f_ops[1])
        frame = (v * np.exp(-1j * math.atan2(across, sz) * w)) @ v.conj().T
    frame.setflags(write=False)
    return frame


def block_rhs(x: np.ndarray, sup: MasterSuperops) -> np.ndarray:
    """dx/dt = x A + (x . r)(x K) for a (B, n) block of pump-frame sector coordinates; column b uses factor b.

    n = d + 4I is the width of :attr:`MFBlocks.sector`.  This is
    :func:`vaporspin.stepper.field`, the evaluation the steppers make: its
    products are stacked matmuls, one per column, so a column's result does
    not depend on the block it sits in.  A one-column ``sup`` applies to
    every row of ``x``.
    """
    return stepper.field(x, sup.A, sup.K, sup.r)


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
    """Sampled solution of one integration run.

    The samples are kept as they were stepped: ``coordinates`` are the
    :attr:`MFBlocks.sector` coordinates of each state rho' in the pump frame R
    of ``params.s``, where the lab-frame state is R rho' R^dag, and ``rhs``
    is their dx/dt from the stepper's steady detection, so no reader
    evaluates the field again.  ``states``, ``max_trace_drift`` and
    ``min_eigenvalue`` are read off the coordinates on access.
    """

    times: np.ndarray  # (n,) seconds
    coordinates: np.ndarray | None  # (n, d + 4I) pump-frame sector coordinates; None under a keep
    rhs: np.ndarray | None  # (n, d + 4I) their dx/dt, as the stepper evaluated it; None under a keep
    params: PumpParams
    ops: SpinOperatorSet = field(repr=False)
    dt: float  # grid unit: samples at multiples of sample_every * dt (under fixed_step, the step)
    steady_index: int | None
    steps: int  # accepted steps
    # evaluations of drho/dt: the stepper's own (TAYLOR_ORDER per Taylor step,
    # under fixed_step four per RK4 step) and one per sample, for its dx/dt
    rhs_evals: int

    @functools.cached_property
    def states(self) -> np.ndarray:
        """The lab-frame states, shape (n, d, d), lifted from ``coordinates`` on first access."""
        return lab_states(self.coordinates, self.params, self.ops)

    @property
    def max_trace_drift(self) -> float:
        return float(_trace_drift(self.coordinates, self.ops.dim).max())

    @property
    def min_eigenvalue(self) -> float:
        return float(block_spectra(self.coordinates, self.ops)[0].min())

    @property
    def reached_steady(self) -> bool:
        return self.steady_index is not None

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

    The stepper is :func:`vaporspin.stepper.taylor` under error control,
    sampled off each step's series; ``fixed_step`` selects classical RK4
    with step ``dt`` instead.  ``rhs_evals`` counts the stepper's own
    evaluations of drho/dt and one per sample.  At each sample the state
    is checked: trace drift beyond 1e-6 or an eigenvalue below -1e-6
    raises :class:`PhysicsViolationError` (no silent projection back to
    the physical cone).  ``steady_tol`` is measured in units of G_SE: a sample
    with ||drho/dt||_F < steady_tol * G_SE marks the trajectory as steady,
    and with ``stop_at_steady`` integration ends there; RK4 steps to the
    end, and refuses that stop with :class:`ValueError`.  This is
    :func:`integrate_block` with one column.
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
    keep: Callable | None = None,
) -> list[Trajectory]:
    """:func:`integrate` for B parameter sets at once, one column each.

    Every column starts from the maximally mixed state and is sampled on the
    same grid; ``dt`` defaults to the smallest :func:`default_dt` of the
    block, and under ``fixed_step`` every column steps with RK4 at ``dt`` to
    the end.  Each column keeps its own step size, clock, guards, steady
    index and, under ``stop_at_steady`` (the Taylor stepper's alone), its
    own stop.  Each column steps in its pump frame, on the coordinates of
    :attr:`MFBlocks.sector`, so a returned trajectory equals the standalone
    run of its parameters bit for bit.  A guard failure raises
    :class:`PhysicsViolationError` with ``column`` set to the offending
    index.  Given a ``keep``, the callable that :class:`~vaporspin.stepper.Samples`
    hands each flush to, the trajectories store no sample.
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
    sector = mf_blocks(ops).sector
    # in its pump frame a column is pumped along z with its own |s|
    sup = build_superops(params_seq, ops)
    # the maximally mixed state is the same in every frame
    x = np.tile(to_coordinates(ops.maximally_mixed())[sector], (len(params_seq), 1))
    d = ops.dim

    def check(x: np.ndarray) -> np.ndarray:
        drift, eig_min = _trace_drift(x, d), block_spectra(x, ops)[0].min(axis=1)
        failure = np.full(len(x), "", dtype=object)
        low = eig_min < EIGENVALUE_FLOOR
        failure[low] = [f"eigenvalue {e:.3e} below -1e-6" for e in eig_min[low]]
        failure[drift > TRACE_TOL] = "trace drift exceeded 1e-6"  # reported before a low eigenvalue
        return failure

    stored = keep is None
    if stored:
        coordinates, rhs = np.empty((2, len(x), len(times), x.shape[1]))

        def keep(cols, k, t, x, f):
            coordinates[cols, k], rhs[cols, k] = x, f

    samples = stepper.Samples(times, [steady_tol * p.gamma_se for p in params_seq], stop_at_steady,
                              sup.A, sup.K, sup.r, check, keep)
    if fixed_step:
        stepper.rk4(samples, x, dt, sample_every, n_steps)
    else:
        stepper.taylor(samples, x, dt, width=d * d)
    samples.flush()

    trajectories = []
    for j, p in enumerate(params_seq):
        kept, steady_index = samples.taken[j], int(samples.steady[j])
        trajectories.append(Trajectory(
            times=times[:kept],
            coordinates=coordinates[j, :kept] if stored else None,
            rhs=rhs[j, :kept] if stored else None,
            params=p,
            ops=ops,
            dt=dt,
            steady_index=steady_index if steady_index >= 0 else None,
            steps=int(samples.steps[j]),
            rhs_evals=int(samples.rhs_evals[j]),
        ))
    return trajectories


def spin_temperature_state(
    beta: float, ops: SpinOperatorSet, axis: Sequence[float] = (0.0, 0.0, 1.0)
) -> np.ndarray:
    """Spin-temperature state rho ~ exp(beta * n.F), n the unit vector along ``axis``.

    It is R diag(p) R^dag, with R = :func:`pump_frame` of n and the populations
    p proportional to exp(beta * m_F), so along +-z it is exactly diagonal in
    the coupled basis.  At beta = +inf (-inf) it is the pure stretched state
    m_F = F (m_F = -F) along n.
    """
    n = np.asarray(axis, dtype=float)
    if np.linalg.norm(n) == 0.0:
        raise ValueError("axis must be a nonzero vector")
    m = np.array([m_f for _, m_f in ops.labels], dtype=float)
    if n[0] == n[1] == 0.0 and n[2] < 0.0:  # the pump frame of -z is the identity
        m = -m
    shift = m - (m.min() if beta < 0.0 else m.max())
    # exp(beta * shift) with the extreme level at exactly 1, also at beta = +-inf
    p = np.exp(np.multiply(beta, shift, out=np.zeros_like(shift), where=shift != 0.0))
    p /= p.sum()
    frame = pump_frame(ops, n)
    return (frame * p) @ frame.conj().T


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
    """Newton solve of drho/dt = 0 with the trace pinned to 1, on the pump-frame sector, from the closed form.

    Returns :attr:`MFBlocks.sector` coordinates, as a :class:`Trajectory` keeps
    them, the same for x, y and z pumps of one |s|.  Newton starts from
    rho ~ exp(beta n.F) along the in-frame pump axis n (+-z), with
    beta = ln((1 + P) / (1 - P)), inf at P = 1, and P = :func:`pump_polarization`.
    That is an exact fixed point: rho = rho_I (x) rho_S commutes with H0 = A I.S, and
    phi = rho_I (x) 1/2, so the collision and pump terms reduce to
    rho_I (x) n.S [R_op |s| - (R_op + G_SD) P] = 0 and the G_SE terms cancel.
    So Newton stops at its first residual check (below ``NEWTON_TOL`` of the
    fastest collisional or pumping rate, within ``NEWTON_MAX_ITER`` iterations),
    and the result depends on ``(params, ops)`` alone.  With every rate zero
    it is the maximally mixed state.  ``converged`` asks too that
    :func:`block_spectra` stay above -1e-9.
    """
    d, sector = ops.dim, mf_blocks(ops).sector
    x = to_coordinates(ops.maximally_mixed())[sector]
    scale = max(params.gamma_se, params.r_op, params.gamma_sd)
    if scale <= 0.0:
        return x, SteadyStateInfo(converged=True, residual=0.0, iterations=0)

    sup = build_superops(params, ops)
    pol = pump_polarization(params)
    if pol > 0.0:  # at P = 1, beta = inf: the pure stretched state
        beta = math.log((1.0 + pol) / (1.0 - pol)) if pol < 1.0 else math.inf
        # in its frame a pump lies along +z, or keeps its -z and its frame, the identity
        axis = (0.0, 0.0, params.s[2] if params.s[0] == params.s[1] == 0.0 else 1.0)
        x = to_coordinates(spin_temperature_state(beta, ops, axis=axis))[sector]
    trace_row = np.concatenate([np.ones(d), np.zeros(len(sector) - d)])
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
    else:  # out of iterations: the residual of the x returned, after its last update
        residual = float(np.linalg.norm(block_rhs(x[None], sup)[0]))

    converged = bool(residual < NEWTON_TOL * scale and block_spectra(x, ops)[0].min() > -1e-9)
    return x, SteadyStateInfo(converged=converged, residual=residual, iterations=iterations)


def _jacobian(x: np.ndarray, sup: MasterSuperops) -> np.ndarray:
    """d(block_rhs)/dx of a one-column ``sup`` at the coordinates ``x``, shape (n, n) for n = len(x).

    With f = x A + (x . r)(x K), the derivative of f_i by x_j is
    A_ji + r_j (x K)_i + (x . r) K_ji.
    """
    a, k = sup.A[0], sup.K[0]
    return (a + np.outer(sup.r, x @ k) + (x @ sup.r) * k).T
