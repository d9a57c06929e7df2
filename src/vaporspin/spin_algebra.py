"""Angular-momentum matrices and the coupled |F, m_F> basis.

Builds electron (S = 1/2) and nuclear (arbitrary half-integer I) spin
operators on the product space, couples them with the closed-form
Clebsch-Gordan coefficients of I x 1/2 (the only coupling an alkali ground
state needs: F = I +- 1/2), and exposes everything in the hyperfine basis
ordered F = I + 1/2 manifold first, m_F descending within each manifold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "build_spin_matrices",
    "clebsch_gordan",
    "build_coupled_operators",
    "SpinOperatorSet",
]


def _two_j(j: float, name: str) -> int:
    """Validate a (half-)integer angular momentum and return 2j as int."""
    two_j = round(2.0 * j)
    if abs(2.0 * j - two_j) > 1e-9 or two_j < 0:
        raise ValueError(f"{name} must be a non-negative half-integer, got {j}")
    return int(two_j)


def build_spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin matrices (Jx, Jy, Jz) for spin j in the |j, m> basis.

    Basis states are ordered by m descending (m = j first), so Jz is
    diag(j, j-1, ..., -j) and the raising operator sits on the first
    superdiagonal.
    """
    two_j = _two_j(j, "j")
    dim = two_j + 1
    m = (two_j - 2 * np.arange(dim)) / 2.0  # j, j-1, ..., -j
    jz = np.diag(m).astype(complex)
    # <j, m+1|J+|j, m> = sqrt(j(j+1) - m(m+1)); column index is the lower m
    lower = m[1:]
    c = np.sqrt(j * (j + 1) - lower * (lower + 1))
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(dim - 1), np.arange(1, dim)] = c
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return jx, jy, jz


def clebsch_gordan(i_spin: float, f_total: float, m_f: float, m_i: float, m_s: float) -> float:
    """Clebsch-Gordan coefficient <I m_I; 1/2 m_s | F m_F> of a nuclear spin I and the electron.

    Closed form for coupling to spin 1/2 (Condon-Shortley phases):
    <I m_I; 1/2 m_s | I + 1/2, m_F> = sqrt((I + 2 m_s m_F + 1/2) / (2I + 1)) and
    <I m_I; 1/2 m_s | I - 1/2, m_F> = -2 m_s sqrt((I - 2 m_s m_F + 1/2) / (2I + 1)).
    Returns 0.0 (rather than raising) whenever a selection rule is violated:
    m_F != m_I + m_s, |m| > j for any of the three pairs, or F != I +- 1/2.
    Non-half-integer inputs raise ValueError.
    """
    t_i = _two_j(i_spin, "I")
    t_f = _two_j(f_total, "F")
    t_mi = round(2.0 * m_i)
    t_ms = round(2.0 * m_s)
    t_mf = round(2.0 * m_f)
    for t_m, val, name in ((t_mi, m_i, "m_I"), (t_ms, m_s, "m_S"), (t_mf, m_f, "m_F")):
        if abs(2.0 * val - t_m) > 1e-9:
            raise ValueError(f"{name} must be a half-integer, got {val}")
    if t_mi + t_ms != t_mf or abs(t_ms) != 1 or abs(t_mi) > t_i or abs(t_mf) > t_f:
        return 0.0
    if (t_i - t_mi) % 2 or abs(t_f - t_i) != 1:
        return 0.0  # m_I must differ from I by an integer, and F = I +- 1/2
    sign = 1 if t_f > t_i else -1
    # in doubled notation: 2I + 1 = t_i + 1 and 2 m_s m_F = t_ms t_mf / 2
    root = math.sqrt((t_i + 1 + sign * t_ms * t_mf) / (2 * (t_i + 1)))
    return root if sign > 0 else -t_ms * root


@dataclass(frozen=True)
class SpinOperatorSet:
    """Coupled-basis operators for one alkali ground-state manifold.

    All matrices are read-only (dim, dim) complex arrays in the |F, m_F> basis
    with the F = I + 1/2 manifold first and m_F descending inside each manifold.
    ``u`` maps uncoupled |m_I> x |m_S> column vectors to coupled ones
    (X_coupled = U X_uncoupled U^dagger).  H0 in 1/s is ``params.a_hfs * i_dot_s``.
    """

    nuclear_spin: float
    dim: int
    labels: tuple[tuple[float, float], ...]  # (F, m_F) per basis index
    s_ops: np.ndarray = field(repr=False)  # (3, dim, dim) electron spin
    i_ops: np.ndarray = field(repr=False)  # (3, dim, dim) nuclear spin
    f_ops: np.ndarray = field(repr=False)  # (3, dim, dim) total spin
    i_dot_s: np.ndarray = field(repr=False)  # I . S, H0 in units of A
    u: np.ndarray = field(repr=False)  # (dim, dim) coupled <- uncoupled

    def maximally_mixed(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex) / self.dim


@functools.lru_cache(maxsize=None)
def build_coupled_operators(nuclear_spin: float = 1.5) -> SpinOperatorSet:
    """Spin operators of nuclear spin I (half-integer, >= 1/2) in the coupled hyperfine basis.

    Built once per nuclear spin and shared by every caller, so its arrays are
    read-only.
    """
    t_i = _two_j(nuclear_spin, "nuclear_spin")
    if t_i < 1:
        raise ValueError("nuclear_spin must be >= 1/2 for a coupled F basis")
    dim_i = t_i + 1
    dim = dim_i * 2

    sx1, sy1, sz1 = build_spin_matrices(0.5)
    ix1, iy1, iz1 = build_spin_matrices(nuclear_spin)
    eye_i = np.eye(dim_i)
    eye_s = np.eye(2)
    # uncoupled product basis |m_I> x |m_S>, both m's descending
    s_unc = np.stack([np.kron(eye_i, s) for s in (sx1, sy1, sz1)])
    i_unc = np.stack([np.kron(i, eye_s) for i in (ix1, iy1, iz1)])

    m_i_vals = [(t_i - 2 * k) / 2.0 for k in range(dim_i)]
    m_s_vals = [0.5, -0.5]
    unc_labels = [(mi, ms) for mi in m_i_vals for ms in m_s_vals]

    f_upper = nuclear_spin + 0.5
    f_lower = nuclear_spin - 0.5
    labels: list[tuple[float, float]] = []
    for f in (f_upper, f_lower):
        n_m = round(2 * f) + 1
        labels.extend((f, f - k) for k in range(n_m))

    u = np.zeros((dim, dim), dtype=complex)
    for row, (f, mf) in enumerate(labels):
        for col, (mi, ms) in enumerate(unc_labels):
            u[row, col] = clebsch_gordan(nuclear_spin, f, mf, mi, ms)

    def to_coupled(x: np.ndarray) -> np.ndarray:
        return u @ x @ u.conj().T

    s_ops = np.stack([to_coupled(x) for x in s_unc])
    i_ops = np.stack([to_coupled(x) for x in i_unc])
    f_ops = s_ops + i_ops
    i_dot_s = sum(i_ops[k] @ s_ops[k] for k in range(3))
    for x in (s_ops, i_ops, f_ops, i_dot_s, u):
        x.setflags(write=False)

    return SpinOperatorSet(
        nuclear_spin=nuclear_spin,
        dim=dim,
        labels=tuple(labels),
        s_ops=s_ops,
        i_ops=i_ops,
        f_ops=f_ops,
        i_dot_s=i_dot_s,
        u=u,
    )
