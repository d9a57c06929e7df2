"""Entropy, entropy production, ergotropy and pumping efficiency.

All entropies are in nats.  Energies are reported in units of the hyperfine
coupling (the only energy scale in the problem) unless stated otherwise.
The efficiency compares the extractable work (ergotropy) against the mean
energy above the ground state, both measured with the hyperfine Hamiltonian
shifted so its lowest eigenvalue is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import master_rhs
from .spin_algebra import SpinOperatorSet

__all__ = [
    "von_neumann_entropy",
    "relative_entropy",
    "entropy_production",
    "entropy_production_rate",
    "production_rate_floor",
    "passive_state",
    "ergotropy",
    "mean_energy_above_ground",
    "efficiency",
    "ThermoSample",
    "thermo_sample",
]

EIG_CLIP = 1e-15
# stored energy below this fraction of the spread of H0's spectrum is roundoff
ENERGY_FLOOR = 1e-12


def _spectrum(rho: np.ndarray) -> np.ndarray:
    """The occupied eigenvalues, capped at 1 and renormalized to sum to 1.

    A level at or below ``EIG_CLIP`` counts as empty and is left out, so
    roundoff eigenvalues (small or negative) do not poison the logarithms,
    and a pure state has entropy exactly 0.  This changes entropies by
    O(d * 1e-15) at most.
    """
    w = np.linalg.eigvalsh(rho)
    w = np.minimum(w[w > EIG_CLIP], 1.0)
    return w / w.sum()


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr[rho ln rho] in nats."""
    w = _spectrum(rho)
    return float(0.0 - np.dot(w, np.log(w)))  # 0.0 - x, so a pure state reads 0, not -0


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho || sigma) = Tr[rho ln rho] - Tr[rho ln sigma] in nats.

    Returns inf when rho has weight outside the support of sigma (weight
    above 1e-12 on sigma-eigenvectors with eigenvalue below 1e-15).
    """
    wr, ur = np.linalg.eigh(rho)
    ws, us = np.linalg.eigh(sigma)
    wr = np.clip(wr.real, 0.0, None)
    overlap = np.abs(ur.conj().T @ us) ** 2  # overlap[i, j] = |<r_i|s_j>|^2
    outside = ws.real < EIG_CLIP
    if np.any(outside) and float(wr @ overlap[:, outside].sum(axis=1)) > 1e-12:
        return float("inf")
    wr_pos = np.clip(wr, EIG_CLIP, 1.0)
    term_r = float(np.dot(wr, np.log(wr_pos)))
    ws_pos = np.clip(ws.real, EIG_CLIP, 1.0)
    term_s = float(wr @ overlap @ np.log(ws_pos))
    return term_r - term_s


def entropy_production(rho: np.ndarray) -> float:
    """Total entropy produced since the maximally mixed state.

    For a unital-reference process with the fully mixed state as the zero
    point this is the relative entropy D(rho || 1/d) = ln d - S(rho) >= 0,
    so a roundoff below 0 reads 0.
    """
    d = rho.shape[0]
    return max(float(np.log(d)) - von_neumann_entropy(rho), 0.0)


def production_rate_floor(spectra: np.ndarray, params, ops: SpinOperatorSet) -> np.ndarray:
    """Smallest |d(Sigma)/dt| that clipped spectra of shape (..., d) resolve.

    drho/dt sums terms up to R * rho, with R = (spread of H0) + R_op + G_SE + G_SD,
    so it carries a roundoff of order d * eps * R * ||rho||_F; Tr[drho/dt ln rho]
    inherits that times ||ln rho||_F.  A Newton-polished steady state is a zero of
    drho/dt to that roundoff, so its rate reads exactly 0.
    """
    energy = (params.a_hfs * ops.i_dot_s).diagonal().real
    rate = np.ptp(energy) + params.r_op + params.gamma_se + params.gamma_sd
    norms = np.linalg.norm(spectra, axis=-1) * np.linalg.norm(np.log(spectra), axis=-1)
    return spectra.shape[-1] * np.finfo(float).eps * rate * norms


def entropy_production_rate(rho: np.ndarray, params, ops: SpinOperatorSet) -> float:
    """d(Sigma)/dt = Tr[drho/dt * ln rho] evaluated from the equation of motion.

    Because Tr[drho/dt] = 0, any constant shift of ln rho (including the
    normalization of the clipped spectrum) drops out exactly.  A rate below
    :func:`production_rate_floor` is returned as exactly 0.
    """
    drho_dt = master_rhs(rho, params, ops)
    w, u = np.linalg.eigh(rho)
    w = np.clip(w.real, EIG_CLIP, 1.0)
    log_rho = (u * np.log(w)) @ u.conj().T
    rate = float(np.trace(drho_dt @ log_rho).real)
    return rate if abs(rate) > production_rate_floor(w, params, ops) else 0.0


def passive_state(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Permute the spectrum of rho onto the eigenbasis of h, largest first.

    The result is the lowest-energy state reachable from rho by unitaries:
    descending populations matched to ascending energy levels.
    """
    w = np.sort(np.linalg.eigvalsh(rho).real)[::-1]
    eps, u = np.linalg.eigh(h)
    order = np.argsort(eps, kind="stable")
    u = u[:, order]
    return (u * w) @ u.conj().T


def ergotropy(rho: np.ndarray, h: np.ndarray) -> float:
    """Maximum work unitarily extractable from rho under Hamiltonian h.

    Tr[rho h] - Tr[passive(rho) h]; basis-free via sorted spectra.
    """
    w = np.sort(np.linalg.eigvalsh(rho).real)[::-1]
    eps = np.sort(np.linalg.eigvalsh(h).real)
    energy = float(np.trace(rho @ h).real)
    passive_energy = float(np.dot(w, eps))
    value = energy - passive_energy
    return max(value, 0.0)


def mean_energy_above_ground(rho: np.ndarray, h: np.ndarray) -> float:
    """Tr[rho h] with h shifted so its lowest eigenvalue is zero."""
    ground = float(np.linalg.eigvalsh(h).min())
    return float(np.trace(rho @ h).real) - ground


def efficiency(rho: np.ndarray, h: np.ndarray) -> float:
    """Ergotropy divided by mean energy above the ground state, in [0, 1].

    Defined as 0 when the stored energy is zero (nothing to extract), which
    includes energies at roundoff level: a pure ground state of h would
    otherwise divide roundoff by roundoff.
    """
    energy = mean_energy_above_ground(rho, h)
    eps = np.linalg.eigvalsh(h)
    if not (np.isfinite(energy) and energy > ENERGY_FLOOR * (eps[-1] - eps[0])):
        return 0.0
    value = ergotropy(rho, h) / energy
    return float(min(max(value, 0.0), 1.0))


@dataclass
class ThermoSample:
    """Thermodynamic observables of one state (energies in units of a_hfs)."""

    s_vn: float
    sigma: float
    sigma_rate: float
    energy: float
    ergotropy: float
    efficiency: float


def thermo_sample(rho: np.ndarray, params, ops: SpinOperatorSet) -> ThermoSample:
    h = params.a_hfs * ops.i_dot_s
    scale = params.a_hfs if params.a_hfs > 0.0 else 1.0
    return ThermoSample(
        s_vn=von_neumann_entropy(rho),
        sigma=entropy_production(rho),
        sigma_rate=entropy_production_rate(rho, params, ops),
        energy=mean_energy_above_ground(rho, h) / scale,
        ergotropy=ergotropy(rho, h) / scale,
        efficiency=efficiency(rho, h),
    )
