"""Quantum Fisher information and rotation-sensing figures of merit.

The QFI here is always with respect to a unitary rotation generated by a
collective spin component: rho(theta) = exp(-i G theta) rho exp(i G theta).
For that family the standard spectral formula applies,

    F_Q[rho, G] = 2 * sum_{i,j} (l_i - l_j)^2 / (l_i + l_j) |<i|G|j>|^2,

with pairs of near-zero eigenvalues excluded (their contribution is zero in
the limit but numerically 0/0).  The phase-estimation shot-noise bound is
delta_theta >= 1/sqrt(F_Q) per probe.

A state that commutes with G has F_Q = 0 by symmetry, but its computed
eigenbasis is exact only for a neighbour rho + E, ||E||_F ~ eps * l_max, and
(a - b)^2 / (a + b) <= |a - b| gives F_Q[rho + E, G] <= 4 ||G||_F^2 ||E||_F.
So F_Q is resolved only down to d * eps * ||G||_F^2 * l_max (:func:`qfi_floor`,
2e-14 for F_x of the 8-level ground state); below it the QFI is exactly 0 and
its bound inf.  Symmetric states read up to 1e-23 without the floor; the
smallest true QFI on a default trajectory is about 1e-7.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "quantum_fisher_information",
    "qfi_floor",
    "cramer_rao_bound",
    "linear_fit",
    "second_divided_differences",
    "reparametrize_monotone",
]

PAIR_CUTOFF = 1e-12


def qfi_floor(spectra: np.ndarray, generator: np.ndarray) -> np.ndarray:
    """d * eps * ||G||_F^2 * l_max for spectra (..., d): the smallest QFI they resolve."""
    d = spectra.shape[-1]
    g_norm2 = float(np.sum(np.abs(generator) ** 2))
    return d * np.finfo(float).eps * g_norm2 * spectra.max(axis=-1)


def quantum_fisher_information(rho: np.ndarray, generator: np.ndarray) -> float:
    """QFI of rho for rotations generated by ``generator``; 0 below :func:`qfi_floor`."""
    w, u = np.linalg.eigh(rho)
    w = np.clip(w.real, 0.0, None)
    g = u.conj().T @ generator @ u
    li = w[:, None]
    lj = w[None, :]
    denom = li + lj
    keep = denom > PAIR_CUTOFF * max(w.sum(), 1e-300)
    num = (li - lj) ** 2
    ratio = np.zeros_like(denom)
    ratio[keep] = num[keep] / denom[keep]
    qfi = float(2.0 * np.sum(ratio * np.abs(g) ** 2))
    return qfi if qfi > qfi_floor(w, generator) else 0.0


def cramer_rao_bound(qfi: float) -> float:
    """Single-shot phase uncertainty bound 1/sqrt(F_Q); inf where F_Q is 0.

    A subnormal F_Q (below the smallest normal double) counts as 0: it is far
    below any :func:`qfi_floor`, so no QFI computed here is one.
    """
    if qfi < np.finfo(float).tiny:
        return float("inf")
    return 1.0 / np.sqrt(qfi)


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = a*x + b; returns (a, b, r_squared).

    A perfectly constant y (zero total variance) fits any line exactly, so
    r_squared is reported as 1.0 in that degenerate case.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("x and y must be equal-length 1-D arrays with >= 2 points")
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    flat = x.size * (1e-12 * (1.0 + abs(float(y.mean())))) ** 2
    if ss_tot <= flat:
        r2 = 1.0 if ss_res <= flat else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def second_divided_differences(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second divided differences f[x_i, x_{i+1}, x_{i+2}] of a sampled curve.

    Zero for exactly linear data irrespective of grid spacing; used as a
    model-free curvature probe.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 points")
    first = (y[1:] - y[:-1]) / (x[1:] - x[:-1])
    return (first[1:] - first[:-1]) / (x[2:] - x[:-2])


def reparametrize_monotone(
    x: np.ndarray, y: np.ndarray, *, drop_below: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Reorder a time series (x(t), y(t)) by ascending x.

    Both series must share one time grid (equal lengths).  ``drop_below``
    discards samples with x below that threshold — used to cut the initial
    transient where x has not yet accumulated and the curve is multivalued.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"series disagree on the time grid: {x.shape[0]} vs {y.shape[0]} samples"
        )
    if drop_below is not None:
        keep = x >= drop_below
        x, y = x[keep], y[keep]
    order = np.argsort(x, kind="stable")
    return x[order], y[order]
