import numpy as np
import pytest

from vaporspin.cell_rates import CellConfig, compute_rates
from vaporspin.config import RunConfig
from vaporspin.dynamics import PumpParams
from vaporspin.pipeline import simulate
from vaporspin.spin_algebra import build_coupled_operators


@pytest.fixture(scope="session")
def default_rates():
    return compute_rates(CellConfig())


@pytest.fixture(scope="session")
def ops8():
    """Rb-87 ground-state operator set (I = 3/2)."""
    return build_coupled_operators(nuclear_spin=1.5)


@pytest.fixture(scope="session")
def h0(ops8, default_rates):
    """H0 = A I.S in 1/s at the production hyperfine scale, A = 100 G_SE."""
    return 100.0 * default_rates.gamma_se * ops8.i_dot_s


@pytest.fixture(scope="session")
def make_params(default_rates):
    """Factory for pump parameters in units of the default spin-exchange rate."""
    g = default_rates.gamma_se

    def _make(s=0.5, r_op=1.0, axis="z", gamma_sd=None, a_hfs=100.0):
        vec = {"x": (s, 0.0, 0.0), "y": (0.0, s, 0.0), "z": (0.0, 0.0, s)}[axis]
        return PumpParams(
            r_op=r_op * g,
            s=vec,
            gamma_se=g,
            gamma_sd=default_rates.gamma_sd if gamma_sd is None else gamma_sd,
            a_hfs=a_hfs * g,
        )

    return _make


@pytest.fixture(scope="session")
def default_run():
    """The stock configuration run to its steady state (shared: it is slow)."""
    return simulate(RunConfig().validate())


@pytest.fixture
def rng():
    return np.random.default_rng(20250819)


def random_density_matrix(rng, dim=8, rank=None):
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _spin_matrices(j):
    m = np.arange(j, -j - 1, -1)
    raising = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    return [(raising + raising.T) / 2, (raising - raising.T) / 2j, np.diag(m).astype(complex)]


NESS_COLUMNS = (
    "s_along_pump", "beta_fit", "s_vn", "sigma", "energy_over_a",
    "ergotropy_over_a", "efficiency", "qfi_x", "qfi_y", "qfi_z",
)


def closed_form_ness(s_magnitude, r_op, gamma_sd, axis):
    """Observables of the I = 3/2 spin-temperature NESS, built without the package.

    rho ~ exp(beta n.F) with P = |s| R_op / (R_op + G_SD) and
    beta = ln((1 + P) / (1 - P)); I.S and F live in the uncoupled
    |m_I> (x) |m_S> basis here, and every observable is basis-free.
    Energies are in units of the hyperfine coupling A (H0 = A I.S).
    """
    nuc, el = _spin_matrices(1.5), _spin_matrices(0.5)
    eye_i, eye_s = np.eye(len(nuc[0])), np.eye(2)
    f_ops = [np.kron(i, eye_s) + np.kron(eye_i, s) for i, s in zip(nuc, el)]
    i_dot_s = sum(np.kron(i, s) for i, s in zip(nuc, el))
    k = "xyz".index(axis)
    pol = s_magnitude * r_op / (r_op + gamma_sd)
    beta = np.log((1 + pol) / (1 - pol))
    m, v = np.linalg.eigh(f_ops[k])
    p = np.exp(beta * (m - m.max()))
    p /= p.sum()
    rho = (v * p) @ v.conj().T
    levels = np.linalg.eigvalsh(i_dot_s)
    energy_raw = np.trace(rho @ i_dot_s).real
    energy = energy_raw - levels[0]
    ergotropy = energy_raw - np.sort(p)[::-1] @ levels
    s_vn = -p @ np.log(p)
    pair = (p[:, None] - p[None, :]) ** 2 / (p[:, None] + p[None, :])
    return {
        "s_along_pump": np.trace(rho @ np.kron(eye_i, el[k])).real,
        "beta_fit": beta,
        "s_vn": s_vn,
        "sigma": np.log(len(p)) - s_vn,
        "energy_over_a": energy,
        "ergotropy_over_a": ergotropy,
        "efficiency": ergotropy / energy,
        **{f"qfi_{a}": 2 * np.sum(pair * np.abs(v.conj().T @ f @ v) ** 2) for a, f in zip("xyz", f_ops)},
    }


def assert_matches_closed_form(row, s_magnitude, r_op, gamma_sd, axis, tol=1e-10):
    """The NESS columns of a CSV row (strings) against :func:`closed_form_ness`."""
    expected = closed_form_ness(s_magnitude, r_op, gamma_sd, axis)
    for column in NESS_COLUMNS:
        got = float(row[column])
        want = expected[column]
        assert abs(got - want) <= tol + tol * abs(want), (column, got, want)
