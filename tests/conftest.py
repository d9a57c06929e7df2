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
def ops8(default_rates):
    """Rb-87 ground-state operator set with the production hyperfine scale."""
    return build_coupled_operators(nuclear_spin=1.5, a_hfs=100.0 * default_rates.gamma_se)


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
