import math

import numpy as np
import pytest

from vaporspin.metrology import (
    cramer_rao_bound,
    linear_fit,
    quantum_fisher_information,
    reparametrize_monotone,
    second_divided_differences,
)
from vaporspin.dynamics import block_rhs, build_superops, mf_blocks
from vaporspin.pipeline import stacked_observables

from conftest import random_density_matrix


def variance(rho, g):
    g2 = np.trace(rho @ g @ g).real
    g1 = np.trace(rho @ g).real
    return g2 - g1 * g1


class TestQuantumFisherInformation:
    def test_pure_states_give_four_times_variance(self, ops8, rng):
        fx = ops8.f_ops[0]
        for _ in range(50):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            assert quantum_fisher_information(rho, fx) == pytest.approx(
                4.0 * variance(rho, fx), rel=1e-8, abs=1e-8
            )

    def test_stretched_state_transverse_rotation(self, ops8):
        # |2,2> has Var(F_x) = F/2 = 1, so F_Q = 4
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        assert quantum_fisher_information(rho, ops8.f_ops[0]) == pytest.approx(
            4.0, abs=1e-10
        )
        assert quantum_fisher_information(rho, ops8.f_ops[1]) == pytest.approx(
            4.0, abs=1e-10
        )

    def test_qubit_closed_form(self):
        # diag(p, 1-p) probed by sigma_x/2: F_Q = (1-2p)^2
        sx_half = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        for p in (0.0, 0.1, 0.37, 0.5, 0.9):
            rho = np.diag([p, 1.0 - p]).astype(complex)
            assert quantum_fisher_information(rho, sx_half) == pytest.approx(
                (1.0 - 2.0 * p) ** 2, abs=1e-12
            )

    def test_commuting_generator_gives_zero(self, ops8):
        # a state diagonal in F_z is insensitive to z rotations
        rho = np.diag(np.linspace(0.05, 0.2, 8)).astype(complex)
        rho /= np.trace(rho).real
        assert quantum_fisher_information(rho, ops8.f_ops[2]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_unitary_covariance(self, ops8, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        u = np.linalg.qr(a)[0]
        rho = random_density_matrix(rng)
        g = ops8.f_ops[0]
        direct = quantum_fisher_information(u @ rho @ u.conj().T, u @ g @ u.conj().T)
        assert direct == pytest.approx(quantum_fisher_information(rho, g), rel=1e-9)

    def test_convexity(self, ops8, rng):
        g = ops8.f_ops[0]
        for _ in range(10):
            rho1 = random_density_matrix(rng)
            rho2 = random_density_matrix(rng)
            lam = rng.uniform(0.2, 0.8)
            mix = lam * rho1 + (1.0 - lam) * rho2
            bound = lam * quantum_fisher_information(rho1, g) + (
                1.0 - lam
            ) * quantum_fisher_information(rho2, g)
            assert quantum_fisher_information(mix, g) <= bound + 1e-9

    def test_mixed_states_below_variance_bound(self, ops8, rng):
        g = ops8.f_ops[1]
        for _ in range(10):
            rho = random_density_matrix(rng)
            assert quantum_fisher_information(rho, g) <= 4.0 * variance(rho, g) + 1e-9

    def test_maximally_mixed_is_blind(self, ops8):
        rho = ops8.maximally_mixed()
        for g in ops8.f_ops:
            assert quantum_fisher_information(rho, g) == pytest.approx(0.0, abs=1e-12)


class TestCramerRaoBound:
    def test_values(self):
        assert cramer_rao_bound(4.0) == pytest.approx(0.5, rel=1e-12)
        assert cramer_rao_bound(0.0) == math.inf
        assert cramer_rao_bound(1e-320) == math.inf

    def test_sample_bundles_three_axes(self, ops8, make_params):
        x = np.zeros((1, mf_blocks(ops8).sector.size))
        x[0, 0] = 1.0  # the stretched level |F = 2, m_F = 2>
        sample = stacked_observables(x, make_params(), ops8, block_rhs(x, build_superops(make_params(), ops8)))
        assert sample["qfi_x"][0] == pytest.approx(4.0, abs=1e-10)
        assert sample["crb_x"][0] == pytest.approx(0.5, abs=1e-10)
        assert sample["qfi_z"][0] == pytest.approx(0.0, abs=1e-10)
        assert sample["crb_z"][0] == math.inf


class TestLinearFit:
    def test_recovers_exact_line(self):
        x = np.linspace(0.0, 5.0, 40)
        a, b, r2 = linear_fit(x, 2.5 * x - 1.25)
        assert a == pytest.approx(2.5, rel=1e-12)
        assert b == pytest.approx(-1.25, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_reports_perfect_fit(self):
        x = np.linspace(0.0, 1.0, 30)
        y = np.full(30, 7.0)
        y[11] += 3e-12  # numerical dust must not destroy the fit quality
        _, _, r2 = linear_fit(x, y)
        assert r2 == 1.0

    def test_imperfect_fit_reports_r_squared_below_one(self, rng):
        x = np.linspace(0.0, 1.0, 200)
        y = x + 0.3 * rng.standard_normal(200)
        _, _, r2 = linear_fit(x, y)
        assert 0.0 < r2 < 0.99

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            linear_fit(np.arange(3.0), np.arange(4.0))
        with pytest.raises(ValueError):
            linear_fit(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            linear_fit(np.ones((2, 2)), np.ones((2, 2)))


class TestSecondDividedDifferences:
    def test_linear_data_has_no_curvature(self):
        x = np.array([0.0, 0.4, 1.1, 1.3, 2.9])
        d2 = second_divided_differences(x, 3.0 * x + 1.0)
        assert np.max(np.abs(d2)) < 1e-12

    def test_quadratic_on_uneven_grid(self, rng):
        x = np.sort(rng.uniform(0.0, 4.0, size=25))
        d2 = second_divided_differences(x, 3.0 * x**2 + x - 2.0)
        assert d2 == pytest.approx(np.full(23, 3.0), rel=1e-8)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            second_divided_differences(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


class TestReparametrizeMonotone:
    def test_sorts_by_x(self):
        x = np.array([3.0, 1.0, 2.0])
        y = np.array([30.0, 10.0, 20.0])
        xs, ys = reparametrize_monotone(x, y)
        assert np.array_equal(xs, [1.0, 2.0, 3.0])
        assert np.array_equal(ys, [10.0, 20.0, 30.0])

    def test_drop_below_cuts_transient(self):
        x = np.array([0.0, 1e-6, 0.5, 1.5])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        xs, ys = reparametrize_monotone(x, y, drop_below=0.1)
        assert np.array_equal(xs, [0.5, 1.5])
        assert np.array_equal(ys, [2.0, 3.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="time grid"):
            reparametrize_monotone(np.arange(3.0), np.arange(4.0))
