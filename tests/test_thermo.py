import itertools
import math

import numpy as np
import pytest

from vaporspin.dynamics import (
    PumpParams, integrate, integrate_block, lab_states, pump_frame, solve_steady_state, spin_temperature_state,
)
from vaporspin.spin_algebra import build_coupled_operators
from vaporspin.thermo import (
    efficiency,
    entropy_production,
    entropy_production_rate,
    ergotropy,
    mean_energy_above_ground,
    passive_state,
    relative_entropy,
    thermo_sample,
    von_neumann_entropy,
)
from vaporspin.pipeline import stacked_observables

from conftest import random_density_matrix, random_unitary

LN8 = math.log(8.0)


def spin_temp_efficiency(beta):
    """Closed form for the I=3/2 coupled system.

    Populations exp(beta*m_F)/Z; the three largest sit in the upper three
    slots of the passive arrangement, which leaves ergotropy/energy equal to
    (1 + u - u^2 - u^3) / (1 + u + u^2 + u^3 + u^4) with u = exp(-beta).
    """
    u = math.exp(-beta)
    return (1 + u - u**2 - u**3) / (1 + u + u**2 + u**3 + u**4)


class TestVonNeumannEntropy:
    def test_maximally_mixed(self, ops8):
        assert von_neumann_entropy(ops8.maximally_mixed()) == pytest.approx(LN8, abs=1e-12)

    def test_pure_state(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[3, 3] = 1.0
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_invariance(self, rng):
        rho = random_density_matrix(rng)
        u = random_unitary(rng, 8)
        rotated = u @ rho @ u.conj().T
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )

    def test_spin_temperature_closed_form(self, ops8):
        # ratios of 3 between adjacent m_F levels: Z = 160/9, <F_z> = 1.3
        beta = math.log(3.0)
        rho = spin_temperature_state(beta, ops8)
        expected = math.log(160.0 / 9.0) - beta * 1.3
        assert von_neumann_entropy(rho) == pytest.approx(expected, rel=1e-12)


class TestRelativeEntropy:
    def test_self_distance_is_zero(self, rng):
        rho = random_density_matrix(rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            sigma = random_density_matrix(rng)
            assert relative_entropy(rho, sigma) > -1e-12

    def test_support_violation_is_infinite(self, ops8):
        sigma = np.zeros((8, 8), dtype=complex)
        sigma[5, 5] = sigma[6, 6] = sigma[7, 7] = 1.0 / 3.0
        assert relative_entropy(ops8.maximally_mixed(), sigma) == math.inf

    def test_distance_to_mixed_equals_entropy_production(self, ops8, rng):
        # two routes to the same number: D(rho || 1/8) and ln 8 - S(rho)
        mixed = ops8.maximally_mixed()
        for _ in range(10):
            rho = random_density_matrix(rng)
            assert relative_entropy(rho, mixed) == pytest.approx(
                entropy_production(rho), abs=1e-10
            )

    def test_entropy_production_of_the_turned_mixed_state_is_zero(self, ops8):
        # D(rho || 1/d) >= 0: the roundoff of ln 8 - S at the mixed state turned onto x reads 0
        frame = pump_frame(ops8, (1.0, 0.0, 0.0))
        assert entropy_production(frame @ ops8.maximally_mixed() @ frame.conj().T) == 0.0

    def test_rank_deficient_argument(self, ops8, rng):
        rho = random_density_matrix(rng, rank=3)
        d = relative_entropy(rho, ops8.maximally_mixed())
        assert math.isfinite(d)
        assert d == pytest.approx(entropy_production(rho), abs=1e-9)


def test_relative_entropy_to_the_ness_never_increases(ops8, make_params):
    # Spohn: D(rho(t) || rho_NESS) is non-increasing along a trajectory
    # (H. Spohn, J. Math. Phys. 19, 1227 (1978)); three series, one block,
    # 5 T_SE in 501 samples from the maximally mixed state
    series = [make_params(0.5, 1.0, "z"), make_params(0.75, 2.0, "x"), make_params(1.0, 0.25, "z")]
    t_end = 5.0 * series[0].t_se
    trajs = integrate_block(series, ops8, t_end=t_end, sample_every=50)
    for params, traj in zip(series, trajs):
        x, info = solve_steady_state(params, ops8)
        assert info.converged
        ness = lab_states(x, params, ops8)
        d = np.array([relative_entropy(rho, ness) for rho in traj.states])
        assert len(d) == 501 and d[-1] < 0.7 * d[0]
        # measured: every sample lowers D, by at least 4.6e-4 nats; the
        # allowance is the roundoff of the O(1) traces D is the difference of
        assert np.diff(d).max() <= 1e-13


class TestEntropyProductionRate:
    def test_zero_at_maximally_mixed(self, ops8, make_params):
        p = make_params(s=0.5)
        rate = entropy_production_rate(ops8.maximally_mixed(), p, ops8)
        assert abs(rate) < 1e-10 * p.gamma_se

    def test_positive_while_pumping(self, ops8, make_params):
        p = make_params(s=0.5)
        traj = integrate(p, ops8, t_end=3.0 * p.t_se, sample_every=500)
        for rho in traj.states[1:]:
            assert entropy_production_rate(rho, p, ops8) > 0.0

    def test_matches_finite_difference(self):
        # fourth-order central difference of Sigma(t) at the sampling stride
        ops = build_coupled_operators(nuclear_spin=1.5)
        p = PumpParams(r_op=1.0, s=(0, 0, 0.5), gamma_se=1.0, gamma_sd=0.0027, a_hfs=20.0)
        traj = integrate(p, ops, t_end=1.0, sample_every=1)
        sigma = np.array([entropy_production(r) for r in traj.states])
        rate = np.array([entropy_production_rate(r, p, ops) for r in traj.states])
        h = traj.times[1] - traj.times[0]
        fd = (-sigma[4:] + 8 * sigma[3:-1] - 8 * sigma[1:-3] + sigma[:-4]) / (12 * h)
        analytic = rate[2:-2]
        mask = np.abs(analytic) > 1e-4 * np.max(np.abs(analytic))
        rel = np.abs(fd[mask] - analytic[mask]) / np.abs(analytic[mask])
        assert np.max(rel) < 1e-5


class TestPassiveState:
    def test_commutes_with_hamiltonian(self, ops8, rng):
        rho = random_density_matrix(rng)
        pas = passive_state(rho, ops8.i_dot_s)
        comm = pas @ ops8.i_dot_s - ops8.i_dot_s @ pas
        assert np.max(np.abs(comm)) < 1e-12

    def test_minimizes_energy_over_unitaries(self, ops8, rng):
        rho = random_density_matrix(rng)
        pas = passive_state(rho, ops8.i_dot_s)
        floor = np.trace(pas @ ops8.i_dot_s).real
        for _ in range(100):
            u = random_unitary(rng, 8)
            rotated = u @ rho @ u.conj().T
            assert np.trace(rotated @ ops8.i_dot_s).real >= floor - 1e-9

    def test_idempotent(self, h0, rng):
        rho = random_density_matrix(rng)
        once = passive_state(rho, h0)
        twice = passive_state(once, h0)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_preserves_spectrum(self, h0, rng):
        rho = random_density_matrix(rng)
        pas = passive_state(rho, h0)
        assert np.linalg.eigvalsh(pas) == pytest.approx(np.linalg.eigvalsh(rho), abs=1e-12)


class TestErgotropy:
    def test_matches_brute_force_permutations(self, rng):
        # in dimension 4 the best unitary can be found by trying all 24
        # assignments of populations to energy levels
        for _ in range(50):
            rho = random_density_matrix(rng, dim=4)
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = a + a.conj().T
            w = np.linalg.eigvalsh(rho).real
            eps = np.linalg.eigvalsh(h).real
            best = min(
                float(np.dot(np.array(perm), eps))
                for perm in itertools.permutations(w)
            )
            expected = float(np.trace(rho @ h).real) - best
            assert ergotropy(rho, h) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self, h0, rng):
        for _ in range(20):
            rho = random_density_matrix(rng)
            assert ergotropy(rho, h0) >= 0.0

    def test_passive_state_has_none(self, ops8, rng):
        rho = random_density_matrix(rng)
        pas = passive_state(rho, ops8.i_dot_s)
        assert ergotropy(pas, ops8.i_dot_s) == pytest.approx(0.0, abs=1e-10)

    def test_stretched_state_releases_full_gap(self):
        ops = build_coupled_operators(nuclear_spin=1.5)
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0  # |F=2, m_F=2>
        assert ergotropy(rho, ops.i_dot_s) == pytest.approx(2.0, rel=1e-12)
        assert mean_energy_above_ground(rho, ops.i_dot_s) == pytest.approx(2.0, rel=1e-12)


class TestEfficiency:
    def test_spin_temperature_closed_form(self, ops8, h0):
        for beta in (0.3, 1.0954, 2.5):
            rho = spin_temperature_state(beta, ops8)
            assert efficiency(rho, h0) == pytest.approx(
                spin_temp_efficiency(beta), rel=1e-12
            )

    def test_mixed_state_extracts_nothing(self, ops8, h0):
        assert efficiency(ops8.maximally_mixed(), h0) == 0.0

    def test_ground_manifold_stores_nothing(self, h0):
        rho = np.zeros((8, 8), dtype=complex)
        rho[5, 5] = rho[6, 6] = rho[7, 7] = 1.0 / 3.0
        assert mean_energy_above_ground(rho, h0) == pytest.approx(0.0, abs=1e-9)
        assert efficiency(rho, h0) == 0.0

    def test_pure_ground_state_stores_nothing(self, h0):
        # energy and ergotropy are both roundoff here; their ratio is not 1
        for k in (5, 6, 7):
            rho = np.zeros((8, 8), dtype=complex)
            rho[k, k] = 1.0
            assert efficiency(rho, h0) == 0.0

    def test_bounded(self, h0, rng):
        for _ in range(20):
            rho = random_density_matrix(rng)
            assert 0.0 <= efficiency(rho, h0) <= 1.0


class TestThermoSample:
    def test_energy_reported_in_hyperfine_units(self):
        sample_by_a = {}
        ops = build_coupled_operators(nuclear_spin=1.5)
        for a_hfs in (1.0, 50.0):
            p = PumpParams(
                r_op=1.0, s=(0, 0, 0.5), gamma_se=1.0, gamma_sd=0.0, a_hfs=a_hfs
            )
            rho = spin_temperature_state(0.9, ops)
            sample_by_a[a_hfs] = thermo_sample(rho, p, ops)
        low, high = sample_by_a[1.0], sample_by_a[50.0]
        assert high.energy == pytest.approx(low.energy, rel=1e-12)
        assert high.ergotropy == pytest.approx(low.ergotropy, rel=1e-12)
        assert high.efficiency == pytest.approx(low.efficiency, rel=1e-12)
        assert high.s_vn == pytest.approx(low.s_vn, rel=1e-12)

    def test_series_matches_pointwise(self, ops8, make_params):
        p = make_params(s=0.5)
        traj = integrate(p, ops8, t_end=0.5 * p.t_se, sample_every=500)
        series = stacked_observables(traj.coordinates, p, ops8)
        assert len(series["sigma"]) == len(traj)
        one = thermo_sample(traj.states[-1], p, ops8)
        assert series["sigma"][-1] == pytest.approx(one.sigma, abs=1e-14)
        assert series["efficiency"][-1] == pytest.approx(one.efficiency, abs=1e-14)
