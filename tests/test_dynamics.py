import math
import pickle

import numpy as np
import pytest

from vaporspin.dynamics import (
    PhysicsViolationError,
    PumpParams,
    block_rhs,
    build_superops,
    default_dt,
    detect_steady_state,
    fit_spin_temperature,
    integrate,
    integrate_block,
    master_rhs,
    nuclear_part,
    solve_steady_state,
    spin_temperature_state,
)
from vaporspin.spin_algebra import build_coupled_operators

from conftest import random_density_matrix

G = 1.0  # unit-scale spin-exchange rate for fast tests


@pytest.fixture(scope="module")
def ops():
    return build_coupled_operators(nuclear_spin=1.5, a_hfs=100.0 * G)


def params(s=(0, 0, 0.5), r_op=1.0, gamma_sd=0.003, a_hfs=100.0):
    return PumpParams(r_op=r_op * G, s=s, gamma_se=G, gamma_sd=gamma_sd * G, a_hfs=a_hfs * G)


class TestNuclearPart:
    def test_strips_electron_polarization(self, ops, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            phi = nuclear_part(rho, ops)
            for sk in ops.s_ops:
                assert abs(np.trace(sk @ phi)) < 1e-14

    def test_preserves_trace_and_hermiticity(self, ops, rng):
        rho = random_density_matrix(rng)
        phi = nuclear_part(rho, ops)
        assert np.trace(phi).real == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(phi - phi.conj().T)) < 1e-14

    def test_identity_is_invariant(self, ops):
        mixed = ops.maximally_mixed()
        assert np.allclose(nuclear_part(mixed, ops), mixed, atol=1e-15)


class TestMasterRhs:
    def test_traceless_and_hermitian(self, ops, rng):
        p = params(s=(0.2, -0.1, 0.4))
        for _ in range(5):
            rho = random_density_matrix(rng)
            rhs = master_rhs(rho, p, ops)
            assert abs(np.trace(rhs)) < 1e-12
            assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12

    def test_superoperator_route_matches_matrix_route(self, ops, rng):
        p = params(s=(0.3, 0.1, -0.5), r_op=0.7, gamma_sd=0.02)
        sup = build_superops(p, ops)
        states = np.stack([random_density_matrix(rng) for _ in range(5)])
        block = block_rhs(states.reshape(5, 64), sup).reshape(5, 8, 8)
        for rho, stacked in zip(states, block):
            direct = master_rhs(rho, p, ops)
            vec = block_rhs(rho.reshape(1, 64), sup).reshape(8, 8)
            assert np.max(np.abs(direct - vec)) < 1e-11 * p.a_hfs
            assert np.max(np.abs(direct - stacked)) < 1e-11 * p.a_hfs

    def test_block_rhs_matches_master_rhs_per_column(self, ops):
        # seeded property test: one block mixing pump axes, |s| in {0, 0.5, 1},
        # a column without spin exchange and one dominated by spin destruction
        block_params = [
            params(s=(0, 0, 0.5)),
            params(s=(0.5, 0, 0), r_op=2.0),
            params(s=(0, 1.0, 0), r_op=0.3),
            params(s=(0, 0, 0)),
            params(s=(0, 0, -1.0), r_op=0.8),
            params(s=(0.3, -0.4, 0), gamma_sd=0.0),
            PumpParams(r_op=1.5, s=(0, 0, 0.5), gamma_se=0.0, gamma_sd=0.1, a_hfs=100.0),
            params(s=(0, 0.5, 0), gamma_sd=50.0),
        ]
        sup = build_superops(block_params, ops)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            states = np.stack([random_density_matrix(rng) for _ in block_params])
            block = block_rhs(states.reshape(len(states), 64), sup).reshape(states.shape)
            for rho, f, p in zip(states, block, block_params):
                direct = master_rhs(rho, p, ops)
                assert np.max(np.abs(f - direct)) <= 1e-13 * np.max(np.abs(direct))
                assert abs(np.trace(f)) <= 1e-13
                assert np.max(np.abs(f - f.conj().T)) <= 1e-13 * np.max(np.abs(direct))

    def test_block_rhs_column_does_not_depend_on_its_block(self, ops, rng):
        block_params = [params(s=(0, 0, 0.5)), params(s=(0.5, 0, 0), r_op=2.0), params(s=(0, 0, 0))]
        sup = build_superops(block_params, ops)
        states = np.stack([random_density_matrix(rng).reshape(-1) for _ in block_params])
        block = block_rhs(states, sup)
        for j in range(len(block_params)):
            alone = block_rhs(states[j : j + 1], build_superops(block_params[j], ops))
            assert np.array_equal(alone[0], block[j])

    def test_unpolarized_pump_leaves_mixed_state_stationary(self, ops):
        p = params(s=(0, 0, 0))
        rhs = master_rhs(ops.maximally_mixed(), p, ops)
        assert np.max(np.abs(rhs)) < 1e-13

    def test_spin_temperature_state_is_exact_fixed_point(self, ops):
        # tanh(beta/2) = s * R / (R + G_SD); here G_SD = 0 and s = 0.5
        beta = math.log(3.0)
        p = params(s=(0, 0, 0.5), r_op=0.8, gamma_sd=0.0)
        rho = spin_temperature_state(beta, ops)
        assert np.max(np.abs(master_rhs(rho, p, ops))) < 1e-12

    def test_fixed_point_with_spin_destruction(self, ops):
        # the balance shifts to tanh(beta/2) = s R / (R + G_SD), still exact
        p = params(s=(0, 0, 0.5), r_op=1.0, gamma_sd=0.25)
        pol = 0.5 * p.r_op / (p.r_op + p.gamma_sd)
        beta = math.log((1 + pol) / (1 - pol))
        rho = spin_temperature_state(beta, ops)
        assert np.max(np.abs(master_rhs(rho, p, ops))) < 1e-12

    def test_pump_injection_rate_from_mixed_state(self, ops):
        # d<F_z>/dt at rho = 1/8 equals R_op * s_z / 2 exactly
        for sz in (0.25, 0.5, 1.0):
            p = params(s=(0, 0, sz), r_op=1.3)
            rhs = master_rhs(ops.maximally_mixed(), p, ops)
            rate = np.trace(ops.f_ops[2] @ rhs).real
            assert rate == pytest.approx(p.r_op * sz / 2.0, rel=1e-12)

    def test_spin_exchange_conserves_total_spin(self, ops, rng):
        p = PumpParams(r_op=0.0, s=(0, 0, 0), gamma_se=G, gamma_sd=0.0, a_hfs=0.0)
        for _ in range(5):
            rho = random_density_matrix(rng)
            rhs = master_rhs(rho, p, ops)
            for fk in ops.f_ops:
                assert abs(np.trace(fk @ rhs)) < 1e-12


class TestPumpParams:
    def test_rejects_overlong_photon_spin(self):
        with pytest.raises(ValueError, match="magnitude"):
            params(s=(1.0, 1.0, 0.0))

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            PumpParams(r_op=-1.0, s=(0, 0, 0), gamma_se=G, gamma_sd=0, a_hfs=1)
        with pytest.raises(ValueError):
            PumpParams(r_op=1.0, s=(0, 0, 0), gamma_se=G, gamma_sd=math.nan, a_hfs=1)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PumpParams(r_op=1.0, s=(0, 0), gamma_se=G, gamma_sd=0, a_hfs=1)

    def test_t_se(self):
        assert params().t_se == pytest.approx(1.0 / G)


class TestDefaultDt:
    def test_uses_fastest_rate(self):
        p = params(a_hfs=100.0)
        assert default_dt(p) == pytest.approx(1.0 / (50.0 * 100.0 * G))
        assert default_dt(p, steps_per_rate=20) == pytest.approx(1.0 / (20.0 * 100.0 * G))

    def test_no_timescale_is_an_error(self):
        p = PumpParams(r_op=0, s=(0, 0, 0), gamma_se=0, gamma_sd=0, a_hfs=0)
        with pytest.raises(ValueError):
            default_dt(p)


class TestIntegrate:
    def test_sampling_grid(self, ops):
        p = params()
        traj = integrate(ops.maximally_mixed(), p, ops, t_end=0.02, sample_every=10)
        assert traj.times[0] == 0.0
        dt = traj.dt
        assert np.allclose(np.diff(traj.times)[:-1], 10 * dt)
        assert traj.times[-1] == pytest.approx(0.02, rel=1e-9)
        assert traj.t_norm[-1] == pytest.approx(0.02 * G, rel=1e-9)

    def test_conservation_along_z_pump(self, ops):
        p = params()
        traj = integrate(ops.maximally_mixed(), p, ops, t_end=1.0, sample_every=50)
        assert traj.max_trace_drift < 1e-10
        assert traj.max_herm_defect < 1e-10
        assert traj.min_eigenvalue > -1e-12

    def test_z_pump_preserves_axial_symmetry(self, ops):
        p = params()
        fz = ops.f_ops[2]
        traj = integrate(ops.maximally_mixed(), p, ops, t_end=1.0, sample_every=100)
        worst = max(np.max(np.abs(r @ fz - fz @ r)) for r in traj.states)
        assert worst < 1e-10

    def test_x_pump_polarizes_along_x(self, ops):
        p = params(s=(0.5, 0, 0))
        traj = integrate(ops.maximally_mixed(), p, ops, t_end=3.0, sample_every=200)
        fx = np.trace(ops.f_ops[0] @ traj.states[-1]).real
        fz = np.trace(ops.f_ops[2] @ traj.states[-1]).real
        assert fx > 0.3
        assert abs(fz) < 1e-8

    def test_stationary_start_stops_immediately(self, ops):
        p = params(s=(0, 0, 0))
        traj = integrate(
            ops.maximally_mixed(), p, ops, t_end=5.0, stop_at_steady=True, steady_tol=1e-9
        )
        assert traj.reached_steady
        assert traj.steady_index == 0
        assert len(traj) == 1

    def test_detect_steady_state(self, ops):
        p = params()
        traj = integrate(ops.maximally_mixed(), p, ops, t_end=0.5, sample_every=50)
        found, idx = detect_steady_state(traj, tol=1e-9)
        assert not found and idx is None
        found, idx = detect_steady_state(traj, tol=1e9)
        assert found and idx == 0

    def test_oversized_step_raises_physics_violation(self, ops):
        p = params()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PhysicsViolationError):
                integrate(ops.maximally_mixed(), p, ops, t_end=1.0, dt=3.0 / p.a_hfs,
                          sample_every=10)

    def test_block_guard_names_the_column_that_broke(self, ops):
        # one column decays far faster than the step can follow; the others are fine
        dt = 1.0 / (50.0 * 100.0 * G)
        block = [params(), params(gamma_sd=20.0 / dt), params(s=(0.5, 0, 0))]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PhysicsViolationError) as caught:
                integrate_block(ops.maximally_mixed(), block, ops, t_end=1.0, dt=dt, sample_every=10)
        assert caught.value.column == 1
        for p in (block[0], block[2]):
            integrate(ops.maximally_mixed(), p, ops, t_end=1.0, dt=dt, sample_every=10)

    def test_physics_violation_survives_pickling(self):
        exc = pickle.loads(pickle.dumps(PhysicsViolationError("trace drift exceeded 1e-6", 7, 0.5, 2)))
        assert (exc.reason, exc.step, exc.t, exc.column) == ("trace drift exceeded 1e-6", 7, 0.5, 2)
        assert str(exc) == "trace drift exceeded 1e-6 at step 7 (t = 5.000000e-01 s)"

    def test_rejects_invalid_initial_state(self, ops):
        p = params()
        bad_trace = np.eye(8, dtype=complex) / 4.0
        with pytest.raises(ValueError, match="trace"):
            integrate(bad_trace, p, ops, t_end=1.0)
        tilted = np.eye(8, dtype=complex) / 8.0
        tilted[0, 1] = 0.5j
        with pytest.raises(ValueError, match="Hermitian"):
            integrate(tilted, p, ops, t_end=1.0)
        signed = np.diag([0.5, 0.6, -0.1, 0, 0, 0, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            integrate(signed, p, ops, t_end=1.0)

    def test_rejects_bad_controls(self, ops):
        p = params()
        with pytest.raises(ValueError):
            integrate(ops.maximally_mixed(), p, ops, t_end=-1.0)
        with pytest.raises(ValueError):
            integrate(ops.maximally_mixed(), p, ops, t_end=1.0, sample_every=0)


class TestSpinTemperatureState:
    def test_z_population_ratios(self, ops):
        beta = 0.8
        rho = spin_temperature_state(beta, ops)
        pops = np.diag(rho).real
        # adjacent m_F levels within F = 2 differ by e^beta
        for i in range(4):
            assert pops[i] / pops[i + 1] == pytest.approx(math.exp(beta), rel=1e-12)
        # |2,1> and |1,1> carry the same m_F hence the same weight
        assert pops[1] == pytest.approx(pops[5], rel=1e-12)

    def test_axis_variant_matches_rotated_expectations(self, ops):
        beta = 1.1
        rho_z = spin_temperature_state(beta, ops)
        rho_x = spin_temperature_state(beta, ops, axis=(1, 0, 0))
        sz = np.trace(ops.s_ops[2] @ rho_z).real
        sx = np.trace(ops.s_ops[0] @ rho_x).real
        assert sx == pytest.approx(sz, rel=1e-12)
        assert np.trace(rho_x).real == pytest.approx(1.0, abs=1e-12)

    def test_zero_axis_rejected(self, ops):
        with pytest.raises(ValueError):
            spin_temperature_state(1.0, ops, axis=(0, 0, 0))

    def test_fit_recovers_beta(self, ops):
        beta = 0.9
        pops = np.diag(spin_temperature_state(beta, ops)).real
        fitted, residual = fit_spin_temperature(pops, ops.labels)
        assert fitted == pytest.approx(beta, rel=1e-10)
        assert residual < 1e-12

    def test_fit_flags_non_thermal_populations(self, ops):
        pops = np.array([0.5, 0.05, 0.05, 0.05, 0.05, 0.1, 0.1, 0.1])
        _, residual = fit_spin_temperature(pops, ops.labels)
        assert residual > 0.05


class TestSolveSteadyState:
    def test_matches_analytic_polarization(self, ops):
        p = params(s=(0, 0, 0.5), r_op=1.0, gamma_sd=0.0027)
        rho, info = solve_steady_state(p, ops)
        assert info.converged
        sz = np.trace(ops.s_ops[2] @ rho).real
        expected = 0.25 * p.r_op / (p.r_op + p.gamma_sd)
        assert sz == pytest.approx(expected, abs=1e-11)

    def test_agrees_with_long_integration(self):
        # coarser hyperfine splitting so the integration is cheap
        ops20 = build_coupled_operators(nuclear_spin=1.5, a_hfs=20.0 * G)
        p = PumpParams(r_op=G, s=(0, 0, 0.6), gamma_se=G, gamma_sd=0.01 * G, a_hfs=20.0 * G)
        traj = integrate(
            ops20.maximally_mixed(), p, ops20, t_end=120.0,
            sample_every=100, stop_at_steady=True, steady_tol=1e-9,
        )
        assert traj.reached_steady
        rho, info = solve_steady_state(p, ops20, seed=traj.states[-1])
        assert info.converged
        assert np.max(np.abs(rho - traj.states[-1])) < 1e-7

    def test_x_pump_steady_state_is_rotated_z_solution(self, ops):
        pz = params(s=(0, 0, 0.5), gamma_sd=0.01)
        px = params(s=(0.5, 0, 0), gamma_sd=0.01)
        rho_z, _ = solve_steady_state(pz, ops)
        rho_x, _ = solve_steady_state(px, ops)
        assert np.trace(ops.s_ops[0] @ rho_x).real == pytest.approx(
            np.trace(ops.s_ops[2] @ rho_z).real, abs=1e-10
        )
        assert np.linalg.eigvalsh(rho_x) == pytest.approx(np.linalg.eigvalsh(rho_z), abs=1e-10)

    def test_unpolarized_drive_gives_mixed_state(self, ops):
        p = params(s=(0, 0, 0), r_op=1.0, gamma_sd=0.1)
        rho, info = solve_steady_state(p, ops)
        assert info.converged
        assert np.allclose(rho, np.eye(8) / 8.0, atol=1e-10)

    def test_all_rates_zero_returns_seed(self, ops):
        p = PumpParams(r_op=0, s=(0, 0, 0), gamma_se=0, gamma_sd=0, a_hfs=0)
        rho, info = solve_steady_state(p, ops)
        assert info.converged
        assert np.allclose(rho, np.eye(8) / 8.0)
