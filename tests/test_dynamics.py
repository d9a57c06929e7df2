import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from vaporspin import dynamics, stepper
from vaporspin.dynamics import (
    PhysicsViolationError,
    PumpParams,
    block_rhs,
    block_spectra,
    build_superops,
    default_dt,
    from_coordinates,
    fit_spin_temperature,
    hermitian_basis,
    integrate,
    integrate_block,
    lab_states,
    master_rhs,
    mf_blocks,
    nuclear_part,
    pump_frame,
    solve_steady_state,
    spin_temperature_state,
    to_coordinates,
)
from vaporspin.config import RunConfig
from vaporspin.pipeline import build_simulation, steady_state_columns
from vaporspin.spin_algebra import build_coupled_operators

from conftest import random_density_matrix

G = 1.0  # unit-scale spin-exchange rate for fast tests


@pytest.fixture(scope="module")
def ops():
    return build_coupled_operators(nuclear_spin=1.5)


def params(s=(0, 0, 0.5), r_op=1.0, gamma_sd=0.003, a_hfs=100.0):
    return PumpParams(r_op=r_op * G, s=s, gamma_se=G, gamma_sd=gamma_sd * G, a_hfs=a_hfs * G)


def in_frame(p):
    """The parameters of ``p`` in its pump frame: pumped along z with its |s| (a -z pump keeps its sign)."""
    return p if p.s[0] == p.s[1] == 0.0 else dataclasses.replace(p, s=(0.0, 0.0, math.hypot(*p.s)))


def pinched(rho, ops):
    """``rho`` with every coherence between levels of different m_F removed; a state stays a state."""
    m_f = np.array([m for _, m in ops.labels])
    return rho * (m_f[:, None] == m_f[None, :])


def lift(x, ops):
    """The Hermitian matrices with pump-sector coordinates ``x`` and zero off the sector."""
    full = np.zeros(x.shape[:-1] + (ops.dim**2,))
    full[..., mf_blocks(ops).sector] = x
    return from_coordinates(full)


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


class TestCoordinates:
    @pytest.mark.parametrize("nuclear_spin", [0.5, 1.5, 2.5])
    def test_coordinates_are_an_isometry(self, nuclear_spin, rng):
        d = round(2 * nuclear_spin + 1) * 2
        basis = hermitian_basis(d)
        c = basis.reshape(d * d, d * d).T  # column a is vec(E_a)
        assert np.allclose(c.conj().T @ c, np.eye(d * d), rtol=0, atol=1e-14)
        a, b = random_density_matrix(rng, dim=d), random_density_matrix(rng, dim=d)
        xa, xb = to_coordinates(a), to_coordinates(b)
        assert xa.dtype == np.float64 and xa.shape == (d * d,)
        assert np.max(np.abs(c @ xa - a.reshape(-1))) <= 1e-14
        assert np.max(np.abs(from_coordinates(xa) - a)) <= 1e-14
        assert abs(np.linalg.norm(xa) - np.linalg.norm(a)) <= 1e-14
        assert abs(xa @ xb - np.trace(a @ b).real) <= 1e-14
        assert np.max(np.abs(to_coordinates(basis) - np.eye(d * d))) <= 1e-14


class TestMasterRhs:
    def test_traceless_and_hermitian(self, ops, rng):
        p = params(s=(0.2, -0.1, 0.4))
        for _ in range(5):
            rho = random_density_matrix(rng)
            rhs = master_rhs(rho, p, ops)
            assert abs(np.trace(rhs)) < 1e-12
            assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12

    def test_superoperator_route_matches_matrix_route(self, ops, rng):
        # on states diagonal in m_F, the sector right-hand side is master_rhs in the pump frame
        p = params(s=(0.3, 0.1, -0.5), r_op=0.7, gamma_sd=0.02)
        sup = build_superops(p, ops)
        states = np.stack([pinched(random_density_matrix(rng), ops) for _ in range(5)])
        sector = mf_blocks(ops).sector
        block = lift(block_rhs(to_coordinates(states)[:, sector], sup), ops)
        for rho, stacked in zip(states, block):
            direct = master_rhs(rho, in_frame(p), ops)
            vec = lift(block_rhs(to_coordinates(rho)[None, sector], sup), ops)[0]
            assert np.max(np.abs(direct - vec)) < 1e-11 * p.a_hfs
            assert np.max(np.abs(direct - stacked)) < 1e-11 * p.a_hfs

    def test_block_rhs_matches_master_rhs_per_column(self, ops):
        # seeded property test: one block mixing pump axes, |s| in {0, 0.5, 1},
        # a column without spin exchange and one dominated by spin destruction;
        # d = 8 and d = 12, each column on states diagonal in m_F against
        # master_rhs in its pump frame
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
        for ops in (ops, build_coupled_operators(nuclear_spin=2.5)):
            sup = build_superops(block_params, ops)
            sector = mf_blocks(ops).sector
            for seed in range(20):
                rng = np.random.default_rng(seed)
                states = np.stack([pinched(random_density_matrix(rng, dim=ops.dim), ops) for _ in block_params])
                block = lift(block_rhs(to_coordinates(states)[:, sector], sup), ops)
                for rho, f, p in zip(states, block, block_params):
                    direct = master_rhs(rho, in_frame(p), ops)
                    assert np.max(np.abs(f - direct)) <= 1e-13 * np.max(np.abs(direct))
                    assert abs(np.trace(f)) <= 1e-13
                    assert np.max(np.abs(f - f.conj().T)) <= 1e-13 * np.max(np.abs(direct))

    def test_block_rhs_column_does_not_depend_on_its_block(self, ops, rng):
        block_params = [params(s=(0, 0, 0.5)), params(s=(0.5, 0, 0), r_op=2.0), params(s=(0, 0, 0))]
        sup = build_superops(block_params, ops)
        states = np.stack([pinched(random_density_matrix(rng), ops) for _ in block_params])
        x = to_coordinates(states)[:, mf_blocks(ops).sector]
        block = block_rhs(x, sup)
        for j in range(len(block_params)):
            alone = block_rhs(x[j : j + 1], build_superops(block_params[j], ops))
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

    @pytest.mark.parametrize("s", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)])
    def test_rejects_non_finite_photon_spin(self, s):
        with pytest.raises(ValueError, match="finite"):
            params(s=s)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            PumpParams(r_op=-1.0, s=(0, 0, 0), gamma_se=G, gamma_sd=0, a_hfs=1)
        with pytest.raises(ValueError):
            PumpParams(r_op=1.0, s=(0, 0, 0), gamma_se=G, gamma_sd=math.nan, a_hfs=1)
        with pytest.raises(ValueError, match="a_hfs"):
            PumpParams(r_op=1.0, s=(0, 0, 0), gamma_se=G, gamma_sd=0, a_hfs=-1.0)

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
        traj = integrate(p, ops, t_end=0.02, sample_every=10)
        assert traj.times[0] == 0.0
        dt = traj.dt
        assert np.allclose(np.diff(traj.times)[:-1], 10 * dt)
        assert traj.times[-1] == pytest.approx(0.02, rel=1e-9)
        assert traj.t_norm[-1] == pytest.approx(0.02 * G, rel=1e-9)

    def test_conservation_along_z_pump(self, ops):
        p = params()
        traj = integrate(p, ops, t_end=1.0, sample_every=50)
        assert traj.max_trace_drift < 1e-10
        assert np.array_equal(traj.states, traj.states.conj().swapaxes(1, 2))
        assert traj.min_eigenvalue > -1e-12

    def test_z_pump_preserves_axial_symmetry(self, ops):
        p = params()
        fz = ops.f_ops[2]
        traj = integrate(p, ops, t_end=1.0, sample_every=100)
        worst = max(np.max(np.abs(r @ fz - fz @ r)) for r in traj.states)
        assert worst < 1e-10

    def test_x_pump_polarizes_along_x(self, ops):
        p = params(s=(0.5, 0, 0))
        traj = integrate(p, ops, t_end=3.0, sample_every=200)
        fx = np.trace(ops.f_ops[0] @ traj.states[-1]).real
        fz = np.trace(ops.f_ops[2] @ traj.states[-1]).real
        assert fx > 0.3
        assert abs(fz) < 1e-8

    def test_stationary_start_stops_immediately(self, ops):
        p = params(s=(0, 0, 0))
        traj = integrate(p, ops, t_end=5.0, stop_at_steady=True, steady_tol=1e-9)
        assert traj.reached_steady
        assert traj.steady_index == 0
        assert len(traj) == 1

    def test_detect_steady_state(self, ops):
        p = params()
        traj = integrate(p, ops, t_end=0.5, sample_every=50, steady_tol=1e-9)
        assert not traj.reached_steady and traj.steady_index is None
        traj = integrate(p, ops, t_end=0.5, sample_every=50, steady_tol=1e9)
        assert traj.reached_steady and traj.steady_index == 0

    def test_stop_keeps_no_sample_past_the_steady_one(self, ops):
        # at sample_every = 1 a step holds about 19 samples, so the steady
        # sample lies inside one, with later samples of the same step
        p = params(r_op=0.25)
        traj = integrate(p, ops, t_end=2.0, sample_every=1,
                         stop_at_steady=True, steady_tol=0.03)
        assert traj.reached_steady and traj.steady_index == len(traj) - 1
        rhs_norms = stepper.norms(traj.rhs)
        assert rhs_norms[-1] < 0.03 * G <= rhs_norms[:-1].min()

    def test_oversized_step_raises_physics_violation(self, ops):
        p = params()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PhysicsViolationError):
                integrate(p, ops, t_end=1.0, dt=3.0 / p.a_hfs,
                          sample_every=10, fixed_step=True)

    def test_block_guard_names_the_column_that_broke(self, ops):
        # one column decays far faster than the fixed step can follow; the others are fine
        dt = 1.0 / (50.0 * 100.0 * G)
        block = [params(), params(gamma_sd=20.0 / dt), params(s=(0.5, 0, 0))]
        kwargs = dict(t_end=1.0, dt=dt, sample_every=10, fixed_step=True)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PhysicsViolationError) as caught:
                integrate_block(block, ops, **kwargs)
        assert caught.value.column == 1
        for p in (block[0], block[2]):
            integrate(p, ops, **kwargs)

    @pytest.mark.parametrize("gamma_sd, reason", [(1e9, "below the floor"),
                                                  (1e300, "error estimate became non-finite")])
    def test_step_floor_and_non_finite_error_name_the_column(self, ops, gamma_sd, reason):
        # a decay rate 1e7 A needs steps below the floor, 1e-6 of 100 grid units;
        # at 1e298 A the first step's error estimate overflows
        block = [params(), params(gamma_sd=gamma_sd), params(s=(0.5, 0, 0))]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PhysicsViolationError, match=reason) as caught:
                integrate_block(block, ops, t_end=1.0, dt=1.0 / (50.0 * 100.0 * G),
                                sample_every=100)
        assert caught.value.column == 1
        assert caught.value.step == 0 and caught.value.t == 0.0

    def test_one_long_sample_interval_does_not_trip_the_floor(self, ops):
        # 1e-6 of this interval is 500 grid units; under H0 alone the mixed
        # state does not move, so its series ends in zeros and allows any step
        p = PumpParams(r_op=0.0, s=(0, 0, 0), gamma_se=0.0, gamma_sd=0.0, a_hfs=100.0 * G)
        traj = integrate(p, ops, t_end=1e5, sample_every=10**9)
        assert len(traj) == 2
        assert traj.steps < 20

    @pytest.mark.parametrize("stop_at_steady", [False, True])
    def test_block_columns_with_their_own_steps_match_standalone_runs(self, ops, stop_at_steady):
        block = [params(r_op=r_op) for r_op in (0.25, 1.0, 4.0)]
        # at this tolerance the 0.25 G_SE column turns steady first
        kwargs = dict(t_end=2.0, sample_every=10, stop_at_steady=stop_at_steady, steady_tol=0.03)
        trajs = integrate_block(block, ops, **kwargs)
        assert len({traj.steps for traj in trajs}) == 3
        if stop_at_steady:
            assert len(trajs[0]) < len(trajs[1]) == len(trajs[2])
        for traj, p in zip(trajs, block):
            alone = integrate(p, ops, **kwargs)
            for name in ("times", "states", "rhs"):
                assert np.array_equal(getattr(traj, name), getattr(alone, name)), name
            for name in ("steady_index", "reached_steady", "max_trace_drift", "min_eigenvalue",
                         "steps", "rhs_evals"):
                assert getattr(traj, name) == getattr(alone, name), name

    @pytest.mark.parametrize("stop_at_steady", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_guard_chunk_size_does_not_change_the_result(self, ops, monkeypatch, chunk, stop_at_steady):
        # the reference passes over all samples once, at the end; a chunk of 1
        # checks each sample when it is taken, and at 7 or 64 the 0.25 G_SE
        # column's steady stop lands inside a chunk, past which it was stepped
        block = [params(r_op=r_op) for r_op in (0.25, 1.0, 4.0)]
        kwargs = dict(t_end=2.0, sample_every=10, stop_at_steady=stop_at_steady, steady_tol=0.03)
        monkeypatch.setattr(stepper, "SAMPLE_CHUNK", 10**9)
        at_the_end = integrate_block(block, ops, **kwargs)
        monkeypatch.setattr(stepper, "SAMPLE_CHUNK", chunk)
        chunked = integrate_block(block, ops, **kwargs)
        if stop_at_steady:  # the 0.25 G_SE column stops first
            assert at_the_end[0].reached_steady and len(at_the_end[0]) < len(at_the_end[1])
        for a, b in zip(chunked, at_the_end):
            for name in ("times", "states", "rhs"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            for name in ("steady_index", "reached_steady", "max_trace_drift", "min_eigenvalue",
                         "steps", "rhs_evals"):
                assert getattr(a, name) == getattr(b, name), name

    def test_a_guard_past_the_steady_stop_is_never_checked(self, ops, monkeypatch):
        # a floor that only samples after the steady one cross; the stepper
        # steps past the stop until the sample pass finds it, and the pass
        # must drop those samples unguarded, as if it had stopped at once
        p = params(r_op=0.25)
        kwargs = dict(t_end=2.0, sample_every=10, steady_tol=0.03)
        full = integrate(p, ops, **kwargs)
        stopped = integrate(p, ops, stop_at_steady=True, **kwargs)
        eig = np.linalg.eigvalsh(full.states).min(axis=1)
        k = full.steady_index + 5  # a later step than the steady sample's
        floor = 0.5 * (eig[k - 1] + eig[k])
        assert eig[:k].min() > floor > eig[k]
        monkeypatch.setattr(dynamics, "EIGENVALUE_FLOOR", floor)
        with pytest.raises(PhysicsViolationError, match="eigenvalue"):
            integrate(p, ops, **kwargs)
        again = integrate(p, ops, stop_at_steady=True, **kwargs)
        assert again.steady_index == stopped.steady_index == len(again) - 1 < k
        for name in ("times", "states", "rhs"):
            assert np.array_equal(getattr(again, name), getattr(stopped, name)), name
        for name in ("max_trace_drift", "min_eigenvalue", "steps", "rhs_evals"):
            assert getattr(again, name) == getattr(stopped, name), name

    def test_a_stepper_failure_past_the_steady_stop_is_not_raised(self, ops, monkeypatch):
        # the step estimate turns non-finite 20 steps after the steady one,
        # before the sample pass (here run only when the stepper fails) has
        # found the stop; a stop found then ends the column instead
        p = params(r_op=0.25)
        kwargs = dict(t_end=2.0, sample_every=10, steady_tol=0.03)
        stopped = integrate(p, ops, stop_at_steady=True, **kwargs)
        real, calls = stepper._step_estimate, []

        def failing_past_the_stop(coefficients, x, width):
            calls.append(None)
            h = real(coefficients, x, width)
            return np.full_like(h, np.nan) if len(calls) > stopped.steps + 20 else h

        monkeypatch.setattr(stepper, "SAMPLE_CHUNK", 10**9)
        monkeypatch.setattr(stepper, "_step_estimate", failing_past_the_stop)
        with pytest.raises(PhysicsViolationError, match="non-finite"):
            integrate(p, ops, **kwargs)
        calls.clear()
        again = integrate(p, ops, stop_at_steady=True, **kwargs)
        assert len(calls) > stopped.steps + 20
        for name in ("times", "states", "rhs"):
            assert np.array_equal(getattr(again, name), getattr(stopped, name)), name
        for name in ("steady_index", "max_trace_drift", "min_eigenvalue", "steps", "rhs_evals"):
            assert getattr(again, name) == getattr(stopped, name), name

    @pytest.mark.parametrize("chunk", [stepper.SAMPLE_CHUNK, 64, 1])
    def test_batched_guard_raises_for_the_first_failing_sample(self, monkeypatch, chunk):
        # the four polarizations of the sweep benchmark reach minimum
        # eigenvalues of 0.104, 0.084, 0.067 and 0.052 over 1 T_SE; under a
        # floor of 0.09 the s = 1 column crosses it first.  The column, step
        # and time are those of a guard that checks each sample when it is taken.
        base = RunConfig(t_end_over_t_se=1.0, stop_at_steady=False).validate()
        sims = [build_simulation(dataclasses.replace(base, s_magnitude=s)) for s in (0.25, 0.5, 0.75, 1.0)]
        ops8, block = sims[0][0], [p for *_, p in sims]
        monkeypatch.setattr(dynamics, "EIGENVALUE_FLOOR", 0.09)
        monkeypatch.setattr(stepper, "SAMPLE_CHUNK", chunk)
        with pytest.raises(PhysicsViolationError, match="eigenvalue 8.995e-02") as caught:
            integrate_block(block, ops8, t_end=block[0].t_se,
                            dt=default_dt(block[0]), sample_every=10)
        assert (caught.value.column, caught.value.step, caught.value.t) == (3, 19, 2.488470024236447e-05)

    def test_rejects_bad_controls(self, ops):
        p = params()
        with pytest.raises(ValueError):
            integrate(p, ops, t_end=-1.0)
        with pytest.raises(ValueError):
            integrate(p, ops, t_end=1.0, sample_every=0)


class TestPumpFrame:
    """Runs step in their pump frame, on the Delta m_F = 0 coordinates of the mixed state."""

    def test_guard_margins_are_read_off_the_block_spectra(self):
        # x, y, z and oblique pumps in one block, at I = 3/2 and 5/2: the closed-form
        # spectra of the m_F blocks against eigvalsh and the trace of the lab-frame states
        block = [params(s=(0.5, 0, 0)), params(s=(0, 0.75, 0), r_op=4.0), params(r_op=2.0),
                 params(s=(0.3, -0.4, 0.2))]
        for nuclear_spin in (1.5, 2.5):
            ops = build_coupled_operators(nuclear_spin)
            for traj in integrate_block(block, ops, t_end=0.5, sample_every=3):
                lifted = traj.states
                eig = np.linalg.eigvalsh(lifted)
                spectra = np.sort(block_spectra(traj.coordinates, ops)[0], axis=1)
                assert np.max(np.abs(spectra - eig)) <= 1e-15
                assert abs(traj.min_eigenvalue - eig.min()) <= 1e-15
                drift = np.abs(np.trace(lifted, axis1=1, axis2=2).real - 1.0).max()
                assert abs(traj.max_trace_drift - drift) <= 1e-15

    @pytest.mark.parametrize("nuclear_spin, width, nuclear, spins",
                             [(0.5, 6, 2, 1), (1.5, 14, 4, 1), (2.5, 22, 6, 1), (3.5, 30, 8, 1), (4.5, 38, 10, 1)])
    def test_reachable_coordinates_from_the_mixed_state(self, nuclear_spin, width, nuclear, spins):
        # the d populations and, per m_F shared by both manifolds, the real
        # and imaginary part of one coherence: d + 4I coordinates
        ops = build_coupled_operators(nuclear_spin)
        sup = build_superops([params(), params(s=(0, 0, 0)), params(s=(0, 0, -1.0), r_op=3.0)], ops)
        kept = mf_blocks(ops).sector
        assert kept.size == width == ops.dim + 4 * nuclear_spin
        assert np.array_equal(kept[: ops.dim], np.arange(ops.dim))
        i, j = np.triu_indices(ops.dim, 1)
        m_f = np.array([m for _, m in ops.labels])
        pairs = ops.dim + np.flatnonzero(m_f[i] == m_f[j])
        assert np.array_equal(kept[ops.dim :], np.concatenate([pairs, pairs + i.size]))
        assert sup.A.shape == sup.K.shape == (3, width, width) and sup.r.shape == (width,)
        # K maps x through the nuclear populations q (times <S_z>), so its rank is at most theirs
        assert np.linalg.matrix_rank(sup.K[0]) <= spins * nuclear

    # z pumps, undriven, -z, without hyperfine coupling and without spin destruction
    Z_PUMPS = [params(), params(s=(0, 0, 0)), params(s=(0, 0, -1.0), r_op=3.0), params(gamma_sd=50.0),
               params(a_hfs=0.0), params(gamma_sd=0.0)]

    @pytest.mark.parametrize("nuclear_spin", [0.5, 1.5, 2.5, 3.5, 4.5])
    def test_sector_rhs_is_master_rhs_on_the_sector(self, nuclear_spin):
        ops = build_coupled_operators(nuclear_spin)
        sup = build_superops(self.Z_PUMPS, ops)
        kept = mf_blocks(ops).sector
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=(len(self.Z_PUMPS), kept.size))
            full = to_coordinates(np.stack([master_rhs(rho, p, ops) for rho, p in zip(lift(x, ops), self.Z_PUMPS)]))
            assert np.max(np.abs(block_rhs(x, sup) - full[:, kept])) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("nuclear_spin", [0.5, 1.5, 2.5, 3.5, 4.5])
    def test_only_the_sector_moves_and_only_sz_feeds_it(self, nuclear_spin):
        # a z pump conserves F_z: on states diagonal in m_F, master_rhs is
        # diagonal in m_F too, and of <S> only <S_z> is nonzero there, so r
        # holds <S_z>'s sector coordinates and K factors through the m_I populations
        ops = build_coupled_operators(nuclear_spin)
        kept = mf_blocks(ops).sector
        off = np.setdiff1d(np.arange(ops.dim**2), kept)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for p in self.Z_PUMPS:
                f = to_coordinates(master_rhs(pinched(random_density_matrix(rng, dim=ops.dim), ops), p, ops))
                assert np.max(np.abs(f[off])) <= 1e-13 * np.max(np.abs(f))
        spin = to_coordinates(ops.s_ops)[:, kept]
        assert np.all(spin[:2] == 0.0) and np.any(spin[2] != 0.0)
        sup, m = build_superops(self.Z_PUMPS, ops), ops.dim // 2
        assert np.array_equal(sup.r, spin[2])
        assert sup.A.shape == sup.K.shape == (len(self.Z_PUMPS), kept.size, kept.size)
        assert max(np.linalg.matrix_rank(k) for k in sup.K) <= m

    @pytest.mark.parametrize("s", [(0.5, 0, 0), (0, -0.75, 0), (0.3, -0.4, 0.2), (0, 0, -1.0), (0, 0, 0)])
    def test_the_frame_turns_the_pump_onto_z(self, ops, rng, s):
        p = params(s=s)
        frame = pump_frame(ops, s)
        assert np.max(np.abs(frame @ frame.conj().T - np.eye(8))) < 1e-14
        pumped = np.tensordot(p.s_vec, ops.f_ops, axes=1)
        along_z = frame.conj().T @ pumped @ frame
        if s[0] == s[1] == 0.0:
            assert np.array_equal(frame, np.eye(8))
        else:  # R^dag (s.F) R = |s| F_z, and f_lab(R rho R^dag) = R f_frame(rho) R^dag
            assert np.max(np.abs(along_z - np.linalg.norm(s) * ops.f_ops[2])) < 1e-14
            rho = random_density_matrix(rng)
            lab = frame.conj().T @ master_rhs(frame @ rho @ frame.conj().T, p, ops) @ frame
            assert np.max(np.abs(lab - master_rhs(rho, in_frame(p), ops))) < 1e-11 * p.a_hfs

    @pytest.mark.parametrize("stop_at_steady", [False, True])
    def test_block_mixing_pump_axes_matches_standalone_runs(self, ops, stop_at_steady):
        block = [params(r_op=0.25), params(s=(0.5, 0, 0), r_op=1.0), params(s=(0, 0.75, 0), r_op=4.0),
                 params(s=(0.3, -0.4, 0))]
        kwargs = dict(t_end=2.0, sample_every=10, stop_at_steady=stop_at_steady, steady_tol=0.03)
        trajs = integrate_block(block, ops, **kwargs)
        for traj, p in zip(trajs, block):
            alone = integrate(p, ops, **kwargs)
            for name in ("times", "states", "rhs"):
                assert np.array_equal(getattr(traj, name), getattr(alone, name)), name
            for name in ("steady_index", "reached_steady", "max_trace_drift", "min_eigenvalue",
                         "steps", "rhs_evals"):
                assert getattr(traj, name) == getattr(alone, name), name

    @pytest.mark.parametrize("fixed_step", [False, True], ids=["taylor", "rk4"])
    def test_stored_rhs_is_the_field_of_the_stored_state(self, ops, fixed_step):
        # z, x and oblique pumps with their own |s|, R_op and A in one block: each sample keeps the
        # dx/dt that steady detection evaluated, the field of its own state and parameters bit for bit
        block = [params(r_op=0.25), params(s=(0.75, 0, 0), r_op=1.0, a_hfs=80.0),
                 params(s=(0.3, -0.4, 0.2), r_op=4.0, a_hfs=120.0)]
        dt = 1.0 / (10.0 * 120.0) if fixed_step else None  # RK4 at 10 steps per fastest period
        trajs = integrate_block(block, ops, t_end=2.0, dt=dt, sample_every=10, steady_tol=0.03,
                                fixed_step=fixed_step)
        for traj in trajs:
            assert np.array_equal(traj.rhs, block_rhs(traj.coordinates, build_superops(traj.params, ops)))
            below = np.flatnonzero(stepper.norms(traj.rhs) < 0.03 * traj.params.gamma_se)
            assert traj.steady_index == (below[0] if below.size else None)
        assert trajs[0].reached_steady

    def test_x_pump_is_the_turned_z_run(self, ops):
        # in its frame the x pump is the z pump from the mixed state turned by R,
        # which is 1/8 to rounding: the same steps, and states turned by R
        kwargs = dict(t_end=0.5, sample_every=10)
        z = integrate(params(), ops, **kwargs)
        x = integrate(params(s=(0.5, 0, 0)), ops, **kwargs)
        assert (x.steps, x.rhs_evals) == (z.steps, z.rhs_evals)
        assert np.max(np.abs(stepper.norms(x.rhs) / stepper.norms(z.rhs) - 1.0)) < 1e-13
        frame = pump_frame(ops, (1.0, 0, 0))
        assert np.max(np.abs(x.states - frame @ z.states @ frame.conj().T)) < 1e-15

    def test_start_off_the_pump_axis_steps_every_coordinate(self, ops):
        # an x pump from the mixed state, stepped on the sector of its frame,
        # matches classical RK4 over master_rhs in the lab frame
        p = params(s=(0.5, 0, 0))
        traj = integrate(p, ops, t_end=0.02, sample_every=10)
        rho, h = ops.maximally_mixed(), 1e-4
        for _ in range(200):
            k1 = master_rhs(rho, p, ops)
            k2 = master_rhs(rho + 0.5 * h * k1, p, ops)
            k3 = master_rhs(rho + 0.5 * h * k2, p, ops)
            k4 = master_rhs(rho + h * k3, p, ops)
            rho = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) > 1e-4  # in the lab frame it leaves the sector
        assert np.max(np.abs(traj.states[-1] - rho)) < 1e-9


@pytest.mark.parametrize("overrides", [
    {},
    {"s_magnitude": 1.0, "r_op_over_gamma_se": 4.0},
    {"nuclear_spin": 2.5, "pump_axis": "x"},
], ids=["defaults", "s1_rop4", "i52_x"])
def test_f_z_budget_holds_at_every_sample(overrides):
    # in the pump frame d<F_z>/dt = R_op |s| / 2 - (R_op + G_SD) <S_z>:
    # spin exchange and H0 conserve F_z, the pump injects and both relax S_z
    ops8, _, p = build_simulation(RunConfig(**overrides).validate())
    traj = integrate(p, ops8, t_end=2.0 * p.t_se)
    sector = mf_blocks(ops8).sector
    fz, sz = (to_coordinates(op)[sector] for op in (ops8.f_ops[2], ops8.s_ops[2]))
    injection = 0.5 * p.r_op * math.hypot(*p.s)
    budget = injection - (p.r_op + p.gamma_sd) * (traj.coordinates @ sz)
    rate = block_rhs(traj.coordinates, build_superops(p, ops8)) @ fz
    assert np.max(np.abs(rate - budget)) < 1e-12 * injection


@pytest.fixture(scope="module", params=["z", "x"])
def one_t_se(request):
    """The built-in defaults over 1 T_SE: the default stepper and RK4 at dt/2."""
    ops8, _, p = build_simulation(RunConfig(pump_axis=request.param).validate())
    dt = default_dt(p)
    adaptive = integrate(p, ops8, t_end=p.t_se, dt=dt, sample_every=10)
    rk4 = integrate(p, ops8, t_end=p.t_se, dt=dt / 2.0, sample_every=20,
                    fixed_step=True)
    return adaptive, rk4


class TestErrorControlledStepper:
    def test_samples_match_rk4_at_half_step(self, one_t_se):
        adaptive, rk4 = one_t_se
        assert np.array_equal(adaptive.times, rk4.times)
        assert np.max(np.abs(adaptive.states - rk4.states)) < 1e-9
        assert np.max(np.abs(stepper.norms(adaptive.rhs) / stepper.norms(rk4.rhs) - 1.0)) < 1e-6

    def test_work(self, one_t_se):
        adaptive, rk4 = one_t_se
        # four evaluations per RK4 step, and one per sample for its dx/dt
        assert rk4.steps == 10_000 and rk4.rhs_evals == 4 * 10_000 + 501
        # RK4 at dt takes 5,000 steps and 20,501 evaluations.  The Taylor
        # stepper counts TAYLOR_ORDER per step and one per sample
        assert len(adaptive) == 501
        assert adaptive.steps <= 60
        assert adaptive.rhs_evals == stepper.TAYLOR_ORDER * adaptive.steps + len(adaptive)


    def test_matches_richardson_extrapolated_rk4(self):
        # the sweep benchmark's four polarizations, s = 0.5 being the default
        # run, over 0.2 T_SE; (16 x_{dt/8} - x_{dt/4})/15 of the fixed-step
        # path is within 1.2e-14 of a DOP853 run at RTOL 1e-13, ATOL 1e-15.
        # The Taylor stepper reads at most 1.0e-13 against it, DOP853 at
        # RTOL 1e-10 read 1.1e-11
        base = RunConfig(t_end_over_t_se=0.2, stop_at_steady=False).validate()
        sims = [build_simulation(dataclasses.replace(base, s_magnitude=s)) for s in (0.25, 0.5, 0.75, 1.0)]
        ops8, block = sims[0][0], [p for *_, p in sims]
        dt, t_end = default_dt(block[0]), 0.2 * block[0].t_se
        quarter, eighth = (integrate_block(block, ops8, t_end, dt / m, 10 * m, fixed_step=True) for m in (4, 8))
        for run, q, e in zip(integrate_block(block, ops8, t_end, dt, 10), quarter, eighth):
            assert len(run) == 101 and np.array_equal(run.times, e.times)
            reference = (16.0 * e.coordinates - q.coordinates) / 15.0
            assert np.max(np.abs(run.coordinates - reference)) < 1e-12


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

    @pytest.mark.parametrize("beta", [0.7, math.inf])
    def test_minus_z_is_plus_z_at_minus_beta(self, ops, beta):
        assert np.array_equal(spin_temperature_state(beta, ops, axis=(0, 0, -2)), spin_temperature_state(-beta, ops))

    @pytest.mark.parametrize("nuclear_spin", [1.5, 2.5])
    def test_z_pump_steady_state_is_exactly_diagonal(self, nuclear_spin):
        cfg = RunConfig(nuclear_spin=nuclear_spin).validate()
        ops_i, _, p = build_simulation(cfg)
        x, _ = solve_steady_state(p, ops_i)
        assert steady_state_columns(cfg, ops_i, p, x)["off_diag_mass_pump_frame"] == 0.0

    def test_zero_axis_rejected(self, ops):
        with pytest.raises(ValueError):
            spin_temperature_state(1.0, ops, axis=(0, 0, 0))

    def test_fit_recovers_beta(self, ops):
        beta = 0.9
        pops = np.diag(spin_temperature_state(beta, ops)).real
        fitted, residual = fit_spin_temperature(pops, ops.labels)
        assert fitted == pytest.approx(beta, rel=1e-10)
        assert residual < 1e-12

    def test_infinite_beta_is_the_stretched_state(self, ops):
        for beta, level in ((math.inf, 0), (-math.inf, 4)):
            rho = spin_temperature_state(beta, ops)
            assert np.array_equal(np.diag(rho).real, np.eye(8)[level])
            assert fit_spin_temperature(np.diag(rho).real, ops.labels) == (beta, 0.0)
        rho_x = spin_temperature_state(math.inf, ops, axis=(1, 0, 0))
        assert np.trace(ops.f_ops[0] @ rho_x).real == pytest.approx(2.0, rel=1e-14)

    def test_fit_of_nearly_stretched_populations_stays_finite(self, ops):
        pops = np.diag(spin_temperature_state(20.0, ops)).real
        assert 1.0 - pops[0] > 1e-12
        fitted, residual = fit_spin_temperature(pops, ops.labels)
        assert fitted == pytest.approx(20.0, rel=1e-10)
        assert residual < 1e-10

    def test_fit_flags_non_thermal_populations(self, ops):
        pops = np.array([0.5, 0.05, 0.05, 0.05, 0.05, 0.1, 0.1, 0.1])
        _, residual = fit_spin_temperature(pops, ops.labels)
        assert residual > 0.05


class TestSectorRecord:
    @pytest.mark.parametrize("nuclear_spin", [0.5, 1.5, 2.5])
    def test_one_read_only_record_per_nuclear_spin(self, nuclear_spin):
        ops = build_coupled_operators(nuclear_spin)
        blocks = mf_blocks(ops)
        assert blocks is mf_blocks(build_coupled_operators(nuclear_spin))
        for name, table in vars(blocks).items():
            assert isinstance(table, np.ndarray) and not table.flags.writeable, name
        # S_z's sector coordinates, as the field and the pass read them, bit for bit
        r, d = blocks.r, ops.dim
        assert r.tobytes() == to_coordinates(ops.s_ops[2])[blocks.sector].tobytes()
        assert blocks.odd[:, 1].tobytes() == np.concatenate([r[blocks.plus], r[d:]]).tobytes()


class TestBlockSpectra:
    """The closed-form eigenvalues of a pair block against the exact ones of its stored coordinates."""

    @staticmethod
    def pair_state(ops, upper, lower, theta, phi):
        """Sector coordinates with one pair block of eigenvalues (upper, lower), turned by theta, phase phi."""
        blocks = mf_blocks(ops)
        d, pairs = ops.dim, blocks.upper.size
        x = np.zeros(d + 2 * pairs)
        cos2, sin2 = math.cos(0.5 * theta) ** 2, math.sin(0.5 * theta) ** 2
        x[blocks.upper[0]] = upper * cos2 + lower * sin2
        x[blocks.lower[0]] = upper * sin2 + lower * cos2
        coherence = (upper - lower) * math.sin(theta) / math.sqrt(2.0)
        x[d], x[d + pairs] = coherence * math.cos(phi), coherence * math.sin(phi)
        return x

    @staticmethod
    def exact_lower(ops, x):
        """The lower eigenvalue of pair 0 of ``x``, in rational arithmetic on the stored floats."""
        blocks, d = mf_blocks(ops), ops.dim
        a, c = Fraction(x[blocks.upper[0]]), Fraction(x[blocks.lower[0]])
        b2 = (Fraction(x[d]) ** 2 + Fraction(x[d + blocks.upper.size]) ** 2) / 2  # |b|^2
        # mu + r adds non-negative terms, so a float square root costs it no precision
        top = (a + c) / 2 + Fraction(math.sqrt((a - c) ** 2 / 4 + b2))
        return float((a * c - b2) / top)

    def test_small_eigenvalue_beside_a_large_one(self, ops, rng):
        # 1e-13 shares a pair block with 0.4: unturned or slightly turned, it
        # keeps its relative precision; turned at random, its absolute one
        lower = mf_blocks(ops).lower[0]
        for theta in (0.0, 1e-8, 1e-7, 1e-6):
            x = self.pair_state(ops, 0.4, 1e-13, theta, rng.uniform(-math.pi, math.pi))
            want = self.exact_lower(ops, x)
            assert abs(block_spectra(x, ops)[0][lower] / want - 1.0) <= 1e-15, theta
        for theta in rng.uniform(0.0, math.pi, size=50):
            x = self.pair_state(ops, 0.4, 1e-13, theta, rng.uniform(-math.pi, math.pi))
            w = block_spectra(x, ops)[0]
            assert abs(w[lower] - self.exact_lower(ops, x)) <= 4 * np.finfo(float).eps * 0.4, theta

    def test_empty_and_negative_pairs(self, ops):
        blocks = mf_blocks(ops)
        x = np.zeros(mf_blocks(ops).sector.size)
        assert np.all(block_spectra(x, ops)[0] == 0.0)
        # mu + r = 0 with a negative level: the guard still sees it
        x[blocks.lower[0]] = -2e-6
        assert block_spectra(x, ops)[0][blocks.lower[0]] == -2e-6


class TestSolveSteadyState:
    def test_newton_jacobian_matches_finite_differences(self, ops, rng):
        # Newton's system: the sector coordinates in the pump frame
        p = params(s=(0.3, -0.2, 0.5), r_op=0.7, gamma_sd=0.02)
        sup = build_superops(p, ops)
        x = to_coordinates(random_density_matrix(rng))[mf_blocks(ops).sector]
        h = 1e-6
        columns = [(block_rhs((x + h * e)[None], sup)[0] - block_rhs((x - h * e)[None], sup)[0]) / (2 * h)
                   for e in np.eye(x.size)]
        jac = dynamics._jacobian(x, sup)
        assert np.max(np.abs(jac - np.stack(columns, axis=1))) <= 1e-6 * np.max(np.abs(jac))

    def test_matches_analytic_polarization(self, ops):
        p = params(s=(0, 0, 0.5), r_op=1.0, gamma_sd=0.0027)
        x, info = solve_steady_state(p, ops)
        assert info.converged
        rho = lab_states(x, p, ops)
        sz = np.trace(ops.s_ops[2] @ rho).real
        expected = 0.25 * p.r_op / (p.r_op + p.gamma_sd)
        assert sz == pytest.approx(expected, abs=1e-11)

    def test_agrees_with_long_integration(self):
        # coarser hyperfine splitting so the integration is cheap
        ops = build_coupled_operators(nuclear_spin=1.5)
        p = PumpParams(r_op=G, s=(0, 0, 0.6), gamma_se=G, gamma_sd=0.01 * G, a_hfs=20.0 * G)
        traj = integrate(
            p, ops, t_end=120.0,
            sample_every=100, stop_at_steady=True, steady_tol=1e-9,
        )
        assert traj.reached_steady
        x, info = solve_steady_state(p, ops)
        assert info.converged
        rho = lab_states(x, p, ops)
        assert np.max(np.abs(rho - traj.states[-1])) < 1e-7

    @pytest.mark.parametrize("nuclear_spin", [1.5, 2.5])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_every_pump_axis_solves_the_same_sector_equations(self, nuclear_spin, s):
        # in its pump frame every pump lies along z with its |s|, so x, y and z
        # pumps return the same coordinates and report bit for bit
        ops_i = build_coupled_operators(nuclear_spin)
        (x, info), *turned = [solve_steady_state(params(s=vec), ops_i) for vec in ((0, 0, s), (s, 0, 0), (0, s, 0))]
        assert info.converged and x.shape == mf_blocks(ops_i).sector.shape
        assert np.all(x[ops_i.dim:] == 0.0)  # diagonal in the pump frame
        for other, other_info in turned:
            assert np.array_equal(other, x) and other_info == info

    def test_minus_z_pump_starts_at_its_mirrored_closed_form(self, ops):
        # a -z pump keeps its frame, the identity, and its closed form is the
        # +z one with m_F -> -m_F: Newton stops there at its first check
        up, info_up = solve_steady_state(params(s=(0, 0, 0.5)), ops)
        down, info_down = solve_steady_state(params(s=(0, 0, -0.5)), ops)
        assert info_up.iterations == info_down.iterations == 1 and info_down.converged
        mirror = [ops.labels.index((f, -m)) for f, m in ops.labels]
        np.testing.assert_allclose(down[:ops.dim], up[:ops.dim][mirror], rtol=1e-15, atol=0.0)
        assert np.all(down[ops.dim:] == 0.0)

    def test_x_pump_steady_state_is_rotated_z_solution(self, ops):
        pz = params(s=(0, 0, 0.5), gamma_sd=0.01)
        px = params(s=(0.5, 0, 0), gamma_sd=0.01)
        rho_z = lab_states(solve_steady_state(pz, ops)[0], pz, ops)
        rho_x = lab_states(solve_steady_state(px, ops)[0], px, ops)
        assert np.trace(ops.s_ops[0] @ rho_x).real == pytest.approx(
            np.trace(ops.s_ops[2] @ rho_z).real, abs=1e-10
        )
        assert np.linalg.eigvalsh(rho_x) == pytest.approx(np.linalg.eigvalsh(rho_z), abs=1e-10)

    def test_unpolarized_drive_gives_mixed_state(self, ops):
        p = params(s=(0, 0, 0), r_op=1.0, gamma_sd=0.1)
        x, info = solve_steady_state(p, ops)
        assert info.converged
        rho = lab_states(x, p, ops)
        assert np.allclose(rho, np.eye(8) / 8.0, atol=1e-10)

    def test_all_rates_zero_returns_seed(self, ops):
        p = PumpParams(r_op=0, s=(0, 0, 0), gamma_se=0, gamma_sd=0, a_hfs=0)
        x, info = solve_steady_state(p, ops)
        assert info.converged
        rho = lab_states(x, p, ops)
        assert np.allclose(rho, np.eye(8) / 8.0)
