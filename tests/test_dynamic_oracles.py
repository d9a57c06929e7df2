"""Closed forms for the transient: the relaxation spectrum at the NESS and the secular limit.

Every other closed-form check concerns the steady state or identities that
hold sample by sample; these two constrain how the full model gets there.
"""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from vaporspin import dynamics
from vaporspin.config import RunConfig
from vaporspin.dynamics import (
    PumpParams,
    hermitian_basis,
    lab_states,
    master_rhs,
    pump_polarization,
    solve_steady_state,
    to_coordinates,
)
from vaporspin.pipeline import integrate_runs
from vaporspin.spin_algebra import build_coupled_operators

# the slowing-down factor q(P) = numerator / denominator of a spin-temperature
# ensemble (Appelt et al., PRA 58, 1412 (1998)), as polynomials in P
SLOWING_DOWN = {
    1.5: (Polynomial([6, 0, 2]), Polynomial([1, 0, 1])),
    2.5: (Polynomial([38, 0, 52, 0, 6]), Polynomial([3, 0, 10, 0, 3])),
}


def slowest_rates(params: PumpParams, nuclear_spin: float) -> tuple[np.ndarray, float]:
    """Decay rates of the transverse pair and of the longitudinal mode at the closed-form NESS.

    The pump is along z, so the generator linearized at the NESS does not mix
    coordinates of different |Delta m_F|: the longitudinal mode is the slowest
    decaying one at Delta m_F = 0 (the trace mode does not decay), the
    transverse pair the slowest two at |Delta m_F| = 1.
    """
    ops = build_coupled_operators(nuclear_spin)
    rho = lab_states(solve_steady_state(params, ops)[0], params, ops)
    # master_rhs is quadratic in rho, so central differences with unit steps are exact
    jacobian = np.stack([to_coordinates(master_rhs(rho + e, params, ops) - master_rhs(rho - e, params, ops)) / 2.0
                         for e in hermitian_basis(ops.dim)], axis=1)
    m_f = np.array([m for _, m in ops.labels])
    i, j = dynamics._pairs(ops.dim)
    order = np.concatenate([np.zeros(ops.dim), np.tile(np.abs(m_f[i] - m_f[j]), 2)])
    decay = {}
    for k in (0, 1):
        sector = np.flatnonzero(order == k)
        decay[k] = np.sort(-np.linalg.eigvals(jacobian[np.ix_(sector, sector)]).real)
    longitudinal = decay[0][decay[0] > 1e-9 * params.gamma_se][0]
    return decay[1][:2], longitudinal


def slowing_down_rates(params: PumpParams, nuclear_spin: float) -> tuple[float, float]:
    """(R_op + G_SD)/q(P) and (R_op + G_SD)/(d(qP)/dP): transverse and longitudinal."""
    num, den = SLOWING_DOWN[nuclear_spin]
    pol = pump_polarization(params)
    q_times_p = Polynomial([0, 1]) * num
    dqp = (q_times_p.deriv() * den - q_times_p * den.deriv())(pol) / den(pol) ** 2
    base = params.r_op + params.gamma_sd
    return base * den(pol) / num(pol), base / dqp


class TestRelaxationSpectrum:
    @pytest.mark.parametrize("nuclear_spin", [1.5, 2.5])
    def test_slow_modes_approach_the_slowing_down_closed_forms(self, default_rates, nuclear_spin):
        g = default_rates.gamma_se
        deviations = []
        for r_op in (0.01, 0.003, 0.001):
            params = PumpParams(r_op=r_op * g, s=(0.0, 0.0, 0.5), gamma_se=g,
                                gamma_sd=default_rates.gamma_sd, a_hfs=100.0 * g)
            transverse, longitudinal = slowest_rates(params, nuclear_spin)
            assert transverse[1] == pytest.approx(transverse[0], rel=1e-9)  # Delta m = +1 and -1
            want_transverse, want_longitudinal = slowing_down_rates(params, nuclear_spin)
            deviation = np.abs([transverse[0] / want_transverse - 1, longitudinal / want_longitudinal - 1])
            # the closed forms are the leading order in (R_op + G_SD)/G_SE
            assert np.all(deviation < (params.r_op + params.gamma_sd) / g), (r_op, deviation)
            deviations.append(deviation)
        deviations = np.array(deviations)
        print(f"[oracle] I = {nuclear_spin}: |rate / closed form - 1| at R_op/G_SE = 0.01, 0.003, 0.001: "
              f"transverse {deviations[:, 0]}, longitudinal {deviations[:, 1]}")
        assert np.all(np.diff(deviations, axis=0) < 0)  # shrinks as R_op/G_SE does

    def test_fz_tail_decays_at_the_longitudinal_rate(self, default_run):
        traj, ops, params = default_run.traj, default_run.ops, default_run.params
        _, longitudinal = slowest_rates(params, ops.nuclear_spin)
        fz = np.einsum("ij,nji->n", ops.f_ops[2], traj.states).real
        gap = np.trace(ops.f_ops[2] @ default_run.ness_rho).real - fz
        tail = traj.times >= 0.8 * traj.times[-1]
        assert np.all(gap[tail] > 0)
        rate = -np.polyfit(traj.times[tail], np.log(gap[tail]), 1)[0]
        print(f"[oracle] fz tail decays at {rate / params.gamma_se:.7f} G_SE, "
              f"longitudinal eigenvalue {longitudinal / params.gamma_se:.7f} G_SE")
        assert rate == pytest.approx(longitudinal, rel=1e-4)


class TestSecularLimit:
    def test_populations_follow_the_rate_equations_to_second_order_in_g_se_over_a(self):
        # for A >> G_SE the hyperfine coherences average out, and the |F, m>
        # populations obey dp/dt = diag(master_rhs(diag p)), in which A drops
        # out.  The runs differ only in A, so they share one block and one
        # sample grid, every T_SE/100; the model steps RK4 on that grid.
        a_over_g = np.array([30.0, 100.0, 300.0, 1000.0])
        runs = integrate_runs([RunConfig(a_hfs_over_gamma_se=a, t_end_over_t_se=0.5, sample_every=500).validate()
                               for a in a_over_g])
        ops, _, params, traj = runs[0]
        assert traj.times[1] * params.gamma_se == pytest.approx(0.01, rel=1e-12)

        def rates(p):
            return master_rhs(np.diag(p).astype(complex), params, ops).diagonal().real

        p = np.full(ops.dim, 1.0 / ops.dim)
        model = [p]
        for h in np.diff(traj.times):
            k1 = rates(p)
            k2 = rates(p + 0.5 * h * k1)
            k3 = rates(p + 0.5 * h * k2)
            k4 = rates(p + h * k3)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            model.append(p)
        gaps = np.array([np.max(np.abs(np.diagonal(run.states, axis1=1, axis2=2).real - model))
                         for *_, run in runs])
        print(f"[oracle] largest population gap at A/G_SE = {a_over_g}: {gaps}")
        # falls as (G_SE/A)^2 ...
        np.testing.assert_allclose(gaps[:-1] / gaps[1:], (a_over_g[1:] / a_over_g[:-1]) ** 2, rtol=0.1)
        # ... under the fitted law, 0.032 (G_SE/A)^2, with margin
        assert np.all(gaps < 0.05 / a_over_g**2)
