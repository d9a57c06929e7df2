"""End-to-end acceptance checks, one test per headline requirement.

Each test prints a single [acceptance] PASS/FAIL line with the measured
numbers, so a bare ``pytest tests/test_acceptance.py`` run doubles as a
qualification report.  Tolerances are stated inline next to each assert.
"""

import csv
import dataclasses
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vaporspin.cell_rates import CellConfig, compute_rates
from vaporspin.config import RunConfig
from vaporspin.dynamics import integrate, lab_states, solve_steady_state
from vaporspin.figures import RADIUS_SWEEP_R_OP, reproduce_figures
from vaporspin.metrology import (
    linear_fit,
    quantum_fisher_information,
    reparametrize_monotone,
    second_divided_differences,
)
from vaporspin.pipeline import simulate, steady_state_row
from vaporspin.thermo import (
    entropy_production,
    entropy_production_rate,
    ergotropy,
    relative_entropy,
    von_neumann_entropy,
)

from conftest import assert_matches_closed_form, random_density_matrix


@contextmanager
def criterion(capsys, num, name):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {num:02d} {name}: PASS ({info['detail']})")


def guards_ok(traj, bound=1e-9):
    assert traj.max_trace_drift < bound
    assert np.array_equal(traj.states, traj.states.conj().swapaxes(1, 2))  # Hermitian, exactly
    assert traj.min_eigenvalue > -bound


def test_c01_rate_anchors(capsys):
    with criterion(capsys, 1, "rate anchors") as info:
        t0 = time.perf_counter()
        rates = compute_rates(CellConfig())
        elapsed = time.perf_counter() - t0
        # default cell: gamma_se = 14 kHz +- 20%, gamma_sd = 30 Hz +- 50%
        assert 14e3 * 0.8 <= rates.gamma_se <= 14e3 * 1.2
        assert 30.0 * 0.5 <= rates.gamma_sd <= 30.0 * 1.5
        assert elapsed < 1.0
        info["detail"] = (
            f"gamma_se={rates.gamma_se:.4g}/s, gamma_sd={rates.gamma_sd:.4g}/s, "
            f"{elapsed * 1e3:.1f} ms"
        )


def test_c02_radius_sweep_span(capsys):
    with criterion(capsys, 2, "radius sweep span") as info:
        big = compute_rates(dataclasses.replace(CellConfig(), radius_cm=2.5)).gamma_sd
        tiny = compute_rates(dataclasses.replace(CellConfig(), radius_cm=0.01)).gamma_sd
        # match published extremes within a factor of 3
        assert 21.0 / 3.0 <= big <= 21.0 * 3.0
        assert 2.9e5 / 3.0 <= tiny <= 2.9e5 * 3.0
        info["detail"] = f"gamma_sd(2.5cm)={big:.4g}/s, gamma_sd(0.01cm)={tiny:.4g}/s"


@pytest.fixture(scope="module")
def relax_traj(ops8, make_params):
    """The unpolarized run over 10 T_SE and its wall time in seconds (shared by c03 and c04)."""
    p = make_params(s=0.0)
    t0 = time.perf_counter()
    traj = integrate(p, ops8, t_end=10.0 * p.t_se, sample_every=10)
    return traj, time.perf_counter() - t0


def test_c03_unpolarized_fixed_point(capsys, ops8, relax_traj):
    with criterion(capsys, 3, "unpolarized fixed point") as info:
        traj, elapsed = relax_traj
        drift = float(np.linalg.norm(traj.states[-1] - ops8.maximally_mixed()))
        assert drift < 1e-8
        assert elapsed < 10.0
        info["detail"] = f"|rho(10 T_SE) - 1/8|_F = {drift:.3g}, {elapsed:.2f} s"


def test_c04_conservation_suite(capsys, ops8, make_params, default_run, relax_traj):
    with criterion(capsys, 4, "conservation suite") as info:
        guards_ok(default_run.traj)
        guards_ok(relax_traj[0])

        # halved-step Richardson check of fixed-step RK4 over the full pumped
        # transient, and the error-controlled stepper against its fine end
        p = make_params(s=0.5)
        kwargs = dict(t_end=10.0 * p.t_se, sample_every=10**9)
        coarse = integrate(p, ops8, fixed_step=True, **kwargs)
        fine = integrate(p, ops8, dt=coarse.dt / 2.0, fixed_step=True, **kwargs)
        adaptive = integrate(p, ops8, **kwargs)
        guards_ok(coarse)
        guards_ok(fine)
        guards_ok(adaptive)
        step_change = float(np.linalg.norm(coarse.states[-1] - fine.states[-1]))
        assert step_change < 1e-6
        adaptive_change = float(np.linalg.norm(adaptive.states[-1] - fine.states[-1]))
        assert adaptive_change < 1e-6
        info["detail"] = (
            f"trace drift {default_run.traj.max_trace_drift:.2g}, "
            f"min eig {default_run.traj.min_eigenvalue:.2g}, "
            f"Richardson dt/2 change {step_change:.2g}, "
            f"adaptive against RK4 at dt/2 {adaptive_change:.2g}"
        )


def test_c05_ness_spin_temperature_structure(capsys, default_run):
    with criterion(capsys, 5, "NESS spin-temperature structure") as info:
        assert default_run.traj.reached_steady
        summary = steady_state_row(default_run)
        # the state the run actually reached, not just the Newton polish
        end = default_run.traj.states[-1]
        end_mass = float(np.sum(np.abs(end - np.diag(np.diag(end))) ** 2))
        assert end_mass < 1e-6
        assert summary["off_diag_mass_pump_frame"] < 1e-6
        assert summary["beta_fit_residual"] < 0.05
        info["detail"] = (
            f"off-diag mass {end_mass:.2g}, beta={summary['beta_fit']:.6f}, "
            f"fit residual {summary['beta_fit_residual']:.2g}"
        )


def test_c06_efficiency_anchors(capsys, ops8, h0, make_params):
    with criterion(capsys, 6, "efficiency anchors") as info:
        measured = {}
        for s, r_op, target in (
            (0.25, 1.0, 0.45),
            (0.5, 1.0, 0.80),
            (0.5, 2.0, 0.80),
            (0.75, 1.0, 0.95),
        ):
            p = make_params(s=s, r_op=r_op)
            x, ss = solve_steady_state(p, ops8)
            rho = lab_states(x, p, ops8)
            assert ss.converged
            value = ergotropy(rho, h0) / (
                float(np.trace(rho @ h0).real)
                - float(np.linalg.eigvalsh(h0).min())
            )
            assert abs(value - target) <= 0.05
            measured[(s, r_op)] = value
        info["detail"] = ", ".join(
            f"R(s={s}, r={r:g})={v:.4f}" for (s, r), v in measured.items()
        )


def test_c07_entropy_ordering(capsys, ops8, make_params):
    with criterion(capsys, 7, "NESS entropy ordering") as info:
        s_entropies = []
        for s in (0.25, 0.5, 0.75):
            p = make_params(s=s)
            x, ss = solve_steady_state(p, ops8)
            rho = lab_states(x, p, ops8)
            assert ss.converged
            s_entropies.append(von_neumann_entropy(rho))
        assert s_entropies[0] > s_entropies[1] > s_entropies[2]

        r_entropies = []
        for r_op in (0.5, 1.0, 2.0):
            p = make_params(s=0.5, r_op=r_op)
            x, ss = solve_steady_state(p, ops8)
            rho = lab_states(x, p, ops8)
            assert ss.converged
            r_entropies.append(von_neumann_entropy(rho))
        spread = (max(r_entropies) - min(r_entropies)) / np.mean(r_entropies)
        assert spread < 0.01
        info["detail"] = (
            "S(s=0.25/0.5/0.75) = "
            + "/".join(f"{v:.4f}" for v in s_entropies)
            + f", R_op spread {spread * 100:.3f}%"
        )


def test_c08_irreversibility_shape(capsys, ops8, make_params, default_run):
    with criterion(capsys, 8, "irreversibility shape") as info:
        traj, params = default_run.traj, default_run.params
        mixed = ops8.maximally_mixed()
        sigma = np.array([entropy_production(r) for r in traj.states])
        rate = np.array(
            [entropy_production_rate(r, params, ops8) for r in traj.states]
        )

        # nonnegative and monotone to saturation
        assert sigma.min() > -1e-12
        assert np.diff(sigma).min() > -1e-10 * sigma.max()

        # one smoothed peak, then decay below 1e-6 * gamma_se at the NESS;
        # the averaging window spans one hyperfine beat period (2 * a_hfs)
        # so the transient coherence ripple cancels and the envelope remains
        beat_period = math.pi / params.a_hfs
        window = max(3, round(beat_period / (traj.times[1] - traj.times[0])))
        sm = np.convolve(rate, np.ones(window) / window, mode="valid")
        peak = int(np.argmax(sm))
        tol = 1e-3 * sm[peak]
        assert 0 < peak < len(sm) - 1
        assert np.diff(sm[: peak + 1]).min() > -tol
        assert np.diff(sm[peak:]).max() < tol
        assert abs(rate[-1]) < 1e-6 * params.gamma_se

        # analytic rate against a finite-difference oracle at full sampling
        fd_traj = integrate(params, ops8, t_end=6.0 * params.t_se, sample_every=1, fixed_step=True)
        guards_ok(fd_traj)
        fd_sigma = np.array([entropy_production(r) for r in fd_traj.states])
        fd_rate = np.array(
            [entropy_production_rate(r, params, ops8) for r in fd_traj.states]
        )
        h = fd_traj.times[1] - fd_traj.times[0]
        fd = (
            -fd_sigma[4:] + 8 * fd_sigma[3:-1] - 8 * fd_sigma[1:-3] + fd_sigma[:-4]
        ) / (12.0 * h)
        analytic = fd_rate[2:-2]
        mask = np.abs(analytic) > 1e-3 * np.max(np.abs(analytic))
        fd_err = float(
            np.max(np.abs(fd[mask] - analytic[mask]) / np.abs(analytic[mask]))
        )
        assert fd_err < 1e-4

        # Sigma = ln 8 - S_vn, checked against the independent two-state route
        identity_err = max(
            abs(relative_entropy(r, mixed) - s) for r, s in zip(traj.states, sigma)
        )
        assert identity_err < 1e-10
        info["detail"] = (
            f"peak at {traj.t_norm[peak + window // 2]:.1f} T_SE, "
            f"end rate {rate[-1] / params.gamma_se:.2g} gamma_se, "
            f"FD rel err {fd_err:.2g}, identity err {identity_err:.2g}"
        )


def test_c09_qfi_suite(capsys, ops8, h0, make_params, default_run, rng):
    with criterion(capsys, 9, "QFI suite") as info:
        fz = ops8.f_ops[2]
        # z rotations see nothing along any z-pump run
        worst_qfi_z = max(
            quantum_fisher_information(r, fz) for r in default_run.traj.states
        )
        for s in (0.25, 0.5, 0.75):
            p = make_params(s=s)
            rho = lab_states(solve_steady_state(p, ops8)[0], p, ops8)
            worst_qfi_z = max(worst_qfi_z, quantum_fisher_information(rho, fz))
        assert worst_qfi_z < 1e-8

        # pure-state oracle: F_Q = 4 Var(G) on 50 random rank-1 states
        fx = ops8.f_ops[0]
        worst_pure = 0.0
        for _ in range(50):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            var = np.trace(rho @ fx @ fx).real - np.trace(rho @ fx).real ** 2
            worst_pure = max(
                worst_pure, abs(quantum_fisher_information(rho, fx) - 4.0 * var)
            )
        assert worst_pure < 1e-8

        stretched = np.zeros((8, 8), dtype=complex)
        stretched[0, 0] = 1.0
        assert abs(quantum_fisher_information(stretched, fx) - 4.0) < 1e-8

        # driven path at s = 0.75, R_op = gamma_se: QFI vs Sigma is linear
        cfg = RunConfig(
            s_magnitude=0.75,
            t_end_over_t_se=10.0,
            stop_at_steady=False,
            sample_every=50,
        ).validate()
        result = simulate(cfg)
        guards_ok(result.traj)
        states = result.traj.states
        sigma = np.array([entropy_production(r) for r in states])
        qfi_x = np.array([quantum_fisher_information(r, fx) for r in states])
        assert max(
            quantum_fisher_information(r, fz) for r in states[:: 20]
        ) < 1e-8
        fit_x, fit_y = reparametrize_monotone(
            sigma, qfi_x, drop_below=0.01 * sigma[-1]
        )
        _, _, r2 = linear_fit(fit_x, fit_y)
        assert r2 > 0.99

        # QFI vs efficiency bends upward over the top half of the range
        eff = np.array(
            [
                ergotropy(r, h0)
                / max(
                    np.trace(r @ h0).real
                    - float(np.linalg.eigvalsh(h0).min()),
                    1e-300,
                )
                for r in states
            ]
        )
        x, y = reparametrize_monotone(eff, qfi_x)
        gap = (x[-1] - x[0]) / 200.0
        keep = [0]
        for i in range(1, len(x)):
            if x[i] >= x[keep[-1]] + gap:
                keep.append(i)
        x, y = x[keep], y[keep]
        upper = x >= x[0] + 0.5 * (x[-1] - x[0])
        d2 = second_divided_differences(x[upper], y[upper])
        assert d2.min() > 0.0
        info["detail"] = (
            f"max qfi_z {worst_qfi_z:.2g}, pure-state err {worst_pure:.2g}, "
            f"fit R^2 {r2:.5f}, min curvature {d2.min():.3g}"
        )


def test_c10_ergotropy_oracle(capsys, rng):
    with criterion(capsys, 10, "ergotropy oracle") as info:
        worst = 0.0
        for _ in range(50):
            rho = random_density_matrix(rng, dim=4)
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = a + a.conj().T
            w = np.linalg.eigvalsh(rho).real
            eps = np.linalg.eigvalsh(h).real
            brute = float(np.trace(rho @ h).real) - min(
                float(np.dot(perm, eps)) for perm in itertools.permutations(w)
            )
            worst = max(worst, abs(ergotropy(rho, h) - brute))
        assert worst < 1e-12
        info["detail"] = f"max |sorted - brute force| = {worst:.2g} over 50 draws"


def test_c11_reproduce_figures_desk_scale(capsys, tmp_path):
    with criterion(capsys, 11, "figure reproduction at desk scale") as info:
        t0 = time.perf_counter()
        manifest_path = reproduce_figures(RunConfig().validate(), tmp_path)
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0

        with open(manifest_path, newline="") as fh:
            manifest = list(csv.DictReader(fh))
        assert len(manifest) == 22
        for entry in manifest:
            target = tmp_path / entry["file"]
            assert target.exists()
            with open(target, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) - 1 == int(entry["n_rows"])
            assert len(rows[0]) == int(entry["n_cols"])

        with open(tmp_path / "fig5.csv", newline="") as fh:
            fig5 = list(csv.DictReader(fh))
        assert len(fig5) == 13
        gamma_small = float(fig5[0]["gamma_sd_per_s"])  # r = 0.01 cm
        gamma_large = float(fig5[-1]["gamma_sd_per_s"])  # r = 2.5 cm
        assert 2.9e5 / 3.0 <= gamma_small <= 2.9e5 * 3.0
        assert 21.0 / 3.0 <= gamma_large <= 21.0 * 3.0
        for row in fig5:  # every radius: the z-pumped NESS at |s| = 0.5
            r_op = RADIUS_SWEEP_R_OP * float(row["gamma_se_per_s"])
            assert_matches_closed_form(row, 0.5, r_op, float(row["gamma_sd_per_s"]), "z")

        with open(tmp_path / "fit_summary.csv", newline="") as fh:
            fits = {row["axis"]: row for row in csv.DictReader(fh)}
        assert float(fits["x"]["r_squared"]) > 0.99
        assert float(fits["y"]["r_squared"]) > 0.99

        with open(tmp_path / "fig4f.csv", newline="") as fh:
            fig4f = list(csv.reader(fh))
        values = np.array([[float(v) for v in row[1:]] for row in fig4f[1:]])
        assert np.max(np.abs(values)) < 1e-8  # z-rotation QFI stays zero

        info["detail"] = f"22 files in {elapsed:.1f} s, all row/column counts match"
