import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vaporspin
from vaporspin import cli, figures, metrology, thermo
from vaporspin.config import ConfigError, RunConfig
from vaporspin.dynamics import (
    PhysicsViolationError,
    SteadyStateInfo,
    fit_spin_temperature,
    solve_steady_state,
)
from vaporspin.metrology import cramer_rao_bound, quantum_fisher_information
from vaporspin.pipeline import (
    OBSERVABLE_BLOCK,
    TRAJECTORY_COLUMNS,
    build_simulation,
    format_value,
    off_diagonal_mass,
    rotation_to_pump_frame,
    run_single,
    run_sweep,
    simulate,
    stacked_observables,
    steady_state_columns,
    steady_state_row,
    write_csv,
    trajectory_table,
    write_rates_csv,
)
from vaporspin.thermo import thermo_sample
import vaporspin.pipeline as pipeline

from conftest import assert_matches_closed_form, random_density_matrix, random_unitary

POPULATION_COLUMNS = [
    "p_f2_m2", "p_f2_m1", "p_f2_m0", "p_f2_mm1", "p_f2_mm2",
    "p_f1_m1", "p_f1_m0", "p_f1_mm1",
]


def fast_config(**overrides) -> RunConfig:
    """A cheap but fully representative run (coarse hyperfine scale)."""
    base = dict(
        a_hfs_over_gamma_se=20.0,
        t_end_over_t_se=2.0,
        stop_at_steady=False,
        sample_every=100,
    )
    base.update(overrides)
    return RunConfig(**base).validate()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def spy_on_blocks(monkeypatch) -> list[int]:
    """Record the number of columns of every integrate_block call the pipeline makes."""
    blocks: list[int] = []
    real = pipeline.integrate_block

    def spy(rho0, params_seq, *args, **kwargs):
        blocks.append(len(params_seq))
        return real(rho0, params_seq, *args, **kwargs)

    monkeypatch.setattr(pipeline, "integrate_block", spy)
    return blocks


def assert_points_match_standalone_runs(cfg: RunConfig, tmp_path: Path, points=None) -> None:
    """Each sweep point's files equal those of a standalone run_single of its config."""
    values = sorted(cfg.sweep_values)
    for i in range(len(values)) if points is None else points:
        point = dataclasses.replace(cfg, sweep_variable="", sweep_values=(),
                                    **{cfg.sweep_variable: values[i]})
        run_single(point, tmp_path / f"standalone_{i:02d}")
        for name in ("rates.csv", "trajectory.csv", "summary.csv"):
            swept = tmp_path / "sweep" / f"point_{i:02d}" / name
            assert swept.read_bytes() == (tmp_path / f"standalone_{i:02d}" / name).read_bytes(), (i, name)


def stall_steady_state(monkeypatch) -> None:
    """Make every Newton solve report non-convergence (it still returns its iterate)."""
    solve = pipeline.solve_steady_state

    def stalled(params, ops):
        rho, info = solve(params, ops)
        return rho, SteadyStateInfo(converged=False, residual=1.0, iterations=80)

    monkeypatch.setattr(pipeline, "solve_steady_state", stalled)


class TestFormatValue:
    def test_floats_and_special_values(self):
        assert format_value(0.1) == "0.1"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("-inf")) == "-inf"
        assert format_value(np.float64(2.5)) == "2.5"

    def test_booleans_including_numpy(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(np.bool_(True)) == "true"

    def test_integers_and_strings(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(7)) == "7"
        assert format_value("z") == "z"

    @pytest.mark.parametrize("value, text", [
        (True, "true"), (np.bool_(False), "false"),
        (-3, "-3"), (np.int64(12), "12"),
        (1.0 / 3.0, "0.333333333333"), (np.float64(-2.5e-17), "-2.5e-17"),
        (123456789012345.0, "1.23456789012e+14"), (np.float64(1e300), "1e+300"),
        (float("inf"), "inf"), (np.float64("-inf"), "-inf"), (float("nan"), "nan"),
        (np.float64("nan"), "nan"), ("x_pump", "x_pump"),
    ])
    def test_value_to_text_table(self, value, text):
        assert format_value(value) == text

    def test_float_rows_are_written_as_csv_writer_would(self, tmp_path):
        floats = [float("inf"), float("-inf"), float("nan"), -0.0, 1e-300, 5e-324,
                  np.float64(2.5), np.float64("nan"), 1.0 / 3.0, 123456789012345.0]
        rows = [floats, floats[::-1], floats + ["x", 7, True]]
        write_csv(tmp_path / "fast.csv", ["c"] * len(floats), rows)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["c"] * len(floats))
            for row in rows:
                writer.writerow([format_value(v) for v in row])
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestRunSingle:
    def test_writes_all_outputs_with_stable_header(self, tmp_path):
        cfg = fast_config()
        summary = run_single(cfg, tmp_path)
        for name in ("rates.csv", "trajectory.csv", "summary.csv"):
            assert (tmp_path / name).exists()
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == TRAJECTORY_COLUMNS + POPULATION_COLUMNS
        assert len(rows) >= 10
        assert summary["ness_converged"] is True

    def test_deterministic_outputs(self, tmp_path):
        cfg = fast_config()
        run_single(cfg, tmp_path / "a")
        run_single(cfg, tmp_path / "b")
        for name in ("rates.csv", "trajectory.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_summary_matches_analytic_steady_state(self, tmp_path):
        cfg = fast_config()
        summary = run_single(cfg, tmp_path)
        assert summary["s_along_pump"] == pytest.approx(
            summary["s_along_pump_predicted"], rel=1e-8
        )
        assert summary["beta_fit_residual"] < 1e-6
        assert summary["off_diag_mass_pump_frame"] < 1e-12
        assert summary["efficiency"] == pytest.approx(0.792, abs=0.01)

    def test_oversized_trajectory_refused_before_integrating(self, tmp_path, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_block ran")

        monkeypatch.setattr(pipeline, "integrate_block", forbidden)
        with pytest.raises(ConfigError, match="t_end_over_t_se"):
            simulate(RunConfig(t_end_over_t_se=1e5).validate())
        cfg_path = tmp_path / "long.cfg"
        cfg_path.write_text("t_end_over_t_se = 1e5\n")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "t_end_over_t_se" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_trajectory_cap_counts_the_preallocated_bytes(self, monkeypatch):
        cfg = fast_config(sample_every=7)
        traj = simulate(cfg).traj
        n_bytes = traj.states.nbytes + traj.times.nbytes + traj.rhs_norms.nbytes
        monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", n_bytes)
        simulate(cfg)
        monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", n_bytes - 1)
        with pytest.raises(ConfigError, match="cap"):
            simulate(cfg)

    def test_trajectory_table_row_per_sample(self):
        cfg = fast_config(sample_every=200)
        result = simulate(cfg)
        header, rows = trajectory_table(result.traj, result.ops)
        assert len(rows) == len(result.traj)
        assert len(header) == len(rows[0])
        t_col = [r[0] for r in rows]
        assert t_col == sorted(t_col)


def oracle_observables(rho, params, ops) -> dict[str, float]:
    """One state's trajectory.csv observables from the scalar routines."""
    th = thermo_sample(rho, params, ops)
    ref = {
        "s_vn": th.s_vn, "sigma": th.sigma, "sigma_rate_per_s": th.sigma_rate,
        "energy_over_a": th.energy, "ergotropy_over_a": th.ergotropy,
        "efficiency": th.efficiency,
    }
    for axis, f, s in zip("xyz", ops.f_ops, ops.s_ops):
        qfi = quantum_fisher_information(rho, f)
        ref[f"qfi_{axis}"] = qfi
        ref[f"crb_{axis}"] = cramer_rao_bound(qfi)
        ref[f"f{axis}"] = np.trace(f @ rho).real
        ref[f"s{axis}"] = np.trace(s @ rho).real
    return ref


class TestStackedObservables:
    """The one-eigh-per-state pass against the scalar oracles, at 1e-12."""

    def check(self, states, params, ops):
        got = stacked_observables(states, params, ops)
        assert set(got) == set(TRAJECTORY_COLUMNS[2:]) | {"populations"}
        refs = [oracle_observables(rho, params, ops) for rho in states]
        for key in TRAJECTORY_COLUMNS[2:]:
            want = np.array([r[key] for r in refs])
            assert got[key].shape == want.shape
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got[key]), finite), key
            scale = max(np.abs(want[finite]).max(initial=0.0), 1.0)
            np.testing.assert_allclose(
                got[key][finite], want[finite], rtol=0.0, atol=1e-12 * scale, err_msg=key
            )
        pops = np.clip(np.diagonal(states, axis1=1, axis2=2).real, 0.0, None)
        np.testing.assert_array_equal(got["populations"], pops)
        return got

    @pytest.mark.parametrize("n", [1, OBSERVABLE_BLOCK, 2 * OBSERVABLE_BLOCK + 13])
    def test_random_full_rank_states(self, ops8, make_params, rng, n):
        states = np.stack([random_density_matrix(rng) for _ in range(n)])
        self.check(states, make_params(s=0.7, axis="x"), ops8)

    def test_pure_states(self, ops8, make_params, rng):
        states = np.stack([random_density_matrix(rng, rank=1) for _ in range(5)])
        got = self.check(states, make_params(), ops8)
        assert np.all(got["s_vn"] < 1e-12)

    def test_ground_state_has_no_efficiency(self, ops8, make_params):
        states = np.zeros((4, 8, 8), dtype=complex)
        for i, k in enumerate((5, 6, 7)):
            states[i, k, k] = 1.0
        states[3, 5:, 5:] = np.eye(3) / 3.0
        got = self.check(states, make_params(), ops8)
        assert np.all(np.abs(got["energy_over_a"]) < 1e-12)
        assert np.all(got["efficiency"] == 0.0)

    def test_near_zero_eigenvalue_pairs(self, ops8, make_params, rng):
        # pairs straddling the QFI pair cutoff: kept, dropped, and exact zeros
        spectra = [
            [0.6, 0.4 - 3e-13, 1e-13, 2e-13, 0.0, 0.0, 0.0, 0.0],
            [0.5, 0.5 - 2e-12, 1e-12, 1e-12, 0.0, 0.0, 0.0, 0.0],
            [1.0 - 4e-15, 1e-15, 1e-15, 1e-15, 1e-15, 0.0, 0.0, 0.0],
        ]
        states = []
        for lam in spectra:
            u = random_unitary(rng, 8)
            states.append((u * np.array(lam)) @ u.conj().T)
        self.check(np.stack(states), make_params(s=0.3, axis="y"), ops8)

    def test_trajectory_states(self):
        result = simulate(fast_config(pump_axis="x", sample_every=20))
        self.check(result.traj.states, result.params, result.ops)


class TestPumpFrame:
    def test_x_pump_steady_state_is_diagonal_in_pump_frame(self, ops8, make_params):
        p = make_params(s=0.5, axis="x")
        rho, info = solve_steady_state(p, ops8)
        assert info.converged
        frame = rotation_to_pump_frame(ops8, "x")
        rho_pump = frame.conj().T @ rho @ frame
        assert off_diagonal_mass(rho_pump) < 1e-12
        assert off_diagonal_mass(rho) > 1e-3  # genuinely rotated, not diagonal

    def test_pump_frame_beta_agrees_across_axes(self, ops8, make_params):
        betas = {}
        for axis in ("x", "y", "z"):
            p = make_params(s=0.5, axis=axis)
            rho, _ = solve_steady_state(p, ops8)
            frame = rotation_to_pump_frame(ops8, axis)
            pops = np.clip(np.diag(frame.conj().T @ rho @ frame).real, 0.0, None)
            beta, resid = fit_spin_temperature(pops, ops8.labels)
            assert resid < 1e-8
            betas[axis] = beta
        assert betas["x"] == pytest.approx(betas["z"], rel=1e-9)
        assert betas["y"] == pytest.approx(betas["z"], rel=1e-9)

    @pytest.mark.parametrize("axis, r_op, temperature_c", [
        ("z", 1.0, 120.0), ("x", 1.5, 125.0), ("y", 1.3, 128.0),
    ])
    def test_beta_fit_matches_closed_form_at_full_polarization(self, axis, r_op, temperature_c):
        # populations fall to 1e-12 at |s| = 1, below the solver's absolute
        # precision; the p-weighted fit rests on the well-resolved ones
        cfg = RunConfig(pump_axis=axis, s_magnitude=1.0, r_op_over_gamma_se=r_op,
                        temperature_c=temperature_c).validate()
        ops, _, params = build_simulation(cfg)
        rho, info = solve_steady_state(params, ops)
        assert info.converged
        pol = params.r_op / (params.r_op + params.gamma_sd)
        beta = math.log((1.0 + pol) / (1.0 - pol))
        got = steady_state_columns(cfg, ops, params, rho)["beta_fit"]
        assert got == pytest.approx(beta, rel=1e-9)

    def test_unknown_axis_rejected(self, ops8):
        with pytest.raises(ValueError, match="axis"):
            rotation_to_pump_frame(ops8, "w")

    def test_off_diagonal_mass_by_hand(self):
        m = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        assert off_diagonal_mass(m) == pytest.approx(0.18, rel=1e-12)
        assert off_diagonal_mass(np.diag([0.25, 0.75]).astype(complex)) == 0.0


class TestClosedFormSteadyState:
    """The steady state against a closed form that shares no code with the package."""

    @pytest.mark.parametrize("axis", ["z", "x"])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_summary_matches_closed_form(self, tmp_path, axis, s):
        run_single(fast_config(pump_axis=axis, s_magnitude=s), tmp_path)
        header, rows = read_csv(tmp_path / "summary.csv")
        row = dict(zip(header, rows[0]))
        assert_matches_closed_form(row, s, float(row["r_op_per_s"]), float(row["gamma_sd_per_s"]), axis)

    def test_newton_stops_at_the_closed_form(self, tmp_path):
        # Newton starts from the closed form, an exact fixed point, so it stops
        # at its first residual check wherever the integration ended
        cfg = RunConfig(t_end_over_t_se=1.0, stop_at_steady=False,
                        sweep_variable="s_magnitude", sweep_values=(0.5, 1.0)).validate()
        path, statuses = run_sweep(cfg, tmp_path)
        assert statuses == ["ok", "ok"]
        header, rows = read_csv(path)
        assert [r[header.index("ness_iterations")] for r in rows] == ["1", "1"]
        assert float(rows[1][header.index("beta_fit_residual")]) < 1e-10


class TestSweep:
    def test_points_match_standalone_runs(self, tmp_path):
        cfg = fast_config(sweep_variable="s_magnitude", sweep_values=(0.5, 0.25))
        path, statuses = run_sweep(cfg, tmp_path / "sweep")
        assert statuses == ["ok", "ok"]
        header, rows = read_csv(path)
        assert header[:3] == ["s_magnitude", "status", "error"]
        assert "s_magnitude" not in header[3:]  # swept key appears exactly once
        assert [r[0] for r in rows] == ["0.25", "0.5"]  # ascending order

        # point_00 must be bit-identical to a standalone run at that value
        standalone = tmp_path / "standalone"
        run_single(fast_config(s_magnitude=0.25), standalone)
        assert (tmp_path / "sweep" / "point_00" / "summary.csv").read_bytes() == (
            standalone / "summary.csv"
        ).read_bytes()

    @pytest.mark.parametrize("overrides", [
        # G_SE, and with it A, the step and the horizon, differ at each temperature
        dict(sweep_variable="temperature_c", sweep_values=(130.0, 110.0, 120.0)),
        # the pump sets the step, so only H0 differs
        dict(sweep_variable="a_hfs_over_gamma_se", sweep_values=(1.5, 1.0), r_op_over_gamma_se=2.0),
    ])
    def test_points_in_separate_groups_match_standalone_runs(self, tmp_path, monkeypatch, overrides):
        blocks = spy_on_blocks(monkeypatch)
        cfg = fast_config(**overrides)
        _, statuses = run_sweep(cfg, tmp_path / "sweep")
        assert statuses == ["ok"] * len(cfg.sweep_values)
        assert blocks == [1] * len(cfg.sweep_values)
        assert_points_match_standalone_runs(cfg, tmp_path)

    def test_columns_stopping_at_steady_match_standalone_runs(self, tmp_path, monkeypatch):
        blocks = spy_on_blocks(monkeypatch)
        cfg = RunConfig(t_end_over_t_se=2.0, steady_tol=0.03, sweep_variable="r_op_over_gamma_se",
                        sweep_values=(0.25, 1.0, 4.0)).validate()
        _, statuses = run_sweep(cfg, tmp_path / "sweep")
        assert statuses == ["ok"] * 3
        assert blocks == [3]
        samples = [len(read_csv(tmp_path / "sweep" / f"point_{i:02d}" / "trajectory.csv")[1])
                   for i in range(3)]
        assert samples == [276, 1001, 1001]
        assert_points_match_standalone_runs(cfg, tmp_path)

    def test_blocks_are_cut_at_the_trajectory_cap(self, tmp_path, monkeypatch):
        traj = simulate(fast_config()).traj
        n_bytes = traj.states.nbytes + traj.times.nbytes + traj.rhs_norms.nbytes
        monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", 2 * n_bytes)
        blocks = spy_on_blocks(monkeypatch)
        cfg = fast_config(sweep_variable="s_magnitude", sweep_values=(0.25, 0.5, 0.75))
        _, statuses = run_sweep(cfg, tmp_path / "sweep")
        assert statuses == ["ok"] * 3
        assert blocks == [2, 1]

    def test_failed_point_recorded_not_fatal(self, tmp_path):
        cfg = fast_config(sweep_variable="radius_cm", sweep_values=(-1.0, 1.5))
        path, statuses = run_sweep(cfg, tmp_path)
        assert statuses == ["error", "ok"]
        _, rows = read_csv(path)
        assert rows[0][1] == "error"
        assert "radius" in rows[0][2]
        assert rows[1][1] == "ok"

    def test_physics_violation_recorded(self, tmp_path, monkeypatch):
        # the middle point gets a spin-destruction rate, 1e7 A, that needs steps
        # below the floor, 1e-6 of the sample interval (100 grid units of 1/(50 A))
        def build(cfg):
            ops, rates, params = build_simulation(cfg)
            if cfg.s_magnitude == 0.5:
                params = dataclasses.replace(params, gamma_sd=1e7 * params.a_hfs)
            return ops, rates, params

        monkeypatch.setattr(pipeline, "build_simulation", build)
        monkeypatch.setattr(pipeline, "default_dt", lambda p, steps_per_rate: 1.0 / (steps_per_rate * p.a_hfs))
        blocks = spy_on_blocks(monkeypatch)
        cfg = fast_config(sweep_variable="s_magnitude", sweep_values=(0.25, 0.5, 0.75))
        with np.errstate(over="ignore", invalid="ignore"):
            path, statuses = run_sweep(cfg, tmp_path / "sweep")
            with pytest.raises(PhysicsViolationError) as caught:
                run_single(fast_config(s_magnitude=0.5), tmp_path / "standalone_01")
        assert statuses == ["ok", "physics_violation", "ok"]
        # the block is re-run without the failed column; the standalone run is one more
        assert blocks == [3, 2, 1]
        header, rows = read_csv(path)
        assert rows[1][header.index("error")] == str(caught.value)
        assert "below the floor" in str(caught.value)
        assert not (tmp_path / "sweep" / "point_01").exists()
        assert_points_match_standalone_runs(cfg, tmp_path, points=(0, 2))

    def test_block_failure_is_recorded_for_its_points(self, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("no room for the samples")

        monkeypatch.setattr(pipeline, "integrate_block", exhausted)
        cfg = fast_config(sweep_variable="s_magnitude", sweep_values=(0.25, 0.5))
        path, statuses = run_sweep(cfg, tmp_path)
        assert statuses == ["error", "error"]
        header, rows = read_csv(path)
        assert {r[header.index("error")] for r in rows} == {"MemoryError: no room for the samples"}

    def test_point_configs_are_validated(self, tmp_path, capsys):
        # the same value that `run` refuses with exit 2
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("a_hfs_over_gamma_se = 0\n")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert "a_hfs_over_gamma_se must be > 0" in capsys.readouterr().err
        cfg_path.write_text(
            "t_end_over_t_se = 2\nstop_at_steady = false\nsample_every = 100\n"
            "sweep_variable = a_hfs_over_gamma_se\nsweep_values = 0, 20\n"
        )
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep")]) == cli.EXIT_RUNTIME
        header, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
        assert [r[header.index("status")] for r in rows] == ["error", "ok"]
        assert rows[0][header.index("error")] == "ConfigError: a_hfs_over_gamma_se must be > 0"
        assert not (tmp_path / "sweep" / "point_00").exists()

    def test_non_finite_sweep_value_exits_2_naming_the_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("sweep_variable = s_magnitude\nsweep_values = 0.5, nan\n")
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep")]) == 2
        assert "sweep.cfg:2: sweep_values must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_requires_sweep_variable(self, tmp_path):
        with pytest.raises(ValueError, match="sweep_variable"):
            run_sweep(fast_config(), tmp_path)


class TestOneIntegrationPath:
    @pytest.mark.parametrize("overrides, key", [
        # G_SE, and with it A in 1/s and the horizon in seconds, differ
        (dict(temperature_c=130.0), "a_hfs_per_s"),
        (dict(nuclear_spin=2.5), "nuclear_spin"),
        (dict(t_end_over_t_se=1.0), "t_end_s"),
        (dict(sample_every=50), "sample_every"),
        (dict(stop_at_steady=True), "stop_at_steady"),
        (dict(steady_tol=1e-3), "steady_tol"),
    ])
    def test_block_of_configs_that_differ_in_h0_or_sampling_is_refused(self, monkeypatch, overrides, key):
        blocks = spy_on_blocks(monkeypatch)
        with pytest.raises(ValueError, match=f"differ in {key}:"):
            pipeline.integrate_runs([fast_config(), fast_config(**overrides)])
        assert blocks == []

    def test_run_sweep_and_figures_each_make_one_block_call(self, tmp_path, monkeypatch):
        calls: list[tuple[int, bool]] = []
        real = pipeline.integrate_block

        def spy(rho0, params_seq, *args, **kwargs):
            calls.append((len(params_seq), kwargs.get("fixed_step", False)))
            return real(rho0, params_seq, *args, **kwargs)

        monkeypatch.setattr(pipeline, "integrate_block", spy)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("a_hfs_over_gamma_se = 20\nt_end_over_t_se = 0.5\nsample_every = 100\n")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        assert calls == [(1, False)]
        with open(cfg_path, "a") as fh:
            fh.write("sweep_variable = s_magnitude\nsweep_values = 0.25, 0.5, 0.75, 1.0\n")
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep")]) == 0
        assert calls[1:] == [(4, False)]
        cfg_path.write_text("dt_steps_per_rate = 1\n")
        assert cli.main(["reproduce-figures", "--config", str(cfg_path), "--out", str(tmp_path / "figs")]) == 0
        assert calls[2:] == [(len(figures.SERIES), True)] == [(9, True)]


class TestOneObservablePath:
    """Steady states take the stacked pass; symmetry zeros are written exactly."""

    @pytest.mark.parametrize("axis", ["z", "x"])
    def test_zero_by_symmetry_cells_are_exact(self, tmp_path, axis):
        # a state pumped along an axis is invariant under rotations about it
        run_single(RunConfig(pump_axis=axis, t_end_over_t_se=0.5).validate(), tmp_path)
        for name in ("trajectory.csv", "summary.csv"):
            header, rows = read_csv(tmp_path / name)
            assert {r[header.index(f"qfi_{axis}")] for r in rows} == {"0"}, name
            assert {r[header.index(f"crb_{axis}")] for r in rows} == {"inf"}, name
        # the floor leaves the transverse QFIs alone from the first sample on
        header, rows = read_csv(tmp_path / "trajectory.csv")
        for other in "xyz".replace(axis, ""):
            assert min(float(r[header.index(f"qfi_{other}")]) for r in rows[1:]) > 1e-8
        header, rows = read_csv(tmp_path / "summary.csv")
        assert rows[0][header.index("sigma_rate_per_s")] == "0"

    def test_scalar_oracles_apply_the_same_floors(self, ops8, make_params):
        params = make_params(s=1.0, axis="x")
        rho, info = solve_steady_state(params, ops8)
        assert info.converged
        got = stacked_observables(rho[None], params, ops8)
        qfi = quantum_fisher_information(rho, ops8.f_ops[0])
        assert qfi == got["qfi_x"][0] == 0.0
        assert cramer_rao_bound(qfi) == got["crb_x"][0] == math.inf
        assert thermo_sample(rho, params, ops8).sigma_rate == got["sigma_rate_per_s"][0] == 0.0

    def test_run_sweep_and_radius_points_skip_the_scalar_routines(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a scalar observable routine ran")

        for module in (vaporspin, pipeline, figures, thermo, metrology):
            for name in ("thermo_sample", "quantum_fisher_information", "cramer_rao_bound"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        run_single(fast_config(), tmp_path / "run")
        cfg = fast_config(sweep_variable="s_magnitude", sweep_values=(0.25, 1.0))
        path, statuses = run_sweep(cfg, tmp_path / "sweep")
        assert statuses == ["ok", "ok"]
        header, rows = read_csv(path)
        assert [r[header.index("sigma_rate_per_s")] for r in rows] == ["0", "0"]
        assert [r[header.index("crb_z")] for r in rows] == ["inf", "inf"]
        base = RunConfig().validate()
        points = [figures._radius_point(base, float(radius)) for radius in figures.RADIUS_GRID]
        assert [p["qfi_z"] for p in points] == [0.0] * len(figures.RADIUS_GRID)


class TestCli:
    def test_benchmark_tracer_finds_every_name_it_wraps(self, tmp_path):
        # the tracer looks up each function it wraps before the run starts
        root = Path(__file__).resolve().parents[1]
        src = str(Path(vaporspin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cfg_path = tmp_path / "cell.cfg"
        cfg_path.write_text("radius_cm = 1.5\n")
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "traced.py"), "rates", str(cfg_path), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["exit_code"] == 0

    def test_rates_command(self, tmp_path, capsys):
        assert cli.main(["rates", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rates.csv").exists()
        out = capsys.readouterr().out
        assert "gamma_se_per_s" in out

    def test_run_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "fast.cfg"
        cfg_path.write_text(
            "a_hfs_over_gamma_se = 20\nt_end_over_t_se = 2\n"
            "stop_at_steady = false\nsample_every = 100\n"
        )
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        for name in ("rates.csv", "trajectory.csv", "summary.csv"):
            assert (tmp_path / "out" / name).exists()
        assert "s_along_pump" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(
            "a_hfs_over_gamma_se = 20\nt_end_over_t_se = 2\n"
            "stop_at_steady = false\nsample_every = 100\n"
            "sweep_variable = s_magnitude\nsweep_values = 0.3, 0.6\n"
        )
        # --jobs is accepted and ignored
        code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sw"), "--jobs", "2"])
        assert code == 0
        assert (tmp_path / "sw" / "sweep.csv").exists()
        assert "2/2 points ok" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("not_a_key = 1\n")
        assert cli.main(["rates", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["rates", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_sweep_without_variable_exits_2(self, tmp_path, capsys):
        assert cli.main(["sweep", "--out", str(tmp_path)]) == 2
        assert "sweep requires" in capsys.readouterr().err

    def test_physics_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        def explode(cfg, out_dir):
            raise PhysicsViolationError("trace drift exceeded 1e-6", 40, 1.2e-4)

        monkeypatch.setattr(cli, "run_single", explode)
        assert cli.main(["run", "--out", str(tmp_path)]) == 3
        assert "physics violation" in capsys.readouterr().err

    def test_unconverged_steady_state_exits_5(self, tmp_path, monkeypatch, capsys):
        stall_steady_state(monkeypatch)
        cfg_path = tmp_path / "fast.cfg"
        cfg_path.write_text(
            "a_hfs_over_gamma_se = 20\nt_end_over_t_se = 2\n"
            "stop_at_steady = false\nsample_every = 100\n"
        )
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NOT_CONVERGED == 5
        assert "did not converge" in capsys.readouterr().err
        assert (tmp_path / "out" / "trajectory.csv").exists()
        header, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert rows[0][header.index("ness_converged")] == "false"

    def test_unconverged_sweep_point_exits_5(self, tmp_path, monkeypatch, capsys):
        stall_steady_state(monkeypatch)
        fast = (
            "a_hfs_over_gamma_se = 20\nt_end_over_t_se = 2\n"
            "stop_at_steady = false\nsample_every = 100\nsweep_variable = radius_cm\n"
        )
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(fast + "sweep_values = 1.0, 1.5\n")
        code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sw")])
        assert code == cli.EXIT_NOT_CONVERGED == 5
        assert "0/2 points ok" in capsys.readouterr().out
        header, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        assert [r[header.index("status")] for r in rows] == ["not_converged"] * 2
        assert [r[header.index("ness_converged")] for r in rows] == ["false"] * 2

        # a failed point outranks a non-converged one
        cfg_path.write_text(fast + "sweep_values = -1.0, 1.5\n")
        code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sw2")])
        assert code == cli.EXIT_RUNTIME
        _, rows = read_csv(tmp_path / "sw2" / "sweep.csv")
        assert [r[1] for r in rows] == ["error", "not_converged"]

    def test_runtime_error_exits_4(self, tmp_path, monkeypatch, capsys):
        def explode(cfg, out_dir):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cli, "run_single", explode)
        assert cli.main(["run", "--out", str(tmp_path)]) == 4
        assert "disk on fire" in capsys.readouterr().err

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--jobs", "0"])
        assert exc.value.code == 2


class TestRatesCsv:
    def test_single_row_with_cell_echo(self, tmp_path, default_rates):
        path = write_rates_csv(tmp_path / "rates.csv", default_rates)
        header, rows = read_csv(path)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["gamma_se_per_s"]) == pytest.approx(default_rates.gamma_se)
        assert float(row["gamma_sd_per_s"]) == pytest.approx(default_rates.gamma_sd)
        assert row["include_wall"] == "true"
        assert float(row["radius_cm"]) == 1.5

    def test_build_simulation_consistency(self):
        cfg = fast_config()
        ops, rates, params = build_simulation(cfg)
        assert params.gamma_se == rates.gamma_se
        assert params.gamma_sd == rates.gamma_sd
        assert params.a_hfs == pytest.approx(20.0 * rates.gamma_se)
        assert ops.a_hfs == params.a_hfs
        assert params.s == (0.0, 0.0, 0.5)
