import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from vaporspin import cli
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
    steady_state_row,
    trajectory_table,
    write_rates_csv,
)
from vaporspin.thermo import thermo_sample
import vaporspin.pipeline as pipeline

from conftest import random_density_matrix, random_unitary

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


def stall_steady_state(monkeypatch) -> None:
    """Make every Newton solve report non-convergence (it still returns its iterate)."""
    solve = pipeline.solve_steady_state

    def stalled(params, ops, seed=None, **kwargs):
        rho, info = solve(params, ops, seed=seed, **kwargs)
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
            raise AssertionError("integrate ran")

        monkeypatch.setattr(pipeline, "integrate", forbidden)
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

    def test_unknown_axis_rejected(self, ops8):
        with pytest.raises(ValueError, match="axis"):
            rotation_to_pump_frame(ops8, "w")

    def test_off_diagonal_mass_by_hand(self):
        m = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        assert off_diagonal_mass(m) == pytest.approx(0.18, rel=1e-12)
        assert off_diagonal_mass(np.diag([0.25, 0.75]).astype(complex)) == 0.0


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

    def test_parallel_matches_serial(self, tmp_path):
        cfg = fast_config(sweep_variable="r_op_over_gamma_se", sweep_values=(0.5, 1.0))
        serial, s_statuses = run_sweep(cfg, tmp_path / "serial", jobs=1)
        parallel, p_statuses = run_sweep(cfg, tmp_path / "parallel", jobs=2)
        assert s_statuses == p_statuses == ["ok", "ok"]
        assert serial.read_bytes() == parallel.read_bytes()

    def test_failed_point_recorded_not_fatal(self, tmp_path):
        cfg = fast_config(sweep_variable="radius_cm", sweep_values=(-1.0, 1.5))
        path, statuses = run_sweep(cfg, tmp_path)
        assert statuses == ["error", "ok"]
        _, rows = read_csv(path)
        assert rows[0][1] == "error"
        assert "radius" in rows[0][2]
        assert rows[1][1] == "ok"

    def test_physics_violation_recorded(self, tmp_path, monkeypatch):
        def explode(cfg, out_dir):
            raise PhysicsViolationError("state left the physical cone", 12, 3.4e-5)

        monkeypatch.setattr(pipeline, "run_single", explode)
        cfg = fast_config(sweep_variable="s_magnitude", sweep_values=(0.5,))
        _, statuses = run_sweep(cfg, tmp_path)
        assert statuses == ["physics_violation"]

    def test_requires_sweep_variable(self, tmp_path):
        with pytest.raises(ValueError, match="sweep_variable"):
            run_sweep(fast_config(), tmp_path)


class TestCli:
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
        code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sw")])
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
