import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vaporspin
from vaporspin import cli, dynamics, figures, metrology, stepper, thermo
from vaporspin.config import ConfigError, RunConfig
from vaporspin.dynamics import (
    PhysicsViolationError,
    SteadyStateInfo,
    block_rhs,
    build_superops,
    fit_spin_temperature,
    lab_states,
    mf_blocks,
    pump_frame,
    solve_steady_state,
)
from vaporspin.metrology import cramer_rao_bound, quantum_fisher_information
from vaporspin.spin_algebra import build_coupled_operators
from vaporspin.pipeline import (
    TRAJECTORY_COLUMNS,
    build_simulation,
    format_value,
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

from conftest import assert_matches_closed_form

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

    def spy(params_seq, *args, **kwargs):
        blocks.append(len(params_seq))
        return real(params_seq, *args, **kwargs)

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

    def test_float_array_is_written_as_its_rows_would_be(self, tmp_path):
        floats = [float("inf"), float("-inf"), float("nan"), -0.0, 1e-300, 5e-324,
                  2.5, 1.0 / 3.0, 123456789012345.0, -2.5e-17]
        table = np.array([floats, floats[::-1]])
        write_csv(tmp_path / "array.csv", ["c"] * len(floats), table)
        write_csv(tmp_path / "rows.csv", ["c"] * len(floats), table.tolist())
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


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

    def test_oversized_figures_refused_before_making_their_directory(self, tmp_path, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_block ran")

        monkeypatch.setattr(pipeline, "integrate_block", forbidden)
        cfg_path = tmp_path / "fine.cfg"
        cfg_path.write_text("dt_steps_per_rate = 1e7\n")
        assert cli.main(["reproduce-figures", "--config", str(cfg_path), "--out", str(tmp_path / "a" / "b")]) == 2
        assert "dt_steps_per_rate" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_trajectory_cap_counts_the_preallocated_bytes(self, monkeypatch):
        cfg = fast_config(sample_every=7)
        traj = simulate(cfg).traj
        n_bytes = traj.states.nbytes + 2 * traj.times.nbytes
        monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", n_bytes)
        simulate(cfg)
        monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", n_bytes - 1)
        with pytest.raises(ConfigError, match="cap"):
            simulate(cfg)

    def test_trajectory_table_row_per_sample(self):
        cfg = fast_config(sample_every=200)
        result = simulate(cfg)
        header, table = trajectory_table(result.traj, result.ops)
        assert table.shape == (len(result.traj), len(header))
        np.testing.assert_array_equal(table[:, 0], result.traj.times)

    @pytest.mark.parametrize("overrides", [
        dict(sample_every=20),  # 101 samples
        dict(stop_at_steady=True, steady_tol=0.03, t_end_over_t_se=10.0, sample_every=10),  # stops at sample 604
    ], ids=["no_stop", "steady_stop"])
    def test_chunking_never_changes_bytes(self, tmp_path, monkeypatch, overrides):
        cfg = fast_config(**overrides)
        sweep = dataclasses.replace(cfg, sweep_variable="s_magnitude", sweep_values=(0.25, 0.5, 0.75))
        written = {}
        for chunk in (1, 7, 64, stepper.SAMPLE_CHUNK):
            monkeypatch.setattr(stepper, "SAMPLE_CHUNK", chunk)
            summary = run_single(cfg, tmp_path / f"{chunk}" / "run")
            assert run_sweep(sweep, tmp_path / f"{chunk}" / "sweep")[1] == ["ok"] * 3
            files = sorted((tmp_path / f"{chunk}").rglob("*.csv"))
            written[chunk] = {path.relative_to(tmp_path / f"{chunk}"): path.read_bytes() for path in files}
        assert len(written[1]) == 3 + 3 * 3 + 1  # the run's files, each point's and sweep.csv
        n = summary["n_samples"]
        assert n % 7 and n % 64 and n % stepper.SAMPLE_CHUNK  # a multiple of no chunk size
        assert summary["reached_steady"] == overrides.get("stop_at_steady", False)
        assert written[1] == written[7] == written[64] == written[stepper.SAMPLE_CHUNK]

    @pytest.mark.parametrize("chunk", [1, 7, 64, stepper.SAMPLE_CHUNK])
    def test_failed_write_leaves_no_trajectory_file(self, tmp_path, monkeypatch, chunk):
        calls = []

        def fail_on_second_call(x, params, ops, rhs):
            calls.append(len(x))
            if len(calls) == 2:
                raise RuntimeError("the pass failed")
            return stacked_observables(x, params, ops, rhs)

        monkeypatch.setattr(pipeline, "stacked_observables", fail_on_second_call)
        monkeypatch.setattr(stepper, "SAMPLE_CHUNK", chunk)
        with pytest.raises(RuntimeError, match="the pass failed"):
            run_single(fast_config(sample_every=20), tmp_path / "run" / "nested")
        calls.clear()
        cfg = fast_config(sample_every=20, sweep_variable="s_magnitude", sweep_values=(0.25, 0.5, 0.75))
        path, statuses = run_sweep(cfg, tmp_path / "sweep")
        assert statuses == ["error"] * 3  # the pass runs as the block steps, so the block shares the failure
        # rates.csv is written after stepping, and no directory that a run or point made is left
        assert sorted(os.listdir(tmp_path)) == ["sweep"]
        assert os.listdir(tmp_path / "sweep") == ["sweep.csv"]

    def test_run_holds_no_sample_store(self, tmp_path):
        # 1,001 and 4,001 samples; the store of the 3,000 more would be 3000 (n + 1) 8 bytes
        def peak(t_end_over_t_se: float) -> int:
            cfg = fast_config(t_end_over_t_se=t_end_over_t_se, sample_every=1)
            run_single(cfg, tmp_path / f"warm_{t_end_over_t_se:g}")
            tracemalloc.start()
            try:
                run_single(cfg, tmp_path / f"run_{t_end_over_t_se:g}")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = mf_blocks(build_coupled_operators(1.5)).sector.size
        # the float rows of one flush's trajectory.csv, with their states and dx/dt
        one_flush = stepper.SAMPLE_CHUNK * (len(TRAJECTORY_COLUMNS + POPULATION_COLUMNS) + 2 * n) * 8
        assert 3000 * (n + 1) * 8 > 3 * one_flush
        assert peak(4.0) - peak(1.0) < one_flush


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


# the pump directions whose frames turn the test states to the lab
FRAMES = {"x": (0.7, 0.0, 0.0), "y": (0.0, 0.7, 0.0), "z": (0.0, 0.0, 0.7), "oblique": (0.3, -0.4, 0.2)}


def block_coordinates(ops, w, theta, phi) -> np.ndarray:
    """Sector coordinates of pump-frame states with the m_F block spectra ``w`` (n, d) and pair angles (n, 2I).

    The inverse of :func:`block_spectra`: each pair's eigenvalue at its upper
    level goes with (cos t, e^{-i phi} sin t), t = theta / 2.
    """
    blocks = mf_blocks(ops)
    d, pairs = ops.dim, blocks.upper.size
    plus, minus = w[:, blocks.upper], w[:, blocks.lower]
    cos2, sin2 = np.cos(0.5 * theta) ** 2, np.sin(0.5 * theta) ** 2
    x = np.zeros((len(w), d + 2 * pairs))
    x[:, blocks.single] = w[:, blocks.single]
    x[:, blocks.upper] = plus * cos2 + minus * sin2
    x[:, blocks.lower] = plus * sin2 + minus * cos2
    coherence = (plus - minus) * np.sin(theta) / math.sqrt(2.0)
    x[:, d : d + pairs] = coherence * np.cos(phi)
    x[:, d + pairs :] = coherence * np.sin(phi)
    return x


def random_block_states(rng, ops, n) -> np.ndarray:
    """n random pump-frame states: random levels, each pair block a random 2 x 2 density matrix."""
    w = rng.uniform(size=(n, ops.dim))
    pairs = mf_blocks(ops).upper.size
    return block_coordinates(ops, w / w.sum(axis=1, keepdims=True),
                             rng.uniform(0.0, math.pi, size=(n, pairs)), rng.uniform(-math.pi, math.pi, size=(n, pairs)))


class TestStackedObservables:
    """The block-spectra pass against the scalar oracles on the lab-frame states, at 1e-12."""

    def check(self, x, params, ops):
        got = stacked_observables(x, params, ops, block_rhs(x, build_superops(params, ops)))
        assert set(got) == set(TRAJECTORY_COLUMNS[2:]) | {"populations"}
        states = lab_states(x, params, ops)
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
        if params.s[0] == params.s[1] == 0.0:  # no turn: the populations are the coordinates
            np.testing.assert_array_equal(got["populations"], pops)
        else:
            np.testing.assert_allclose(got["populations"], pops, rtol=0.0, atol=1e-15)
        return got

    @pytest.mark.parametrize("n", [1, 64, 141])
    def test_random_full_rank_states(self, ops8, make_params, rng, n):
        self.check(random_block_states(rng, ops8, n), make_params(s=0.7, axis="x"), ops8)

    @pytest.mark.parametrize("nuclear_spin", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("frame", list(FRAMES))
    def test_random_states_in_every_frame(self, make_params, rng, nuclear_spin, frame):
        ops = build_coupled_operators(nuclear_spin)
        self.check(random_block_states(rng, ops, 40), dataclasses.replace(make_params(), s=FRAMES[frame]), ops)

    def test_pure_states(self, ops8, make_params, rng):
        # one level of a block of one, or a pure state of one pair block,
        # Haar-random within it as random_density_matrix(rank=1) is in the full space
        blocks, n = mf_blocks(ops8), 6
        pairs = blocks.upper.size
        w = np.zeros((n, 8))
        w[0, blocks.single[0]] = 1.0
        w[np.arange(1, n), blocks.upper[rng.integers(pairs, size=n - 1)]] = 1.0
        theta = 2.0 * np.arccos(np.sqrt(rng.uniform(size=(n, pairs))))  # |<upper|psi>|^2 uniform
        x = block_coordinates(ops8, w, theta, rng.uniform(-math.pi, math.pi, size=(n, pairs)))
        for s in FRAMES.values():
            got = self.check(x, dataclasses.replace(make_params(), s=s), ops8)
            assert np.all(got["s_vn"] < 1e-12)

    def test_ground_state_has_no_efficiency(self, ops8, make_params):
        # the F = 1 levels are the lower levels of the three pairs
        lower = mf_blocks(ops8).lower
        x = np.zeros((4, mf_blocks(ops8).sector.size))
        x[np.arange(3), lower] = 1.0
        x[3, lower] = 1.0 / 3.0
        for s in FRAMES.values():
            got = self.check(x, dataclasses.replace(make_params(), s=s), ops8)
            assert np.all(np.abs(got["energy_over_a"]) < 1e-12)
            assert np.all(got["efficiency"] == 0.0)

    def test_near_zero_eigenvalue_pairs(self, ops8, make_params, rng):
        # pairs straddling the QFI pair cutoff, within a block and across
        # neighbouring ones: kept, dropped, and exact zeros.  Levels 0 and 4
        # are blocks of one; (1, 5), (2, 6) and (3, 7) are pairs, turned at
        # random.  Each small eigenvalue shares its block with a small or an
        # empty level, so the stored coordinates fix it to its own precision.
        # The states stay in the pump frame: the oracle's diagonalization of
        # a turned, dense lab state moves a 1e-13 eigenvalue by eps, 1e-3 of
        # itself, which its logarithm and the pair cutoff carry into
        # sigma_rate_per_s (2e-5) and the QFI (1.5e-12).
        spectra = [
            [0.6, 0.0, 1e-13, 0.0, 0.4 - 3e-13, 0.0, 2e-13, 0.0],
            [0.5, 1e-12, 0.0, 0.0, 0.5 - 2e-12, 1e-12, 0.0, 0.0],
            [1.0 - 4e-15, 1e-15, 1e-15, 0.0, 1e-15, 0.0, 1e-15, 0.0],
        ]
        w = np.array(spectra * 3)
        pairs = mf_blocks(ops8).upper.size
        x = block_coordinates(ops8, w, rng.uniform(0.0, math.pi, size=(len(w), pairs)),
                              rng.uniform(-math.pi, math.pi, size=(len(w), pairs)))
        self.check(x, make_params(s=0.3, axis="z"), ops8)

    def test_trajectory_states(self):
        result = simulate(fast_config(pump_axis="x", sample_every=20))
        self.check(result.traj.coordinates, result.params, result.ops)

    @pytest.mark.parametrize("nuclear_spin", [1.5, 2.5])
    def test_qfi_vanishes_along_the_pump_and_is_equal_across_it(self, make_params, rng, nuclear_spin):
        # a pump-frame state commutes with the frame's F_z
        ops = build_coupled_operators(nuclear_spin)
        x = random_block_states(rng, ops, 20)
        for axis in "xyz":
            params = make_params(axis=axis)
            got = stacked_observables(x, params, ops, block_rhs(x, build_superops(params, ops)))
            across = [got[f"qfi_{a}"] for a in "xyz" if a != axis]
            assert np.all(got[f"qfi_{axis}"] == 0.0) and np.all(got[f"crb_{axis}"] == math.inf)
            assert np.array_equal(*across) and np.all(across[0] > 0.0)


class TestPumpFrame:
    def test_x_pump_steady_state_is_diagonal_in_pump_frame(self, ops8, make_params):
        def off_diagonal_mass(rho):
            return float(np.sum(np.abs(rho - np.diag(np.diag(rho))) ** 2))

        p = make_params(s=0.5, axis="x")
        x, info = solve_steady_state(p, ops8)
        assert info.converged
        rho = lab_states(x, p, ops8)
        frame = pump_frame(ops8, p.s)
        rho_pump = frame.conj().T @ rho @ frame
        assert off_diagonal_mass(rho_pump) < 1e-12
        assert off_diagonal_mass(rho) > 1e-3  # genuinely rotated, not diagonal

    def test_pump_frame_beta_agrees_across_axes(self, ops8, make_params):
        betas = {}
        for axis in ("x", "y", "z"):
            p = make_params(s=0.5, axis=axis)
            rho = lab_states(solve_steady_state(p, ops8)[0], p, ops8)
            frame = pump_frame(ops8, p.s)
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
        x, info = solve_steady_state(params, ops)
        assert info.converged
        pol = params.r_op / (params.r_op + params.gamma_sd)
        beta = math.log((1.0 + pol) / (1.0 - pol))
        got = steady_state_columns(cfg, ops, params, x)["beta_fit"]
        assert got == pytest.approx(beta, rel=1e-9)


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


class TestFullPolarization:
    @pytest.mark.parametrize("axis", ["z", "x"])
    def test_pure_steady_state_fits_infinite_beta(self, tmp_path, axis):
        # every sigma_SD = 0 and no wall: G_SD = 0, so at |s| = 1 P = 1 exactly,
        # and the NESS is the pure stretched state, an exact fixed point
        cfg = fast_config(sigma_sd_rbrb=0.0, sigma_sd_rbhe=0.0, sigma_sd_rbn2=0.0, include_wall=False,
                          s_magnitude=1.0, pump_axis=axis, t_end_over_t_se=0.2)
        run_single(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "summary.csv")
        row = dict(zip(header, rows[0]))
        assert (row["beta_fit"], row["beta_fit_residual"]) == ("inf", "0")
        assert (row["ness_iterations"], row["ness_converged"]) == ("1", "true")
        assert row["s_along_pump"] == row["s_along_pump_predicted"] == "0.5"
        # a pure state: its levels at or below EIG_CLIP are empty, so S = 0 (not -0) and Sigma = ln 8
        assert (row["s_vn"], row["sigma"]) == ("0", f"{math.log(8):.12g}")
        ops, _, params = build_simulation(cfg)
        rho = lab_states(solve_steady_state(params, ops)[0], params, ops)
        s_vn = thermo.von_neumann_entropy(rho)
        assert (s_vn, math.copysign(1.0, s_vn), thermo.entropy_production(rho)) == (0.0, 1.0, math.log(8))


class TestPumpAxisRelabelling:
    """An x or a y pump steps as the z pump in its frame: its run is the z run with the axes relabelled."""

    # the z run's axis that each lab axis of an x or a y pump reads
    RELABEL = {"x": {"x": "z", "y": "y", "z": "x"}, "y": {"x": "x", "y": "z", "z": "y"}}

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_trajectory_is_the_relabelled_z_run(self, axis):
        z = simulate(fast_config(t_end_over_t_se=0.5, sample_every=10))
        turned = simulate(fast_config(t_end_over_t_se=0.5, sample_every=10, pump_axis=axis))
        assert (turned.traj.steps, turned.traj.rhs_evals) == (z.traj.steps, z.traj.rhs_evals)
        header, want = trajectory_table(z.traj, z.ops)
        _, got = trajectory_table(turned.traj, turned.ops)
        column = {name: (got[:, i], want[:, i]) for i, name in enumerate(header)}

        def relabelled(name, lab):
            return column[f"{name}{lab}"][0], column[f"{name}{self.RELABEL[axis][lab]}"][1]

        for name in TRAJECTORY_COLUMNS[2:8]:  # sigma = ln d - S_vn cancels to rounding at t = 0
            np.testing.assert_allclose(*column[name], rtol=1e-10, atol=1e-14, err_msg=name)
        for lab in "xyz":
            for name in ("qfi_", "crb_"):
                np.testing.assert_allclose(*relabelled(name, lab), rtol=1e-10, atol=0, err_msg=name + lab)
            for name in "fs":
                turned_column, z_column = relabelled(name, lab)
                if lab == axis:  # 0 at t = 0
                    np.testing.assert_allclose(turned_column, z_column, rtol=1e-10, atol=1e-14)
                else:  # transverse: exactly 0 in the z run
                    assert np.all(z_column == 0.0) and np.max(np.abs(turned_column)) < 1e-14, name + lab


    @pytest.mark.parametrize("nuclear_spin", [1.5, 2.5])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_trajectory_csv_is_the_relabelled_z_file(self, tmp_path, axis, nuclear_spin):
        # in its frame the run is the z run bit for bit, and the pass reads it
        # there: only the lab axes and the lab populations move
        tables = {}
        for pump in ("z", axis):
            cfg = RunConfig(pump_axis=pump, nuclear_spin=nuclear_spin, t_end_over_t_se=0.2).validate()
            run_single(cfg, tmp_path / pump)
            tables[pump] = read_csv(tmp_path / pump / "trajectory.csv")
        (header, z_rows), (turned_header, rows) = tables["z"], tables[axis]
        assert turned_header == header and len(rows) == len(z_rows)
        per_axis = {f"{name}{lab}" for name in ("qfi_", "crb_", "f", "s") for lab in "xyz"}
        for k, name in enumerate(header):
            if name.startswith("p_f"):
                continue
            z_name = name[:-1] + self.RELABEL[axis][name[-1]] if name in per_axis else name
            assert [r[k] for r in rows] == [r[header.index(z_name)] for r in z_rows], name
            if name[:1] in "fs" and name in per_axis and name[-1] != axis:
                assert {r[k] for r in rows} == {"0"}, name

    @pytest.mark.parametrize("nuclear_spin", [1.5, 2.5])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_summary_csv_is_the_relabelled_z_file(self, tmp_path, s, nuclear_spin):
        # Newton solves in the pump frame too, so the steady state's cells,
        # its fit residual and coherence weight included, are the z pump's
        rows = {}
        for pump in "zxy":
            cfg = RunConfig(pump_axis=pump, s_magnitude=s, nuclear_spin=nuclear_spin, t_end_over_t_se=0.2)
            run_single(cfg.validate(), tmp_path / pump)
            header, [rows[pump]] = read_csv(tmp_path / pump / "summary.csv")
        z_row = dict(zip(header, rows["z"]))
        assert z_row["off_diag_mass_pump_frame"] == "0"
        for axis in "xy":
            row = dict(zip(header, rows[axis]))
            assert row.pop("pump_axis") == axis
            want = {name: z_row[name[:-1] + self.RELABEL[axis][name[-1]] if name[:4] in ("qfi_", "crb_") else name]
                    for name in row}
            assert row == want, axis


class TestHeadlineClaim:
    """The abstract: a more efficiently pumped NESS is a better rotation probe and less entropic."""

    @pytest.mark.parametrize("axis, nuclear_spin", [("z", 1.5), ("z", 2.5), ("x", 1.5)])
    def test_efficiency_orders_transverse_qfi_and_entropy(self, axis, nuclear_spin):
        rows = []
        for s in np.linspace(0.05, 1.0, 20):
            for r_op in (0.05, 0.5, 4.0):
                cfg = RunConfig(pump_axis=axis, s_magnitude=float(s), r_op_over_gamma_se=r_op,
                                nuclear_spin=nuclear_spin).validate()
                ops, _, params = build_simulation(cfg)
                x, info = solve_steady_state(params, ops)
                assert info.converged
                rows.append(steady_state_columns(cfg, ops, params, x))
        rows.sort(key=lambda row: row["efficiency"])
        assert np.all(np.diff([row["efficiency"] for row in rows]) > 0.0)
        for transverse in "xyz".replace(axis, ""):
            assert np.all(np.diff([row[f"qfi_{transverse}"] for row in rows]) > 0.0), transverse
        assert np.all(np.diff([row["s_vn"] for row in rows]) < 0.0)


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

    @pytest.mark.parametrize("overrides, expected_blocks", [
        # G_SE, and with it A, the step and the horizon, differ at each temperature
        (dict(sweep_variable="temperature_c", sweep_values=(130.0, 110.0, 120.0)), [1, 1, 1]),
        # the pump sets the step, so only A differs, and each column has its own
        (dict(sweep_variable="a_hfs_over_gamma_se", sweep_values=(1.5, 1.0), r_op_over_gamma_se=2.0), [2]),
        # A, the fastest rate, sets the step
        (dict(sweep_variable="a_hfs_over_gamma_se", sweep_values=(10.0, 20.0)), [1, 1]),
        (dict(sweep_variable="t_end_over_t_se", sweep_values=(2.0, 1.0)), [1, 1]),
        # neither G_SE nor the fastest rate moves: one block
        (dict(sweep_variable="radius_cm", sweep_values=(1.0, 2.0)), [2]),
        (dict(sweep_variable="p_he_torr", sweep_values=(100.0, 300.0)), [2]),
        (dict(sweep_variable="p_n2_torr", sweep_values=(50.0, 100.0)), [2]),
        (dict(sweep_variable="s_magnitude", sweep_values=(0.25, 1.0)), [2]),
        (dict(sweep_variable="r_op_over_gamma_se", sweep_values=(0.5, 10.0)), [2]),
    ])
    def test_points_in_separate_groups_match_standalone_runs(self, tmp_path, monkeypatch, overrides,
                                                             expected_blocks):
        blocks = spy_on_blocks(monkeypatch)
        cfg = fast_config(**overrides)
        _, statuses = run_sweep(cfg, tmp_path / "sweep")
        assert statuses == ["ok"] * len(cfg.sweep_values)
        assert blocks == expected_blocks
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

    def test_a_group_runs_as_one_block_past_the_cap_on_stored_samples(self, tmp_path, monkeypatch):
        # a sweep stores no sample, so the cap counts one column of its block, once
        traj = simulate(fast_config()).traj
        n_bytes = traj.states.nbytes + 2 * traj.times.nbytes
        monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", 2 * n_bytes)
        blocks = spy_on_blocks(monkeypatch)
        callers = []
        real = pipeline.trajectory_horizon

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "trajectory_horizon", spy)
        cfg = fast_config(sweep_variable="s_magnitude", sweep_values=(0.25, 0.5, 0.75))
        _, statuses = run_sweep(cfg, tmp_path / "sweep")
        assert statuses == ["ok"] * 3
        assert blocks == [3]
        assert callers == ["integrate_runs"]
        assert_points_match_standalone_runs(cfg, tmp_path)

    def test_points_past_the_cap_read_their_standalone_error(self, tmp_path, monkeypatch):
        traj = simulate(fast_config()).traj
        monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", traj.states.nbytes + 2 * traj.times.nbytes - 1)
        cfg = fast_config(sweep_variable="s_magnitude", sweep_values=(0.5, 0.25))
        errors = []
        for value in (0.25, 0.5):
            with pytest.raises(ConfigError, match="cap") as caught:
                run_single(fast_config(s_magnitude=value), tmp_path / "standalone")
            errors.append(f"ConfigError: {caught.value}")

        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_block ran")

        monkeypatch.setattr(pipeline, "integrate_block", forbidden)
        path, statuses = run_sweep(cfg, tmp_path / "sweep")
        assert statuses == ["error", "error"]
        header, rows = read_csv(path)
        assert [r[header.index("error")] for r in rows] == errors
        assert not list((tmp_path / "sweep").glob("point_*"))

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
        # the first try's temporary files and directories are gone
        assert not (tmp_path / "sweep" / "point_01").exists()
        assert not list((tmp_path / "sweep").rglob(".*.tmp"))
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
        # G_SE, and with it the horizon in seconds, differ
        (dict(temperature_c=130.0), "t_end_s"),
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

    def test_cap_counts_one_column_given_a_keep(self, monkeypatch):
        # stored, the block holds every column's samples; handed to a keep, none
        cfg = fast_config()
        traj = simulate(cfg).traj
        monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", 2 * (traj.states.nbytes + 2 * traj.times.nbytes))
        kept = []
        runs = pipeline.integrate_runs([cfg] * 3, keep=lambda ops, params_seq: lambda cols, *rows: kept.append(cols))
        assert len(runs) == 3
        assert np.array_equal(np.bincount(np.concatenate(kept)), [len(traj)] * 3)
        with pytest.raises(ConfigError, match="for each of 3 runs"):
            pipeline.integrate_runs([cfg] * 3)

    def test_block_of_configs_that_differ_in_a_hfs_matches_standalone_runs(self):
        # R_op is the fastest rate, so the three share dt; each column has its own A
        cfgs = [fast_config(r_op_over_gamma_se=2.0, a_hfs_over_gamma_se=a) for a in (1.0, 1.5, 2.0)]
        runs = pipeline.integrate_runs(cfgs)
        assert len({id(ops) for ops, *_ in runs}) == 1
        for cfg, (_, _, params, traj) in zip(cfgs, runs):
            [(_, _, alone_params, alone)] = pipeline.integrate_runs([cfg])
            assert params == alone_params
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.states, alone.states)
            assert np.array_equal(traj.rhs, alone.rhs)

    def test_run_sweep_and_figures_each_build_the_operators_once(self, tmp_path):
        build = pipeline.build_coupled_operators
        cfg_path = tmp_path / "run.cfg"
        commands = [
            ("run", "a_hfs_over_gamma_se = 20\nt_end_over_t_se = 0.5\nsample_every = 100\n"),
            ("sweep", "a_hfs_over_gamma_se = 20\nt_end_over_t_se = 0.5\nsample_every = 100\n"
                      "sweep_variable = s_magnitude\nsweep_values = 0.25, 0.5, 0.75, 1.0\n"),
            # six series and 13 radius points
            ("reproduce-figures", "dt_steps_per_rate = 1\n"),
        ]
        for command, text in commands:
            cfg_path.write_text(text)
            build.cache_clear()
            assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / command)]) == 0
            assert build.cache_info().misses == 1, command

    def test_run_sweep_and_figures_each_make_one_block_call(self, tmp_path, monkeypatch):
        calls: list[tuple[int, bool]] = []
        real = pipeline.integrate_block

        def spy(params_seq, *args, **kwargs):
            calls.append((len(params_seq), kwargs.get("fixed_step", False)))
            return real(params_seq, *args, **kwargs)

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
        assert calls[2:] == [(len(figures.SERIES), True)] == [(6, True)]

    def test_figures_pass_each_series_once_with_its_stored_rhs(self, tmp_path, monkeypatch):
        # one observable pass per series and per radius point; a series reads the dx/dt that the
        # stepper stored, so the field is evaluated only on the one-row states of the Newton solves
        passes: list[int] = []
        fields: list[int] = []
        real_pass, real_rhs = pipeline.stacked_observables, dynamics.block_rhs

        def spy_pass(x, params, ops, rhs):
            passes.append(len(x))
            return real_pass(x, params, ops, rhs)

        def spy_rhs(x, sup):
            fields.append(len(x))
            return real_rhs(x, sup)

        for module in (pipeline, figures):
            monkeypatch.setattr(module, "stacked_observables", spy_pass)
        for module in (pipeline, dynamics):
            monkeypatch.setattr(module, "block_rhs", spy_rhs)
        assert not hasattr(figures, "block_rhs") and not hasattr(figures, "build_superops")
        cfg_path = tmp_path / "figures.cfg"
        cfg_path.write_text("dt_steps_per_rate = 1\n")
        assert cli.main(["reproduce-figures", "--config", str(cfg_path), "--out", str(tmp_path / "figs")]) == 0
        series_samples = len(read_csv(tmp_path / "figs" / "fig3a.csv")[1])
        assert len(passes) == len(figures.SERIES) + len(figures.RADIUS_GRID) == 19
        assert sorted(passes) == [1] * len(figures.RADIUS_GRID) + [series_samples] * len(figures.SERIES)
        assert fields and set(fields) == {1}


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

    def test_entropy_production_is_never_negative(self, tmp_path):
        # D(rho || 1/d) >= 0, and the first sample is the maximally mixed state
        run_single(RunConfig(nuclear_spin=2.5, t_end_over_t_se=1.0).validate(), tmp_path)
        header, rows = read_csv(tmp_path / "trajectory.csv")
        sigma = [r[header.index("sigma")] for r in rows]
        assert sigma[0] == "0"
        assert min(float(v) for v in sigma) >= 0.0

    @pytest.mark.parametrize("nuclear_spin", [1.5, 2.5])
    def test_the_mixed_start_reads_zero_spin_and_entropy_production(self, tmp_path, nuclear_spin):
        # <F> and <S> are read off m_F -> -m_F differences, which vanish at the start
        run_single(RunConfig(nuclear_spin=nuclear_spin, t_end_over_t_se=0.2).validate(), tmp_path)
        header, rows = read_csv(tmp_path / "trajectory.csv")
        names = TRAJECTORY_COLUMNS[14:] + ["sigma"]
        assert {name: rows[0][header.index(name)] for name in names} == dict.fromkeys(names, "0")

    def test_run_sweep_and_figures_decompose_no_sample_stack(self, tmp_path, monkeypatch):
        # every sample, and the steady state, is read off its closed-form m_F
        # block spectra; what is left is pump_frame's eigh of one d x d generator
        dynamics._pump_frame.cache_clear()
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, real=getattr(np.linalg, name), **kwargs):
                calls.append((sys._getframe(1).f_code.co_name, np.shape(a)))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        run_single(fast_config(pump_axis="x"), tmp_path / "run")
        cfg = fast_config(pump_axis="y", sweep_variable="s_magnitude", sweep_values=(0.25, 1.0))
        assert run_sweep(cfg, tmp_path / "sweep")[1] == ["ok", "ok"]
        figures.reproduce_figures(RunConfig(dt_steps_per_rate=1.0).validate(), tmp_path / "figures")
        assert {caller for caller, _ in calls} == {"_pump_frame"}
        assert all(len(shape) == 2 for _, shape in calls)

    def test_scalar_oracles_apply_the_same_floors(self, ops8, make_params):
        params = make_params(s=1.0, axis="x")
        x, info = solve_steady_state(params, ops8)
        assert info.converged
        rho = lab_states(x, params, ops8)
        got = stacked_observables(x[None], params, ops8, block_rhs(x[None], build_superops(params, ops8)))
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

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_zero_spin_destruction_runs(self, tmp_path, capsys, s):
        cfg_path = tmp_path / "no_sd.cfg"
        cfg_path.write_text(
            "sigma_sd_rbrb = 0\nsigma_sd_rbhe = 0\nsigma_sd_rbn2 = 0\ninclude_wall = false\n"
            f"s_magnitude = {s}\na_hfs_over_gamma_se = 20\nt_end_over_t_se = 0.5\nsample_every = 100\n"
        )
        assert cli.main(["rates", "--config", str(cfg_path), "--out", str(tmp_path / "rates")]) == 0
        header, rows = read_csv(tmp_path / "rates" / "rates.csv")
        row = dict(zip(header, rows[0]))
        assert (row["gamma_sd_per_s"], row["se_to_sd_ratio"]) == ("0", "inf")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        header, rows = read_csv(tmp_path / "run" / "summary.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["s_along_pump"]) == pytest.approx(float(row["s_along_pump_predicted"]), rel=1e-10)
        assert float(row["s_along_pump_predicted"]) == pytest.approx(s / 2, rel=1e-12)

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
        assert params.s == (0.0, 0.0, 0.5)
