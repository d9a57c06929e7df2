import csv
import dataclasses

import numpy as np
import pytest

from vaporspin import cli, pipeline
from vaporspin.config import ConfigError, RunConfig
from vaporspin.dynamics import block_rhs, build_superops, default_dt, integrate, integrate_block, sampling_plan
from vaporspin.figures import (
    FIGURE_STRIDE,
    FIGURE_T_END,
    R_OP_GRID,
    S_GRID,
    SERIES,
    _series_config,
    _tag,
    reproduce_figures,
)
from vaporspin.pipeline import build_simulation, stacked_observables


def read_columns(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def test_pump_faster_than_hyperfine_shares_one_grid(tmp_path):
    # the fastest recipe pump (2 G_SE) outruns A = 1.5 G_SE and so sets the
    # step; every series must still be sampled on the same times
    assert max(R_OP_GRID) > 1.5
    manifest = reproduce_figures(RunConfig(a_hfs_over_gamma_se=1.5).validate(), tmp_path)
    assert len(read_columns(manifest)["file"]) == 22
    s_row = read_columns(tmp_path / "fig3a.csv")
    r_row = read_columns(tmp_path / "fig3d.csv")
    assert r_row["t_norm"] == s_row["t_norm"]
    assert float(s_row["t_norm"][-1]) == 10.0
    assert np.all(np.diff([float(t) for t in s_row["t_norm"]]) > 0.0)


def figure_block(cfg):
    """Parameters, operators, step and horizon of the figure series block."""
    sims = [build_simulation(_series_config(cfg, *key)) for key in SERIES]
    params_seq = [params for _, _, params in sims]
    dt = min(default_dt(p, steps_per_rate=cfg.dt_steps_per_rate) for p in params_seq)
    return params_seq, sims[0][0], dt, FIGURE_T_END * params_seq[0].t_se


@pytest.mark.parametrize("stop_at_steady", [False, True])
def test_block_columns_match_standalone_runs(stop_at_steady):
    params_seq, ops, dt, t_end = figure_block(RunConfig(dt_steps_per_rate=1.0).validate())
    # at this tolerance the six series reach steady state at different samples
    # the figures step the block with fixed-step RK4
    kwargs = dict(t_end=t_end, dt=dt, sample_every=FIGURE_STRIDE,
                  stop_at_steady=stop_at_steady, steady_tol=0.03, fixed_step=True)
    block = integrate_block(params_seq, ops, **kwargs)
    if stop_at_steady:
        assert len({len(traj) for traj in block}) > 1
    for traj, params in zip(block, params_seq):
        alone = integrate(params, ops, **kwargs)
        for name in ("times", "states", "rhs"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name)), name
        for name in ("steady_index", "reached_steady", "max_trace_drift", "min_eigenvalue"):
            assert getattr(traj, name) == getattr(alone, name), name


def test_fig2b_is_the_x_pumps_own_run(tmp_path):
    # the block steps z pumps alone; the x pumps, stepped as their own columns
    # on the block's step and horizon, write fig2b's cells byte for byte
    cfg = RunConfig(dt_steps_per_rate=1.0).validate()
    _, ops, dt, t_end = figure_block(cfg)
    x_params = [build_simulation(dataclasses.replace(_series_config(cfg, s, 1.0), pump_axis="x"))[2]
                for s in S_GRID]
    block = integrate_block(x_params, ops, t_end=t_end, dt=dt, sample_every=FIGURE_STRIDE, fixed_step=True)
    reproduce_figures(cfg, tmp_path)
    written = read_columns(tmp_path / "fig2b.csv")
    assert ["%.12g" % t for t in block[0].t_norm] == written["t_norm"]
    for traj, s in zip(block, S_GRID):
        assert traj.params.s == (s, 0.0, 0.0)
        obs = stacked_observables(traj.coordinates, traj.params, ops,
                                  block_rhs(traj.coordinates, build_superops(traj.params, ops)))
        for p in "fs":
            assert ["%.12g" % v for v in obs[f"{p}x"]] == written[f"{p}x_s{_tag(s)}"], (p, s)
        assert float(written[f"fx_s{_tag(s)}"][-1]) > 0.0


def test_series_guard_failure_names_the_series(tmp_path, monkeypatch, capsys):
    # the 2 G_SE series gets a spin-destruction rate the step cannot follow
    def build(cfg):
        ops, rates, params = build_simulation(cfg)
        if cfg.r_op_over_gamma_se == 2.0:
            params = dataclasses.replace(params, gamma_sd=20.0 * params.a_hfs)
        return ops, rates, params

    monkeypatch.setattr(pipeline, "build_simulation", build)
    monkeypatch.setattr(pipeline, "default_dt", lambda p, steps_per_rate: 1.0 / (steps_per_rate * p.a_hfs))
    cfg_path = tmp_path / "figures.cfg"
    cfg_path.write_text("dt_steps_per_rate = 1\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["reproduce-figures", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "series pumped along z with s = 0.5 and R_op = 2 G_SE" in capsys.readouterr().err


def test_reproduce_figures_cli_counts_the_manifest(tmp_path, capsys):
    cfg_path = tmp_path / "figures.cfg"
    cfg_path.write_text("dt_steps_per_rate = 1\n")
    code = cli.main(["reproduce-figures", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "wrote 22 files" in capsys.readouterr().out


def test_trajectory_cap_counts_the_whole_block(tmp_path, monkeypatch):
    cfg = RunConfig(dt_steps_per_rate=1.0).validate()
    params_seq, ops, dt, t_end = figure_block(cfg)
    _, n_samples = sampling_plan(t_end, dt, FIGURE_STRIDE)
    column_bytes = n_samples * (ops.dim**2 + 1) * 16

    def forbidden(*args, **kwargs):
        raise AssertionError("integrate_block ran")

    monkeypatch.setattr(pipeline, "integrate_block", forbidden)
    monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", len(SERIES) * column_bytes - 1)
    with pytest.raises(ConfigError, match=f"for each of {len(SERIES)} runs") as caught:
        reproduce_figures(cfg, tmp_path)
    # the recipe fixes the horizon and the stride, so only the step is named
    assert "dt_steps_per_rate = 1 " in str(caught.value)
    assert "t_end_over_t_se" not in str(caught.value)
    assert "sample_every" not in str(caught.value)
    monkeypatch.undo()
    monkeypatch.setattr(pipeline, "MAX_TRAJECTORY_BYTES", len(SERIES) * column_bytes)
    assert reproduce_figures(cfg, tmp_path).is_file()


def test_zero_by_symmetry_cells_are_exact(tmp_path):
    # every series behind fig4 and fig6 and every fig5 point is pumped along
    # z, so its QFI about z is zero by symmetry: exactly 0, and so is its fit
    reproduce_figures(RunConfig(dt_steps_per_rate=1.0).validate(), tmp_path)
    for name in ("fig4c", "fig4f", "fig5", "fig6c", "fig6f"):
        columns = read_columns(tmp_path / f"{name}.csv")
        qfi_z = [cells for label, cells in columns.items() if label.startswith("qfi_z")]
        assert qfi_z and all(cell == "0" for cells in qfi_z for cell in cells), name
    fits = read_columns(tmp_path / "fit_summary.csv")
    z = fits["axis"].index("z")
    assert (fits["slope"][z], fits["intercept"][z]) == ("0", "0")
