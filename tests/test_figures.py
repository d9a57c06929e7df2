import csv

import numpy as np

from vaporspin.config import RunConfig
from vaporspin.figures import R_OP_GRID, reproduce_figures


def read_columns(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def test_worker_pool_matches_serial(tmp_path):
    cfg = RunConfig(dt_steps_per_rate=1.0).validate()
    serial = reproduce_figures(cfg, tmp_path / "serial", jobs=1)
    pooled = reproduce_figures(cfg, tmp_path / "pooled", jobs=2)
    names = sorted(p.name for p in serial.parent.iterdir())
    assert names == sorted(p.name for p in pooled.parent.iterdir())
    assert len(names) == 23  # 22 figure files and the manifest
    for name in names:
        assert (serial.parent / name).read_bytes() == (pooled.parent / name).read_bytes(), name


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
