"""Output files against a checked-in reference.

``tests/golden/`` holds what the package's own writers produce for:

- ``figures_dt1/``: ``reproduce-figures`` at ``dt_steps_per_rate = 1``;
- ``runs/<name>/``: each run (``RUNS``, through ``run_single``) and sweep
  (``SWEEPS``, through ``run_sweep``) config of CI's installed-package step,
  with each summary.csv, a sweep's sweep.csv, and of each trajectory.csv
  every ``STRIDE``-th row, the last and the steady row, each led by its row
  index (:func:`slice_trajectory`);
- ``runs/default/``: the same for the built-in defaults, from the session's
  ``default_run``, at a stride of ``DEFAULT_STRIDE``.

CI's standalone runs of single sweep points are not listed: CI checks that
each writes what its sweep point writes.  Nor is its 600 T_SE run without a
stop, a memory check whose 300,001 samples would take longer than this gate.

Rebuild the reference only for a change that is meant to move the
numerics, from the repository root, and name the files and their largest
deviation in CHANGES.md:

    rm -rf tests/golden
    PYTHONPATH=src python tests/test_golden.py

The file list, the headers, the row counts and every cell that is not a
finite nonzero number (``0`` and ``inf`` by symmetry, and text) must match
exactly.  A number that is roundoff by construction (``BOUNDED``) must lie
within the bound that defines it; the empty cells of a sweep's error row
in those columns match as text.  The other cells match to ``RTOL``
relative with an absolute floor ``ATOL``, which holds an integer below 1e9
(a row index, ``n_samples``) to its exact value: CI runs more than one
Python and NumPy, and so more than one summation order.  Byte identity
within one environment is what CI's ``cmp`` of repeated runs checks.
"""

import csv
import dataclasses
import math
from pathlib import Path

import pytest

from vaporspin.config import RunConfig
from vaporspin.dynamics import NEWTON_TOL
from vaporspin.figures import reproduce_figures
from vaporspin.pipeline import run_single, run_sweep, simulate, steady_state_row, trajectory_table, write_csv

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-9
ATOL = 1e-12
STRIDE = 50
DEFAULT_STRIDE = 1000

# the run and sweep configs of CI's installed-package step, by the name of their output directory there
NO_SD = dict(sigma_sd_rbrb=0.0, sigma_sd_rbhe=0.0, sigma_sd_rbn2=0.0, include_wall=False)
RUNS = {
    "run": dict(t_end_over_t_se=1.0),
    "i52": dict(nuclear_spin=2.5, t_end_over_t_se=1.0),
    "i52_y": dict(nuclear_spin=2.5, pump_axis="y", t_end_over_t_se=1.0),
    "i12": dict(nuclear_spin=0.5, t_end_over_t_se=0.2),
    "p1": dict(NO_SD, s_magnitude=1.0, t_end_over_t_se=1.0),
}
SWEEPS = {
    "sweep": dict(t_end_over_t_se=0.2, sweep_variable="s_magnitude", sweep_values=(0.25, 0.75)),
    "a_sweep": dict(r_op_over_gamma_se=2.0, t_end_over_t_se=0.2,
                    sweep_variable="a_hfs_over_gamma_se", sweep_values=(1.0, 1.5)),
    "steady_sweep": dict(steady_tol=0.03, t_end_over_t_se=2.0,
                         sweep_variable="r_op_over_gamma_se", sweep_values=(0.25, 1.0, 4.0)),
    "x_sweep": dict(pump_axis="x", t_end_over_t_se=0.2, sweep_variable="s_magnitude", sweep_values=(0.25, 0.75)),
    # its last point is past the sample cap: an error row, and no point_02/
    "cap_sweep": dict(sweep_variable="t_end_over_t_se", sweep_values=(0.2, 0.3, 1e9)),
}

# Newton stops below NEWTON_TOL of the fastest collisional or pumping rate
BOUNDED = {
    "ness_residual_per_s":
        lambda row: NEWTON_TOL * max(float(row[k]) for k in ("gamma_se_per_s", "r_op_per_s", "gamma_sd_per_s")),
}


def read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def value(cell: str) -> float | None:
    """The cell as a finite nonzero float, or None for a cell compared as text."""
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) and x != 0.0 else None


def bounded(name: str, cell: str) -> bool:
    """Whether the golden ``cell`` of column ``name`` is checked against its ``BOUNDED`` bound: a number, not text."""
    try:
        float(cell)
    except ValueError:
        return False
    return name in BOUNDED


def kept_rows(n: int, stride: int, steady: int | None) -> list[int]:
    """Every ``stride``-th of ``n`` row indices, with the last and the ``steady`` one."""
    return sorted({*range(0, n, stride), n - 1, *([] if steady is None else [steady])})


def slice_trajectory(directory: Path, stride: int) -> None:
    """Replace the trajectory.csv in ``directory`` by its :func:`kept_rows`, each led by its index.

    The steady row is the one at the summary's ``steady_time_s``; both are written with ``%.12g``.
    """
    header, *rows = read(directory / "trajectory.csv")
    summary_header, summary = read(directory / "summary.csv")
    steady_time = summary[summary_header.index("steady_time_s")]
    steady = next((i for i, row in enumerate(rows) if row[0] == steady_time), None)
    write_csv(directory / "trajectory.csv", ["row"] + header,
              [[i] + rows[i] for i in kept_rows(len(rows), stride, steady)])


def produce(out: Path, default_run) -> None:
    """Write every reference file under ``out``, laid out as ``GOLDEN``; ``default_run`` is :func:`simulate` of the defaults."""
    reproduce_figures(RunConfig(dt_steps_per_rate=1.0).validate(), out / "figures_dt1")
    runs = out / "runs"
    for name, keys in RUNS.items():
        run_single(RunConfig(**keys).validate(), runs / name)
    for name, keys in SWEEPS.items():
        run_sweep(RunConfig(**keys).validate(), runs / name)
    for summary in runs.glob("**/summary.csv"):
        slice_trajectory(summary.parent, STRIDE)
        (summary.parent / "rates.csv").unlink()

    # each trajectory.csv row is read off its own state, so the default run's rows are sliced before the pass
    traj = default_run.traj
    rows = kept_rows(len(traj), DEFAULT_STRIDE, traj.steady_index)
    header, table = trajectory_table(dataclasses.replace(
        traj, times=traj.times[rows], coordinates=traj.coordinates[rows], rhs=traj.rhs[rows]), default_run.ops)
    write_csv(runs / "default" / "trajectory.csv", ["row"] + header, [[i, *r] for i, r in zip(rows, table.tolist())])
    summary = steady_state_row(default_run)
    write_csv(runs / "default" / "summary.csv", list(summary), [list(summary.values())])


def files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.glob("**/*.csv"))


@pytest.fixture(scope="module")
def written(tmp_path_factory, default_run) -> Path:
    out = tmp_path_factory.mktemp("golden")
    produce(out, default_run)
    return out


def test_the_same_files(written):
    assert files(written) == files(GOLDEN)


def test_headers_row_counts_and_exact_cells(written):
    for path in files(GOLDEN):
        golden, new = read(GOLDEN / path), read(written / path)
        assert new[0] == golden[0], path
        assert len(new) == len(golden), path
        for i, (golden_row, new_row) in enumerate(zip(golden[1:], new[1:]), start=1):
            assert len(new_row) == len(golden_row), (path, i)
            exact = [(name, g, c) for name, g, c in zip(golden[0], golden_row, new_row)
                     if value(g) is None and not bounded(name, g)]
            assert [c for *_, c in exact] == [g for _, g, _ in exact], (path, i, exact)


def test_values_within_tolerance(written):
    report = []
    for path in files(GOLDEN):
        golden, new = read(GOLDEN / path), read(written / path)
        worst = (0.0, None)
        failed = False
        for i, (golden_row, new_row) in enumerate(zip(golden[1:], new[1:]), start=1):
            for name, g, c in zip(golden[0], golden_row, new_row):
                try:
                    got = float(c)
                except ValueError:
                    got = math.nan
                if bounded(name, g):
                    bound = BOUNDED[name](dict(zip(new[0], new_row)))
                    if not 0.0 <= got < bound:
                        report.append(f"{path}: row {i} {name} = {c}, outside [0, {bound:.3e})")
                    continue
                expected = value(g)
                if expected is None:
                    continue
                deviation = abs(got - expected) if math.isfinite(got) else math.inf
                failed |= not deviation <= RTOL * abs(expected) + ATOL
                relative = deviation / abs(expected)
                if not relative <= worst[0]:
                    worst = (relative, f"row {i} {name}: {c} against {g}")
        if failed:
            report.append(f"{path}: largest relative deviation {worst[0]:.3e} at {worst[1]}")
    assert not report, "\n".join(report)


if __name__ == "__main__":
    produce(GOLDEN, simulate(RunConfig().validate()))
