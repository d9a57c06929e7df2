"""The figure files at dt_steps_per_rate = 1 against a checked-in reference.

``tests/golden/figures_dt1/`` holds what ``reproduce-figures`` writes at
``dt_steps_per_rate = 1``.  Rebuild it only for a change that is meant to
move the numerics, from the repository root, and name the files and their
largest deviation in CHANGES.md:

    rm -rf tests/golden/figures_dt1
    printf 'dt_steps_per_rate = 1\\n' > figures_dt1.cfg
    PYTHONPATH=src python -m vaporspin reproduce-figures --config figures_dt1.cfg --out tests/golden/figures_dt1
    rm figures_dt1.cfg

The file list, the headers, the row counts and every cell that is not a
finite nonzero number (``0`` and ``inf`` by symmetry, and text) must match
exactly.  The other cells match to ``RTOL`` relative with an absolute floor
``ATOL``: CI runs more than one Python and NumPy, and so more than one
summation order.  Byte identity within one environment is what CI's ``cmp``
of a repeated ``reproduce-figures`` checks.
"""

import csv
import math
from pathlib import Path

import pytest

from vaporspin.config import RunConfig
from vaporspin.figures import reproduce_figures

GOLDEN = Path(__file__).parent / "golden" / "figures_dt1"
RTOL = 1e-9
ATOL = 1e-12


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


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("figures_dt1")
    reproduce_figures(RunConfig(dt_steps_per_rate=1.0).validate(), out)
    return out


def test_the_same_files(written):
    assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in GOLDEN.iterdir())


def test_headers_row_counts_and_exact_cells(written):
    for path in sorted(GOLDEN.iterdir()):
        golden, new = read(path), read(written / path.name)
        assert new[0] == golden[0], path.name
        assert len(new) == len(golden), path.name
        for i, (golden_row, new_row) in enumerate(zip(golden[1:], new[1:]), start=1):
            assert len(new_row) == len(golden_row), (path.name, i)
            exact = [(name, g, c) for name, g, c in zip(golden[0], golden_row, new_row) if value(g) is None]
            assert [c for *_, c in exact] == [g for _, g, _ in exact], (path.name, i, exact)


def test_values_within_tolerance(written):
    report = []
    for path in sorted(GOLDEN.iterdir()):
        golden, new = read(path), read(written / path.name)
        worst = (0.0, None)
        failed = False
        for i, (golden_row, new_row) in enumerate(zip(golden[1:], new[1:]), start=1):
            for name, g, c in zip(golden[0], golden_row, new_row):
                expected = value(g)
                if expected is None:
                    continue
                try:
                    got = float(c)
                except ValueError:
                    got = math.nan
                deviation = abs(got - expected) if math.isfinite(got) else math.inf
                failed |= not deviation <= RTOL * abs(expected) + ATOL
                relative = deviation / abs(expected)
                if not relative <= worst[0]:
                    worst = (relative, f"row {i} {name}: {c} against {g}")
        if failed:
            report.append(f"{path.name}: largest relative deviation {worst[0]:.3e} at {worst[1]}")
    assert not report, "\n".join(report)
