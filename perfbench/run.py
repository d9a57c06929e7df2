"""vaporspin benchmark. From the repository root:

    python3 perfbench/run.py --workload run_default --seed 0 --seconds 40 --trace 0

Untraced (``--trace 0``): times fresh processes' set-up, then launches the
real CLI (``python -m vaporspin ...``) for the workload again and again until
``--seconds`` have passed (at least three times), checks the outputs of each
invocation and reports the upper quartile of each end-to-end metric over the
invocations (``upper_quartile`` says why not the median).

Traced (``--trace 1``): launches the untraced CLI for the first half of the
time, then the traced, serial, in-process run (``traced.py``) for the second
half, checks that both wrote byte-identical CSVs, and reports the per-layer
metrics.

Every child runs with one BLAS thread. Human-readable lines come first; the
last line of standard output is the JSON result. Outputs and a detailed
record of each run go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# set before NumPy loads, here and in every child
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

from checks import CheckFailed, check_outputs, csv_digests  # noqa: E402
from workloads import NAMES, Workload, build  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PROBES_PER_CLI_RUN = 1
MIN_CLI_RUNS = 3
HARD_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
MIB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "config.load_config_s": "s",
    "cell_rates.compute_rates_s": "s",
    "spin_algebra.build_coupled_operators_s": "s",
    "dynamics.build_superops_s": "s",
    "dynamics.integrate_s": "s",
    "dynamics.integrate.steps": "count",
    "dynamics.integrate.us_per_step": "us",
    "dynamics.integrate.samples": "count",
    "dynamics.integrate.eig_matrices": "count",
    "dynamics.integrate.trajectory_mb": "MiB",
    "dynamics.solve_steady_state_s": "s",
    "dynamics.solve_steady_state.iterations": "count",
    "dynamics.solve_steady_state.converged_ratio": "ratio",
    "pipeline.trajectory_table_s": "s",
    "pipeline.trajectory_table.us_per_sample": "us",
    "pipeline.trajectory_table.eig_matrices": "count",
    "thermo.thermo_sample_s": "s",
    "thermo.thermo_sample.calls": "count",
    "metrology.quantum_fisher_information_s": "s",
    "metrology.quantum_fisher_information.calls": "count",
    "figures.series_simulate_s": "s",
    "figures.series_observables_s": "s",
    "figures.radius_newton_s": "s",
    "figures.write_s": "s",
    "figures.eig_matrices": "count",
    "pipeline.steady_state_row_s": "s",
    "pipeline.write_csv_s": "s",
    "pipeline.write_csv.rows": "count",
    "pipeline.write_csv.bytes": "count",
    "pipeline.run_sweep.point_s": "s",
    "pipeline.run_sweep.pool_speedup": "ratio",
    "trace.overhead_ratio": "ratio",
}
# per-layer values that must repeat exactly from one traced pass to the next
EXACT_UNITS = ("count", "MiB")


class Run:
    """One benchmark run: its deadline, the children it waits for, its tally."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: int, size: str):
        self.wl = wl
        self.start = time.perf_counter()
        self.seconds = seconds
        self.dir = WORK / f"{wl.name}-seed{seed}-trace{trace}-{size}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "workload.cfg"
        self.config.write_text(wl.config_text())
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failures: list[str] = []  # one per failed invocation
        self.mismatches: list[str] = []  # traced counts that did not repeat
        self.reference_digests: dict[str, str] | None = None
        self.probe = [sys.executable, str(HERE / "setup_probe.py"), str(self.config)]

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def launch(self, cmd: list[str], log: Path) -> dict:
        """Run a child to exit; wall time, CPU of its process tree, peak RSS."""
        remaining = HARD_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise TimeoutError("no time left to launch a child")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                    start_new_session=True)
            killer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return {"exit_code": proc.returncode, "wall_s": wall, "cpu_s": cpu,
                "peak_rss_mb": usage.ru_maxrss / MIB, "log": log}

    def record(self, label: str, sample: dict, out: Path) -> None:
        """Count one attempt; it fails on a non-zero exit or a failed check."""
        self.attempted += 1
        problem = None
        if sample["exit_code"] != 0:
            problem = f"exit code {sample['exit_code']}: {tail(sample['log'])}"
        else:
            try:
                check_outputs(out, self.wl)
                digests = csv_digests(out)
                if self.reference_digests is None:
                    self.reference_digests = digests
                elif digests != self.reference_digests:
                    differ = sorted(k for k in digests.keys() | self.reference_digests.keys()
                                    if digests.get(k) != self.reference_digests.get(k))
                    problem = f"CSVs differ from the first run of this seed: {differ[:5]}"
            except CheckFailed as exc:
                problem = str(exc)
        if problem:
            self.failures.append(f"{label}: {problem}")

    def cli(self, index: int) -> dict:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        wl = self.wl
        cmd = [sys.executable, "-m", "vaporspin", wl.command, "--config", str(self.config),
               "--out", str(out), "--jobs", str(wl.jobs)]
        sample = self.launch(cmd, self.dir / "cli.log")
        self.record(f"cli run {index}", sample, out)
        return sample

    def setup_time(self) -> float:
        """Seconds from launching a fresh set-up probe to the end of its set-up."""
        launched = time.monotonic()
        sample = self.launch(self.probe, self.dir / "setup.log")
        if sample["exit_code"] != 0:
            raise RuntimeError(f"set-up probe failed: {tail(sample['log'])}")
        return float(sample["log"].read_text().split()[-1]) - launched

    def traced(self, index: int) -> tuple[dict, dict]:
        out = self.dir / "traced_out"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "traced.py"), self.wl.command, str(self.config), str(out)]
        sample = self.launch(cmd, self.dir / "traced.log")
        self.record(f"traced run {index}", sample, out)
        spans = {}
        if sample["exit_code"] == 0:
            spans = json.loads(sample["log"].read_text().splitlines()[-1])
        return sample, spans


def tail(log: Path, lines: int = 3) -> str:
    return " | ".join(log.read_text().strip().splitlines()[-lines:])


def pass_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the two ratios are added later)."""
    spans, counters = trace["spans"], trace["counters"]

    def span(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0)

    def per(total: float, count: float, scale: float = 1.0) -> float:
        return scale * total / count if count else 0.0

    steps = counters.get("integrate.steps", 0)
    table_samples = counters.get("table.samples", 0)
    steady_calls = span("dynamics.solve_steady_state", "calls")
    return {
        "config.load_config_s": span("config.load_config"),
        "cell_rates.compute_rates_s": span("cell_rates.compute_rates"),
        "spin_algebra.build_coupled_operators_s": span("spin_algebra.build_coupled_operators"),
        "dynamics.build_superops_s": span("dynamics.build_superops"),
        "dynamics.integrate_s": span("dynamics.integrate"),
        "dynamics.integrate.steps": steps,
        "dynamics.integrate.us_per_step": per(span("dynamics.integrate", "self_s"), steps, 1e6),
        "dynamics.integrate.samples": counters.get("integrate.samples", 0),
        "dynamics.integrate.eig_matrices": span("dynamics.integrate", "eig"),
        "dynamics.integrate.trajectory_mb": counters.get("integrate.trajectory_bytes", 0) / MIB**2,
        "dynamics.solve_steady_state_s": span("dynamics.solve_steady_state"),
        "dynamics.solve_steady_state.iterations": counters.get("steady.iterations", 0),
        "dynamics.solve_steady_state.converged_ratio": per(counters.get("steady.converged", 0), steady_calls),
        "pipeline.trajectory_table_s": span("pipeline.trajectory_table"),
        "pipeline.trajectory_table.us_per_sample": per(span("pipeline.trajectory_table"), table_samples, 1e6),
        "pipeline.trajectory_table.eig_matrices": span("pipeline.trajectory_table", "eig"),
        "thermo.thermo_sample_s": span("thermo.thermo_sample"),
        "thermo.thermo_sample.calls": span("thermo.thermo_sample", "calls"),
        "metrology.quantum_fisher_information_s": span("metrology.quantum_fisher_information"),
        "metrology.quantum_fisher_information.calls": span("metrology.quantum_fisher_information", "calls"),
        "figures.series_simulate_s": span("figures.series_simulate"),
        "figures.series_observables_s": span("figures.series_observables"),
        "figures.radius_newton_s": span("figures.radius_newton"),
        "figures.write_s": span("figures.write"),
        "figures.eig_matrices": span("figures.reproduce_figures", "eig"),
        "pipeline.steady_state_row_s": span("pipeline.steady_state_row"),
        "pipeline.write_csv_s": span("pipeline.write_csv"),
        "pipeline.write_csv.rows": counters.get("write.rows", 0),
        "pipeline.write_csv.bytes": counters.get("write.bytes", 0),
        "pipeline.run_sweep.point_s": statistics.median(trace["point_s"]) if trace["point_s"] else 0.0,
    }


def upper_quartile(values: list[float]) -> float:
    """The value that a quarter of the samples exceed.

    The host's CPUs alternate between a prevalent slow state and stretches,
    seconds long, up to 1.6x faster. The share of fast stretches varies from
    one run to the next, and the median lands in whichever state holds half
    of a run, so run medians spread by up to a fifth. The upper quartile
    stays in the prevalent state unless three quarters of a run are fast.
    """
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def percentile_note(values: list[float], noun: str = "runs") -> str:
    """The sample count, the median, and the highest percentile with ten samples beyond it."""
    n = len(values)
    note = f"upper quartile of {n} {noun}; median {statistics.median(values):.6g}"
    if n < 20:
        return f"{note}; with fewer than 20 no percentile has ten {noun} beyond it"
    p = math.floor(100 * (n - 10) / n)
    return f"{note}; p{p} = {sorted(values)[math.ceil(p * n / 100) - 1]:.6g}"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **THREAD_ENV,
    }


def untraced(run: Run) -> tuple[dict, dict]:
    run.setup_time()  # fills the bytecode cache; untimed
    setup, samples = [], []
    # set-up probes are interleaved with the CLI runs, so both see the same
    # stretch of machine load
    while len(samples) < MIN_CLI_RUNS or run.elapsed() < run.seconds:
        setup += [run.setup_time() for _ in range(PROBES_PER_CLI_RUN)]
        samples.append(run.cli(len(samples)))
    values = {
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": setup,
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    metrics = {name: upper_quartile(v) for name, v in values.items()}
    notes = {name: percentile_note(v) for name, v in values.items()}
    notes["setup_s"] = percentile_note(setup, "fresh processes")
    notes["peak_rss_mb"] += "; per run, the largest RSS of any one process (not a sum)"
    return metrics, {"notes": notes, "values": values}


def traced(run: Run) -> tuple[dict, dict]:
    cli_walls = []
    while not cli_walls or run.elapsed() < run.seconds / 2:
        cli_walls.append(run.cli(len(cli_walls))["wall_s"])
    cli_wall = statistics.median(cli_walls)
    passes, walls, first = [], [], None
    while not passes or run.elapsed() < run.seconds:
        sample, trace = run.traced(len(passes))
        if not trace:
            break
        first = first or trace
        passes.append(pass_metrics(trace) | {"_points_sum": sum(trace["point_s"])})
        walls.append(sample["wall_s"])
    if not passes:
        return {name: 0.0 for name in PER_LAYER}, {"cli_wall_s": cli_wall}
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in ("pipeline.run_sweep.pool_speedup", "trace.overhead_ratio"):
            continue
        values = [p[name] for p in passes]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                run.mismatches.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    points_sum = statistics.median(p["_points_sum"] for p in passes)
    metrics["pipeline.run_sweep.pool_speedup"] = points_sum / cli_wall
    metrics["trace.overhead_ratio"] = statistics.median(walls) / cli_wall
    return metrics, {"cli_wall_s": cli_wall, "traced_wall_s": walls, "first_pass": first}


def bench(name: str, seed: int, seconds: float, trace: int, size: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the detailed record."""
    wl = build(name, seed, size)
    run = Run(wl, seed, seconds, trace, size)
    metrics, details = (traced if trace else untraced)(run)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not (run.failures or run.mismatches),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "environment": environment(), "command": wl.command, "jobs": wl.jobs,
        "drawn": wl.drawn, "config": wl.config,
        "failures": run.failures + run.mismatches,
        "result": result, **details,
    }
    (run.dir / "record.json").write_text(json.dumps(record, indent=1, default=str))
    return result, record


def report(result: dict, record: dict) -> None:
    print(f"environment {json.dumps(record['environment'])}")
    print(f"workload {record['workload']} seed {record['seed']}: {record['command']} "
          f"--jobs {record['jobs']}, drawn {json.dumps(record['drawn'])}")
    notes = record.get("notes", {})
    for name, metric in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}{note}")
    if not record["trace"]:
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':44s} {rate:14.6g} ratio  "
              f"({result['failed']} failed of {result['attempted']} attempted)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vaporspin" / "__init__.py").is_file():
        print(f"no vaporspin sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    result, record = bench(args.workload, args.seed, args.seconds, args.trace)
    report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
