"""Traced, serial, in-process run of one workload; prints its spans as JSON.

Usage: python3 perfbench/traced.py <command> <config> <out_dir>

The run goes through ``vaporspin.cli.main`` in this process with ``--jobs 1``,
so it makes the same calls, in the same order, as the CLI that the untraced
runs launch. Before that, the public functions that ``run_single``,
``run_sweep`` and ``reproduce_figures`` call are replaced, in the namespaces
they are looked up from, by timing wrappers defined here. Nothing in the
package is edited. ``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped too, to
count matrices decomposed (a stack of n counts as n).

A span is one wrapped call: its time, the time of the spans opened inside it,
and the matrices decomposed while it was open (inclusive).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.stack: list[dict] = []
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self.point_s: list[float] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = {"child_s": 0.0, "eig": 0}
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1]["child_s"] += elapsed
                    self.stack[-1]["eig"] += frame["eig"]
                span = self.spans.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "eig": 0})
                span["s"] += elapsed
                span["self_s"] += elapsed - frame["child_s"]
                span["calls"] += 1
                span["eig"] += frame["eig"]
            if on_result is not None:
                on_result(result, args, elapsed)
            return result

        return traced

    def count_matrices(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self.stack:
                self.stack[-1]["eig"] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        return counted


def install(tracer: Tracer) -> None:
    import vaporspin.cli as cli
    import vaporspin.dynamics as dynamics
    import vaporspin.figures as figures
    import vaporspin.pipeline as pipeline

    def on_integrate(traj, args, elapsed):
        tracer.add("integrate.steps", round(traj.times[-1] / traj.dt))
        tracer.add("integrate.samples", len(traj))
        tracer.counters["integrate.trajectory_bytes"] = max(
            tracer.counters.get("integrate.trajectory_bytes", 0), traj.states.nbytes
        )

    def on_steady(result, args, elapsed):
        tracer.add("steady.iterations", result[1].iterations)
        tracer.add("steady.converged", int(result[1].converged))

    def on_table(result, args, elapsed):
        tracer.add("table.samples", len(args[0]))

    def on_write(path, args, elapsed):
        tracer.add("write.rows", len(args[2]))
        tracer.add("write.bytes", Path(path).stat().st_size)

    def on_point(result, args, elapsed):
        tracer.point_s.append(elapsed)

    wrap = tracer.wrap
    steady = wrap(dynamics.solve_steady_state, "dynamics.solve_steady_state", on_steady)
    thermo = wrap(pipeline.thermo_sample, "thermo.thermo_sample")
    qfi = wrap(pipeline.quantum_fisher_information, "metrology.quantum_fisher_information")
    write = wrap(pipeline.write_csv, "pipeline.write_csv", on_write)
    row = wrap(pipeline.steady_state_row, "pipeline.steady_state_row")

    cli.load_config = wrap(cli.load_config, "config.load_config")
    cli.reproduce_figures = wrap(cli.reproduce_figures, "figures.reproduce_figures")
    dynamics.build_superops = wrap(dynamics.build_superops, "dynamics.build_superops")
    pipeline.compute_rates = wrap(pipeline.compute_rates, "cell_rates.compute_rates")
    pipeline.build_coupled_operators = wrap(
        pipeline.build_coupled_operators, "spin_algebra.build_coupled_operators"
    )
    pipeline.integrate = wrap(pipeline.integrate, "dynamics.integrate", on_integrate)
    pipeline.solve_steady_state = steady
    pipeline.trajectory_table = wrap(pipeline.trajectory_table, "pipeline.trajectory_table", on_table)
    pipeline.thermo_sample = thermo
    pipeline.quantum_fisher_information = qfi
    pipeline.steady_state_row = row
    pipeline.write_csv = write
    pipeline.run_single = wrap(pipeline.run_single, "pipeline.run_sweep.point", on_point)
    figures.simulate = wrap(figures.simulate, "figures.series_simulate")
    figures.thermo_sample = wrap(thermo, "figures.series_observables")
    figures.quantum_fisher_information = wrap(qfi, "figures.series_observables")
    figures.solve_steady_state = wrap(steady, "figures.radius_newton")
    figures.steady_state_row = row
    figures.write_csv = wrap(write, "figures.write")
    np.linalg.eigh = tracer.count_matrices(np.linalg.eigh)
    np.linalg.eigvalsh = tracer.count_matrices(np.linalg.eigvalsh)


def main(argv: list[str]) -> int:
    command, config, out_dir = argv
    import vaporspin.cli as cli

    tracer = Tracer()
    install(tracer)
    code = cli.main([command, "--config", config, "--out", out_dir, "--jobs", "1"])
    print(json.dumps({
        "exit_code": code,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "point_s": tracer.point_s,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
