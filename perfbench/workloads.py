"""Benchmark workloads: one vaporspin CLI invocation each, built from a seed.

The seed draws the pump and cell parameters from fixed ranges. Seed 0 gives
the built-in defaults. The hyperfine coupling (``a_hfs_over_gamma_se``) and
every horizon in spin-exchange times stay fixed. The RK4 step is
1/(dt_steps_per_rate * A) with A = 100 G_SE the fastest rate for every draw,
so the step and sample counts, and with them the work, do not depend on the
seed.

Horizons are shorter than the paper-scale runs, so that one CLI invocation
takes one to three seconds and a 40 s benchmark run holds a dozen or more.
Steps per sample are kept, so each workload keeps its split between time
stepping and per-sample observables. ``reproduce-figures`` fixes its horizon
(10 T_SE) and stride (50 steps) in code, so that workload coarsens the step
instead: 50x fewer steps and samples, the same steps per sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# parameter -> (nominal, low, high); seed 0 takes the nominal values
DRAWN = {
    "s_magnitude": (0.5, 0.3, 0.7),
    "r_op_over_gamma_se": (1.0, 0.5, 1.5),
    "radius_cm": (1.5, 1.0, 2.0),
    "temperature_c": (120.0, 110.0, 130.0),
}

A_HFS_OVER_GAMMA_SE = 100.0  # the package default; the fastest rate in every draw
DEFAULT_STEPS_PER_RATE = 50.0
DEFAULT_SAMPLE_EVERY = 10

# figure recipe constants (src/vaporspin/figures.py)
FIGURE_T_END = 10.0
FIGURE_STRIDE = 50
FIGURE_FILES = 22
RADIUS_POINTS = 13
RADIUS_SWEEP = {"s_magnitude": 0.5, "r_op_over_gamma_se": 0.5}

SWEEP_VALUES = (0.25, 0.5, 0.75, 1.0)

# horizons in T_SE (figures: steps per fastest-rate period); the tiny set is
# for the harness self-check only
HORIZONS = {
    "full": {"run_default": 1.0, "sweep_jobs2": 1.0, "figures": 1.0},
    "tiny": {"run_default": 0.2, "sweep_jobs2": 0.1, "figures": 1.0},
}

WHY = {
    "run_default": "the path every user takes: built-in defaults, stride 10; integration and observables share the time",
    "figures": "reproduce-figures --jobs 1: nine series and 13 Newton solves in one process; integration dominates",
    "sweep_jobs2": "sweep --jobs 2 over four polarizations: the only path through run_sweep and the process pool",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    jobs: int
    config: dict  # config-file keys and values
    drawn: dict  # the seed-drawn parameters, recorded with each result

    def config_text(self) -> str:
        lines = []
        for key, value in self.config.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
                value = ", ".join(repr(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    @property
    def steps_per_rate(self) -> float:
        return float(self.config.get("dt_steps_per_rate", DEFAULT_STEPS_PER_RATE))

    def expected_samples(self, t_end_over_t_se: float, sample_every: int) -> int:
        """Samples `integrate` stores for a horizon, when no early stop happens."""
        n_steps = max(1, math.ceil(t_end_over_t_se * self.steps_per_rate * A_HFS_OVER_GAMMA_SE - 1e-9))
        return n_steps // sample_every + 1 + (1 if n_steps % sample_every else 0)


def draw(seed: int) -> dict:
    if seed == 0:
        return {key: nominal for key, (nominal, _, _) in DRAWN.items()}
    rng = random.Random(seed)
    return {key: round(rng.uniform(lo, hi), 4) for key, (_, lo, hi) in DRAWN.items()}


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    horizon = HORIZONS[size][name]
    drawn = draw(seed)
    config = dict(drawn)
    if name == "run_default":
        return Workload(name, "run", 1, {**config, "t_end_over_t_se": horizon}, drawn)
    if name == "figures":
        return Workload(name, "reproduce-figures", 1, {**config, "dt_steps_per_rate": horizon}, drawn)
    del config["s_magnitude"]
    config.update(
        t_end_over_t_se=horizon,
        stop_at_steady=False,
        sweep_variable="s_magnitude",
        sweep_values=SWEEP_VALUES,
    )
    return Workload(name, "sweep", 2, config, drawn)
