"""Driven-dissipative dynamics of an optically pumped alkali vapor.

The package models the electron-nuclear spin state of a buffer-gas alkali
cell under circularly polarized optical pumping, spin-exchange and
spin-destruction collisions, and wall relaxation, then evaluates the
thermodynamics (entropy production, ergotropy, pumping efficiency) and
metrological value (rotation QFI) of the states it produces.

Typical use:

    >>> from vaporspin import RunConfig, simulate
    >>> result = simulate(RunConfig(s_magnitude=0.75).validate())
    >>> result.ness_info.converged
    True
"""

from .cell_rates import CellConfig, CellInputError, RateSet, compute_rates
from .config import ConfigError, RunConfig, load_config, parse_config
from .dynamics import (
    PhysicsViolationError,
    PumpParams,
    Trajectory,
    build_superops,
    default_dt,
    fit_spin_temperature,
    integrate,
    lab_states,
    master_rhs,
    nuclear_part,
    solve_steady_state,
    spin_temperature_state,
)
from .metrology import cramer_rao_bound, linear_fit, quantum_fisher_information
from .pipeline import SimulationResult, build_simulation, run_single, run_sweep, simulate
from .figures import reproduce_figures
from .spin_algebra import SpinOperatorSet, build_coupled_operators, clebsch_gordan
from .thermo import (
    efficiency,
    entropy_production,
    entropy_production_rate,
    ergotropy,
    passive_state,
    relative_entropy,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spin algebra
    "SpinOperatorSet", "build_coupled_operators", "clebsch_gordan",
    # cell rates
    "CellConfig", "CellInputError", "RateSet", "compute_rates",
    # dynamics
    "PumpParams", "PhysicsViolationError", "Trajectory",
    "nuclear_part", "master_rhs", "build_superops", "default_dt",
    "integrate", "solve_steady_state", "lab_states",
    "spin_temperature_state", "fit_spin_temperature",
    # thermodynamics
    "von_neumann_entropy", "relative_entropy", "entropy_production",
    "entropy_production_rate", "passive_state", "ergotropy", "efficiency",
    # metrology
    "quantum_fisher_information", "cramer_rao_bound", "linear_fit",
    # orchestration
    "ConfigError", "RunConfig", "load_config", "parse_config",
    "SimulationResult", "build_simulation", "simulate",
    "run_single", "run_sweep", "reproduce_figures",
]
