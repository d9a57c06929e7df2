"""Flat key=value run configuration.

Config files are plain text: one ``key = value`` per line, ``#`` comments,
blank lines ignored.  Every key has a typed default in :class:`RunConfig`;
unknown or duplicated keys are hard errors with the offending line number,
because a silently ignored typo in a physics parameter is the worst failure
mode a tool like this can have.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .cell_rates import CellConfig, CellInputError

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]

PUMP_AXES = ("x", "y", "z")

# a NaN passes every range check below, since each is a comparison
FINITE_RUN_CONTROLS = (
    "r_op_over_gamma_se", "a_hfs_over_gamma_se", "t_end_over_t_se", "dt_steps_per_rate", "steady_tol",
)

# keys that a sweep may vary (numeric scalars only)
SWEEPABLE = (
    "radius_cm",
    "temperature_c",
    "p_he_torr",
    "p_n2_torr",
    "s_magnitude",
    "r_op_over_gamma_se",
    "a_hfs_over_gamma_se",
    "t_end_over_t_se",
)


class ConfigError(ValueError):
    """Malformed, unknown, duplicate, or out-of-range configuration input.

    ``key`` names the config key a range error is about, if any.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass
class RunConfig:
    """Every knob of a single run, with physical defaults.

    Rates are specified relative to the spin-exchange rate computed from the
    cell parameters, so one config scales coherently with temperature.
    """

    # the cell: its defaults and checks live on CellConfig, see cell()
    radius_cm: float = CellConfig.radius_cm
    temperature_c: float = CellConfig.temperature_c
    p_he_torr: float = CellConfig.p_he_torr
    p_n2_torr: float = CellConfig.p_n2_torr
    sigma_se_rbrb: float = CellConfig.sigma_se_rbrb
    sigma_sd_rbrb: float = CellConfig.sigma_sd_rbrb
    sigma_sd_rbhe: float = CellConfig.sigma_sd_rbhe
    sigma_sd_rbn2: float = CellConfig.sigma_sd_rbn2
    d0_he_cm2_s: float = CellConfig.d0_he_cm2_s
    d0_n2_cm2_s: float = CellConfig.d0_n2_cm2_s
    d_temp_exponent: float = CellConfig.d_temp_exponent
    include_wall: bool = CellConfig.include_wall
    # spin system and drive
    nuclear_spin: float = 1.5
    pump_axis: str = "z"
    s_magnitude: float = 0.5
    r_op_over_gamma_se: float = 1.0
    a_hfs_over_gamma_se: float = 100.0
    # integration controls: by default run until the state actually settles
    # (drive at R_op ~ G_SE needs ~70 spin-exchange times), holding a hard cap
    t_end_over_t_se: float = 150.0
    dt_steps_per_rate: float = 50.0
    sample_every: int = 10
    stop_at_steady: bool = True
    steady_tol: float = 1e-7
    # outputs and sweeps
    out_dir: str = "out"
    sweep_variable: str = ""
    sweep_values: tuple[float, ...] = ()

    def cell(self) -> CellConfig:
        """The cell this config describes; raises :class:`CellInputError` on a bad cell key."""
        return CellConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(CellConfig)})

    def validate(self) -> "RunConfig":
        try:
            self.cell()
        except CellInputError as exc:
            raise ConfigError(str(exc), exc.key) from None
        if self.pump_axis not in PUMP_AXES:
            raise ConfigError(f"pump_axis must be one of {PUMP_AXES}, got {self.pump_axis!r}", "pump_axis")
        if not 0.0 <= self.s_magnitude <= 1.0:
            raise ConfigError(f"s_magnitude must be in [0, 1], got {self.s_magnitude}", "s_magnitude")
        if isinstance(self.sample_every, bool) or not isinstance(self.sample_every, int) or self.sample_every < 1:
            raise ConfigError(f"sample_every must be an integer >= 1, got {self.sample_every!r}", "sample_every")
        if not isinstance(self.stop_at_steady, bool):
            raise ConfigError(f"stop_at_steady must be a boolean, got {self.stop_at_steady!r}", "stop_at_steady")
        for key in FINITE_RUN_CONTROLS:
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}", key)
        for key, bad, bound in (
            ("r_op_over_gamma_se", self.r_op_over_gamma_se < 0.0, ">= 0"),
            ("a_hfs_over_gamma_se", self.a_hfs_over_gamma_se <= 0.0, "> 0"),
            ("t_end_over_t_se", self.t_end_over_t_se <= 0.0, "> 0"),
            ("dt_steps_per_rate", self.dt_steps_per_rate < 1.0, ">= 1"),
            ("steady_tol", self.steady_tol <= 0.0, "> 0"),
        ):
            if bad:
                raise ConfigError(f"{key} must be {bound}", key)
        two_i = 2.0 * self.nuclear_spin
        if not math.isfinite(two_i) or self.nuclear_spin < 0.5 or abs(two_i - round(two_i)) > 1e-9:
            raise ConfigError(f"nuclear_spin must be a half-integer >= 1/2, got {self.nuclear_spin}",
                              "nuclear_spin")
        if self.sweep_variable and self.sweep_variable not in SWEEPABLE:
            raise ConfigError(
                f"sweep_variable {self.sweep_variable!r} not sweepable; choose from {SWEEPABLE}",
                "sweep_variable",
            )
        if self.sweep_variable and not self.sweep_values:
            raise ConfigError("sweep_variable set but sweep_values is empty", "sweep_variable")
        if self.sweep_values and not self.sweep_variable:
            raise ConfigError("sweep_values set but sweep_variable is empty", "sweep_values")
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str, lineno: int, source: str):
    f = _FIELDS[key]
    err = lambda msg: ConfigError(f"{source}:{lineno}: {msg}")  # noqa: E731
    if key == "sweep_values":
        try:
            values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise err(f"sweep_values must be comma-separated numbers, got {raw!r}") from None
        if not all(map(math.isfinite, values)):
            raise err(f"sweep_values must be finite, got {raw!r}")
        return values
    if f.type == "bool":
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise err(f"{key} must be a boolean, got {raw!r}")
    if f.type == "int":
        try:
            return int(raw)
        except ValueError:
            raise err(f"{key} must be an integer, got {raw!r}") from None
    if f.type == "float":
        try:
            value = float(raw)
        except ValueError:
            raise err(f"{key} must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise err(f"{key} must be finite, got {raw!r}")
        return value
    return raw


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text into a validated :class:`RunConfig`."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if raw == "":
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        values[key] = _coerce(key, raw, lineno, source)
        lines[key] = lineno
    try:
        return RunConfig(**values).validate()
    except ConfigError as exc:
        # re-tag range errors with the file they came from, and the line when
        # the file sets the key
        where = f"{source}:{lines[exc.key]}" if exc.key in lines else source
        raise ConfigError(f"{where}: {exc}", exc.key) from None


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text, source=str(path))
