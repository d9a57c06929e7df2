"""Collision and wall rates for a buffer-gas alkali vapor cell.

Everything in this module is classical gas kinetics in CGS units: number
densities in cm^-3, velocities in cm/s, cross sections in cm^2, rates in
1/s.  The chain is

    vapor pressure (fit)  ->  Rb density
    Maxwell-Boltzmann     ->  mean relative speeds per collision pair
    n * sigma * v         ->  spin-exchange and spin-destruction rates
    diffusion to the wall ->  lowest-mode wall relaxation rate

The defaults describe a spherical cell of radius 1.5 cm at 120 C filled
with 200 Torr of He and 75 Torr of N2 (pressures at operating temperature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import constants as c

__all__ = [
    "CellConfig",
    "CellInputError",
    "RateSet",
    "rb_vapor_pressure_torr",
    "rb_number_density_cm3",
    "buffer_number_density_cm3",
    "mean_relative_velocity_cm_s",
    "diffusion_coefficient_cm2_s",
    "wall_relaxation_rate",
    "compute_rates",
]

TEMPERATURE_MIN_C = 20.0
TEMPERATURE_MAX_C = 200.0


class CellInputError(ValueError):
    """A cell input out of its range; ``key`` names the :class:`CellConfig` field."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class CellConfig:
    """Everything that sets a cell's rate budget; the field names are the config keys.

    Geometry, temperature and fill pressures (quoted at operating
    temperature); collision cross sections in cm^2 (spin exchange is Rb-Rb
    only, and He is the gentlest spin-destruction partner, which is why it is
    the majority buffer gas); Rb diffusion constants in each buffer gas in
    cm^2/s at 760 Torr, optionally rescaled by (T / 273.15 K)^d_temp_exponent;
    and whether the wall channel counts in the total spin-destruction rate
    (the wall rate itself is always reported).
    """

    radius_cm: float = 1.5
    temperature_c: float = 120.0
    p_he_torr: float = 200.0
    p_n2_torr: float = 75.0
    sigma_se_rbrb: float = 1.9e-14
    sigma_sd_rbrb: float = 9.0e-18
    sigma_sd_rbhe: float = 8.7e-24
    sigma_sd_rbn2: float = 1.0e-22
    d0_he_cm2_s: float = 0.35
    d0_n2_cm2_s: float = 0.16
    d_temp_exponent: float = 0.0
    include_wall: bool = True

    def __post_init__(self):
        if not isinstance(self.include_wall, bool):
            raise CellInputError("include_wall", f"include_wall must be a boolean, got {self.include_wall!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise CellInputError(f.name, f"{f.name} must be finite, got {value}")
        if self.radius_cm <= 0.0:
            raise CellInputError("radius_cm", f"cell radius must be positive, got radius_cm = {self.radius_cm}")
        if not TEMPERATURE_MIN_C <= self.temperature_c <= TEMPERATURE_MAX_C:
            raise CellInputError(
                "temperature_c",
                f"temperature {self.temperature_c} C outside the validity window "
                f"[{TEMPERATURE_MIN_C:.0f}, {TEMPERATURE_MAX_C:.0f}] C of the vapor-pressure fit",
            )
        for key in ("p_he_torr", "p_n2_torr"):
            if getattr(self, key) < 0.0:
                raise CellInputError(key, f"{key} must be >= 0 Torr, got {getattr(self, key)}")
        # with no buffer gas there is no diffusion bottleneck to speak of, so
        # that is rejected rather than extrapolated
        if self.p_he_torr == 0.0 and self.p_n2_torr == 0.0:
            raise CellInputError("p_he_torr", "at least one buffer gas pressure must be positive, "
                                 "got p_he_torr = 0 and p_n2_torr = 0")
        # spin exchange sets the time unit of every run, and a zero diffusion
        # constant would silently switch the wall off; a spin-destruction
        # channel may be switched off with a zero cross section
        for key in ("sigma_se_rbrb", "d0_he_cm2_s", "d0_n2_cm2_s"):
            if getattr(self, key) <= 0.0:
                raise CellInputError(key, f"{key} must be > 0, got {getattr(self, key)}")
        for key in ("sigma_sd_rbrb", "sigma_sd_rbhe", "sigma_sd_rbn2"):
            if getattr(self, key) < 0.0:
                raise CellInputError(key, f"{key} must be >= 0, got {getattr(self, key)}")

    @property
    def temperature_k(self) -> float:
        return self.temperature_c + c.CELSIUS_OFFSET


def rb_vapor_pressure_torr(t_k: float) -> float:
    """Saturated Rb vapor pressure in Torr (Nesmeyanov-type fit).

    Two branches joined at the melting point, each of the form
    log10 P = A + B/T + C*T + D*log10 T with T in kelvin.
    """
    if t_k <= 0.0:
        raise ValueError("temperature must be positive")
    if t_k < c.RB_MELT_K:
        log10_p = -94.04826 - 1961.258 / t_k - 0.03771687 * t_k + 42.57526 * math.log10(t_k)
    else:
        log10_p = 15.88253 - 4529.635 / t_k + 0.00058663 * t_k - 2.99138 * math.log10(t_k)
    return 10.0 ** log10_p


def buffer_number_density_cm3(p_torr: float, t_k: float) -> float:
    """Ideal-gas number density in cm^-3 of a gas whose pressure is quoted at T."""
    return p_torr * c.TORR_BA / (c.K_B_ERG * t_k)


def rb_number_density_cm3(temperature_c: float) -> float:
    """Saturated Rb number density in cm^-3."""
    t_k = temperature_c + c.CELSIUS_OFFSET
    return buffer_number_density_cm3(rb_vapor_pressure_torr(t_k), t_k)


def mean_relative_velocity_cm_s(t_k: float, m1_amu: float, m2_amu: float) -> float:
    """Mean relative thermal speed sqrt(8 kT / pi mu) of a collision pair, cm/s."""
    mu_g = (m1_amu * m2_amu) / (m1_amu + m2_amu) * c.AMU_G
    return math.sqrt(8.0 * c.K_B_ERG * t_k / (math.pi * mu_g))


def diffusion_coefficient_cm2_s(cell: CellConfig) -> float:
    """Effective Rb diffusion coefficient in the buffer mix, cm^2/s.

    Each tabulated coefficient is scaled inversely with its gas's pressure
    in units of 760 Torr, and the two dilutions are summed.
    """
    exponent = cell.d_temp_exponent
    scale = (cell.temperature_k / c.T_REF_K) ** exponent if exponent else 1.0
    d = 0.0
    if cell.p_he_torr > 0.0:
        d += cell.d0_he_cm2_s * scale / (cell.p_he_torr / c.P_REF_TORR)
    if cell.p_n2_torr > 0.0:
        d += cell.d0_n2_cm2_s * scale / (cell.p_n2_torr / c.P_REF_TORR)
    return d


def wall_relaxation_rate(cell: CellConfig) -> float:
    """Lowest diffusion-mode relaxation rate (pi/R)^2 * D for a sphere, 1/s."""
    d = diffusion_coefficient_cm2_s(cell)
    return (math.pi / cell.radius_cm) ** 2 * d


@dataclass(frozen=True)
class RateSet:
    """All rates (1/s) and intermediate kinetic quantities for one cell."""

    cell: CellConfig
    vapor_pressure_torr: float
    n_rb_cm3: float
    n_he_cm3: float
    n_n2_cm3: float
    v_rbrb_cm_s: float
    v_rbhe_cm_s: float
    v_rbn2_cm_s: float
    d_cm2_s: float
    gamma_se: float
    gamma_sd_rbrb: float
    gamma_sd_rbhe: float
    gamma_sd_rbn2: float
    gamma_wall: float

    @property
    def gamma_sd(self) -> float:
        """Total electron spin-destruction rate, 1/s; the wall counts when ``cell.include_wall``."""
        total = self.gamma_sd_rbrb + self.gamma_sd_rbhe + self.gamma_sd_rbn2
        if self.cell.include_wall:
            total += self.gamma_wall
        return total

    @property
    def se_to_sd_ratio(self) -> float:
        """Gamma_SE / Gamma_SD; ``inf`` when every spin-destruction channel is off."""
        gamma_sd = self.gamma_sd
        return self.gamma_se / gamma_sd if gamma_sd else math.inf


def compute_rates(cell: CellConfig) -> RateSet:
    """Full rate budget for a cell."""
    t_k = cell.temperature_k
    p_rb = rb_vapor_pressure_torr(t_k)
    n_rb = buffer_number_density_cm3(p_rb, t_k)
    n_he = buffer_number_density_cm3(cell.p_he_torr, t_k)
    n_n2 = buffer_number_density_cm3(cell.p_n2_torr, t_k)
    v_rbrb = mean_relative_velocity_cm_s(t_k, c.M_RB87, c.M_RB87)
    v_rbhe = mean_relative_velocity_cm_s(t_k, c.M_RB87, c.M_HE4)
    v_rbn2 = mean_relative_velocity_cm_s(t_k, c.M_RB87, c.M_N2)
    return RateSet(
        cell=cell,
        vapor_pressure_torr=p_rb,
        n_rb_cm3=n_rb,
        n_he_cm3=n_he,
        n_n2_cm3=n_n2,
        v_rbrb_cm_s=v_rbrb,
        v_rbhe_cm_s=v_rbhe,
        v_rbn2_cm_s=v_rbn2,
        d_cm2_s=diffusion_coefficient_cm2_s(cell),
        gamma_se=n_rb * cell.sigma_se_rbrb * v_rbrb,
        gamma_sd_rbrb=n_rb * cell.sigma_sd_rbrb * v_rbrb,
        gamma_sd_rbhe=n_he * cell.sigma_sd_rbhe * v_rbhe,
        gamma_sd_rbn2=n_n2 * cell.sigma_sd_rbn2 * v_rbn2,
        gamma_wall=wall_relaxation_rate(cell),
    )
