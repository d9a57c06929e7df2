import math

import numpy as np
import pytest

from vaporspin import constants as c
from vaporspin.cell_rates import (
    CellConfig,
    CellInputError,
    buffer_number_density_cm3,
    compute_rates,
    diffusion_coefficient_cm2_s,
    mean_relative_velocity_cm_s,
    rb_number_density_cm3,
    rb_vapor_pressure_torr,
    wall_relaxation_rate,
)

T_OP_K = 393.15  # 120 C


def test_vapor_density_si_dual_route():
    # same number through SI units end to end
    p_pa = rb_vapor_pressure_torr(T_OP_K) * c.TORR_PA
    n_si_cm3 = p_pa / (c.K_B_J * T_OP_K) * 1e-6
    assert rb_number_density_cm3(120.0) == pytest.approx(n_si_cm3, rel=1e-12)


def test_vapor_density_value():
    assert rb_number_density_cm3(120.0) == pytest.approx(1.662e13, rel=2e-3)


def test_vapor_density_increases_with_temperature():
    assert rb_number_density_cm3(130.0) > 1.5 * rb_number_density_cm3(120.0)


def test_vapor_pressure_branches_meet_at_melting_point():
    below = rb_vapor_pressure_torr(c.RB_MELT_K - 1e-6)
    above = rb_vapor_pressure_torr(c.RB_MELT_K + 1e-6)
    assert below == pytest.approx(above, rel=0.05)


def test_mean_relative_velocity_values():
    assert mean_relative_velocity_cm_s(T_OP_K, c.M_RB87, c.M_RB87) == pytest.approx(
        4.3767e4, rel=1e-4
    )
    assert mean_relative_velocity_cm_s(T_OP_K, c.M_RB87, c.M_HE4) == pytest.approx(
        1.47498e5, rel=1e-4
    )
    assert mean_relative_velocity_cm_s(T_OP_K, c.M_RB87, c.M_N2) == pytest.approx(
        6.2684e4, rel=1e-4
    )


def test_equal_mass_relative_velocity_is_sqrt2_mean_speed():
    m = 50.0
    mean_speed = math.sqrt(8.0 * c.K_B_ERG * T_OP_K / (math.pi * m * c.AMU_G))
    assert mean_relative_velocity_cm_s(T_OP_K, m, m) == pytest.approx(
        math.sqrt(2.0) * mean_speed, rel=1e-12
    )


@pytest.fixture(scope="module")
def rates():
    return compute_rates(CellConfig())


class TestDefaultCell:

    def test_spin_exchange_rate(self, rates):
        assert rates.gamma_se == pytest.approx(1.3824e4, rel=1e-3)

    def test_destruction_channels(self, rates):
        assert rates.gamma_sd_rbrb == pytest.approx(6.548, rel=1e-3)
        assert rates.gamma_sd_rbhe == pytest.approx(6.304, rel=1e-3)
        assert rates.gamma_sd_rbn2 == pytest.approx(11.547, rel=1e-3)

    def test_diffusion_and_wall(self, rates):
        assert rates.d_cm2_s == pytest.approx(2.9513, rel=1e-3)
        assert rates.gamma_wall == pytest.approx(12.946, rel=1e-3)

    def test_total_spin_destruction(self, rates):
        parts = (
            rates.gamma_sd_rbrb + rates.gamma_sd_rbhe + rates.gamma_sd_rbn2 + rates.gamma_wall
        )
        assert rates.gamma_sd == pytest.approx(parts, rel=1e-14)
        assert rates.gamma_sd == pytest.approx(37.34, rel=1e-3)

    def test_serf_regime(self, rates):
        assert rates.se_to_sd_ratio > 100.0

    def test_buffer_densities(self, rates):
        assert rates.n_he_cm3 == pytest.approx(
            buffer_number_density_cm3(200.0, T_OP_K), rel=1e-14
        )
        assert rates.n_he_cm3 / rates.n_n2_cm3 == pytest.approx(200.0 / 75.0, rel=1e-12)


def test_radius_extremes():
    assert compute_rates(CellConfig(radius_cm=2.5)).gamma_sd == pytest.approx(29.06, rel=1e-2)
    assert compute_rates(CellConfig(radius_cm=0.01)).gamma_sd == pytest.approx(2.913e5, rel=1e-2)


def test_wall_rate_scales_inverse_square_radius():
    r1 = wall_relaxation_rate(CellConfig(radius_cm=1.0))
    r2 = wall_relaxation_rate(CellConfig(radius_cm=2.0))
    assert r1 / r2 == pytest.approx(4.0, rel=1e-12)


def test_single_gas_diffusion_at_reference_pressure():
    cell = CellConfig(p_he_torr=760.0, p_n2_torr=0.0)
    assert diffusion_coefficient_cm2_s(cell) == pytest.approx(0.35, rel=1e-12)


def test_diffusion_temperature_exponent():
    base = CellConfig(p_he_torr=760.0, p_n2_torr=0.0)
    scaled = CellConfig(p_he_torr=760.0, p_n2_torr=0.0, d_temp_exponent=1.5)
    factor = (base.temperature_k / c.T_REF_K) ** 1.5
    assert diffusion_coefficient_cm2_s(scaled) == pytest.approx(0.35 * factor, rel=1e-12)


def test_no_buffer_gas_is_an_error():
    with pytest.raises(ValueError, match="buffer gas"):
        CellConfig(p_he_torr=0.0, p_n2_torr=0.0)


@pytest.mark.parametrize("key, value", [
    ("d0_he_cm2_s", 0.0),
    ("sigma_se_rbrb", -1e-14),
    ("d0_n2_cm2_s", math.nan),
    ("sigma_sd_rbhe", -1e-24),
    ("d_temp_exponent", math.inf),
    ("include_wall", "no"),
])
def test_bad_cell_input_rejected_at_construction(key, value):
    with pytest.raises(CellInputError, match=key) as exc:
        CellConfig(**{key: value})
    assert exc.value.key == key


def test_exclude_wall_channel():
    rates = compute_rates(CellConfig(include_wall=False))
    bulk = rates.gamma_sd_rbrb + rates.gamma_sd_rbhe + rates.gamma_sd_rbn2
    assert rates.gamma_sd == pytest.approx(bulk, rel=1e-14)
    assert rates.gamma_wall > 0.0  # still reported


def test_zero_spin_destruction_gives_an_infinite_ratio():
    rates = compute_rates(CellConfig(sigma_sd_rbrb=0.0, sigma_sd_rbhe=0.0, sigma_sd_rbn2=0.0,
                                     include_wall=False))
    assert rates.gamma_sd == 0.0
    assert rates.se_to_sd_ratio == math.inf


def test_cross_section_overrides_propagate():
    doubled = compute_rates(CellConfig(sigma_se_rbrb=3.8e-14))
    stock = compute_rates(CellConfig())
    assert doubled.gamma_se == pytest.approx(2.0 * stock.gamma_se, rel=1e-12)


@pytest.mark.parametrize("bad_temp", [19.9, 200.1, -40.0])
def test_temperature_window_enforced(bad_temp):
    with pytest.raises(ValueError, match="window"):
        CellConfig(temperature_c=bad_temp)


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CellConfig(radius_cm=0.0)
    with pytest.raises(ValueError):
        CellConfig(p_he_torr=-1.0)


def test_vapor_pressure_positive_temperature_required():
    with pytest.raises(ValueError):
        rb_vapor_pressure_torr(0.0)
