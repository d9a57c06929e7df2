import math

import pytest

from vaporspin import cli
from vaporspin.config import ConfigError, RunConfig, load_config, parse_config


class TestParse:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(
            """
            # a comment
            temperature_c = 95.0   # trailing comment

            s_magnitude = 0.25
            """
        )
        assert cfg.temperature_c == 95.0
        assert cfg.s_magnitude == 0.25
        assert cfg.radius_cm == RunConfig().radius_cm

    def test_bool_and_int_coercion(self):
        cfg = parse_config("include_wall = off\nsample_every = 7\nstop_at_steady = yes")
        assert cfg.include_wall is False
        assert cfg.sample_every == 7
        assert cfg.stop_at_steady is True

    def test_sweep_values_parsed_as_floats(self):
        cfg = parse_config("sweep_variable = radius_cm\nsweep_values = 0.5, 1.0, 2.0")
        assert cfg.sweep_values == (0.5, 1.0, 2.0)

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'radius_mm'"):
            parse_config("temperature_c = 100\nradius_mm = 3")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("radius_cm = 1\nradius_cm = 2")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match=r"<config>:1: expected 'key = value'"):
            parse_config("radius_cm 1.5")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("radius_cm =")

    def test_bad_float_rejected(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config("radius_cm = big")
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config("radius_cm = inf")

    @pytest.mark.parametrize("raw", ["nan", "inf", "0.5, -inf"])
    def test_non_finite_sweep_value_rejected(self, raw):
        with pytest.raises(ConfigError, match=r"<config>:2: sweep_values must be finite"):
            parse_config(f"sweep_variable = s_magnitude\nsweep_values = {raw}")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="must be a boolean"):
            parse_config("include_wall = maybe")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config("sample_every = 2.5")


class TestValidate:
    def test_defaults_are_valid(self):
        RunConfig().validate()

    def test_bad_pump_axis(self):
        with pytest.raises(ConfigError, match="pump_axis"):
            RunConfig(pump_axis="w").validate()

    def test_geometry_errors_are_config_errors(self):
        # cell bounds live on CellConfig; validate() must re-raise them as
        # ConfigError so a bad radius in a config file exits 2, not 4
        with pytest.raises(ConfigError, match="radius must be positive"):
            RunConfig(radius_cm=-4.0).validate()
        with pytest.raises(ConfigError, match="validity window"):
            RunConfig(temperature_c=500.0).validate()
        with pytest.raises(ConfigError, match="p_n2_torr"):
            RunConfig(p_n2_torr=-5.0).validate()

    def test_s_magnitude_range(self):
        with pytest.raises(ConfigError, match="s_magnitude"):
            RunConfig(s_magnitude=1.2).validate()
        with pytest.raises(ConfigError, match="s_magnitude"):
            RunConfig(s_magnitude=-0.1).validate()

    def test_nuclear_spin_must_be_half_integer(self):
        RunConfig(nuclear_spin=2.5).validate()
        with pytest.raises(ConfigError, match="nuclear_spin"):
            RunConfig(nuclear_spin=1.3).validate()
        with pytest.raises(ConfigError, match="nuclear_spin"):
            RunConfig(nuclear_spin=0.0).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_nuclear_spin_is_a_config_error(self, value):
        # the library path has no _coerce in front of validate to reject it first
        with pytest.raises(ConfigError, match="nuclear_spin") as err:
            RunConfig(nuclear_spin=value).validate()
        assert err.value.key == "nuclear_spin"

    def test_rate_and_grid_ranges(self):
        with pytest.raises(ConfigError, match="r_op_over_gamma_se"):
            RunConfig(r_op_over_gamma_se=-0.5).validate()
        with pytest.raises(ConfigError, match="a_hfs_over_gamma_se"):
            RunConfig(a_hfs_over_gamma_se=0.0).validate()
        with pytest.raises(ConfigError, match="t_end_over_t_se"):
            RunConfig(t_end_over_t_se=0.0).validate()
        with pytest.raises(ConfigError, match="dt_steps_per_rate"):
            RunConfig(dt_steps_per_rate=0.5).validate()
        with pytest.raises(ConfigError, match="sample_every"):
            RunConfig(sample_every=0).validate()
        with pytest.raises(ConfigError, match="steady_tol"):
            RunConfig(steady_tol=0.0).validate()

    @pytest.mark.parametrize("value", [2.5, math.nan, True])
    def test_sample_every_must_be_an_integer(self, value):
        # the library path has no _coerce in front of validate to reject it first
        with pytest.raises(ConfigError, match="sample_every") as err:
            RunConfig(sample_every=value).validate()
        assert err.value.key == "sample_every"

    def test_stop_at_steady_must_be_a_boolean(self):
        with pytest.raises(ConfigError, match="stop_at_steady") as err:
            RunConfig(stop_at_steady="no").validate()
        assert err.value.key == "stop_at_steady"

    def test_include_wall_must_be_a_boolean(self):
        with pytest.raises(ConfigError, match="include_wall") as err:
            RunConfig(include_wall="no").validate()
        assert err.value.key == "include_wall"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("r_op_over_gamma_se", math.nan),
            ("a_hfs_over_gamma_se", math.nan),
            ("t_end_over_t_se", math.nan),
            ("t_end_over_t_se", math.inf),
            ("dt_steps_per_rate", math.nan),
            ("steady_tol", math.nan),
        ],
    )
    def test_non_finite_run_control_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            RunConfig(**{key: value}).validate()

    @pytest.mark.parametrize("key", ["sigma_se_rbrb", "sigma_sd_rbrb", "sigma_sd_rbhe", "sigma_sd_rbn2"])
    def test_negative_cross_section_names_the_key(self, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: -1e-20}).validate()

    def test_zero_spin_exchange_cross_section_rejected(self):
        with pytest.raises(ConfigError, match="sigma_se_rbrb"):
            RunConfig(sigma_se_rbrb=0.0).validate()
        RunConfig(sigma_sd_rbhe=0.0).validate()  # a destruction channel may be off

    @pytest.mark.parametrize("key", ["d0_he_cm2_s", "d0_n2_cm2_s"])
    def test_nonpositive_diffusion_constant_names_the_key(self, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: 0.0}).validate()
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: -0.1}).validate()

    def test_non_finite_cell_inputs_rejected(self):
        with pytest.raises(ConfigError, match="sigma_sd_rbrb"):
            RunConfig(sigma_sd_rbrb=float("nan")).validate()
        with pytest.raises(ConfigError, match="d_temp_exponent"):
            RunConfig(d_temp_exponent=float("inf")).validate()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("sigma_se_rbrb = -1.9e-14\n", "sigma_se_rbrb"),
            ("d0_he_cm2_s = 0\nd0_n2_cm2_s = 0\n", "d0_he_cm2_s"),
        ],
    )
    def test_bad_cell_input_exits_2_naming_the_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["rates", "run"])
    def test_no_buffer_gas_exits_2_naming_the_line(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_text("# no buffer gas\np_he_torr = 0\np_n2_torr = 0\n")
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}:2: at least one buffer gas pressure" in err
        assert "p_he_torr" in err and "p_n2_torr" in err
        assert not (tmp_path / "out").exists()

    def test_sweep_consistency(self):
        with pytest.raises(ConfigError, match="not sweepable"):
            RunConfig(sweep_variable="pump_axis", sweep_values=(1.0,)).validate()
        with pytest.raises(ConfigError, match="sweep_values is empty"):
            RunConfig(sweep_variable="radius_cm").validate()
        with pytest.raises(ConfigError, match="sweep_variable is empty"):
            RunConfig(sweep_values=(1.0, 2.0)).validate()

    def test_range_error_via_parse_names_source(self):
        with pytest.raises(ConfigError, match="<config>:1: s_magnitude"):
            parse_config("s_magnitude = 2.0")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("s_magnitude = 2", r"bad\.cfg:2: s_magnitude must be in \[0, 1\], got 2\.0$"),
            ("radius_cm = -1", r"bad\.cfg:2: cell radius must be positive, got radius_cm = -1\.0$"),
            ("sweep_values = 1, 2", r"bad\.cfg:2: sweep_values set but sweep_variable is empty$"),
        ],
    )
    def test_range_error_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# a comment\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            load_config(path)


class TestLoadConfig:
    def test_roundtrip_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("temperature_c = 80\npump_axis = x\n")
        cfg = load_config(path)
        assert cfg.temperature_c == 80.0
        assert cfg.pump_axis == "x"

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "nope.cfg")

    def test_errors_name_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("radius_cm = -1\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown key"):
            load_config(path)
