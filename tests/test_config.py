import pytest

from ghostbench import ConfigError, Open, Slit
from ghostbench.config import (RunConfig, parse_config, render_config, to_bench, to_grid,
                               to_scan, to_source, to_temporal)


class TestDefaults:
    def test_empty_document_is_reference_bench(self):
        cfg = parse_config("")
        assert cfg.crystal_to_lens_m == pytest.approx(0.255)
        assert cfg.lens_focal_m == pytest.approx(0.5)
        assert cfg.slit_a_width_m == pytest.approx(0.16e-3)
        assert cfg.screen_to_d2_m == pytest.approx(0.5)
        assert cfg.pump_wavelength_m == pytest.approx(351.1e-9)
        assert cfg.signal_wavelength_m == pytest.approx(702.2e-9)
        assert cfg.n_points == 1024

    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_modified_config_round_trips(self):
        text = "[source]\nkind = separable\ncorrelation_width_um = 30.0\n[scan]\nsteps = 81\n"
        cfg = parse_config(text)
        assert parse_config(render_config(cfg)) == cfg
        assert cfg.source_kind == "separable"
        assert cfg.correlation_width_m == pytest.approx(30e-6)
        assert cfg.scan_steps == 81


class TestParsing:
    def test_quoted_enumerations_accepted(self):
        cfg = parse_config('[idler_arm]\nslit_b = "open"\n')
        assert cfg.slit_b == "open"
        bench = to_bench(cfg)
        assert isinstance(bench.idler_arm.elements[1], Open)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="slit_a_widht_mm"):
            parse_config("[signal_arm]\nslit_a_widht_mm = 0.16\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="pump"):
            parse_config("[pump]\ndiameter_mm = 3\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[scan]\nthis is not a key value pair\n")

    def test_key_outside_section_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("steps = 3\n")

    def test_non_numeric_value_names_key(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config("[scan]\nsteps = many\n")

    def test_negative_width_names_key(self):
        with pytest.raises(ConfigError, match="slit_a_width_mm"):
            parse_config("[signal_arm]\nslit_a_width_mm = -1\n")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="d1_mode"):
            parse_config("[detectors]\nd1_mode = area\n")

    def test_inverted_scan_window_rejected(self):
        with pytest.raises(ConfigError, match="y_max_mm"):
            parse_config("[scan]\ny_min_mm = 2\ny_max_mm = -2\n")

    def test_energy_conservation_checked(self):
        with pytest.raises(ConfigError, match="source"):
            parse_config("[source]\nsignal_wavelength_nm = 700.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[scan]\nsteps = 3\nsteps = 4\n")


class TestBuilders:
    def test_grid_and_scan(self):
        cfg = parse_config("[grid]\nn_points = 512\nextent_mm = 10\n[scan]\nsteps = 21\n")
        grid = to_grid(cfg)
        assert grid.n_points == 512
        assert grid.extent_m == pytest.approx(10e-3)
        assert to_scan(cfg).steps == 21

    def test_bench_slit_b_override(self):
        cfg = RunConfig()
        m1 = to_bench(cfg, slit_b="slit")
        m2 = to_bench(cfg, slit_b="open")
        assert isinstance(m1.idler_arm.elements[1], Slit)
        assert isinstance(m2.idler_arm.elements[1], Open)

    def test_source_kind_override(self):
        cfg = RunConfig()
        assert to_source(cfg).kind == "entangled"
        assert to_source(cfg, kind="separable").kind == "separable"

    def test_temporal_builder(self):
        cfg = parse_config("[temporal]\nsigma_plus_hz = 2.0\nsigma_minus_hz = 8.0\nn_points = 64\n")
        spec = to_temporal(cfg)
        assert spec.sigma_plus_hz == 2.0
        assert spec.sigma_minus_hz == 8.0
        assert spec.n_points == 64
