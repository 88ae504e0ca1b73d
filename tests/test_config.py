import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ghostbench import ConfigError, Open, Slit
from ghostbench.cli import main
from ghostbench.config import (_SCHEMA, RunConfig, parse_config, render_config, to_bench, to_grid,
                               to_plane_sweep, to_scan, to_source, to_temporal)


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

    @pytest.mark.parametrize("section, key, raw, wanted", [("grid", "n_points", "2048.0", "an integer"),
                                                           ("temporal", "n_points", "3.5", "an integer"),
                                                           ("grid", "extent_mm", "wide", "a number")])
    def test_unparsable_value_names_the_type(self, section, key, raw, wanted):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: cannot parse '{re.escape(raw)}' as {wanted}$"):
            parse_config(f"[{section}]\n{key} = {raw}\n")

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

    def test_energy_conservation_names_the_idler_that_conserves_it(self):
        text = "[source]\nsignal_wavelength_nm = 632.8\nidler_wavelength_nm = {}\n"
        with pytest.raises(ConfigError, match=r"relative error 5\.50e-05\); an idler wavelength of "
                                              r"788\.69747958821\d* nm conserves it$") as rejected:
            parse_config(text.format("788.6"))
        # The named wavelength conserves energy, so it parses.
        parse_config(text.format(re.search(r"of (\S+) nm", str(rejected.value)).group(1)))

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
        assert to_source(replace(cfg, source_kind="separable")).kind == "separable"

    def test_temporal_builder(self):
        cfg = parse_config("[temporal]\nsigma_plus_hz = 2.0\nsigma_minus_hz = 8.0\nn_points = 64\n")
        spec = to_temporal(cfg)
        assert spec.sigma_plus_hz == 2.0
        assert spec.sigma_minus_hz == 8.0
        assert spec.n_points == 64


def document(settings_by_section):
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for section, keys in settings_by_section.items())


_POSITIVE_KEYS = [("grid", "extent_mm"), ("source", "pump_diameter_mm"),
                  ("source", "correlation_width_um"), ("source", "pump_wavelength_nm"),
                  ("source", "signal_wavelength_nm"), ("source", "idler_wavelength_nm"),
                  ("signal_arm", "lens_aperture_mm"), ("signal_arm", "slit_a_width_mm"),
                  ("idler_arm", "slit_b_width_mm"), ("detectors", "d1_aperture_um"),
                  ("detectors", "d2_aperture_um"), ("klyshko", "tolerance"),
                  ("temporal", "sigma_plus_hz"), ("temporal", "sigma_minus_hz"),
                  ("temporal", "span_coherence_times")]

# (section, the keys the document sets there, the key the error must name)
_RULES = (
    [(s, {k: "0"}, k) for s, k in _POSITIVE_KEYS]
    + [(s, {k: "-1"}, k) for s, k in _POSITIVE_KEYS]
    + [(s, {k: "-1"}, k) for s, k in (("signal_arm", "crystal_to_lens_mm"),
                                      ("signal_arm", "lens_to_slit_mm"),
                                      ("idler_arm", "crystal_to_screen_mm"),
                                      ("idler_arm", "screen_to_d2_mm"))]
    + [(s, {k: "1"}, k) for s, k in (("grid", "n_points"), ("scan", "steps"), ("ghost", "steps"),
                                     ("klyshko", "n_positions"), ("temporal", "n_points"))]
    + [
        ("source", {"kind": "classical"}, "kind"),
        ("idler_arm", {"slit_b": "closed"}, "slit_b"),
        ("detectors", {"d1_mode": "area"}, "d1_mode"),
        ("detectors", {"d2_mode": "area"}, "d2_mode"),
        # measure-m1 puts slit B in even when the config leaves it out.
        ("idler_arm", {"slit_b": "open", "slit_b_width_mm": "0"}, "slit_b_width_mm"),
        ("grid", {"n_points": "15"}, "n_points"),
        ("signal_arm", {"lens_focal_mm": "0"}, "lens_focal_mm"),
        ("scan", {"y_min_mm": "2", "y_max_mm": "-2"}, "y_max_mm"),
        ("scan", {"y_min_mm": "1", "y_max_mm": "1"}, "y_max_mm"),
        ("ghost", {"plane_min_mm": "900", "plane_max_mm": "600"}, "plane_max_mm"),
        ("ghost", {"plane_min_mm": "700", "plane_max_mm": "700"}, "plane_max_mm"),
        ("ghost", {"slit_offset_mm": "0"}, "slit_offset_mm"),
        ("source", {"signal_wavelength_nm": "700.0"}, "signal_wavelength_nm"),
        ("source", {"correlation_width_um": "4000"}, "correlation_width_um"),
        ("temporal", {"amplitude": "0"}, "amplitude"),
    ])


class TestValidation:
    @pytest.mark.parametrize("section, keys, key", _RULES,
                             ids=[f"{s}.{k}={'/'.join(v.values())}" for s, v, k in _RULES])
    def test_rule_names_its_key(self, section, keys, key, capsys, tmp_path):
        text = document({section: keys})
        named = rf"^\[{section}\] [^:]*\b{key}\b[^:]*: "
        with pytest.raises(ConfigError, match=named):
            parse_config(text)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["validate-config", str(path)]) == 2
        assert re.search(named, capsys.readouterr().err.removeprefix("error: config: "))

    @pytest.mark.parametrize("section, key", [("signal_arm", "crystal_to_lens_mm"),
                                              ("klyshko", "tolerance")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: must be a finite number"):
            parse_config(document({section: {key: value}}))

    def test_each_field_has_one_key(self):
        attrs = [attr for keys in _SCHEMA.values() for attr, _ in keys.values()]
        assert sorted(attrs) == sorted(f.name for f in fields(RunConfig))


_DEFAULT_TEXT = {section: dict(line.split(" = ") for line in body.strip().splitlines()[1:])
                 for section, body in zip(_SCHEMA, render_config(RunConfig()).split("\n\n"))}
_STRINGS = {"kind": ["entangled", "separable"], "slit_b": ["slit", "open"],
            "d1_mode": ["point", "bucket"], "d2_mode": ["point", "bucket"], "directory": ["out"]}


def _value(section, key):
    tag = _SCHEMA[section][key][1]
    if tag == "str":
        return st.sampled_from(_STRINGS[key] + ["bogus"])
    if tag == "int":
        return st.integers(-3, 4096).map(str)
    default = float(_DEFAULT_TEXT[section][key])
    return st.one_of(st.sampled_from(["0", "-0.0", "nan", "inf", "-inf"]),
                     st.floats(-2.0, 2.0).map(lambda f: repr(default * f)),
                     st.floats(-1e3, 1e3).map(repr))


# Every key set to a valid value other than its default: ints, strings and
# each of the mm, um and nm tags and the plain floats.
_EVERY_KEY = """\
[grid]
n_points = 512
extent_mm = 12.5
[source]
kind = separable
pump_diameter_mm = 2.5
correlation_width_um = 20.0
pump_wavelength_nm = 400.0
signal_wavelength_nm = 650.0
idler_wavelength_nm = 1040.0
[signal_arm]
crystal_to_lens_mm = 300.0
lens_focal_mm = 400.0
lens_aperture_mm = 20.0
lens_to_slit_mm = 800.0
slit_a_width_mm = 0.2
slit_a_center_mm = 0.05
[idler_arm]
crystal_to_screen_mm = 700.0
slit_b = open
slit_b_width_mm = 0.25
slit_b_center_mm = -0.1
screen_to_d2_mm = 450.0
[detectors]
d1_mode = point
d1_position_mm = 0.03
d1_aperture_um = 150.0
d2_mode = bucket
d2_aperture_um = 200.0
[scan]
y_min_mm = -3.0
y_max_mm = 3.5
steps = 81
[ghost]
plane_min_mm = 500.0
plane_max_mm = 950.0
steps = 11
slit_offset_mm = 0.4
[klyshko]
n_positions = 4
tolerance = 1e-5
backward_offset_mm = 2.5
[temporal]
sigma_plus_hz = 2.0
sigma_minus_hz = 8.0
omega_signal_hz = 3.0
omega_idler_hz = -3.0
amplitude = 0.5
n_points = 256
span_coherence_times = 3.0
[output]
directory = out
"""

_EVERY_KEY_RENDERED = """\
[grid]
n_points = 512
extent_mm = 12.5

[source]
kind = separable
pump_diameter_mm = 2.5
correlation_width_um = 20.0
pump_wavelength_nm = 400.0
signal_wavelength_nm = 650.0
idler_wavelength_nm = 1040.0

[signal_arm]
crystal_to_lens_mm = 300.0
lens_focal_mm = 400.0
lens_aperture_mm = 20.0
lens_to_slit_mm = 800.0
slit_a_width_mm = 0.2
slit_a_center_mm = 0.05

[idler_arm]
crystal_to_screen_mm = 700.0
slit_b = open
slit_b_width_mm = 0.25
slit_b_center_mm = -0.1
screen_to_d2_mm = 450.0

[detectors]
d1_mode = point
d1_position_mm = 0.03
d1_aperture_um = 150.0
d2_mode = bucket
d2_aperture_um = 200.0

[scan]
y_min_mm = -3.0
y_max_mm = 3.5
steps = 81

[ghost]
plane_min_mm = 500.0
plane_max_mm = 950.0
steps = 11
slit_offset_mm = 0.4

[klyshko]
n_positions = 4
tolerance = 1e-05
backward_offset_mm = 2.5

[temporal]
sigma_plus_hz = 2.0
sigma_minus_hz = 8.0
omega_signal_hz = 3.0
omega_idler_hz = -3.0
amplitude = 0.5
n_points = 256
span_coherence_times = 3.0

[output]
directory = out

"""


class TestRendering:
    def test_every_key_renders_to_pinned_text(self):
        config = parse_config(_EVERY_KEY)
        assert all(getattr(config, f.name) != getattr(RunConfig(), f.name) for f in fields(RunConfig))
        assert render_config(config) == _EVERY_KEY_RENDERED

    def test_every_key_is_read_in_the_unit_its_name_ends_with(self):
        config = parse_config(_EVERY_KEY)
        scales = {"mm": 1e-3, "um": 1e-6, "nm": 1e-9}
        texts = {section: dict(line.split(" = ") for line in body.strip().splitlines()[1:])
                 for section, body in zip(_SCHEMA, _EVERY_KEY_RENDERED.split("\n\n"))}
        for section, keys in _SCHEMA.items():
            for key, (attr, _) in keys.items():
                value, text = getattr(config, attr), texts[section][key]
                if isinstance(value, float):
                    assert value == pytest.approx(float(text) * scales.get(key.rpartition("_")[2], 1.0),
                                                  rel=1e-15), key
                else:
                    assert str(value) == text, key

    def test_readme_key_table_matches_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("## Configuration format", 1)[1].split("```\n", 2)[1]
        listed = {section: [pair.strip().split(" = ") for pair in body.split(",") if pair.strip()]
                  for section, body in re.findall(r"^\[(\w+)\]([^[]*)", table, re.M)}
        assert list(listed) == list(_SCHEMA)
        for section, pairs in listed.items():
            assert [key for key, _ in pairs] == list(_SCHEMA[section]), section
            for key, default in pairs:
                rendered = _DEFAULT_TEXT[section][key]
                if _SCHEMA[section][key][1] == "str":
                    assert default.split("|")[0] == rendered, key
                else:
                    assert float(default) == pytest.approx(float(rendered), rel=1e-12), key


@st.composite
def documents(draw):
    keys = draw(st.lists(st.sampled_from([(s, k) for s in _SCHEMA for k in _SCHEMA[s]]),
                         max_size=5, unique=True))
    chosen = {}
    for section, key in keys:
        chosen.setdefault(section, {})[key] = draw(_value(section, key))
    return document(chosen)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(documents())
def test_valid_document_builds_everything_and_round_trips(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    to_grid(config)
    for slit_b in (None, "slit", "open"):
        to_bench(config, slit_b=slit_b)
    to_scan(config)
    to_plane_sweep(config)
    to_temporal(config)
    assert parse_config(render_config(config)) == config
