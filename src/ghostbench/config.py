"""Run configuration: the line-oriented ``key = value`` file format.

A configuration file holds ``[section]`` headers with one ``key = value``
per line; ``#`` starts a comment.  Length-valued keys carry their unit in
the name (``_mm``, ``_um``, ``_nm``).  Every key is optional and defaults
to the reference bench geometry; unknown sections or keys are errors so typos
cannot silently change an experiment.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace

from .analysis import PlaneSweep
from .elements import ArmSpec, FreeSpace, Open, Slit, ThinLens
from .errors import ConfigError
from .experiment import BenchSpec, DetectorSpec, ScanWindow
from .grid import TransverseGrid
from .source import SourceSpec
from .temporal import TemporalSpec

_SCALES = {"mm": 1e-3, "um": 1e-6, "nm": 1e-9}


def _key(section: str, key: str, default):
    """A :class:`RunConfig` field set by ``key`` in ``[section]``."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run parameters (lengths stored in meters).

    Each field names the section and key that set it; a key ending in a
    unit of ``_SCALES`` is read in that unit.  The defaults are the
    reference bench; a value that a spec owns is read from that spec's
    field default.
    """

    n_points: int = _key("grid", "n_points", 1024)
    extent_m: float = _key("grid", "extent_mm", 15e-3)
    source_kind: str = _key("source", "kind", SourceSpec.kind)
    pump_diameter_m: float = _key("source", "pump_diameter_mm", SourceSpec.pump_diameter_m)
    correlation_width_m: float = _key("source", "correlation_width_um", SourceSpec.correlation_width_m)
    pump_wavelength_m: float = _key("source", "pump_wavelength_nm", SourceSpec.lambda_pump_m)
    signal_wavelength_m: float = _key("source", "signal_wavelength_nm", SourceSpec.lambda_signal_m)
    idler_wavelength_m: float = _key("source", "idler_wavelength_nm", SourceSpec.lambda_idler_m)
    crystal_to_lens_m: float = _key("signal_arm", "crystal_to_lens_mm", 255e-3)
    lens_focal_m: float = _key("signal_arm", "lens_focal_mm", 500e-3)
    lens_aperture_m: float = _key("signal_arm", "lens_aperture_mm", 25e-3)
    lens_to_slit_m: float = _key("signal_arm", "lens_to_slit_mm", 1.0)
    slit_a_width_m: float = _key("signal_arm", "slit_a_width_mm", 0.16e-3)
    slit_a_center_m: float = _key("signal_arm", "slit_a_center_mm", 0.0)
    crystal_to_screen_m: float = _key("idler_arm", "crystal_to_screen_mm", 745e-3)
    slit_b: str = _key("idler_arm", "slit_b", "slit")
    slit_b_width_m: float = _key("idler_arm", "slit_b_width_mm", 0.16e-3)
    slit_b_center_m: float = _key("idler_arm", "slit_b_center_mm", 0.0)
    screen_to_d2_m: float = _key("idler_arm", "screen_to_d2_mm", 500e-3)
    d1_mode: str = _key("detectors", "d1_mode", "bucket")
    d1_position_m: float = _key("detectors", "d1_position_mm", DetectorSpec.position_m)
    d1_aperture_m: float = _key("detectors", "d1_aperture_um", DetectorSpec.aperture_diameter_m)
    d2_mode: str = _key("detectors", "d2_mode", DetectorSpec.mode)
    d2_aperture_m: float = _key("detectors", "d2_aperture_um", DetectorSpec.aperture_diameter_m)
    scan_y_min_m: float = _key("scan", "y_min_mm", -4e-3)
    scan_y_max_m: float = _key("scan", "y_max_mm", 4e-3)
    scan_steps: int = _key("scan", "steps", 161)
    ghost_plane_min_m: float = _key("ghost", "plane_min_mm", 600e-3)
    ghost_plane_max_m: float = _key("ghost", "plane_max_mm", 900e-3)
    ghost_steps: int = _key("ghost", "steps", 31)
    ghost_slit_offset_m: float = _key("ghost", "slit_offset_mm", 0.5e-3)
    klyshko_positions: int = _key("klyshko", "n_positions", 5)
    klyshko_tolerance: float = _key("klyshko", "tolerance", 1e-6)
    klyshko_backward_offset_m: float = _key("klyshko", "backward_offset_mm", 0.0)
    temporal_sigma_plus_hz: float = _key("temporal", "sigma_plus_hz", 1.0)
    temporal_sigma_minus_hz: float = _key("temporal", "sigma_minus_hz", 10.0)
    temporal_omega_signal_hz: float = _key("temporal", "omega_signal_hz", TemporalSpec.omega_s_hz)
    temporal_omega_idler_hz: float = _key("temporal", "omega_idler_hz", TemporalSpec.omega_i_hz)
    temporal_amplitude: float = _key("temporal", "amplitude", TemporalSpec.amplitude_a0)
    temporal_n_points: int = _key("temporal", "n_points", TemporalSpec.n_points)
    temporal_span: float = _key("temporal", "span_coherence_times", TemporalSpec.span_coherence_times)
    output_directory: str = _key("output", "directory", ".")


def _tag(f) -> str:
    """The converter of a field's key: its unit suffix, else the field's
    declared type (``int``, ``float`` or ``str``)."""
    unit = f.metadata["key"].rpartition("_")[2]
    return unit if unit in _SCALES else f.type


# section -> key -> (attribute, converter tag), in field order
_SCHEMA = {}
for _field in fields(RunConfig):
    _SCHEMA.setdefault(_field.metadata["section"], {})[_field.metadata["key"]] = (_field.name, _tag(_field))


def _convert(section: str, key: str, raw: str, tag: str):
    text = raw.strip().strip('"').strip("'")
    try:
        if tag == "int":
            return int(text)
        if tag == "str":
            return text
        value = float(text)
    except ValueError:
        wanted = "an integer" if tag == "int" else "a number"
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {wanted}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be a finite number, got {raw!r}")
    return value * _SCALES.get(tag, 1.0)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises :class:`ConfigError` with the offending line or key for syntax
    errors, unknown keys and non-finite numbers.  A document is valid when
    every spec the commands build from it builds; otherwise the error names
    the section and the keys the document set there.  An empty document
    yields the default (reference-geometry) configuration.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"line {exc.lineno}: key outside any [section]") from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"line {exc.lineno}: duplicate key {exc.option!r} in [{exc.section}]") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"line {exc.lineno}: duplicate section [{exc.section}]") from None
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if exc.errors else "?"
        raise ConfigError(f"line {lineno}: malformed line") from None

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            attr, tag = _SCHEMA[section][key]
            values[attr] = _convert(section, key, raw, tag)

    config = replace(RunConfig(), **values)
    for section, build in _SECTION_BUILDERS.items():
        try:
            build(config)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {', '.join(parser.options(section))}: {exc}") from None
    return config


def _format_number(x) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def render_config(config: RunConfig) -> str:
    """Canonical text form; parse(render(c)) == c for every valid c."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (attr, tag) in keys.items():
            value = getattr(config, attr)
            if tag in _SCALES:
                out.write(f"{key} = {_format_number(value / _SCALES[tag])}\n")
            elif tag == "str":
                out.write(f"{key} = {value}\n")
            else:
                out.write(f"{key} = {_format_number(value)}\n")
        out.write("\n")
    return out.getvalue()


def to_grid(config: RunConfig) -> TransverseGrid:
    return TransverseGrid(config.n_points, config.extent_m)


def to_source(config: RunConfig) -> SourceSpec:
    return SourceSpec(pump_diameter_m=config.pump_diameter_m,
                      correlation_width_m=config.correlation_width_m,
                      lambda_pump_m=config.pump_wavelength_m,
                      lambda_signal_m=config.signal_wavelength_m,
                      lambda_idler_m=config.idler_wavelength_m,
                      kind=config.source_kind)


# A bench arm's distances run forward from the crystal; FreeSpace itself
# keeps accepting negative ones, which reverse_arm needs.
def _arm(*elements) -> ArmSpec:
    if any(isinstance(el, FreeSpace) and el.distance_m < 0 for el in elements):
        raise ValueError("arm distances must be nonnegative")
    return ArmSpec(elements)


def _signal_arm(config: RunConfig) -> ArmSpec:
    return _arm(FreeSpace(config.crystal_to_lens_m),
                ThinLens(config.lens_focal_m, config.lens_aperture_m),
                FreeSpace(config.lens_to_slit_m),
                Slit(config.slit_a_width_m, config.slit_a_center_m))


def _idler_arm(config: RunConfig, slit_b: str) -> ArmSpec:
    if slit_b not in ("slit", "open"):
        raise ValueError(f"slit B must be 'slit' or 'open', got {slit_b!r}")
    screen = Slit(config.slit_b_width_m, config.slit_b_center_m) if slit_b == "slit" else Open()
    return _arm(FreeSpace(config.crystal_to_screen_m), screen, FreeSpace(config.screen_to_d2_m))


def _detectors(config: RunConfig) -> tuple[DetectorSpec, DetectorSpec]:
    return (DetectorSpec(config.d1_mode, config.d1_aperture_m, config.d1_position_m),
            DetectorSpec(config.d2_mode, config.d2_aperture_m))


def to_bench(config: RunConfig, slit_b: str | None = None) -> BenchSpec:
    """Build the bench; ``slit_b`` may force ``'slit'`` or ``'open'``."""
    return BenchSpec(to_source(config), _signal_arm(config),
                     _idler_arm(config, slit_b if slit_b is not None else config.slit_b),
                     *_detectors(config))


def default_bench(**overrides) -> BenchSpec:
    """Reference bench with any :class:`RunConfig` fields overridden."""
    return to_bench(replace(RunConfig(), **overrides))


def to_scan(config: RunConfig) -> ScanWindow:
    return ScanWindow(config.scan_y_min_m, config.scan_y_max_m, config.scan_steps)


def to_plane_sweep(config: RunConfig) -> PlaneSweep:
    return PlaneSweep(config.ghost_plane_min_m, config.ghost_plane_max_m, config.ghost_steps)


def to_temporal(config: RunConfig) -> TemporalSpec:
    return TemporalSpec(sigma_plus_hz=config.temporal_sigma_plus_hz,
                        sigma_minus_hz=config.temporal_sigma_minus_hz,
                        omega_s_hz=config.temporal_omega_signal_hz,
                        omega_i_hz=config.temporal_omega_idler_hz,
                        amplitude_a0=config.temporal_amplitude,
                        n_points=config.temporal_n_points,
                        span_coherence_times=config.temporal_span)


def _check_ghost(config: RunConfig):
    to_plane_sweep(config)
    if config.ghost_slit_offset_m == 0:
        raise ValueError("the slit A offset that measures the magnification must be nonzero")


def _check_klyshko(config: RunConfig):
    if config.klyshko_positions < 2:
        raise ValueError(f"the check needs at least 2 D1 positions, got {config.klyshko_positions}")
    if not (config.klyshko_tolerance > 0):
        raise ValueError(f"the deviation tolerance must be positive, got {config.klyshko_tolerance}")


# What the commands build from each section, in _SCHEMA order; parse_config
# accepts a document only when every one of these builds.
_SECTION_BUILDERS = {
    "grid": to_grid,
    "source": to_source,
    "signal_arm": _signal_arm,
    # measure-m1 puts slit B in, whatever the config says.
    "idler_arm": lambda config: (_idler_arm(config, config.slit_b), _idler_arm(config, "slit")),
    "detectors": _detectors,
    "scan": to_scan,
    "ghost": _check_ghost,
    "klyshko": _check_klyshko,
    "temporal": to_temporal,
}
