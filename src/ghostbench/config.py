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
from dataclasses import dataclass, replace

from .analysis import PlaneSweep
from .elements import ArmSpec, FreeSpace, Open, Slit, ThinLens
from .errors import ConfigError
from .experiment import BenchSpec, DetectorSpec, ScanWindow
from .grid import TransverseGrid
from .source import SourceSpec
from .temporal import TemporalSpec

_MM = 1e-3
_UM = 1e-6
_NM = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run parameters (lengths stored in meters).

    The defaults are the reference bench; a value that a spec owns is read
    from that spec's field default.
    """

    # grid
    n_points: int = 1024
    extent_m: float = 15e-3
    # source
    source_kind: str = SourceSpec.kind
    pump_diameter_m: float = SourceSpec.pump_diameter_m
    correlation_width_m: float = SourceSpec.correlation_width_m
    pump_wavelength_m: float = SourceSpec.lambda_pump_m
    signal_wavelength_m: float = SourceSpec.lambda_signal_m
    idler_wavelength_m: float = SourceSpec.lambda_idler_m
    # signal arm
    crystal_to_lens_m: float = 255e-3
    lens_focal_m: float = 500e-3
    lens_aperture_m: float = 25e-3
    lens_to_slit_m: float = 1.0
    slit_a_width_m: float = 0.16e-3
    slit_a_center_m: float = 0.0
    # idler arm
    crystal_to_screen_m: float = 745e-3
    slit_b: str = "slit"
    slit_b_width_m: float = 0.16e-3
    slit_b_center_m: float = 0.0
    screen_to_d2_m: float = 500e-3
    # detectors
    d1_mode: str = "bucket"
    d1_position_m: float = 0.0
    d1_aperture_m: float = DetectorSpec.aperture_diameter_m
    d2_mode: str = "point"
    d2_aperture_m: float = DetectorSpec.aperture_diameter_m
    # scan
    scan_y_min_m: float = -4e-3
    scan_y_max_m: float = 4e-3
    scan_steps: int = 161
    # ghost plane sweep
    ghost_plane_min_m: float = 600e-3
    ghost_plane_max_m: float = 900e-3
    ghost_steps: int = 31
    ghost_slit_offset_m: float = 0.5e-3
    # klyshko check
    klyshko_positions: int = 5
    klyshko_tolerance: float = 1e-6
    klyshko_backward_offset_m: float = 0.0
    # temporal
    temporal_sigma_plus_hz: float = 1.0
    temporal_sigma_minus_hz: float = 10.0
    temporal_omega_signal_hz: float = TemporalSpec.omega_s_hz
    temporal_omega_idler_hz: float = TemporalSpec.omega_i_hz
    temporal_amplitude: float = TemporalSpec.amplitude_a0
    temporal_n_points: int = TemporalSpec.n_points
    temporal_span: float = TemporalSpec.span_coherence_times
    # output
    output_directory: str = "."


# section -> key -> (attribute, converter tag)
_SCHEMA = {
    "grid": {
        "n_points": ("n_points", "int"),
        "extent_mm": ("extent_m", "mm"),
    },
    "source": {
        "kind": ("source_kind", "str"),
        "pump_diameter_mm": ("pump_diameter_m", "mm"),
        "correlation_width_um": ("correlation_width_m", "um"),
        "pump_wavelength_nm": ("pump_wavelength_m", "nm"),
        "signal_wavelength_nm": ("signal_wavelength_m", "nm"),
        "idler_wavelength_nm": ("idler_wavelength_m", "nm"),
    },
    "signal_arm": {
        "crystal_to_lens_mm": ("crystal_to_lens_m", "mm"),
        "lens_focal_mm": ("lens_focal_m", "mm"),
        "lens_aperture_mm": ("lens_aperture_m", "mm"),
        "lens_to_slit_mm": ("lens_to_slit_m", "mm"),
        "slit_a_width_mm": ("slit_a_width_m", "mm"),
        "slit_a_center_mm": ("slit_a_center_m", "mm"),
    },
    "idler_arm": {
        "crystal_to_screen_mm": ("crystal_to_screen_m", "mm"),
        "slit_b": ("slit_b", "str"),
        "slit_b_width_mm": ("slit_b_width_m", "mm"),
        "slit_b_center_mm": ("slit_b_center_m", "mm"),
        "screen_to_d2_mm": ("screen_to_d2_m", "mm"),
    },
    "detectors": {
        "d1_mode": ("d1_mode", "str"),
        "d1_position_mm": ("d1_position_m", "mm"),
        "d1_aperture_um": ("d1_aperture_m", "um"),
        "d2_mode": ("d2_mode", "str"),
        "d2_aperture_um": ("d2_aperture_m", "um"),
    },
    "scan": {
        "y_min_mm": ("scan_y_min_m", "mm"),
        "y_max_mm": ("scan_y_max_m", "mm"),
        "steps": ("scan_steps", "int"),
    },
    "ghost": {
        "plane_min_mm": ("ghost_plane_min_m", "mm"),
        "plane_max_mm": ("ghost_plane_max_m", "mm"),
        "steps": ("ghost_steps", "int"),
        "slit_offset_mm": ("ghost_slit_offset_m", "mm"),
    },
    "klyshko": {
        "n_positions": ("klyshko_positions", "int"),
        "tolerance": ("klyshko_tolerance", "float"),
        "backward_offset_mm": ("klyshko_backward_offset_m", "mm"),
    },
    "temporal": {
        "sigma_plus_hz": ("temporal_sigma_plus_hz", "float"),
        "sigma_minus_hz": ("temporal_sigma_minus_hz", "float"),
        "omega_signal_hz": ("temporal_omega_signal_hz", "float"),
        "omega_idler_hz": ("temporal_omega_idler_hz", "float"),
        "amplitude": ("temporal_amplitude", "float"),
        "n_points": ("temporal_n_points", "int"),
        "span_coherence_times": ("temporal_span", "float"),
    },
    "output": {
        "directory": ("output_directory", "str"),
    },
}

_SCALES = {"mm": _MM, "um": _UM, "nm": _NM}

_CHOICES = {
    "source_kind": ("entangled", "separable"),
    "slit_b": ("slit", "open"),
    "d1_mode": ("point", "bucket"),
    "d2_mode": ("point", "bucket"),
}

_POSITIVE = ("extent_m", "pump_diameter_m", "correlation_width_m", "pump_wavelength_m",
             "signal_wavelength_m", "idler_wavelength_m", "lens_aperture_m",
             "slit_a_width_m", "slit_b_width_m", "d1_aperture_m", "d2_aperture_m",
             "klyshko_tolerance", "temporal_sigma_plus_hz", "temporal_sigma_minus_hz",
             "temporal_span")


def _convert(section: str, key: str, raw: str, tag: str):
    text = raw.strip().strip('"').strip("'")
    try:
        if tag == "int":
            return int(text)
        if tag == "float":
            return float(text)
        if tag in _SCALES:
            return float(text) * _SCALES[tag]
        return text
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as a number") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises :class:`ConfigError` with the offending line or key for syntax
    errors, unknown keys, and invariant violations.  An empty document
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
    _validate(config)
    return config


def _key_of(attr: str) -> str:
    for section, keys in _SCHEMA.items():
        for key, (a, _) in keys.items():
            if a == attr:
                return f"[{section}] {key}"
    return attr


def _validate(config: RunConfig):
    for attr, choices in _CHOICES.items():
        if getattr(config, attr) not in choices:
            raise ConfigError(f"{_key_of(attr)}: must be one of {choices}, "
                              f"got {getattr(config, attr)!r}")
    for attr in _POSITIVE:
        if not (getattr(config, attr) > 0):
            raise ConfigError(f"{_key_of(attr)}: must be positive, got {getattr(config, attr)}")
    for attr in ("n_points", "scan_steps", "ghost_steps", "klyshko_positions", "temporal_n_points"):
        if getattr(config, attr) < 2:
            raise ConfigError(f"{_key_of(attr)}: must be at least 2, got {getattr(config, attr)}")
    if config.n_points < 16:
        raise ConfigError(f"{_key_of('n_points')}: must be at least 16, got {config.n_points}")
    for attr in ("crystal_to_lens_m", "lens_to_slit_m", "crystal_to_screen_m", "screen_to_d2_m"):
        if getattr(config, attr) < 0:
            raise ConfigError(f"{_key_of(attr)}: arm distances must be nonnegative")
    if config.lens_focal_m == 0:
        raise ConfigError(f"{_key_of('lens_focal_m')}: focal length must be nonzero")
    if not (config.scan_y_max_m > config.scan_y_min_m):
        raise ConfigError("[scan] y_max_mm must exceed y_min_mm")
    if not (config.ghost_plane_max_m > config.ghost_plane_min_m):
        raise ConfigError("[ghost] plane_max_mm must exceed plane_min_mm")
    try:
        to_source(config)
    except ValueError as exc:
        raise ConfigError(f"[source]: {exc}") from None


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


def to_source(config: RunConfig, kind: str | None = None) -> SourceSpec:
    return SourceSpec(pump_diameter_m=config.pump_diameter_m,
                      correlation_width_m=config.correlation_width_m,
                      lambda_pump_m=config.pump_wavelength_m,
                      lambda_signal_m=config.signal_wavelength_m,
                      lambda_idler_m=config.idler_wavelength_m,
                      kind=kind if kind is not None else config.source_kind)


def to_bench(config: RunConfig, slit_b: str | None = None) -> BenchSpec:
    """Build the bench; ``slit_b`` may force ``'slit'`` or ``'open'``."""
    source = to_source(config)
    signal = ArmSpec((FreeSpace(config.crystal_to_lens_m),
                      ThinLens(config.lens_focal_m, config.lens_aperture_m),
                      FreeSpace(config.lens_to_slit_m),
                      Slit(config.slit_a_width_m, config.slit_a_center_m)),
                     source.lambda_signal_m)
    mode = slit_b if slit_b is not None else config.slit_b
    screen = Slit(config.slit_b_width_m, config.slit_b_center_m) if mode == "slit" else Open()
    idler = ArmSpec((FreeSpace(config.crystal_to_screen_m),
                     screen,
                     FreeSpace(config.screen_to_d2_m)),
                    source.lambda_idler_m)
    return BenchSpec(source=source, signal_arm=signal, idler_arm=idler,
                     d1=DetectorSpec(config.d1_mode, config.d1_aperture_m, config.d1_position_m),
                     d2=DetectorSpec(config.d2_mode, config.d2_aperture_m, 0.0))


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
