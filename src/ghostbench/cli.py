"""Command-line interface.

Subcommands: measure-m1, measure-m2, ghost, klyshko-check, temporal,
validate-config.  Each takes an optional configuration file (defaults to
the reference bench geometry) and writes CSV plus a ``key = value`` summary
to stdout.  Exit codes: 0 ok, 2 configuration error, 3 numerical or
sampling error, 4 failed consistency check.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import compute_pattern_stats, ghost_image_stats
from .config import (RunConfig, parse_config, render_config, to_bench, to_grid,
                     to_plane_sweep, to_scan, to_temporal)
from .errors import (CheckFailureError, ConfigError, GhostBenchError, PatternError,
                     SamplingError)
from .experiment import ScanResult, in_slit_positions, klyshko_deviation, run_coincidence_scan
from .temporal import analytic_schmidt_number, eval_biphoton_wavepacket, factorability_check


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def _config_header(command: str, config: RunConfig) -> list[str]:
    lines = [f"# ghostbench {__version__}", f"# command = {command}", "# config:"]
    lines += [f"# {line}" if line else "#" for line in render_config(config).splitlines()]
    return lines


def _write_scan_csv(path: Path, command: str, config: RunConfig, scan: ScanResult):
    coin_peak = scan.coincidence.max() or 1.0
    sing_peak = scan.singles_d2.max() or 1.0
    rows = [f"{y * 1e3:.6f},{c / coin_peak:.9e},{s / sing_peak:.9e}"
            for y, c, s in zip(scan.positions_m, scan.coincidence, scan.singles_d2)]
    text = "\n".join(_config_header(command, config)
                     + ["y2_mm,coincidence_norm,singles_d2_norm"] + rows) + "\n"
    path.write_text(text)


def _print_stats(stats, reference_fwhm_m=None):
    print(f"peak_position_mm = {stats.peak_position_m * 1e3:.6f}")
    print(f"fwhm_mm = {stats.fwhm_m * 1e3:.6f}")
    if stats.first_zero_m is None:
        print("first_zero_mm = none")
    else:
        print(f"first_zero_mm = {stats.first_zero_m * 1e3:.6f}")
    if stats.sinc_fit_width_m is not None:
        print(f"sinc_fit_width_mm = {stats.sinc_fit_width_m * 1e3:.6f}")
        print(f"sinc_fit_residual = {stats.sinc_fit_residual:.6f}")
    if reference_fwhm_m is not None:
        print(f"reference_fwhm_mm = {reference_fwhm_m * 1e3:.6f}")
    print(f"uncertainty_product_over_h = {stats.uncertainty_product_over_h:.4f}")


def _out_dir(config: RunConfig) -> Path:
    directory = Path(config.output_directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _measure(config: RunConfig, which: str) -> int:
    grid = to_grid(config)
    scan_window = to_scan(config)
    bench_m1 = to_bench(config, slit_b="slit")
    scan_m1 = run_coincidence_scan(bench_m1, scan_window, grid)
    fit_args = dict(wavelength_m=config.idler_wavelength_m,
                    slit_to_detector_m=config.screen_to_d2_m)
    stats_m1 = compute_pattern_stats(scan_m1, "coincidence", **fit_args)

    if which == "m1":
        path = _out_dir(config) / "measure_m1.csv"
        _write_scan_csv(path, "measure-m1", config, scan_m1)
        print(f"csv = {path}")
        _print_stats(stats_m1, reference_fwhm_m=stats_m1.fwhm_m)
        return 0

    bench_m2 = to_bench(config, slit_b="open")
    scan_m2 = run_coincidence_scan(bench_m2, scan_window, grid)
    path = _out_dir(config) / "measure_m2.csv"
    _write_scan_csv(path, "measure-m2", config, scan_m2)
    print(f"csv = {path}")
    try:
        stats_m2 = compute_pattern_stats(scan_m2, "coincidence", reference=stats_m1, **fit_args)
    except PatternError as exc:
        # Separable sources spread the conditional pattern beyond the scan
        # window; report the product as a lower bound instead of failing.
        span = scan_window.y_max_m - scan_window.y_min_m
        print(f"note = no localization ({exc})")
        print(f"reference_fwhm_mm = {stats_m1.fwhm_m * 1e3:.6f}")
        print(f"uncertainty_product_over_h_lower_bound = {span / stats_m1.fwhm_m:.4f}")
        return 0
    _print_stats(stats_m2, reference_fwhm_m=stats_m1.fwhm_m)
    if stats_m2.uncertainty_product_over_h > 1.0:
        print("note = no localization (product exceeds h)")
    return 0


def _ghost(config: RunConfig) -> int:
    bench = to_bench(config, slit_b="open")
    stats = ghost_image_stats(bench, to_plane_sweep(config), to_grid(config),
                              magnification_offset_m=config.ghost_slit_offset_m)
    path = _out_dir(config) / "ghost_sweep.csv"
    rows = [f"{z * 1e3:.6f},{w * 1e3:.6f}" for z, w in zip(stats.planes_m, stats.fwhm_by_plane_m)]
    path.write_text("\n".join(_config_header("ghost", config)
                              + ["plane_mm,conditional_fwhm_mm"] + rows) + "\n")
    print(f"csv = {path}")
    print(f"best_plane_mm = {stats.best_plane_m * 1e3:.6f}")
    print(f"fwhm_mm = {stats.fwhm_m * 1e3:.6f}")
    print(f"magnification = {stats.magnification:.6f}")
    return 0


def _klyshko_check(config: RunConfig) -> int:
    bench = to_bench(config)
    grid = to_grid(config)
    positions = in_slit_positions(bench, grid, config.klyshko_positions)
    worst = 0.0
    for pos in positions:
        dev = klyshko_deviation(bench, pos, grid,
                                backward_offset_m=config.klyshko_backward_offset_m)
        worst = max(worst, dev)
        print(f"d1_mm = {pos * 1e3:+.6f}  deviation = {dev:.3e}")
    print(f"max_deviation = {worst:.3e}")
    print(f"tolerance = {config.klyshko_tolerance:.3e}")
    if worst >= config.klyshko_tolerance:
        print("result = FAIL")
        raise CheckFailureError(
            f"advanced-wave deviation {worst:.3e} exceeds tolerance {config.klyshko_tolerance:.3e}")
    print("result = PASS")
    return 0


def _temporal(config: RunConfig) -> int:
    spec = to_temporal(config)
    psi = eval_biphoton_wavepacket(spec)
    k = factorability_check(psi)
    t = spec.time_grid()
    path = _out_dir(config) / "temporal_psi.csv"
    header = _config_header("temporal", config)
    header.append(f"# t_grid_s = {t[0]!r} .. {t[-1]!r} in {t.size} samples; rows are t1, columns t2")
    rows = [",".join(f"{val:.6e}" for val in np.abs(row)) for row in psi]
    path.write_text("\n".join(header + rows) + "\n")
    print(f"csv = {path}")
    print(f"schmidt_number = {k:.6f}")
    print(f"schmidt_number_analytic = {analytic_schmidt_number(spec.sigma_plus_hz, spec.sigma_minus_hz):.6f}")
    return 0


def _validate(config: RunConfig) -> int:
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostbench",
        description="Entangled-biphoton ghost-imaging bench simulator")
    parser.add_argument("--version", action="version", version=f"ghostbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("measure-m1", "coincidence scan with slit B closed to the slit width"),
            ("measure-m2", "coincidence scan with slit B wide open"),
            ("ghost", "sweep idler planes to locate the conditional image"),
            ("klyshko-check", "compare 2-D conditional patterns with the advanced wave"),
            ("temporal", "evaluate the temporal wavepacket and its Schmidt number"),
            ("validate-config", "parse and validate a configuration file")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", default=None, help="configuration file (optional)")
    return parser


_COMMANDS = {
    "measure-m1": lambda cfg: _measure(cfg, "m1"),
    "measure-m2": lambda cfg: _measure(cfg, "m2"),
    "ghost": _ghost,
    "klyshko-check": _klyshko_check,
    "temporal": _temporal,
    "validate-config": _validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except CheckFailureError as exc:
        print(f"error: check: {exc}", file=sys.stderr)
        return 4
    except (SamplingError, PatternError, GhostBenchError, ValueError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
