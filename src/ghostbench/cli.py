"""Command-line interface.

Subcommands: measure-m1, measure-m2, ghost, klyshko-check, temporal,
validate-config.  Each takes an optional configuration file (defaults to
the reference bench geometry) and writes CSV plus a ``key = value`` summary
to stdout.  Exit codes: 0 ok, 2 configuration error, 3 numerical or
sampling error, 4 failed consistency check.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import compute_pattern_stats, ghost_image_stats
from .config import (RunConfig, parse_config, render_config, to_bench, to_grid,
                     to_plane_sweep, to_scan, to_temporal)
from .errors import CheckFailureError, ConfigError, GhostBenchError, PatternError, SamplingError
from .experiment import ScanResult, in_slit_positions, klyshko_deviation, run_coincidence_scan
# eval_biphoton_wavepacket is no longer called here, but perfbench/tracing.py
# binds the name in this module for its temporal.eval span.
from .temporal import (analytic_schmidt_number, eval_biphoton_wavepacket,  # noqa: F401
                       eval_wavepacket_magnitude, factorability_check)


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def _write_csv(config: RunConfig, command: str, name: str, lines: Iterable[str]):
    """Write the config header and ``lines`` to ``name`` in the output directory.

    ``lines`` is any iterable of strings, each one or more lines joined by
    newlines without the last one; it is consumed once, while the file is
    written, so a generator of row blocks never holds the whole CSV.
    """
    header = [f"# ghostbench {__version__}", f"# command = {command}", "# config:"]
    header += [f"# {line}" if line else "#" for line in render_config(config).splitlines()]
    directory = Path(config.output_directory)
    path = directory / name
    try:
        directory.mkdir(parents=True, exist_ok=True)
        file = path.open("w")
    except OSError as exc:
        raise ConfigError(f"cannot write {name} to [output] directory {directory}: {exc}") from None
    with file:
        file.writelines(line + "\n" for line in itertools.chain(header, lines))
    print(f"csv = {path}")


# Decimal exponents of the finite doubles: 4.9e-324 up to 1.8e308.
_EXP_MIN, _EXP_MAX = -324, 308


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(heads, groups, exponents, shifts)`` for :func:`_csv_rows`, each
    entry the little-endian word of its bytes: 'd.dd' for each k = 100 ...
    999, a cell's first three digits and its point; '0000' ... '9999'; for
    each exponent from ``_EXP_MIN`` to ``_EXP_MAX`` its NUL-padded word,
    'e-05', 'e+00' or 'e+123'; and the bit at which the separator follows
    that word.  Built with numpy arithmetic on the first call, so that a
    command writing no ``'%.6e'`` cell never pages in those integer
    kernels (0.6 MB of resident memory)."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    pairs = (digits[:, None] | digits << 8).ravel()
    heads = (digits[:, None] | ord(".") << 8 | pairs << 16).ravel()
    groups = (pairs[:, None] | pairs << 16).ravel()
    exponents = np.arange(_EXP_MIN, _EXP_MAX + 1)
    powers = np.abs(exponents)
    wide = powers >= 100
    signs = np.where(exponents < 0, ord("-"), ord("+")).astype(np.uint64)
    places = np.where(wide, digits[powers // 100] | pairs[powers % 100] << 8, pairs[powers % 100])
    words = ord("e") | signs << np.uint64(8) | places.astype(np.uint64) << np.uint64(16)
    return heads, groups, words, np.where(wide, 40, 32).astype(np.uint64)


# 10^k for |k| <= _POW10_REACH, each the correctly rounded double of 1eK.
_POW10_REACH = 170
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW10_REACH, _POW10_REACH + 1)])
# Half-width of the band around a rounding tie that Python formats; see _e6_parts.
_TIE_MARGIN = 1e-7
# Rows of |Psi| formatted at a time, which bounds the kernel's temporaries.
_BLOCK_ROWS = 64


def _e6_parts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digits, exponent and tie flag of ``'%.6e'`` for each finite value >= 0.

    Returns ``(digits, exponent, tie)`` with ``value ~ digits *
    10^(exponent - 6)`` and ``digits`` an integer in [1e6, 1e7) (0, with
    exponent 0, for a zero).  The exponent is floor(log10(value)), moved
    one decade where the mantissa falls outside [1e6, 1e7).  The mantissa
    is value * 10^h * 10^(s - h), with s = 6 - exponent and h = s // 2, so
    the partial product stays normal from the smallest subnormal to the
    largest double.  np.rint rounds it, and one that rounds to 1e7 is
    carried into the next decade.  At a decade boundary either decade
    rounds to the same string.

    Error bound: each table power is correctly rounded and each product
    rounds once, so the mantissa's relative error is below 4 * 2^-53
    (~4.4e-16); being below 1e7, it is off by less than 4.5e-9.  ``tie``
    marks the cells within ``_TIE_MARGIN`` = 1e-7 of a half-integer, over
    20 times that bound, where the rounding direction is not certain; the
    caller formats those with Python instead.
    """
    positive = np.where(values > 0, values, 1.0)
    exponent = np.floor(np.log10(positive)).astype(np.int64)

    def mantissa(exponent):
        scale = 6 - exponent
        half = scale // 2
        return positive * _POW10[half + _POW10_REACH] * _POW10[scale - half + _POW10_REACH]

    scaled = mantissa(exponent)
    shift = (scaled >= 1e7).astype(np.int64) - (scaled < 1e6)
    if shift.any():
        exponent += shift
        scaled = mantissa(exponent)
    digits = np.rint(scaled)
    tie = np.abs(scaled - digits) > 0.5 - _TIE_MARGIN
    carry = digits == 1e7
    exponent += carry
    digits[carry] = 1e6
    zero = values == 0
    digits[zero] = 0
    exponent[zero] = 0
    return digits.astype(np.int64), exponent, tie


def _csv_rows(block: np.ndarray) -> str:
    """The rows of a 2-D block of finite values >= 0 as ``'%.6e'`` CSV lines,
    joined by newlines without the last one, with the bytes of Python's format.

    Each cell is written as 16 bytes from the digit tables: ``d.dd`` and
    four more digits, two 4-byte words, then the exponent's 8-byte word
    with the separator shifted in behind it, padded with NUL.  The NULs
    are then dropped.
    """
    heads, groups, exponents, shifts = _digit_tables()
    values = block.ravel()
    digits, exponent, tie = _e6_parts(values)
    head, tail = np.divmod(digits, 10000)
    sep = np.full(block.shape, ord(","), np.uint64)
    sep[:, -1] = ord("\n")
    sep[-1, -1] = 0
    sep = sep.ravel()
    exponent -= _EXP_MIN
    cells = np.empty((block.size, 4), "<u4")
    cells[:, 0] = heads[head]
    cells[:, 1] = groups[tail]
    cells.view("<u8")[:, 1] = exponents[exponent] | sep << shifts[exponent]
    for i in np.flatnonzero(tie):
        text = ("%.6e" % values[i]).encode() + bytes([sep[i]])
        cells[i] = np.frombuffer(text.ljust(16, b"\0"), "<u4")
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _scan_lines(scan: ScanResult) -> list[str]:
    coin_peak = scan.coincidence.max() or 1.0
    sing_peak = scan.singles_d2.max() or 1.0
    return ["y2_mm,coincidence_norm,singles_d2_norm"] + [
        f"{y * 1e3:.6f},{c / coin_peak:.9e},{s / sing_peak:.9e}"
        for y, c, s in zip(scan.positions_m, scan.coincidence, scan.singles_d2)]


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


def _measure(config: RunConfig, which: str) -> int:
    grid = to_grid(config)
    scan_window = to_scan(config)
    # Both measurements differ only in slit B, so one call shares the source and the signal arm.
    slits_b = ["slit"] if which == "m1" else ["slit", "open"]
    scans = run_coincidence_scan([to_bench(config, slit_b=s) for s in slits_b], scan_window, grid)
    scan_m1 = scans[0]
    fit_args = dict(wavelength_m=config.idler_wavelength_m,
                    slit_to_detector_m=config.screen_to_d2_m)

    if which == "m1":
        stats_m1 = compute_pattern_stats(scan_m1, **fit_args)
        _write_csv(config, "measure-m1", "measure_m1.csv", _scan_lines(scan_m1))
        _print_stats(stats_m1, reference_fwhm_m=stats_m1.fwhm_m)
        return 0

    # measure-m2 prints only M1's FWHM, so M1 is not fitted.
    stats_m1 = compute_pattern_stats(scan_m1)
    scan_m2 = scans[1]
    _write_csv(config, "measure-m2", "measure_m2.csv", _scan_lines(scan_m2))
    try:
        stats_m2 = compute_pattern_stats(scan_m2, reference=stats_m1, **fit_args)
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
    rows = [f"{z * 1e3:.6f},{w * 1e3:.6f}" for z, w in zip(stats.planes_m, stats.fwhm_by_plane_m)]
    _write_csv(config, "ghost", "ghost_sweep.csv", ["plane_mm,conditional_fwhm_mm"] + rows)
    print(f"best_plane_mm = {stats.best_plane_m * 1e3:.6f}")
    print(f"fwhm_mm = {stats.fwhm_m * 1e3:.6f}")
    print(f"magnification = {stats.magnification:.6f}")
    if stats.focus_at_edge:
        print("note = focus at sweep edge")
    return 0


def _klyshko_check(config: RunConfig) -> int:
    bench = to_bench(config)
    grid = to_grid(config)
    positions = in_slit_positions(bench, grid, config.klyshko_positions)
    if positions.size < 2:
        slit = bench.signal_arm.slits()[-1]
        raise SamplingError(f"only {positions.size} grid cell lies wholly inside slit A, and the check needs 2: "
                            f"it is {slit.width_m * 1e3:g} mm wide, {slit.width_m / grid.spacing_m:.3g} times "
                            f"the {grid.spacing_m * 1e3:.4g} mm grid pitch")
    deviations = klyshko_deviation(bench, positions, grid,
                                   backward_offset_m=config.klyshko_backward_offset_m)
    worst = 0.0
    for pos, dev in zip(positions, deviations):
        worst = max(worst, dev)
        print(f"d1_mm = {pos * 1e3:+.6f}  deviation = {dev:.3e}")
    if positions.size < config.klyshko_positions:
        print(f"note = {positions.size} of {config.klyshko_positions} positions checked "
              f"(slit A holds {positions.size} whole grid cells)")
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
    # Psi = A0 * diag(carrier_s) @ E @ diag(carrier_i) with E real and the
    # carriers unimodular, so |Psi| = |A0| |E| has Psi's singular values.
    magnitude = eval_wavepacket_magnitude(spec)
    k = factorability_check(magnitude)
    t = spec.time_grid()
    blocks = np.split(magnitude, range(_BLOCK_ROWS, len(magnitude), _BLOCK_ROWS))
    _write_csv(config, "temporal", "temporal_psi.csv", itertools.chain(
        [f"# t_grid_s = {t[0]!r} .. {t[-1]!r} in {t.size} samples; rows are t1, columns t2"],
        map(_csv_rows, blocks)))
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
            ("klyshko-check", "compare measure's conditional patterns with the advanced wave"),
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
    except GhostBenchError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
