"""Quantitative pattern metrics: widths, sinc^2 fits, uncertainty products.

The uncertainty product follows the width-ratio estimator: the position
accuracy is the slit width (dy = w), and the momentum spread of a scanned
pattern is calibrated against the real-slit diffraction reference, for
which dy * dp_y = h holds by construction.  The reported dimensionless
product is therefore simply FWHM_measured / FWHM_reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import least_squares

from .elements import _propagate_array
from .errors import (FitConvergenceError, FlatPatternError, ImageAtInfinityError,
                     WindowTooSmallError)
from .experiment import BenchSpec, ScanResult, signal_conditioned_rows
from .grid import TransverseGrid

# Patterns whose max/min ratio is below this carry no usable peak.
FLATNESS_RATIO = 1.05
# A pattern sample below this fraction of the peak counts as a zero.
FIRST_ZERO_FRACTION = 1e-3
# Normalized fit residual above which a sinc^2 fit is flagged as poor.
POOR_FIT_RESIDUAL = 0.05


@dataclass(frozen=True)
class PatternStats:
    """Derived metrics of one detector scan."""

    peak_position_m: float
    fwhm_m: float
    first_zero_m: Optional[float]
    sinc_fit_width_m: Optional[float]
    sinc_fit_residual: Optional[float]
    uncertainty_product_over_h: float


@dataclass(frozen=True)
class SincFit:
    width_m: float
    center_m: float
    peak: float
    residual: float

    @property
    def poor_fit(self) -> bool:
        return self.residual > POOR_FIT_RESIDUAL


def _channel(scan: ScanResult, channel: str) -> np.ndarray:
    if channel == "coincidence":
        return scan.coincidence
    if channel == "singles":
        return scan.singles_d2
    raise ValueError(f"channel must be 'coincidence' or 'singles', got {channel!r}")


def profile_fwhm(positions_m: np.ndarray, values: np.ndarray) -> float:
    """Full width at half maximum by linear interpolation.

    Raises :class:`FlatPatternError` when the pattern has no usable peak
    and :class:`WindowTooSmallError` when either half-maximum crossing
    falls outside the sampled window.
    """
    y = np.asarray(positions_m, dtype=float)
    v = np.asarray(values, dtype=float)
    vmax = float(v.max())
    vmin = float(v.min())
    if vmax <= 0 or (vmin > 0 and vmax / vmin < FLATNESS_RATIO):
        raise FlatPatternError(f"no pattern: max/min = {vmax / vmin if vmin > 0 else np.inf:.4f} "
                               f"is below the flatness threshold {FLATNESS_RATIO}")
    i = int(np.argmax(v))
    half = vmax / 2.0
    below_left = np.nonzero(v[:i] < half)[0]
    below_right = np.nonzero(v[i:] < half)[0]
    if below_left.size == 0 or below_right.size == 0:
        raise WindowTooSmallError("half maximum is not bracketed inside the scan window")
    l = int(below_left[-1])
    y_left = y[l] + (half - v[l]) * (y[l + 1] - y[l]) / (v[l + 1] - v[l])
    r = i + int(below_right[0])
    y_right = y[r - 1] + (half - v[r - 1]) * (y[r] - y[r - 1]) / (v[r] - v[r - 1])
    return float(y_right - y_left)


def fwhm(scan: ScanResult, channel: str = "coincidence") -> float:
    """FWHM of a scan channel; see :func:`profile_fwhm` for failure modes."""
    return profile_fwhm(scan.positions_m, _channel(scan, channel))


def profile_first_zero(positions_m: np.ndarray, values: np.ndarray) -> Optional[float]:
    """Distance from the peak to the nearest deep minimum, if one exists.

    A qualifying minimum is a local minimum below ``FIRST_ZERO_FRACTION``
    of the peak; its position is refined parabolically.  Returns None when
    the scan contains no such minimum.
    """
    y = np.asarray(positions_m, dtype=float)
    v = np.asarray(values, dtype=float)
    i_peak = int(np.argmax(v))
    threshold = FIRST_ZERO_FRACTION * float(v.max())
    best = None
    for j in range(1, v.size - 1):
        if v[j] < threshold and v[j] <= v[j - 1] and v[j] <= v[j + 1]:
            curvature = v[j - 1] - 2.0 * v[j] + v[j + 1]
            shift = 0.0 if curvature == 0 else 0.5 * (v[j - 1] - v[j + 1]) / curvature
            pos = y[j] + shift * (y[1] - y[0])
            dist = abs(pos - y[i_peak])
            if best is None or dist < best:
                best = float(dist)
    return best


def first_zero(scan: ScanResult, channel: str = "coincidence") -> Optional[float]:
    return profile_first_zero(scan.positions_m, _channel(scan, channel))


def fit_sinc2(scan: ScanResult, wavelength_m: float, slit_to_detector_m: float,
              channel: str = "coincidence") -> SincFit:
    """Least-squares fit of peak * sinc^2(pi w (y - y0) / (lambda L)).

    Sinc^2 fits have lobe-aliased local minima in w, so the fit multi-
    starts over a width grid and keeps the best converged solution.
    """
    y = scan.positions_m
    v = _channel(scan, channel)
    vmax = float(v.max())
    vmin = float(v.min())
    if vmax <= 0 or (vmin > 0 and vmax / vmin < FLATNESS_RATIO):
        raise FlatPatternError("pattern is flat; nothing to fit")
    scale = wavelength_m * slit_to_detector_m
    p0_center = float(y[np.argmax(v)])

    def residuals(p):
        peak, y0, w = p
        return peak * np.sinc(w * (y - y0) / scale) ** 2 - v

    best = None
    for w_start in np.geomspace(0.02e-3, 0.8e-3, 10):
        try:
            result = least_squares(residuals, x0=[vmax, p0_center, w_start],
                                   bounds=([0.0, y.min(), 1e-5], [10.0 * vmax, y.max(), 2e-3]),
                                   xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
        except Exception:
            continue
        if result.success and (best is None or result.cost < best.cost):
            best = result
    if best is None:
        raise FitConvergenceError("sinc^2 fit did not converge from any starting width")
    peak, center, width = best.x
    residual = float(np.linalg.norm(best.fun) / np.linalg.norm(v))
    return SincFit(width_m=float(width), center_m=float(center), peak=float(peak), residual=residual)


def compute_pattern_stats(scan: ScanResult, channel: str = "coincidence",
                          wavelength_m: Optional[float] = None,
                          slit_to_detector_m: Optional[float] = None,
                          reference: Optional[PatternStats] = None) -> PatternStats:
    """Assemble :class:`PatternStats` for one scan channel.

    The sinc^2 fit is attempted only when the geometry is supplied; fit
    failure leaves the optional fields empty rather than failing the
    whole analysis (the first-zero fallback remains available).
    """
    y = scan.positions_m
    v = _channel(scan, channel)
    width = profile_fwhm(y, v)
    peak_pos = float(y[np.argmax(v)])
    zero = profile_first_zero(y, v)
    fit_width = fit_residual = None
    if wavelength_m is not None and slit_to_detector_m is not None:
        try:
            fit = fit_sinc2(scan, wavelength_m, slit_to_detector_m, channel)
            fit_width, fit_residual = fit.width_m, fit.residual
        except FitConvergenceError:
            pass
    product = 1.0 if reference is None else width / reference.fwhm_m
    return PatternStats(peak_position_m=peak_pos, fwhm_m=width, first_zero_m=zero,
                        sinc_fit_width_m=fit_width, sinc_fit_residual=fit_residual,
                        uncertainty_product_over_h=product)


@dataclass(frozen=True)
class ThinLensImage:
    image_distance_m: float
    magnification: float


def thin_lens_predict(a_m: float, f_m: float) -> ThinLensImage:
    """Image distance and magnification from 1/a + 1/b = 1/f."""
    if a_m == f_m:
        raise ImageAtInfinityError(f"object at the focal plane (a = f = {f_m} m) images at infinity")
    b = 1.0 / (1.0 / f_m - 1.0 / a_m)
    return ThinLensImage(image_distance_m=b, magnification=-b / a_m)


@dataclass(frozen=True)
class PlaneSweep:
    min_m: float
    max_m: float
    steps: int

    def planes(self) -> np.ndarray:
        return np.linspace(self.min_m, self.max_m, self.steps)


@dataclass(frozen=True)
class GhostImageStats:
    best_plane_m: float
    fwhm_m: float
    magnification: float
    planes_m: np.ndarray
    fwhm_by_plane_m: np.ndarray


def _image_profile(weights: np.ndarray, row_amps: np.ndarray, grid: TransverseGrid,
                   wavelength_m: float, plane_m: float) -> np.ndarray:
    moved = _propagate_array(row_amps, 1, grid, wavelength_m, plane_m)
    return np.sum(weights[:, None] * np.abs(moved) ** 2, axis=0) * grid.spacing_m


def ghost_image_stats(bench: BenchSpec, sweep: PlaneSweep, grid: TransverseGrid,
                      magnification_offset_m: float) -> GhostImageStats:
    """Locate the conditional image of slit A along the idler arm.

    Sweeps the idler observation plane, measures the FWHM of the
    D1-conditioned intensity profile at each plane, and reports the plane
    of minimum width.  The magnification is estimated by displacing slit A
    by ``magnification_offset_m`` and reading the image centroid shift at
    the best plane.  Requires screen B open (any idler slit would mask the
    swept image).
    """
    if bench.idler_arm.slits():
        raise ValueError("ghost-image sweep requires slit B open")
    if not bench.signal_arm.slits():
        raise ValueError("ghost-image sweep requires a slit in the signal arm")
    wavelength = bench.idler_arm.wavelength_m
    _, weights, rows = signal_conditioned_rows(bench, grid)
    planes = sweep.planes()
    widths = np.empty(planes.size)
    for i, z in enumerate(planes):
        profile = _image_profile(weights, rows, grid, wavelength, z)
        try:
            widths[i] = profile_fwhm(grid.positions, profile)
        except (FlatPatternError, WindowTooSmallError):
            # Wider than the window: no measurable image at this plane.
            widths[i] = np.inf
    if not np.isfinite(widths).any():
        warnings.warn("no conditional image resolvable at any swept plane", stacklevel=2)
        return GhostImageStats(best_plane_m=float("nan"), fwhm_m=float("inf"),
                               magnification=float("nan"),
                               planes_m=planes, fwhm_by_plane_m=widths)
    i_best = int(np.argmin(widths))
    if i_best in (0, planes.size - 1):
        warnings.warn("conditional width is monotone over the sweep; the focus lies outside it",
                      stacklevel=2)
    best_plane = float(planes[i_best])

    slit_a = bench.signal_arm.slits()[-1]
    _, w_off, rows_off = signal_conditioned_rows(
        bench, grid, slit_a_center_m=slit_a.center_m + magnification_offset_m)
    shifted = _image_profile(w_off, rows_off, grid, wavelength, best_plane)
    base = _image_profile(weights, rows, grid, wavelength, best_plane)
    y = grid.positions
    centroid_shifted = float(np.sum(shifted * y) / np.sum(shifted))
    centroid_base = float(np.sum(base * y) / np.sum(base))
    magnification = (centroid_shifted - centroid_base) / magnification_offset_m
    return GhostImageStats(best_plane_m=best_plane, fwhm_m=float(widths[i_best]),
                           magnification=float(magnification),
                           planes_m=planes, fwhm_by_plane_m=widths)
