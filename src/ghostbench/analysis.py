"""Quantitative pattern metrics: widths, sinc^2 fits, uncertainty products.

The uncertainty product follows the width-ratio estimator: the position
accuracy is the slit width (dy = w), and the momentum spread of a scanned
pattern is calibrated against the real-slit diffraction reference, for
which dy * dp_y = h holds by construction.  The reported dimensionless
product is therefore simply FWHM_measured / FWHM_reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elements import _refuse_aliasing, _step, _summed_power
from .errors import (FitConvergenceError, FlatPatternError, ImageAtInfinityError, PatternError,
                     WindowTooSmallError)
from .experiment import BenchSpec, ScanResult, _axis_profile, signal_conditioned_rows
from .grid import TransverseGrid

# Patterns whose max/min ratio is below this carry no usable peak.
FLATNESS_RATIO = 1.05
# A pattern sample below this fraction of the peak counts as a zero.
FIRST_ZERO_FRACTION = 1e-3
# Samples this close to the peak value, relative, tie for the peak position.
PEAK_TIE = 1e-12
# Widths on the log grid that seeds the sinc^2 fit.
_SEED_WIDTHS = 128


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
    if vmax <= 0:
        raise FlatPatternError(f"no pattern: the profile is dark (peak {vmax:g})")
    if vmin > 0 and vmax / vmin < FLATNESS_RATIO:
        raise FlatPatternError(f"no pattern: max/min = {vmax / vmin:.4f} is below the flatness threshold "
                               f"{FLATNESS_RATIO}")
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


@dataclass
class LeastSquaresResult:
    """What :func:`least_squares` returns, under the names of scipy's result."""

    x: np.ndarray
    fun: np.ndarray
    success: bool
    nfev: int
    message: str


def least_squares(fun, x0, jac, bounds, x_scale, xtol, ftol, gtol, max_nfev) -> LeastSquaresResult:
    """Minimize 0.5 |fun(x)|^2 over the box ``bounds`` by Levenberg-Marquardt
    (More, LNM 630, 1978) with the Jacobian ``jac``.

    Each step solves for the parameters that are not pinned at a bound (at
    it, with the gradient pushing outward), with the damping mu times the
    running maximum of each column's squared norm, and is clipped to the
    box; mu follows Nielsen's update.  It stops, successfully, once an
    accepted step changes the cost by less than ``ftol`` of itself (gain
    ratio above 0.25), a step in the variables x / ``x_scale`` is below
    ``xtol`` of their norm, or the free gradient there falls below
    ``gtol``; and unsuccessfully after ``max_nfev`` evaluations.
    """
    lower, upper = (np.asarray(b, dtype=float) for b in bounds)
    scale = np.asarray(x_scale, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f = fun(x)
    nfev, cost = 1, 0.5 * float(f @ f)
    jac_s = jac(x) * scale
    damping, mu, nu = np.zeros(x.size), 1e-3, 2.0
    while True:
        g = jac_s.T @ f
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        if np.max(np.abs(g[free]), initial=0.0) < gtol:
            return LeastSquaresResult(x, f, True, nfev, "gtol: the free gradient is below gtol")
        if nfev >= max_nfev:
            return LeastSquaresResult(x, f, False, nfev, f"no convergence in {max_nfev} evaluations")
        damping = np.maximum(damping, np.einsum("ij,ij->j", jac_s, jac_s))
        system = np.vstack([jac_s[:, free], np.diag(np.sqrt(mu * damping[free]))])
        step = np.zeros(x.size)
        step[free] = np.linalg.lstsq(system, -np.concatenate([f, np.zeros(free.sum())]), rcond=None)[0]
        x_new = np.clip(x + step * scale, lower, upper)
        step = (x_new - x) / scale
        f_new = fun(x_new)
        nfev += 1
        cost_new = 0.5 * float(f_new @ f_new)
        predicted = -float(g @ step + 0.5 * np.sum((jac_s @ step) ** 2))
        actual = cost - cost_new
        rho = actual / predicted if predicted > 0 else -np.inf
        ftol_met = actual < ftol * cost and rho > 0.25
        xtol_met = np.linalg.norm(step) < xtol * (xtol + np.linalg.norm(x / scale))
        if actual > 0:
            x, f, cost = x_new, f_new, cost_new
            jac_s = jac(x) * scale
        if ftol_met or xtol_met:
            return LeastSquaresResult(x, f, True, nfev, "ftol: the cost changed by less than ftol"
                                      if ftol_met else "xtol: the scaled step is below xtol")
        if rho > 0:
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu


def fit_sinc2(scan: ScanResult, wavelength_m: float, slit_to_detector_m: float) -> SincFit:
    """Least-squares fit of peak * sinc^2(pi w (y - y0) / (lambda L)) to the
    scan's coincidences.

    Sinc^2 fits have lobe-aliased local minima in w.  The peak enters
    linearly, so its best value for a given (y0, w) is closed form; the
    fit evaluates that projected cost on a log grid of widths spanning
    the bounds, at y0 = the brightest sample, and refines the best grid
    point once in (peak, y0, w) with the analytic Jacobian.  Raises
    :class:`FitConvergenceError` when the refine does not converge.
    """
    y, v = scan.positions_m, scan.coincidence
    vmax = float(v.max())
    vmin = float(v.min())
    if vmax <= 0 or (vmin > 0 and vmax / vmin < FLATNESS_RATIO):
        raise FlatPatternError("pattern is flat; nothing to fit")
    scale = wavelength_m * slit_to_detector_m
    # Fit the pattern over its peak, so every tolerance means the same at any brightness.
    u = v / vmax
    lower, upper = np.array([0.0, y.min(), 1e-5]), np.array([10.0, y.max(), 2e-3])

    y0 = float(y[np.argmax(v)])
    widths = np.geomspace(lower[2], upper[2], _SEED_WIDTHS)
    shapes = np.sinc(np.multiply.outer(widths, (y - y0) / scale)) ** 2
    overlap = shapes @ u
    norms = np.einsum("ij,ij->i", shapes, shapes)
    peaks = np.clip(overlap / norms, lower[0], upper[0])
    # |peak s - u|^2 less the constant |u|^2.
    k = int(np.argmin(peaks * (peaks * norms - 2.0 * overlap)))

    def residuals(p):
        peak, center, w = p
        return peak * np.sinc(w * (y - center) / scale) ** 2 - u

    def jacobian(p):
        peak, center, w = p
        d = (y - center) / scale
        x = w * d
        s = np.sinc(x)
        # d sinc(x)/dx = (cos(pi x) - sinc(x)) / x, which is 0 at x = 0.
        nonzero = x != 0.0
        ds = np.zeros_like(x)
        ds[nonzero] = (np.cos(np.pi * x[nonzero]) - s[nonzero]) / x[nonzero]
        dr_dx = 2.0 * peak * s * ds
        return np.column_stack([s * s, -dr_dx * (w / scale), dr_dx * d])

    # Each parameter's own scale: the peak, the central lobe's half-width, the width.
    result = least_squares(residuals, x0=[peaks[k], y0, widths[k]], jac=jacobian,
                           bounds=(lower, upper), x_scale=[1.0, scale / widths[k], widths[k]],
                           xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
    if not result.success:
        raise FitConvergenceError(f"sinc^2 fit did not converge: {result.message}")
    peak, center, width = result.x
    residual = float(np.linalg.norm(result.fun) / np.linalg.norm(u))
    return SincFit(width_m=float(width), center_m=float(center), peak=float(peak * vmax),
                   residual=residual)


def compute_pattern_stats(scan: ScanResult, *, wavelength_m: Optional[float] = None,
                          slit_to_detector_m: Optional[float] = None,
                          reference: Optional[PatternStats] = None) -> PatternStats:
    """Assemble :class:`PatternStats` for the scan's coincidences.

    The peak position is the lowest position among the samples within
    ``PEAK_TIE`` of the peak value, relative, so two samples that tie but
    for rounding report the same position whichever rounds higher.  The
    sinc^2 fit is attempted only when the geometry is supplied and
    the slit-to-detector distance is positive (the model divides by it);
    fit failure leaves the optional fields empty rather than failing the
    whole analysis (the first-zero fallback remains available).
    """
    y, v = scan.positions_m, scan.coincidence
    width = profile_fwhm(y, v)
    peak_pos = float(np.min(y[v >= v.max() * (1.0 - PEAK_TIE)]))
    zero = profile_first_zero(y, v)
    fit_width = fit_residual = None
    if wavelength_m is not None and slit_to_detector_m is not None and slit_to_detector_m > 0:
        try:
            fit = fit_sinc2(scan, wavelength_m, slit_to_detector_m)
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

    def __post_init__(self):
        if not (self.max_m > self.min_m):
            raise ValueError("plane sweep must have max > min")
        if self.steps < 2:
            raise ValueError("plane sweep needs at least two steps")

    def planes(self) -> np.ndarray:
        return np.linspace(self.min_m, self.max_m, self.steps)


@dataclass(frozen=True)
class GhostImageStats:
    best_plane_m: float
    fwhm_m: float
    magnification: float
    planes_m: np.ndarray
    fwhm_by_plane_m: np.ndarray
    # The narrowest plane is the sweep's first or last, so the focus may lie outside it.
    focus_at_edge: bool


def _image_profiles(weights: np.ndarray, row_amps: np.ndarray, grid: TransverseGrid, wavelength_m: float,
                    planes_m):
    """D1-weighted intensity of the rows at each idler plane, in order.

    One spectrum of the rows, and its summed power for the band-limit
    checks, serve every plane; each plane's step is that spectrum times
    its transfer function, transformed back, as a lone step would be.
    """
    spectrum = np.fft.fft(row_amps)
    power = None
    for z in planes_m:
        if z == 0.0:
            moved = row_amps
        else:
            transfer, keep = _step(grid, wavelength_m, z)
            if not keep.all():
                power = _summed_power(spectrum) if power is None else power
                _refuse_aliasing(power, keep, grid, wavelength_m, z)
            moved = np.fft.ifft(spectrum * transfer)
        yield _axis_profile(moved, weights, grid.spacing_m)


def ghost_image_stats(bench: BenchSpec, sweep: PlaneSweep, grid: TransverseGrid,
                      magnification_offset_m: float) -> GhostImageStats:
    """Locate the conditional image of slit A along the idler arm.

    Sweeps the idler observation plane, measures the FWHM of the
    D1-conditioned intensity profile at each plane, and reports the plane
    of minimum width, flagged ``focus_at_edge`` when it is the sweep's
    first or last.  The magnification is estimated by displacing slit A
    by ``magnification_offset_m`` and reading the image centroid shift at
    the best plane.  :class:`PatternError` is raised when no swept plane
    resolves an image, and when either image has no finite centroid at the
    best plane (the displaced slit passes no light).
    Requires screen B open (any idler slit would mask the swept image).
    """
    if bench.idler_arm.slits():
        raise ValueError("ghost-image sweep requires slit B open")
    if not bench.signal_arm.slits():
        raise ValueError("ghost-image sweep requires a slit in the signal arm")
    wavelength = bench.source.lambda_idler_m
    (_, weights, rows), (_, w_off, rows_off) = signal_conditioned_rows(
        bench, grid, slit_a_offsets_m=(0.0, magnification_offset_m))
    planes = sweep.planes()
    widths = np.empty(planes.size)
    base = None  # the profile at the first narrowest plane, which argmin picks
    for i, profile in enumerate(_image_profiles(weights, rows, grid, wavelength, planes)):
        try:
            widths[i] = profile_fwhm(grid.positions, profile)
        except (FlatPatternError, WindowTooSmallError):
            # Wider than the window: no measurable image at this plane.
            widths[i] = np.inf
        if base is None or widths[i] < widths[:i].min():
            base = profile
    if not np.isfinite(widths).any():
        slit_a = bench.signal_arm.slits()[-1]
        raise PatternError(f"no conditional image resolvable at any swept plane: slit A "
                           f"({slit_a.width_m * 1e3:g} mm wide at {slit_a.center_m * 1e3:g} mm) against the "
                           f"+-{grid.extent_m * 1e3:g} mm grid window")
    i_best = int(np.argmin(widths))
    focus_at_edge = i_best in (0, planes.size - 1)
    best_plane = float(planes[i_best])

    shifted = next(_image_profiles(w_off, rows_off, grid, wavelength, [best_plane]))
    y = grid.positions
    with np.errstate(invalid="ignore", divide="ignore"):
        centroid_shifted = float(np.sum(shifted * y) / np.sum(shifted))
        centroid_base = float(np.sum(base * y) / np.sum(base))
    if not (np.isfinite(centroid_shifted) and np.isfinite(centroid_base)):
        raise PatternError(f"slit A moved by [ghost] slit_offset_mm = {magnification_offset_m * 1e3:g} leaves "
                           f"no image with a finite centroid at the best plane: the moved slit passes no light "
                           f"inside the +-{grid.extent_m * 1e3:g} mm grid window")
    magnification = (centroid_shifted - centroid_base) / magnification_offset_m
    return GhostImageStats(best_plane_m=best_plane, fwhm_m=float(widths[i_best]),
                           magnification=float(magnification),
                           planes_m=planes, fwhm_by_plane_m=widths, focus_at_edge=focus_at_edge)
