import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from scipy.optimize import least_squares

from ghostbench import (FitConvergenceError, FlatPatternError, ImageAtInfinityError, PlaneSweep,
                        ScanResult, WindowTooSmallError, default_bench,
                        ghost_image_stats, run_coincidence_scan, thin_lens_predict)
from ghostbench import analysis
from ghostbench.analysis import compute_pattern_stats, fit_sinc2, profile_first_zero, profile_fwhm
from ghostbench.config import parse_config, to_bench, to_grid, to_scan

WAVELENGTH = 702.2e-9
FIRST_ZERO = WAVELENGTH * 0.5 / 0.16e-3  # 2.1944 mm


def synthetic_scan(values, positions):
    bench = default_bench()
    return ScanResult(positions, values, np.ones_like(values), bench)


class TestFwhm:
    def test_triangle(self):
        y = np.linspace(-2e-3, 2e-3, 201)
        v = np.clip(1 - np.abs(y) / 1e-3, 0, None)
        assert profile_fwhm(y, v) == pytest.approx(1e-3, rel=1e-9)

    def test_sinc2_ratio_to_first_zero(self):
        # sinc^2 FWHM is 0.885895 of its first-zero distance: 1.944 mm here.
        y = np.linspace(-4e-3, 4e-3, 161)
        v = np.sinc(y / FIRST_ZERO) ** 2
        assert profile_fwhm(y, v) == pytest.approx(0.885895 * FIRST_ZERO, rel=0.005)
        assert profile_fwhm(y, v) == pytest.approx(1.944e-3, rel=0.005)

    def test_renormalization_invariant(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        v = np.sinc(y / FIRST_ZERO) ** 2
        assert profile_fwhm(y, 7.3 * v) == profile_fwhm(y, v)

    def test_small_background_tolerated(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        v = np.sinc(y / FIRST_ZERO) ** 2
        w0 = profile_fwhm(y, v)
        w1 = profile_fwhm(y, v + 0.009)
        assert abs(w1 - w0) / w0 < 0.01

    def test_flat_pattern_rejected(self):
        y = np.linspace(-1e-3, 1e-3, 51)
        with pytest.raises(FlatPatternError):
            profile_fwhm(y, np.full(51, 3.0) + 1e-4 * np.cos(y / 1e-3))

    def test_dark_profile_rejected_as_dark(self):
        y = np.linspace(-1e-3, 1e-3, 51)
        with pytest.raises(FlatPatternError, match=r"^no pattern: the profile is dark \(peak 0\)$"):
            profile_fwhm(y, np.zeros(51))

    def test_unbracketed_half_maximum_rejected(self):
        y = np.linspace(-1e-3, 1e-3, 51)
        v = np.exp(-(y / 2e-3) ** 2)  # clear peak, never falls to half max
        with pytest.raises(WindowTooSmallError):
            profile_fwhm(y, v)


class TestFirstZero:
    def test_exact_sinc2(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        v = np.sinc(y / FIRST_ZERO) ** 2
        assert profile_first_zero(y, v) == pytest.approx(FIRST_ZERO, rel=0.005)

    def test_absent_for_gaussian(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        assert profile_first_zero(y, np.exp(-(y / 1e-3) ** 2)) is None

    def test_scan_wrapper(self, scan_m2):
        zero = profile_first_zero(scan_m2.positions_m, scan_m2.coincidence)
        assert zero is None or zero > 0


class TestFitSinc2:
    @pytest.mark.parametrize("width", [0.05e-3, 0.1e-3, 0.2e-3, 0.3e-3, 0.5e-3])
    def test_recovers_synthetic_width(self, width):
        y = np.linspace(-4e-3, 4e-3, 161)
        v = 1.7 * np.sinc(width * (y - 0.1e-3) / (WAVELENGTH * 0.5)) ** 2
        fit = fit_sinc2(synthetic_scan(v, y), WAVELENGTH, 0.5)
        assert fit.width_m == pytest.approx(width, rel=1e-3)
        assert fit.residual < 1e-6

    def test_gaussian_flags_poor_fit(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        v = np.exp(-(y / 1.2e-3) ** 2)
        fit = fit_sinc2(synthetic_scan(v, y), WAVELENGTH, 0.5)
        # The printed residual says that a Gaussian is no sinc^2.
        assert fit.residual > 0.05

    def test_flat_pattern_rejected(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        with pytest.raises(FlatPatternError):
            fit_sinc2(synthetic_scan(np.full(161, 2.0), y), WAVELENGTH, 0.5)

    def test_failed_refine_raises_and_leaves_the_fit_fields_empty(self, monkeypatch):
        refine = analysis.least_squares

        def failing(*args, **kwargs):
            result = refine(*args, **kwargs)
            result.success = False
            return result

        monkeypatch.setattr(analysis, "least_squares", failing)
        y = np.linspace(-4e-3, 4e-3, 161)
        scan = synthetic_scan(np.sinc(y / FIRST_ZERO) ** 2, y)
        with pytest.raises(FitConvergenceError):
            fit_sinc2(scan, WAVELENGTH, 0.5)
        stats = compute_pattern_stats(scan, wavelength_m=WAVELENGTH, slit_to_detector_m=0.5)
        assert stats.sinc_fit_width_m is None and stats.sinc_fit_residual is None
        assert stats.fwhm_m == profile_fwhm(y, np.sinc(y / FIRST_ZERO) ** 2)

    def test_refine_out_of_evaluations_raises(self, monkeypatch):
        # The refine stops at its evaluation budget and reports failure.
        refine, calls = analysis.least_squares, []

        def budget_of_three(fun, *args, **kwargs):
            def counted(p):
                calls.append(p)
                return fun(p)
            return refine(counted, *args, **{**kwargs, "max_nfev": 3})

        monkeypatch.setattr(analysis, "least_squares", budget_of_three)
        with pytest.raises(FitConvergenceError, match="no convergence in 3 evaluations"):
            fit_sinc2(drawn_scan(1.0, 0.3e-3, 0.2e-3, 0.1, 1), WAVELENGTH, 0.5)
        assert len(calls) == 3


def multistart_fit_sinc2(y, v, scale):
    """Oracle: the fit as ten finite-difference starts over a width grid,
    keeping the converged start of least cost.  Returns (peak, y0, w)."""
    vmax = float(v.max())

    def residuals(p):
        peak, y0, w = p
        return peak * np.sinc(w * (y - y0) / scale) ** 2 - v

    best = None
    for w_start in np.geomspace(0.02e-3, 0.8e-3, 10):
        try:
            result = least_squares(residuals, x0=[vmax, float(y[np.argmax(v)]), w_start],
                                   bounds=([0.0, y.min(), 1e-5], [10.0 * vmax, y.max(), 2e-3]),
                                   xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
        except Exception:
            continue
        if result.success and (best is None or result.cost < best.cost):
            best = result
    return best.x


def fit_cost(y, v, scale, params):
    peak, y0, w = params
    return 0.5 * float(np.sum((peak * np.sinc(w * (y - y0) / scale) ** 2 - v) ** 2))


# Both fits evaluate their cost in floating point; where they reach the same
# minimum the two sums may differ in the last bits (seen up to 1.3e-15).
COST_ROUNDING = 1e-13


def scaled_gradient(y, v, scale, params, step=1e-6):
    """Relative change of the cost per relative change of the peak and the
    width, and per central-lobe half-width of the center (central differences)."""
    peak, y0, w = params
    units = np.array([peak, scale / w, w])
    cost = fit_cost(y, v, scale, params)
    gradient = []
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = step * units[i]
        gradient.append((fit_cost(y, v, scale, params + dp) - fit_cost(y, v, scale, params - dp))
                        / (2.0 * step * cost))
    return np.array(gradient)


# The benches of the output audits whose M1 and M2 scans both have a peak.
FIT_BENCHES = {
    "reference": "",
    "n2048": "[grid]\nn_points = 2048\n",
    "pump-1.37mm": "[source]\npump_diameter_mm = 1.37\n",
    "nondegenerate": "[source]\nsignal_wavelength_nm = 632.8\nidler_wavelength_nm = 788.6974795882144\n",
    "point-d1": "[detectors]\nd1_mode = point\nd1_position_mm = 0.03\n",
    "offset-slits": "[signal_arm]\nslit_a_center_mm = 0.2\n[idler_arm]\nslit_b_center_mm = -0.2\n",
}


@pytest.fixture(scope="module", params=list(FIT_BENCHES))
def bench_scans(request):
    config = parse_config(FIT_BENCHES[request.param])
    benches = [to_bench(config, slit_b=s) for s in ("slit", "open")]
    scans = run_coincidence_scan(benches, to_scan(config), to_grid(config))
    return (config.idler_wavelength_m, config.screen_to_d2_m), scans


class TestFitAgainstMultistartOracle:
    """The seeded single refine reaches at least the oracle's minimum, and
    stops where the cost is flat.  The oracle's ten starts stop scattered
    around it, with scaled gradients of 1e-4 to 1e-3 on these scans."""

    @pytest.mark.parametrize("measurement", [0, 1], ids=["m1", "m2"])
    def test_cost_and_gradient(self, bench_scans, measurement):
        (wavelength, distance), scans = bench_scans
        scan = scans[measurement]
        y, v, scale = scan.positions_m, scan.coincidence, wavelength * distance
        fit = fit_sinc2(scan, wavelength, distance)
        params = np.array([fit.peak, fit.center_m, fit.width_m])
        oracle_cost = fit_cost(y, v, scale, multistart_fit_sinc2(y, v, scale))
        assert fit_cost(y, v, scale, params) <= oracle_cost * (1.0 + COST_ROUNDING)
        # The refine stops once a step changes the cost by less than 1e-14 of
        # itself, which leaves the width's scaled gradient near 1e-7.
        assert np.max(np.abs(scaled_gradient(y, v, scale, params))) < 1e-5


FIT_Y = np.linspace(-4e-3, 4e-3, 161)
FIT_SCALE = WAVELENGTH * 0.5


def log_uniform(low, high):
    return st.floats(np.log(low), np.log(high)).map(np.exp)


# Widths inside the fit's bounds [1e-5, 2e-3] m, with extra draws where the
# central lobe (half-width lambda L / w) spans under four scan samples.  The
# refine keeps its iterates strictly inside the bounds, so a width within
# ~1e-8 of a bound comes back only to ~3e-8; the draws stop 1e-6 short.
WIDEST = 2e-3 * (1.0 - 1e-6)
fit_widths = log_uniform(1e-5, WIDEST) | st.floats(1e-3, WIDEST)
fit_centers = st.floats(-3.9e-3, 3.9e-3)
fit_peaks = log_uniform(1e-6, 1e6)


def drawn_scan(peak, center, width, noise=0.0, seed=0):
    values = peak * np.sinc(width * (FIT_Y - center) / FIT_SCALE) ** 2
    if noise:
        values = values * (1.0 + noise * np.random.default_rng(seed).standard_normal(FIT_Y.size))
    return synthetic_scan(values, FIT_Y)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fit_peaks, fit_centers, fit_widths)
def test_fit_recovers_a_noiseless_width(peak, center, width):
    scan = drawn_scan(peak, center, width)
    try:
        fit = fit_sinc2(scan, WAVELENGTH, 0.5)
    except FlatPatternError:
        reject()  # a width under ~1.1e-5 m leaves the scan flatter than FLATNESS_RATIO
    assert fit.width_m == pytest.approx(width, rel=1e-8)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(fit_peaks, fit_centers, fit_widths, st.floats(1e-3, 0.2), st.integers(0, 2 ** 32 - 1))
def test_fit_of_a_noisy_pattern_is_no_worse_than_the_oracle(peak, center, width, noise, seed):
    scan = drawn_scan(peak, center, width, noise, seed)
    try:
        fit = fit_sinc2(scan, WAVELENGTH, 0.5)
    except FlatPatternError:
        reject()
    y, v = scan.positions_m, scan.coincidence
    oracle_cost = fit_cost(y, v, FIT_SCALE, multistart_fit_sinc2(y, v, FIT_SCALE))
    assert fit_cost(y, v, FIT_SCALE, (fit.peak, fit.center_m, fit.width_m)) <= \
        oracle_cost * (1.0 + COST_ROUNDING)


@pytest.mark.parametrize("noise", [0.125, 0.16864400970581564])
def test_fit_with_the_width_pinned_at_its_lower_bound(noise):
    # The central lobe (half-width lambda L / w = 35 mm) is far wider than
    # the +-4 mm scan, and with this noise the least cost lies on the width's
    # lower bound: the refine holds the width there and moves the rest.
    scan = drawn_scan(1.0, 0.0, np.exp(-11.5), noise, 5)
    fit = fit_sinc2(scan, WAVELENGTH, 0.5)
    y, v = scan.positions_m, scan.coincidence
    oracle_cost = fit_cost(y, v, FIT_SCALE, multistart_fit_sinc2(y, v, FIT_SCALE))
    assert fit.width_m == 1e-5
    assert fit_cost(y, v, FIT_SCALE, (fit.peak, fit.center_m, fit.width_m)) <= \
        oracle_cost * (1.0 + COST_ROUNDING)


class TestUncertaintyProduct:
    """The product over h is the FWHM ratio to the reference pattern."""

    def test_reference_calibration_exact(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        ref = compute_pattern_stats(synthetic_scan(np.sinc(y / FIRST_ZERO) ** 2, y))
        again = compute_pattern_stats(synthetic_scan(np.sinc(y / FIRST_ZERO) ** 2, y), reference=ref)
        assert again.uncertainty_product_over_h == 1.0

    def test_linearity(self):
        y = np.linspace(-2e-3, 2e-3, 201)
        ref = compute_pattern_stats(synthetic_scan(np.clip(1 - np.abs(y) / 1e-3, 0, None), y))
        wide = compute_pattern_stats(synthetic_scan(np.clip(1 - np.abs(y) / 1.5e-3, 0, None), y),
                                     reference=ref)
        assert wide.uncertainty_product_over_h == pytest.approx(1.5, rel=1e-9)

    @pytest.mark.parametrize("scale", [0.25, 0.5, 2.0, 3.7])
    def test_width_scaling_monotonicity(self, scale):
        # Stretching a pattern's axis by s scales the product by exactly s.
        y = np.linspace(-8e-3, 8e-3, 641)
        v = np.sinc(y / FIRST_ZERO) ** 2
        stats_base = compute_pattern_stats(synthetic_scan(v, y))
        stats_scaled = compute_pattern_stats(synthetic_scan(v, scale * y), reference=stats_base)
        assert stats_scaled.uncertainty_product_over_h == pytest.approx(scale, rel=1e-9)


class TestComputePatternStats:
    @pytest.mark.parametrize("moved", [0, 1])
    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_peak_tie_reports_the_lowest_position(self, moved, direction):
        # Two samples, at -0.05 mm and +0.05 mm either side of a dip, that
        # tie but for rounding: moving either by one ulp, up or down,
        # leaves the printed position at the lower one.
        y = np.linspace(-0.2e-3, 0.2e-3, 9)
        v = np.exp(-((np.abs(y) - 0.05e-3) / 0.1e-3) ** 2)
        assert v[3] == v[5] == 1.0 and v[4] < 1.0
        v[[3, 5][moved]] = np.nextafter(1.0, direction)
        stats = compute_pattern_stats(synthetic_scan(v, y))
        assert f"{stats.peak_position_m * 1e3:.6f}" == "-0.050000"

    def test_fields_populated_for_m1(self, scan_m1):
        stats = compute_pattern_stats(scan_m1, wavelength_m=WAVELENGTH, slit_to_detector_m=0.5)
        assert stats.fwhm_m > 0
        assert stats.sinc_fit_width_m is not None
        assert stats.uncertainty_product_over_h == 1.0

    def test_reference_ratio(self, scan_m1, scan_m2):
        ref = compute_pattern_stats(scan_m1)
        stats = compute_pattern_stats(scan_m2, reference=ref)
        assert stats.uncertainty_product_over_h == pytest.approx(
            stats.fwhm_m / ref.fwhm_m, rel=1e-12)


class TestThinLens:
    def test_two_f_point(self):
        image = thin_lens_predict(1.0, 0.5)
        assert image.image_distance_m == pytest.approx(1.0)
        assert image.magnification == pytest.approx(-1.0)

    def test_magnified_image(self):
        image = thin_lens_predict(0.75, 0.5)
        assert image.image_distance_m == pytest.approx(1.5)
        assert image.magnification == pytest.approx(-2.0)

    @pytest.mark.parametrize("focal", [0.1, 0.5, 2.0])
    def test_symmetry_point(self, focal):
        assert thin_lens_predict(2 * focal, focal).image_distance_m == pytest.approx(2 * focal)

    def test_object_at_focus_raises(self):
        with pytest.raises(ImageAtInfinityError):
            thin_lens_predict(0.5, 0.5)


@pytest.fixture(scope="module")
def ghost_stats(grid):
    return ghost_image_stats(default_bench(slit_b="open"),
                             PlaneSweep(0.6, 0.9, 31), grid, 0.5e-3)


class TestGhostImageStats:

    def test_best_plane_near_thin_lens_prediction(self, ghost_stats):
        assert abs(ghost_stats.best_plane_m - 0.745) <= 0.010
        assert not ghost_stats.focus_at_edge

    def test_image_width_matches_slit(self, ghost_stats):
        assert ghost_stats.fwhm_m == pytest.approx(0.16e-3, rel=0.10)

    def test_unit_negative_magnification(self, ghost_stats):
        assert ghost_stats.magnification == pytest.approx(-1.0, abs=0.05)

    def test_off_center_slit_mirrors_centroid(self, grid):
        # Ghost image of a slit displaced +0.5 mm sits at -0.5 mm.
        stats = ghost_image_stats(default_bench(slit_b="open", slit_a_center_m=0.5e-3),
                                  PlaneSweep(0.7, 0.8, 11), grid, 0.5e-3)
        assert stats.magnification == pytest.approx(-1.0, abs=0.05)

    def test_requires_open_screen(self, grid):
        with pytest.raises(ValueError):
            ghost_image_stats(default_bench(), PlaneSweep(0.6, 0.9, 7), grid, 0.5e-3)

    def test_separable_source_never_focuses(self, grid):
        # Without entanglement the conditional profile shows no image
        # plane: its width stays far above the slit everywhere.
        bench = default_bench(slit_b="open", source_kind="separable")
        stats = ghost_image_stats(bench, PlaneSweep(0.6, 0.9, 7), grid, 0.5e-3)
        assert stats.focus_at_edge
        assert np.all(stats.fwhm_by_plane_m > 0.8e-3)

    def test_monotone_sweep_flags_the_edge(self, grid):
        stats = ghost_image_stats(default_bench(slit_b="open"), PlaneSweep(0.60, 0.68, 5), grid, 0.5e-3)
        assert stats.focus_at_edge and stats.best_plane_m == 0.68

    @pytest.mark.parametrize("detector", [
        dict(d1_mode="point", d1_position_m=0.03e-3),
        dict(d1_aperture_m=100e-6),
    ], ids=["point-d1", "narrow-bucket-d1"])
    def test_magnification_with_d1_inside_the_slit(self, grid, detector):
        # D1 moves with the displaced slit, so it keeps seeing light and
        # the image centroid stays defined.
        stats = ghost_image_stats(default_bench(slit_b="open", **detector),
                                  PlaneSweep(0.7, 0.8, 11), grid, 0.5e-3)
        assert np.isfinite(stats.magnification)
        assert stats.magnification == pytest.approx(-1.0, abs=0.05)
