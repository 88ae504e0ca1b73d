import numpy as np
import pytest

from ghostbench import (FlatPatternError, ImageAtInfinityError, PlaneSweep,
                        ScanResult, WindowTooSmallError, default_bench,
                        ghost_image_stats, thin_lens_predict)
from ghostbench.analysis import (POOR_FIT_RESIDUAL, compute_pattern_stats, fit_sinc2,
                                 fwhm, first_zero, profile_first_zero, profile_fwhm)

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

    def test_unbracketed_half_maximum_rejected(self):
        y = np.linspace(-1e-3, 1e-3, 51)
        v = np.exp(-(y / 2e-3) ** 2)  # clear peak, never falls to half max
        with pytest.raises(WindowTooSmallError):
            profile_fwhm(y, v)

    def test_scan_channel_selection(self, scan_m2):
        assert fwhm(scan_m2, "coincidence") > 0
        with pytest.raises(ValueError):
            fwhm(scan_m2, "darks")


class TestFirstZero:
    def test_exact_sinc2(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        v = np.sinc(y / FIRST_ZERO) ** 2
        assert profile_first_zero(y, v) == pytest.approx(FIRST_ZERO, rel=0.005)

    def test_absent_for_gaussian(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        assert profile_first_zero(y, np.exp(-(y / 1e-3) ** 2)) is None

    def test_scan_wrapper(self, scan_m2):
        assert first_zero(scan_m2) is None or first_zero(scan_m2) > 0


class TestFitSinc2:
    @pytest.mark.parametrize("width", [0.05e-3, 0.1e-3, 0.2e-3, 0.3e-3, 0.5e-3])
    def test_recovers_synthetic_width(self, width):
        y = np.linspace(-4e-3, 4e-3, 161)
        v = 1.7 * np.sinc(width * (y - 0.1e-3) / (WAVELENGTH * 0.5)) ** 2
        fit = fit_sinc2(synthetic_scan(v, y), WAVELENGTH, 0.5)
        assert fit.width_m == pytest.approx(width, rel=1e-3)
        assert fit.residual < 1e-6
        assert not fit.poor_fit

    def test_gaussian_flags_poor_fit(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        v = np.exp(-(y / 1.2e-3) ** 2)
        fit = fit_sinc2(synthetic_scan(v, y), WAVELENGTH, 0.5)
        assert fit.residual > POOR_FIT_RESIDUAL
        assert fit.poor_fit

    def test_flat_pattern_rejected(self):
        y = np.linspace(-4e-3, 4e-3, 161)
        with pytest.raises(FlatPatternError):
            fit_sinc2(synthetic_scan(np.full(161, 2.0), y), WAVELENGTH, 0.5)


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
        with pytest.warns(UserWarning):
            stats = ghost_image_stats(bench, PlaneSweep(0.6, 0.9, 7), grid, 0.5e-3)
        assert np.all(stats.fwhm_by_plane_m > 0.8e-3)

    def test_monotone_sweep_warns(self, grid):
        with pytest.warns(UserWarning):
            ghost_image_stats(default_bench(slit_b="open"),
                              PlaneSweep(0.60, 0.68, 5), grid, 0.5e-3)

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
