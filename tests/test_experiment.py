import numpy as np
import pytest

from ghostbench import (ArmSpec, BenchSpec, DetectorSpec, ScanWindow, SourceSpec,
                        build_biphoton, build_source, conditional_field, default_bench,
                        in_slit_positions, klyshko_advanced_wave, klyshko_deviation,
                        propagate_bench, run_coincidence_scan)
from ghostbench.elements import aperture_transmission

WAVELENGTH = 702.2e-9


class TestBenchDefaults:
    def test_reference_geometry(self):
        bench = default_bench()
        from ghostbench import FreeSpace, Slit, ThinLens
        signal = bench.signal_arm.elements
        assert signal[0] == FreeSpace(0.255)
        assert signal[1] == ThinLens(0.5, 25e-3)
        assert signal[2] == FreeSpace(1.0)
        assert signal[3] == Slit(0.16e-3, 0.0)
        idler = bench.idler_arm.elements
        assert idler[0] == FreeSpace(0.745)
        assert idler[2] == FreeSpace(0.5)
        # Unfolded: b1 + b2 = 255 + 745 = 1000 mm = 2f = slit-A distance.
        assert idler[0].distance_m + signal[0].distance_m == signal[2].distance_m
        assert bench.d1.mode == "bucket"
        assert bench.d2.mode == "point"

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorSpec(mode="area")
        with pytest.raises(ValueError):
            DetectorSpec(aperture_diameter_m=0.0)

    def test_scan_window_validation(self):
        with pytest.raises(ValueError):
            ScanWindow(1e-3, -1e-3, 10)
        with pytest.raises(ValueError):
            ScanWindow(-1e-3, 1e-3, 1)


class TestPropagateBench:
    def test_empty_arms_identity(self, grid):
        joint = build_biphoton(SourceSpec(), grid, grid)
        bench = BenchSpec(SourceSpec(), ArmSpec((), WAVELENGTH), ArmSpec((), WAVELENGTH),
                          DetectorSpec(), DetectorSpec())
        out = propagate_bench(joint, bench)
        assert np.array_equal(out.amplitudes, joint.amplitudes)

    def test_separable_stays_separable(self, grid):
        from ghostbench import schmidt_number
        joint = build_source(SourceSpec(kind="separable"), grid, grid)
        out = propagate_bench(joint, default_bench())
        assert schmidt_number(out) == pytest.approx(1.0, abs=1e-6)

    def test_slit_a_restricts_signal_rows(self, grid):
        joint = build_biphoton(SourceSpec(), grid, grid)
        out = propagate_bench(joint, default_bench(slit_b="open"))
        inside = aperture_transmission(grid, 0.16e-3, 0.0) > 0
        power_out = np.sum(np.abs(out.amplitudes[~inside, :]) ** 2)
        power_in = np.sum(np.abs(out.amplitudes[inside, :]) ** 2)
        assert power_out == 0.0
        assert power_in > 0.0


class TestCoincidenceRate:
    """Fixed-position D1/D2 rates, read from a D2 scan with a point D1."""

    def test_zero_amplitude_gives_zero(self, grid):
        # A point D1 on a row that slit A blocks sees no coincidences.
        bench = default_bench(d1_mode="point", d1_position_m=10e-3)
        scan = run_coincidence_scan(bench, ScanWindow(-1e-3, 1e-3, 5), grid)
        assert np.all(scan.coincidence == 0.0)

    def test_point_point_samples_intensity(self, grid):
        bench = default_bench(d1_mode="point")
        scan = run_coincidence_scan(bench, ScanWindow(-grid.spacing_m, grid.spacing_m, 3), grid)
        out = propagate_bench(build_biphoton(bench.source, grid, grid), bench)
        i0 = grid.index_of(0.0)
        assert scan.coincidence[1] == pytest.approx(
            np.abs(out.amplitudes[i0, i0]) ** 2, rel=1e-12)

    def test_separable_rate_factorizes(self, grid):
        # With slit B open nothing in the idler arm depends on the signal
        # photon, so separable coincidences are proportional to D2 singles.
        bench = default_bench(source_kind="separable", slit_b="open")
        scan = run_coincidence_scan(bench, ScanWindow(-3e-3, 3e-3, 41), grid)
        coin = scan.coincidence / scan.coincidence.max()
        sing = scan.singles_d2 / scan.singles_d2.max()
        assert np.max(np.abs(coin - sing)) < 1e-10

    def test_position_outside_window_rejected(self, grid):
        bench = default_bench(d1_mode="point", d1_position_m=20e-3)
        with pytest.raises(ValueError):
            run_coincidence_scan(bench, ScanWindow(-1e-3, 1e-3, 5), grid)


class TestRunCoincidenceScan:
    def test_scan_outside_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            run_coincidence_scan(default_bench(), ScanWindow(-20e-3, 20e-3, 11), grid)

    def test_measurement_one_regression(self, scan_m1):
        from ghostbench.analysis import fwhm
        # Frozen from this implementation: the slit-B diffraction pattern,
        # apodized by the pump-limited conditional illumination.
        assert fwhm(scan_m1) == pytest.approx(2.125e-3, rel=0.01)

    def test_measurement_two_regression(self, scan_m2, scan_m1):
        from ghostbench.analysis import fwhm
        width_m2 = fwhm(scan_m2)
        assert width_m2 == pytest.approx(1.216e-3, rel=0.01)
        assert width_m2 < fwhm(scan_m1)

    def test_measurement_two_singles_flat(self, scan_m2):
        sel = np.abs(scan_m2.positions_m) <= 2e-3
        singles = scan_m2.singles_d2[sel]
        assert singles.max() / singles.min() < 1.05

    def test_measurement_one_singles_follow_coincidences(self, grid, scan_window):
        # With a real slit B the singles show the same diffraction pattern
        # as the coincidences (the slit itself does the work).
        bench = default_bench(source_kind="separable")
        scan = run_coincidence_scan(bench, scan_window, grid)
        coin = scan.coincidence / scan.coincidence.max()
        sing = scan.singles_d2 / scan.singles_d2.max()
        assert np.max(np.abs(coin - sing)) < 1e-10

    def test_point_d1_pattern_has_deep_zeros(self, grid, scan_window):
        from ghostbench.analysis import first_zero
        bench = default_bench(d1_mode="point")
        scan = run_coincidence_scan(bench, scan_window, grid)
        zero = first_zero(scan)
        assert zero is not None
        # Pump-limited apodization pushes the first zero beyond the bare
        # Fraunhofer value lambda L / w = 2.194 mm; frozen honest value.
        assert zero == pytest.approx(2.51e-3, rel=0.02)

    def test_bucket_equals_integral_of_point_patterns(self, grid):
        window = ScanWindow(-3e-3, 3e-3, 41)
        bench = default_bench()
        bucket_scan = run_coincidence_scan(bench, window, grid)

        weights = aperture_transmission(grid, 0.16e-3, 0.0)
        rows = np.nonzero(weights > 0)[0]
        summed = np.zeros(window.steps)
        for idx in rows:
            point_bench = BenchSpec(bench.source, bench.signal_arm, bench.idler_arm,
                                    DetectorSpec("point", 180e-6, grid.positions[idx]),
                                    bench.d2)
            point_scan = run_coincidence_scan(point_bench, window, grid)
            summed += weights[idx] * grid.spacing_m * point_scan.coincidence
        assert np.max(np.abs(summed - bucket_scan.coincidence)) < 1e-10 * bucket_scan.coincidence.max()


class TestConditionalField:
    def test_separable_slice_independent_of_condition(self, grid):
        joint = build_source(SourceSpec(kind="separable"), grid, grid)
        out = propagate_bench(joint, default_bench(slit_b="open"))
        a = conditional_field(out, 0.0).intensity
        b = conditional_field(out, 29.3e-6).intensity
        assert np.max(np.abs(a / a.max() - b / b.max())) < 1e-10

    def test_outside_window_rejected(self, grid):
        joint = build_biphoton(SourceSpec(), grid, grid)
        with pytest.raises(ValueError):
            conditional_field(joint, 20e-3)

    def test_zero_row_gives_zero_field(self, grid):
        joint = build_biphoton(SourceSpec(), grid, grid)
        out = propagate_bench(joint, default_bench(slit_b="open"))
        # Far outside the slit-A band the rows are exactly zeroed.
        field = conditional_field(out, 10e-3)
        assert np.all(field.amplitudes == 0)


class TestKlyshko:
    def test_advanced_wave_matches_conditional(self, grid):
        bench = default_bench(slit_b="open")
        for position in in_slit_positions(bench, grid, 5):
            assert klyshko_deviation(bench, position, grid) < 1e-6

    def test_agreement_is_machine_exact(self, grid):
        bench = default_bench(slit_b="open")
        assert klyshko_deviation(bench, 0.0, grid) < 1e-12

    def test_slit_b_bench_also_agrees(self, grid):
        bench = default_bench()
        assert klyshko_deviation(bench, 0.0, grid) < 1e-6

    def test_corrupted_backward_arm_detected(self, grid):
        bench = default_bench(slit_b="open")
        dev = klyshko_deviation(bench, 0.0, grid, backward_offset_m=1e-3)
        assert dev > 1e-6

    def test_identity_arms_pass_trivially(self, grid):
        bench = BenchSpec(SourceSpec(), ArmSpec((), WAVELENGTH), ArmSpec((), WAVELENGTH),
                          DetectorSpec("point"), DetectorSpec("point"))
        assert klyshko_deviation(bench, 0.0, grid) < 1e-12

    def test_in_slit_positions(self, grid):
        positions = in_slit_positions(default_bench(), grid, 5)
        assert positions.size == 5
        assert np.all(np.abs(positions) < 0.08e-3)
        assert 0.0 in positions

    def test_advanced_wave_field_is_at_d2_plane(self, grid):
        bench = default_bench(slit_b="open")
        field = klyshko_advanced_wave(bench, 0.0, grid)
        assert field.grid is grid
        assert field.wavelength_m == bench.idler_arm.wavelength_m
