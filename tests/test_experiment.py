import tracemalloc
from unittest import mock

import numpy as np
import pytest

import ghostbench.elements
from ghostbench import (ArmSpec, BenchSpec, DetectorSpec, FreeSpace, Open, ScanWindow, Slit, SourceSpec,
                        ThinLens, TransverseGrid, build_source, conditional_field, default_bench,
                        in_slit_positions, klyshko_advanced_wave, klyshko_deviation,
                        propagate_bench, run_coincidence_scan)
from ghostbench.analysis import PlaneSweep, ghost_image_stats, profile_first_zero, profile_fwhm
from dataclasses import replace

from ghostbench.elements import (_step, _summed_power, aperture_transmission, apply_arm_along, apply_arm_to_axis,
                                 arm_steps)
from ghostbench.errors import PatternError, SamplingError
import ghostbench.experiment
from ghostbench.elements import _check_skewed_head
from ghostbench.experiment import (_d1_weights, _lag_power, _open_singles, _reduced_state_lags, _rows_from_band,
                                   signal_conditioned_rows)
from ghostbench.source import _live_band, source_band

from conftest import all_lines_head, band_limited, dense_scan

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
        joint = build_source(SourceSpec(), grid)
        bench = BenchSpec(SourceSpec(), ArmSpec(()), ArmSpec(()),
                          DetectorSpec(), DetectorSpec())
        out = propagate_bench(joint, bench)
        assert np.array_equal(out.amplitudes, joint.amplitudes)

    def test_separable_stays_separable(self, grid):
        from ghostbench import schmidt_number
        joint = build_source(SourceSpec(kind="separable"), grid)
        out = propagate_bench(joint, default_bench())
        assert schmidt_number(out) == pytest.approx(1.0, abs=1e-6)

    def test_slit_a_restricts_signal_rows(self, grid):
        joint = build_source(SourceSpec(), grid)
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
        out = propagate_bench(build_source(bench.source, grid), bench)
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
        with pytest.raises(SamplingError):
            run_coincidence_scan(bench, ScanWindow(-1e-3, 1e-3, 5), grid)


class TestRunCoincidenceScan:
    def test_scan_outside_grid_rejected(self, grid):
        with pytest.raises(SamplingError):
            run_coincidence_scan(default_bench(), ScanWindow(-20e-3, 20e-3, 11), grid)

    def test_measurement_one_regression(self, scan_m1):
        # Frozen from this implementation: the slit-B diffraction pattern,
        # apodized by the pump-limited conditional illumination.
        assert profile_fwhm(scan_m1.positions_m, scan_m1.coincidence) == pytest.approx(2.125e-3, rel=0.01)

    def test_measurement_two_regression(self, scan_m2, scan_m1):
        width_m2 = profile_fwhm(scan_m2.positions_m, scan_m2.coincidence)
        assert width_m2 == pytest.approx(1.216e-3, rel=0.01)
        assert width_m2 < profile_fwhm(scan_m1.positions_m, scan_m1.coincidence)

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
        bench = default_bench(d1_mode="point")
        scan = run_coincidence_scan(bench, scan_window, grid)
        zero = profile_first_zero(scan.positions_m, scan.coincidence)
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
        joint = build_source(SourceSpec(kind="separable"), grid)
        out = propagate_bench(joint, default_bench(slit_b="open"))
        a = conditional_field(out, 0.0).intensity
        b = conditional_field(out, 29.3e-6).intensity
        assert np.max(np.abs(a / a.max() - b / b.max())) < 1e-10

    def test_outside_window_rejected(self, grid):
        joint = build_source(SourceSpec(), grid)
        with pytest.raises(ValueError):
            conditional_field(joint, 20e-3)

    def test_zero_row_gives_zero_field(self, grid):
        joint = build_source(SourceSpec(), grid)
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

    def test_band_limited_head_agrees_machine_exact(self):
        # At 1320 points over +-15 mm the 1 m step before slit A cuts 2.9%
        # of a flat spectrum: the signal head makes its checks on a walk
        # over the bright lines, and the advanced wave's backward step still passes.
        grid = TransverseGrid(1320, 15e-3)
        bench = default_bench()
        assert band_limited(bench.signal_arm, grid, bench.source.lambda_signal_m)
        assert np.max(klyshko_deviation(bench, in_slit_positions(bench, grid, 5), grid)) < 1e-12

    def test_identity_arms_pass_trivially(self, grid):
        bench = BenchSpec(SourceSpec(), ArmSpec(()), ArmSpec(()),
                          DetectorSpec("point"), DetectorSpec("point"))
        assert klyshko_deviation(bench, 0.0, grid) < 1e-12

    def test_in_slit_positions(self, grid):
        positions = in_slit_positions(default_bench(), grid, 5)
        assert positions.size == 5
        assert np.all(np.abs(positions) < 0.08e-3)
        assert 0.0 in positions

    def test_backward_aliasing_names_the_oracle_step(self):
        # On 128 points over +-3 mm the 2-D route passes every band-limit
        # check, but the one-cell D1 delta fills the whole spectrum and loses
        # 60% of it on the 1 m backward step.
        bench = default_bench(pump_diameter_m=1e-3, correlation_width_m=100e-6, slit_a_width_m=0.3e-3)
        grid = TransverseGrid(128, 3e-3)
        positions = in_slit_positions(bench, grid, 5)
        with pytest.raises(SamplingError, match=r"^advanced-wave oracle, backward step of the point source "
                                                r"at D1 \([-+]\d\.\d{6} mm\): propagation over -1\.0 m "
                                                r"would alias 60\.2% of the field energy"):
            klyshko_deviation(bench, positions, grid)

    def test_vanished_pattern_is_a_pattern_error(self):
        # The idler arm's two slits, 0.23 to 1.77 mm and +-0.069 mm with no
        # step between them, do not overlap, so every conditional pattern is
        # exactly 0; the CLI maps the error to exit 3.
        grid = TransverseGrid(128, 2e-3)
        source = SourceSpec(pump_diameter_m=1e-3, correlation_width_m=100e-6, lambda_signal_m=650e-9,
                            lambda_idler_m=763.5162261625964e-9)
        bench = BenchSpec(source, ArmSpec((FreeSpace(0.0625), Slit(1.953125e-3))),
                          ArmSpec((Slit(1.5367e-3, 1e-3), Slit(1.3804e-4, 0.0))),
                          DetectorSpec("point"), DetectorSpec("point"))
        with pytest.raises(PatternError, match=r"^conditional pattern vanished; D1 position outside the slit band\?$"):
            klyshko_deviation(bench, in_slit_positions(bench, grid, 3), grid)

    def test_advanced_wave_field_is_at_d2_plane(self, grid):
        # One row per D1 position, each the conditional slice of the
        # joint amplitude propagated through both arms.
        bench = default_bench(slit_b="open")
        positions = in_slit_positions(bench, grid, 3)
        fields = klyshko_advanced_wave(bench, positions, grid)
        assert fields.shape == (positions.size, grid.n_points)
        joint = propagate_bench(build_source(bench.source, grid), bench)
        for position, field in zip(positions, fields):
            dense = conditional_field(joint, position).amplitudes
            assert np.max(np.abs(field - dense)) <= 1e-12 * np.max(np.abs(dense))


# Benches on which the row-sparse scan must reproduce the dense route.
SPARSE_BENCHES = {
    "slit-b-in": {},
    "slit-b-open": {"slit_b": "open"},
    "offset-slits": {"slit_a_center_m": 0.2e-3, "slit_b_center_m": -0.2e-3},
    "point-d1": {"d1_mode": "point", "d1_position_m": 30e-6},
    "bucket-d1-100um": {"d1_aperture_m": 100e-6},
    "nondegenerate": {"signal_wavelength_m": 650e-9, "idler_wavelength_m": 763.5162261625964e-9},
    "separable": {"source_kind": "separable"},
}


class TestRowSparseEqualsDense:
    """The scans follow the idler arm on the rows D1 weighs only, and share
    one source and one signal-arm pass; the dense 2-D route is the oracle."""

    @pytest.mark.parametrize("overrides", SPARSE_BENCHES.values(), ids=SPARSE_BENCHES.keys())
    def test_scan_matches_dense_route(self, grid, scan_window, overrides):
        bench = default_bench(**overrides)
        scan = run_coincidence_scan(bench, scan_window, grid)
        coincidence, singles = dense_scan(bench, scan_window, grid)
        assert coincidence.max() > 0
        assert np.max(np.abs(scan.coincidence - coincidence)) <= 1e-12 * coincidence.max()
        assert np.max(np.abs(scan.singles_d2 - singles)) <= 1e-12 * singles.max()

    # D1's rows against the rows slit A passes: a point D1, a bucket
    # narrower than slit A, and a correlation as wide as the pump behind a
    # 29 mm slit A, where the 180 um bucket weighs 5 of 495 rows.
    ROW_RULE_BENCHES = {
        "point-d1": ({"d1_mode": "point", "d1_position_m": 30e-6}, 1024, 1, 7),
        "bucket-d1-60um": ({"d1_aperture_m": 60e-6, "d1_position_m": 0.04e-3}, 1024, 3, 7),
        "wide-band": ({"correlation_width_m": 3e-3, "slit_a_width_m": 29e-3}, 512, 5, 495),
    }

    @pytest.mark.parametrize("overrides, n_points, d1_rows, slit_rows", ROW_RULE_BENCHES.values(),
                             ids=ROW_RULE_BENCHES.keys())
    def test_scan_takes_the_rows_d1_weighs(self, scan_window, monkeypatch, overrides, n_points, d1_rows,
                                           slit_rows):
        grid = TransverseGrid(n_points, 15e-3)
        bench = default_bench(slit_b="open", **overrides)
        taken, original = [], ghostbench.experiment._rows_from_band

        def spy(band, steps, rows, *args):
            taken.append(rows.size)
            return original(band, steps, rows, *args)
        monkeypatch.setattr(ghostbench.experiment, "_rows_from_band", spy)
        scan = run_coincidence_scan(bench, scan_window, grid)
        assert taken == [np.count_nonzero(_d1_weights(bench, grid))] == [d1_rows]
        steps = arm_steps(bench.signal_arm, grid, bench.source.lambda_signal_m)
        assert np.count_nonzero(steps[-1][1]) == slit_rows
        coincidence, singles = dense_scan(bench, scan_window, grid)
        assert coincidence.max() > 0
        assert np.max(np.abs(scan.coincidence - coincidence)) <= 1e-12 * coincidence.max()
        assert np.max(np.abs(scan.singles_d2 - singles)) <= 1e-12 * singles.max()

    @pytest.mark.parametrize("overrides", [{}, {"source_kind": "separable"}], ids=["entangled", "separable"])
    def test_shared_pass_equals_one_call_per_bench(self, grid, scan_window, overrides):
        benches = [default_bench(slit_b=slit_b, **overrides) for slit_b in ("slit", "open")]
        shared = run_coincidence_scan(benches, scan_window, grid)
        for bench, scan in zip(benches, shared):
            alone = run_coincidence_scan(bench, scan_window, grid)
            assert scan.bench == bench
            assert np.array_equal(scan.coincidence, alone.coincidence)
            assert np.array_equal(scan.singles_d2, alone.singles_d2)

    def test_open_bench_before_others_leaves_their_spectrum(self, grid, scan_window):
        # Each bench's singles read the shared band and lags and leave them as they were.
        benches = [default_bench(slit_b=slit_b) for slit_b in ("open", "slit", "open")]
        shared = run_coincidence_scan(benches, scan_window, grid)
        for bench, scan in zip(benches, shared):
            alone = run_coincidence_scan(bench, scan_window, grid)
            assert np.array_equal(scan.singles_d2, alone.singles_d2)

    def test_benches_differing_beyond_the_idler_arm_rejected(self, grid, scan_window):
        with pytest.raises(ValueError, match="only in the idler arm"):
            run_coincidence_scan([default_bench(), default_bench(d1_mode="point")], scan_window, grid)

    def test_shared_klyshko_deviations_equal_per_position_calls(self, grid):
        bench = default_bench(slit_b="open")
        positions = in_slit_positions(bench, grid, 5)
        for offset in (0.0, 1e-3):
            shared = klyshko_deviation(bench, positions, grid, backward_offset_m=offset)
            alone = [klyshko_deviation(bench, pos, grid, backward_offset_m=offset) for pos in positions]
            assert shared.tolist() == alone

    def test_conditioned_rows_match_dense_signal_arm(self, grid):
        bench = default_bench(slit_b="open", d1_mode="point", d1_position_m=30e-6)
        offsets = (0.0, 0.5e-3)
        shared = signal_conditioned_rows(bench, grid, slit_a_offsets_m=offsets)
        state = build_source(bench.source, grid)
        for offset, (rows, weights, amps) in zip(offsets, shared):
            alone = signal_conditioned_rows(bench, grid, slit_a_offsets_m=(offset,))[0]
            assert all(np.array_equal(a, b) for a, b in zip((rows, weights, amps), alone))
            moved = default_bench(slit_b="open", d1_mode="point", d1_position_m=30e-6 + offset,
                                  slit_a_center_m=offset)
            dense = apply_arm_to_axis(state, moved.signal_arm, "signal").amplitudes
            assert rows.tolist() == [grid.index_of(30e-6 + offset)]
            # The rows are a DFT at the slit's cells, not a slice of a full inverse transform.
            assert np.max(np.abs(amps - dense[rows])) <= 1e-12 * np.max(np.abs(dense[rows]))


def shifted(arm, offset):
    """The arm with every slit moved by ``offset``."""
    return replace(arm, elements=tuple(replace(el, center_m=el.center_m + offset) if isinstance(el, Slit) else el
                                       for el in arm.elements))


# Signal heads that start with a free-space step, with the lens, and none at all.
HEAD_BENCHES = {
    "reference": {},
    "lens-first": {"crystal_to_lens_m": 0.0},
    "lens-at-slit-a": {"lens_to_slit_m": 0.0},
    "lens-only": {"crystal_to_lens_m": 0.0, "lens_to_slit_m": 0.0},
}


class TestHeadOnRows:
    """klyshko-check takes D1's rows as measure takes its own, as K A
    from the source's band, and hands the idler arm the same bytes.  The dense
    oracle pair agrees bit for bit on its own: the source is symmetric, so
    the signal arm run on its rows gives at D1's columns the rows of the
    arm run along the signal axis, the last axis of the transposed
    amplitude (:func:`apply_arm_to_axis`)."""

    # A 3 mm slit A right behind the lens leaves 103 rows lit, of which the 180 um bucket weighs 7.
    BENCHES = [*HEAD_BENCHES.values(), {"lens_to_slit_m": 0.0, "slit_a_width_m": 3e-3}]
    IDS = [*HEAD_BENCHES, "wide-slit-at-lens"]

    @pytest.mark.parametrize("overrides", BENCHES, ids=IDS)
    def test_klyshko_rows_equal_scan_rows(self, grid, scan_window, monkeypatch, overrides):
        import ghostbench.experiment as experiment
        bench = default_bench(**overrides)
        at_d1, original = [], experiment.apply_steps_along
        idler = [distance for distance, _ in arm_steps(bench.idler_arm, grid, bench.source.lambda_idler_m)]

        def spy(amps, steps, *args):
            # The whole idler arm, not the singles' steps behind slit B.
            if [distance for distance, _ in steps] == idler:
                at_d1.append(amps.copy())
            return original(amps, steps, *args)
        monkeypatch.setattr(experiment, "apply_steps_along", spy)
        rows = np.flatnonzero(_d1_weights(bench, grid))
        # An edge cell, which D1 weighs in part, and the middle one.
        d1 = [0, rows.size // 2]
        klyshko_deviation(bench, grid.positions[rows[d1]], grid)
        run_coincidence_scan(bench, scan_window, grid)
        # klyshko's conditional rows, its advanced wave, then the scan's rows.
        assert len(at_d1) == 3 and at_d1[-1].shape == (rows.size, grid.n_points)
        assert at_d1[0].tobytes() == at_d1[-1][d1].tobytes()

    @pytest.mark.parametrize("overrides", BENCHES, ids=IDS)
    def test_lit_rows_equal_transposed_copy_route(self, grid, overrides):
        bench = default_bench(**overrides)
        state = build_source(bench.source, grid)
        rows = np.flatnonzero(_d1_weights(bench, grid))
        on_rows = apply_arm_along(state.amplitudes, bench.signal_arm, grid, state.wavelength_s_m)[:, rows].T
        expected = apply_arm_to_axis(state, bench.signal_arm, "signal").amplitudes[rows]
        assert on_rows.shape == expected.shape and on_rows.tobytes() == expected.tobytes()


def slit_before_lens(bench):
    """The bench with a 2 mm slit between the crystal and the lens."""
    elements = bench.signal_arm.elements
    return replace(bench, signal_arm=replace(bench.signal_arm, elements=(elements[0], Slit(2e-3)) + elements[1:]))


def without_signal_slit(bench):
    arm = bench.signal_arm
    return replace(bench, signal_arm=replace(arm, elements=tuple(el for el in arm.elements
                                                                 if not isinstance(el, Slit))))


def dense_signal_rows(bench, grid, rows):
    """Rows of the joint amplitude after the signal arm, by the dense route
    (:func:`propagate_bench`'s signal half)."""
    return apply_arm_to_axis(build_source(bench.source, grid), bench.signal_arm, "signal").amplitudes[rows]


def near(got, expected, rtol=1e-13):
    """``got`` matches ``expected`` to ``rtol`` of the peak of ``expected``."""
    return got.shape == expected.shape and np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


# Benches whose slit-A rows the band route must take as the dense route does.
BAND_BENCHES = {
    "reference": lambda: default_bench(),
    "separable": lambda: default_bench(source_kind="separable"),
    "nondegenerate": lambda: default_bench(signal_wavelength_m=650e-9, idler_wavelength_m=763.5162261625964e-9),
    "point-d1": lambda: default_bench(d1_mode="point", d1_position_m=30e-6),
    "slit-a-offset": lambda: default_bench(slit_a_center_m=0.3e-3),
    "no-signal-slit": lambda: without_signal_slit(default_bench()),
}


class TestRowsFromBand:
    """measure and ghost take the signal rows behind slit A as K A: the
    unit rows sent back through the arm's transpose, times the source read
    through its nonzero diagonals.  The dense signal arm on the whole
    source is the oracle; the two sum in different orders, so they agree
    to rounding, not bit for bit."""

    @pytest.mark.parametrize("make", BAND_BENCHES.values(), ids=BAND_BENCHES.keys())
    def test_rows_match_dense_signal_arm(self, grid, make):
        bench = make()
        arm, wavelength = bench.signal_arm, bench.source.lambda_signal_m
        steps = arm_steps(arm, grid, wavelength)
        # Every row: D1's, which the scan takes, and the rest, dark behind slit A where there is one.
        rows = np.arange(grid.n_points)
        got = _rows_from_band(source_band(bench.source, grid), steps, rows, grid, wavelength)
        assert near(got, dense_signal_rows(bench, grid, rows))

    @pytest.mark.parametrize("make", [BAND_BENCHES[k] for k in ("reference", "separable", "point-d1")],
                             ids=["reference", "separable", "point-d1"])
    def test_conditioned_rows_match_dense_signal_arm(self, grid, make):
        bench = replace(make(), idler_arm=default_bench(slit_b="open").idler_arm)
        offsets = (0.0, 0.3e-3)
        for offset, (rows, _, amps) in zip(offsets, signal_conditioned_rows(bench, grid, offsets)):
            moved = replace(bench, signal_arm=shifted(bench.signal_arm, offset))
            assert near(amps, dense_signal_rows(moved, grid, rows))

    @pytest.mark.parametrize("name", [*HEAD_BENCHES, "slit-before-lens"])
    def test_conditioned_rows_match_head_route(self, grid, name):
        # Heads that start with a free-space step, with the lens, none at
        # all, and a slit before the lens, which each offset moves.
        bench = default_bench(slit_b="open", **HEAD_BENCHES.get(name, {}))
        if name == "slit-before-lens":
            bench = slit_before_lens(bench)
        offsets = (0.0, 0.5e-3, -0.3e-3)
        for offset, (rows, _, amps) in zip(offsets, signal_conditioned_rows(bench, grid, offsets)):
            moved = replace(bench, signal_arm=shifted(bench.signal_arm, offset))
            assert near(amps, dense_signal_rows(moved, grid, rows))

    @pytest.mark.parametrize("name", ["reference", "slit-before-lens"])
    def test_check_path_rows_match_dense(self, name):
        # At 2048 points over +-15 mm the 1 m step before slit A cuts its
        # band (2.14e4 of 3.41e4 cycles/m) and passes its check, so the
        # signal head walks the bright lines for the check and the rows
        # still come from K A.
        grid = TransverseGrid(2048, 15e-3)
        bench = default_bench(slit_b="open")
        if name == "slit-before-lens":
            bench = slit_before_lens(bench)
        assert band_limited(bench.signal_arm, grid, bench.source.lambda_signal_m)
        offsets = (0.0, 0.5e-3)
        for offset, (rows, _, amps) in zip(offsets, signal_conditioned_rows(bench, grid, offsets)):
            moved = replace(bench, signal_arm=shifted(bench.signal_arm, offset))
            assert near(amps, dense_signal_rows(moved, grid, rows))

    def test_scan_on_band_limited_grid_matches_dense_route(self, scan_window):
        grid = TransverseGrid(2048, 15e-3)
        bench = default_bench(slit_b="open")
        scan = run_coincidence_scan(bench, scan_window, grid)
        coincidence, singles = dense_scan(bench, scan_window, grid)
        assert np.max(np.abs(scan.coincidence - coincidence)) <= 1e-12 * coincidence.max()
        assert np.max(np.abs(scan.singles_d2 - singles)) <= 1e-12 * singles.max()


# Benches whose D2 singles the band route must give as the dense route does.
SINGLES_BENCHES = {
    "reference": {},
    "nondegenerate": {"signal_wavelength_m": 650e-9, "idler_wavelength_m": 763.5162261625964e-9},
    "separable": {"source_kind": "separable"},
    "slit-b-offset": {"slit_b_center_m": -0.2e-3},
    "bucket-d2": {"d2_mode": "bucket", "d2_aperture_m": 0.3e-3},
}


class TestSinglesFromBand:
    """measure takes the D2 singles from the source's band: with slit B
    open, as diag(U rho U^H) from the lags of the idler's reduced state;
    with slit B in, from slit B's rows taken off the band and their R x R
    Gram factor.  The dense idler arm on the whole source is the oracle
    (:func:`dense_scan`)."""

    WINDOW = ScanWindow(-4e-3, 4e-3, 81)

    @pytest.mark.parametrize("overrides", SINGLES_BENCHES.values(), ids=SINGLES_BENCHES.keys())
    def test_singles_match_dense_route(self, grid, overrides):
        benches = [default_bench(**overrides), default_bench(slit_b="open", **overrides)]
        for bench, scan in zip(benches, run_coincidence_scan(benches, self.WINDOW, grid)):
            assert near(scan.singles_d2, dense_scan(bench, self.WINDOW, grid)[1], 1e-12)

    def test_singles_where_the_idler_step_band_limits(self):
        # At 512 points over +-8 mm the 745 mm idler step keeps 1.53e4 of
        # 1.60e4 cycles/m and cuts 4.4% of the source's power, just inside
        # the tolerance; its check reads the band's lag power.
        grid = TransverseGrid(512, 8e-3)
        benches = [default_bench(), default_bench(slit_b="open")]
        wavelength = benches[0].source.lambda_idler_m
        assert not _step(grid, wavelength, 0.745)[1].all()
        for bench, scan in zip(benches, run_coincidence_scan(benches, self.WINDOW, grid)):
            assert near(scan.singles_d2, dense_scan(bench, self.WINDOW, grid)[1], 1e-12)

    @pytest.mark.parametrize("correlation_width_m", [50e-6, 600e-6])
    def test_singles_on_narrow_and_wide_bands(self, correlation_width_m):
        # At 256 points over +-7.5 mm the live band of a 50 um correlation
        # holds 31 diagonals, and that of a 600 um one 381 of the grid's 511.
        grid = TransverseGrid(256, 7.5e-3)
        benches = [default_bench(correlation_width_m=correlation_width_m),
                   default_bench(slit_b="open", correlation_width_m=correlation_width_m)]
        for bench, scan in zip(benches, run_coincidence_scan(benches, self.WINDOW, grid)):
            assert near(scan.singles_d2, dense_scan(bench, self.WINDOW, grid)[1], 1e-12)

    def test_open_singles_are_nonnegative_in_the_dark_tails(self):
        # On the separable control at 128 points over +-2 mm, both arms
        # empty, the open singles' circular convolution leaves rounding
        # noise of either sign in the tails (down to -3.0e-8 on a 2.6e8
        # peak unclamped), which a scan would refuse as a negative rate.
        grid = TransverseGrid(128, 2e-3)
        source = SourceSpec(pump_diameter_m=1e-3, correlation_width_m=100e-6, lambda_pump_m=351.1e-9,
                            lambda_signal_m=650e-9, lambda_idler_m=763.5162261625964e-9, kind="separable")
        lags = _reduced_state_lags(_live_band(source_band(source, grid)))
        assert _open_singles(lags, np.ones(grid.n_points)).min() >= 0.0
        bench = BenchSpec(source, ArmSpec(()), ArmSpec(()), DetectorSpec("point"), DetectorSpec("point"))
        window = ScanWindow(-1.5e-3, 1.5e-3, 31)
        assert near(run_coincidence_scan(bench, window, grid).singles_d2, dense_scan(bench, window, grid)[1], 1e-12)

    @pytest.mark.parametrize("overrides", SINGLES_BENCHES.values(), ids=SINGLES_BENCHES.keys())
    def test_lag_power_is_the_summed_power_of_the_idler_spectrum(self, grid, overrides):
        bench = default_bench(**overrides)
        power = _lag_power(_reduced_state_lags(source_band(bench.source, grid)))
        assert near(power, _summed_power(np.fft.fft(build_source(bench.source, grid).amplitudes)), 1e-13)

    def test_reduced_state_lags_are_the_diagonals_of_rho(self, grid):
        bench = default_bench(source_kind="separable")
        band = source_band(bench.source, grid)
        amps = build_source(bench.source, grid).amplitudes.real
        rho = amps.T @ amps
        lags = _reduced_state_lags(band)
        for e in range(lags.shape[0]):
            assert near(lags[e, :grid.n_points - e], np.diagonal(rho, e), 1e-14)
            assert not lags[e, grid.n_points - e:].any()


# Benches for the live band: (bench, grid, exact and live band widths).
LIVE_BENCHES = {
    "reference": (lambda: default_bench(), TransverseGrid(1024, 15e-3), 25, 17),
    "2048-points": (lambda: default_bench(), TransverseGrid(2048, 15e-3), 49, 33),
    "pump-1mm": (lambda: default_bench(pump_diameter_m=1e-3), TransverseGrid(1024, 15e-3), 25, 17),
    "separable": (lambda: default_bench(source_kind="separable"), TransverseGrid(1024, 15e-3), 35, 23),
    "nondegenerate": (lambda: default_bench(signal_wavelength_m=650e-9, idler_wavelength_m=763.5162261625964e-9),
                      TransverseGrid(1024, 15e-3), 25, 17),
    "point-d1": (lambda: default_bench(d1_mode="point", d1_position_m=30e-6), TransverseGrid(1024, 15e-3), 25, 17),
    "correlation-30um": (lambda: default_bench(correlation_width_m=30e-6), TransverseGrid(1024, 15e-3), 55, 39),
    # As wide as the pump, the source stays above e^-225 of its peak: nothing is trimmed.
    "correlation-as-wide-as-pump": (lambda: default_bench(pump_diameter_m=1e-3, correlation_width_m=1e-3),
                                    TransverseGrid(256, 7.5e-3), 511, 511),
}


def same_rows(live, exact):
    """Rows from the live band against rows from the exact band: the same
    bits wherever the exact rows reach 1e-120 of their peak, and within
    1e-140 of it elsewhere.  Below that they may differ: where a whole
    column of the band lies below the floor (the far tails of a 1 mm pump,
    or of the separable control) the live rows read 0."""
    peak = np.abs(exact).max()
    bright = np.abs(exact) >= 1e-120 * peak
    return (live[bright].tobytes() == exact[bright].tobytes()
            and np.all(np.abs(live - exact) <= 1e-140 * peak))


class TestLiveBand:
    """Every band pass reads the live band (:func:`_live_band`): the
    source's band with the entries below 1e-150 of its peak set to 0 and
    the outer all-zero diagonals dropped.  What measure and ghost print
    comes out the same, bit for bit, as from the exact band."""

    WINDOW = ScanWindow(-2e-3, 2e-3, 81)

    @pytest.mark.parametrize("make, grid, exact_width, live_width", LIVE_BENCHES.values(), ids=LIVE_BENCHES.keys())
    def test_width_and_no_subnormal(self, make, grid, exact_width, live_width):
        exact = source_band(make().source, grid)
        live = _live_band(exact.copy())
        assert (exact.shape[0], live.shape[0]) == (exact_width, live_width)
        assert np.any(live[0]) and np.any(live[-1])
        assert not np.any((live != 0.0) & (np.abs(live) < np.finfo(float).tiny))
        # A central slice of the exact band, with the entries below the floor set to 0.
        trim = (exact_width - live_width) // 2
        kept = exact[trim:exact_width - trim]
        floor = 1e-150 * exact.max()
        assert live.tobytes() == np.where(kept >= floor, kept, 0.0).tobytes()
        assert not np.any(exact[:trim] >= floor) and not np.any(exact[exact_width - trim:] >= floor)

    @pytest.mark.parametrize("make, grid", [v[:2] for v in LIVE_BENCHES.values()], ids=LIVE_BENCHES.keys())
    def test_rows_from_the_live_band(self, make, grid):
        bench = make()
        arm, wavelength = bench.signal_arm, bench.source.lambda_signal_m
        exact = source_band(bench.source, grid)
        steps = arm_steps(arm, grid, wavelength)
        for rows in (np.flatnonzero(_d1_weights(bench, grid)), np.arange(grid.n_points // 2 - 20, grid.n_points // 2 + 20)):
            assert same_rows(_rows_from_band(_live_band(exact.copy()), steps, rows, grid, wavelength),
                             _rows_from_band(exact, steps, rows, grid, wavelength))

    @pytest.mark.parametrize("make, grid", [v[:2] for v in LIVE_BENCHES.values()], ids=LIVE_BENCHES.keys())
    def test_scan_and_conditioned_rows_as_from_the_exact_band(self, make, grid, monkeypatch):
        bench = make()
        benches = [bench, replace(bench, idler_arm=default_bench(slit_b="open").idler_arm)]
        offsets = (0.0, 0.3e-3)
        live = run_coincidence_scan(benches, self.WINDOW, grid), signal_conditioned_rows(benches[1], grid, offsets)
        monkeypatch.setattr(ghostbench.experiment, "_live_band", lambda band: band)
        exact = run_coincidence_scan(benches, self.WINDOW, grid), signal_conditioned_rows(benches[1], grid, offsets)
        for got, want in zip(live[0], exact[0]):
            assert got.coincidence.tobytes() == want.coincidence.tobytes()
            assert got.singles_d2.tobytes() == want.singles_d2.tobytes()
        for (rows, weights, amps), (want_rows, want_weights, want_amps) in zip(live[1], exact[1]):
            assert rows.tobytes() == want_rows.tobytes() and weights.tobytes() == want_weights.tobytes()
            assert same_rows(amps, want_amps)

    @pytest.mark.parametrize("make, grid", [v[:2] for v in LIVE_BENCHES.values()], ids=LIVE_BENCHES.keys())
    def test_open_singles_from_the_live_lags(self, make, grid):
        bench = make()
        exact = source_band(bench.source, grid)
        transfer = _step(grid, bench.source.lambda_idler_m, 0.5)[0]
        lags, live_lags = _reduced_state_lags(exact), _reduced_state_lags(_live_band(exact.copy()))
        assert _open_singles(live_lags, transfer).tobytes() == _open_singles(lags, transfer).tobytes()
        assert _lag_power(live_lags).tobytes() == _lag_power(lags).tobytes()


# Propagating the source 1.0 m at a 29.3 um pitch over +-3.75 mm loses far
# more than 5% of its energy to the band limit, on either axis.
SMALL_GRID = TransverseGrid(256, 3.75e-3)
SMALL_WINDOW = ScanWindow(-1e-3, 1e-3, 11)


def _aliasing_bench(signal_elements, idler_elements):
    return BenchSpec(SourceSpec(), ArmSpec(signal_elements), ArmSpec(idler_elements),
                     DetectorSpec("point"), DetectorSpec("point"))


class TestBandLimitChecksKept:
    """Every check the dense route makes still sees the field it saw there,
    but the coincidence idler arm's, which reads the rows D1 weighs: all
    that slit A passes for a bucket at least as wide as the slit."""

    def dense_message(self, bench):
        with pytest.raises(SamplingError) as dense:
            propagate_bench(build_source(bench.source, SMALL_GRID), bench)
        return str(dense.value)

    def test_signal_arm_aliasing_raises_as_dense(self):
        bench = _aliasing_bench((FreeSpace(1.0), Slit(0.16e-3)), (FreeSpace(0.745), FreeSpace(0.5)))
        message = self.dense_message(bench)
        assert "propagation over 1.0 m" in message
        with pytest.raises(SamplingError) as scan:
            run_coincidence_scan(bench, SMALL_WINDOW, SMALL_GRID)
        with pytest.raises(SamplingError) as ghost:
            ghost_image_stats(bench, PlaneSweep(0.6, 0.9, 3), SMALL_GRID, magnification_offset_m=0.5e-3)
        with pytest.raises(SamplingError) as klyshko:
            klyshko_deviation(bench, 0.0, SMALL_GRID)
        assert str(scan.value) == str(ghost.value) == str(klyshko.value) == message

    def test_idler_arm_aliasing_raises_as_dense(self):
        # The 0.2 m signal step stays inside its band limit but reshapes
        # the rows: the idler step loses 32.0% on slit A's rows, 30.8% on
        # the point D1's row alone and 67.7% on the bare source of the
        # singles.  So the coincidence idler arm must run, and fail, first,
        # on the rows D1 weighs: every row slit A passes for a bucket as
        # wide as the slit, as on the dense route, and the point D1's row
        # alone, as klyshko-check runs it, failing at the same step.
        point = _aliasing_bench((FreeSpace(0.2), Slit(0.6e-3)), (FreeSpace(1.0),))
        bucket = replace(point, d1=DetectorSpec("bucket", 0.6e-3))
        message = self.dense_message(point)
        assert "32.0%" in message
        with pytest.raises(SamplingError) as singles:
            apply_arm_to_axis(build_source(point.source, SMALL_GRID), point.idler_arm, "idler")
        assert str(singles.value) != message
        with pytest.raises(SamplingError) as scan:
            run_coincidence_scan(bucket, SMALL_WINDOW, SMALL_GRID)
        assert str(scan.value) == message
        with pytest.raises(SamplingError) as scan:
            run_coincidence_scan(point, SMALL_WINDOW, SMALL_GRID)
        with pytest.raises(SamplingError) as klyshko:
            klyshko_deviation(point, 0.0, SMALL_GRID)
        assert str(scan.value) == str(klyshko.value) == message.replace("32.0%", "30.8%")

    def test_last_signal_step_before_slit_a_aliasing_raises_as_dense(self):
        # The 1.0 m step behind the lens is inverted only at slit A's cells;
        # its check still reads the whole spectrum.
        bench = _aliasing_bench((FreeSpace(0.05), ThinLens(0.5), FreeSpace(1.0), Slit(0.16e-3)),
                                (FreeSpace(0.745), FreeSpace(0.5)))
        message = self.dense_message(bench)
        assert "propagation over 1.0 m" in message
        with pytest.raises(SamplingError) as scan:
            run_coincidence_scan(bench, SMALL_WINDOW, SMALL_GRID)
        with pytest.raises(SamplingError) as ghost:
            ghost_image_stats(bench, PlaneSweep(0.6, 0.9, 3), SMALL_GRID, magnification_offset_m=0.5e-3)
        with pytest.raises(SamplingError) as klyshko:
            klyshko_deviation(bench, 0.0, SMALL_GRID)
        assert str(scan.value) == str(ghost.value) == str(klyshko.value) == message

    def test_step_behind_slit_b_aliasing_raises_as_dense_singles(self):
        # Slit A at +1 mm passes signal rows whose idler amplitude is exactly
        # zero at slit B (-1 mm, 13 um correlation), so the coincidences pass;
        # the singles' 1.0 m step behind the 60 um slit B aliases, checked on
        # the rows of slit B's R x R factor.
        bench = _aliasing_bench((Slit(0.16e-3, 1e-3),), (Slit(60e-6, -1e-3), FreeSpace(1.0)))
        state = build_source(bench.source, SMALL_GRID)
        propagate_bench(state, bench)
        with pytest.raises(SamplingError) as dense:
            apply_arm_to_axis(state, bench.idler_arm, "idler")
        assert "propagation over 1.0 m" in str(dense.value)
        with pytest.raises(SamplingError) as scan:
            run_coincidence_scan(bench, SMALL_WINDOW, SMALL_GRID)
        assert str(scan.value) == str(dense.value)

    def test_fused_free_space_run_checks_each_step_inside_the_bands_before_it(self):
        # Singles through (0.8 m, Open, 1.2 m): the first step cuts 2.3% of
        # the source power, the second 11.7% of what the first keeps (13.7%
        # of the whole).  A 2f signal arm conditions the coincidences on
        # signal momenta near 0, whose narrow idler spectrum passes both.
        grid = TransverseGrid(128, 2e-3)
        bench = BenchSpec(SourceSpec(pump_diameter_m=1e-3, correlation_width_m=100e-6),
                          ArmSpec((FreeSpace(0.5), ThinLens(0.5), FreeSpace(0.5), Slit(0.1e-3))),
                          ArmSpec((FreeSpace(0.8), Open(), FreeSpace(1.2))),
                          DetectorSpec("point"), DetectorSpec("point"))
        state = build_source(bench.source, grid)
        propagate_bench(state, bench)
        with pytest.raises(SamplingError) as dense:
            apply_arm_to_axis(state, bench.idler_arm, "idler")
        assert "propagation over 1.2 m would alias 11.7%" in str(dense.value)
        with pytest.raises(SamplingError) as scan:
            run_coincidence_scan(bench, ScanWindow(-1e-3, 1e-3, 11), grid)
        assert str(scan.value) == str(dense.value)


class TestLitLineHead:
    """Where a signal step cuts its band, measure and ghost make the
    signal head's checks on a walk over the source's lines, brightest
    first (:func:`_check_skewed_head`): after each block every pending
    check counts the power of the lines not yet walked as a bound, and
    the walk stops once the bound decides them all, or when the lines run
    out; so each check decides as on all N lines."""

    FINE = TransverseGrid(2048, 15e-3)
    # The lines each walk transforms: line c, then blocks of 64 lines
    # c + m, each standing for its mirror c - m.  Past +-17 lines the
    # separable control carries no power, so its walk ends there.
    BENCHES = {"fine-grid": ({}, 129), "separable": ({"source_kind": "separable"}, 18),
               "nondegenerate": ({"signal_wavelength_m": 650e-9, "idler_wavelength_m": 763.5162261625964e-9}, 129)}

    def band_and_head(self, overrides):
        bench = default_bench(**overrides)
        wavelength = bench.source.lambda_signal_m
        assert band_limited(bench.signal_arm, self.FINE, wavelength)
        return source_band(bench.source, self.FINE), (arm_steps(bench.signal_arm, self.FINE, wavelength), self.FINE,
                                                      wavelength)

    @staticmethod
    def outcome(call):
        """None if ``call`` passes, else the text of its SamplingError."""
        try:
            call()
        except SamplingError as exc:
            return str(exc)
        return None

    def full_head(self, band, args):
        """The signal head's checks decided on all N lines."""
        with all_lines_head():
            return self.outcome(lambda: _check_skewed_head(band, *args))

    @pytest.mark.parametrize("overrides, walked", BENCHES.values(), ids=BENCHES.keys())
    def test_lit_lines_pass_as_the_full_head(self, head_walks, overrides, walked):
        band, args = self.band_and_head(overrides)
        assert self.full_head(band, args) is None
        assert self.outcome(lambda: _check_skewed_head(band, *args)) is None
        # All N lines take 1049 transforms: the 999 lines c + m whose mirror
        # c - m keeps its 49 diagonals clear of cell 0, paired, and the 49
        # lines of the 25 outermost steps m each alone, besides line c.
        assert head_walks == [1049 if walked == 129 else walked, walked]

    def test_at_most_129_lines_at_2048_points(self, head_walks):
        # The measure-m2 and ghost head of the fine grid, on the live band
        # they hold: after +-128 lines 1.2% of the source's power is left
        # unseen, and the 1 m step's check passes.
        bench = default_bench()
        wavelength = bench.source.lambda_signal_m
        _check_skewed_head(_live_band(source_band(bench.source, self.FINE)),
                           arm_steps(bench.signal_arm, self.FINE, wavelength), self.FINE, wavelength)
        assert head_walks == [129]

    @pytest.mark.parametrize("where", ["just-above", "just-below", "inside-the-bound", "beyond-the-bound"])
    def test_undecided_check_runs_the_full_head(self, head_walks, monkeypatch, where):
        # The tolerance one step of rounding either side of the full head's
        # loss, or above it by half the bound of the lines left unseen where
        # the walk stops at 5%: the walk goes on, to the end of the lines
        # below the loss, one more block inside the bound.  Above the loss
        # plus the whole bound it stops where it does at 5%.
        band, args = self.band_and_head({})
        full_checks, walk_checks, refuse = [], [], ghostbench.elements._refuse_aliasing

        def record(checks):
            def wrapper(power, keep, grid, wavelength_m, distance_m, unseen=0.0):
                total = float(np.sum(power))
                checks.append((float(np.sum(power[~keep])) / total, unseen / total))
                return refuse(power, keep, grid, wavelength_m, distance_m, unseen)
            return wrapper
        monkeypatch.setattr(ghostbench.elements, "_refuse_aliasing", record(full_checks))
        self.full_head(band, args)
        monkeypatch.setattr(ghostbench.elements, "_refuse_aliasing", record(walk_checks))
        _check_skewed_head(band, *args)
        monkeypatch.setattr(ghostbench.elements, "_refuse_aliasing", refuse)
        (loss, _), = full_checks
        bound = walk_checks[-1][1]
        assert loss == pytest.approx(2.34e-4, abs=0.01e-4) and bound == pytest.approx(1.22e-2, abs=0.01e-2)
        tolerance = {"just-above": np.nextafter(loss, 1.0), "just-below": np.nextafter(loss, 0.0),
                     "inside-the-bound": loss + bound / 2, "beyond-the-bound": loss + 2 * bound}[where]
        monkeypatch.setattr(ghostbench.elements, "BAND_LIMIT_LOSS_TOLERANCE", tolerance)
        full = self.full_head(band, args)
        assert (full is None) == (where != "just-below")
        head_walks.clear()
        assert self.outcome(lambda: _check_skewed_head(band, *args)) == full
        walked, = head_walks
        if where == "just-above":
            assert 193 < walked < 1049
        else:
            assert walked == {"just-below": 1049, "inside-the-bound": 193, "beyond-the-bound": 129}[where]


class TestPeakMemory:
    """Each library call that builds the dense source holds at most 2.5
    N x N complex arrays at once: the source and
    the signal arm's one intermediate, which every lens, slit and forward
    transform overwrites.  A lens product into a new array holds 3.  Ghost
    and measure build no N x N array: where a band-limit check runs the
    signal head, they run it on a walk over the source's lines, 129 of
    2048 at 2048 points over +-15 mm, one block of 64 lines at a time.
    klyshko-check takes D1's rows from the band, and its advanced wave
    reads the source's tables a block of 256 columns at a time: it builds
    no N x N array either."""

    GRID = TransverseGrid(512, 15e-3)
    CALLS = {
        "scan-m1-m2": lambda grid: run_coincidence_scan(
            [default_bench(), default_bench(slit_b="open")], ScanWindow(-4e-3, 4e-3, 161), grid),
        "ghost": lambda grid: ghost_image_stats(default_bench(slit_b="open"), PlaneSweep(0.6, 0.9, 31), grid,
                                                magnification_offset_m=0.5e-3),
        "klyshko": lambda grid: klyshko_deviation(
            default_bench(), in_slit_positions(default_bench(), grid, 5), grid),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_peak_at_most_two_and_a_half_arrays(self, call):
        assert self.peak(call) <= 2.5 * self.GRID.n_points ** 2 * 16

    def test_klyshko_peak_at_most_one_point_one_arrays(self):
        # D1's rows come from the band, and the advanced wave's from one
        # block of the source's columns.
        assert self.peak(self.CALLS["klyshko"]) <= 1.1 * self.GRID.n_points ** 2 * 16

    @pytest.mark.parametrize("n_points, extent_m, bound_mib", [(1024, 15e-3, 4), (4096, 30e-3, 32)])
    def test_klyshko_holds_no_n_by_n_array(self, n_points, extent_m, bound_mib):
        # One N x N complex array is 16 MiB at 1024 points and 256 MiB at
        # 4096; the check holds its band, a few rows and one block of
        # 256 + 2h by 256 complex entries (2.4 and 5.0 MiB measured).
        grid = TransverseGrid(n_points, extent_m)
        assert self.peak(self.CALLS["klyshko"], grid) <= bound_mib * 2 ** 20

    def test_ghost_peak_at_most_one_and_a_half_arrays(self):
        assert self.peak(self.CALLS["ghost"]) <= 1.5 * self.GRID.n_points ** 2 * 16

    def test_ghost_without_a_band_limited_head_makes_no_n_by_n_array(self):
        # No signal step cuts its band on this grid, so ghost builds no
        # source: it reads the source's band and holds a few rows.  A
        # quarter of one complex N x N array is half of a real one.
        bench = default_bench(slit_b="open")
        assert not band_limited(bench.signal_arm, self.GRID, bench.source.lambda_signal_m)
        assert self.peak(self.CALLS["ghost"]) <= 0.25 * self.GRID.n_points ** 2 * 16

    def test_scan_without_a_band_limited_head_makes_no_n_by_n_array(self):
        # No step cuts its band on this grid, so measure's M1 and M2 read
        # the source's band alone: slit A's and slit B's rows and the
        # reduced state's lags, a few lines of N each.  A quarter of one
        # complex N x N array is half of a real one.
        bench = default_bench()
        assert not band_limited(bench.signal_arm, self.GRID, bench.source.lambda_signal_m)
        for arm in (bench.idler_arm, default_bench(slit_b="open").idler_arm):
            assert not band_limited(arm, self.GRID, bench.source.lambda_idler_m)
        assert self.peak(self.CALLS["scan-m1-m2"]) <= 0.25 * self.GRID.n_points ** 2 * 16

    @pytest.mark.parametrize("name", ["scan-m1-m2", "ghost"])
    def test_band_limited_head_holds_under_a_quarter_of_an_array(self, name):
        # The 1 m step before slit A cuts its band at 2048 points, so the
        # signal head runs, on a walk of 129 of the source's lines.
        grid = TransverseGrid(2048, 15e-3)
        bench = default_bench()
        assert band_limited(bench.signal_arm, grid, bench.source.lambda_signal_m)
        assert self.peak(self.CALLS[name], grid) <= 0.25 * grid.n_points ** 2 * 16

    def peak(self, call, grid=GRID):
        call(grid)  # warm-up: cached grid arrays and FFT plans
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call(grid)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        return peak
