"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.  Criteria are asserted at their stated tolerances.
"""

import numpy as np
import pytest

from ghostbench import (ArmSpec, BenchSpec, Field1D, FreeSpace, PlaneSweep, Slit,
                        TemporalSpec, ThinLens, TransverseGrid, conditional_field,
                        default_bench, eval_biphoton_wavepacket, factorability_check,
                        ghost_image_stats, in_slit_positions, klyshko_deviation,
                        propagate_bench, run_coincidence_scan)
from ghostbench.analysis import compute_pattern_stats, profile_fwhm
from ghostbench.experiment import build_bench_state
from conftest import gaussian_field, through

WAVELENGTH = 702.2e-9
SLIT_WIDTH = 0.16e-3
SCREEN_TO_D2 = 0.5
CRYSTAL_TO_SCREEN = 0.745
FRAUNHOFER_ZERO = WAVELENGTH * SCREEN_TO_D2 / SLIT_WIDTH  # 2.1944 mm
# Pump on which slit B is lit evenly enough for the textbook sinc^2.
TEXTBOOK_PUMP_DIAMETER = 1.0e-3


def report(name, results):
    ok = all(passed for _, passed in results)
    detail = "; ".join(f"{label}: {'ok' if passed else 'FAILED'}" for label, passed in results)
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed -> {detail}"


@pytest.fixture(scope="module")
def stats_m1(scan_m1):
    return compute_pattern_stats(scan_m1, wavelength_m=WAVELENGTH,
                                 slit_to_detector_m=SCREEN_TO_D2)


@pytest.fixture(scope="module")
def stats_m2(scan_m2, stats_m1):
    return compute_pattern_stats(scan_m2, wavelength_m=WAVELENGTH,
                                 slit_to_detector_m=SCREEN_TO_D2, reference=stats_m1)


def conditional_spot_at_screen_b(bench, grid):
    """FWHM of the idler intensity at screen B (slit B open) given a point
    D1 at the centre of slit A: the spot that lights slit B."""
    to_screen = ArmSpec((FreeSpace(CRYSTAL_TO_SCREEN),), bench.idler_arm.wavelength_m)
    bench = BenchSpec(bench.source, bench.signal_arm, to_screen, bench.d1, bench.d2)
    joint = propagate_bench(build_bench_state(bench, grid), bench)
    return profile_fwhm(grid.positions, conditional_field(joint, 0.0).intensity)


def spot_closed_form(source):
    """Ghost-image spot of a Gaussian pump pupil (field 1/e radius w_p)
    seen from screen B: sqrt(2 ln 2) / pi * lambda z_B / w_p."""
    w_pump = source.pump_diameter_m / 2.0
    return np.sqrt(2.0 * np.log(2.0)) / np.pi * source.lambda_idler_m * CRYSTAL_TO_SCREEN / w_pump


def test_criterion_1_measurement_one_reproduction(grid, scan_window, stats_m1):
    """Slit B = 0.16 mm: sinc^2 fit recovers the slit width, first zero at
    lambda L / w, and the calibrated product is exactly h.

    The Fraunhofer targets hold for an evenly lit slit, so they are checked
    on the reference bench with a 1 mm pump, after asserting that the
    conditional spot at screen B is at least twice the slit width.  At the
    3 mm reference pump the spot matches its closed form and is narrower
    than the slit, which apodizes it; the reference measurement-1 values
    are asserted in tests/test_experiment.py."""
    bench = default_bench(pump_diameter_m=TEXTBOOK_PUMP_DIAMETER)
    spot = conditional_spot_at_screen_b(bench, grid)
    scan = run_coincidence_scan(bench, scan_window, grid)
    stats = compute_pattern_stats(scan, wavelength_m=WAVELENGTH, slit_to_detector_m=SCREEN_TO_D2)
    premise_ok = spot >= 2.0 * SLIT_WIDTH
    fit_ok = (stats.sinc_fit_width_m is not None
              and abs(stats.sinc_fit_width_m - SLIT_WIDTH) <= 0.05 * SLIT_WIDTH)
    zero_ok = (stats.first_zero_m is not None
               and abs(stats.first_zero_m - FRAUNHOFER_ZERO) <= 0.05 * FRAUNHOFER_ZERO)
    product_ok = stats.uncertainty_product_over_h == 1.0

    reference = default_bench()
    ref_spot = conditional_spot_at_screen_b(reference, grid)
    ref_closed = spot_closed_form(reference.source)
    ref_spot_ok = abs(ref_spot - ref_closed) <= 0.02 * ref_closed and ref_spot < SLIT_WIDTH

    def mm(value):
        return "none" if value is None else f"{value * 1e3:.4f}"

    report("1 (measurement-1 sinc^2)",
           [(f"1 mm pump spot {spot * 1e6:.1f} um >= 2 x 160", premise_ok),
            (f"fitted w {mm(stats.sinc_fit_width_m)} mm within 5% of 0.16", fit_ok),
            (f"first zero {mm(stats.first_zero_m)} mm within 5% of {FRAUNHOFER_ZERO * 1e3:.4f}",
             zero_ok),
            ("product/h exactly 1", product_ok),
            (f"3 mm pump spot {ref_spot * 1e6:.1f} um within 2% of {ref_closed * 1e6:.1f} "
             f"and < 160 (fit {mm(stats_m1.sinc_fit_width_m)} mm, "
             f"first zero {mm(stats_m1.first_zero_m)} mm: not textbook)", ref_spot_ok)])


def test_criterion_2_measurement_two_reproduction(grid, scan_window):
    """Slit B open: coincidence FWHM < 0.8x the slit-B pattern and
    product < h, robust over correlation widths 5-30 um."""
    results = []
    for sigma_c in (5e-6, 13e-6, 30e-6):
        m1 = run_coincidence_scan(default_bench(correlation_width_m=sigma_c), scan_window, grid)
        m2 = run_coincidence_scan(default_bench(correlation_width_m=sigma_c, slit_b="open"),
                                  scan_window, grid)
        ref = compute_pattern_stats(m1)
        stats = compute_pattern_stats(m2, reference=ref)
        ratio = stats.uncertainty_product_over_h
        results.append((f"sigma_c={sigma_c * 1e6:.0f}um ratio={ratio:.3f} < 0.8 and < 1",
                        ratio < 0.8 and ratio < 1.0))
    report("2 (measurement-2 narrowing)", results)


def test_criterion_3_singles_flatness(scan_m2):
    """Measurement 2: D2 singles flat to 5% over +-2 mm while the
    coincidence pattern varies by more than 10x."""
    sel = np.abs(scan_m2.positions_m) <= 2e-3
    singles = scan_m2.singles_d2[sel]
    coincidence = scan_m2.coincidence[sel]
    singles_variation = singles.max() / singles.min()
    coincidence_variation = coincidence.max() / coincidence.min()
    report("3 (singles flatness)",
           [(f"singles max/min {singles_variation:.4f} < 1.05", singles_variation < 1.05),
            (f"coincidence max/min {coincidence_variation:.1f} > 10", coincidence_variation > 10.0)])


def test_criterion_4_ghost_image_law(grid):
    """Plane sweep finds the conditional image at 745 +- 10 mm with the
    slit's width (10%) and magnification -1 +- 0.05."""
    stats = ghost_image_stats(default_bench(slit_b="open"),
                              PlaneSweep(0.6, 0.9, 31), grid, 0.5e-3)
    plane_ok = abs(stats.best_plane_m - 0.745) <= 0.010
    width_ok = abs(stats.fwhm_m - SLIT_WIDTH) <= 0.10 * SLIT_WIDTH
    mag_ok = abs(stats.magnification + 1.0) <= 0.05
    report("4 (ghost-image law)",
           [(f"best plane {stats.best_plane_m * 1e3:.1f} mm within 745+-10", plane_ok),
            (f"FWHM {stats.fwhm_m * 1e6:.1f} um within 10% of 160", width_ok),
            (f"magnification {stats.magnification:.4f} within -1+-0.05", mag_ok)])


def test_criterion_5_klyshko_equivalence(grid):
    """Advanced-wave and 2-D conditional patterns agree to 1e-6 for at
    least five point-D1 positions inside slit A."""
    bench = default_bench(slit_b="open")
    positions = in_slit_positions(bench, grid, 5)
    deviations = [klyshko_deviation(bench, pos, grid) for pos in positions]
    report("5 (advanced-wave oracle)",
           [(f"{len(positions)} positions, max deviation {max(deviations):.2e} < 1e-6",
             len(positions) >= 5 and max(deviations) < 1e-6)])


def test_criterion_6_entanglement_necessity(stats_m1):
    """A separable source with the same per-photon beams loses the
    conditional localization: FWHM grows at least 5x and the product
    exceeds h.  Uses sigma_c = 30 um on a finer grid so the separable
    beam is both resolved at the source and contained at the detector."""
    fine = TransverseGrid(3072, 15e-3)

    def conditional_fwhm(kind):
        bench = default_bench(slit_b="open", correlation_width_m=30e-6, source_kind=kind)
        joint = propagate_bench(build_bench_state(bench, fine), bench)
        profile = conditional_field(joint, 0.0).intensity
        return profile_fwhm(fine.positions, profile)

    width_entangled = conditional_fwhm("entangled")
    width_separable = conditional_fwhm("separable")
    ratio = width_separable / width_entangled
    product = width_separable / stats_m1.fwhm_m
    report("6 (entanglement necessity)",
           [(f"separable/entangled FWHM ratio {ratio:.1f} >= 5", ratio >= 5.0),
            (f"separable product/h {product:.2f} > 1", product > 1.0)])


def test_criterion_7_numerical_hygiene(grid):
    """Norm preservation and exact inverse of free-space propagation, and
    classical a = b = 2f imaging of the slit."""
    field = gaussian_field(grid, 0.8e-3)
    norm_err = abs(through(field, FreeSpace(0.745)).power() / field.power() - 1.0)
    roundtrip = through(field, FreeSpace(0.3), FreeSpace(-0.3))
    roundtrip_err = float(np.max(np.abs(roundtrip.amplitudes - field.amplitudes)))

    u = Field1D(grid, np.ones(grid.n_points), WAVELENGTH)
    image = through(u, Slit(SLIT_WIDTH), FreeSpace(1.0), ThinLens(0.5, aperture_diameter_m=25e-3),
                    FreeSpace(1.0)).intensity
    image_fwhm = profile_fwhm(grid.positions, image)
    image_ok = abs(image_fwhm - SLIT_WIDTH) <= 0.10 * SLIT_WIDTH
    report("7 (numerical hygiene)",
           [(f"norm error {norm_err:.1e} < 1e-10", norm_err < 1e-10),
            (f"roundtrip error {roundtrip_err:.1e} < 1e-10", roundtrip_err < 1e-10),
            (f"2f image FWHM {image_fwhm * 1e6:.1f} um within 10% of 160", image_ok)])


def test_criterion_8_temporal_module(grid):
    """Balanced envelopes factorize (K = 1 to 1e-9); K is exchange
    symmetric and exceeds 1 at envelope ratio 10."""
    k_balanced = factorability_check(eval_biphoton_wavepacket(TemporalSpec(2.0, 2.0)))
    k_ab = factorability_check(eval_biphoton_wavepacket(TemporalSpec(1.0, 10.0)))
    k_ba = factorability_check(eval_biphoton_wavepacket(TemporalSpec(10.0, 1.0)))
    report("8 (temporal wavepacket)",
           [(f"K balanced {k_balanced:.12f} within 1e-9 of 1", abs(k_balanced - 1.0) < 1e-9),
            (f"K symmetric |{k_ab:.4f} - {k_ba:.4f}| < 1e-9", abs(k_ab - k_ba) < 1e-9),
            (f"K ratio-10 {k_ab:.3f} > 1", k_ab > 1.0)])
