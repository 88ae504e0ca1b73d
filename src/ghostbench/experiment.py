"""Bench composition, detector scans, and the advanced-wave oracle.

The default geometry (the ``RunConfig`` defaults) follows the two-photon
ghost-imaging bench: the signal photon travels 255 mm to an f = 500 mm
lens (25 mm stop), 1000 mm further to a 0.16 mm slit (slit A) where
detector D1 sits; the idler travels 745 mm to screen B (a 0.16 mm slit or
left open) and 500 mm further to the scanning detector D2.  Unfolded, slit A, the lens, and
screen B satisfy the thin-lens equation with a = b = 2f = 1000 mm, so a
one-to-one ghost image of slit A forms at screen B in coincidences.

D1 defaults to bucket mode: behind the slit a short-focal-length
collection lens makes it position-insensitive, so the coincidence signal
integrates over the slit-A transmitted band.  D2 is point-like.

Rates carry arbitrary units; only pattern shapes and widths are claims,
and the CLI normalizes each scan to peak 1 on output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .elements import (ArmSpec, FreeSpace, Slit, aperture_transmission, apply_arm,
                       apply_arm_to_axis, reverse_arm)
from .grid import BiphotonAmplitude, Field1D, TransverseGrid
from .source import SourceSpec, build_source


@dataclass(frozen=True)
class DetectorSpec:
    """Photon-counting detector: point sample or aperture-integrating bucket."""

    mode: str = "point"
    aperture_diameter_m: float = 180e-6
    position_m: float = 0.0

    def __post_init__(self):
        if self.mode not in ("point", "bucket"):
            raise ValueError(f"detector mode must be 'point' or 'bucket', got {self.mode!r}")
        if not (self.aperture_diameter_m > 0):
            raise ValueError("detector aperture must be positive")


@dataclass(frozen=True)
class ScanWindow:
    """D2 sweep window."""

    y_min_m: float
    y_max_m: float
    steps: int

    def __post_init__(self):
        if not (self.y_max_m > self.y_min_m):
            raise ValueError("scan window must have y_max > y_min")
        if self.steps < 2:
            raise ValueError("scan needs at least two steps")

    def positions(self) -> np.ndarray:
        return np.linspace(self.y_min_m, self.y_max_m, self.steps)


@dataclass(frozen=True)
class BenchSpec:
    """Source plus both optical arms plus both detectors."""

    source: SourceSpec
    signal_arm: ArmSpec
    idler_arm: ArmSpec
    d1: DetectorSpec
    d2: DetectorSpec


def propagate_bench(joint: BiphotonAmplitude, bench: BenchSpec) -> BiphotonAmplitude:
    """Apply the signal arm along axis 0 and the idler arm along axis 1."""
    joint = apply_arm_to_axis(joint, bench.signal_arm, "signal")
    joint = apply_arm_to_axis(joint, bench.idler_arm, "idler")
    return joint


def build_bench_state(bench: BenchSpec, grid: TransverseGrid) -> BiphotonAmplitude:
    """Source amplitude at the crystal plane on a shared grid."""
    return build_source(bench.source, grid, grid)


def _d1_weights(bench: BenchSpec, grid: TransverseGrid) -> np.ndarray:
    """Detection weights on the signal axis for the configured D1.

    Bucket mode integrates over the slit-A transmitted band whenever the
    detector aperture is at least as wide as the slit (the collection
    lens gathers everything the slit passes); otherwise, and for benches
    without a signal slit, it integrates over the aperture window itself.
    Point mode samples the nearest grid row.
    """
    if bench.d1.mode == "point":
        weights = np.zeros(grid.n_points)
        weights[grid.index_of(bench.d1.position_m)] = 1.0 / grid.spacing_m
        return weights
    slits = bench.signal_arm.slits()
    if slits and bench.d1.aperture_diameter_m >= slits[-1].width_m:
        last = slits[-1]
        return aperture_transmission(grid, last.width_m, last.center_m)
    return aperture_transmission(grid, bench.d1.aperture_diameter_m, bench.d1.position_m)


def _axis_profile(joint: BiphotonAmplitude, weights: np.ndarray) -> np.ndarray:
    """Integrate |A|^2 over the signal axis with the given weights."""
    return np.sum(weights[:, None] * np.abs(joint.amplitudes) ** 2, axis=0) * joint.grid_s.spacing_m


def _sample_profile(grid: TransverseGrid, profile: np.ndarray, detector: DetectorSpec,
                    positions: np.ndarray) -> np.ndarray:
    """Evaluate a rate profile at detector positions (point or bucket)."""
    if detector.mode == "point":
        return np.interp(positions, grid.positions, profile)
    rates = np.empty(positions.size)
    for i, p in enumerate(positions):
        w = aperture_transmission(grid, detector.aperture_diameter_m, p)
        rates[i] = np.sum(w * profile) * grid.spacing_m
    return rates


@dataclass(frozen=True)
class ScanResult:
    """Coincidence and D2-singles rates over a D2 position sweep."""

    positions_m: np.ndarray
    coincidence: np.ndarray
    singles_d2: np.ndarray
    bench: BenchSpec

    def __post_init__(self):
        pos = np.asarray(self.positions_m, dtype=float)
        coin = np.asarray(self.coincidence, dtype=float)
        sing = np.asarray(self.singles_d2, dtype=float)
        if not (pos.shape == coin.shape == sing.shape):
            raise ValueError("scan arrays must have equal length")
        if not (np.all(np.isfinite(coin)) and np.all(np.isfinite(sing))):
            raise ValueError("scan rates must be finite")
        if np.any(coin < 0) or np.any(sing < 0):
            raise ValueError("scan rates must be nonnegative")
        object.__setattr__(self, "positions_m", pos)
        object.__setattr__(self, "coincidence", coin)
        object.__setattr__(self, "singles_d2", sing)


def run_coincidence_scan(bench: BenchSpec, scan: ScanWindow, grid: TransverseGrid) -> ScanResult:
    """Sweep D2 and record coincidence and singles rates.

    D1 stays fixed as configured in the bench.  The singles rate is the
    signal-axis marginal of the state with only the idler arm applied: it
    counts every idler photon regardless of what happens in the signal
    arm, so signal-arm losses (slit A) cannot imprint on it.
    """
    if scan.y_min_m < -grid.extent_m or scan.y_max_m > grid.extent_m:
        raise ValueError("scan window extends outside the grid window")
    state = build_bench_state(bench, grid)

    joint_det = propagate_bench(state, bench)
    coincidence_profile = _axis_profile(joint_det, _d1_weights(bench, grid))

    idler_only = apply_arm_to_axis(state, bench.idler_arm, "idler")
    singles_profile = _axis_profile(idler_only, np.ones(grid.n_points))

    positions = scan.positions()
    coincidence = _sample_profile(grid, coincidence_profile, bench.d2, positions)
    singles = _sample_profile(grid, singles_profile, bench.d2, positions)
    return ScanResult(positions, coincidence, singles, bench)


def conditional_field(joint_at_detectors: BiphotonAmplitude, y1_m: float) -> Field1D:
    """Idler-axis slice A(y1, .) at the nearest signal sample, unnormalized."""
    idx = joint_at_detectors.grid_s.index_of(y1_m)
    return Field1D(joint_at_detectors.grid_i, joint_at_detectors.amplitudes[idx, :].copy(),
                   joint_at_detectors.wavelength_i_m)


def signal_conditioned_rows(bench: BenchSpec, grid: TransverseGrid,
                            slit_a_center_m: Optional[float] = None):
    """Signal-arm-propagated rows inside the D1 detection band.

    Returns ``(row_indices, detection_weights, row_amplitudes)`` with the
    idler axis still at the crystal plane, so callers can sweep idler
    observation planes cheaply (the heavy signal-arm propagation happens
    once).  ``slit_a_center_m`` optionally recenters the signal slit, used
    by the magnification test; D1 moves with it, so a point or narrow
    bucket D1 stays in the same place relative to the slit.
    """
    work = bench
    if slit_a_center_m is not None:
        shift = slit_a_center_m - bench.signal_arm.slits()[-1].center_m
        elements = tuple(replace(el, center_m=slit_a_center_m) if isinstance(el, Slit) else el
                         for el in bench.signal_arm.elements)
        work = replace(bench, signal_arm=replace(bench.signal_arm, elements=elements),
                       d1=replace(bench.d1, position_m=bench.d1.position_m + shift))
    state = build_bench_state(work, grid)
    at_d1 = apply_arm_to_axis(state, work.signal_arm, "signal")
    weights = _d1_weights(work, grid)
    rows = np.nonzero(weights > 0)[0]
    return rows, weights[rows], at_d1.amplitudes[rows, :]


def klyshko_advanced_wave(bench: BenchSpec, d1_position_m: float, grid: TransverseGrid,
                          backward_offset_m: float = 0.0) -> Field1D:
    """Conditional idler field at the D2 plane via the unfolded picture.

    A point source at D1 is propagated backward through the signal arm
    (reversed element order, negated distances, conjugate lens phase).
    The crystal reflects it as a phase-conjugating mirror weighted by the
    source kernel,

        g(y_i) = sum_s A0(y_s, y_i) conj(psi_back(y_s)) dy_s,

    and g then travels forward through the idler arm.  The conjugation is
    what makes the backward wave retrace the two-photon paths; with it,
    the result equals the conditional slice of the fully propagated joint
    amplitude to machine precision.

    ``backward_offset_m`` adds extra backward path length; it exists as a
    sensitivity knob so consistency checks can confirm the oracle reacts
    to a corrupted arm.
    """
    state = build_bench_state(bench, grid)

    psi = np.zeros(grid.n_points, dtype=np.complex128)
    psi[grid.index_of(d1_position_m)] = 1.0 / grid.spacing_m
    back = Field1D(grid, psi, bench.signal_arm.wavelength_m)
    back = apply_arm(back, reverse_arm(bench.signal_arm))
    if backward_offset_m != 0.0:
        back = apply_arm(back, ArmSpec((FreeSpace(-backward_offset_m),), back.wavelength_m))

    g = (np.conj(back.amplitudes) @ state.amplitudes) * grid.spacing_m
    idler = Field1D(grid, g, bench.idler_arm.wavelength_m)
    return apply_arm(idler, bench.idler_arm)


def klyshko_deviation(bench: BenchSpec, d1_position_m: float, grid: TransverseGrid,
                      backward_offset_m: float = 0.0) -> float:
    """Max pointwise difference between the peak-normalized conditional
    pattern of the full 2-D propagation and the advanced-wave pattern."""
    joint_det = propagate_bench(build_bench_state(bench, grid), bench)
    conditional = conditional_field(joint_det, d1_position_m).intensity
    advanced = klyshko_advanced_wave(bench, d1_position_m, grid, backward_offset_m).intensity
    if conditional.max() == 0 or advanced.max() == 0:
        raise ValueError("conditional pattern vanished; D1 position outside the slit band?")
    return float(np.max(np.abs(conditional / conditional.max() - advanced / advanced.max())))


def in_slit_positions(bench: BenchSpec, grid: TransverseGrid, count: int) -> np.ndarray:
    """Grid-aligned D1 positions strictly inside the slit-A band."""
    slits = bench.signal_arm.slits()
    if not slits:
        raise ValueError("bench has no slit in the signal arm")
    last = slits[-1]
    weights = aperture_transmission(grid, last.width_m, last.center_m)
    inside = np.nonzero(weights >= 0.999)[0]
    if inside.size == 0:
        raise ValueError("slit A is narrower than one grid cell")
    order = np.argsort(np.abs(grid.positions[inside] - last.center_m), kind="stable")
    chosen = inside[order][:count]
    return np.sort(grid.positions[chosen])
