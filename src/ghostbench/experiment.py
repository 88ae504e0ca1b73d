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

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

# apply_arm and build_source are no longer called here, but perfbench/tracing.py
# binds the names in this module for its elements.field_arm and source.build spans.
from .elements import (ArmSpec, FreeSpace, Slit, _check_skewed_head, _refuse_aliasing, _step,  # noqa: F401
                       _summed_power, aperture_transmission, apply_arm, apply_arm_along, apply_arm_to_axis,
                       apply_steps_along, apply_steps_transpose, arm_steps, reverse_arm)
from .errors import PatternError, SamplingError
from .grid import BiphotonAmplitude, Field1D, TransverseGrid
from .source import SourceSpec, _lines_times_source, _live_band, build_source, source_band  # noqa: F401

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


def _d1_weights(bench: BenchSpec, grid: TransverseGrid) -> np.ndarray:
    """Detection weights on the signal axis for the configured D1.

    Bucket mode integrates over the slit-A transmitted band whenever the
    detector aperture is at least as wide as the slit (the collection
    lens gathers everything the slit passes); otherwise, and for benches
    without a signal slit, it integrates over the aperture window itself.
    Point mode samples the nearest grid row.
    """
    if bench.d1.mode == "point":
        if abs(bench.d1.position_m) > grid.extent_m:
            raise SamplingError(f"point D1 at {bench.d1.position_m} m lies outside the grid "
                                f"window +-{grid.extent_m} m")
        weights = np.zeros(grid.n_points)
        weights[grid.index_of(bench.d1.position_m)] = 1.0 / grid.spacing_m
        return weights
    slits = bench.signal_arm.slits()
    if slits and bench.d1.aperture_diameter_m >= slits[-1].width_m:
        last = slits[-1]
        return aperture_transmission(grid, last.width_m, last.center_m)
    return aperture_transmission(grid, bench.d1.aperture_diameter_m, bench.d1.position_m)


def _axis_profile(amps: np.ndarray, weights: np.ndarray, spacing_m: float) -> np.ndarray:
    """Integrate |A|^2 over the rows D1 weighs, one weight per row: the
    coincidence profile of a scan and of each plane of the ghost sweep."""
    return np.sum(weights[:, None] * np.abs(amps) ** 2, axis=0) * spacing_m


def _rows_from_band(band: np.ndarray, steps: list, rows: np.ndarray, grid: TransverseGrid,
                    wavelength_m: float) -> np.ndarray:
    """Signal rows ``rows`` behind an arm's ``steps`` (:func:`arm_steps`),
    idler axis at the crystal, as K A: K holds the unit rows at ``rows``
    sent through the steps' transpose (:func:`apply_steps_transpose`, the
    steps walked in reverse), one 1-D backward kernel per row, and the
    source A is read through its nonzero diagonals ``band``
    (:func:`source_band`).  The product is summed diagonal by diagonal,
    O(R N (2h + 1)), with no BLAS call.  Nothing is checked here: callers
    first make the signal head's checks (:func:`_check_skewed_head`), and
    the singles check slit B's steps on the idler spectrum's power
    (:func:`_singles_profile`)."""
    width, n = band.shape
    h = width // 2
    kernel = np.zeros((rows.size, n), dtype=np.complex128)
    kernel[np.arange(rows.size), rows] = 1.0
    # Padded by h zero cells each side, so diagonal t reads kernel[:, j + t - h].
    padded = np.zeros((rows.size, n + 2 * h), dtype=np.complex128)
    padded[:, h:h + n] = apply_steps_transpose(kernel, steps, grid, wavelength_m)
    at_rows = np.zeros((rows.size, n), dtype=np.complex128)
    for t in range(width):
        at_rows += padded[:, t:t + n] * band[t]
    return at_rows


def _gram_rows(block: np.ndarray, cells: np.ndarray, n_points: int) -> np.ndarray:
    """Rows with the Gram matrix of ``block``, a stack of fields nonzero only
    at ``cells`` (one column each): with X^H X = V L V^H, the rows sqrt(L)
    V^H, placed at the cells.  Since their Gram matrix is X^H X, any linear
    map applied to the rows leaves the sum of |.|^2 over them, per sample,
    as it is for ``block``."""
    values, vectors = np.linalg.eigh(block.conj().T @ block)
    rows = np.zeros((values.size, n_points), dtype=np.complex128)
    rows[:, cells] = np.sqrt(np.clip(values, 0.0, None))[:, None] * vectors.conj().T
    return rows


def _reduced_state_lags(band: np.ndarray) -> np.ndarray:
    """The idler's reduced state rho = A^T A on and above its diagonal,
    read off the source's band (:func:`source_band`): ``lags[e, j] =
    rho(j, j + e) = sum_d a_d(j) a_{d-e}(j + e)``, a_d the band's diagonal
    d, for e = 0 ... 2h, 0 where j + e leaves the grid.  rho is real and
    symmetric, so these are its 4h + 1 nonzero diagonals.  O(N h^2)."""
    width, n = band.shape
    lags = np.zeros((min(width, n), n))
    for e in range(lags.shape[0]):
        lags[e, :n - e] = np.einsum("tj,tj->j", band[e:, :n - e], band[:width - e, e:])
    return lags


def _lag_power(lags: np.ndarray) -> np.ndarray:
    """The summed power of the source's idler spectrum, sum over i of
    |fft(A[i, :])|^2, as the DFT of rho's lag sums c_e = sum_j rho(j, j + e)
    (:func:`_reduced_state_lags`; c_-e = c_e)."""
    count, n = lags.shape
    sums = lags.sum(axis=1)
    circular = np.zeros(n)
    circular[:count] = sums
    circular[n - np.arange(1, count)] += sums[1:]
    return np.fft.fft(circular).real


def _open_singles(lags: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """diag(U rho U^H), the summed |.|^2 over the signal axis with the
    circulant U = ifft . diag(transfer) . fft on the idler axis, from rho's
    lags (:func:`_reduced_state_lags`): with u = ifft(transfer) and w_e[m] =
    u[m] conj(u[m - e]), it is sum over e = -2h ... 2h of the circular
    convolution w_e * r_e.  Lag -e gives the complex conjugate of lag e's
    term, so the lags e > 0 count twice, by their real part.  One batched
    FFT of the lags and one of the w_e.  This is the intensity of a
    partially coherent field from its cross-spectral density (Mandel &
    Wolf, *Optical Coherence and Quantum Optics*, ch. 4-5).  An intensity
    is nonnegative, but the FFTs' rounding leaves noise of either sign, a
    few parts in 1e16 of the peak, in the dark tails; the result is
    clamped at 0.0 there."""
    count, n = lags.shape
    u = np.fft.ifft(transfer)
    kernels = np.fft.fft(u * u[(np.arange(n) - np.arange(count)[:, None]) % n].conj())
    kernels[1:] *= 2.0
    return np.maximum(np.fft.ifft(np.einsum("ef,ef->f", kernels, np.fft.fft(lags))).real, 0.0)


def _idler_run(steps: list) -> int:
    """The number of an idler arm's ``steps`` (:func:`arm_steps`), up to
    the first that has a factor (slit B), that make one spectral pass."""
    return next((k + 1 for k, (_, factor) in enumerate(steps) if factor is not None), len(steps))


def _singles_profile(band: np.ndarray, lags: np.ndarray, power: np.ndarray, steps: list, grid: TransverseGrid,
                     wavelength_m: float) -> np.ndarray:
    """D2 singles profile: sum over the signal axis of |A|^2 with the idler
    arm, held as its ``steps`` (:func:`arm_steps`), applied to the source.

    The arm's steps up to the first that has a factor are one spectral
    pass (:func:`_idler_run`); each step is checked on ``power``, the
    summed power of the source's idler spectrum, inside the bands of the
    steps before it (|transfer| = 1 on a kept band).  Without a factor
    the profile is :func:`_open_singles` of ``lags``, the source's
    reduced state (:func:`_reduced_state_lags`); with one (slit B), the
    N x R block at the R cells it leaves open is the transpose of slit B's
    rows taken from ``band``, the source's live band (:func:`_rows_from_band`,
    A is symmetric), replaced by its :func:`_gram_rows`, which finish the arm.
    """
    run = _idler_run(steps)
    transfer = np.ones(grid.n_points, dtype=np.complex128)
    kept = np.ones(grid.n_points, dtype=bool)
    for distance, _ in steps[:run]:
        if distance != 0.0:
            step, keep = _step(grid, wavelength_m, distance)
            if not keep.all():
                _refuse_aliasing(power * kept, keep, grid, wavelength_m, distance)
            transfer *= step
            kept &= keep
    factor = steps[run - 1][1] if run else None
    if factor is None:
        return _open_singles(lags, transfer) * grid.spacing_m
    cells = np.flatnonzero(factor)
    amps = _gram_rows(_rows_from_band(band, steps[:run], cells, grid, wavelength_m).T, cells, grid.n_points)
    amps = apply_steps_along(amps, steps[run:], grid, wavelength_m)
    return _summed_power(amps) * grid.spacing_m


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


def run_coincidence_scan(bench: BenchSpec | Sequence[BenchSpec], scan: ScanWindow,
                         grid: TransverseGrid) -> ScanResult | list[ScanResult]:
    """Sweep D2 and record coincidence and singles rates.

    ``bench`` is one :class:`BenchSpec` (one :class:`ScanResult`) or a
    sequence of benches that differ only in the idler arm (one result
    each), which share one source band and one set of D1's rows.  D1
    stays fixed as configured.  The coincidences follow the idler arm on
    the rows D1 weighs, taken as K A from the source's band
    (:func:`_conditioned_rows`), as ghost and klyshko-check take theirs.
    The singles rate is the signal-axis marginal of the state with only
    the idler arm applied (:func:`_singles_profile`): it counts every idler
    photon regardless of what happens in the signal arm, so signal-arm
    losses (slit A) cannot imprint on it.  The singles too come from the
    band, through the idler's reduced state (:func:`_reduced_state_lags`)
    and its power (:func:`_lag_power`), however wide the band.  No N x N
    array is made.  Each arm's steps (:func:`arm_steps`) are built once.
    """
    benches = [bench] if isinstance(bench, BenchSpec) else list(bench)
    first = benches[0]
    if any(replace(other, idler_arm=first.idler_arm) != first for other in benches):
        raise ValueError("benches scanned together may differ only in the idler arm")
    if scan.y_min_m < -grid.extent_m or scan.y_max_m > grid.extent_m:
        raise SamplingError("scan window extends outside the grid window")
    idler_wavelength = first.source.lambda_idler_m
    band = _live_band(source_band(first.source, grid))
    ((_, weights, at_d1),) = _conditioned_rows(first, grid, band, (0.0,))
    idler_steps = [arm_steps(each.idler_arm, grid, idler_wavelength) for each in benches]
    lags = _reduced_state_lags(band)
    power = _lag_power(lags)
    positions = scan.positions()
    results = []
    for each, each_steps in zip(benches, idler_steps):
        at_d2 = apply_steps_along(at_d1, each_steps, grid, idler_wavelength)
        coincidence_profile = _axis_profile(at_d2, weights, grid.spacing_m)
        singles_profile = _singles_profile(band, lags, power, each_steps, grid, idler_wavelength)
        coincidence = _sample_profile(grid, coincidence_profile, each.d2, positions)
        singles = _sample_profile(grid, singles_profile, each.d2, positions)
        results.append(ScanResult(positions, coincidence, singles, each))
    return results[0] if isinstance(bench, BenchSpec) else results


def conditional_field(joint_at_detectors: BiphotonAmplitude, y1_m: float) -> Field1D:
    """Idler-axis slice A(y1, .) at the nearest signal sample, unnormalized."""
    idx = joint_at_detectors.grid_s.index_of(y1_m)
    return Field1D(joint_at_detectors.grid_i, joint_at_detectors.amplitudes[idx, :].copy(),
                   joint_at_detectors.wavelength_i_m)


def _conditioned_rows(bench: BenchSpec, grid: TransverseGrid, band: np.ndarray,
                      slit_a_offsets_m: Sequence[float]) -> list:
    """:func:`signal_conditioned_rows` on the source's live band ``band``,
    which :func:`run_coincidence_scan` holds for its singles too.  A point
    D1 moved off the grid is refused under its configured position and the offset."""
    arms = [replace(bench.signal_arm, elements=tuple(
        replace(el, center_m=el.center_m + offset) if isinstance(el, Slit) else el
        for el in bench.signal_arm.elements)) for offset in slit_a_offsets_m]
    wavelength = bench.source.lambda_signal_m
    arm_steps_by_offset = [arm_steps(arm, grid, wavelength) for arm in arms]
    # An offset that moves a slit before the last step changes the head.
    heads = {}
    for steps in arm_steps_by_offset:
        heads.setdefault(tuple((d, f if f is None else f.tobytes()) for d, f in steps[:-1]), steps)
    for steps in heads.values():
        _check_skewed_head(band, steps, grid, wavelength)
    conditioned = []
    for offset, arm, steps in zip(slit_a_offsets_m, arms, arm_steps_by_offset):
        d1 = replace(bench.d1, position_m=bench.d1.position_m + offset)
        try:
            weights = _d1_weights(replace(bench, signal_arm=arm, d1=d1), grid)
        except SamplingError as exc:
            if offset == 0:
                raise
            raise SamplingError(f"point D1 at {bench.d1.position_m * 1e3:g} mm ([detectors] d1_position_mm), moved "
                                f"with slit A by {offset * 1e3:g} mm ([ghost] slit_offset_mm), lies outside the "
                                f"+-{grid.extent_m * 1e3:g} mm grid window") from exc
        rows = np.flatnonzero(weights)
        conditioned.append((rows, weights[rows], _rows_from_band(band, steps, rows, grid, wavelength)))
    return conditioned


def signal_conditioned_rows(bench: BenchSpec, grid: TransverseGrid,
                            slit_a_offsets_m: Sequence[float]) -> list:
    """Signal-arm-propagated rows inside the D1 detection band.

    Returns one ``(row_indices, detection_weights, row_amplitudes)`` for
    each entry of ``slit_a_offsets_m``, with the idler axis still at the
    crystal plane, so callers can sweep idler observation planes cheaply.
    An offset shifts slit A (every slit of the signal arm), and D1 with
    it, so a point or narrow bucket D1 stays in the same place relative to
    the slit; the magnification test uses this.  Each offset's rows are
    the source's nonzero diagonals (:func:`source_band`) times one
    backward kernel per row D1 weights (:func:`_rows_from_band`), so no
    N x N array is made.  Where a signal step's band limit cuts on the
    grid, each distinct head makes its checks on a walk over the source's
    lines (:func:`_check_skewed_head`).  Each offset's arm is read into its
    steps (:func:`arm_steps`) once.
    """
    return _conditioned_rows(bench, grid, _live_band(source_band(bench.source, grid)), slit_a_offsets_m)


def klyshko_advanced_wave(bench: BenchSpec, d1_positions_m: float | np.ndarray, grid: TransverseGrid,
                          backward_offset_m: float = 0.0, *, idler_steps: list | None = None) -> np.ndarray:
    """Conditional idler fields at the D2 plane via the unfolded picture:
    one row of N cells for each D1 position in ``d1_positions_m``.

    A point source at each D1 position is propagated backward through the
    signal arm (reversed element order, negated distances, conjugate lens
    phase), all positions as one batch, whose band-limit checks read the
    batch's summed spectrum.  The deltas' spectra have equal magnitude, so
    the first step loses the fraction one delta would; a refusal names the
    first position.  The crystal reflects each as a phase-conjugating
    mirror weighted by the source kernel,

        g(y_i) = sum_s A0(y_s, y_i) conj(psi_back(y_s)) dy_s,

    and the g then travel forward through the idler arm, again as one
    batch.  The conjugation is what makes the backward wave retrace the
    two-photon paths; with it, the result equals the conditional slice of
    the fully propagated joint amplitude to machine precision.  The
    reflection reads the source's closed-form tables, one BLAS product per
    position (:func:`source._lines_times_source`), not its band, and makes
    no N x N array.

    ``backward_offset_m`` adds extra backward path length; it exists as a
    sensitivity knob so consistency checks can confirm the oracle reacts
    to a corrupted arm.  ``idler_steps`` are the idler arm's steps
    (:func:`arm_steps`) where the caller holds them already.
    """
    positions = np.atleast_1d(d1_positions_m)
    wavelength = bench.source.lambda_signal_m
    back = np.zeros((positions.size, grid.n_points), dtype=np.complex128)
    back[np.arange(positions.size), [grid.index_of(position) for position in positions]] = 1.0 / grid.spacing_m
    try:
        back = apply_arm_along(back, reverse_arm(bench.signal_arm), grid, wavelength)
        if backward_offset_m != 0.0:
            back = apply_arm_along(back, ArmSpec((FreeSpace(-backward_offset_m),)), grid, wavelength)
    except SamplingError as exc:
        # A one-cell delta fills the whole spectrum, so this step can alias where the 2-D route does not.
        raise SamplingError(f"advanced-wave oracle, backward step of the point source at D1 "
                            f"({positions[0] * 1e3:+.6f} mm): {exc}") from exc
    g = _lines_times_source(bench.source, grid, np.conj(back))
    g *= grid.spacing_m
    if idler_steps is None:
        idler_steps = arm_steps(bench.idler_arm, grid, bench.source.lambda_idler_m)
    return apply_steps_along(g, idler_steps, grid, bench.source.lambda_idler_m)


def klyshko_deviation(bench: BenchSpec, d1_positions_m: float | np.ndarray, grid: TransverseGrid,
                      backward_offset_m: float = 0.0) -> float | np.ndarray:
    """Max pointwise difference between the peak-normalized conditional
    pattern that measure computes and the advanced-wave pattern.

    ``d1_positions_m`` is one position (a float result) or an array (one
    deviation each).  The conditional side takes D1's rows as
    :func:`run_coincidence_scan` takes its own (the signal head's checks,
    then K A from the live band), at D1's cells alone, then the idler arm
    on those rows.  The advanced wave (:func:`klyshko_advanced_wave`) reads the source's closed-form tables
    through its own BLAS products rather than K A's diagonal sum, so a
    fault in that sum or in the live band's trim cannot cancel: the two
    sides share only the steps' transfer functions.  No N x N array is
    made.  The signal and idler arms' steps (:func:`arm_steps`) are built
    once, and the advanced wave shares the idler's.
    """
    positions = np.atleast_1d(d1_positions_m)
    band = _live_band(source_band(bench.source, grid))
    cells = np.array([grid.index_of(position) for position in positions])
    wavelength = bench.source.lambda_signal_m
    steps = arm_steps(bench.signal_arm, grid, wavelength)
    _check_skewed_head(band, steps, grid, wavelength)
    # D1's rows, zeros where the signal arm leaves a row dark.
    at_d1 = _rows_from_band(band, steps, cells, grid, wavelength)
    idler_steps = arm_steps(bench.idler_arm, grid, bench.source.lambda_idler_m)
    conditionals = np.abs(apply_steps_along(at_d1, idler_steps, grid, bench.source.lambda_idler_m)) ** 2
    advanced_waves = np.abs(klyshko_advanced_wave(bench, positions, grid, backward_offset_m,
                                                  idler_steps=idler_steps)) ** 2
    deviations = []
    for conditional, advanced in zip(conditionals, advanced_waves):
        if conditional.max() == 0 or advanced.max() == 0:
            raise PatternError("conditional pattern vanished; D1 position outside the slit band?")
        deviation = np.max(np.abs(conditional / conditional.max() - advanced / advanced.max()))
        deviations.append(float(deviation))
    return deviations[0] if np.ndim(d1_positions_m) == 0 else np.array(deviations)


def in_slit_positions(bench: BenchSpec, grid: TransverseGrid, count: int) -> np.ndarray:
    """Grid-aligned D1 positions strictly inside the slit-A band."""
    slits = bench.signal_arm.slits()
    if not slits:
        raise ValueError("bench has no slit in the signal arm")
    last = slits[-1]
    weights = aperture_transmission(grid, last.width_m, last.center_m)
    inside = np.nonzero(weights >= 0.999)[0]
    if inside.size == 0:
        y, half = grid.positions, grid.spacing_m / 2.0
        if last.center_m - last.width_m / 2.0 < y[0] - half or last.center_m + last.width_m / 2.0 > y[-1] + half:
            raise SamplingError(f"slit A ({last.width_m * 1e3:g} mm wide at {last.center_m * 1e3:g} mm) lies "
                                f"outside the +-{grid.extent_m * 1e3:g} mm grid window")
        raise SamplingError(f"no grid cell lies wholly inside slit A: it is {last.width_m * 1e3:g} mm wide, "
                            f"{last.width_m / grid.spacing_m:.3g} times the {grid.spacing_m * 1e3:.4g} mm grid pitch")
    order = np.argsort(np.abs(grid.positions[inside] - last.center_m), kind="stable")
    chosen = inside[order][:count]
    return np.sort(grid.positions[chosen])
