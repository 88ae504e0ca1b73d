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
from .elements import (BAND_LIMIT_LOSS_TOLERANCE, ArmSpec, FreeSpace, Slit, _check_skewed_head, _inverse,  # noqa: F401
                       _refuse_aliasing, _spectrum, _step, _summed_power, aperture_transmission, apply_arm,
                       apply_arm_along, apply_arm_to_axis, apply_steps_along, apply_steps_transpose, arm_steps,
                       reverse_arm)
from .errors import PatternError, SamplingError
from .grid import BiphotonAmplitude, Field1D, TransverseGrid
from .source import (SourceSpec, _dense_from_band, _lines_times_source, _live_band, build_source,  # noqa: F401
                     source_band)

# The D2 singles take the band route (:func:`_reduced_state_lags`, and
# slit B's rows from the source's band) while its cost estimate,
# N (2h + 1 + R)^2 for a band of 2h + 1 diagonals and R cells open behind
# slit B, is at most this many times the dense route's N^2 log2 N; beyond
# it they take the dense source's idler spectrum.
_BAND_ROUTE_COST = 6.0

# The signal head's band-limit checks run on the source's lines but those
# outside which it carries at most this fraction of its power
# (:func:`_lit_lines`).  It is set from the 5% tolerance the checks
# decide, not from rounding: the dark lines' bound moves a check's loss
# fraction by about this much times the source's power over the power
# reaching the step.  So the head runs again on every line (the lit lines
# plus N in all, each pass one block of lines at a time) only where a step
# refuses, or where its loss lies that close below the tolerance ([4.9%, 5%]
# on the default arm); a refusal by the first step is read off the band
# coefficients on either pass.  A 0.3 mm lens stop, which clips most of the
# beam, still passes on the lit lines (loss 4.0e-3, bound 2.0e-2 of what
# reaches the step).  At 2048 points over +-15 mm they are 337 of 2048
# lines (3 for the separable control), for a loss of 2.3e-4; a bound at
# rounding level, 1e-13, keeps 762.
_DARK_POWER = BAND_LIMIT_LOSS_TOLERANCE / 50


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
    """Integrate |A|^2 over the signal axis (axis 0) with the given weights."""
    return np.sum(weights[:, None] * np.abs(amps) ** 2, axis=0) * spacing_m


def _slit_rows(arm: ArmSpec, grid: TransverseGrid, wavelength_m: float) -> np.ndarray:
    """The rows the signal arm can leave nonzero: behind slit A, the few
    rows the slit transmits; all rows without a slit or stop behind the
    last step (:func:`arm_steps`)."""
    steps = arm_steps(arm, grid, wavelength_m)
    factor = steps[-1][1] if steps else None
    return np.arange(grid.n_points) if factor is None else np.flatnonzero(factor)


def _band_limited(arm: ArmSpec, grid: TransverseGrid, wavelength_m: float) -> bool:
    """Whether a free-space step of the arm cuts a band on the grid, so
    its band-limit check can fail."""
    return any(distance != 0.0 and not _step(grid, wavelength_m, distance)[1].all()
               for distance, _ in arm_steps(arm, grid, wavelength_m))


def _lit_lines(band: np.ndarray):
    """``(lo, hi, unseen)``: the smallest range of the source's lines
    (rows, by its symmetry) outside which it carries at most
    ``_DARK_POWER`` of its power, read off its band (:func:`source_band`),
    which gives each line's squared norm exactly as sum_t band[t, j]^2.

    Every step of the signal head (a band-limited transfer, a lens, a stop
    or a slit) has |factor| <= 1, and a line of squared norm p has summed
    spectral power N p, in the skewed frame the head runs in as in space
    (:func:`_check_skewed_head`); so at every band-limit check the lines
    left out add at most ``unseen`` = N sum_dropped p to both the lost and
    the total power.  Each tail is summed from its dim end, so neither is
    swamped by the rounding of the whole.
    """
    n = band.shape[1]
    power = np.einsum("tj,tj->j", band, band)
    before = np.concatenate(([0.0], np.cumsum(power)))  # before[k]: the power of lines 0 ... k - 1
    after = np.concatenate((np.cumsum(power[::-1])[::-1], [0.0]))  # after[k]: lines k ... N - 1
    budget = _DARK_POWER * after[0]
    los = np.flatnonzero(before <= budget)
    # For each lo, the first hi whose tail fits in what lines 0 ... lo - 1 leave of the budget.
    his = np.maximum(np.searchsorted(-after, before[los] - budget), los)
    k = int(np.argmin(his - los))
    lo, hi = int(los[k]), int(his[k])
    return lo, hi, n * float(before[lo] + after[hi])


def _check_signal_head(band: np.ndarray, arm: ArmSpec, grid: TransverseGrid, wavelength_m: float):
    """Make the band-limit checks of the signal head, the signal arm's
    steps but the last and the last step's forward half, for the source
    held as its band (:func:`source_band`); callers run it where a signal
    step cuts a band on the grid (:func:`_band_limited`).

    The source is symmetric (:func:`build_source`), so the head runs on
    its rows, in the skewed frame, from their band coefficients
    A[r, r + k - h] = band[k, r] (:func:`_check_skewed_head`: one BLAS
    product for the first step, then blocks of lines), and on the lit
    lines alone (:func:`_lit_lines`), each check counting the dark lines'
    bound ``unseen``; nothing goes back to space at slit A.  Should any
    check not pass with that bound, undecided or refused, the head runs
    again on all N lines, so it passes or refuses, with the same message,
    as on the whole source.
    """
    steps = arm_steps(arm, grid, wavelength_m)
    lo, hi, unseen = _lit_lines(band)
    try:
        _check_skewed_head(band[:, lo:hi].T, lo, steps, grid, wavelength_m, unseen)
    except SamplingError:
        _check_skewed_head(band.T, 0, steps, grid, wavelength_m)


def _rows_from_band(band: np.ndarray, steps: list, rows: np.ndarray, grid: TransverseGrid,
                    wavelength_m: float) -> np.ndarray:
    """Signal rows ``rows`` behind an arm's ``steps`` (:func:`arm_steps`),
    idler axis at the crystal, as K A: K holds the unit rows at ``rows``
    sent through the steps' transpose (:func:`apply_steps_transpose`, the
    steps walked in reverse), one 1-D backward kernel per row, and the
    source A is read through its nonzero diagonals ``band``
    (:func:`source_band`).  The product is summed diagonal by diagonal,
    O(R N (2h + 1)), with no BLAS call.  Nothing is checked here: callers
    first make the signal head's checks (:func:`_check_signal_head`), and
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


def _signal_rows(band: np.ndarray, arm: ArmSpec, rows: np.ndarray, grid: TransverseGrid, wavelength_m: float):
    """Signal rows ``rows`` behind the signal arm, idler axis at the
    crystal, as K A from the source's band (:func:`_rows_from_band`),
    after the signal head's checks where a signal step cuts a band on the
    grid (:func:`_check_signal_head`).  measure takes slit A's rows here
    (:func:`_slit_rows`), and klyshko-check D1's cells alone."""
    if _band_limited(arm, grid, wavelength_m):
        _check_signal_head(band, arm, grid, wavelength_m)
    return _rows_from_band(band, arm_steps(arm, grid, wavelength_m), rows, grid, wavelength_m)


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
    Wolf, *Optical Coherence and Quantum Optics*, ch. 4-5)."""
    count, n = lags.shape
    u = np.fft.ifft(transfer)
    kernels = np.fft.fft(u * u[(np.arange(n) - np.arange(count)[:, None]) % n].conj())
    kernels[1:] *= 2.0
    return np.fft.ifft(np.einsum("ef,ef->f", kernels, np.fft.fft(lags))).real


def _idler_run(arm: ArmSpec, grid: TransverseGrid, wavelength_m: float):
    """``(steps, run)``: the arm's steps (:func:`arm_steps`) and the number
    of them, up to the first that has a factor (slit B), that make one
    spectral pass."""
    steps = arm_steps(arm, grid, wavelength_m)
    return steps, next((k + 1 for k, (_, factor) in enumerate(steps) if factor is not None), len(steps))


def _band_route_pays(band: np.ndarray, benches: list, grid: TransverseGrid) -> bool:
    """Whether the singles of ``benches`` take the band route: its cost
    estimate N (2h + 1 + R)^2, R the cells left open by the factor that
    ends each bench's spectral pass (:func:`_idler_run`), summed, against
    the dense route's N^2 log2 N (``_BAND_ROUTE_COST``)."""
    cells = 0
    for bench in benches:
        steps, run = _idler_run(bench.idler_arm, grid, bench.source.lambda_idler_m)
        if run and steps[run - 1][1] is not None:
            cells += np.count_nonzero(steps[run - 1][1])
    n = grid.n_points
    return (band.shape[0] + cells) ** 2 <= _BAND_ROUTE_COST * n * np.log2(n)


def _singles_profile(source, power: np.ndarray, arm: ArmSpec, grid: TransverseGrid, wavelength_m: float,
                     last_reader: bool) -> np.ndarray:
    """D2 singles profile: sum over the signal axis of |A|^2 with the idler
    arm applied to the source.

    The arm's steps up to the first that has a factor are one spectral
    pass (:func:`_idler_run`); each step is checked on ``power``, the
    summed power of the source's idler spectrum, inside the bands of the
    steps before it (|transfer| = 1 on a kept band).  ``source`` is, on the
    band route, the pair of the source's band and its reduced state's lags
    (:func:`_reduced_state_lags`): without a factor the profile is
    :func:`_open_singles`; with one (slit B), the N x R block at the R
    cells it leaves open is the transpose of slit B's rows taken from the
    band (:func:`_rows_from_band`, A is symmetric), replaced by its
    :func:`_gram_rows`, which finish the arm.  On the dense route
    (:func:`_band_route_pays`) ``source`` is the source's idler spectrum,
    inverted whole, and overwritten only when ``last_reader`` is set.
    """
    steps, run = _idler_run(arm, grid, wavelength_m)
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
    if isinstance(source, tuple):
        band, lags = source
        if factor is None:
            return _open_singles(lags, transfer) * grid.spacing_m
        cells = np.flatnonzero(factor)
        amps = _gram_rows(_rows_from_band(band, steps[:run], cells, grid, wavelength_m).T, cells, grid.n_points)
    else:
        amps = _inverse(source, transfer, overwrite=last_reader)
        if factor is not None:
            amps *= factor
    amps = apply_steps_along(amps, steps[run:], 1, grid, wavelength_m)
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
    each), which share one source band and one set of slit-A rows.  D1
    stays fixed as configured.  The coincidences follow the idler arm on
    the rows slit A can leave nonzero (:func:`_slit_rows`), taken as K A
    from the source's band (:func:`_rows_from_band`).  The singles rate is
    the signal-axis marginal of the state with only the idler arm applied
    (:func:`_singles_profile`): it counts every idler photon regardless of
    what happens in the signal arm, so signal-arm losses (slit A) cannot
    imprint on it.  The singles too come from the band, through the
    idler's reduced state (:func:`_reduced_state_lags`), unless a band as
    wide as the window makes the dense source's idler spectrum cheaper
    (:func:`_band_route_pays`).  No N x N array is made but there.  Where a
    signal step's band limit cuts on the grid, the signal head makes its
    checks on the source's lit lines (:func:`_check_signal_head`).
    """
    benches = [bench] if isinstance(bench, BenchSpec) else list(bench)
    first = benches[0]
    if any(replace(other, idler_arm=first.idler_arm) != first for other in benches):
        raise ValueError("benches scanned together may differ only in the idler arm")
    if scan.y_min_m < -grid.extent_m or scan.y_max_m > grid.extent_m:
        raise SamplingError("scan window extends outside the grid window")
    arm, wavelength, idler_wavelength = first.signal_arm, first.source.lambda_signal_m, first.source.lambda_idler_m
    band = _live_band(source_band(first.source, grid))
    rows = _slit_rows(arm, grid, wavelength)
    at_d1 = _signal_rows(band, arm, rows, grid, wavelength)
    if _band_route_pays(band, benches, grid):
        lags = _reduced_state_lags(band)
        source, power = (band, lags), _lag_power(lags)
    else:
        source = _spectrum(_dense_from_band(band), 1, overwrite=True)
        power = _summed_power(source)
    weights = _d1_weights(first, grid)[rows]
    positions = scan.positions()
    results = []
    for k, each in enumerate(benches):
        at_d2 = apply_arm_along(at_d1, each.idler_arm, 1, grid, idler_wavelength)
        coincidence_profile = _axis_profile(at_d2, weights, grid.spacing_m)
        singles_profile = _singles_profile(source, power, each.idler_arm, grid, idler_wavelength,
                                           last_reader=k == len(benches) - 1)
        coincidence = _sample_profile(grid, coincidence_profile, each.d2, positions)
        singles = _sample_profile(grid, singles_profile, each.d2, positions)
        results.append(ScanResult(positions, coincidence, singles, each))
    return results[0] if isinstance(bench, BenchSpec) else results


def conditional_field(joint_at_detectors: BiphotonAmplitude, y1_m: float) -> Field1D:
    """Idler-axis slice A(y1, .) at the nearest signal sample, unnormalized."""
    idx = joint_at_detectors.grid_s.index_of(y1_m)
    return Field1D(joint_at_detectors.grid_i, joint_at_detectors.amplitudes[idx, :].copy(),
                   joint_at_detectors.wavelength_i_m)


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
    grid, each distinct head makes its checks on the source's lit lines
    (:func:`_check_signal_head`).
    """
    arms = [replace(bench.signal_arm, elements=tuple(
        replace(el, center_m=el.center_m + offset) if isinstance(el, Slit) else el
        for el in bench.signal_arm.elements)) for offset in slit_a_offsets_m]
    wavelength = bench.source.lambda_signal_m
    band = _live_band(source_band(bench.source, grid))
    if _band_limited(bench.signal_arm, grid, wavelength):
        # An offset that moves a slit before the last step changes the head.
        heads = {}
        for arm in arms:
            head = arm_steps(arm, grid, wavelength)[:-1]
            heads.setdefault(tuple((d, f if f is None else f.tobytes()) for d, f in head), arm)
        for arm in heads.values():
            _check_signal_head(band, arm, grid, wavelength)
    conditioned = []
    for offset, arm in zip(slit_a_offsets_m, arms):
        weights = _d1_weights(replace(bench, signal_arm=arm,
                                      d1=replace(bench.d1, position_m=bench.d1.position_m + offset)), grid)
        rows = np.nonzero(weights > 0)[0]
        at_rows = _rows_from_band(band, arm_steps(arm, grid, wavelength), rows, grid, wavelength)
        conditioned.append((rows, weights[rows], at_rows))
    return conditioned


def klyshko_advanced_wave(bench: BenchSpec, d1_positions_m: float | np.ndarray, grid: TransverseGrid,
                          backward_offset_m: float = 0.0) -> np.ndarray:
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
    to a corrupted arm.
    """
    positions = np.atleast_1d(d1_positions_m)
    wavelength = bench.source.lambda_signal_m
    back = np.zeros((positions.size, grid.n_points), dtype=np.complex128)
    back[np.arange(positions.size), [grid.index_of(position) for position in positions]] = 1.0 / grid.spacing_m
    try:
        back = apply_arm_along(back, reverse_arm(bench.signal_arm), 1, grid, wavelength)
        if backward_offset_m != 0.0:
            back = apply_arm_along(back, ArmSpec((FreeSpace(-backward_offset_m),)), 1, grid, wavelength)
    except SamplingError as exc:
        # A one-cell delta fills the whole spectrum, so this step can alias where the 2-D route does not.
        raise SamplingError(f"advanced-wave oracle, backward step of the point source at D1 "
                            f"({positions[0] * 1e3:+.6f} mm): {exc}") from exc
    g = _lines_times_source(bench.source, grid, np.conj(back))
    g *= grid.spacing_m
    return apply_arm_along(g, bench.idler_arm, 1, grid, bench.source.lambda_idler_m)


def klyshko_deviation(bench: BenchSpec, d1_positions_m: float | np.ndarray, grid: TransverseGrid,
                      backward_offset_m: float = 0.0) -> float | np.ndarray:
    """Max pointwise difference between the peak-normalized conditional
    pattern that measure computes and the advanced-wave pattern.

    ``d1_positions_m`` is one position (a float result) or an array (one
    deviation each).  The conditional side takes D1's rows as
    :func:`run_coincidence_scan` takes slit A's (:func:`_signal_rows`: the
    signal head's checks, then K A from the live band), at D1's cells
    alone, then the idler arm on those rows.  The advanced wave
    (:func:`klyshko_advanced_wave`) reads the source's closed-form tables
    through its own BLAS products rather than K A's diagonal sum, so a
    fault in that sum or in the live band's trim cannot cancel: the two
    sides share only the steps' transfer functions.  No N x N array is
    made.
    """
    positions = np.atleast_1d(d1_positions_m)
    band = _live_band(source_band(bench.source, grid))
    cells = np.array([grid.index_of(position) for position in positions])
    # D1's rows, zeros where the signal arm leaves a row dark.
    at_d1 = _signal_rows(band, bench.signal_arm, cells, grid, bench.source.lambda_signal_m)
    conditionals = np.abs(apply_arm_along(at_d1, bench.idler_arm, 1, grid, bench.source.lambda_idler_m)) ** 2
    advanced_waves = np.abs(klyshko_advanced_wave(bench, positions, grid, backward_offset_m)) ** 2
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
