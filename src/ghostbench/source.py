"""SPDC biphoton source models at the crystal plane.

The entangled state uses the double-Gaussian model

    A(y_s, y_i) = E_p((y_s + y_i) / 2) * C(y_s - y_i),

with E_p the Gaussian pump envelope (1/e^2 intensity diameter
``pump_diameter_m``) and C a Gaussian position-correlation kernel of 1/e^2
intensity full width ``2 * correlation_width_m``.  The sum-coordinate
spectrum of A then reproduces the pump angular spectrum, the transverse
analog of momentum conservation in the pair emission.

A separable control source with the same per-photon coherent profiles is
available to demonstrate which results require entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import BiphotonAmplitude, TransverseGrid

_ENERGY_CONSERVATION_RTOL = 1e-6
# Entries below this times the peak are zeros to the Schmidt number's Gram
# and to every band pass (:func:`_live_band`): 134 orders of magnitude
# below one rounding step, and spared the slow arithmetic of subnormals.
_FLUSH_BELOW = 1e-150
# :func:`_lines_times_source` multiplies the source out this many columns
# at a time: at most 256 + 2h rows each, 1.3 MB complex at 4096 points
# over +-30 mm (h = 24).
_COLUMN_BLOCK = 256


@dataclass(frozen=True)
class SourceSpec:
    """Pump and phase-matching parameters of the pair source."""

    pump_diameter_m: float = 3e-3
    # Thin-crystal transverse correlation estimate sqrt(lambda_p * L / 2 pi)
    # for a 3 mm crystal; configurable, robustness is checked over 5-30 um.
    correlation_width_m: float = 13e-6
    lambda_pump_m: float = 351.1e-9
    lambda_signal_m: float = 702.2e-9
    lambda_idler_m: float = 702.2e-9
    kind: str = "entangled"

    def __post_init__(self):
        for name in ("pump_diameter_m", "correlation_width_m", "lambda_pump_m", "lambda_signal_m",
                     "lambda_idler_m"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        mismatch = abs(self.lambda_pump_m * (1.0 / self.lambda_signal_m + 1.0 / self.lambda_idler_m) - 1.0)
        if mismatch > _ENERGY_CONSERVATION_RTOL:
            message = ("wavelengths violate energy conservation 1/ls + 1/li = 1/lp "
                       f"(relative error {mismatch:.2e})")
            if self.lambda_signal_m > self.lambda_pump_m:
                idler_nm = 1.0 / (1e-9 / self.lambda_pump_m - 1e-9 / self.lambda_signal_m)
                message += f"; an idler wavelength of {idler_nm!r} nm conserves it"
            raise ValueError(message)
        if self.kind not in ("entangled", "separable"):
            raise ValueError(f"kind must be 'entangled' or 'separable', got {self.kind!r}")
        # Equality marks the balanced double Gaussian, which factorizes
        # exactly (K = 1); anything wider than the pump is unphysical.
        if self.kind == "entangled" and self.correlation_width_m > self.pump_diameter_m:
            raise ValueError("entangled source requires correlation_width_m <= pump_diameter_m")


def _tables(spec: SourceSpec, grid: TransverseGrid):
    """``(pump, corr)``: the pump envelope and the correlation kernel as 1-D
    tables over the 2N - 1 sums and differences of two grid positions.

    ``pump[k]`` is E_p at (y_s + y_i) / 2 for y_s + y_i = (k - 2c) dy, and
    ``corr[k]`` is C at y_s - y_i = (k - N + 1) dy, with c = N // 2 the zero
    cell.  Each argument is an exact multiple of the pitch, so ``corr`` is
    symmetric about its middle entry, bit for bit, and so is the source.
    """
    n, c, dy = grid.n_points, grid.n_points // 2, grid.spacing_m
    k = np.arange(2 * n - 1)
    w_pump = spec.pump_diameter_m / 2.0          # 1/e^2 intensity radius of the pump field
    sigma_c = spec.correlation_width_m           # 1/e^2 intensity radius of the correlation
    pump = np.exp(-(((k - 2 * c) * dy) / 2.0) ** 2 / w_pump ** 2)
    corr = np.exp(-(((k - (n - 1)) * dy) ** 2) / sigma_c ** 2)
    return pump, corr


def _views(pump: np.ndarray, corr: np.ndarray, n: int):
    """The N x N read-only Hankel view pump[i + j] and Toeplitz view
    corr[i - j + N - 1] of two tables; nothing is copied."""
    return sliding_window_view(pump, n), sliding_window_view(corr, n)[:, ::-1]


def _peak_slices(spec: SourceSpec, grid: TransverseGrid):
    """``(f, g)``: the double Gaussian's slices through its peak, the zero
    cell (c, c), along the signal and the idler axis, read off the tables."""
    pump, corr = _tables(spec, grid)
    pump_ij, corr_ij = _views(pump, corr, grid.n_points)
    c = grid.n_points // 2
    return pump_ij[:, c] * corr_ij[:, c], pump_ij[c] * corr_ij[c]


def _unit_tables(spec: SourceSpec, grid: TransverseGrid):
    """``(pump, corr, h)``: :func:`_tables` of the entangled source, its
    unit-norm factor folded into the pump table, and the largest |i - j|
    at which it can be nonzero, where corr underflows to 0.0 (12 cells for
    13 um at the reference pitch).  The sum of |A|^2 is taken in O(N h)
    over the band's 2h + 1 diagonals, diagonal d as corr[N - 1 + d]^2
    times the sum of pump^2 over its entries."""
    n, dy = grid.n_points, grid.spacing_m
    pump, corr = _tables(spec, grid)
    h = int(np.max(np.abs(np.flatnonzero(corr) - (n - 1)), initial=0))
    squared = pump ** 2
    # Diagonals d and -d read pump[2j + |d|] for their N - |d| cells j: entries |d|, |d| + 2, ..., 2N - 2 - |d|.
    sums = np.array([np.sum(squared[d:2 * n - 1 - d:2]) for d in range(h + 1)])
    sums = np.concatenate((sums[:0:-1], sums))
    pump *= 1.0 / float(np.sqrt(np.sum(corr[n - 1 - h:n + h] ** 2 * sums) * dy * dy))
    return pump, corr, h


def _unit_slices(spec: SourceSpec, grid: TransverseGrid):
    """:func:`_peak_slices`, each normalized on its own: the two factors of
    the separable control A = f(y_s) g(y_i), with f = g.  Each carries one
    down-converted beam's transverse coherence width, so the control has
    the entangled beams' divergence at the detectors and no correlation."""
    f, g = _peak_slices(spec, grid)
    f *= 1.0 / float(np.sqrt(np.sum(f ** 2) * grid.spacing_m))
    g *= 1.0 / float(np.sqrt(np.sum(g ** 2) * grid.spacing_m))
    return f, g


def build_source(spec: SourceSpec, grid: TransverseGrid) -> BiphotonAmplitude:
    """The source of either kind on one grid for both axes: its nonzero
    diagonals (:func:`source_band`) written into the real part of a zeroed
    N x N complex array, at unit joint norm.

    The amplitude is exactly symmetric, A == A.T bit for bit (:func:`_tables`,
    and f = g for the separable control, :func:`_unit_slices`): the signal
    head runs on the source's rows, as signal-axis lines, in the band-limit
    checks of measure, ghost and klyshko-check (``experiment._check_signal_head``),
    and slit A's and slit B's rows read the source's band through the
    symmetry too (``experiment._rows_from_band``).
    ``test_source.py``'s ``test_exactly_symmetric`` guards it.  A source
    term that breaks the symmetry (a pump offset or tilt, unequal grids)
    must first give the signal arm its own lines.
    """
    return BiphotonAmplitude(grid, grid, _dense_from_band(source_band(spec, grid)),
                             spec.lambda_signal_m, spec.lambda_idler_m)


def _lines_times_source(spec: SourceSpec, grid: TransverseGrid, lines: np.ndarray) -> np.ndarray:
    """``line @ A`` for each complex line of N cells, A the source of
    either kind at unit joint norm, read off its closed-form tables: never
    its band (:func:`source_band`) and never as an N x N array.

    Entangled, A[i, j] = pump[i + j] corr[i - j + N - 1] (:func:`_unit_tables`,
    :func:`_views`) is 0.0 for |i - j| > h; each block of
    ``_COLUMN_BLOCK`` columns is multiplied out over the rows within h of
    it, and each line takes its own BLAS product with it.  Separable,
    A = f g^T (:func:`_unit_slices`), and the result is (line . f) g.  One
    product per line, so a line's result does not depend on the lines
    beside it.  This is the advanced wave's reflection at the crystal
    (``experiment.klyshko_advanced_wave``).
    """
    n = grid.n_points
    out = np.empty((len(lines), n), dtype=np.complex128)
    if spec.kind == "separable":
        f, g = _unit_slices(spec, grid)
        for line, row in zip(lines, out):
            np.multiply(line @ f, g, out=row)
        return out
    pump, corr, h = _unit_tables(spec, grid)
    pump_ij, corr_ij = _views(pump, corr, n)
    # One complex block, its imaginary part left 0.0, for every block of columns.
    blocks = np.zeros((min(n, _COLUMN_BLOCK + 2 * h), _COLUMN_BLOCK), dtype=np.complex128)
    for lo in range(0, n, _COLUMN_BLOCK):
        hi = min(lo + _COLUMN_BLOCK, n)
        first, last = max(0, lo - h), min(n, hi + h)
        block = blocks[:last - first, :hi - lo]
        block.real = pump_ij[first:last, lo:hi] * corr_ij[first:last, lo:hi]
        for line, row in zip(lines, out):
            np.matmul(line[first:last], block, out=row[lo:hi])
    return out


def _dense_from_band(band: np.ndarray) -> np.ndarray:
    """The N x N complex source whose nonzero diagonals are ``band``
    (:func:`source_band`), written into the real part of a zeroed array."""
    width, n = band.shape
    h = width // 2
    amps = np.zeros((n, n), dtype=np.complex128)
    flat = amps.reshape(-1).real  # A[j + d, j] is flat[j * (N + 1) + d * N]
    for t, diagonal in enumerate(band):
        d = t - h
        first, last = max(0, -d), min(n, n - d)  # the j with 0 <= j, j + d < N
        if first < last:
            flat[first * (n + 1) + d * n::n + 1][:last - first] = diagonal[first:last]
    return amps


def source_band(spec: SourceSpec, grid: TransverseGrid) -> np.ndarray:
    """The source's nonzero diagonals: the real (2h + 1) x N array
    ``band[t, j] = A[j + t - h, j]``, 0 where j + t - h leaves the grid.

    Off its 2h + 1 central diagonals the source is exactly 0.0 (entangled,
    :func:`_unit_tables`; separable, h is the span of the cells where its
    factor is nonzero), so ``band`` holds every nonzero entry of the
    source; :func:`build_source` writes it into the dense array.
    """
    n = grid.n_points
    if spec.kind == "separable":
        f, g = _unit_slices(spec, grid)
        lit = np.flatnonzero(f)  # never empty: the peak cell
        h = int(lit[-1] - lit[0])

        def diagonal(d, lo, hi):
            return f[lo + d:hi + d] * g[lo:hi]
    else:
        pump, corr, h = _unit_tables(spec, grid)

        def diagonal(d, lo, hi):  # pump[i + j] * corr[i - j + N - 1] at i = j + d
            return pump[2 * lo + d:2 * hi + d - 1:2] * corr[n - 1 + d]
    band = np.zeros((2 * h + 1, n))
    for t in range(2 * h + 1):
        d = t - h  # band[t] is the diagonal A[j + d, j], for lo <= j < hi
        lo, hi = max(0, -d), n - max(0, d)
        band[t, lo:hi] = diagonal(d, lo, hi)
    return band


def _live_band(band: np.ndarray) -> np.ndarray:
    """The live band: ``band`` (:func:`source_band`) with each entry below
    ``_FLUSH_BELOW`` of its peak set to 0.0, in place, one diagonal at a
    time, returned as its central slice without the outer diagonal pairs
    left all zero.  Every band pass of measure, ghost and klyshko-check's
    K A side reads it (K A, rho's lags, the lit lines, the route rule).
    The exact band's outer diagonals run down to subnormals (5e-324 at the
    reference), whose arithmetic is slow, and a dropped entry lies 134
    orders of magnitude below a rounding step of the peak: 25 diagonals
    stay 17 at the reference, 49 stay 33 at 2048 points, 49 stay 23 for
    the separable control."""
    floor = _FLUSH_BELOW * max(band.max(initial=0.0), -band.min(initial=0.0))
    for diagonal in band:
        diagonal[np.abs(diagonal) < floor] = 0.0
    h = band.shape[0] // 2
    k = int(np.max(np.abs(np.flatnonzero(band.any(axis=1)) - h), initial=0))
    return band[h - k:h + k + 1]


def _matrix_schmidt_number(matrix: np.ndarray) -> float:
    """K = (sum l_k)^2 / sum l_k^2 over the squared singular values l_k.

    Taken from two moments, with no decomposition: sum l_k = ||m||_F^2 and
    sum l_k^2 = ||m^H m||_F^2, so K is the inverse purity of the reduced
    state (Law, Walmsley & Eberly, PRL 84, 5304 (2000)).  The matrix is
    first divided by its peak |entry|, so K does not depend on its scale
    and neither moment overflows or vanishes.
    """
    m = np.asarray(matrix)
    if not np.all(np.isfinite(m)):
        raise ValueError("amplitude matrix contains non-finite entries")
    peak = np.abs(m).max(initial=0.0)
    if peak == 0.0:
        raise ValueError("cannot compute the Schmidt number of a zero amplitude")
    m = m / peak
    # Products of entries this small underflow, and underflow is slow.  As
    # zeros they move a Gram entry by under N * 1e-150, far below one
    # rounding step of either moment (the peak entry alone gives 1).
    m[np.abs(m) < _FLUSH_BELOW] = 0.0
    gram = m.conj().T @ m
    return float(np.vdot(m, m).real ** 2 / np.vdot(gram, gram).real)


def schmidt_number(joint: BiphotonAmplitude) -> float:
    """Effective transverse mode count of the joint amplitude (K >= 1)."""
    return _matrix_schmidt_number(joint.amplitudes)
