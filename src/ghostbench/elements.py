"""Linear optical elements acting on 1-D fields and on joint amplitudes.

Free-space propagation uses the band-limited angular-spectrum method with
the exact paraxial (Fresnel) transfer function exp(-i pi lambda z f^2):
it is norm-preserving on the retained band, has an exact inverse
(negative distance), and is valid at every distance on the bench.
Frequencies whose sampled chirp would alias, and evanescent components,
are suppressed; if that suppression would remove more than
``BAND_LIMIT_LOSS_TOLERANCE`` of the field energy the step raises
:class:`SamplingError` instead of silently corrupting the result.

Apertures are hard-edged.  On a finite grid the boundary cell of a hard
edge is given the covered fraction of the cell as amplitude transmission,
which keeps the effective aperture width exact regardless of where the
edge falls between samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SamplingError
from .grid import BiphotonAmplitude, Field1D, TransverseGrid

# Fraction of spectral energy the band limit may remove before the
# propagation step is considered aliased and refused.
BAND_LIMIT_LOSS_TOLERANCE = 0.05

# A head's checks walk the source's lines in blocks of this many
# (:func:`_walk`): 2 MB of complex lines at 2048 points.
_HEAD_BLOCK = 64


@dataclass(frozen=True)
class FreeSpace:
    """Paraxial free-space propagation over a signed distance."""

    distance_m: float


@dataclass(frozen=True)
class ThinLens:
    """Thin lens; negative focal length realizes the conjugate phase."""

    focal_m: float
    aperture_diameter_m: Optional[float] = None

    def __post_init__(self):
        if self.focal_m == 0:
            raise ValueError("thin lens focal length must be nonzero")
        if self.aperture_diameter_m is not None and not (self.aperture_diameter_m > 0):
            raise ValueError("lens aperture diameter must be positive when present")


@dataclass(frozen=True)
class Slit:
    """Hard-edged slit of a given width, centered at center_m."""

    width_m: float
    center_m: float = 0.0

    def __post_init__(self):
        if not (self.width_m > 0):
            raise ValueError("slit width must be positive")


@dataclass(frozen=True)
class Open:
    """Identity element (screen left wide open)."""


OpticalElement = Union[FreeSpace, ThinLens, Slit, Open]


@dataclass(frozen=True)
class ArmSpec:
    """Ordered optical path from the crystal plane to a detector plane.

    Geometry only: every pass takes the wavelength from the field it moves
    or from the bench's source.
    """

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))

    def slits(self) -> list:
        return [el for el in self.elements if isinstance(el, Slit)]


def aperture_transmission(grid: TransverseGrid, width_m: float, center_m: float = 0.0) -> np.ndarray:
    """Amplitude transmission of a hard slit sampled on the grid.

    Interior cells transmit 1, outside cells 0, and each boundary cell the
    fraction of its extent covered by the slit, so the integrated aperture
    width equals ``width_m`` exactly.  The width comes from a ``Slit``,
    ``ThinLens`` or ``DetectorSpec``, which each require it positive.
    """
    y = grid.positions
    dy = grid.spacing_m
    lo, hi = center_m - width_m / 2.0, center_m + width_m / 2.0
    covered = np.minimum(hi, y + dy / 2.0) - np.maximum(lo, y - dy / 2.0)
    mask = np.clip(covered, 0.0, dy) / dy
    # Cells strictly inside transmit exactly 1 (the subtraction above can
    # round to 1 - eps, which would break identity transformations).
    mask[(y - dy / 2.0 >= lo) & (y + dy / 2.0 <= hi)] = 1.0
    return mask


def _lens_phase(grid: TransverseGrid, wavelength_m: float, focal_m: float) -> np.ndarray:
    k = 2.0 * np.pi / wavelength_m
    return np.exp(-1j * k * grid.positions ** 2 / (2.0 * focal_m))


def band_limit_cycles_per_m(grid: TransverseGrid, wavelength_m: float, distance_m: float) -> float:
    """Largest alias-free spatial frequency for this grid and distance."""
    chirp = 2.0 * wavelength_m * abs(distance_m)
    if chirp == 0.0:  # no distance, or one so small that the product underflows
        return 1.0 / wavelength_m
    return min(grid.window_m / chirp, 1.0 / wavelength_m)


def _summed_power(lines: np.ndarray) -> np.ndarray:
    """Sum of |x|^2 over every axis but the last, without an N^2 temporary.

    The lines are read in one pass, as interleaved (real, imaginary)
    float64 pairs; each column is summed in the same order as the real and
    imaginary parts summed apart, so the bytes are theirs.  A C-contiguous
    complex128 array is read without a copy.
    """
    pairs = np.ascontiguousarray(lines.reshape(-1, lines.shape[-1]), dtype=np.complex128).view(np.float64)
    summed = np.einsum("ij,ij->j", pairs, pairs)
    return summed[0::2] + summed[1::2]


def _step(grid: TransverseGrid, wavelength_m: float, distance_m: float):
    """``(transfer, keep)`` of one free-space step: the band-limited
    transfer function and the band it keeps, on which |transfer| = 1."""
    f = grid.frequencies
    keep = np.abs(f) <= band_limit_cycles_per_m(grid, wavelength_m, distance_m)
    return np.exp(-1j * np.pi * wavelength_m * distance_m * f ** 2) * keep, keep


def _refuse_aliasing(power: np.ndarray, keep: np.ndarray, grid: TransverseGrid,
                     wavelength_m: float, distance_m: float, unseen: float = 0.0) -> bool:
    """Raise :class:`SamplingError` if the step's band limit would remove
    more than ``BAND_LIMIT_LOSS_TOLERANCE`` of ``power`` (per frequency);
    return whether the step passes.

    ``unseen`` bounds the summed power of lines left out of ``power``: they
    add at most that much to both the lost and the total power, so the
    step passes only if it would pass with all of it lost.  Short of that
    it is left undecided (False), never refused, while lines are left out.
    """
    total = float(np.sum(power))
    lost = float(np.sum(power[~keep]))
    if not ((lost + unseen) / total > BAND_LIMIT_LOSS_TOLERANCE if total > 0 else unseen > 0):
        return True
    if unseen:
        return False
    raise SamplingError(
        f"propagation over {distance_m} m would alias {lost / total:.1%} of the field "
        f"energy (band limit {band_limit_cycles_per_m(grid, wavelength_m, distance_m):.3g} cycles/m, "
        f"Nyquist {grid.nyquist_cycles_per_m:.3g}); "
        f"use a coarser grid, a smaller window, or a shorter distance")


def _inverse(spectrum: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """Inverse half of a free-space step, along the last axis, over ``spectrum``."""
    spectrum *= transfer
    return np.fft.ifft(spectrum, out=spectrum)


def arm_steps(arm: ArmSpec, grid: TransverseGrid, wavelength_m: float) -> list:
    """The arm read once, as ``(distance_m, factor)`` pairs in order.

    Each free-space step of nonzero distance is one pair, with ``factor``
    the product, in element order, of the per-cell factors of the lenses
    and slits behind it up to the next step, or None when there are none.
    Lenses and slits before the first step make a leading ``(0.0,
    factor)`` pair.  Zero-distance steps and ``Open`` leave every field as
    it is and are dropped.  Every pass through an arm walks these pairs.
    """
    steps = []
    for element in arm.elements:
        if isinstance(element, FreeSpace):
            if element.distance_m != 0.0:
                steps.append((element.distance_m, None))
            continue
        if isinstance(element, ThinLens):
            factor = _lens_phase(grid, wavelength_m, element.focal_m)
            if element.aperture_diameter_m is not None:
                factor = factor * aperture_transmission(grid, element.aperture_diameter_m, 0.0)
        elif isinstance(element, Slit):
            factor = aperture_transmission(grid, element.width_m, element.center_m)
        elif isinstance(element, Open):
            continue
        else:
            raise TypeError(f"unknown optical element {element!r}")
        distance, behind = steps.pop() if steps else (0.0, None)
        steps.append((distance, factor if behind is None else behind * factor))
    return steps


def apply_steps_along(amps: np.ndarray, steps: list, grid: TransverseGrid, wavelength_m: float) -> np.ndarray:
    """Act with an arm's steps (:func:`arm_steps`), in order, on each line
    along the last axis, so an array of rows is a batch of fields.  Each
    step's spectrum passes its band-limit check (:func:`_refuse_aliasing`)
    before the inverse half, and each step overwrites the arm's own
    complex intermediate; ``amps`` is left as it was."""
    owned = False
    for distance, factor in steps:
        if distance != 0.0:
            spectrum = np.fft.fft(amps, out=amps if owned else None)
            transfer, keep = _step(grid, wavelength_m, distance)
            if not keep.all():
                _refuse_aliasing(_summed_power(spectrum), keep, grid, wavelength_m, distance)
            amps, owned = _inverse(spectrum, transfer), True
        if factor is None:
            continue
        if owned:
            amps *= factor
        else:
            amps = amps * factor
            owned = amps.dtype == np.complex128
    return amps


def apply_arm_along(amps: np.ndarray, arm: ArmSpec, grid: TransverseGrid, wavelength_m: float) -> np.ndarray:
    """Act with every element of an arm, in order, on each line along the
    last axis; ``amps`` is left as it was (:func:`apply_steps_along`)."""
    return apply_steps_along(amps, arm_steps(arm, grid, wavelength_m), grid, wavelength_m)


def apply_steps_transpose(lines: np.ndarray, steps: list, grid: TransverseGrid,
                          wavelength_m: float) -> np.ndarray:
    """Act with the transpose of an arm's steps (:func:`arm_steps`) on each
    line along the last axis; ``lines`` (C-contiguous complex128) is
    overwritten.

    Every free-space step is F^-1 diag(t) F with t even in f, a symmetric
    matrix, and every lens or slit is diagonal; so the transpose is the
    steps in reverse order, each factor before its step, each acting
    forward with its own distance and focal length.  It is not
    :func:`reverse_arm`, which negates distances and conjugates the lens:
    that is the inverse.  The band limits are applied but not checked: a
    line here starts as one cell, whose spectrum is flat.
    """
    for distance, factor in reversed(steps):
        if factor is not None:
            lines *= factor
        if distance != 0.0:
            spectrum = np.fft.fft(lines, out=lines)
            lines = _inverse(spectrum, _step(grid, wavelength_m, distance)[0])
    return lines


def _skewed_lines(coef: np.ndarray, n: int) -> np.ndarray:
    """Lines of N cells, complex, held as band coefficients
    (:func:`_check_skewed_head`): ``coef[i, k]`` at position (k - h) mod N.
    Coefficients that meet at one position are summed, as at most one of
    a band's is nonzero there."""
    rows, width = coef.shape
    padded = np.zeros((rows, -(-width // n) * n), dtype=np.complex128)
    padded[:, :width] = coef
    return np.roll(padded.reshape(rows, -1, n).sum(axis=1), -(width // 2), axis=1)


def _skewed_power(coef: np.ndarray, n: int) -> np.ndarray:
    """The summed power, sum over lines of |fft(line)|^2, of lines held as
    band coefficients (:func:`_check_skewed_head`), from the at most
    2h + 1 rows of R in coef = QR: they have coef's Gram, so the same
    summed power, and as Q is unitary each sample rounds at the level of
    the amplitudes.  The DFT of the Gram's lag sums would round at eps
    times the total power on every sample, far above a band edge's."""
    lines = _skewed_lines(np.linalg.qr(coef, mode="r"), n)
    return _summed_power(np.fft.fft(lines, out=lines))


def _walk(n: int, h: int, mirrored: bool, lit: range):
    """The source's lines as :func:`_check_skewed_head` walks them, as
    ``(lo, hi, paired)`` blocks of lines lo ... hi - 1, at most
    ``_HEAD_BLOCK`` each, inside ``lit``, the range of lines outside which
    the source carries no power: line c = N // 2 alone, then outward.  Where
    ``mirrored``, line c + m is paired, standing for line c - m too: for
    every m on an odd grid, and on an even one while line c - m's band of
    2h + 1 diagonals stays clear of cell 0, whose mirror, cell N, is off
    the grid.  Past that, and for every m when not ``mirrored``, the lines
    above and below count alone, a block of each side in turn."""
    c = n // 2
    pairs = (c if n % 2 else max(c - h - 1, 0)) if mirrored else 0
    yield c, c + 1, False
    top = min(c + 1 + pairs, lit.stop)
    for lo in range(c + 1, top, _HEAD_BLOCK):
        yield lo, min(lo + _HEAD_BLOCK, top), True
    up, down = top, 2 * c + 1 - top  # the next line above, and one past the next below
    while up < lit.stop or down > lit.start:
        if up < lit.stop:
            yield up, min(up + _HEAD_BLOCK, lit.stop), False
            up += _HEAD_BLOCK
        if down > lit.start:
            yield max(down - _HEAD_BLOCK, lit.start), down, False
            down -= _HEAD_BLOCK


def _check_skewed_head(band: np.ndarray, steps: list, grid: TransverseGrid, wavelength_m: float):
    """Make the band-limit checks of a head, an arm's ``steps`` but the
    last and the last step's forward half (:func:`arm_steps`), on the
    lines of the source held as its band (``source.source_band``), in the
    skewed frame: line r holds ``band[k, r]`` = A[r, r + k - h] (A is
    symmetric) at position (k - h) mod N, 2h + 1 = ``band.shape[0]``, 0
    elsewhere, and its position m stands for cell (r + m) mod N.  Where no
    step cuts its band on the grid, there is no check to make.

    The skew shifts each line circularly, which commutes with every
    free-space step and keeps its |spectrum|^2, all a check reads; a lens,
    stop or slit acts as factor[(r + m) mod N], a sliding view of the
    factor joined to itself.  A leading factor is folded into the
    coefficients.  Where the first step cuts its band, its check is
    decided first and exactly, from the QR factor of every line's
    coefficients (:func:`_skewed_power`), at O(N (2h + 1)^2).

    Each later check is decided on a walk over the lines (:func:`_walk`),
    brightest first, in blocks: the first step is one BLAS product of a
    block's coefficients with the Toeplitz matrix of the step's kernel
    ifft(transfer), real and interleaved for real coefficients, and each
    check adds the block's summed power.  After each block, every check
    still pending counts ``unseen``, N times the squared norm of the lines
    not yet walked, each tail summed from its dim end: every factor has
    |factor| <= 1 and a line of squared norm p has summed spectral power
    N p, so they add at most ``unseen`` to both its lost and its total
    power.  A check passes once (lost + unseen) / total <= 5%, which
    bounds the loss over all lines (:func:`_refuse_aliasing`); the walk
    stops when every check has passed.  When the lines run out, unseen is
    0, and a check refuses as on all N lines, with the same message; so
    each passes or refuses as the head on all lines does, to the rounding
    of the sums.

    The source is mirror symmetric, A[2c - i, 2c - j] = A[i, j] for c =
    N // 2 (``source.build_source``), and each transfer is even in f; so
    where the leading factor and each factor before the last check are
    mirror symmetric too, bit for bit (tested in O(N)), line 2c - r leaves
    the head as the mirror of line r, with its power reversed in
    frequency.  A check sums the power over the band its step keeps and
    over the rest, both even in f, so a paired line counts twice.
    """
    n, width = grid.n_points, band.shape[0]
    h, c = width // 2, n // 2
    lead = steps[0][1] if steps and steps[0][0] == 0.0 else None
    steps = steps[lead is not None:]
    transfers = [_step(grid, wavelength_m, distance) for distance, _ in steps]
    cuts = [k for k, (_, keep) in enumerate(transfers) if not keep.all()]

    def block(lo, hi):
        # A copy: a band's transposed view would make every product gather its block.
        part = np.ascontiguousarray(band.T[lo:hi])
        if lead is not None:
            part = part * lead.take(np.arange(lo, hi)[:, None] - h + np.arange(width), mode="wrap")
        return part

    if cuts and cuts[0] == 0:
        power = _skewed_power(block(0, n), n)
        _refuse_aliasing(power, transfers[0][1], grid, wavelength_m, steps[0][0])
    powers = {k: np.zeros(n) for k in cuts if k}
    if not powers:
        return
    u = np.fft.ifft(transfers[0][0])
    kernel = sliding_window_view(np.concatenate((u, u[:-1])), n)[(h - np.arange(width)) % n]
    skewed = [None if factor is None else sliding_window_view(np.concatenate((factor, factor[:-1])), n)
              for _, factor in steps]
    tail = slice(1 - n % 2, None)  # the cells whose mirror lies on the grid
    mirrored = all(factor is None or np.array_equal(factor[tail], factor[tail][::-1])
                   for factor in [lead] + [factor for _, factor in steps[:max(powers)]])
    norms = np.einsum("tj,tj->j", band, band)
    before = np.concatenate(([0.0], np.cumsum(norms)))  # before[k]: lines 0 ... k - 1
    after = np.concatenate((np.cumsum(norms[::-1])[::-1], [0.0]))  # after[k]: lines k ... N - 1
    lit = np.flatnonzero(norms)
    first, end = c, c  # the walked lines, and those a paired line stands for: first ... end - 1
    for lo, hi, paired in _walk(n, h, mirrored, range(lit[0], lit[-1] + 1)):
        part = block(lo, hi)
        fields = part @ kernel if np.iscomplexobj(part) else (part @ kernel.view(np.float64)).view(np.complex128)
        last = max(powers)
        for k in range(last + 1):
            if k:
                spectrum = np.fft.fft(fields, out=fields)
                if k in powers:
                    power = _summed_power(spectrum)
                    powers[k] += 2.0 * power if paired else power
                if k == last:
                    break
                fields = _inverse(spectrum, transfers[k][0])
            if skewed[k] is not None:
                fields *= skewed[k][lo:hi]
        first, end = min(first, 2 * c + 1 - hi if paired else lo), max(end, hi)
        unseen = n * float(before[first] + after[end])
        for k in list(powers):
            if _refuse_aliasing(powers[k], transfers[k][1], grid, wavelength_m, steps[k][0], unseen):
                del powers[k]
        if not powers:
            return


def apply_arm(field: Field1D, arm: ArmSpec) -> Field1D:
    """Propagate a field through every element of an arm, in order.

    Negative distances perform the exact inverse of the corresponding
    forward step, so an arm followed by its :func:`reverse_arm` reproduces
    the input to machine precision (absent stops).
    """
    amps = apply_arm_along(field.amplitudes, arm, field.grid, field.wavelength_m)
    return Field1D(field.grid, amps, field.wavelength_m)


def reverse_arm(arm: ArmSpec) -> ArmSpec:
    """Arm traversed backward: reversed order, negated distances,
    conjugate lens phase (realized as a negated focal length)."""
    rev = []
    for element in reversed(arm.elements):
        if isinstance(element, FreeSpace):
            rev.append(FreeSpace(-element.distance_m))
        elif isinstance(element, ThinLens):
            rev.append(ThinLens(-element.focal_m, element.aperture_diameter_m))
        else:
            rev.append(element)
    return ArmSpec(tuple(rev))


def apply_arm_to_axis(joint: BiphotonAmplitude, arm: ArmSpec, axis: str) -> BiphotonAmplitude:
    """Apply an arm along one axis of a joint amplitude.

    Equivalent to row-wise (idler) or column-wise (signal) application of
    :func:`apply_arm`; the other axis is untouched.
    """
    if axis == "idler":
        amps = apply_arm_along(joint.amplitudes, arm, joint.grid_i, joint.wavelength_i_m)
    elif axis == "signal":
        columns = joint.amplitudes.T
        moved = apply_arm_along(columns, arm, joint.grid_s, joint.wavelength_s_m)
        amps = joint.amplitudes if moved is columns else moved.T
    else:
        raise ValueError(f"axis must be 'signal' or 'idler', got {axis!r}")
    return BiphotonAmplitude(joint.grid_s, joint.grid_i, amps,
                             joint.wavelength_s_m, joint.wavelength_i_m)
