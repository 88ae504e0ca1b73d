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

from .errors import SamplingError
from .grid import BiphotonAmplitude, Field1D, TransverseGrid

# Fraction of spectral energy the band limit may remove before the
# propagation step is considered aliased and refused.
BAND_LIMIT_LOSS_TOLERANCE = 0.05


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
    """Ordered optical path from the crystal plane to a detector plane."""

    elements: tuple
    wavelength_m: float

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not (self.wavelength_m > 0):
            raise ValueError("arm wavelength must be positive")

    def slits(self) -> list:
        return [el for el in self.elements if isinstance(el, Slit)]


def aperture_transmission(grid: TransverseGrid, width_m: float, center_m: float = 0.0) -> np.ndarray:
    """Amplitude transmission of a hard slit sampled on the grid.

    Interior cells transmit 1, outside cells 0, and each boundary cell the
    fraction of its extent covered by the slit, so the integrated aperture
    width equals ``width_m`` exactly.
    """
    if not (width_m > 0):
        raise ValueError("aperture width must be positive")
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
    if distance_m == 0.0:
        return 1.0 / wavelength_m
    chirp_limit = grid.window_m / (2.0 * wavelength_m * abs(distance_m))
    return min(chirp_limit, 1.0 / wavelength_m)


def _propagate_array(amps: np.ndarray, axis: int, grid: TransverseGrid,
                     wavelength_m: float, distance_m: float) -> np.ndarray:
    """Band-limited angular-spectrum propagation along one array axis."""
    if distance_m == 0.0:
        return amps.copy()
    f = grid.frequencies
    f_limit = band_limit_cycles_per_m(grid, wavelength_m, distance_m)
    keep = np.abs(f) <= f_limit
    shape = [1] * amps.ndim
    shape[axis] = grid.n_points
    spectrum = np.fft.fft(amps, axis=axis)
    if not keep.all():
        power = np.abs(spectrum) ** 2
        total = float(np.sum(power))
        lost = float(np.sum(power * (~keep).reshape(shape)))
        if total > 0 and lost / total > BAND_LIMIT_LOSS_TOLERANCE:
            raise SamplingError(
                f"propagation over {distance_m} m would alias {lost / total:.1%} of the field "
                f"energy (band limit {f_limit:.3g} cycles/m, Nyquist {grid.nyquist_cycles_per_m:.3g}); "
                f"use a coarser grid, a smaller window, or a shorter distance")
    transfer = np.exp(-1j * np.pi * wavelength_m * distance_m * f ** 2) * keep
    return np.fft.ifft(spectrum * transfer.reshape(shape), axis=axis)


def _apply(amps: np.ndarray, element: OpticalElement, axis: int, grid: TransverseGrid,
           wavelength_m: float) -> np.ndarray:
    """Act with one element along one array axis; the other axes are untouched."""
    if isinstance(element, Open):
        return amps
    if isinstance(element, FreeSpace):
        return _propagate_array(amps, axis, grid, wavelength_m, element.distance_m)
    if isinstance(element, ThinLens):
        factor = _lens_phase(grid, wavelength_m, element.focal_m)
        if element.aperture_diameter_m is not None:
            factor = factor * aperture_transmission(grid, element.aperture_diameter_m, 0.0)
    elif isinstance(element, Slit):
        factor = aperture_transmission(grid, element.width_m, element.center_m)
    else:
        raise TypeError(f"unknown optical element {element!r}")
    shape = [1] * amps.ndim
    shape[axis] = grid.n_points
    return amps * factor.reshape(shape)


def apply_arm(field: Field1D, arm: ArmSpec) -> Field1D:
    """Propagate a field through every element of an arm, in order.

    Negative distances perform the exact inverse of the corresponding
    forward step, so an arm followed by its :func:`reverse_arm` reproduces
    the input to machine precision (absent stops).
    """
    amps = field.amplitudes
    for element in arm.elements:
        amps = _apply(amps, element, 0, field.grid, field.wavelength_m)
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
    return ArmSpec(tuple(rev), arm.wavelength_m)


_AXES = {"signal": 0, "idler": 1}


def apply_arm_to_axis(joint: BiphotonAmplitude, arm: ArmSpec, axis: str) -> BiphotonAmplitude:
    """Apply an arm along one axis of a joint amplitude.

    Equivalent to row-wise (idler) or column-wise (signal) application of
    :func:`apply_arm`; the other axis is untouched.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be 'signal' or 'idler', got {axis!r}")
    ax = _AXES[axis]
    grid = joint.grid_s if ax == 0 else joint.grid_i
    wavelength = joint.wavelength_s_m if ax == 0 else joint.wavelength_i_m
    amps = joint.amplitudes
    for element in arm.elements:
        amps = _apply(amps, element, ax, grid, wavelength)
    return BiphotonAmplitude(joint.grid_s, joint.grid_i, amps,
                             joint.wavelength_s_m, joint.wavelength_i_m)
