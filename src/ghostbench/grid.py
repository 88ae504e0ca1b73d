"""Transverse sampling grids and complex field containers.

The simulation is one-dimensional in the transverse coordinate y.  A
``TransverseGrid`` fixes a uniform window of ``n_points`` samples over
[-extent_m, +extent_m); its conjugate spatial frequencies (cycles/meter)
are the variables used by the angular-spectrum propagator.  ``Field1D``
holds one photon's complex amplitude on such a grid, ``BiphotonAmplitude``
the joint two-photon amplitude A(y_s, y_i) on a signal grid x idler grid.

All containers are immutable after construction and every operation is a
pure function, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MIN_GRID_POINTS = 16


@dataclass(frozen=True)
class TransverseGrid:
    """Uniform 1-D sampling of a transverse window.

    Parameters
    ----------
    n_points : int
        Number of samples, at least ``MIN_GRID_POINTS``.
    extent_m : float
        Half-width of the spatial window in meters.  The sample pitch is
        ``2 * extent_m / n_points`` so the window is exactly periodic.
    """

    n_points: int
    extent_m: float

    def __post_init__(self):
        if int(self.n_points) != self.n_points or self.n_points < MIN_GRID_POINTS:
            raise ValueError(f"n_points must be an integer >= {MIN_GRID_POINTS}, got {self.n_points}")
        if not (self.extent_m > 0):
            raise ValueError(f"extent_m must be positive, got {self.extent_m}")

    @property
    def spacing_m(self) -> float:
        return 2.0 * self.extent_m / self.n_points

    @property
    def window_m(self) -> float:
        return 2.0 * self.extent_m

    @property
    def nyquist_cycles_per_m(self) -> float:
        return 1.0 / (2.0 * self.spacing_m)

    @cached_property
    def positions(self) -> np.ndarray:
        """Sample positions in meters; includes y = 0 exactly."""
        y = (np.arange(self.n_points) - self.n_points // 2) * self.spacing_m
        y.setflags(write=False)
        return y

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Conjugate spatial frequencies in cycles/meter, FFT ordering.

        For even ``n_points`` the single Nyquist sample is reported as
        +Nyquist so the samples span (-Nyquist, +Nyquist]; the propagator
        only uses f**2 so the sign choice does not affect any transform.
        """
        f = np.fft.fftfreq(self.n_points, d=self.spacing_m)
        if self.n_points % 2 == 0:
            f = f.copy()
            f[self.n_points // 2] = -f[self.n_points // 2]
        f.setflags(write=False)
        return f

    def index_of(self, position_m: float) -> int:
        """Nearest sample index to a position; raises outside the window."""
        if abs(position_m) > self.extent_m:
            raise ValueError(f"position {position_m} m outside grid window +-{self.extent_m} m")
        idx = int(round(position_m / self.spacing_m)) + self.n_points // 2
        return min(max(idx, 0), self.n_points - 1)


@dataclass(frozen=True)
class SamplingReport:
    """Diagnostic from :func:`sampling_check`.

    ``adequate`` is True when the quadratic propagation phase of the
    transfer function advances by less than pi between adjacent frequency
    samples everywhere on the grid; ``max_distance_m`` is the largest
    |distance| for which that holds.
    """

    adequate: bool
    max_phase_step_rad: float
    max_distance_m: float


def sampling_check(grid: TransverseGrid, wavelength_m: float, distance_m: float) -> SamplingReport:
    """Check whether a propagation distance is alias-free on this grid.

    The angular-spectrum transfer function exp(-i pi lambda z f^2) is
    sampled at df = 1/window; its largest per-sample phase increment sits
    at the Nyquist frequency and equals pi * lambda * |z| / (spacing *
    window).  Distances of either sign are allowed (backward propagation
    is used by the advanced-wave oracle).  This is a diagnostic only;
    callers decide whether to fail.
    """
    if not (wavelength_m > 0):
        raise ValueError(f"wavelength_m must be positive, got {wavelength_m}")
    max_distance = grid.spacing_m * grid.window_m / wavelength_m
    step = np.pi * wavelength_m * abs(distance_m) / (grid.spacing_m * grid.window_m)
    return SamplingReport(adequate=step < np.pi or distance_m == 0.0,
                          max_phase_step_rad=float(step),
                          max_distance_m=float(max_distance))


@dataclass(frozen=True)
class Field1D:
    """Complex optical amplitude over a :class:`TransverseGrid`."""

    grid: TransverseGrid
    amplitudes: np.ndarray
    wavelength_m: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.n_points,):
            raise ValueError(f"amplitude array shape {amps.shape} does not match grid ({self.grid.n_points},)")
        if not (self.wavelength_m > 0):
            raise ValueError(f"wavelength_m must be positive, got {self.wavelength_m}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def power(self) -> float:
        """Squared L2 norm, sum |a_k|^2 * spacing."""
        return float(np.sum(self.intensity) * self.grid.spacing_m)

    def norm(self) -> float:
        return float(np.sqrt(self.power()))


@dataclass(frozen=True)
class BiphotonAmplitude:
    """Joint amplitude A(y_s, y_i) over signal grid x idler grid.

    Axis 0 is the signal coordinate, axis 1 the idler coordinate.
    """

    grid_s: TransverseGrid
    grid_i: TransverseGrid
    amplitudes: np.ndarray
    wavelength_s_m: float
    wavelength_i_m: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        expected = (self.grid_s.n_points, self.grid_i.n_points)
        if amps.shape != expected:
            raise ValueError(f"joint amplitude shape {amps.shape} does not match grids {expected}")
        if not (self.wavelength_s_m > 0 and self.wavelength_i_m > 0):
            raise ValueError("wavelengths must be positive")
        object.__setattr__(self, "amplitudes", amps)

    def joint_norm(self) -> float:
        """sqrt( sum |A|^2 * dy_s * dy_i )."""
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)
                             * self.grid_s.spacing_m * self.grid_i.spacing_m))

    def normalized(self) -> "BiphotonAmplitude":
        n = self.joint_norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero-norm amplitude")
        return BiphotonAmplitude(self.grid_s, self.grid_i, self.amplitudes / n,
                                 self.wavelength_s_m, self.wavelength_i_m)
