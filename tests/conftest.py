from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import ghostbench.elements
from ghostbench import (ArmSpec, FreeSpace, ScanWindow, Slit, ThinLens, apply_arm, apply_arm_to_axis,
                        build_source, default_bench, propagate_bench, run_coincidence_scan)
from ghostbench.config import RunConfig, to_grid
from ghostbench.elements import (BAND_LIMIT_LOSS_TOLERANCE, _lens_phase, _step, aperture_transmission,
                                 band_limit_cycles_per_m)
from ghostbench.errors import SamplingError
from ghostbench.experiment import _d1_weights, _sample_profile

WAVELENGTH = 702.2e-9


@pytest.fixture(scope="session")
def grid():
    return to_grid(RunConfig())


@pytest.fixture(scope="session")
def scan_window():
    return ScanWindow(-4e-3, 4e-3, 161)


@pytest.fixture(scope="session")
def scan_m1(grid, scan_window):
    """Default Measurement-1 scan (slit B = 0.16 mm)."""
    return run_coincidence_scan(default_bench(), scan_window, grid)


@pytest.fixture(scope="session")
def scan_m2(grid, scan_window):
    """Default Measurement-2 scan (slit B open)."""
    return run_coincidence_scan(default_bench(slit_b="open"), scan_window, grid)


def band_limited(arm, grid, wavelength_m):
    """Whether a free-space step of the arm cuts its band on the grid, so
    the signal head has a band-limit check to make."""
    return any(distance != 0.0 and not _step(grid, wavelength_m, distance)[1].all()
               for distance, _ in ghostbench.elements.arm_steps(arm, grid, wavelength_m))


@pytest.fixture()
def head_walks(monkeypatch):
    """The number of the source's lines each walk of a signal head
    transforms (``elements._walk``), one entry per walk."""
    walks, original = [], ghostbench.elements._walk

    def spy(*args):
        walks.append(0)
        for lo, hi, paired in original(*args):
            walks[-1] += hi - lo
            yield lo, hi, paired
    monkeypatch.setattr(ghostbench.elements, "_walk", spy)
    return walks


@contextmanager
def all_lines_head():
    """The signal head's walk deciding no check while lines are left out,
    so it decides each on all N lines: the head run on the whole source."""
    refuse = ghostbench.elements._refuse_aliasing

    def undecided(power, keep, grid, wavelength_m, distance_m, unseen=0.0):
        return False if unseen else refuse(power, keep, grid, wavelength_m, distance_m)
    with mock.patch.object(ghostbench.elements, "_refuse_aliasing", undecided):
        yield


def gaussian_field(grid, waist_m, wavelength_m=WAVELENGTH, center_m=0.0):
    from ghostbench import Field1D
    amps = np.exp(-((grid.positions - center_m) / waist_m) ** 2).astype(complex)
    return Field1D(grid, amps, wavelength_m)


def through(field, *elements):
    """A Field1D sent through an arm made of the given elements."""
    return apply_arm(field, ArmSpec(elements))


def along(joint, axis, *elements):
    """A joint amplitude with the given elements applied along one axis."""
    return apply_arm_to_axis(joint, ArmSpec(elements), axis)


def dense_scan(bench, window, grid):
    """Coincidences and singles of a scan by the dense route.

    Both arms act on all N^2 samples (:func:`propagate_bench`), and D1 is
    read off the whole array; the singles take the idler arm alone.  D2
    reads both profiles as the scan does (point or bucket).
    """
    state = build_source(bench.source, grid)
    joint = propagate_bench(state, bench).amplitudes
    coincidence = np.sum(_d1_weights(bench, grid)[:, None] * np.abs(joint) ** 2, axis=0) * grid.spacing_m
    idler_only = apply_arm_to_axis(state, bench.idler_arm, "idler").amplitudes
    singles = np.sum(np.abs(idler_only) ** 2, axis=0) * grid.spacing_m
    y = window.positions()
    return _sample_profile(grid, coincidence, bench.d2, y), _sample_profile(grid, singles, bench.d2, y)


def numpy_propagate_array(amps, grid, wavelength_m, distance_m):
    """Reference free-space kernel: ``numpy.fft`` along the last axis in
    the array's own layout, every product a new array.  The library's
    kernel (``apply_steps_along``) must give the same bytes and the same
    errors."""
    if distance_m == 0.0:
        return amps.copy()
    f = grid.frequencies
    f_limit = band_limit_cycles_per_m(grid, wavelength_m, distance_m)
    keep = np.abs(f) <= f_limit
    spectrum = np.fft.fft(amps)
    if not keep.all():
        power = np.abs(spectrum) ** 2
        total = float(np.sum(power))
        lost = float(np.sum(power * ~keep))
        if total > 0 and lost / total > BAND_LIMIT_LOSS_TOLERANCE:
            raise SamplingError(
                f"propagation over {distance_m} m would alias {lost / total:.1%} of the field "
                f"energy (band limit {f_limit:.3g} cycles/m, Nyquist {grid.nyquist_cycles_per_m:.3g}); "
                f"use a coarser grid, a smaller window, or a shorter distance")
    transfer = np.exp(-1j * np.pi * wavelength_m * distance_m * f ** 2) * keep
    return np.fft.ifft(spectrum * transfer)


def element_factor(element, grid, wavelength_m):
    """Per-cell factor of one lens or slit, read straight off the element."""
    if isinstance(element, Slit):
        return aperture_transmission(grid, element.width_m, element.center_m)
    assert isinstance(element, ThinLens)
    factor = _lens_phase(grid, wavelength_m, element.focal_m)
    if element.aperture_diameter_m is not None:
        factor = factor * aperture_transmission(grid, element.aperture_diameter_m)
    return factor


def diagonal_product(elements, grid, wavelength_m):
    """Product, in element order, of the factors of the lenses and slits
    among ``elements``; None when there are none."""
    product = None
    for element in elements:
        if isinstance(element, (ThinLens, Slit)):
            factor = element_factor(element, grid, wavelength_m)
            product = factor if product is None else product * factor
    return product


def reference_along(amps, arm, grid, wavelength_m):
    """An arm along the last axis, element by element, each result a new
    array: each free-space step of nonzero distance by
    :func:`numpy_propagate_array`, and the lenses and slits between two
    such steps as one product of their factors, taken in element order
    (:func:`diagonal_product`)."""

    def behind(amps, run):
        product = diagonal_product(run, grid, wavelength_m)
        return amps if product is None else amps * product

    run = []
    for element in arm.elements:
        if isinstance(element, FreeSpace) and element.distance_m != 0.0:
            amps, run = numpy_propagate_array(behind(amps, run), grid, wavelength_m, element.distance_m), []
        else:
            run.append(element)
    return behind(amps, run)


def reference_transpose(lines, arm, grid, wavelength_m):
    """The transpose of an arm on lines along the last axis, element by
    element in reverse order: each lens and slit by its own factor, each
    step of nonzero distance by ``numpy.fft`` with its band-limited
    transfer.  On unit rows a run of two factors gives the bytes of their
    product, since 1.0 * b * a == a * b exactly."""
    for element in reversed(arm.elements):
        if isinstance(element, FreeSpace) and element.distance_m != 0.0:
            lines = np.fft.ifft(np.fft.fft(lines) * _step(grid, wavelength_m, element.distance_m)[0])
        elif isinstance(element, (ThinLens, Slit)):
            lines = lines * element_factor(element, grid, wavelength_m)
    return lines
