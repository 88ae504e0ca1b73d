import numpy as np
import pytest

from ghostbench import (ArmSpec, ScanWindow, apply_arm, apply_arm_to_axis, default_bench,
                        propagate_bench, run_coincidence_scan)
from ghostbench.config import RunConfig, to_grid
from ghostbench.experiment import _d1_weights, build_bench_state

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


def gaussian_field(grid, waist_m, wavelength_m=WAVELENGTH, center_m=0.0):
    from ghostbench import Field1D
    amps = np.exp(-((grid.positions - center_m) / waist_m) ** 2).astype(complex)
    return Field1D(grid, amps, wavelength_m)


def through(field, *elements):
    """A Field1D sent through an arm made of the given elements."""
    return apply_arm(field, ArmSpec(elements, field.wavelength_m))


def along(joint, axis, *elements):
    """A joint amplitude with the given elements applied along one axis."""
    return apply_arm_to_axis(joint, ArmSpec(elements, joint.wavelength_s_m), axis)


def dense_scan(bench, window, grid):
    """Coincidences and singles of a point-D2 scan by the dense route.

    Both arms act on all N^2 samples (:func:`propagate_bench`), and D1 is
    read off the whole array; the singles take the idler arm alone.
    """
    assert bench.d2.mode == "point"
    state = build_bench_state(bench, grid)
    joint = propagate_bench(state, bench).amplitudes
    coincidence = np.sum(_d1_weights(bench, grid)[:, None] * np.abs(joint) ** 2, axis=0) * grid.spacing_m
    idler_only = apply_arm_to_axis(state, bench.idler_arm, "idler").amplitudes
    singles = np.sum(np.abs(idler_only) ** 2, axis=0) * grid.spacing_m
    y = window.positions()
    return np.interp(y, grid.positions, coincidence), np.interp(y, grid.positions, singles)
