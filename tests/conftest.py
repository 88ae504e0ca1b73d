import numpy as np
import pytest

from ghostbench import (ArmSpec, ScanWindow, apply_arm, apply_arm_to_axis, default_bench,
                        run_coincidence_scan)
from ghostbench.config import RunConfig, to_grid

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
