"""Property tests of the element operator on random arms and amplitudes.

Distances stay within the alias-free range of the grid (|z| <= 0.15 m,
below window * pitch / lambda = 0.16 m at 763.5 nm), so no step band-limits
and every arm is exactly invertible up to its stops.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ghostbench import (ArmSpec, BiphotonAmplitude, Field1D, FreeSpace, Open, Slit, ThinLens,
                        TransverseGrid, apply_arm, apply_arm_to_axis, reverse_arm)

GRID = TransverseGrid(128, 2e-3)
SIGNAL, IDLER = 650e-9, 763.5162261625964e-9

distances = st.floats(-0.15, 0.15)
focals = st.one_of(st.floats(0.05, 2.0), st.floats(-2.0, -0.05))
free_space = st.builds(FreeSpace, distances)
unstopped_lens = st.builds(ThinLens, focals)
elements = st.one_of(
    free_space,
    unstopped_lens,
    st.builds(ThinLens, focals, st.floats(0.5e-3, 3e-3)),
    st.builds(Slit, st.floats(0.1e-3, 2e-3), st.floats(-1e-3, 1e-3)),
    st.just(Open()),
)
seeds = st.integers(0, 2 ** 32 - 1)
properties = settings(derandomize=True, max_examples=40, deadline=None)


def random_amplitudes(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@properties
@given(st.lists(elements, min_size=1, max_size=4), st.sampled_from(["signal", "idler"]), seeds)
def test_axis_arm_equals_field_arm_on_each_slice(arm_elements, axis, seed):
    joint = BiphotonAmplitude(GRID, GRID, random_amplitudes(seed, (128, 128)), SIGNAL, IDLER)
    wavelength = SIGNAL if axis == "signal" else IDLER
    arm = ArmSpec(arm_elements, wavelength)
    moved = apply_arm_to_axis(joint, arm, axis).amplitudes
    if axis == "signal":
        expected = np.stack([apply_arm(Field1D(GRID, col, wavelength), arm).amplitudes
                             for col in joint.amplitudes.T], axis=1)
    else:
        expected = np.stack([apply_arm(Field1D(GRID, row, wavelength), arm).amplitudes
                             for row in joint.amplitudes])
    assert np.max(np.abs(moved - expected)) <= 1e-12 * np.max(np.abs(joint.amplitudes))


@properties
@given(st.lists(st.one_of(free_space, unstopped_lens), min_size=1, max_size=4), seeds)
def test_reverse_arm_undoes_unstopped_arm(arm_elements, seed):
    field = Field1D(GRID, random_amplitudes(seed, 128), SIGNAL)
    arm = ArmSpec(arm_elements, SIGNAL)
    back = apply_arm(apply_arm(field, arm), reverse_arm(arm))
    assert np.max(np.abs(back.amplitudes - field.amplitudes)) < 1e-10
