from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from ghostbench import (ArmSpec, BiphotonAmplitude, Field1D, FreeSpace, Open,
                        SamplingError, ScanWindow, Slit, ThinLens, TransverseGrid, apply_arm,
                        build_source, default_bench, reverse_arm, run_coincidence_scan)
from ghostbench.elements import (_inverse, _refuse_aliasing, _step, _summed_power, aperture_transmission,
                                 apply_arm_along, apply_arm_to_axis, apply_steps_along, apply_steps_transpose,
                                 arm_steps)

from conftest import (along, element_factor, gaussian_field, numpy_propagate_array, reference_along,
                      reference_transpose, through)

WAVELENGTH = 702.2e-9


def intensity_radius(field):
    """1/e^2 intensity radius from the second moment (Gaussian profiles)."""
    I = field.intensity
    y = field.grid.positions
    return 2.0 * np.sqrt(np.sum(I * y ** 2) / np.sum(I))


class TestElementValidation:
    def test_lens_needs_nonzero_focal(self):
        with pytest.raises(ValueError):
            ThinLens(0.0)

    def test_lens_aperture_positive(self):
        with pytest.raises(ValueError):
            ThinLens(0.5, -1e-3)

    def test_slit_width_positive(self):
        with pytest.raises(ValueError):
            Slit(0.0)


class TestFreeSpace:
    def test_gaussian_spread_oracle(self, grid):
        # w(z) = w0 sqrt(1 + (z/z_R)^2); at z = z_R the radius grows by sqrt(2).
        w0 = 0.5e-3
        z_r = np.pi * w0 ** 2 / WAVELENGTH
        out = through(gaussian_field(grid, w0), FreeSpace(z_r))
        assert intensity_radius(out) == pytest.approx(w0 * np.sqrt(2), rel=1e-3)

    def test_zero_distance_identity(self, grid):
        field = gaussian_field(grid, 1e-3)
        out = through(field, FreeSpace(0.0))
        assert np.array_equal(out.amplitudes, field.amplitudes)

    @pytest.mark.parametrize("distance", [5e-324, -1e-320])
    def test_subnormal_distance_is_identity(self, grid, distance):
        # 2 lambda |z| underflows to zero here; the step must not divide by it.
        field = gaussian_field(grid, 1e-3)
        out = through(field, FreeSpace(distance))
        assert np.max(np.abs(out.amplitudes - field.amplitudes)) < 1e-14

    def test_forward_backward_inverse(self, grid):
        field = gaussian_field(grid, 1e-3)
        back = through(field, FreeSpace(0.3), FreeSpace(-0.3))
        assert np.max(np.abs(back.amplitudes - field.amplitudes)) < 1e-10

    @pytest.mark.parametrize("distance", [0.1, 0.5, 1.0, -0.745])
    def test_norm_preserved(self, grid, distance):
        field = gaussian_field(grid, 0.8e-3)
        out = through(field, FreeSpace(distance))
        assert out.power() == pytest.approx(field.power(), rel=1e-10)

    def test_linearity(self, grid):
        f = gaussian_field(grid, 1e-3)
        g = gaussian_field(grid, 0.4e-3, center_m=0.8e-3)
        combo = Field1D(grid, 1.7 * f.amplitudes - 0.3j * g.amplitudes, WAVELENGTH)
        lhs = through(combo, FreeSpace(0.4)).amplitudes
        rhs = (1.7 * through(f, FreeSpace(0.4)).amplitudes
               - 0.3j * through(g, FreeSpace(0.4)).amplitudes)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_aliasing_rejected_for_hard_edges_at_long_distance(self, grid):
        # A hard slit keeps spectral tails well beyond the band limit of a
        # 5 m hop on this grid; the step must refuse rather than wrap.
        field = through(Field1D(grid, np.ones(grid.n_points), WAVELENGTH), Slit(0.16e-3))
        with pytest.raises(SamplingError):
            through(field, FreeSpace(5.0))


class TestThinLens:
    def test_focal_spot_oracle(self):
        # Collimated Gaussian through an ideal lens: waist lambda f / (pi w).
        g = TransverseGrid(8192, 15e-3)
        w_in = 2e-3
        out = through(gaussian_field(g, w_in), ThinLens(0.5), FreeSpace(0.5))
        assert intensity_radius(out) == pytest.approx(WAVELENGTH * 0.5 / (np.pi * w_in), rel=2e-3)

    def test_infinite_focal_length_is_identity(self, grid):
        field = gaussian_field(grid, 1e-3)
        out = through(field, ThinLens(1e12))
        assert np.max(np.abs(out.amplitudes - field.amplitudes)) < 1e-9

    def test_unit_magnification_imaging_of_point(self, grid):
        # Point-like source at 2f images at 2f with magnification -1.
        source = gaussian_field(grid, 20e-6, center_m=0.3e-3)
        image = through(source, FreeSpace(1.0), ThinLens(0.5), FreeSpace(1.0))
        peak = grid.positions[np.argmax(image.intensity)]
        assert peak == pytest.approx(-0.3e-3, abs=grid.spacing_m)

    def test_zero_focal_rejected(self, grid):
        with pytest.raises(ValueError):
            through(gaussian_field(grid, 1e-3), ThinLens(0.0))


class TestAperture:
    def test_power_ratio_exact_on_aligned_grid(self):
        # Slit edges on cell boundaries: 0.16 mm is exactly 5 cells here.
        g = TransverseGrid(1024, 16.384e-3)
        assert 0.16e-3 / g.spacing_m == pytest.approx(5.0, rel=1e-12)
        out = through(Field1D(g, np.ones(1024), WAVELENGTH), Slit(0.16e-3))
        assert out.power() / (1024 * g.spacing_m) == pytest.approx(0.16e-3 / g.window_m, rel=1e-9)

    def test_power_ratio_within_edge_cell_bound(self, grid):
        out = through(Field1D(grid, np.ones(grid.n_points), WAVELENGTH), Slit(0.16e-3))
        ratio = out.power() / (grid.n_points * grid.spacing_m)
        # Fractional edge cells can shift the power by at most half a cell.
        assert abs(ratio - 0.16e-3 / grid.window_m) <= grid.spacing_m / grid.window_m

    def test_effective_width_exact(self, grid):
        # Fraction-weighted edges keep the integrated aperture width exact.
        t = aperture_transmission(grid, 0.16e-3, 0.0)
        assert np.sum(t) * grid.spacing_m == pytest.approx(0.16e-3, rel=1e-12)

    def test_full_window_is_identity(self, grid):
        field = gaussian_field(grid, 1e-3)
        out = through(field, Slit(2 * grid.extent_m + 1.0))
        assert np.array_equal(out.amplitudes, field.amplitudes)

    def test_nonpositive_width_rejected(self, grid):
        with pytest.raises(ValueError):
            through(gaussian_field(grid, 1e-3), Slit(-1e-4))


class TestFraunhofer:
    def test_single_slit_far_field_at_bench_distance(self, grid):
        # 0.16 mm slit observed 500 mm downstream (Fresnel number 0.073):
        # the first zero sits within 2% of lambda L / w and the sinc^2
        # shape holds at the percent level, limited by the finite-distance
        # Fresnel correction, not by the propagator.
        u = Field1D(grid, np.ones(grid.n_points), WAVELENGTH)
        I = through(u, Slit(0.16e-3), FreeSpace(0.5)).intensity
        I = I / I.max()
        zero_oracle = WAVELENGTH * 0.5 / 0.16e-3
        y = grid.positions
        minima = [j for j in range(1, y.size - 1)
                  if I[j] < 1e-3 and I[j] <= I[j - 1] and I[j] <= I[j + 1] and y[j] > 0]
        assert minima, "no deep minimum found"
        assert y[minima[0]] == pytest.approx(zero_oracle, rel=0.02)
        sel = np.abs(y) <= 3 * zero_oracle
        ref = np.sinc(y[sel] / zero_oracle) ** 2
        err = np.linalg.norm(I[sel] - ref) / np.linalg.norm(ref)
        assert err < 0.03

    def test_single_slit_exact_fraunhofer_in_lens_focal_plane(self):
        # At the focal plane of a lens the far-field mapping is exact, so
        # the sinc^2 oracle holds to 1e-3 once the window is wide enough
        # that the band limit W/(2 lambda z) truncates only negligible
        # slit-spectrum tails and the grid resolves the slit edges.
        g = TransverseGrid(32768, 30e-3)
        u = Field1D(g, np.ones(g.n_points), WAVELENGTH)
        I = through(u, Slit(0.16e-3), ThinLens(0.5), FreeSpace(0.5)).intensity
        I = I / I.max()
        zero_oracle = WAVELENGTH * 0.5 / 0.16e-3
        sel = np.abs(g.positions) <= 3 * zero_oracle
        ref = np.sinc(g.positions[sel] / zero_oracle) ** 2
        err = np.linalg.norm(I[sel] - ref) / np.linalg.norm(ref)
        assert err < 1e-3


class TestClassicalImaging:
    def test_two_f_imaging_of_slit(self, grid):
        # 0.16 mm slit at a = 2f imaged at b = 2f: FWHM within 10%,
        # centroid mirrored (magnification -1).
        u = Field1D(grid, np.ones(grid.n_points), WAVELENGTH)
        image = through(u, Slit(0.16e-3, center_m=0.5e-3), FreeSpace(1.0),
                        ThinLens(0.5, aperture_diameter_m=25e-3), FreeSpace(1.0)).intensity
        from ghostbench.analysis import profile_fwhm
        y = grid.positions
        assert profile_fwhm(y, image) == pytest.approx(0.16e-3, rel=0.10)
        window = np.abs(y + 0.5e-3) <= 0.5e-3
        centroid = np.sum(image[window] * y[window]) / np.sum(image[window])
        assert centroid == pytest.approx(-0.5e-3, abs=0.02e-3)


class TestApplyToAxis:
    @pytest.fixture()
    def separable_joint(self, grid):
        f = np.exp(-(grid.positions / 1e-3) ** 2)
        g = np.exp(-((grid.positions - 0.5e-3) / 0.7e-3) ** 2)
        return (BiphotonAmplitude(grid, grid, np.outer(f, g), WAVELENGTH, WAVELENGTH),
                Field1D(grid, f, WAVELENGTH), Field1D(grid, g, WAVELENGTH))

    def test_open_is_identity(self, separable_joint):
        joint, _, _ = separable_joint
        assert along(joint, "signal", Open()).amplitudes is joint.amplitudes

    def test_separability_preserved(self, separable_joint):
        joint, f, g = separable_joint
        moved = along(joint, "idler", FreeSpace(0.4))
        g_moved = through(g, FreeSpace(0.4))
        expected = np.outer(f.amplitudes, g_moved.amplitudes)
        assert np.max(np.abs(moved.amplitudes - expected)) < 1e-12

    def test_axis_actions_commute(self, separable_joint):
        joint, _, _ = separable_joint
        lens = ThinLens(0.5, 25e-3)
        hop = FreeSpace(0.3)
        a = along(along(joint, "signal", lens), "idler", hop)
        b = along(along(joint, "idler", hop), "signal", lens)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    def test_bad_axis_rejected(self, separable_joint):
        joint, _, _ = separable_joint
        with pytest.raises(ValueError):
            along(joint, "both", Open())


class TestReverseArm:
    def test_reversal(self):
        arm = ArmSpec((FreeSpace(0.255), ThinLens(0.5, 25e-3), FreeSpace(1.0), Slit(0.16e-3)))
        rev = reverse_arm(arm)
        assert isinstance(rev.elements[0], Slit)
        assert rev.elements[1] == FreeSpace(-1.0)
        assert rev.elements[2] == ThinLens(-0.5, 25e-3)
        assert rev.elements[3] == FreeSpace(-0.255)

    def test_backward_arm_undoes_forward_phase(self, grid):
        field = gaussian_field(grid, 1e-3)
        arm = ArmSpec((FreeSpace(0.255), ThinLens(0.5), FreeSpace(0.5)))
        roundtrip = apply_arm(apply_arm(field, arm), reverse_arm(arm))
        assert np.max(np.abs(roundtrip.amplitudes - field.amplitudes)) < 1e-10


# 512^2 samples reach the threaded transform on a multi-core host.
KERNEL_GRID = TransverseGrid(512, 2e-3)


def _strided(amps):
    """The same values in a non-contiguous view (every other column of a wider array)."""
    base = np.zeros((amps.shape[0], 2 * amps.shape[1]), dtype=amps.dtype)
    base[:, ::2] = amps
    return base[:, ::2]


class TestKernelOracle:
    """The free-space kernel (``apply_steps_along``) runs along the last
    axis of any layout, here the lines along either axis of an array, as
    a view; it gives the bytes and the errors of ``numpy.fft`` along the
    last axis (:func:`conftest.numpy_propagate_array`), and the dense
    oracle's signal axis (``apply_arm_to_axis``) gives those of
    ``numpy.fft`` on each column."""

    @pytest.fixture(scope="class")
    def field(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        # A Gaussian spectrum 15e3 cycles/m wide on both axes, against a
        # Nyquist of 64e3: the band limit of a 0.01 m step (2.8e5) keeps every
        # frequency, that of a 0.1 m step (2.8e4) cuts 1e-4 of the power, and
        # that of a 0.5 m step (5.7e3) cuts about half, which is refused.
        envelope = np.exp(-(KERNEL_GRID.frequencies / 15e3) ** 2)
        return np.fft.ifft2(np.fft.fft2(raw) * np.outer(envelope, envelope))

    @staticmethod
    def outcome(kernel, *args):
        try:
            return kernel(*args)
        except SamplingError as exc:
            return str(exc)

    @staticmethod
    def lines(amps, axis):
        """The lines along ``axis`` of ``amps``, as the last axis of a view."""
        return np.moveaxis(amps, axis, -1)

    @pytest.mark.parametrize("distance", [0.0, 0.01, -0.1, 0.5])
    @pytest.mark.parametrize("layout, axis", [
        ("C", 0), ("C", 1), ("F", 0), ("F", 1), ("strided", 0), ("strided", 1),
        ("row", 0), ("column", 0)])
    def test_same_bytes_and_errors_as_numpy_fft(self, field, layout, axis, distance):
        amps = self.lines({"C": field, "F": np.asfortranarray(field), "strided": _strided(field),
                           "row": field[3], "column": field[:, 3]}[layout], axis)
        before = amps.copy()
        expected = self.outcome(numpy_propagate_array, amps, KERNEL_GRID, WAVELENGTH, distance)
        got = self.outcome(apply_steps_along, amps, [(distance, None)], KERNEL_GRID, WAVELENGTH)
        assert isinstance(expected, str) == (distance == 0.5)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert np.array_equal(amps, before)

    ARM = ArmSpec((FreeSpace(0.01), ThinLens(0.5, 1.5e-3), Slit(1e-3, 1e-4), Open(), FreeSpace(-0.1), Slit(2e-3)))

    @pytest.mark.parametrize("layout, axis", [("C", 0), ("C", 1), ("F", 0), ("strided", 1), ("row", 0)])
    def test_arm_overwrites_only_its_own_intermediates(self, field, layout, axis):
        # Lens and slit products and each step's forward transform overwrite
        # the arm's intermediate in place; the bytes are those of one new
        # array per step and per product of the lens and slit factors
        # between steps, and the caller's array is left as it was.
        amps = self.lines({"C": field, "F": np.asfortranarray(field), "strided": _strided(field),
                           "row": field[3]}[layout], axis)
        before = amps.copy()
        expected = reference_along(amps, self.ARM, KERNEL_GRID, WAVELENGTH)
        got = apply_arm_along(amps, self.ARM, KERNEL_GRID, WAVELENGTH)
        assert np.array_equal(got, expected)
        assert np.array_equal(amps, before)

    def test_signal_axis_equals_numpy_fft_on_each_column(self, field):
        joint = BiphotonAmplitude(KERNEL_GRID, KERNEL_GRID, field, WAVELENGTH, WAVELENGTH)
        got = apply_arm_to_axis(joint, self.ARM, "signal").amplitudes
        expected = np.stack([reference_along(column, self.ARM, KERNEL_GRID, WAVELENGTH) for column in field.T],
                            axis=1)
        assert np.array_equal(got, expected)
        assert np.array_equal(joint.amplitudes, field)


class Mirror:
    """An element no pass knows."""


# Every arm the config builds: the reference signal arm, the idler arm
# with slit B in and open, and the signal arm with either step at zero.
# The reference source is degenerate, so every one runs at WAVELENGTH.
CONFIG_ARMS = {
    "signal": default_bench().signal_arm,
    "idler-slit": default_bench().idler_arm,
    "idler-open": default_bench(slit_b="open").idler_arm,
    "lens-first": default_bench(crystal_to_lens_m=0.0).signal_arm,
    "lens-at-slit-a": default_bench(lens_to_slit_m=0.0).signal_arm,
}


class TestArmSteps:
    """An arm is read once into (distance, factor) steps, and every pass
    through it walks them."""

    def test_groups_a_mixed_arm(self, grid):
        lens, slit = ThinLens(0.5, 4e-3), Slit(1e-3, 1e-4)
        arm = ArmSpec((Slit(2e-3), ThinLens(0.3), FreeSpace(0.0), Open(), FreeSpace(0.1), lens, slit,
                       FreeSpace(0.0), FreeSpace(-0.2)))
        steps = arm_steps(arm, grid, WAVELENGTH)
        # The leading slit and lens act before any step; the zero steps and
        # Open are gone; the lens next to the slit is one product, in order.
        assert [distance for distance, _ in steps] == [0.0, 0.1, -0.2]
        lead = element_factor(Slit(2e-3), grid, WAVELENGTH) * element_factor(ThinLens(0.3), grid, WAVELENGTH)
        assert steps[0][1].tobytes() == lead.tobytes()
        behind = element_factor(lens, grid, WAVELENGTH) * element_factor(slit, grid, WAVELENGTH)
        assert steps[1][1].tobytes() == behind.tobytes()
        assert steps[2][1] is None

    def test_identity_arms_have_no_steps(self, grid):
        assert arm_steps(ArmSpec(()), grid, WAVELENGTH) == []
        assert arm_steps(ArmSpec((Open(), FreeSpace(0.0))), grid, WAVELENGTH) == []

    def test_unknown_element_raises(self, grid):
        arm = ArmSpec((FreeSpace(0.1), Mirror()))
        with pytest.raises(TypeError, match="unknown optical element"):
            apply_arm_along(np.ones(grid.n_points, dtype=complex), arm, grid, WAVELENGTH)
        with pytest.raises(TypeError, match="unknown optical element"):
            apply_steps_transpose(np.ones((1, grid.n_points), dtype=complex), arm_steps(arm, grid, WAVELENGTH), grid,
                                  WAVELENGTH)

    @pytest.mark.parametrize("arm_name", ["signal_arm", "idler_arm"])
    def test_scan_with_unknown_element_raises(self, arm_name):
        bench = default_bench()
        arm = getattr(bench, arm_name)
        bench = replace(bench, **{arm_name: replace(arm, elements=arm.elements + (Mirror(),))})
        with pytest.raises(TypeError, match="unknown optical element"):
            run_coincidence_scan(bench, ScanWindow(-1e-3, 1e-3, 5), TransverseGrid(256, 15e-3))

    @pytest.mark.parametrize("name", CONFIG_ARMS)
    def test_config_arms_equal_the_element_reference(self, grid, name):
        arm, wavelength = CONFIG_ARMS[name], WAVELENGTH
        source = build_source(default_bench().source, grid).amplitudes
        # The rows, and the columns as the dense oracle's signal axis reads them.
        for amps in (source, source.T):
            expected = reference_along(amps, arm, grid, wavelength)
            assert apply_arm_along(amps, arm, grid, wavelength).tobytes() == expected.tobytes()
        # Unit rows at the cells around the axis, as the backward kernels start.
        rows = np.zeros((9, grid.n_points), dtype=np.complex128)
        rows[np.arange(9), grid.n_points // 2 - 4 + np.arange(9)] = 1.0
        expected = reference_transpose(rows, arm, grid, wavelength)
        transposed = apply_steps_transpose(rows.copy(), arm_steps(arm, grid, wavelength), grid, wavelength)
        assert transposed.tobytes() == expected.tobytes()

    def test_unseen_power_counts_in_every_check(self):
        # The 1 m step keeps a sixth of the band on this grid, which holds
        # all of a broad beam's power but rounding.  Lines left out that may
        # carry 4% as much again leave its check passed; 6% leave it
        # undecided, never refused while lines are left out.  With none
        # left out, a narrow beam that loses over 5% is refused, and lines
        # that carry no power pass.
        grid = TransverseGrid(128, 2e-3)
        keep = _step(grid, WAVELENGTH, 1.0)[1]
        broad = np.abs(np.fft.fft(gaussian_field(grid, 0.6e-3).amplitudes)) ** 2
        narrow = np.abs(np.fft.fft(gaussian_field(grid, 20e-6).amplitudes)) ** 2
        dark = np.zeros(grid.n_points)
        total = float(np.sum(broad))

        def decided(power, unseen=0.0):
            return _refuse_aliasing(power, keep, grid, WAVELENGTH, 1.0, unseen)
        assert decided(broad, 0.04 * total) is True and decided(broad, 0.06 * total) is False
        assert decided(narrow, total) is False and decided(dark, total) is False
        assert decided(broad) is True and decided(dark) is True
        with pytest.raises(SamplingError, match="propagation over 1.0 m"):
            decided(narrow)


class TestSummedPower:
    """The per-frequency power reads its lines once, as float64 pairs; its
    bytes are those of the real and imaginary parts summed apart.  The
    layouts are those the transforms hand it: a field, a stack of lines,
    and a batch of stacks, each C-contiguous."""

    @staticmethod
    def two_sums(lines):
        by_line = lines.reshape(-1, lines.shape[-1])
        return (np.einsum("ij,ij->j", by_line.real, by_line.real)
                + np.einsum("ij,ij->j", by_line.imag, by_line.imag))

    @pytest.mark.parametrize("layout", ["field", "lines", "batch"])
    def test_equals_two_einsums(self, layout):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((3, 96, 128)) + 1j * rng.standard_normal((3, 96, 128))
        lines = {"field": raw[0, 0], "lines": raw[0], "batch": raw}[layout]
        assert np.array_equal(_summed_power(lines), self.two_sums(lines))


class TestSplitTransform:
    """Batches of lines, as the transforms take them: a few rows, an odd
    row count and a 3-D batch.  Each transform is one ``numpy.fft`` call
    on the calling thread."""

    SHAPES = {"small": (7, 256), "odd-rows": (513, 512), "batch": (3, 171, 512)}

    @pytest.fixture(scope="class", params=list(SHAPES))
    def lines(self, request):
        rng = np.random.default_rng(23)
        shape = self.SHAPES[request.param]
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def step(lines):
        # A step short enough that its band limit keeps every frequency.
        grid = TransverseGrid(lines.shape[-1], 2e-3)
        assert _step(grid, WAVELENGTH, 1e-6)[1].all()
        return grid, [(1e-6, None)]

    def test_same_bytes_as_scipy_fft(self, lines):
        # scipy serves here only as an independent FFT: a free-space step,
        # forward half, transfer and inverse half, gives its bytes, and so
        # does the inverse half alone with a unit transfer.
        grid, steps = self.step(lines)
        expected = scipy.fft.ifft(scipy.fft.fft(lines) * _step(grid, WAVELENGTH, 1e-6)[0])
        assert np.array_equal(apply_steps_along(lines, steps, grid, WAVELENGTH), expected)
        assert np.array_equal(_inverse(lines.copy(), np.ones(lines.shape[-1])), scipy.fft.ifft(lines))

    def test_steps_leave_the_callers_lines(self, lines):
        # Lines already contiguous along the last axis are transformed into
        # a new array, never over the caller's.
        grid, steps = self.step(lines)
        amps = lines.copy()
        got = apply_steps_along(amps, steps, grid, WAVELENGTH)
        assert not np.shares_memory(got, amps)
        assert np.array_equal(amps, lines)
