import numpy as np
import pytest

from ghostbench import (ArmSpec, BiphotonAmplitude, Field1D, FreeSpace, Open,
                        SamplingError, Slit, ThinLens, TransverseGrid, apply_arm,
                        reverse_arm)
from ghostbench.elements import aperture_transmission

from conftest import along, gaussian_field, through

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

    def test_arm_wavelength_positive(self):
        with pytest.raises(ValueError):
            ArmSpec((Open(),), 0.0)


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
        arm = ArmSpec((FreeSpace(0.255), ThinLens(0.5, 25e-3), FreeSpace(1.0), Slit(0.16e-3)),
                      WAVELENGTH)
        rev = reverse_arm(arm)
        assert isinstance(rev.elements[0], Slit)
        assert rev.elements[1] == FreeSpace(-1.0)
        assert rev.elements[2] == ThinLens(-0.5, 25e-3)
        assert rev.elements[3] == FreeSpace(-0.255)

    def test_backward_arm_undoes_forward_phase(self, grid):
        field = gaussian_field(grid, 1e-3)
        arm = ArmSpec((FreeSpace(0.255), ThinLens(0.5), FreeSpace(0.5)), WAVELENGTH)
        roundtrip = apply_arm(apply_arm(field, arm), reverse_arm(arm))
        assert np.max(np.abs(roundtrip.amplitudes - field.amplitudes)) < 1e-10
