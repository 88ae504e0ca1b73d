import numpy as np
import pytest

from ghostbench import BiphotonAmplitude, Field1D, TransverseGrid, sampling_check

WAVELENGTH = 702.2e-9


class TestMakeGrid:
    def test_default_spacing(self):
        g = TransverseGrid(1024, 15e-3)
        assert g.spacing_m == 2 * 0.015 / 1024
        assert g.spacing_m == pytest.approx(2.9297e-5, rel=1e-4)

    def test_coarse_grid_spacing_and_nyquist(self):
        g = TransverseGrid(16, 1.0)
        assert g.spacing_m == 0.125
        assert g.nyquist_cycles_per_m == 4.0

    def test_default_nyquist(self):
        g = TransverseGrid(1024, 15e-3)
        assert g.nyquist_cycles_per_m == pytest.approx(17066.7, rel=1e-4)

    @pytest.mark.parametrize("n", [15, 8, 0, -4])
    def test_rejects_too_few_points(self, n):
        with pytest.raises(ValueError):
            TransverseGrid(n, 15e-3)

    @pytest.mark.parametrize("extent", [0.0, -1e-3])
    def test_rejects_nonpositive_extent(self, extent):
        with pytest.raises(ValueError):
            TransverseGrid(1024, extent)

    def test_positions_include_zero_and_span_window(self):
        g = TransverseGrid(256, 5e-3)
        y = g.positions
        assert y.size == 256
        assert 0.0 in y
        assert y[0] == -5e-3
        assert np.allclose(np.diff(y), g.spacing_m)

    def test_frequencies_span_half_open_interval(self):
        g = TransverseGrid(1024, 15e-3)
        f = g.frequencies
        assert f.max() == g.nyquist_cycles_per_m
        assert f.min() > -g.nyquist_cycles_per_m
        # FFT ordering: matches fftfreq except for the Nyquist sign.
        ref = np.fft.fftfreq(1024, d=g.spacing_m)
        assert np.array_equal(np.abs(f), np.abs(ref))

    def test_index_of(self):
        g = TransverseGrid(1024, 15e-3)
        assert g.index_of(0.0) == 512
        assert g.positions[g.index_of(1e-3)] == pytest.approx(1e-3, abs=g.spacing_m / 2)
        with pytest.raises(ValueError):
            g.index_of(20e-3)


class TestSamplingCheck:
    def test_bench_distance_is_adequate(self):
        report = sampling_check(TransverseGrid(1024, 15e-3), WAVELENGTH, 0.5)
        assert report.adequate
        assert report.max_phase_step_rad < np.pi
        assert report.max_distance_m == pytest.approx(1.2517, rel=1e-3)

    def test_zero_distance_trivially_adequate(self):
        report = sampling_check(TransverseGrid(64, 15e-3), WAVELENGTH, 0.0)
        assert report.adequate
        assert report.max_phase_step_rad == 0.0

    def test_long_distance_on_fine_grid_aliases(self):
        report = sampling_check(TransverseGrid(1024, 15e-3), WAVELENGTH, 2.0)
        assert not report.adequate
        assert report.max_phase_step_rad > np.pi

    def test_coarse_grid_has_longer_alias_free_range(self):
        # Coarser sampling lowers the Nyquist frequency, so the transfer-
        # function chirp stays slow out to much longer distances.
        report = sampling_check(TransverseGrid(64, 15e-3), WAVELENGTH, 2.0)
        assert report.max_distance_m == pytest.approx(20.03, rel=1e-3)
        assert report.adequate

    def test_sign_symmetric(self):
        g = TransverseGrid(1024, 15e-3)
        fwd = sampling_check(g, WAVELENGTH, 0.7)
        bwd = sampling_check(g, WAVELENGTH, -0.7)
        assert fwd.max_phase_step_rad == bwd.max_phase_step_rad

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            sampling_check(TransverseGrid(64, 1e-3), 0.0, 1.0)


class TestField1D:
    def test_length_mismatch_rejected(self):
        g = TransverseGrid(64, 1e-3)
        with pytest.raises(ValueError):
            Field1D(g, np.ones(63), WAVELENGTH)

    def test_wavelength_positive(self):
        g = TransverseGrid(64, 1e-3)
        with pytest.raises(ValueError):
            Field1D(g, np.ones(64), -1.0)

    def test_power(self):
        g = TransverseGrid(64, 1e-3)
        f = Field1D(g, np.ones(64), WAVELENGTH)
        assert f.power() == pytest.approx(64 * g.spacing_m)


class TestBiphotonAmplitude:
    def test_shape_checked(self):
        g = TransverseGrid(32, 1e-3)
        with pytest.raises(ValueError):
            BiphotonAmplitude(g, g, np.ones((32, 31)), WAVELENGTH, WAVELENGTH)

    def test_norm_and_normalized(self):
        g = TransverseGrid(32, 1e-3)
        joint = BiphotonAmplitude(g, g, np.full((32, 32), 2.0 + 0j), WAVELENGTH, WAVELENGTH)
        expected = np.sqrt(np.sum(4.0 * np.ones((32, 32))) * g.spacing_m ** 2)
        assert joint.joint_norm() == pytest.approx(expected)
        assert joint.normalized().joint_norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        g = TransverseGrid(32, 1e-3)
        joint = BiphotonAmplitude(g, g, np.zeros((32, 32)), WAVELENGTH, WAVELENGTH)
        with pytest.raises(ValueError):
            joint.normalized()
