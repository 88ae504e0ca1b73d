import numpy as np
import pytest

from ghostbench import BiphotonAmplitude, Field1D, TransverseGrid
from ghostbench.elements import band_limit_cycles_per_m

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
    """The alias-free rule that the steps run: a step cuts its band only
    where ``band_limit_cycles_per_m`` falls below Nyquist, which is past
    |z| = window * pitch / lambda; a cut step then runs unless it would
    lose over 5% of the power (test_elements.py, test_properties.py)."""

    def test_bench_distance_is_adequate(self):
        grid = TransverseGrid(1024, 15e-3)
        assert band_limit_cycles_per_m(grid, WAVELENGTH, 0.5) > grid.nyquist_cycles_per_m

    def test_zero_distance_trivially_adequate(self):
        assert band_limit_cycles_per_m(TransverseGrid(64, 15e-3), WAVELENGTH, 0.0) == 1.0 / WAVELENGTH

    def test_long_distance_on_fine_grid_aliases(self):
        grid = TransverseGrid(1024, 15e-3)
        assert band_limit_cycles_per_m(grid, WAVELENGTH, 2.0) < grid.nyquist_cycles_per_m

    def test_coarse_grid_has_longer_alias_free_range(self):
        # Coarser sampling lowers the Nyquist frequency, so the transfer-
        # function chirp stays slow out to much longer distances.
        for n, reach in ((1024, 1.2517), (64, 20.03)):
            grid = TransverseGrid(n, 15e-3)
            assert band_limit_cycles_per_m(grid, WAVELENGTH, reach * (1 - 1e-3)) > grid.nyquist_cycles_per_m
            assert band_limit_cycles_per_m(grid, WAVELENGTH, reach * (1 + 1e-3)) < grid.nyquist_cycles_per_m

    def test_sign_symmetric(self):
        g = TransverseGrid(1024, 15e-3)
        assert band_limit_cycles_per_m(g, WAVELENGTH, 0.7) == band_limit_cycles_per_m(g, WAVELENGTH, -0.7)


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
