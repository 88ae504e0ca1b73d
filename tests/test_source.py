import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ghostbench import SourceSpec, TransverseGrid, build_source, schmidt_number
from ghostbench.source import _lines_times_source, _tables, source_band

PUMP_RADIUS = 1.5e-3


def double_gaussian(spec, grid):
    """The unnormalized double Gaussian at the grid points, from its closed
    form E_p((y_s + y_i) / 2) * C(y_s - y_i)."""
    ys = grid.positions[:, None]
    yi = grid.positions[None, :]
    return (np.exp(-((ys + yi) / 2.0) ** 2 / (spec.pump_diameter_m / 2.0) ** 2)
            * np.exp(-((ys - yi) ** 2) / spec.correlation_width_m ** 2))


def table_source(pump, corr):
    """The source by its table definition (:func:`ghostbench.source._tables`),
    read with one N x N index array per table: pump[i + j] * corr[i - j + N - 1]."""
    n = (pump.size + 1) // 2
    i = np.arange(n)
    return pump[np.add.outer(i, i)] * corr[np.subtract.outer(i, i) + n - 1]


def band_norm2(pump, corr):
    """The squared norm of the source :func:`table_source` reads, summed as
    the build sums it, over its nonzero diagonals: diagonal d, read off the
    Hankel view pump^2[i + j], summed, times corr[N - 1 + d]^2, for the
    |d| <= h at which corr is nonzero."""
    n = (pump.size + 1) // 2
    h = int(np.max(np.abs(np.flatnonzero(corr) - (n - 1)), initial=0))
    hankel = sliding_window_view(pump ** 2, n)
    sums = np.array([np.sum(np.diagonal(hankel, -d)) for d in range(-h, h + 1)])
    return np.sum(corr[n - 1 - h:n + h] ** 2 * sums)


class TestSourceSpec:
    def test_defaults_valid(self):
        spec = SourceSpec()
        assert spec.kind == "entangled"
        assert spec.lambda_signal_m == 2 * spec.lambda_pump_m

    def test_energy_conservation_enforced(self):
        with pytest.raises(ValueError):
            SourceSpec(lambda_signal_m=700e-9, lambda_idler_m=702.2e-9)

    def test_nondegenerate_pair_allowed(self):
        # 1/ls + 1/li = 1/lp with ls != li.
        lp = 351.1e-9
        ls = 650e-9
        li = 1.0 / (1.0 / lp - 1.0 / ls)
        spec = SourceSpec(lambda_signal_m=ls, lambda_idler_m=li)
        assert spec.lambda_idler_m == li

    def test_correlation_wider_than_pump_rejected(self):
        with pytest.raises(ValueError):
            SourceSpec(pump_diameter_m=1e-3, correlation_width_m=2e-3)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            SourceSpec(kind="classical")


def joint_norm(joint):
    """sqrt(sum |A|^2 dy_s dy_i)."""
    return np.sqrt(np.sum(np.abs(joint.amplitudes) ** 2) * joint.grid_s.spacing_m * joint.grid_i.spacing_m)


class TestBuildBiphoton:
    def test_unit_norm(self, grid):
        assert joint_norm(build_source(SourceSpec(), grid)) == pytest.approx(1.0, abs=1e-12)

    def test_exchange_symmetry_exact(self, grid):
        joint = build_source(SourceSpec(), grid)
        assert np.array_equal(joint.amplitudes, joint.amplitudes.T)

    def test_marginal_width_oracle(self, grid):
        # Intensity marginal of the double Gaussian has standard deviation
        # sqrt(w_p^2 + sigma_c^2 / 4) / 2: the pump envelope broadened by
        # the correlation width.
        spec = SourceSpec()
        joint = build_source(spec, grid)
        marginal = np.sum(np.abs(joint.amplitudes) ** 2, axis=0) * grid.spacing_m
        y = grid.positions
        std = np.sqrt(np.sum(marginal * y ** 2) / np.sum(marginal))
        expected = np.sqrt(PUMP_RADIUS ** 2 + spec.correlation_width_m ** 2 / 4) / 2
        assert std == pytest.approx(expected, rel=1e-3)

    def test_momentum_sum_matches_pump_angular_spectrum(self, grid):
        # Transverse phase matching: the joint spectrum is narrow along
        # q_s + q_i with exactly the pump's angular-spectrum width.  Uses
        # sigma_c = 30 um so the difference-coordinate spectrum fits the
        # grid band, and reads the width off the sum-marginal FWHM (second
        # moments are polluted by the broad difference tails).
        spec = SourceSpec(correlation_width_m=30e-6)
        joint = build_source(spec, grid)
        spectrum_power = np.abs(np.fft.fft2(joint.amplitudes)) ** 2
        f = grid.frequencies
        df = 1.0 / grid.window_m
        q_index = np.rint(np.add.outer(f, f) / df).astype(int)
        q_index -= q_index.min()
        marginal = np.bincount(q_index.ravel(), weights=spectrum_power.ravel())
        q_axis = np.arange(marginal.size) * df
        q_axis -= q_axis[np.argmax(marginal)]
        from ghostbench.analysis import profile_fwhm
        width = profile_fwhm(q_axis, marginal)
        sigma_measured = width / np.sqrt(8 * np.log(2))
        sigma_pump = 1.0 / (2 * np.pi * PUMP_RADIUS)
        assert sigma_measured == pytest.approx(sigma_pump, rel=0.05)


class TestSchmidtNumber:
    def test_product_state_is_one(self, grid):
        f = np.exp(-(grid.positions / 1e-3) ** 2)
        from ghostbench import BiphotonAmplitude
        joint = BiphotonAmplitude(grid, grid, np.outer(f, f), 702.2e-9, 702.2e-9)
        assert schmidt_number(joint) == pytest.approx(1.0, abs=1e-9)

    def test_two_equal_orthogonal_terms_give_two(self, grid):
        y = grid.positions
        u1 = np.exp(-(y / 1e-3) ** 2)
        u2 = y * np.exp(-(y / 1e-3) ** 2)  # odd, orthogonal to u1
        u1 /= np.linalg.norm(u1)
        u2 /= np.linalg.norm(u2)
        from ghostbench import BiphotonAmplitude
        joint = BiphotonAmplitude(grid, grid, np.outer(u1, u1) + np.outer(u2, u2),
                                  702.2e-9, 702.2e-9)
        assert schmidt_number(joint) == pytest.approx(2.0, abs=1e-9)

    def test_default_entangled_mode_count(self, grid):
        # Analytic double-Gaussian value: K = (1 + mu) / (1 - mu) with
        # mu = ((2 w_p - sigma_c) / (2 w_p + sigma_c))^2, about 115.  The
        # +-15 mm grid's 29.3 um pitch under-resolves sigma_c = 13 um, so
        # the numerical value sits 21% below that (converged on a finer
        # pitch in test_converged_mode_count_matches_closed_form); frozen
        # as a regression baseline.
        spec = SourceSpec()
        k = schmidt_number(build_source(spec, grid))
        assert k > 10
        mu = ((2 * PUMP_RADIUS - spec.correlation_width_m)
              / (2 * PUMP_RADIUS + spec.correlation_width_m)) ** 2
        analytic = (1 + mu) / (1 - mu)
        assert k == pytest.approx(analytic, rel=0.25)
        assert k == pytest.approx(90.7, abs=0.2)

    def test_converged_mode_count_matches_closed_form(self):
        # A 5.9 um pitch over +-6 mm resolves sigma_c and holds the pump.
        from ghostbench import analytic_schmidt_number
        spec = SourceSpec()
        fine = TransverseGrid(2048, 6e-3)
        k = schmidt_number(build_source(spec, fine))
        closed = analytic_schmidt_number(1.0 / (2 * PUMP_RADIUS), 1.0 / spec.correlation_width_m)
        assert closed == pytest.approx(115.38678205, abs=1e-8)
        assert k == pytest.approx(closed, rel=1e-9)

    def test_balanced_double_gaussian_factorizes(self, grid):
        # sigma_c equal to the pump diameter balances the sum and
        # difference exponents: exp(-a(u+v)^2 - a(u-v)^2) factorizes.
        spec = SourceSpec(pump_diameter_m=3e-3, correlation_width_m=3e-3)
        k = schmidt_number(build_source(spec, grid))
        assert k == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix_rejected(self, grid):
        from ghostbench import BiphotonAmplitude
        joint = BiphotonAmplitude(grid, grid, np.zeros((grid.n_points, grid.n_points)),
                                  702.2e-9, 702.2e-9)
        with pytest.raises(ValueError):
            schmidt_number(joint)


class TestBuildSeparable:
    def test_schmidt_number_is_one(self, grid):
        joint = build_source(SourceSpec(kind="separable"), grid)
        assert schmidt_number(joint) == pytest.approx(1.0, abs=1e-9)
        assert joint_norm(joint) == pytest.approx(1.0, abs=1e-12)

    def test_joint_intensity_is_product_of_marginals(self, grid):
        joint = build_source(SourceSpec(kind="separable"), grid)
        intensity = np.abs(joint.amplitudes) ** 2
        dy = grid.spacing_m
        p_signal = intensity.sum(axis=1) * dy
        p_idler = intensity.sum(axis=0) * dy
        product = np.outer(p_signal, p_idler)
        assert np.max(np.abs(product - intensity)) < 1e-10 * intensity.max()

    def test_build_source_dispatch(self, grid):
        assert schmidt_number(build_source(SourceSpec(kind="separable"), grid)) == pytest.approx(1.0, abs=1e-9)
        assert schmidt_number(build_source(SourceSpec(), grid)) > 10


# The grids of the byte checks; the first, with the separable kind, is
# also the benchmark's regime-map separable bench.
BYTE_BENCHES = [
    ({}, 1024, 15e-3),
    ({"pump_diameter_m": 1e-3, "correlation_width_m": 100e-6}, 256, 2e-3),
    ({"lambda_signal_m": 650e-9, "lambda_idler_m": 763.5162261625964e-9}, 512, 7.5e-3)]


class TestBuildBytes:
    """The build evaluates the source's nonzero diagonals from two 1-D
    tables and writes them into the real part of a zeroed complex array;
    its bytes equal the slow reference (:func:`table_source`), normalized
    the same way."""

    @pytest.mark.parametrize("kind", ["entangled", "separable"])
    @pytest.mark.parametrize("spec_args, n_points, extent_m", BYTE_BENCHES)
    def test_equals_slow_reference(self, kind, spec_args, n_points, extent_m):
        spec = SourceSpec(kind=kind, **spec_args)
        grid = TransverseGrid(n_points, extent_m)
        dy = grid.spacing_m
        entangled = spec
        if kind == "separable":
            # The balanced double Gaussian whose peak slices are the
            # control's factors: pump diameter = correlation width = W,
            # 2 / W^2 = 1/D^2 + 1/sigma^2.
            w = np.sqrt(2.0 / (1.0 / spec.pump_diameter_m ** 2 + 1.0 / spec.correlation_width_m ** 2))
            entangled = SourceSpec(**{**spec_args, "pump_diameter_m": w, "correlation_width_m": w})
        # The norm is summed over the band's nonzero diagonals
        # (:func:`band_norm2`) and folded into the pump table.
        pump, corr = _tables(entangled, grid)
        expected = table_source(pump * (1.0 / float(np.sqrt(band_norm2(pump, corr) * dy * dy))), corr)
        built = build_source(spec, grid).amplitudes
        assert built.dtype == np.complex128 and built.flags.c_contiguous
        assert built.tobytes() == expected.astype(np.complex128).tobytes()

    @pytest.mark.parametrize("spec_args, n_points, extent_m",
                             [*BYTE_BENCHES, ({}, 2048, 15e-3), ({}, 4096, 30e-3)])
    def test_band_norm_equals_the_full_sum(self, spec_args, n_points, extent_m):
        # Off the band every term of the N x N sum is exactly 0.0, so the
        # two sums differ by their rounding alone.
        pump, corr = _tables(SourceSpec(**spec_args), TransverseGrid(n_points, extent_m))
        full = np.einsum("ij,ij->", sliding_window_view(pump ** 2, n_points),
                         sliding_window_view(corr ** 2, n_points)[:, ::-1])
        assert band_norm2(pump, corr) == pytest.approx(full, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("spec_args, n_points, extent_m", BYTE_BENCHES)
    def test_equals_closed_form_at_the_grid_points(self, spec_args, n_points, extent_m):
        grid = TransverseGrid(n_points, extent_m)
        for kind in ("entangled", "separable"):
            spec = SourceSpec(kind=kind, **spec_args)
            built = build_source(spec, grid).amplitudes
            c = n_points // 2
            assert not np.any(built.imag)
            direct = double_gaussian(spec, grid)
            if kind == "separable":
                direct = np.outer(direct[:, c], direct[c, :])
            # Both peak at the zero cell, where the closed form is exactly 1.
            assert np.max(np.abs(built.real / built[c, c].real - direct)) <= 1e-14

    @pytest.mark.parametrize("spec_args, n_points, extent_m", BYTE_BENCHES)
    @pytest.mark.parametrize("kind", ["entangled", "separable"])
    def test_exactly_symmetric(self, kind, spec_args, n_points, extent_m):
        # The signal head runs on the source's rows, which this makes its
        # signal-axis lines.
        grid = TransverseGrid(n_points, extent_m)
        amps = build_source(SourceSpec(kind=kind, **spec_args), grid).amplitudes
        assert amps.tobytes() == np.ascontiguousarray(amps.T).tobytes()

    @pytest.mark.parametrize("spec_args, n_points, extent_m", [*BYTE_BENCHES, ({}, 1023, 15e-3),
                                                               ({"correlation_width_m": 100e-6}, 255, 2e-3)])
    @pytest.mark.parametrize("kind", ["entangled", "separable"])
    def test_exactly_mirror_symmetric(self, kind, spec_args, n_points, extent_m):
        # A[2c - i, 2c - j] == A[i, j] on every cell whose mirror about the
        # zero cell c lies on the grid: all of them for odd N, all but row
        # and column 0 for even N.  The signal head pairs line c + m with
        # line c - m by it (``elements._walk``).
        grid = TransverseGrid(n_points, extent_m)
        amps = build_source(SourceSpec(kind=kind, **spec_args), grid).amplitudes
        mirrored = amps[1 - n_points % 2:, 1 - n_points % 2:]
        assert mirrored.tobytes() == np.ascontiguousarray(mirrored[::-1, ::-1]).tobytes()


def from_band(band, n_points):
    """The N x N matrix whose diagonals ``band[t, j] = A[j + t - h, j]`` are."""
    h = band.shape[0] // 2
    dense = np.zeros((n_points, n_points))
    j = np.arange(n_points)
    for t, diagonal in enumerate(band):
        i = j + t - h
        inside = (i >= 0) & (i < n_points)
        dense[i[inside], j[inside]] = diagonal[inside]
    return dense


# Entangled and separable at the reference grid, a correlation as wide as
# the pump (every diagonal nonzero), and an odd point count.
BAND_BENCHES = {
    "entangled": ({}, 1024, 15e-3),
    "separable": ({"kind": "separable"}, 1024, 15e-3),
    "wide-correlation": ({"pump_diameter_m": 1e-3, "correlation_width_m": 1e-3}, 129, 2e-3),
    "wide-separable": ({"kind": "separable", "pump_diameter_m": 1e-3, "correlation_width_m": 1e-3}, 129, 2e-3),
    "odd-n": ({}, 1023, 15e-3),
    "odd-n-separable": ({"kind": "separable"}, 1023, 15e-3),
}


class TestSourceBand:
    """measure and ghost read the source through its nonzero diagonals."""

    @pytest.mark.parametrize("spec_args, n_points, extent_m", BAND_BENCHES.values(), ids=BAND_BENCHES.keys())
    def test_equals_build_source_on_the_band_and_zero_off_it(self, spec_args, n_points, extent_m):
        spec = SourceSpec(**spec_args)
        grid = TransverseGrid(n_points, extent_m)
        built = build_source(spec, grid).amplitudes
        band = source_band(spec, grid)
        assert band.shape[1] == n_points and band.shape[0] % 2 == 1
        assert not np.any(built.imag)
        assert from_band(band, n_points).tobytes() == built.real.tobytes()

    @pytest.mark.parametrize("name, half", [("entangled", 12), ("separable", 17), ("wide-correlation", 128)])
    def test_band_half_width(self, name, half):
        # 13 um correlation at the 29.3 um reference pitch underflows to 0.0
        # beyond 12 cells, the separable control's 18.4 um beyond 17; as wide
        # as the pump, it fills the whole matrix.
        spec_args, n_points, extent_m = BAND_BENCHES[name]
        band = source_band(SourceSpec(**spec_args), TransverseGrid(n_points, extent_m))
        assert band.shape[0] == 2 * half + 1
        assert np.any(band[0]) and np.any(band[-1])


# No point count is a multiple of the 256-column block; with a correlation
# as wide as the pump every entry of A is felt across the block edge.
LINE_BENCHES = [({}, 700, 15e-3), ({"pump_diameter_m": 1e-3, "correlation_width_m": 100e-6}, 300, 2e-3),
                ({"pump_diameter_m": 1e-3, "correlation_width_m": 1e-3}, 700, 2e-3)]


class TestLinesTimesSource:
    """The advanced wave's reflection at the crystal reads the source off
    its tables, a block of columns at a time, and never builds it."""

    @pytest.mark.parametrize("kind", ["entangled", "separable"])
    @pytest.mark.parametrize("spec_args, n_points, extent_m", LINE_BENCHES)
    def test_equals_lines_times_the_built_source(self, kind, spec_args, n_points, extent_m):
        spec = SourceSpec(kind=kind, **spec_args)
        grid = TransverseGrid(n_points, extent_m)
        rng = np.random.default_rng(7)
        # Deltas at the first, middle and last cell, as the advanced wave
        # starts from, and two random complex lines.
        lines = np.zeros((5, n_points), dtype=np.complex128)
        lines[[0, 1, 2], [0, n_points // 2, n_points - 1]] = 1.0
        lines[3:] = rng.standard_normal((2, n_points)) + 1j * rng.standard_normal((2, n_points))
        expected = lines @ build_source(spec, grid).amplitudes
        got = _lines_times_source(spec, grid, lines)
        for line, want in zip(got, expected):
            assert np.max(np.abs(line - want)) <= 1e-14 * np.abs(want).max()
        # One product per line: a line alone gives the bits it gives in the batch.
        assert _lines_times_source(spec, grid, lines[3:4]).tobytes() == got[3:4].tobytes()
