import numpy as np
import pytest

from ghostbench import (SourceSpec, TransverseGrid, build_biphoton, build_separable,
                        build_source, schmidt_number)

PUMP_RADIUS = 1.5e-3


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


class TestBuildBiphoton:
    def test_unit_norm(self, grid):
        joint = build_biphoton(SourceSpec(), grid, grid)
        assert joint.joint_norm() == pytest.approx(1.0, abs=1e-12)

    def test_exchange_symmetry_exact(self, grid):
        joint = build_biphoton(SourceSpec(), grid, grid)
        assert np.array_equal(joint.amplitudes, joint.amplitudes.T)

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            build_biphoton(SourceSpec(), TransverseGrid(256, 15e-3), TransverseGrid(256, 10e-3))

    def test_kind_must_be_entangled(self, grid):
        with pytest.raises(ValueError):
            build_biphoton(SourceSpec(kind="separable"), grid, grid)

    def test_marginal_width_oracle(self, grid):
        # Intensity marginal of the double Gaussian has standard deviation
        # sqrt(w_p^2 + sigma_c^2 / 4) / 2: the pump envelope broadened by
        # the correlation width.
        spec = SourceSpec()
        joint = build_biphoton(spec, grid, grid)
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
        joint = build_biphoton(spec, grid, grid)
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
        # sampled matrix truncates the high-order modes, so the numerical
        # value sits below that; frozen as a regression baseline.
        spec = SourceSpec()
        k = schmidt_number(build_biphoton(spec, grid, grid))
        assert k > 10
        mu = ((2 * PUMP_RADIUS - spec.correlation_width_m)
              / (2 * PUMP_RADIUS + spec.correlation_width_m)) ** 2
        analytic = (1 + mu) / (1 - mu)
        assert k == pytest.approx(analytic, rel=0.25)
        assert k == pytest.approx(90.7, abs=0.2)

    def test_balanced_double_gaussian_factorizes(self, grid):
        # sigma_c equal to the pump diameter balances the sum and
        # difference exponents: exp(-a(u+v)^2 - a(u-v)^2) factorizes.
        spec = SourceSpec(pump_diameter_m=3e-3, correlation_width_m=3e-3)
        k = schmidt_number(build_biphoton(spec, grid, grid))
        assert k == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix_rejected(self, grid):
        from ghostbench import BiphotonAmplitude
        joint = BiphotonAmplitude(grid, grid, np.zeros((grid.n_points, grid.n_points)),
                                  702.2e-9, 702.2e-9)
        with pytest.raises(ValueError):
            schmidt_number(joint)


class TestBuildSeparable:
    def test_schmidt_number_is_one(self, grid):
        joint = build_separable(SourceSpec(kind="separable"), grid, grid)
        assert schmidt_number(joint) == pytest.approx(1.0, abs=1e-9)
        assert joint.joint_norm() == pytest.approx(1.0, abs=1e-12)

    def test_kind_must_be_separable(self, grid):
        with pytest.raises(ValueError):
            build_separable(SourceSpec(), grid, grid)

    def test_joint_intensity_is_product_of_marginals(self, grid):
        joint = build_separable(SourceSpec(kind="separable"), grid, grid)
        intensity = np.abs(joint.amplitudes) ** 2
        dy = grid.spacing_m
        p_signal = intensity.sum(axis=1) * dy
        p_idler = intensity.sum(axis=0) * dy
        product = np.outer(p_signal, p_idler)
        assert np.max(np.abs(product - intensity)) < 1e-10 * intensity.max()

    def test_build_source_dispatch(self, grid):
        assert schmidt_number(build_source(SourceSpec(kind="separable"), grid, grid)) == pytest.approx(1.0, abs=1e-9)
        assert schmidt_number(build_source(SourceSpec(), grid, grid)) > 10
