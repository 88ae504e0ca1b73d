import numpy as np
import pytest

from ghostbench import (TemporalSpec, analytic_schmidt_number,
                        eval_biphoton_wavepacket, factorability_check)


class TestTemporalSpec:
    def test_grid_symmetric_about_zero(self):
        t = TemporalSpec(1.0, 10.0, n_points=256).time_grid()
        assert np.max(np.abs(t + t[::-1])) == 0.0

    def test_span_follows_wider_envelope(self):
        spec = TemporalSpec(2.0, 10.0, span_coherence_times=4.0)
        assert spec.time_grid().max() == pytest.approx(4.0 / 2.0)

    @pytest.mark.parametrize("kwargs", [dict(sigma_plus_hz=0.0, sigma_minus_hz=1.0),
                                        dict(sigma_plus_hz=1.0, sigma_minus_hz=-2.0),
                                        dict(sigma_plus_hz=1.0, sigma_minus_hz=1.0, n_points=1),
                                        # max(sigma)^2 (2 t_max)^2 overflows, from either end.
                                        dict(sigma_plus_hz=1e200, sigma_minus_hz=10.0),
                                        dict(sigma_plus_hz=1.0, sigma_minus_hz=1e-200)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TemporalSpec(**kwargs)


class TestWavepacket:
    def test_origin_value_is_amplitude(self):
        # Odd point count puts t = 0 on the grid; all exponents vanish there.
        spec = TemporalSpec(1.0, 3.0, omega_s_hz=5.0, omega_i_hz=7.0,
                            amplitude_a0=2.5, n_points=257)
        psi = eval_biphoton_wavepacket(spec)
        assert psi[128, 128] == pytest.approx(2.5)

    def test_magnitude_exchange_symmetric(self):
        spec = TemporalSpec(1.0, 4.0, omega_s_hz=5.0, omega_i_hz=7.0, n_points=128)
        psi = eval_biphoton_wavepacket(spec)
        assert np.max(np.abs(np.abs(psi) - np.abs(psi).T)) < 1e-14

    def test_antidiagonal_width_oracle(self):
        # For sigma_minus >> sigma_plus the packet concentrates on the
        # t1 = t2 diagonal; along the anti-diagonal |Psi| = exp(-4 sm^2 t^2)
        # reaches 1/e at t = 1/(2 sm), a radius sqrt(2)/(2 sm) in the
        # (t1, t2) plane.
        sm = 25.0
        spec = TemporalSpec(1.0, sm, n_points=4097, span_coherence_times=4.0)
        psi = eval_biphoton_wavepacket(spec)
        t = spec.time_grid()
        anti = np.abs(psi[np.arange(t.size), t.size - 1 - np.arange(t.size)])
        center = t.size // 2
        sel = slice(center, center + 64)
        crossing = np.interp(1.0, -np.log(anti[sel] / anti[center]), t[sel])
        assert np.sqrt(2.0) * crossing == pytest.approx(np.sqrt(2.0) / (2 * sm), rel=5e-3)


def svd_schmidt_number(matrix):
    """The oracle: K = (sum l)^2 / sum l^2 over the squared singular values."""
    lam = np.linalg.svd(matrix, compute_uv=False) ** 2
    return lam.sum() ** 2 / np.sum(lam ** 2)


# Envelope ratios 1/10, 10/1, 1/30 and 2/3 and a balanced pair, two of them with carriers.
_PROBE_SPECS = [dict(sigma_plus_hz=1.0, sigma_minus_hz=10.0),
                dict(sigma_plus_hz=10.0, sigma_minus_hz=1.0),
                dict(sigma_plus_hz=1.0, sigma_minus_hz=30.0, omega_s_hz=5.0, omega_i_hz=-5.0,
                     amplitude_a0=-2.5),
                dict(sigma_plus_hz=2.0, sigma_minus_hz=3.0),
                dict(sigma_plus_hz=3.0, sigma_minus_hz=3.0, omega_s_hz=5.0, omega_i_hz=-5.0)]


class TestFactorability:
    @pytest.mark.parametrize("kwargs", _PROBE_SPECS,
                             ids=["1-10", "10-1", "1-30-carriers", "2-3", "3-3-carriers"])
    def test_moments_match_the_svd(self, kwargs):
        psi = eval_biphoton_wavepacket(TemporalSpec(**kwargs))
        oracle = svd_schmidt_number(psi)
        assert factorability_check(psi) == pytest.approx(oracle, rel=1e-12)
        # The carriers are diagonal unitaries, so |Psi| has Psi's singular values.
        assert factorability_check(np.abs(psi)) == pytest.approx(oracle, rel=1e-12)

    def test_balanced_envelope_factorizes(self):
        psi = eval_biphoton_wavepacket(TemporalSpec(3.0, 3.0, omega_s_hz=2.0, omega_i_hz=9.0))
        assert factorability_check(psi) == pytest.approx(1.0, abs=1e-9)

    def test_ratio_ten_matches_analytic(self):
        psi = eval_biphoton_wavepacket(TemporalSpec(1.0, 10.0))
        k = factorability_check(psi)
        assert k > 1.0
        assert k == pytest.approx(analytic_schmidt_number(1.0, 10.0), rel=1e-4)
        assert k == pytest.approx(5.05, abs=1e-3)  # frozen regression value

    def test_exchange_symmetry_of_k(self):
        k_a = factorability_check(eval_biphoton_wavepacket(TemporalSpec(1.0, 6.0)))
        k_b = factorability_check(eval_biphoton_wavepacket(TemporalSpec(6.0, 1.0)))
        assert k_a == pytest.approx(k_b, abs=1e-9)

    def test_phase_factors_do_not_change_k(self):
        bare = eval_biphoton_wavepacket(TemporalSpec(1.0, 5.0))
        dressed = eval_biphoton_wavepacket(TemporalSpec(1.0, 5.0, omega_s_hz=40.0, omega_i_hz=17.0))
        assert factorability_check(dressed) == pytest.approx(factorability_check(bare), abs=1e-9)

    def test_monotone_in_envelope_ratio(self):
        ratios = [1.0, 2.0, 4.0, 8.0, 16.0]
        ks = [factorability_check(eval_biphoton_wavepacket(TemporalSpec(1.0, r)))
              for r in ratios]
        assert all(k2 >= k1 - 1e-12 for k1, k2 in zip(ks, ks[1:]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            factorability_check(np.zeros((8, 8)))

    @pytest.mark.parametrize("sigmas", [(1.0, 10.0), (2.0, 3.0), (1.0, 30.0), (0.5, 10.0)],
                             ids=["1-10", "2-3", "1-30", "0.5-10"])
    def test_flushing_tiny_entries_keeps_the_bits(self, sigmas):
        # Entries below 1e-150 of the peak are set to 0 before the Gram
        # (60% of them at 1-10, none at 2-3); K keeps every bit of the two
        # moments taken without that.
        magnitude = np.abs(eval_biphoton_wavepacket(TemporalSpec(*sigmas)))
        m = magnitude / magnitude.max()
        gram = m.T @ m
        unflushed = float(np.vdot(m, m).real ** 2 / np.vdot(gram, gram).real)
        assert factorability_check(magnitude) == unflushed
