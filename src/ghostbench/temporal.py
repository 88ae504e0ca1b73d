"""Temporal two-photon wavepacket and its factorability.

Evaluates

    Psi(t1, t2) = A0 * exp(-sigma_plus^2 (t1 + t2)^2)
                     * exp(-sigma_minus^2 (t1 - t2)^2)
                     * exp(-i Omega_s t1) * exp(-i Omega_i t2)

on a symmetric time grid; 1/sigma_plus and 1/sigma_minus are the
coherence times of the sum and difference envelopes.  The envelope
factorizes exactly when sigma_plus = sigma_minus; otherwise the packet is
a genuinely two-dimensional object, quantified by its Schmidt number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .source import _matrix_schmidt_number


@dataclass(frozen=True)
class TemporalSpec:
    """Inverse coherence times, central frequencies, and the time grid."""

    sigma_plus_hz: float
    sigma_minus_hz: float
    omega_s_hz: float = 0.0
    omega_i_hz: float = 0.0
    amplitude_a0: float = 1.0
    n_points: int = 512
    # +-4 coherence times of the wider envelope captures > 1 - 1e-12 of the norm.
    span_coherence_times: float = 4.0

    def __post_init__(self):
        if not (self.sigma_plus_hz > 0 and self.sigma_minus_hz > 0):
            raise ValueError("sigma_plus and sigma_minus must be positive")
        if self.amplitude_a0 == 0:
            raise ValueError("amplitude must be nonzero")
        if self.n_points < 2:
            raise ValueError("time grid needs at least two samples")
        if not (self.span_coherence_times > 0):
            raise ValueError("span must be positive")
        # The largest exponent, at the grid's corners; an overflow here would
        # make the evaluation overflow or return non-finite entries.
        sigma, reach = max(self.sigma_plus_hz, self.sigma_minus_hz), 2.0 * self._t_max()
        if not math.isfinite(sigma * sigma * (reach * reach)):
            raise ValueError("the time grid's half-width t_max and the exponent "
                             "max(sigma)^2 (2 t_max)^2 must be finite")
        # An odd grid samples t1 = t2 = 0, where |Psi| = |A0|; an even one
        # is brightest a step off it, at |A0| exp(-min(sigma)^2 step^2).
        step = reach / (self.n_points - 1)
        if self.n_points % 2 == 0 and abs(self.amplitude_a0) * math.exp(
                -min(self.sigma_plus_hz, self.sigma_minus_hz) ** 2 * step ** 2) == 0.0:
            raise ValueError("every sample of |Psi| underflows to 0: the grid step "
                             f"2 t_max / (n - 1) = {step:.3g} s is too coarse for the coherence times")

    def _t_max(self) -> float:
        return self.span_coherence_times / min(self.sigma_plus_hz, self.sigma_minus_hz)

    def time_grid(self) -> np.ndarray:
        """Symmetric samples of t = T - L/c over +-span coherence times.

        Built so t[k] == -t[n-1-k] exactly, which keeps exchange-symmetry
        checks bitwise.
        """
        t_max = self._t_max()
        step = 2.0 * t_max / (self.n_points - 1)
        return (np.arange(self.n_points) - (self.n_points - 1) / 2.0) * step


def eval_biphoton_wavepacket(spec: TemporalSpec) -> np.ndarray:
    """Pointwise Psi(t1, t2) on the spec's grid; axis 0 is t1."""
    t = spec.time_grid()
    t1 = t[:, None]
    t2 = t[None, :]
    envelope = np.exp(-spec.sigma_plus_hz ** 2 * (t1 + t2) ** 2
                      - spec.sigma_minus_hz ** 2 * (t1 - t2) ** 2)
    carrier = np.exp(-1j * spec.omega_s_hz * t1) * np.exp(-1j * spec.omega_i_hz * t2)
    return spec.amplitude_a0 * envelope * carrier


def factorability_check(psi: np.ndarray) -> float:
    """Schmidt number of a sampled wavepacket; 1 iff it factorizes."""
    return _matrix_schmidt_number(psi)


def analytic_schmidt_number(sigma_plus_hz: float, sigma_minus_hz: float) -> float:
    """Closed form for the double-Gaussian envelope.

    With a = sigma_plus^2 and b = sigma_minus^2 the Schmidt coefficients
    form a geometric sequence with ratio mu = ((sqrt(a) - sqrt(b)) /
    (sqrt(a) + sqrt(b)))^2, giving K = (1 + mu) / (1 - mu).  Used as the
    independent oracle for the numerical decomposition.
    """
    ra, rb = sigma_plus_hz, sigma_minus_hz
    mu = ((ra - rb) / (ra + rb)) ** 2
    return (1.0 + mu) / (1.0 - mu)
