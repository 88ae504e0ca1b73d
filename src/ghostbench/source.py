"""SPDC biphoton source models at the crystal plane.

The entangled state uses the double-Gaussian model

    A(y_s, y_i) = E_p((y_s + y_i) / 2) * C(y_s - y_i),

with E_p the Gaussian pump envelope (1/e^2 intensity diameter
``pump_diameter_m``) and C a Gaussian position-correlation kernel of 1/e^2
intensity full width ``2 * correlation_width_m``.  The sum-coordinate
spectrum of A then reproduces the pump angular spectrum, the transverse
analog of momentum conservation in the pair emission.

A separable control source with the same per-photon coherent profiles is
available to demonstrate which results require entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BiphotonAmplitude, TransverseGrid

_ENERGY_CONSERVATION_RTOL = 1e-6


@dataclass(frozen=True)
class SourceSpec:
    """Pump and phase-matching parameters of the pair source."""

    pump_diameter_m: float = 3e-3
    # Thin-crystal transverse correlation estimate sqrt(lambda_p * L / 2 pi)
    # for a 3 mm crystal; configurable, robustness is checked over 5-30 um.
    correlation_width_m: float = 13e-6
    lambda_pump_m: float = 351.1e-9
    lambda_signal_m: float = 702.2e-9
    lambda_idler_m: float = 702.2e-9
    kind: str = "entangled"

    def __post_init__(self):
        for name in ("pump_diameter_m", "correlation_width_m", "lambda_pump_m", "lambda_signal_m",
                     "lambda_idler_m"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        mismatch = abs(self.lambda_pump_m * (1.0 / self.lambda_signal_m + 1.0 / self.lambda_idler_m) - 1.0)
        if mismatch > _ENERGY_CONSERVATION_RTOL:
            message = ("wavelengths violate energy conservation 1/ls + 1/li = 1/lp "
                       f"(relative error {mismatch:.2e})")
            if self.lambda_signal_m > self.lambda_pump_m:
                idler_nm = 1.0 / (1e-9 / self.lambda_pump_m - 1e-9 / self.lambda_signal_m)
                message += f"; an idler wavelength of {idler_nm!r} nm conserves it"
            raise ValueError(message)
        if self.kind not in ("entangled", "separable"):
            raise ValueError(f"kind must be 'entangled' or 'separable', got {self.kind!r}")
        # Equality marks the balanced double Gaussian, which factorizes
        # exactly (K = 1); anything wider than the pump is unphysical.
        if self.kind == "entangled" and self.correlation_width_m > self.pump_diameter_m:
            raise ValueError("entangled source requires correlation_width_m <= pump_diameter_m")


def _double_gaussian(spec: SourceSpec, grid_s: TransverseGrid, grid_i: TransverseGrid) -> np.ndarray:
    w_pump = spec.pump_diameter_m / 2.0          # 1/e^2 intensity radius of the pump field
    sigma_c = spec.correlation_width_m           # 1/e^2 intensity radius of the correlation
    ys = grid_s.positions[:, None]
    yi = grid_i.positions[None, :]
    return np.exp(-((ys + yi) / 2.0) ** 2 / w_pump ** 2) * np.exp(-((ys - yi) ** 2) / sigma_c ** 2)


def _normalized(amps: np.ndarray, spec: SourceSpec, grid_s: TransverseGrid,
                grid_i: TransverseGrid) -> BiphotonAmplitude:
    """A real amplitude scaled to unit joint norm in place, then cast once: the
    bytes of :meth:`BiphotonAmplitude.normalized`, without a complex temporary."""
    amps *= 1.0 / float(np.sqrt(np.sum(amps ** 2) * grid_s.spacing_m * grid_i.spacing_m))
    return BiphotonAmplitude(grid_s, grid_i, amps, spec.lambda_signal_m, spec.lambda_idler_m)


def _require_matching_grids(grid_s: TransverseGrid, grid_i: TransverseGrid):
    if grid_s.n_points != grid_i.n_points or grid_s.extent_m != grid_i.extent_m:
        raise ValueError("signal and idler grids must have identical count and extent")


def build_biphoton(spec: SourceSpec, grid_s: TransverseGrid, grid_i: TransverseGrid) -> BiphotonAmplitude:
    """Entangled double-Gaussian joint amplitude, normalized to unit norm."""
    if spec.kind != "entangled":
        raise ValueError(f"build_biphoton requires kind='entangled', got {spec.kind!r}")
    _require_matching_grids(grid_s, grid_i)
    return _normalized(_double_gaussian(spec, grid_s, grid_i), spec, grid_s, grid_i)


def build_separable(spec: SourceSpec, grid_s: TransverseGrid, grid_i: TransverseGrid) -> BiphotonAmplitude:
    """Separable control state A = f(y_s) g(y_i) with unit joint norm.

    f and g are the normalized conditional profiles of the entangled
    source (the slices through its peak).  Each factor therefore carries
    the transverse coherence width of one down-converted beam, so the
    control reproduces the entangled beams' divergence at the detectors
    while carrying no correlations at all.
    """
    if spec.kind != "separable":
        raise ValueError(f"build_separable requires kind='separable', got {spec.kind!r}")
    _require_matching_grids(grid_s, grid_i)
    amps = _double_gaussian(spec, grid_s, grid_i)
    peak_s, peak_i = np.unravel_index(int(np.argmax(np.abs(amps))), amps.shape)
    f = amps[:, peak_i].copy()
    g = amps[peak_s, :].copy()
    del amps
    return _normalized(np.outer(f, g), spec, grid_s, grid_i)


def build_source(spec: SourceSpec, grid_s: TransverseGrid, grid_i: TransverseGrid) -> BiphotonAmplitude:
    """Dispatch on ``spec.kind``."""
    if spec.kind == "separable":
        return build_separable(spec, grid_s, grid_i)
    return build_biphoton(spec, grid_s, grid_i)


def _matrix_schmidt_number(matrix: np.ndarray) -> float:
    """K = (sum l_k)^2 / sum l_k^2 over squared singular values."""
    m = np.asarray(matrix)
    if not np.all(np.isfinite(m)):
        raise ValueError("amplitude matrix contains non-finite entries")
    s = np.linalg.svd(m, compute_uv=False)
    lam = s ** 2
    total = lam.sum()
    if total == 0.0:
        raise ValueError("cannot compute the Schmidt number of a zero amplitude")
    lam = lam / total
    return float(1.0 / np.sum(lam ** 2))


def schmidt_number(joint: BiphotonAmplitude) -> float:
    """Effective transverse mode count of the joint amplitude (K >= 1)."""
    return _matrix_schmidt_number(joint.amplitudes)
