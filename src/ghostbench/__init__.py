"""ghostbench: numerical simulator for an entangled-biphoton ghost-imaging bench.

Builds the SPDC joint transverse amplitude, propagates it through a
two-arm optical bench with the band-limited angular-spectrum method, runs
coincidence/singles detector scans, verifies them against the unfolded
advanced-wave picture, and extracts pattern widths and position-momentum
uncertainty products.
"""

__version__ = "0.1.0"

from .analysis import (GhostImageStats, PatternStats, PlaneSweep, SincFit, compute_pattern_stats,
                       fit_sinc2, ghost_image_stats, thin_lens_predict)
from .config import default_bench
from .elements import (ArmSpec, FreeSpace, Open, OpticalElement, Slit, ThinLens,
                       apply_arm, apply_arm_to_axis, reverse_arm)
from .errors import (CheckFailureError, ConfigError, FitConvergenceError,
                     FlatPatternError, GhostBenchError, ImageAtInfinityError,
                     PatternError, SamplingError, WindowTooSmallError)
from .experiment import (BenchSpec, DetectorSpec, ScanResult, ScanWindow,
                         conditional_field, in_slit_positions, klyshko_advanced_wave,
                         klyshko_deviation, propagate_bench, run_coincidence_scan)
from .grid import BiphotonAmplitude, Field1D, TransverseGrid
from .source import SourceSpec, build_source, schmidt_number
from .temporal import (TemporalSpec, analytic_schmidt_number, eval_biphoton_wavepacket,
                       eval_wavepacket_magnitude, factorability_check)

__all__ = [name for name in dir() if not name.startswith("_")]
