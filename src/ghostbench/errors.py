"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical/sampling problems with 3, and failed consistency checks
with 4.
"""


class GhostBenchError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GhostBenchError):
    """Malformed or invalid run configuration."""


class SamplingError(GhostBenchError):
    """The grid cannot sample the bench: a propagation step would alias
    significant field energy, or a scan window, a point D1 or slit A does
    not fit the grid."""


class PatternError(GhostBenchError):
    """A scan pattern does not support the requested measurement."""


class FlatPatternError(PatternError):
    """Pattern has no usable peak: it is dark, or max/min is below the flatness threshold."""


class WindowTooSmallError(PatternError):
    """Half maximum is not bracketed inside the scan window."""


class FitConvergenceError(PatternError):
    """Least-squares fit failed to converge from every starting point."""


class ImageAtInfinityError(GhostBenchError):
    """Thin-lens prediction requested for an object at the focal plane."""


class CheckFailureError(GhostBenchError):
    """A self-consistency check exceeded its tolerance."""
