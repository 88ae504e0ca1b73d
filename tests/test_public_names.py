"""The package's public surface is pinned, so a name is added or removed
only on purpose, with this list changed in the same commit."""

import ghostbench

PUBLIC = [
    # analysis
    "GhostImageStats", "PatternStats", "PlaneSweep", "SincFit", "compute_pattern_stats", "fit_sinc2",
    "ghost_image_stats", "thin_lens_predict",
    # config
    "default_bench",
    # elements
    "ArmSpec", "FreeSpace", "Open", "OpticalElement", "Slit", "ThinLens", "apply_arm", "apply_arm_to_axis",
    "reverse_arm",
    # errors
    "CheckFailureError", "ConfigError", "FitConvergenceError", "FlatPatternError", "GhostBenchError",
    "ImageAtInfinityError", "PatternError", "SamplingError", "WindowTooSmallError",
    # experiment
    "BenchSpec", "DetectorSpec", "ScanResult", "ScanWindow", "conditional_field", "in_slit_positions",
    "klyshko_advanced_wave", "klyshko_deviation", "propagate_bench", "run_coincidence_scan",
    # grid
    "BiphotonAmplitude", "Field1D", "TransverseGrid",
    # source
    "SourceSpec", "build_source", "schmidt_number",
    # temporal
    "TemporalSpec", "analytic_schmidt_number", "eval_biphoton_wavepacket", "eval_wavepacket_magnitude",
    "factorability_check",
    # the submodules, bound by the imports above
    "analysis", "config", "elements", "errors", "experiment", "grid", "source", "temporal",
]


def test_all_is_the_pinned_surface():
    assert sorted(ghostbench.__all__) == sorted(PUBLIC)
