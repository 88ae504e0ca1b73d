import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ghostbench.cli import _csv_rows, _e6_parts, main
from ghostbench.config import RunConfig, parse_config, to_bench, to_grid, to_temporal
from ghostbench.experiment import in_slit_positions
from ghostbench.temporal import eval_wavepacket_magnitude


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


def write_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return str(path)


@pytest.fixture()
def outdir_config(tmp_path):
    def make(extra=""):
        return write_config(tmp_path, f"[output]\ndirectory = {tmp_path}\n{extra}")
    return make


class TestMeasure:
    def test_m1_summary_and_csv(self, capsys, tmp_path, outdir_config):
        code, out, _ = run_cli(capsys, "measure-m1", outdir_config())
        assert code == 0
        assert float(summary_value(out, "uncertainty_product_over_h")) == 1.0
        lines = (tmp_path / "measure_m1.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "y2_mm,coincidence_norm,singles_d2_norm"
        data = np.array([[float(x) for x in line.split(",")]
                         for line in lines if not line.startswith("#") and "," in line and "_" not in line])
        assert data.shape == (161, 3)
        assert data[:, 1].max() == pytest.approx(1.0)

    def test_csv_deterministic(self, capsys, tmp_path, outdir_config):
        cfg = outdir_config()
        run_cli(capsys, "measure-m1", cfg)
        first = (tmp_path / "measure_m1.csv").read_bytes()
        run_cli(capsys, "measure-m1", cfg)
        assert (tmp_path / "measure_m1.csv").read_bytes() == first

    def test_m2_product_below_one(self, capsys, tmp_path, outdir_config):
        code, out, _ = run_cli(capsys, "measure-m2", outdir_config())
        assert code == 0
        assert float(summary_value(out, "uncertainty_product_over_h")) < 1.0
        assert (tmp_path / "measure_m2.csv").exists()

    def test_m2_separable_reports_no_localization(self, capsys, tmp_path, outdir_config):
        cfg = outdir_config("[source]\nkind = separable\n")
        code, out, _ = run_cli(capsys, "measure-m2", cfg)
        assert code == 0
        assert "no localization" in out
        assert float(summary_value(out, "uncertainty_product_over_h_lower_bound")) > 1.0


    @pytest.mark.parametrize("command", ["measure-m1", "measure-m2"])
    def test_d2_at_slit_b_reports_without_a_fit(self, capsys, outdir_config, command):
        # The sinc^2 model divides by the slit-B-to-D2 distance, so at 0 no fit is attempted.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, outdir_config("[idler_arm]\nscreen_to_d2_mm = 0\n"))
        assert code == 0 and err == ""
        assert "sinc_fit_width_mm" not in out
        assert float(summary_value(out, "fwhm_mm")) > 0

    @pytest.mark.parametrize("command", ["measure-m1", "measure-m2"])
    def test_dark_slit_a_exit_3(self, capsys, tmp_path, outdir_config, command):
        # Slit A outside the +-15 mm window passes no light, so D2 sees no coincidences.
        code, out, err = run_cli(capsys, command, outdir_config("[signal_arm]\nslit_a_center_mm = 16\n"))
        assert (code, out, err) == (3, "", "error: numerical: no pattern: the profile is dark (peak 0)\n")
        assert not any(tmp_path.glob("*.csv"))


class TestGhost:
    def test_summary(self, capsys, tmp_path, outdir_config):
        code, out, _ = run_cli(capsys, "ghost", outdir_config())
        assert code == 0
        assert abs(float(summary_value(out, "best_plane_mm")) - 745.0) <= 10.0
        assert float(summary_value(out, "magnification")) == pytest.approx(-1.0, abs=0.05)
        lines = (tmp_path / "ghost_sweep.csv").read_text().splitlines()
        assert "plane_mm,conditional_fwhm_mm" in lines


    @pytest.mark.parametrize("sweep, note", [
        ("", False),
        # The reference focus (~740 mm) lies beyond this sweep's last plane.
        ("[ghost]\nplane_min_mm = 600\nplane_max_mm = 680\nsteps = 5\n", True),
        ("[ghost]\nplane_min_mm = 600\nplane_max_mm = 700\nsteps = 11\n", True)],
        ids=["reference-sweep", "sweep-ends-before-focus", "sweep-ends-at-700-mm"])
    def test_focus_at_sweep_edge_noted(self, capsys, outdir_config, sweep, note):
        # The note is the one report: a warning would raise here, and stderr stays empty.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "ghost", outdir_config(sweep))
        assert code == 0 and err == ""
        assert ("note = focus at sweep edge" in out.splitlines()) == note

    def test_zero_slit_offset_exit_2(self, capsys, outdir_config):
        code, _, err = run_cli(capsys, "ghost", outdir_config("[ghost]\nslit_offset_mm = 0\n"))
        assert code == 2
        assert err.startswith("error: config:")
        assert "slit_offset_mm" in err

    # The displaced slit A lies outside the +-15 mm window, or beyond its
    # edge, so it passes no light and its image has no centroid.  Slit A
    # itself outside the window lights no swept plane at all.
    @pytest.mark.parametrize("extra, names", [
        ("[ghost]\nslit_offset_mm = 20\n", "[ghost] slit_offset_mm"),
        ("[signal_arm]\nslit_a_center_mm = 14.9\n", "[ghost] slit_offset_mm"),
        ("[signal_arm]\nslit_a_center_mm = 16\n", "no conditional image resolvable at any swept plane: "
                                                   "slit A (0.16 mm wide at 16 mm) against the +-15 mm grid window")],
        ids=["offset-outside-window", "slit-a-at-window-edge", "slit-a-outside-window"])
    def test_dark_displaced_slit_exit_3(self, capsys, tmp_path, outdir_config, extra, names):
        code, out, err = run_cli(capsys, "ghost", outdir_config(extra))
        assert code == 3
        assert out == ""
        assert err.startswith("error: numerical:")
        assert names in err
        assert not (tmp_path / "ghost_sweep.csv").exists()


class TestKlyshko:
    def test_pass(self, capsys, tmp_path, outdir_config):
        code, out, _ = run_cli(capsys, "klyshko-check", outdir_config())
        assert code == 0
        assert "result = PASS" in out

    def test_backward_aliasing_exit_3_names_the_oracle_step(self, capsys, outdir_config):
        cfg = outdir_config("[grid]\nn_points = 128\nextent_mm = 3\n"
                            "[source]\npump_diameter_mm = 1\ncorrelation_width_um = 100\n"
                            "[signal_arm]\nslit_a_width_mm = 0.3\n")
        code, out, err = run_cli(capsys, "klyshko-check", cfg)
        assert code == 3
        assert out == ""
        assert err.startswith("error: numerical: advanced-wave oracle, "
                              "backward step of the point source at D1 (")
        assert "propagation over -1.0 m would alias" in err

    def test_one_position_in_slit_a_exit_3(self, capsys, outdir_config):
        # At 512 points over +-15 mm the 0.16 mm slit A holds one whole cell
        # of 58.6 um, and one position cannot be compared with another.
        code, out, err = run_cli(capsys, "klyshko-check", outdir_config("[grid]\nn_points = 512\n"))
        assert code == 3
        assert out == ""
        assert err == ("error: numerical: only 1 grid cell lies wholly inside slit A, and the check needs 2: "
                       "it is 0.16 mm wide, 2.73 times the 0.05859 mm grid pitch\n")

    def test_fewer_positions_than_asked_are_noted(self, capsys, outdir_config):
        # At 700 points slit A holds 3 whole cells of 42.9 um; 5 are asked.
        code, out, _ = run_cli(capsys, "klyshko-check", outdir_config("[grid]\nn_points = 700\n"))
        assert code == 0
        assert out.count("d1_mm = ") == 3
        assert "note = 3 of 5 positions checked (slit A holds 3 whole grid cells)\n" in out
        assert "result = PASS" in out

    def test_corrupted_arm_fails_with_exit_4(self, capsys, tmp_path, outdir_config):
        cfg = outdir_config("[klyshko]\nbackward_offset_mm = 1.0\n")
        code, out, err = run_cli(capsys, "klyshko-check", cfg)
        assert code == 4
        assert "result = FAIL" in out
        assert err.startswith("error: check:")


class TestTemporal:
    def test_summary_and_csv(self, capsys, tmp_path, outdir_config):
        cfg = outdir_config("[temporal]\nsigma_plus_hz = 1.0\nsigma_minus_hz = 10.0\nn_points = 128\n")
        code, out, _ = run_cli(capsys, "temporal", cfg)
        assert code == 0
        assert float(summary_value(out, "schmidt_number")) == pytest.approx(5.05, abs=0.01)
        assert (tmp_path / "temporal_psi.csv").exists()

    def test_balanced_reports_one(self, capsys, tmp_path, outdir_config):
        cfg = outdir_config("[temporal]\nsigma_plus_hz = 3.0\nsigma_minus_hz = 3.0\nn_points = 128\n")
        code, out, _ = run_cli(capsys, "temporal", cfg)
        assert code == 0
        assert float(summary_value(out, "schmidt_number")) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("amplitude", ["1e200", "1e-300"])
    def test_k_does_not_depend_on_the_amplitude(self, capsys, outdir_config, amplitude):
        code, out, _ = run_cli(capsys, "temporal", outdir_config(f"[temporal]\namplitude = {amplitude}\n"))
        assert code == 0
        assert summary_value(out, "schmidt_number") == "5.050000"

    @pytest.mark.parametrize("body", ["sigma_plus_hz = 1e200", "sigma_minus_hz = 1e-200"])
    @pytest.mark.parametrize("command", ["validate-config", "temporal"])
    def test_overflowing_grid_exit_2(self, capsys, outdir_config, command, body):
        code, out, err = run_cli(capsys, command, outdir_config(f"[temporal]\n{body}\n"))
        assert code == 2
        assert err.startswith(f"error: config: [temporal] {body.split()[0]}: ")
        assert out == ""

    @pytest.mark.parametrize("command", ["validate-config", "temporal"])
    def test_underflowing_grid_exit_2(self, capsys, outdir_config, command):
        # A pitch of 3.9e7 coherence times: even the samples next to t1 = t2 = 0
        # underflow, so every |Psi| is 0 and there is nothing to compute.
        code, out, err = run_cli(capsys, command, outdir_config("[temporal]\nspan_coherence_times = 1e10\n"))
        assert code == 2
        assert err.startswith("error: config: [temporal] span_coherence_times: every sample of |Psi| underflows")
        assert out == ""

    @pytest.mark.parametrize("body, n_points", [
        ("", 512), ("omega_signal_hz = 5\nomega_idler_hz = -5\namplitude = -2.5\n", 512),
        ("sigma_minus_hz = 30\n", 512),
        # Not multiples of the kernel's 64-row block: a short last block, one
        # block shorter than a whole one, and an odd grid.
        ("n_points = 130\n", 130), ("n_points = 2\n", 2), ("n_points = 201\nsigma_minus_hz = 30\n", 201)],
        ids=["default", "carriers", "sigma-minus-30", "n-130", "n-2", "n-201"])
    def test_csv_bytes_match_per_value_format(self, capsys, tmp_path, outdir_config, body, n_points):
        cfg = outdir_config(f"[temporal]\n{body}")
        assert run_cli(capsys, "temporal", cfg)[0] == 0
        text = (tmp_path / "temporal_psi.csv").read_bytes().decode()
        psi = eval_wavepacket_magnitude(to_temporal(parse_config(Path(cfg).read_text())))
        rows = "".join(",".join(f"{val:.6e}" for val in row) + "\n" for row in psi)
        header = text[:text.index("\n", text.index("# t_grid_s")) + 1]
        assert psi.shape == (n_points, n_points)
        # Line lists, so a failure names the first wrong row rather than
        # diffing two multi-megabyte strings.
        assert text.split("\n") == (header + rows).split("\n")

    def test_peak_memory_below_the_whole_csv_route(self, capsys, outdir_config):
        # 17.36e6 traced bytes is the peak of formatting each distinct value
        # and joining all 512 rows at once; the row blocks peaked at 12.76e6
        # with the complex Psi, and at 6.60e6 with |Psi| alone (measured),
        # under four 512 x 512 float arrays (8.39e6).
        cfg = outdir_config()
        run_cli(capsys, "temporal", cfg)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run_cli(capsys, "temporal", cfg)[0] == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 4 * 512 * 512 * 8


# Finite doubles >= 0 over the whole range, and values at or next to a
# rounding tie of the seventh significant digit.
near_ties = st.builds(lambda digits, power, step: np.nextafter(float(f"{digits}.5e{power}"), step),
                      st.integers(10 ** 6, 10 ** 7 - 1), st.integers(-320, 300),
                      st.sampled_from([0.0, np.inf])) | st.builds(
                          lambda digits, power: float(f"{digits}.5e{power}"),
                          st.integers(10 ** 6, 10 ** 7 - 1), st.integers(-320, 300))
cell_values = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | near_ties
TIES = [9999999.5, 9.9999995e-5, 9.9999995e99, 12345675.0, 12345665.0]
EDGES = [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
         1e-100, 9.9999999e-100, 1e100, 9.99999949e99, *TIES, *(float(f"1e{k}") for k in range(-300, 301))]


def python_rows(block):
    return "\n".join(",".join("%.6e" % value for value in row) for row in block.tolist())


class TestCsvKernel:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 8)), elements=cell_values))
    def test_bytes_equal_python_format(self, block):
        assert _csv_rows(block) == python_rows(block)

    @pytest.mark.parametrize("shape", [(1, len(EDGES)), (len(EDGES), 1)], ids=["one-row", "one-column"])
    def test_edges_of_the_double_range(self, shape):
        block = np.array(EDGES).reshape(shape)
        assert _csv_rows(block) == python_rows(block)

    def test_ties_take_the_python_fallback(self):
        values = np.array(TIES)
        assert _e6_parts(values)[2].all()
        # Half-even on the exact ties; the other two doubles lie just below theirs.
        assert _csv_rows(values[None]) == "1.000000e+07,9.999999e-05,9.999999e+99,1.234568e+07,1.234566e+07"
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        assert not _e6_parts(powers)[2].any()

    @pytest.mark.parametrize("decades", [-1, 1])
    def test_exponent_a_decade_off_is_moved_back(self, decades):
        # floor(log10) misses only at rounding distance from a power of ten,
        # where either decade gives the same string; the decade correction
        # must also mend a whole decade off.
        log10 = np.log10
        block = np.array(EDGES)[None]
        with mock.patch.object(np, "log10", lambda x: log10(x) + decades):
            assert _csv_rows(block) == python_rows(block)


class TestValidateAndErrors:
    def test_validate_ok(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[scan]\nsteps = 41\n")
        code, out, _ = run_cli(capsys, "validate-config", cfg)
        assert code == 0
        assert out.strip() == "ok"

    def test_config_error_exit_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[signal_arm]\nslit_a_width_mm = -1\n")
        code, _, err = run_cli(capsys, "validate-config", cfg)
        assert code == 2
        assert err.startswith("error: config:")
        assert "slit_a_width_mm" in err

    def test_non_finite_length_exit_2(self, capsys, outdir_config):
        code, _, err = run_cli(capsys, "measure-m1", outdir_config("[signal_arm]\ncrystal_to_lens_mm = nan\n"))
        assert code == 2
        assert err.startswith("error: config:")
        assert "crystal_to_lens_mm" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate-config", str(tmp_path / "nope.cfg"))
        assert code == 2

    @pytest.mark.parametrize("command", ["measure-m1", "ghost"])
    def test_unwritable_output_directory_exit_2(self, capsys, tmp_path, command):
        # A directory below a regular file cannot be made.
        (tmp_path / "afile").write_text("")
        cfg = write_config(tmp_path, f"[output]\ndirectory = {tmp_path / 'afile' / 'sub'}\n")
        code, _, err = run_cli(capsys, command, cfg)
        assert code == 2
        assert err.startswith("error: config:")
        assert "[output] directory" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, body, message", [
        ("measure-m1", "[detectors]\nd1_mode = point\nd1_position_mm = 20\n", "point D1 at 0.02 m"),
        ("klyshko-check", "[signal_arm]\nslit_a_width_mm = 0.02\n",
         "no grid cell lies wholly inside slit A: it is 0.02 mm wide, 0.683 times the 0.0293 mm grid pitch"),
        # 1.37 cells wide, but centred half a cell off a sample, so it straddles two cells.
        ("klyshko-check", "[signal_arm]\nslit_a_width_mm = 0.04\nslit_a_center_mm = 0.0146484375\n",
         "no grid cell lies wholly inside slit A: it is 0.04 mm wide, 1.37 times the 0.0293 mm grid pitch"),
        # Wider than five 29 um cells, but outside the window.
        ("klyshko-check", "[signal_arm]\nslit_a_center_mm = 16\n",
         "slit A (0.16 mm wide at 16 mm) lies outside the +-15 mm grid window")],
        ids=["point-d1-outside-grid", "slit-a-below-one-cell", "slit-a-straddles-two-cells",
             "slit-a-outside-grid"])
    def test_run_time_sampling_limit_exit_3(self, capsys, outdir_config, command, body, message):
        # The third such limit, a scan window outside the grid, is test_numerical_error_exit_3.
        code, out, err = run_cli(capsys, command, outdir_config(body))
        assert code == 3
        assert err.startswith(f"error: numerical: {message}")
        assert out == ""

    def test_numerical_error_exit_3(self, capsys, tmp_path):
        # Scan window wider than the grid window.
        cfg = write_config(tmp_path, f"[output]\ndirectory = {tmp_path}\n"
                                     "[scan]\ny_min_mm = -40\ny_max_mm = 40\n")
        code, _, err = run_cli(capsys, "measure-m1", cfg)
        assert code == 3
        assert err.startswith("error: numerical:")


class TestWorkCounts:
    """Each command builds the source at most once and never runs a dense
    idler pass.  measure and ghost take slit A's rows from the source's
    band and one backward kernel per row, and measure takes the D2
    singles from the band too, through the idler's reduced state; so they
    build lines of the source, from the band they hold, only where a
    signal step's band limit cuts on the grid, and then only its lit
    lines, for the signal head (the arm's steps before slit A's) to make
    its checks (``_check_signal_head``): each such head counts as one
    build and one signal pass (``_check_skewed_head``), on the lines
    counted.  klyshko-check takes D1's rows as measure takes slit A's,
    and its advanced wave reads the source's closed-form tables, so it
    builds no source either.  A dense pass is an arm's steps
    (``apply_arm_along``, ``apply_steps_along``) run on the lines of a
    source the command built, or any pass along an axis of the joint
    amplitude (``apply_arm_to_axis``)."""

    @pytest.fixture()
    def counted(self, monkeypatch, outdir_config):
        import ghostbench.experiment as experiment
        calls, head_lines, sources = [], [], []

        def counting(original, name=None):
            def wrapper(*args, **kwargs):
                calls.append(name or args[2])
                built = original(*args, **kwargs)
                if name == "build":
                    sources.append(getattr(built, "amplitudes", built))
                return built
            return wrapper

        def signal_pass(original):
            # No idler pass runs on a built source, so each of these is the signal arm's.
            def wrapper(amps, *args, **kwargs):
                if any(amps is source for source in sources):
                    calls.append("signal")
                    head_lines.append(len(amps))
                return original(amps, *args, **kwargs)
            return wrapper

        def head(original):
            def wrapper(coef, *args, **kwargs):
                calls.extend(("build", "signal"))
                head_lines.append(len(coef))
                return original(coef, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(experiment, "build_source", counting(experiment.build_source, "build"))
        monkeypatch.setattr(experiment, "_check_skewed_head", head(experiment._check_skewed_head))
        monkeypatch.setattr(experiment, "_dense_from_band", counting(experiment._dense_from_band, "build"))
        monkeypatch.setattr(experiment, "apply_arm_along", signal_pass(experiment.apply_arm_along))
        monkeypatch.setattr(experiment, "apply_steps_along", signal_pass(experiment.apply_steps_along))
        monkeypatch.setattr(experiment, "apply_arm_to_axis", counting(experiment.apply_arm_to_axis))

        # Slit A spans five 117 um cells, so klyshko-check has five D1 positions to choose from.
        def run(command, extra="", n_points=128, extent_mm=7.5):
            calls.clear()
            head_lines.clear()
            sources.clear()
            base = f"[grid]\nn_points = {n_points}\nextent_mm = {extent_mm}\n[signal_arm]\nslit_a_width_mm = 0.6\n"
            assert main([command, outdir_config(base + extra)]) == 0
            return {name: calls.count(name) for name in ("build", "signal", "idler")}
        run.calls, run.head_lines = calls, head_lines
        return run

    @pytest.mark.parametrize("command, scans", [("measure-m1", 1), ("measure-m2", 2)])
    def test_measure(self, counted, command, scans):
        # No N x N array, whatever the number of scans: the coincidences
        # follow the idler arm on slit A's rows, and every scan's singles
        # come from the one reduced state of the source's band.
        assert counted(command) == {"build": 0, "signal": 0, "idler": 0}

    def test_ghost(self, counted):
        assert counted("ghost") == {"build": 0, "signal": 0, "idler": 0}

    @pytest.mark.parametrize("command", ["measure-m2", "ghost"])
    def test_band_limited_head_checks_the_lit_lines(self, counted, command):
        # At 384 points over +-7.5 mm the 1 m step before slit A keeps
        # 1.07e4 of 1.28e4 cycles/m, and passes its check, made on the
        # source's 127 lit lines alone (all but 1e-3 of its power).
        assert counted(command, n_points=384) == {"build": 1, "signal": 1, "idler": 0}
        assert counted.head_lines == [127]

    @pytest.mark.parametrize("n_positions", [2, 5])
    def test_klyshko_check(self, counted, n_positions):
        # D1's rows come from the band, and the advanced wave reflects at
        # the source's closed-form tables: no source is built.
        assert counted("klyshko-check", f"[klyshko]\nn_positions = {n_positions}\n") == \
            {"build": 0, "signal": 0, "idler": 0}
        assert counted.head_lines == []

    def test_klyshko_check_takes_k_a_at_d1_cells_alone(self, counted, monkeypatch):
        # Slit A passes five cells, and the check reads two of them.
        import ghostbench.experiment as experiment
        cells, original = [], experiment._rows_from_band

        def spy(band, steps, rows, *args):
            cells.append(rows.tolist())
            return original(band, steps, rows, *args)
        monkeypatch.setattr(experiment, "_rows_from_band", spy)
        counted("klyshko-check", "[klyshko]\nn_positions = 2\n")
        config = RunConfig(n_points=128, extent_m=7.5e-3, slit_a_width_m=0.6e-3, klyshko_positions=2)
        grid = to_grid(config)
        d1 = in_slit_positions(to_bench(config), grid, 2)
        assert cells == [[grid.index_of(position) for position in d1]]
        assert len(set(cells[0])) == 2

    def test_band_limited_klyshko_check_runs_the_head_on_the_lit_lines(self, counted):
        # At 1320 points over +-15 mm the 1 m step before slit A cuts 2.9%
        # of its band, so the head makes its checks on the source's 218 lit
        # lines, as measure's does; nothing else is built.
        assert counted("klyshko-check", n_points=1320, extent_mm=15) == {"build": 1, "signal": 1, "idler": 0}
        assert counted.calls == ["build", "signal"]
        assert counted.head_lines == [218]


class TestLitLineHeadRefusal:
    """measure and ghost make the signal head's band-limit checks on the
    source's lit lines; they pass, or refuse with the exit code and the
    message, as the head run on all N lines does.  On this 129-point bench
    a 1 mm correlation leaves every line lit, and the head passes while an
    idler step refuses (measure) or nothing does (ghost); a 30 um one drops
    8 lines, and the head itself refuses."""

    @pytest.mark.parametrize("command, correlation_um, code", [
        ("measure-m2", 1000, 3), ("ghost", 1000, 0), ("measure-m2", 30, 3), ("ghost", 30, 3)])
    def test_same_outcome_as_on_all_lines(self, capsys, monkeypatch, outdir_config, command, correlation_um, code):
        import ghostbench.experiment as experiment
        cfg = outdir_config("[grid]\nn_points = 129\nextent_mm = 2\n[source]\npump_diameter_mm = 1\n"
                            f"correlation_width_um = {correlation_um}\n[scan]\ny_min_mm = -1.5\ny_max_mm = 1.5\n")
        lit = run_cli(capsys, command, cfg)
        monkeypatch.setattr(experiment, "_lit_lines", lambda band: (0, band.shape[1], 0.0))
        every_line = run_cli(capsys, command, cfg)
        assert lit == every_line
        assert lit[0] == code
        if code == 3:
            assert lit[2].startswith("error: numerical: propagation over")


class TestFitCounts:
    """A sinc^2 fit runs only where a width is printed, as one refine:
    measure-m1 fits M1, measure-m2 fits M2 (it prints only M1's FWHM), and
    no other command fits at all."""

    @pytest.fixture()
    def counted(self, monkeypatch, outdir_config):
        import ghostbench.analysis as analysis
        calls = []

        def counting(original, name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(analysis, "fit_sinc2", counting(analysis.fit_sinc2, "fit"))
        monkeypatch.setattr(analysis, "least_squares", counting(analysis.least_squares, "refine"))

        def run(command, extra=""):
            calls.clear()
            assert main([command, outdir_config(extra)]) == 0
            return {name: calls.count(name) for name in ("fit", "refine")}
        return run

    @pytest.mark.parametrize("command", ["measure-m1", "measure-m2"])
    def test_measure_fits_the_printed_scan_once(self, counted, command):
        assert counted(command) == {"fit": 1, "refine": 1}

    def test_separable_lower_bound_fits_nothing(self, counted, capsys):
        assert counted("measure-m2", "[source]\nkind = separable\n") == {"fit": 0, "refine": 0}
        assert "uncertainty_product_over_h_lower_bound" in capsys.readouterr().out

    @pytest.mark.parametrize("command, extra", [
        ("ghost", ""), ("klyshko-check", ""), ("temporal", "[temporal]\nn_points = 64\n")])
    def test_other_commands_fit_nothing(self, counted, command, extra):
        assert counted(command, extra) == {"fit": 0, "refine": 0}


# A child process that runs one command, pinned to one CPU first when asked.
_CHILD = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from ghostbench.cli import main
sys.exit(main([sys.argv[2], sys.argv[3]]))
"""


def _child_env(blas_threads=None):
    """The environment of a child that imports ghostbench from this
    checkout, with its BLAS thread count set when given, else unset."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least two CPUs")
def test_output_bytes_do_not_depend_on_the_core_count(tmp_path):
    # One child on one CPU with one BLAS thread, one on every CPU: the
    # BLAS products give the same bytes.
    config = write_config(tmp_path, f"[output]\ndirectory = {tmp_path}\n[grid]\nn_points = 1024\n")
    outputs = []
    for cores in ("one", "all"):
        done = subprocess.run([sys.executable, "-c", _CHILD, cores, "measure-m2", config],
                              env=_child_env(1 if cores == "one" else None), capture_output=True, check=True)
        outputs.append((done.stdout, (tmp_path / "measure_m2.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, extra", [("klyshko-check", ""), ("measure-m2", "[grid]\nn_points = 2048\n")])
def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, command, extra):
    # Each transform runs on the calling thread, so only BLAS may thread:
    # the reference klyshko-check and a 2048-point measure-m2, whose signal
    # head takes one BLAS product per block, print and write the same bytes
    # on one BLAS thread and on two.
    config = write_config(tmp_path, f"[output]\ndirectory = {tmp_path}\n{extra}")
    outputs = []
    for threads in (1, 2):
        done = subprocess.run([sys.executable, "-c", _CHILD, "all", command, config],
                              env=_child_env(threads), capture_output=True, check=True)
        outputs.append((done.stdout, {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")}))
    assert outputs[0] == outputs[1]


def test_a_fresh_process_loads_no_scipy(tmp_path):
    # What a user's `ghostbench <command>` imports before any work: numpy only.
    config = write_config(tmp_path, "[grid]\nn_points = 512\n")
    child = ("import sys\nimport ghostbench.cli\nfrom ghostbench.config import parse_config\n"
             "parse_config(open(sys.argv[1]).read())\n"
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", child, config], env=_child_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def test_a_fresh_process_starts_no_thread(tmp_path):
    # Each transform is one numpy call on the calling thread: the command
    # loads no thread pool, and a 4096-point measure-m2, whose signal head
    # transforms blocks of 64 x 4096 lines, ends with the main thread alone.
    config = write_config(tmp_path, f"[output]\ndirectory = {tmp_path}\n[grid]\nn_points = 4096\n")
    child = ("import sys, threading\nimport ghostbench.cli\n"
             "print('concurrent.futures' in sys.modules)\n"
             "code = ghostbench.cli.main(['measure-m2', sys.argv[1]])\n"
             "print(code, threading.active_count())")
    done = subprocess.run([sys.executable, "-c", child, config], env=_child_env(), capture_output=True,
                          text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 1"
