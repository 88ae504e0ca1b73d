"""Workload definitions and the in-process operation runner.

A workload is a set of generated config files plus the ordered list of
CLI operations that make one pass.  The program sees only the config
files; the seed and the drawn parameters stay in the benchmark.  Why each
workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from ghostbench import cli

PUMP_WAVELENGTH_NM = 351.1  # the reference bench's pump, kept by every regime bench


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict            # bench name -> config file text, minus the [output] section
    ops: tuple               # (command, bench name) pairs, run in this order every pass
    recorded: bool           # compare outputs with perfbench/expected/<name>.json
    params: dict = field(default_factory=dict)   # values drawn from the seed


def _regime_map(seed: int) -> Workload:
    """Four non-reference benches at N = 1024 whose parameters come from ``seed``."""
    rng = random.Random(seed)
    pump_mm = round(rng.uniform(1.0, 2.0), 4)
    signal_nm = round(rng.uniform(632.8, 690.0), 3)
    # Exact energy conservation 1/ls + 1/li = 1/lp; repr keeps every digit.
    idler_nm = 1.0 / (1.0 / PUMP_WAVELENGTH_NM - 1.0 / signal_nm)
    # Slit A spans +-0.08 mm; +-0.06 mm keeps the nearest grid row inside it.
    d1_mm = round(rng.uniform(-0.06, 0.06), 4)
    configs = {
        "narrow-pump": f"[source]\npump_diameter_mm = {pump_mm!r}\n",
        "separable": "[source]\nkind = separable\n",
        "nondegenerate": (f"[source]\nsignal_wavelength_nm = {signal_nm!r}\n"
                          f"idler_wavelength_nm = {idler_nm!r}\n"),
        "point-d1": f"[detectors]\nd1_mode = point\nd1_position_mm = {d1_mm!r}\n",
    }
    ops = tuple((command, bench) for bench in configs for command in ("measure-m2", "ghost"))
    params = {"pump_diameter_mm": pump_mm, "signal_wavelength_nm": signal_nm,
              "idler_wavelength_nm": idler_nm, "d1_position_mm": d1_mm}
    return Workload("regime-map", configs, ops, recorded=False, params=params)


def build(name: str, seed: int) -> Workload:
    """The named workload; only ``regime-map`` depends on the seed."""
    if name == "reference":
        commands = ("measure-m1", "measure-m2", "ghost", "klyshko-check", "temporal")
        return Workload(name, {"reference": ""},
                        tuple((c, "reference") for c in commands), recorded=True)
    if name == "fine-grid":
        # klyshko-check is left out on purpose: at N = 2048 on +-15 mm its
        # backward D1-delta step loses 37.5% of its energy to the 1 m band
        # limit and the command exits 3 with a SamplingError (README.md).
        return Workload(name, {"fine-grid": "[grid]\nn_points = 2048\n"},
                        (("measure-m2", "fine-grid"), ("ghost", "fine-grid")), recorded=True)
    if name == "regime-map":
        return _regime_map(seed)
    raise ValueError(f"unknown workload {name!r}")


def write_configs(workload: Workload, directory: Path) -> dict:
    """Write one config file per bench; each bench writes its CSVs to its own directory."""
    paths = {}
    for bench, text in workload.configs.items():
        path = directory / f"{bench}.cfg"
        path.write_text(f"{text}[output]\ndirectory = {directory / bench}\n")
        paths[bench] = path
    return paths


@dataclass
class OpResult:
    command: str
    seconds: float
    exit_code: int | None
    stdout: str
    stderr: str
    error: str | None


def run_op(command: str, config_path: Path, around=None) -> OpResult:
    """One closed-loop operation: ``ghostbench.cli.main([command, config])`` in process.

    Only the ``main`` call is timed.  ``around``, when given, is a context
    manager factory wrapped around the call (the tracer's command span).
    """
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            if around is None:
                code = cli.main([command, str(config_path)])
            else:
                with around(command):
                    code = cli.main([command, str(config_path)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return OpResult(command, seconds, code, out.getvalue(), err.getvalue(), error)
