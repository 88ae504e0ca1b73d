"""Output checks for every operation the benchmark runs.

An operation *fails* when it exits nonzero, raises, or prints a summary
value that is not finite.  It is *wrong* when it completes but an output
disagrees with its recorded value or with an independent invariant; a
wrong operation also counts as failed, and makes the run's ``correct``
false.  ``reference`` and ``fine-grid`` compare every summary value and
CSV column with perfbench/expected/<workload>.json to within ``TOLERANCE``;
every workload checks the invariants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Absolute tolerance against recorded values.  The normalized CSV columns
# carry 10 significant digits and are at most 1, so rounding stays below
# 5e-10; reordering floating-point sums (~4e-16) passes, real changes do not.
TOLERANCE = 1e-9

# The paper bench's scan and sweep, which no workload overrides.
SCAN_Y_MM = np.linspace(-4.0, 4.0, 161)
GHOST_PLANES_MM = np.linspace(600.0, 900.0, 31)
# The default temporal spec, which no workload overrides.
TEMPORAL_SIGMA_PLUS, TEMPORAL_SIGMA_MINUS, TEMPORAL_POINTS, TEMPORAL_SPAN = 1.0, 10.0, 512, 4.0
# The temporal CSV prints 7 significant digits.
TEMPORAL_RTOL, TEMPORAL_ATOL = 1e-6, 1e-300

RECORDED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class Verdict:
    failed: list = field(default_factory=list)   # the operation reported its own failure
    wrong: list = field(default_factory=list)    # the operation completed with a wrong output

    @property
    def ok(self) -> bool:
        return not (self.failed or self.wrong)


def parse_summary(stdout: str) -> list:
    """``key = value`` pairs in print order; klyshko-check prints two per line."""
    pairs = []
    for line in stdout.splitlines():
        for part in line.split("  "):
            key, sep, value = part.strip().partition(" = ")
            if sep:
                pairs.append((key, value))
    return pairs


def as_number(value: str):
    try:
        return float(value)
    except ValueError:
        return None


def read_csv(path: Path, header: bool) -> np.ndarray:
    """Numeric body of a CSV the CLI wrote (``#`` lines skipped), rows x columns."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    body = lines[1:] if header else lines
    return np.array(",".join(body).split(","), dtype=float).reshape(len(body), -1)


def temporal_magnitude() -> np.ndarray:
    """|Psi(t1, t2)| of the default temporal spec, from the closed form."""
    t_max = TEMPORAL_SPAN / min(TEMPORAL_SIGMA_PLUS, TEMPORAL_SIGMA_MINUS)
    step = 2.0 * t_max / (TEMPORAL_POINTS - 1)
    t = (np.arange(TEMPORAL_POINTS) - (TEMPORAL_POINTS - 1) / 2.0) * step
    t1, t2 = t[:, None], t[None, :]
    return np.exp(-TEMPORAL_SIGMA_PLUS ** 2 * (t1 + t2) ** 2
                  - TEMPORAL_SIGMA_MINUS ** 2 * (t1 - t2) ** 2)


def load_recorded(workload: str) -> dict:
    return json.loads((RECORDED_DIR / f"{workload}.json").read_text())


def op_key(command: str, bench: str) -> str:
    return f"{command}@{bench}"


def csv_table(op, summary: dict):
    """The CSV the operation wrote, or None for commands that write none."""
    if op.command == "klyshko-check":
        return None
    return read_csv(Path(summary["csv"]), header=op.command != "temporal")


def _check_invariants(op, summary: dict, table, expect_lower_bound: bool, verdict: Verdict):
    wrong = verdict.wrong.append
    if op.command == "measure-m1" and summary.get("uncertainty_product_over_h") != "1.0000":
        wrong(f"m1 uncertainty_product_over_h = {summary.get('uncertainty_product_over_h')}, not 1.0000")
    if op.command in ("measure-m1", "measure-m2"):
        if table.shape != (SCAN_Y_MM.size, 3):
            wrong(f"scan CSV has shape {table.shape}, expected ({SCAN_Y_MM.size}, 3)")
            return
        if np.max(np.abs(table[:, 0] - SCAN_Y_MM)) > TOLERANCE:
            wrong("scan CSV positions differ from the scan window")
        for col, name in ((1, "coincidence_norm"), (2, "singles_d2_norm")):
            values = table[:, col]
            if not (np.all(np.isfinite(values)) and values.min() >= 0 and values.max() == 1.0):
                wrong(f"{name} is not a finite peak-normalized column")
        has_bound = "uncertainty_product_over_h_lower_bound" in summary
        if op.command == "measure-m2" and has_bound != expect_lower_bound:
            wrong("separable lower-bound note missing" if expect_lower_bound
                  else "unexpected no-localization lower bound")
    if op.command == "ghost":
        if table.shape != (GHOST_PLANES_MM.size, 2):
            wrong(f"ghost CSV has shape {table.shape}, expected ({GHOST_PLANES_MM.size}, 2)")
            return
        if np.max(np.abs(table[:, 0] - GHOST_PLANES_MM)) > TOLERANCE:
            wrong("ghost CSV planes differ from the sweep")
        best = as_number(summary.get("best_plane_mm", "nan"))
        if best is None or not (GHOST_PLANES_MM[0] <= best <= GHOST_PLANES_MM[-1]):
            wrong(f"best_plane_mm = {best} outside the sweep")
    if op.command == "klyshko-check":
        worst, tol = as_number(summary.get("max_deviation", "nan")), as_number(summary.get("tolerance", "nan"))
        if summary.get("result") != "PASS" or None in (worst, tol) or not worst < tol:
            wrong(f"klyshko max_deviation {worst} not below tolerance {tol}")
    if op.command == "temporal":
        if summary.get("schmidt_number") != summary.get("schmidt_number_analytic"):
            wrong(f"schmidt_number {summary.get('schmidt_number')} != analytic "
                  f"{summary.get('schmidt_number_analytic')}")
        exact = temporal_magnitude()
        if table.shape != exact.shape or not np.allclose(table, exact, rtol=TEMPORAL_RTOL,
                                                         atol=TEMPORAL_ATOL):
            wrong("temporal CSV differs from the closed-form |Psi|")


def _check_recorded(pairs: list, table, recorded: dict, verdict: Verdict):
    want = recorded["summary"]
    if [k for k, _ in pairs] != [k for k, _ in want]:
        verdict.wrong.append(f"summary keys {[k for k, _ in pairs]} != recorded {[k for k, _ in want]}")
        return
    for (key, got), (_, exp) in zip(pairs, want):
        if key == "csv":
            got, exp = Path(got).name, Path(exp).name
        g, e = as_number(got), as_number(exp)
        same = (g == e or abs(g - e) <= TOLERANCE) if g is not None and e is not None else got == exp
        if not same:
            verdict.wrong.append(f"{key} = {got}, recorded {exp}")
    if recorded.get("columns") is not None:
        expected = np.array(recorded["columns"], dtype=float).T
        if table.shape != expected.shape:
            verdict.wrong.append(f"CSV shape {table.shape} != recorded {expected.shape}")
        else:
            same = (table == expected) | (np.abs(table - expected) <= TOLERANCE)
            if not same.all():
                col = int(np.nonzero(~same.all(axis=0))[0][0])
                verdict.wrong.append(f"CSV column {col} differs from the recorded one by "
                                     f"{np.nanmax(np.abs(table[:, col] - expected[:, col])):.3g}")


def check(op, recorded: dict | None, expect_lower_bound: bool = False) -> Verdict:
    """Judge one :class:`workloads.OpResult`."""
    verdict = Verdict()
    if op.error is not None:
        verdict.failed.append(op.error)
        return verdict
    if op.exit_code != 0:
        last = op.stderr.strip().splitlines()[-1:] or [""]
        verdict.failed.append(f"exit code {op.exit_code}: {last[0]}")
        return verdict
    pairs = parse_summary(op.stdout)
    for key, value in pairs:
        number = as_number(value)
        if number is not None and not math.isfinite(number):
            verdict.failed.append(f"non-finite summary value {key} = {value}")
    if verdict.failed:
        return verdict
    summary = dict(pairs)
    try:
        table = csv_table(op, summary)
    except (KeyError, OSError, ValueError) as exc:
        verdict.wrong.append(f"unreadable CSV: {type(exc).__name__}: {exc}")
        return verdict
    _check_invariants(op, summary, table, expect_lower_bound, verdict)
    if recorded is not None:
        _check_recorded(pairs, table, recorded, verdict)
    return verdict
