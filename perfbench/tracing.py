"""Traced passes: spans around the calls into each ghostbench layer.

The tracer rebinds each traced name in the module that calls it, so no
file under ``src/`` changes and untraced passes run the original code
(the bindings are restored after every traced pass).  A span records its
name, start, end, parent span, the operation it belongs to, and the counts
taken at that boundary.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import statistics
import time
from contextlib import contextmanager

import numpy as np


def _amp_counts(args, kwargs, result):
    joint = kwargs.get("joint", args[0])
    return {"rows": joint.amplitudes.shape[0], "bytes": joint.amplitudes.nbytes}


def _arm_span_name(args, kwargs):
    axis = kwargs.get("axis", args[2] if len(args) > 2 else None)
    return f"elements.{axis}_arm"


# (module that makes the call, name it calls, span name or namer, counts taken from the call)
BINDINGS = (
    ("ghostbench.cli", "parse_config", "config.parse", None),
    ("ghostbench.cli", "run_coincidence_scan", "experiment.scan", None),
    ("ghostbench.cli", "compute_pattern_stats", "analysis.pattern_stats", None),
    ("ghostbench.cli", "ghost_image_stats", "analysis.ghost_sweep",
     lambda a, k, r: {"planes": len(r.planes_m)}),
    ("ghostbench.cli", "klyshko_deviation", "experiment.klyshko", None),
    ("ghostbench.cli", "eval_biphoton_wavepacket", "temporal.eval", None),
    ("ghostbench.cli", "factorability_check", "temporal.schmidt", None),
    ("ghostbench.experiment", "build_source", "source.build",
     lambda a, k, r: {"bytes": r.amplitudes.nbytes}),
    ("ghostbench.experiment", "apply_arm_to_axis", _arm_span_name, _amp_counts),
    ("ghostbench.experiment", "apply_arm", "elements.field_arm", None),
    ("ghostbench.experiment", "klyshko_advanced_wave", "experiment.advanced_wave", None),
    ("ghostbench.experiment", "_d1_weights", "experiment.d1_weights",
     lambda a, k, r: {"detected_rows": int(np.count_nonzero(r > 0))}),
    ("ghostbench.analysis", "signal_conditioned_rows", "experiment.conditioned_rows", None),
    ("ghostbench.analysis", "fit_sinc2", "analysis.sinc_fit", lambda a, k, r: {"kept": 1}),
    ("ghostbench.analysis", "least_squares", "analysis.least_squares",
     lambda a, k, r: {"nfev": int(r.nfev)}),
)


class Tracer:
    def __init__(self):
        self.spans = []      # dicts: name, start, end, parent, op, counts
        self._stack = []
        self._op = -1

    def _open(self, name, counts=None):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "op": self._op,
                "counts": counts or {}}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, command):
        """The span of one CLI operation; its children share its op id."""
        self._op += 1
        span = self._open(f"cli.{command}")
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["counts"]["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if counts is not None:
                span["counts"].update(counts(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of one traced pass."""
        saved = []
        try:
            for module_name, attr, name, counts in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _self_times(spans, first):
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"] - first] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def _has_ancestor(spans, first, index, names):
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent - first]["name"] in names:
            return True
        parent = spans[parent - first]["parent"]
    return False


def pass_layers(all_spans, first: int) -> dict:
    """Per-layer totals and counts for the spans of one traced pass.

    ``all_spans[first:]`` are the pass's spans; parents index ``all_spans``.
    """
    spans = all_spans[first:]
    selfs = _self_times(spans, first)
    total, self_total, count = collections.Counter(), collections.Counter(), collections.Counter()
    for span, self_s in zip(spans, selfs):
        total[span["name"]] += span["end"] - span["start"]
        self_total[span["name"]] += self_s
        count[span["name"]] += 1

    def counted(name, key):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    arm_rows = [i for i, s in enumerate(spans) if s["name"] == "elements.signal_arm"
                and _has_ancestor(spans, first, i, ("experiment.scan", "experiment.conditioned_rows"))]
    detected = counted("experiment.d1_weights", "detected_rows")
    signal_rows = sum(spans[i]["counts"]["rows"] for i in arm_rows)
    starts = count["analysis.least_squares"]
    layers = {
        "config.parse_s": total["config.parse"],
        "source.build_s": total["source.build"],
        "source.builds": count["source.build"],
        "source.bytes": counted("source.build", "bytes"),
        "elements.signal_arm_s": total["elements.signal_arm"],
        "elements.idler_arm_s": total["elements.idler_arm"],
        "elements.axis_rows": counted("elements.signal_arm", "rows") + counted("elements.idler_arm", "rows"),
        "elements.axis_bytes": counted("elements.signal_arm", "bytes") + counted("elements.idler_arm", "bytes"),
        "elements.field_arm_s": total["elements.field_arm"],
        "experiment.scan_s": total["experiment.scan"],
        "experiment.scan.self_s": self_total["experiment.scan"],
        "experiment.detected_rows": detected,
        "experiment.row_yield": detected / signal_rows if signal_rows else 0.0,
        "experiment.klyshko_s": total["experiment.klyshko"],
        "experiment.advanced_wave_s": total["experiment.advanced_wave"],
        "experiment.conditioned_rows_s": total["experiment.conditioned_rows"],
        "analysis.pattern_stats_s": total["analysis.pattern_stats"],
        "analysis.sinc_fit_s": total["analysis.sinc_fit"],
        "analysis.fit_starts": starts,
        "analysis.fit_nfev": counted("analysis.least_squares", "nfev"),
        "analysis.fit_yield": counted("analysis.sinc_fit", "kept") / starts if starts else 0.0,
        "analysis.ghost_sweep.self_s": self_total["analysis.ghost_sweep"],
        "analysis.planes": counted("analysis.ghost_sweep", "planes"),
        "temporal.eval_s": total["temporal.eval"],
        "temporal.schmidt_s": total["temporal.schmidt"],
    }
    for name, self_s in self_total.items():
        if name.startswith("cli."):
            layers[f"{name}.self_s"] = self_s
    return layers


def median_layers(per_pass: list) -> dict:
    """Median over traced passes of each per-pass layer value."""
    names = {name for layers in per_pass for name in layers}
    return {name: statistics.median(layers.get(name, 0) for layers in per_pass)
            for name in sorted(names)}
