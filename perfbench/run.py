"""ghostbench benchmark: per-command solve time, set-up and memory.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 34 --trace 0

One process, one client, closed loop: each operation is one in-process
``ghostbench.cli.main([command, config])`` call, and the next starts only
after the previous one returns.  A run takes one warm-up pass
(which also gives the peak RSS), then repeats passes for ``--seconds``,
each followed by one set-up in a fresh interpreter.  ``--trace 1`` alternates untraced and
traced passes and reports per-layer metrics instead of end-to-end ones.

The last stdout line is the JSON result; the lines before it print every
metric by name and unit.  The full record (machine, seed, per-pass
timings, failures and, when traced, the spans) is written to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import env

# What a user's fresh `ghostbench <command> <config>` pays before any work.
SETUP_CHILD = """
import json, sys, time
from pathlib import Path
start = time.perf_counter()
import ghostbench.cli
imported = time.perf_counter()
from ghostbench.config import parse_config
for path in sys.argv[1:]:
    parse_config(Path(path).read_text())
print(json.dumps({"import_s": imported - start, "parse_s": time.perf_counter() - imported}))
"""

# Measured here but absent from BENCHMARK.json, because not every workload
# runs the commands and layers they time (see README.md).
EXTRA_END_TO_END = ("measure_m1_s", "klyshko_check_s", "temporal_s")
EXTRA_PER_LAYER = ("elements.field_arm_s", "experiment.klyshko_s", "experiment.advanced_wave_s",
                   "temporal.eval_s", "temporal.schmidt_s", "cli.measure-m1.self_s",
                   "cli.klyshko-check.self_s", "cli.temporal.self_s")

# Byte counts derived from array shapes (N^2 * 16 B per joint amplitude), not measured traffic.
COMPUTED = ("source.bytes", "elements.axis_bytes")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_rate", "_yield")):
        return "ratio"
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("reference", "fine-grid", "regime-map"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _llc() -> dict | None:
    """Size and sharing of the last-level cache, from sysfs."""
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    best = None
    for index in caches:
        try:
            level = int((index / "level").read_text())
            if best is None or level > best["level"]:
                best = {"level": level, "size": (index / "size").read_text().strip(),
                        "shared_cpu_list": (index / "shared_cpu_list").read_text().strip()}
        except (OSError, ValueError):
            continue
    return best


def _blas_runtime_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, asked through ctypes."""
    import ctypes
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads[Path(lib).name] = int(getattr(handle, symbol)())
                break
    return threads


def machine_record(pinned_threads: int, memory_kept: bool) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": pinned_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "freed_memory_kept_after_warm_up": memory_kept,
    }


def setup_sample(config_paths) -> dict:
    """One fresh-interpreter set-up: wall time plus the child's own split."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, *map(str, config_paths)],
                          cwd=env.ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return {"wall_s": wall, **json.loads(proc.stdout)}


def tail_percentile(values: list):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    p = int(100 * (1 - 10 / n))
    ordered = sorted(values)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


class Run:
    """One benchmark run: its verdict counts and, when traced, the spans."""

    def __init__(self, workload, paths, recorded, tracer):
        self.workload, self.paths, self.recorded, self.tracer = workload, paths, recorded, tracer
        self.attempted = self.failed = self.wrong = 0
        self.failures = collections.Counter()   # "<command>@<bench>: reason"

    def one_pass(self, traced: bool) -> dict:
        """Run every operation once and check it; return the pass's timings."""
        # numpy-using modules load only after env.prepare() (see main).
        import checks
        import tracing
        import workloads
        times, csv_bytes = {}, 0
        first_span = len(self.tracer.spans) if traced else 0
        start = time.perf_counter()
        with self.tracer.installed() if traced else contextlib.nullcontext():
            for command, bench in self.workload.ops:
                op = workloads.run_op(command, self.paths[bench],
                                      around=self.tracer.command if traced else None)
                times[command] = times.get(command, 0.0) + op.seconds
                key = checks.op_key(command, bench)
                # Only regime-map's separable bench takes the lower-bound path.
                verdict = checks.check(op, self.recorded.get(key) if self.recorded else None,
                                       expect_lower_bound=bench == "separable")
                self.attempted += 1
                if not verdict.ok:
                    self.failed += 1
                    self.wrong += bool(verdict.wrong)
                    self.failures.update(f"{key}: {reason}" for reason in verdict.failed + verdict.wrong)
                csv = dict(checks.parse_summary(op.stdout)).get("csv")
                if csv and Path(csv).is_file():
                    csv_bytes += Path(csv).stat().st_size
        record = {"traced": traced, "wall_s": time.perf_counter() - start,
                  "pass_s": sum(times.values()), "commands": times}
        if traced:
            record["layers"] = tracing.pass_layers(self.tracer.spans, first_span)
            record["layers"]["cli.csv_bytes"] = csv_bytes
        return record


def timing_stats(values: list) -> dict:
    tail = tail_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "tail_percentile": None if tail is None else {"p": tail[0], "value": tail[1]},
            "samples": values}


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = env.prepare()
    import numpy

    import checks
    import tracing
    import workloads

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    workload = workloads.build(args.workload, args.seed)
    recorded = checks.load_recorded(workload.name) if workload.recorded else None
    env.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=env.OUT) as tmp:
        paths = workloads.write_configs(workload, Path(tmp))
        run = Run(workload, paths, recorded, tracing.Tracer() if args.trace else None)
        warm = run.one_pass(traced=False)                # warm-up, not timed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        memory_kept = env.keep_freed_memory()
        # Grow the kept heap to the warm-up's peak once, so that the first
        # timed pass does not pay the page faults the later ones skip.
        numpy.ones(int(peak_rss_mb * 2 ** 20), dtype=numpy.uint8)
        # One set-up sample follows every pass, so that the samples spread
        # over the run instead of catching one moment of the host's state.
        start = time.perf_counter()
        setup = [setup_sample(paths.values())]
        steps = [time.perf_counter() - start + warm["wall_s"]]
        timed = []
        while True:
            step_start = time.perf_counter()
            timed.append(run.one_pass(traced=bool(args.trace) and len(timed) % 2 == 1))
            setup.append(setup_sample(paths.values()))
            steps.append(time.perf_counter() - step_start)
            # Stop before a step that would end after --seconds; a traced run
            # needs at least one untraced and one traced pass.
            enough = len(timed) >= (2 if args.trace else 1)
            if enough and time.perf_counter() - start + statistics.median(steps) > args.seconds:
                break

    untraced = [p for p in timed if not p["traced"]]
    timings = {"pass_s": timing_stats([p["pass_s"] for p in untraced]),
               "setup_s": timing_stats([s["wall_s"] for s in setup])}
    for command in dict.fromkeys(command for command, _ in workload.ops):
        timings[command.replace("-", "_") + "_s"] = timing_stats([p["commands"][command]
                                                                 for p in untraced])
    values = {name: t["median"] for name, t in timings.items()}
    values["peak_rss_mb"] = peak_rss_mb
    values["success_rate"] = (run.attempted - run.failed) / run.attempted

    if args.trace:
        traced = [p for p in timed if p["traced"]]
        values.update(tracing.median_layers([p["layers"] for p in traced]))
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
        values["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                      - values["pass_s"])
        wanted = [m["name"] for m in spec["per_layer"]]
        extras = [name for name in EXTRA_PER_LAYER if values.get(name)]
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        extras = [name for name in EXTRA_END_TO_END if name in values]

    print(f"workload = {workload.name}  seed = {args.seed}  trace = {args.trace}  "
          f"passes = {len(untraced)} untraced + {len(timed) - len(untraced)} traced")
    for name in wanted + extras:
        line = f"{name} = {values[name]:.6g} {unit_of(name)}"
        if name in timings:
            t = timings[name]
            tail = t["tail_percentile"]
            line += f"  (median of n = {t['n']}; " + (
                f"p{tail['p']} = {tail['value']:.6g} s)" if tail else "no percentile has 10 samples beyond it)")
        if name in COMPUTED:
            line += "  (computed from array shapes)"
        print(line + ("" if name in wanted else "  [reported only]"))
    for reason, count in sorted(run.failures.items()):
        print(f"failure x{count}: {reason}")

    (env.OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "params": workload.params, "configs": workload.configs,
        "machine": machine_record(threads, memory_kept), "setup": setup, "timings": timings,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "passes": timed, "spans": run.tracer.spans if run.tracer else None,
    }, indent=1, default=float))
    print(json.dumps({
        "correct": run.wrong == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit_of(name)} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
