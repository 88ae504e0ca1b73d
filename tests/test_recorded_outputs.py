"""measure, ghost, klyshko-check and temporal print what the benchmark recorded.

Each recorded measure-m1, measure-m2 and ghost operation of the
``reference`` and ``fine-grid`` workloads, and the ``reference``
klyshko-check and temporal operations, runs through the benchmark's own
runner (``perfbench.workloads.run_op``) and is judged by its own check
(``perfbench.checks.check``) against ``perfbench/expected/*.json``, which
is read, never written.  So a change that moves a printed value by more
than the check's tolerance fails here, not only in a benchmark run.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (workload, command): every recorded operation of these commands.
RECORDED_OPS = [("reference", "measure-m1"), ("reference", "measure-m2"), ("reference", "ghost"),
                ("reference", "klyshko-check"), ("reference", "temporal"),
                ("fine-grid", "measure-m2"), ("fine-grid", "ghost")]


@pytest.mark.parametrize("workload_name, command", RECORDED_OPS, ids=[f"{c}@{w}" for w, c in RECORDED_OPS])
def test_output_matches_the_recorded_one(monkeypatch, tmp_path, workload_name, command):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import checks, workloads
    workload = workloads.build(workload_name, seed=1)
    (bench,) = workload.configs
    assert (command, bench) in workload.ops
    recorded = checks.load_recorded(workload_name)[checks.op_key(command, bench)]
    op = workloads.run_op(command, workloads.write_configs(workload, tmp_path)[bench])
    verdict = checks.check(op, recorded)
    assert verdict.ok, verdict.failed + verdict.wrong
