"""Record the expected outputs that ``reference`` and ``fine-grid`` are checked against.

    python3 perfbench/record.py

Runs each operation of the two fixed workloads once and writes
perfbench/expected/<workload>.json: the summary lines and every CSV column
(the temporal CSV is checked against its closed form instead).  Re-record
only for an intended output change, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import env


def main() -> int:
    env.prepare()
    import checks
    import workloads

    checks.RECORDED_DIR.mkdir(exist_ok=True)
    env.OUT.mkdir(exist_ok=True)
    for name in ("reference", "fine-grid"):
        workload = workloads.build(name, seed=0)
        outputs = {}
        with tempfile.TemporaryDirectory(prefix="record-", dir=env.OUT) as tmp:
            paths = workloads.write_configs(workload, Path(tmp))
            for command, bench in workload.ops:
                op = workloads.run_op(command, paths[bench])
                verdict = checks.check(op, recorded=None)
                if not verdict.ok:
                    sys.exit(f"{name} {command}: {verdict.failed + verdict.wrong}")
                pairs = checks.parse_summary(op.stdout)
                table = checks.csv_table(op, dict(pairs))
                # The CSV lands in a temporary directory; only its file name is compared.
                pairs = [(k, Path(v).name if k == "csv" else v) for k, v in pairs]
                columns = None if table is None or command == "temporal" else table.T.tolist()
                outputs[checks.op_key(command, bench)] = {"summary": pairs, "columns": columns}
        path = checks.RECORDED_DIR / f"{name}.json"
        path.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}"
                                         for key, value in outputs.items()) + "\n}\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
