"""Every command prints and writes the bytes on record.

Each of the six commands runs in process (``ghostbench.cli.main``) on the
reference config, on a nondegenerate one (650 nm signal, idler at the
exact energy-conserving wavelength), on the separable control and on a
wide band (512 points, a 3 mm correlation, a 29 mm slit A), each writing
to its own directory.
Its exit code, stdout and every CSV it writes are hashed with SHA-256,
the output directory masked as ``<output>`` first, and the hashes must
equal those in ``output_hashes.json`` next to this file.  So any change
to a printed or written byte fails here.

A change that moves the output on purpose re-records the hashes in the
same change and lists what moved, and why, in CHANGES.md.  To re-record,
from the repository root::

    PYTHONPATH=src python tests/test_output_hashes.py

which rewrites ``tests/output_hashes.json`` from the current code.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ghostbench.cli import main

HASHES = Path(__file__).with_name("output_hashes.json")

CONFIGS = {
    "reference": "",
    "nondegenerate": "[source]\nsignal_wavelength_nm = 650\nidler_wavelength_nm = 763.5162261625964\n",
    "separable": "[source]\nkind = separable\n",
    "wide-band": "[grid]\nn_points = 512\n[source]\ncorrelation_width_um = 3000\n[signal_arm]\nslit_a_width_mm = 29\n",
}

COMMANDS = ("measure-m1", "measure-m2", "ghost", "klyshko-check", "temporal", "validate-config")

MASK = "<output>"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_and_hash(config: str, command: str, directory: Path) -> dict:
    """``{"exit": code, "stdout": hash, <csv name>: hash, ...}`` of one run
    writing to ``directory``, which must not exist yet."""
    out = directory / "out"
    path = directory / "run.cfg"
    directory.mkdir(parents=True)
    path.write_text(f"{CONFIGS[config]}[output]\ndirectory = {out}\n")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, str(path)])
    record = {"exit": code, "stdout": _sha256(stdout.getvalue().replace(str(out), MASK))}
    for csv in sorted(out.glob("*.csv")) if out.exists() else ():
        record[csv.name] = _sha256(csv.read_text().replace(str(out), MASK))
    return record


def _key(config: str, command: str) -> str:
    return f"{command}@{config}"


CASES = [(config, command) for config in CONFIGS for command in COMMANDS]


@pytest.mark.parametrize("config, command", CASES, ids=[_key(*case) for case in CASES])
def test_output_bytes_match_the_recorded_hashes(tmp_path, config, command):
    recorded = json.loads(HASHES.read_text())[_key(config, command)]
    assert run_and_hash(config, command, tmp_path / "run") == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        hashes = {_key(config, command): run_and_hash(config, command, Path(scratch) / _key(config, command))
                  for config, command in CASES}
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(hashes)} runs in {HASHES}")
