"""The benchmark's workloads give their recorded golden output.

Each command of ``perfbench/workloads.json`` runs in process, with its cache
file in a temporary directory and seed 1; stdout and the exit code must match
``perfbench/golden``.  The benchmark checks the same files on every run, so a
drift in output fails here first.  This test only reads those files.
"""

import json
from pathlib import Path

import pytest

from adlv.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]
EXIT_CODES = json.loads((BENCH / "golden" / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w["name"] for w in WORKLOADS])
def test_workload_matches_its_golden_output(tmp_path, capsys, workload):
    cache = str(tmp_path / "cache.jsonl")
    argv = [a.format(seed=1, cache=cache) for a in workload["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    golden = BENCH / "golden" / f"{workload['name']}.stdout"
    with open(golden, encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    assert code == EXIT_CODES[workload["name"]]
