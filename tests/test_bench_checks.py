"""The benchmark's output checks accept the tensor_eigen workload, run in process.

`bench/checks.py` re-derives every `eigen` and `periodic` artifact from the
weight families' closed forms in mpmath, independently of shiftdyn, so running
the workload's commands here puts that oracle into the tier-1 suite.  This only
reads `bench/`.
"""

import json
from pathlib import Path

from shiftdyn.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tensor_eigen_workload_passes_the_benchmark_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    inputs, commands = workloads.build("tensor_eigen", 1)
    for sub in ("in", "out"):
        (tmp_path / sub).mkdir()
    for rel, obj in inputs.items():
        (tmp_path / rel).write_text(json.dumps(obj), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the commands read in/ and write out/, relative to the pass directory
    assert [main(command["argv"]) for command in commands] == [0] * len(commands)
    assert [problem for command in commands for problem in checks.check(command["check"], tmp_path)] == []
