"""The benchmark's output checks accept every workload, run in process.

`bench/checks.py` re-derives every artifact from the weight families' closed
forms in mpmath, independently of shiftdyn, so running the workloads' commands
here puts that oracle into the tier-1 suite.  A command marked `known_fault`
is let off the problems tagged `checks.EPS_MISS` only, as `bench/run.py` lets
it off.  This only reads `bench/`.
"""

import json
from pathlib import Path

import pytest

from shiftdyn.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["tensor_eigen", "scan_series", "single_orbit"])
def test_workload_passes_the_benchmark_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    inputs, commands = workloads.build(workload, 1)
    for sub in ("in", "out"):
        (tmp_path / sub).mkdir()
    for rel, obj in inputs.items():
        (tmp_path / rel).write_text(json.dumps(obj), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the commands read in/ and write out/, relative to the pass directory
    assert [main(command["argv"]) for command in commands] == [0] * len(commands)
    problems = [
        problem
        for command in commands
        for problem in checks.check(command["check"], tmp_path)
        if not (command["check"].get("known_fault") and checks.EPS_MISS in problem)
    ]
    assert problems == []
