"""The benchmark's per-layer tracer still finds what it wraps in the package.

`bench/tracer.py` wraps package functions by module and name, so a rename in
`src` can break `bench/run.py --trace 1` without failing any other test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import shiftdyn.cli as cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
codes = [cli.main(argv) for argv in {commands!r}]
print(json.dumps({{"codes": codes, "report": tracer.report()}}))
"""


def test_tracer_reports_every_per_layer_metric(tmp_path):
    op = {"weights": {"family": "bargmann_composite", "p": 0}}
    (tmp_path / "op.json").write_text(json.dumps(op), encoding="utf-8")
    vec = {"p1": 0, "p2": 0, "entries": [[3, 4, 0.5, 0.25], [5, 2, -1.0, 1.0]]}
    (tmp_path / "vec.json").write_text(json.dumps(vec), encoding="utf-8")
    commands = [
        ["eigen", "--lambda", "0.5,0", "--mu", "0.3,0", "--out", "eigen.json"],
        ["tensor", "power", "--left", "op.json", "--right", "op.json", "--vec", "vec.json",
         "-k", "2", "--out", "power.json"],
    ]
    script = _SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"), commands=commands)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["per_layer"]]
    assert len(names) == 22
    assert set(names) <= set(out["report"])
