"""The benchmark's per-layer tracer still finds what it wraps in the package.

`bench/tracer.py` wraps package functions by module and name, so a rename in
`src` can break `bench/run.py --trace 1` without failing any other test.  It
times the CLI's `_dump_json`, `_csv_text` and `_write_text(path, text)` as
the serialize and write parts, and counts `len(text)` in UTF-8 as the bytes
written; those names and that signature are part of its contract.
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
    (tmp_path / "pair.json").write_text(json.dumps({"left": op, "right": op}), encoding="utf-8")
    vec = {"p1": 0, "p2": 0, "entries": [[3, 4, 0.5, 0.25], [5, 2, -1.0, 1.0]]}
    (tmp_path / "vec.json").write_text(json.dumps(vec), encoding="utf-8")
    commands = [
        ["eigen", "--lambda", "0.5,0", "--mu", "0.3,0", "--out", "out/eigen.json"],
        ["op", "power", "--op", "pair.json", "--vec", "vec.json", "-k", "2", "--out", "out/power.json"],
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
    report = out["report"]
    assert report["cli.serialize_s"] > 0
    # every file the commands wrote, the manifests (which carry a wall time) aside
    written = [path for path in (tmp_path / "out").iterdir() if not path.name.endswith(".manifest.json")]
    assert sorted(path.name for path in written) == ["eigen.json", "eigen.json.series.csv", "power.json"]
    assert report["cli.bytes_written"] == sum(path.stat().st_size for path in written)
    # the tracer counts the entries of the first value a builder returns, the left factor:
    # indices p..trunc_m, with p = 0 as the eigen command defaults to
    spec = json.loads((tmp_path / "out" / "eigen.json").read_text(encoding="utf-8"))["eigen_spec"]
    p = 0
    assert report["dynamics.eigen_entries"] == spec["trunc_m"] - p + 1


_HYPERCYCLIC_SCRIPT = """
import collections, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import shiftdyn.cli as cli
from shiftdyn.weights import BargmannActionWeights, WeightSequence
from tracer import Tracer

# evaluations of the weight formula per index, split by whether a span asked for them
tabulated, direct, depth = collections.Counter(), collections.Counter(), []
terms, formula = WeightSequence.span_terms, BargmannActionWeights._log

def span_terms(self, lo, hi):
    depth.append(lo)
    try:
        return terms(self, lo, hi)
    finally:
        depth.pop()

def _log(self, n):
    (tabulated if depth else direct)[n] += 1
    return formula(self, n)

WeightSequence.span_terms = span_terms
BargmannActionWeights._log = _log
tracer = Tracer()
tracer.install()
code = cli.main(["hypercyclic", "--targets", "targets.json", "--eps", "1e-6", "--out", "out/h.json"])
print(json.dumps({{"code": code, "report": tracer.report(),
                  "tabulated": sorted(tabulated.items()), "direct": sum(direct.values())}}))
"""


def test_traced_hypercyclic_counts_each_weight_once(tmp_path):
    # the build's probes and psi read S^n spans and the replay T^n spans, over one weight sequence
    targets = [{"p": 0, "entries": [[m, 0.1 * m, 0.2]]} for m in (3, 1, 4, 0, 2, 5)]
    (tmp_path / "targets.json").write_text(json.dumps({"targets": targets}), encoding="utf-8")
    script = _HYPERCYCLIC_SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    tabulated = dict(out["tabulated"])
    # the table holds each weight from the first index up, evaluated once for both directions
    assert sorted(tabulated) == list(range(1, max(tabulated) + 1))
    assert set(tabulated.values()) == {1}
    # the tracer counts every evaluation once, those made inside a span included
    assert out["report"]["weights.scalar_calls"] == len(tabulated) + out["direct"]
