"""Benchmark of the shiftdyn command line, end to end and layer by layer.

One run:

    python3 bench/run.py --workload tensor_eigen --seed 1 --seconds 36 --trace 0

builds the workload's seeded inputs and command list (bench/workloads.py),
then repeats passes until another pass would overrun --seconds (default:
run_seconds in BENCHMARK.json).  Each pass is a fresh
interpreter (bench/child.py) that imports shiftdyn.cli from ./src and runs
every command in-process through shiftdyn.cli.main, one after the other.
The first pass's artifacts are checked against closed forms
(bench/checks.py, bench/oracle.py); every later pass must write the same
bytes.  With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer metrics of bench/tracer.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record (git sha, Python and numpy versions, every pass) goes to
bench/_results/.

Steadiness:

    python3 bench/run.py --steadiness

runs two sets of ten runs of every workload (each run at its own seed:
1..10 in the first set, 11..20 in the second) and reports, per end-to-end
metric and workload, both sets' medians and quartiles and whether they
agree within the bounds in BENCHMARK.json: each set's spread (IQR/median)
and the move of the median between the sets, either way, within the bound.

Run from the root of a source checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"
CHILD_TIMEOUT_S = 150
RUN_TIMEOUT_S = 175
RUNS_PER_SET = 10  # steadiness: runs per set and workload


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {"git_sha": git_sha(), "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count()}


def _write_inputs(pass_dir: Path, inputs: dict) -> None:
    (pass_dir / "in").mkdir(parents=True)
    (pass_dir / "out").mkdir()
    for rel, obj in inputs.items():
        (pass_dir / rel).write_text(json.dumps(obj), encoding="utf-8")


def run_pass(inputs: dict, argvs: list, pass_dir: Path, trace: bool) -> tuple[float, dict]:
    """Set up and run one pass; returns (input generation seconds, child report)."""
    t0 = time.perf_counter()
    _write_inputs(pass_dir, inputs)
    gen_s = time.perf_counter() - t0
    job = pass_dir / "job.json"
    report = pass_dir / "report.json"
    job.write_text(json.dumps({"src": str(SRC), "pass_dir": str(pass_dir), "commands": argvs,
                               "trace": trace, "report": str(report)}), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", SHIFTDYN_LOG_LEVEL="error")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job)], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}")
    return gen_s, json.loads(report.read_text(encoding="utf-8"))


def _digest(pass_dir: Path, meta: dict) -> list:
    out = pass_dir / meta["out"]
    found = []
    for path in (out, out.with_name(out.name + ".series.csv")):
        found.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None)
    found.append((out.with_name(out.name + ".manifest.json")).exists())
    return found


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Passes until `seconds` are up; returns (result line, full record)."""
    inputs, commands = workloads.build(name, seed)
    argvs = [c["argv"] for c in commands]
    metas = [c["check"] for c in commands]
    work = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    passes, problems, known, reference = [], [], [], None
    failing = set()  # commands whose first artifacts failed a check; the same bytes fail again
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            pass_dir = work / f"pass{len(passes)}"
            t_pass = time.perf_counter()
            gen_s, rep = run_pass(inputs, argvs, pass_dir, trace)
            pass_wall = time.perf_counter() - t_pass
            bad = set()
            for i, rc in enumerate(rep["exit_codes"]):
                if rc != 0:
                    bad.add(i)
                    problems.append(f"{metas[i]['out']}: exited with {rc}")
            digests = [_digest(pass_dir, m) for m in metas]
            if reference is None:
                reference = digests
                for i, meta in enumerate(metas):
                    found = [] if i in bad else checks.check(meta, pass_dir)
                    if found:
                        failing.add(i)
                    # a known fault fails every run and only its own checks;
                    # any other failed check is a wrong output
                    for msg in found:
                        (known if meta.get("known_fault") and checks.EPS_MISS in msg else problems).append(msg)
            else:
                for i, meta in enumerate(metas):
                    if i not in bad and digests[i] != reference[i]:
                        bad.add(i)
                        problems.append(f"{meta['out']}: artifacts differ from the first pass")
            bad |= failing
            attempted += len(commands)
            failed += len(bad)
            rep["gen_s"] = gen_s
            rep["failed"] = sorted(bad)
            passes.append(rep)
            shutil.rmtree(pass_dir)
            # stop when another pass as long as this one would overrun the run
            if time.perf_counter() - start + pass_wall > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med = statistics.median
    if trace:
        traces = [p["trace"] for p in passes]
        metrics = {k: (med(t[k] for t in traces) if k.endswith("_s") else traces[0][k]) for k in traces[0]}
        for t in traces[1:]:
            drift = [k for k in t if not k.endswith("_s") and t[k] != traces[0][k]]
            if drift:
                print(f"bench: counts differ between passes: {drift}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": med(p["gen_s"] + p["import_s"] for p in passes),
            "pass_s": med(p["pass_s"] for p in passes),
            "cmd_geomean_s": med(math.exp(statistics.fmean(math.log(t) for t in p["cmd_s"])) for p in passes),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        }
    line = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, **environment(),
              "commands": argvs, "problems": problems, "known_fault_failures": known, "passes": passes, **line}
    return line, record


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit("bench: BENCHMARK.json not found; run from the root of the checkout")
    return json.loads(path.read_text(encoding="utf-8"))


def one_run(args, bench: dict) -> int:
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    missing = [s["name"] for s in specs if s["name"] not in line["metrics"]]
    if missing:
        raise RuntimeError(f"metrics missing from the run: {missing}")
    line["metrics"] = {s["name"]: {"value": line["metrics"][s["name"]], "unit": s["unit"]} for s in specs}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in record["problems"][:20]:
        print(f"bench: {problem}", file=sys.stderr)
    if record["known_fault_failures"]:
        print(f"bench: {len(record['known_fault_failures'])} checks failed on known faults (see the record)",
              file=sys.stderr)
    print(json.dumps(line))
    return 0


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def steadiness(args, bench: dict) -> int:
    """Two sets of runs of this checkout, compared metric by metric."""
    names = workloads.WORKLOADS
    runs: dict[str, dict[str, list]] = {"A": {}, "B": {}}
    for s, label in enumerate("AB"):
        for name in names:
            for r in range(RUNS_PER_SET):
                seed = 1 + s * RUNS_PER_SET + r
                cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
                if proc.returncode != 0:
                    raise RuntimeError(f"run failed: {' '.join(cmd)}")
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                runs[label].setdefault(name, []).append(line)
                print(f"set {label} {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), file=sys.stderr)
    summary, ok = {}, True
    for name in names:
        a_runs, b_runs = runs["A"][name], runs["B"][name]
        row = {}
        for spec in bench["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            a = _stats([x["metrics"][metric]["value"] for x in a_runs])
            b = _stats([x["metrics"][metric]["value"] for x in b_runs])
            shift = (b["median"] - a["median"]) / a["median"]
            agree = abs(shift) <= bound and a["spread"] <= bound and b["spread"] <= bound
            ok &= agree
            row[metric] = {"A": a, "B": b, "shift": shift, "bound": bound, "agree": agree}
        share = [sum(x["failed"] for x in rs) / sum(x["attempted"] for x in rs) for rs in (a_runs, b_runs)]
        row["failed_share"] = {"A": share[0], "B": share[1], "agree": share[0] == share[1]}
        row["correct"] = all(x["correct"] for x in a_runs + b_runs)
        ok &= share[0] == share[1] and row["correct"]
        summary[name] = row
        print(f"\n{name}: failed share A={share[0]} B={share[1]}, correct={row['correct']}")
        print(f"  {'metric':<14}{'median A':>11}{'IQR/med A':>11}{'median B':>11}{'IQR/med B':>11}"
              f"{'shift':>9}{'bound':>7}  agree")
        for spec in bench["end_to_end"]:
            m = row[spec["name"]]
            print(f"  {spec['name']:<14}{m['A']['median']:>11.4g}{m['A']['spread']:>11.3%}"
                  f"{m['B']['median']:>11.4g}{m['B']['spread']:>11.3%}{m['shift']:>9.2%}{m['bound']:>7.2f}  {m['agree']}")
    RESULTS.mkdir(exist_ok=True)
    record = {**environment(), "runs": RUNS_PER_SET, "seconds": args.seconds,
              "summary": summary, "agree": ok}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (RESULTS / f"steadiness-{stamp}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"\nsteadiness: {'all metrics agree within their bounds' if ok else 'NOT steady'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true", help="two sets of runs of every workload")
    args = parser.parse_args(argv)
    if not args.steadiness and args.workload is None:
        parser.error("--workload is required unless --steadiness is given")
    if not (SRC / "shiftdyn" / "cli.py").is_file():
        print(f"bench: no shiftdyn sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.steadiness:
        return steadiness(args, bench)
    return one_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
