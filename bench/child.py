"""One benchmark pass, in a fresh interpreter.

    python3 bench/child.py JOB.json

JOB.json names the source tree, the pass directory, the command list and
whether to trace.  The pass imports shiftdyn.cli (timed: a CLI user pays
the import on every invocation), then runs every command in-process through
shiftdyn.cli.main from inside the pass directory, and writes a JSON report
with the import time, the pass and per-command wall times, the exit codes,
the process's peak resident memory and, when tracing, the per-layer
metrics.  A fresh interpreter per pass keeps anything the program caches
in memory from carrying over from one timed pass to the next.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    getrusage's ru_maxrss survives exec, so in a process forked from a larger
    parent it reports the parent's peak; VmHWM belongs to the image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import shiftdyn.cli as cli

    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"bench: imported shiftdyn from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(job["pass_dir"])
    cmd_s, codes = [], []
    start = time.perf_counter()
    for argv in job["commands"]:
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits instead of returning 2
            rc = exc.code if isinstance(exc.code, int) else 2
        cmd_s.append(time.perf_counter() - t)
        codes.append(rc)
    pass_s = time.perf_counter() - start
    report = {
        "import_s": import_s,
        "pass_s": pass_s,
        "cmd_s": cmd_s,
        "exit_codes": codes,
        "peak_rss_mb": peak_rss_mb(),
        "trace": tracer.report() if tracer else None,
    }
    Path(job["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
