"""One fresh interpreter: set up f2rep, then optionally run one pass.

    python3 bench/child.py MODE WORKLOAD OUT

MODE is `setup` (import and build the argv, print `ready`, exit), `pass1`
or `pass2` (one pass through f2rep.cli.main at --jobs 1 or 2, output to
OUT), or `trace` (a jobs-1 pass with spans around the calls between
modules; the spans go to OUT + '.spans').  A pass prints one JSON line:
the exit code of main, its wall time, the factor that scales it to
nominal speed (yardstick.py), the process's peak RSS and, traced, the
per-layer metrics.  run.py starts this with PYTHONPATH naming the
checkout's src directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

import yardstick

FAMILY_R_MAX = 12

# Which program path each workload exercises is argued in README.md.
WORKLOADS = {
    "census": ["scan", "--preset", "degree14"],
    "digitsets": ["scan", "--shape", "quadrinomial", "--degree-max", "20", "--json"],
    "families": ["family", "range", "--r-max", str(FAMILY_R_MAX), "--allow-large-r"],
}


def build_argv(workload: str, jobs: int, out: str) -> list[str]:
    argv = WORKLOADS[workload] + ["--jobs", str(jobs)]
    return argv if workload == "families" else argv + ["--out", out]


def peak_rss_mb() -> float:
    # ru_maxrss keeps the parent's peak across fork and exec, so read this
    # process's own high-water mark where Linux gives it.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    mode, workload, out = sys.argv[1:4]
    from f2rep import cli

    src = os.path.realpath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"f2rep was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    argv = build_argv(workload, 2 if mode == "pass2" else 1, out)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    if mode == "pass2":
        speed = yardstick.InWorkers(out + ".speed")
    else:
        # One core for the pass and the yardstick thread, so that the
        # yardstick reads the speed of the core the pass runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        speed = yardstick.Sampler()
    run = cli.main
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print("not traced, gone from f2rep: " + ", ".join(missing), file=sys.stderr)
        run = tracer.call("cli.main", cli.main)
    with contextlib.ExitStack() as stack:
        if workload == "families":
            stack.enter_context(contextlib.redirect_stdout(stack.enter_context(open(out, "w"))))
        with speed:
            t0 = time.perf_counter()
            code = run(argv)
            wall = time.perf_counter() - t0
    result = {
        "code": code,
        "wall_s": wall,
        "speed": yardstick.factor(speed.readings),
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(out + ".spans")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
