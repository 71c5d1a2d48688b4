"""Benchmark of f2rep on three long workloads, with checked outputs.

    python3 bench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run from anywhere; the program measured is the f2rep under src/ next to
this directory.  Each pass runs in a fresh interpreter (child.py) through
f2rep.cli.main.  With --trace 0 a run times set-up, then repeats rounds of
one jobs-1 and one jobs-2 pass until --seconds have gone, and reports
medians.  With --trace 1 it repeats traced jobs-1 passes instead and
reports per-layer metrics.  Times are scaled to one machine speed
(yardstick.py).  Every output is checked by checks.py; the last
line of stdout is one JSON object with correct, attempted, failed and the
metrics.  The exit code is not 0, with no JSON, when the program cannot be
found or a pass cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from yardstick import Sampler, factor
from child import FAMILY_R_MAX, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# A single start takes ~0.1 s and its time is mostly noise; report the
# median of this many, after one uncounted start that writes the bytecode.
SETUP_STARTS = 15
# Every run has to end within 180 s.
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.deadline = time.monotonic() + DEADLINE_S
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

    def _start(self, mode: str, out: Path) -> subprocess.Popen:
        cmd = [sys.executable, str(BENCH / "child.py"), mode, self.workload, str(out)]
        return subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self.env, cwd=ROOT, start_new_session=True,
        )

    def _finish(self, proc: subprocess.Popen) -> str:
        """Wait for the child and the pool workers it started; return stdout."""
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{self.workload}: a pass ran past the {DEADLINE_S} s deadline")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: child exited {proc.returncode}\n{err}")
        return out

    def setup_time(self) -> float:
        """Seconds from starting an interpreter to f2rep imported and argv built."""
        t0 = time.perf_counter()
        proc = self._start("setup", OUT / "setup")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        self._finish(proc)
        if line != "ready\n":
            raise BenchError(f"{self.workload}: set-up printed {line!r}")
        return elapsed

    def run_pass(self, mode: str) -> tuple[dict, str]:
        out = OUT / f"{self.workload}.{mode}"
        out.unlink(missing_ok=True)
        result = json.loads(self._finish(self._start(mode, out)).splitlines()[-1])
        text = out.read_text() if out.exists() else ""
        return result, text


class Tally:
    """Operations attempted and failed over a run, and what was wrong."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reports: dict[str, checks.Report] = {}

    def add(self, text: str) -> None:
        # Equal outputs get equal verdicts, so each distinct text is checked once.
        rep = self._reports.get(text)
        if rep is None:
            if self.workload == "families":
                rep = checks.check_families(text, FAMILY_R_MAX)
            else:
                rep = checks.check_scan(self.workload, text, self.seed)
            self._reports[text] = rep
            self.problems += rep.problems
        self.attempted += rep.expected
        self.failed += rep.expected - rep.present


def measure(runner: Runner, tally: Tally, seconds: int) -> dict[str, tuple[float, str]]:
    runner.setup_time()
    with Sampler() as speed:
        setup = [runner.setup_time() for _ in range(SETUP_STARTS)]
    # The starts run on any core while this process waits: weigh readings alike.
    k = factor([(t, 1.0) for t, _ in speed.readings])
    metrics = {"setup_s": [statistics.median(setup) * k]}
    start = time.monotonic()
    while True:
        texts = []
        for mode, name in (("pass1", "wall_s"), ("pass2", "wall_jobs2_s")):
            result, text = runner.run_pass(mode)
            k = result["speed"]
            metrics.setdefault(name, []).append(result["wall_s"] * k)
            print(f"{mode}: {result['wall_s']:.3f} s raw, speed factor {k:.3f}", file=sys.stderr)
            if mode == "pass1":
                metrics.setdefault("peak_rss_mb", []).append(result["rss_mb"])
            texts.append(text)
        for text in texts:
            tally.add(text)
        if texts[0] != texts[1]:
            tally.problems.append("the jobs-2 output differs from the jobs-1 output")
        if time.monotonic() - start >= seconds:
            break
    return {
        name: (statistics.median(values), "MB" if name == "peak_rss_mb" else "s")
        for name, values in metrics.items()
    }


def measure_layers(runner: Runner, tally: Tally, seconds: int) -> dict[str, tuple[float, str]]:
    rounds = []
    start = time.monotonic()
    while True:
        result, text = runner.run_pass("trace")
        k = result["speed"]
        tally.add(text)
        rounds.append({
            name: v if name.endswith("_calls") else v * k
            for name, v in result["layers"].items()
        })
        if time.monotonic() - start >= seconds:
            break
    out = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if name.endswith("_calls"):
            out[name] = (statistics.median_low(values), "count")
        else:
            out[name] = (statistics.median(values), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "f2rep" / "cli.py").is_file():
        print(f"error: no f2rep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload)
    tally = Tally(args.workload, args.seed)
    try:
        if args.trace:
            metrics = measure_layers(runner, tally, args.seconds)
        else:
            metrics = measure(runner, tally, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in tally.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
