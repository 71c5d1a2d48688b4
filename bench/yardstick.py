"""Scaling measured times to one machine speed.

On a shared machine the speed of a core swings by up to 2.5x over tens of
seconds, and not alike for all kinds of work (README.md has the figures);
times taken at unknown speeds cannot be compared.  So while a time is being
taken, a thread in each process doing the work runs the yardstick, a fixed
~1 ms piece of work of the kinds f2rep does, every INTERVAL_S on the same
core, and times it in thread CPU time.  Each reading t is weighted by w, the
CPU time the rest of its process used since the previous reading, so a pool
worker that sits idle does not count.  Then

    reported = measured * sum(w * NOMINAL_S / t) / sum(w)

is in seconds at the speed where the yardstick takes NOMINAL_S, near the
median speed of the machine the README reports on.  The yardstick adds
about 1% to the time it runs beside, the same on every commit measured.
"""

from __future__ import annotations

import glob
import os
import threading
import time

NOMINAL_S = 0.00075
INTERVAL_S = 0.1
_TABLE = list(range(256))


class Sampler:
    """Reads the yardstick every INTERVAL_S while the with-block runs."""

    def __init__(self, log: str | None = None) -> None:
        self.readings: list[tuple[float, float]] = []
        self._log = log
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._big = (1 << 4_000_000) - 3
        self._data = ((1 << 4_800) // 7).to_bytes(600, "big")

    def _work(self) -> None:
        # Small-int stepping, as in the order scan.
        f, top, state = (1 << 22) | 0b11, 1 << 22, 1
        for _ in range(2000):
            state <<= 1
            if state & top:
                state ^= f
        # A shift and xor of a 0.5-MB integer, as in division and closed forms.
        self._big ^ (self._big >> 3)
        # A byte loop carrying a 4096-bit remainder, as in table division.
        out = bytearray(len(self._data))
        r, mask = 0, (1 << 4096) - 1
        for j, byte in enumerate(self._data):
            r = (r << 8) | byte
            h = r >> 4096
            r = (r & mask) ^ _TABLE[h & 255]
            out[j] = h & 255

    def _run(self) -> None:
        log = open(self._log, "a") if self._log else None
        cpu = time.process_time()
        while not self._stop.wait(INTERVAL_S):
            t0 = time.thread_time()
            self._work()
            t = time.thread_time() - t0
            now = time.process_time()
            self.readings.append((t, max(0.0, now - cpu - t)))
            cpu = now
            if log is not None:
                # Pool workers are killed, not stopped: keep each reading.
                log.write("%r %r\n" % self.readings[-1])
                log.flush()

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def factor(readings: list[tuple[float, float]]) -> float:
    """What scales a time taken during the readings to nominal speed."""
    busy = sum(w for _, w in readings)
    if busy <= 0:
        return 1.0
    return sum(w * NOMINAL_S / t for t, w in readings) / busy


class InWorkers:
    """A Sampler in every process forked from here, each on its own core.

    A jobs-2 pass runs in pool workers, so their cores' speed is what
    scales it.  The readings go to files named prefix.<pid>.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.readings: list[tuple[float, float]] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.forks = 0
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def __enter__(self) -> "InWorkers":
        return self

    def __exit__(self, *exc) -> None:
        self.readings = self._collect()

    def _before_fork(self) -> None:
        self.forks += 1

    def _in_child(self) -> None:
        os.sched_setaffinity(0, {self.cpus[self.forks % len(self.cpus)]})
        Sampler(log=f"{self.prefix}.{os.getpid()}").start()

    def _collect(self) -> list[tuple[float, float]]:
        """Readings of all workers so far; their files are removed."""
        readings = []
        for path in glob.glob(glob.escape(self.prefix) + ".*"):
            with open(path) as fh:
                for line in fh:
                    if line.endswith("\n"):
                        t, w = line.split()
                        readings.append((float(t), float(w)))
            os.remove(path)
        return readings
