"""Host-speed calibration for host-time metrics.

This host shares its physical cores with other tenants.  The same
simulation pass takes anywhere from 2.6 s to 4.9 s on it, process CPU time
tracks wall time, and the hypervisor reports almost no steal time, so the
slowdown comes from contention for the cores themselves and no in-run
median removes it: it drifts over minutes.

The benchmark therefore times a fixed pure-Python reference loop, which
uses no ``repro`` code and allocates nothing, in a helper process while
each timed unit and each set-up step runs, and scales every host-time
metric to :data:`NOMINAL_RATE` (the loop's rate on an uncontended core of
this host).  A change to the program cannot move the reference;
contention moves both.  The helper times each sample by its own CPU time,
so a sample that shares a CPU with the benchmark's busy workers measures
the CPU's speed, not its share of the CPU.  The raw, unscaled figures are
printed beside the scaled ones.

Run as a script (``hostspeed.py --serve``) this module is that helper.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Iterator

#: Reference-loop iterations per second on an uncontended core of the
#: benchmark host (2-vCPU Xeon VM, Python 3.11).
NOMINAL_RATE = 4.0e6

#: Iterations per sample (about 1-2 ms).
SAMPLE_ITERATIONS = 5_000

#: Seconds between the samples :meth:`HostSpeed.watching` takes.
WATCH_INTERVAL = 0.05


def reference_loop(n: int) -> int:
    """Interpreter-bound work on a small, fixed working set."""
    table: dict[int, int] = {}
    acc = 0
    window: list[int] = []
    for i in range(n):
        key = (i * 2654435761) & 1023
        value = table.get(key, 0) + i
        table[key] = value
        if value & 1:
            acc += value
        else:
            window.append(value)
        if len(window) > 64:
            window.clear()
    return acc


def timed_samples(count: int) -> float:
    """CPU seconds of ``count`` samples: a sample preempted by another
    process still measures the CPU's speed, not its share of the CPU."""
    started = time.thread_time()
    for _ in range(count):
        reference_loop(SAMPLE_ITERATIONS)
    return time.thread_time() - started


class HostSpeed:
    """Reference-loop samples taken through one run; :meth:`factor` is
    their mean rate over :data:`NOMINAL_RATE`.  Use as a context manager:
    it owns the helper process once one is started."""

    def __init__(self) -> None:
        self.samples = 0
        self.seconds = 0.0
        self._helper: subprocess.Popen | None = None

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self._helper is not None:
            self._helper.stdin.close()
            self._helper.wait(timeout=30)
            self._helper = None

    def _send(self, command: str) -> None:
        if self._helper is None:
            self._helper = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--serve"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._helper.stdin.write(command + "\n")
        self._helper.stdin.flush()

    def _reply(self) -> list[float]:
        return [float(field) for field in self._helper.stdout.readline().split()]

    @contextmanager
    def watching(self) -> Iterator[None]:
        """While the block runs, the helper times one sample every
        :data:`WATCH_INTERVAL` seconds (about 3% of one CPU)."""
        self._send(f"watch {WATCH_INTERVAL}")
        try:
            yield
        finally:
            self._send("stop")
            samples, seconds = self._reply()
            self.samples += int(samples)
            self.seconds += seconds

    def factor(self) -> float:
        """Measured host speed over nominal (below 1 on a contended host)."""
        return self.samples * SAMPLE_ITERATIONS / self.seconds / NOMINAL_RATE


def serve() -> None:
    """Helper loop: on ``watch INTERVAL``, time one sample at once and one
    every INTERVAL seconds until ``stop``, then print the sample count and
    their CPU seconds."""
    stdin = sys.stdin
    while line := stdin.readline():
        interval = float(line.split()[1])
        samples, seconds = 1, timed_samples(1)
        while not select.select([stdin], [], [], interval)[0]:
            seconds += timed_samples(1)
            samples += 1
        stdin.readline()  # "stop"
        print(samples, seconds, flush=True)


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve()
