"""Machine-speed probe that shares the measured process's CPU.

On a shared host the speed of a virtual CPU drifts by up to a factor of two
over tens of seconds, so the times of identical runs spread by 10-30%
(quartile distance over median), in wall time and in CPU time alike. The
measured process is pinned to one CPU, and a helper process pinned to the
same CPU times a fixed chunk of pure-Python dict work about eight times a
second. Each measured interval is reported at reference speed:

    reported = CPU seconds measured * REFERENCE_CHUNK_S / mean(chunk CPU seconds in the interval)

Both sides are CPU times, so the chunks the probe runs are not charged to
the measured process. On a shared 2-vCPU virtual machine, seven same-seed
runs of skipgram-count-files spread by 0.10 in wall time and by 0.015
reported this way; a probe on the other CPU did not help (0.17).

Run as a script it is the probe: ``python3 -S speedprobe.py OUT`` appends
"wall-start cpu-seconds" lines to OUT until its parent exits or it is
terminated.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHUNK_ITERATIONS = 40_000
PAUSE_S = 0.1
# Chunk CPU time at which reported times equal measured CPU times; on that
# machine the chunk took 8 to 16 ms, 11 ms in the median.
REFERENCE_CHUNK_S = 0.012
MIN_SAMPLES = 3


def pin_to_one_cpu() -> None:
    """Pin this process, and the children it starts later, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def chunk() -> None:
    d: dict = {}
    for i in range(CHUNK_ITERATIONS):
        k = (i % 997, i % 13)
        d[k] = d.get(k, 0) + 1


class SpeedProbe:
    """Start the probe on enter, stop it and read its samples on exit."""

    def __init__(self, out: Path):
        self.out = out
        self.samples: list[tuple[float, float]] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, "-S", __file__, str(self.out)],
            stdin=subprocess.DEVNULL,
        )
        time.sleep(3 * PAUSE_S)  # let it start sampling before the first interval
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait(timeout=30)
        with open(self.out, encoding="utf-8") as fh:
            for line in fh:
                if line.endswith("\n"):  # the last line may be cut by terminate()
                    t, d = line.split()
                    self.samples.append((float(t), float(d)))

    def factor(self, t0: float, t1: float) -> float:
        """Mean chunk time over wall interval [t0, t1] relative to the reference.

        Short intervals use the MIN_SAMPLES chunks nearest to them.
        """
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            nearest = sorted(self.samples, key=lambda s: max(t0 - s[0], s[0] - t1, 0.0))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("speed probe recorded no samples")
        return statistics.mean(inside) / REFERENCE_CHUNK_S

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """`seconds`, measured within wall interval [t0, t1], at reference speed."""
        return seconds / self.factor(t0, t1)


def main(out: str) -> None:
    parent = os.getppid()
    with open(out, "a", encoding="utf-8", buffering=1) as fh:
        while os.getppid() == parent:
            t = time.perf_counter()
            c = time.thread_time()
            chunk()
            fh.write(f"{t!r} {time.thread_time() - c!r}\n")
            time.sleep(PAUSE_S)


if __name__ == "__main__":
    main(sys.argv[1])
