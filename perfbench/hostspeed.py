"""Host-speed correction for times measured on a shared machine.

On a few cores of a shared host the speed of one core moves by a third and
more within seconds, and each core moves on its own; CPU time moves with
wall time, so neither can be compared across runs as it stands.  A fixed
calibration probe, timed on the same core right beside the measured work,
tracks that speed.  A measured time ``t`` is reported as

    t * mean(nominal / p)

over the probe times ``p`` taken around it: the seconds the work would take
on a host that runs the probe in its nominal time.  Probe time is never
counted as work.  A change to ringbench does not change a probe, so a
program that gets 20% faster reads 20% faster.

Two probes, each matched to the work it corrects (their times track that
work's with a log-log slope near 1 on the host the benchmark was defined on,
where raw times spread 20-30%):

* ``chunk``: pure-Python work, sampled inside a process that runs drivers;
* ``spawn``: start and exit of a bare interpreter, timed by the harness
  between processes it starts (cli commands, import probes), which spend
  their time starting up and importing.

The nominal times are about the medians of the probes on that host, a
2-vCPU shared Linux KVM guest with Python 3.11.7.  Stdlib only.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

CHUNK_ITERS = 4000
CHUNK_NOMINAL_S = 0.0020
SAMPLE_PERIOD_S = 0.1  # in-process sampling: ~2% of the time goes to chunks

SPAWN_ARGV = [sys.executable, "-I", "-S", "-c", "pass"]
SPAWN_NOMINAL_S = 0.012


def chunk() -> int:
    """The pure-Python probe: small-int arithmetic, tuples, dicts, a sort."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(CHUNK_ITERS):
        k = (i * 7919) % 257
        table[k] = table.get(k, 0) + i
        acc ^= hash((k, i & 15))
    return acc + len(sorted(table.values()))


def timed_chunk() -> tuple[float, float]:
    """Run one chunk; return (start, seconds)."""
    t0 = time.perf_counter()
    chunk()
    return t0, time.perf_counter() - t0


def timed_spawn() -> float:
    """Start a bare interpreter, wait for it to exit; return the seconds."""
    t0 = time.perf_counter()
    subprocess.run(SPAWN_ARGV, check=True)
    return time.perf_counter() - t0


def factor(probe_seconds: list[float], nominal: float) -> float:
    """Correction factor: the mean of nominal / p over the probe times."""
    return sum(nominal / p for p in probe_seconds) / len(probe_seconds)


def pin_to_one_core() -> None:
    """Keep this process and its children on one core, so the probes that
    the harness times between processes run where those processes ran."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Times a chunk every SAMPLE_PERIOD_S of wall time, from a SIGALRM
    handler in the main thread, while the measured work runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(timed_chunk())

    def start(self) -> None:
        self.samples.append(timed_chunk())
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(timed_chunk())

    def raw(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1] that were not spent on chunks."""
        return (t1 - t0) - sum(s for at, s in self.samples if t0 <= at < t1)

    def corrected(self, t0: float, t1: float) -> float:
        """raw(t0, t1) at nominal host speed, from the chunks timed within
        one sampling period of the interval."""
        near = [
            s for at, s in self.samples
            if t0 - SAMPLE_PERIOD_S <= at <= t1 + SAMPLE_PERIOD_S
        ]
        if not near:  # the alarm waited on a long C call: take the closest
            near = [min(self.samples, key=lambda x: min(abs(x[0] - t0), abs(x[0] - t1)))[1]]
        return self.raw(t0, t1) * factor(near, CHUNK_NOMINAL_S)
