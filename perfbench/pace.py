"""The machine's pace, sampled while timed work runs, and times scaled to a
fixed reference pace.

The shared 2-core machines this benchmark was built on change speed by
10-30% from one second to the next and between whole runs, and process CPU
time follows wall time: the CPU runs slower, the process does not wait. No
run length that fits the benchmark's time budget averages that away; raw
pass times of ten 35 s runs of one workload spread by up to 24% of their
median (first to third quartile), and paced times by at most 6%.

So while a pass runs, a SIGALRM timer interrupts it every INTERVAL_S seconds
and times a fixed reference kernel: 32-wide matrix-vector products and tanh
in a Python loop, the same mix of interpreter work and tiny BLAS calls as the
LSTM recurrence. The kernel runs twice per sample and only the second run is
timed, so that the caches the pass left behind do not count. A pass's paced
time is its wall time less the kernel's own share, times REF_KERNEL_S over
the mean kernel time during the pass: the seconds the pass would have taken
on a machine that runs the kernel in REF_KERNEL_S.

Work in forked pool workers is sampled in the workers: run.py wraps the
pool's task function with ``worker_wrapper``, which paces the task and
writes its samples to a spool file for the parent to ``take``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

INTERVAL_S = 0.025       # between samples; the handler costs about 4% of a pass
KERNEL_STEPS = 150
# The timed kernel's mean on the 2-core machine the bounds were set on, so
# that paced seconds read close to wall seconds there.
REF_KERNEL_S = 0.00060
MIN_SAMPLES = 8          # a window with fewer is topped up right after it

_W = np.full((32, 32), 0.01)
_B = np.linspace(-0.1, 0.1, 32)


def kernel(steps: int = KERNEL_STEPS) -> np.ndarray:
    h = np.zeros(32)
    for _ in range(steps):
        h = np.tanh(_W @ h + _B)
    return h


@dataclass
class Pace:
    """Kernel samples taken in one window of timed work."""
    window_s: float = 0.0                  # wall time the timer ran
    spent_s: float = 0.0                   # of which in the handler
    samples: list[float] = field(default_factory=list)

    def __add__(self, other: "Pace") -> "Pace":
        return Pace(self.window_s + other.window_s, self.spent_s + other.spent_s,
                    self.samples + other.samples)

    def factor(self) -> float:
        """Reference seconds per second of work at the sampled pace."""
        return REF_KERNEL_S / statistics.fmean(self.samples)

    def paced(self, wall_s: float) -> float:
        """wall_s less the handler's share of it, at the reference pace."""
        return wall_s * (1.0 - self.spent_s / self.window_s) * self.factor()


def _sample(pace: Pace) -> float:
    """Time one kernel run into pace; returns the seconds the sample took."""
    t0 = time.perf_counter()
    kernel()                               # refill what the pass evicted
    t1 = time.perf_counter()
    kernel()
    t2 = time.perf_counter()
    pace.samples.append(t2 - t1)
    return t2 - t0


def _on_alarm(pace: Pace) -> None:
    pace.spent_s += _sample(pace)


class Pacer:
    """Samples the pace of this process while the with-block runs."""

    def __enter__(self) -> Pace:
        self.pace = Pace()
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: _on_alarm(self.pace))
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self.pace

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.pace.window_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.pace.samples) < MIN_SAMPLES:
            _sample(self.pace)             # after the window: not in spent_s


def worker_wrapper(fn, spool_dir: Path):
    """Wrap a pool task so the worker that runs it paces it and spools the
    samples."""
    counter = itertools.count()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with Pacer() as pace:
            result = fn(*args, **kwargs)
        name = f"pace-{os.getpid()}-{next(counter)}.json"
        (Path(spool_dir) / name).write_text(json.dumps(asdict(pace)))
        return result
    return wrapper


def take(spool_dir: Path) -> Pace:
    """The sum of every pace the workers spooled, removing the files."""
    total = Pace()
    for path in sorted(Path(spool_dir).glob("pace-*.json")):
        total = total + Pace(**json.loads(path.read_text()))
        path.unlink()
    return total
