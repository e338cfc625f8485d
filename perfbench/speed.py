"""Timing against the speed of this machine at the moment.

The CPUs this benchmark runs on are shared: the same trials take up to
1.6 times longer while other load on the host is high, in phases that
last from a second to minutes.  A `Stopwatch` therefore runs a fixed
probe after each operation it times, a probe shaped like the operation:

- `loop_clock`: a pure-Python loop, for in-process work on one CPU;
- `array_clock`: numpy draws and masks, for the in-process sampled
  oracle;
- `pool_clock`: a process pool of the operation's size that runs the
  loop, for in-process work at jobs > 1;
- `request_clock`: a stand-in request, a fresh interpreter that imports
  numpy and runs such a pool, for subprocesses.

No probe calls absmc, so no change to absmc can move them.  Each
operation's time is reported twice: as measured, and in reference
seconds, scaled by the probe's reference time over the mean of the two
probes around the operation, so that it reads as on a machine where the
probe takes its reference time.  Probes a few operations away follow an
operation's speed much less than the two next to it (see README.md).

Run as a script (``python3 speed.py JOBS``), this file is the stand-in
request itself.
"""

from __future__ import annotations

import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

LOOP_REFERENCE_S = 0.002
ARRAY_REFERENCE_S = 0.004
POOL_REFERENCE_S = 0.08
REQUEST_REFERENCE_S = 0.25
POOL_TASKS = 16  # loop tasks a pool probe maps over its workers
TASK_LOOPS = 4  # loop runs per task
ARRAY_SIZE = 50_000  # elements per array of the array probe


class _Cell:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi


def _loop() -> _Cell:
    # dict lookups, small allocations, attribute access, calls and float
    # comparisons: the mix an abstract trial spends its time on
    env: dict[int, _Cell] = {}
    acc = _Cell(0.0, 1.0)
    for i in range(1500):
        cell = env.get(i & 15)
        if not isinstance(cell, _Cell):
            cell = _Cell(float(i), i + 1.0)
        acc = _Cell(min(acc.lo, cell.lo) - 0.5, max(acc.hi, cell.hi) + 0.25)
        env[i & 15] = acc
    return acc


def _arrays() -> np.ndarray:
    # draws, arithmetic, comparisons and masks on arrays the size of an
    # oracle batch: the mix a sampled oracle spends its time on
    rng = np.random.default_rng(0)
    hits = np.zeros(ARRAY_SIZE, dtype=bool)
    for k in range(8):
        coins = rng.integers(0, 2, size=ARRAY_SIZE, dtype=np.int64)
        values = np.full(ARRAY_SIZE, k, dtype=np.int64) + coins
        hits |= (values > 4) & (rng.random(ARRAY_SIZE) < 0.5)
    return hits


def _fastest_of_three(fn) -> float:
    # the first run may find caches cold after an operation ran in between
    times = []
    for _ in range(3):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _loop_task(_index: int) -> int:
    for _ in range(TASK_LOOPS):
        _loop()
    return 1


def _pool_run(jobs: int) -> int:
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return sum(pool.map(_loop_task, range(POOL_TASKS)))


def _pool_probe(jobs: int) -> float:
    started = time.perf_counter()
    _pool_run(jobs)
    return time.perf_counter() - started


def _stand_in(jobs: int) -> None:
    """What `_request_probe` runs in a fresh interpreter: the shape of an
    `absmc analyze` request without absmc.  Besides numpy, imported at
    the top of this file, it imports the modules absmc imports, runs the
    loop in a process pool of the request's size and the array work."""

    import hashlib  # noqa: F401
    from dataclasses import dataclass  # noqa: F401
    from fractions import Fraction  # noqa: F401

    print(_pool_run(jobs) + int(_arrays().any()))


def _request_probe(jobs: int, env: dict) -> float:
    started = time.perf_counter()
    done = subprocess.run([sys.executable, __file__, str(jobs)], env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - started
    if done.returncode != 0 or done.stdout.strip() != str(POOL_TASKS + 1):
        raise RuntimeError(f"stand-in request failed: {done.stderr.strip()[-200:]}")
    return seconds


class Timing:
    """One operation's measured seconds and the probes around it."""

    __slots__ = ("seconds", "_watch", "_index")

    def __init__(self, seconds: float, watch: "Stopwatch", index: int) -> None:
        self.seconds = seconds
        self._watch = watch
        self._index = index

    def reference(self) -> float:
        """The operation's time in reference seconds."""

        before, after = self._watch.probes[self._index : self._index + 2]
        return self.seconds * self._watch.reference * 2 / (before + after)


class Stopwatch:
    """Times operations, running ``probe`` (a function that returns its
    own seconds, ``reference`` on the reference machine) before the first
    and after each one."""

    def __init__(self, probe, reference: float) -> None:
        self.probe = probe
        self.reference = reference
        self.probes = [probe()]

    def time(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` and its `Timing`."""

        started = time.perf_counter()
        result = fn(*args, **kwargs)
        timing = Timing(time.perf_counter() - started, self, len(self.probes) - 1)
        self.probes.append(self.probe())
        return result, timing


def loop_clock() -> Stopwatch:
    return Stopwatch(lambda: _fastest_of_three(_loop), LOOP_REFERENCE_S)


def array_clock() -> Stopwatch:
    return Stopwatch(lambda: _fastest_of_three(_arrays), ARRAY_REFERENCE_S)


def pool_clock(jobs: int) -> Stopwatch:
    return Stopwatch(lambda: _pool_probe(jobs), POOL_REFERENCE_S)


def request_clock(jobs: int, env: dict) -> Stopwatch:
    return Stopwatch(lambda: _request_probe(jobs, env), REQUEST_REFERENCE_S)


if __name__ == "__main__":
    _stand_in(int(sys.argv[1]))
