"""A fixed reference task, timed between requests, for the host's current speed.

The machine the benchmark runs on is a share of a busy host: the speed of a
pure-Python loop changes by up to 1.7x in phases of ten seconds to a minute,
and structcon's request times move with it.  A 40-second run falls inside one
or two such phases, so raw wall-clock metrics of runs of the same code spread
by more than any useful regression bound.

The reference task does the kind of work structcon's closure does (sparse
rows as dicts of ``Fraction``, eliminated against pivot rows) but does not
use structcon, so no change to structcon changes it.  A fresh interpreter
that runs it a few times, timed close to a request, measures how fast the
host runs Python at that moment; a request's time divided by it is the
request's cost in reference units (ref).  On a 2-vCPU Intel Xeon VM one
task takes about 4-6 ms and the probe 0.12-0.22 s.
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

_COLUMNS = 40
_ROWS = 30
_NONZEROS = 5
_COEFFS = (-3, -2, -1, 1, 2, 3, 5)


def _rows() -> list[dict[int, Fraction]]:
    rng = random.Random(1729)
    return [{rng.randrange(_COLUMNS): Fraction(rng.choice(_COEFFS), rng.randint(1, 4))
             for _ in range(_NONZEROS)} for _ in range(_ROWS)]


ROWS = _rows()


def task() -> int:
    """Row-reduce ROWS over the rationals; returns the rank (always the same)."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in ROWS:
        r = dict(row)
        while r:
            p = min(r)
            c = r[p]
            if p not in pivots:
                pivots[p] = {k: v / c for k, v in r.items()}
                break
            for k, v in pivots[p].items():
                nv = r.get(k, 0) - c * v
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
    return len(pivots)


RANK = task()


CHILD_REPEATS = 16
CHILD_TIMEOUT_S = 60


def child_process() -> float:
    """Run the task CHILD_REPEATS times in a fresh interpreter, timed from the
    parent (0.12-0.22 s).  A fresh process pays interpreter start-up, as a
    cold CLI request does, and its speed does not depend on the state of the
    benchmark's own heap and caches, which the last request has left behind:
    timed in the benchmark process, the same task followed what the last
    request was as much as the host's speed."""
    here = Path(__file__).resolve()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(here)], cwd=here.parent, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"the reference child process failed: {proc.stderr[-400:]!r}")
    return elapsed


class Speedometer:
    """Reference samples taken through a run, and the local speed at any time.

    ``sample`` runs the probe once and records its midpoint and how long it
    took by its own measure; ``local`` gives the median duration of the
    ``window`` samples nearest in time to a moment, which smooths out one-off
    hiccups and follows the host's phases.
    """

    def __init__(self, clock: Callable[[], float], probe: Callable[[], float] = child_process,
                 window: int = 7) -> None:
        self.clock = clock
        self.probe = probe
        self.window = window
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        elapsed = self.probe()
        self.times.append(self.clock() - elapsed / 2.0)
        self.durations.append(elapsed)

    def local(self, at: float) -> float:
        n = len(self.times)
        if n == 0:
            raise RuntimeError("no reference samples")
        k = min(self.window, n)
        lo = min(max(bisect.bisect_left(self.times, at) - k // 2, 0), n - k)
        return statistics.median(self.durations[lo:lo + k])


if __name__ == "__main__":
    sys.exit(0 if all(task() == RANK for _ in range(CHILD_REPEATS)) else 1)
