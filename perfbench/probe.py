"""Host-speed probe: a fixed piece of Python work run every few milliseconds
of the benchmark's CPU time, so that each timed stage can be rescaled to a
fixed host speed.

On a shared host the same code runs at different speeds from one second to
the next, by up to 50% for minutes at a time, CPU time included (another
tenant on the sibling hyperthread, the memory bus, the clock). Two pieces of
pure-Python work interleaved finely slow down together: on a shared 2-core
VM their times moved by ±20% while their ratio stayed within ±1%. So while
``running()`` is active, a ``SIGPROF`` timer runs ``_work`` every
``INTERVAL_S`` of process CPU time, between two bytecodes of whatever the
benchmark is doing, and adds up how long it took.

``clock()`` is the thread's CPU time minus the time spent in probes, so a
stage timed with it excludes them. ``speed(start, end)`` is the mean time of
the probes that fired between two ``clock()`` readings, over
``REFERENCE_S``: 1.0 on a host as fast as the reference, 1.3 on one 30%
slower. An interval shorter than ``MIN_WINDOW_S`` (an epoch, set-up) takes
the probes of that much time around it. A stage time divided by the speed
of the same interval is the time the stage would take on the reference
host.

Outside ``running()`` nothing fires, ``clock()`` is the thread's CPU time and
``speed`` has no samples.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
import hashlib
import json
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import fsum
from time import thread_time
from typing import Optional

INTERVAL_S = 0.005
# The median time of one ``_work()`` on a 2-core VM with Python 3.11; times
# are reported as if every probe had taken this long.
REFERENCE_S = 0.00025

MIN_WINDOW_S = 0.1

# Per probe: the ``clock()`` reading when it fired, and how long it took.
_stamps: list[float] = []
_times: list[float] = []
_total = 0.0


def _work() -> None:
    # The same kinds of work as govsim: hashing, dicts, exact fractions,
    # canonical JSON and sorting.
    acc = Fraction(0)
    table = {}
    for i in range(64):
        key = f"probe-{i}"
        table[key] = hashlib.sha256(key.encode()).hexdigest()
        acc += Fraction(i, 7)
    json.dumps(table, sort_keys=True, separators=(",", ":"))
    sorted(table.values())


def _on_tick(signum, frame) -> None:
    global _total
    collecting = gc.isenabled()
    gc.disable()
    start = thread_time()
    _work()
    end = thread_time()
    _stamps.append(start - _total)
    _times.append(end - start)
    _total += end - start
    if collecting:
        gc.enable()


def clock() -> float:
    """CPU time of the benchmark's thread, less the time spent in probes.

    The thread's clock, not the process's: while a process-wide CPU timer is
    armed, Linux advances the process clock only at scheduler ticks (4 ms),
    and the benchmark runs on this one thread.
    """
    while True:
        count = len(_stamps)
        now = thread_time()
        total = _total
        if len(_stamps) == count:
            return now - total


def speed(start: float, end: float) -> Optional[float]:
    """Mean probe time over ``REFERENCE_S`` while ``clock()`` ran from start
    to end, the interval widened to ``MIN_WINDOW_S`` around its middle if
    shorter; None without probes."""
    half = max(end - start, MIN_WINDOW_S) / 2
    middle = (start + end) / 2
    lo = bisect_left(_stamps, middle - half)
    hi = bisect_right(_stamps, middle + half)
    return fsum(_times[lo:hi]) / (hi - lo) / REFERENCE_S if hi > lo else None


@contextmanager
def running():
    previous = signal.signal(signal.SIGPROF, _on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
