"""The processor's speed, sampled while the operations run.

The machine switches between a fast and a slow state, 1.3-1.6x apart, in
spells of 5 s to more than a minute, so a whole 60-second run can fall
into the slow state.  A thread of the worker times a fixed pure-Python
loop every INTERVAL_S seconds, in its own CPU time, on the same processor
as the operations.  An operation's time is then scaled to the processor's
reference speed: its wall time times REFERENCE_LOOP_S over the median loop
time sampled while it ran (see `at_reference_speed`).
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

LOOP_ITERATIONS = 20_000
# the loop's CPU time on the reference machine (2 vCPUs reported as Intel
# Xeon at 2.1 GHz, Python 3.11) in its fast state
REFERENCE_LOOP_S = 1.1e-3
INTERVAL_S = 0.05
# an operation shorter than this is scaled by the samples of the last
# WINDOW_S seconds before it ended
WINDOW_S = 0.5


def pin_to_one_cpu() -> int:
    """Keep this process, its threads and its children on one processor,
    so that the samples come from the processor the operations run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def loop_s() -> float:
    """CPU seconds of this thread for one fixed loop."""
    start = time.thread_time()
    x = 0
    for i in range(LOOP_ITERATIONS):
        x += i * i
    return time.thread_time() - start


class SpeedProbe:
    """Samples loop_s() every INTERVAL_S seconds in a thread of its own."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at each sample's end
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            loop = loop_s()
            now = time.perf_counter()
            self.loops.append(loop)  # before times: a reader never sees a
            self.times.append(now)   # time without its loop

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        time.sleep(WINDOW_S)  # samples for the first operation's window
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def at_reference_speed(self, wall_s: float, start: float, end: float) -> float:
        """wall_s, taken from start to end, at the reference loop speed."""
        hi = bisect.bisect_right(self.times, end)
        lo = min(bisect.bisect_left(self.times, min(start, end - WINDOW_S)), max(hi - 1, 0))
        loops = self.loops[lo:hi]
        if not loops:
            raise RuntimeError("speed probe: no sample before the operation ended")
        return wall_s * REFERENCE_LOOP_S / statistics.median(loops)
