"""Host-speed meter: wall time converted to seconds at a fixed host speed.

On a virtual machine that shares its cores with other tenants, the same
Python code runs up to about 1.8x slower while a neighbour is busy, in
phases that last from milliseconds to tens of seconds. CPU time tracks
wall time through them, so no clock of the process sees the difference,
and a whole run can fall into a slow phase. The meter measures how fast
the host is running this process at each moment and converts the
harness's timed windows to the seconds they would have taken at a fixed
reference speed.

A probe thread runs a small fixed interpreter kernel every PERIOD
seconds. The process is pinned to one CPU, so the probe and the workload
take turns on the same core under the interpreter lock and see the same
contention. The kernel allocates nothing the garbage collector tracks,
so a collection the workload's allocations provoke never runs inside it.
For a window, the meter takes the wall time less the probe kernels run
inside it and multiplies it by the mean speed of the probes around it;
a probe's speed is REFERENCE_KERNEL_S divided by its own time. The
reference is the kernel's time on an uncontended vCPU of the host the
benchmark was tuned on (a 2-vCPU Sapphire Rapids Xeon virtual machine,
Python 3.11), so there a converted second is a second at full speed. It
is a constant, not the fastest probe of each run, because some runs see
no uncontended moment at all. On that host a run's converted pass time
moved by a few percent between runs while its wall time moved by up to
30 %.

The probe kernels take about 2 % of wall time, which is subtracted; the
lock hand-offs and cache refills around them are not, and land in every
window alike. Pinning also means that
worker threads, and any worker processes the program starts, share the
one CPU.
"""

import bisect
import os
import statistics
import threading
import time

PERIOD = 0.005   # seconds between probes
KERNEL_STEPS = 400
PAD = 0.02       # probes this close to a window also estimate its speed
REFERENCE_KERNEL_S = 100e-6


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key):
        self.key = key
        self.value = 0

    def step(self, x):
        self.value = (self.value + x) & 1023
        return self.value ^ self.key


def _kernel(items, table, steps):
    """Attribute access, method calls, dict stores and integer work."""
    total = 0
    for i in range(steps):
        total += items[i & 63].step(i)
        table[i & 255] = total & 1023
    return total


def pin_to_one_cpu() -> int:
    """Pin this thread, and every thread or process it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Meter:
    """Use as a context manager around the timed part of a run; call
    ``seconds`` after it has closed."""

    def __init__(self):
        self.cpu = pin_to_one_cpu()
        self.samples = []  # (start, end) of each probe kernel, in order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, daemon=True)
        self._starts = None

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._starts = [start for start, _ in self.samples]
        return False

    def _probe(self):
        items = [_Item(key) for key in range(64)]
        table = {}
        clock = time.perf_counter
        append = self.samples.append
        _kernel(items, table, KERNEL_STEPS)  # warm-up, not recorded
        while not self._stop.wait(PERIOD):
            start = clock()
            _kernel(items, table, KERNEL_STEPS)
            append((start, clock()))

    def slowdown(self) -> tuple:
        """Fastest and median probe time over the reference: how fast the
        host was and how contended the run was."""
        times = [end - start for start, end in self.samples] or [0.0]
        return (min(times) / REFERENCE_KERNEL_S,
                statistics.median(times) / REFERENCE_KERNEL_S)

    def seconds(self, start: float, end: float) -> float:
        """Seconds the window [start, end] would have taken at the
        reference speed."""
        lo = bisect.bisect_left(self._starts, start - PAD)
        hi = bisect.bisect_right(self._starts, end + PAD)
        near = self.samples[lo:hi]
        if not near:  # a window with no probe anywhere near it
            return end - start
        probes = sum(e - s for s, e in near if s >= start and e <= end)
        speed = statistics.fmean(REFERENCE_KERNEL_S / (e - s) for s, e in near)
        return (end - start - probes) * speed
