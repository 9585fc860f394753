"""CPU time rescaled to a reference CPU speed, for steady timings on a shared host.

On a shared virtual machine the speed of a vCPU drifts by up to 2x, in
phases from seconds to minutes, with the load of its neighbours; another
process in the same machine can also take turns on the same vCPU. Wall
time carries both. So the benchmark times an operation by

- the CPU time of this process (`time.process_time`), which leaves out
  the time other tasks, and the hypervisor, had the vCPU; and
- a probe that samples the vCPU's current speed while the operation runs:
  every INTERVAL_S of wall time a SIGALRM handler runs a fixed piece of
  work in this process, on this vCPU, and records how long it took. The
  work is half interpreted bytecode and half a C loop (sorting a list of
  floats), because the operations mix both and a slow phase does not slow
  the two alike; either half alone followed the operations' speed less
  closely. The lower quartile of the samples is the probe's time at the
  current speed; it leaves out samples that were themselves interrupted.

`ref_s = cpu_s * REFERENCE_PROBE_S / probe_s` is then the CPU time the
operation would take at the speed at which the probe takes
REFERENCE_PROBE_S. The probe's own time is part of `cpu_s`, a few percent
that scale with the operation. Operations are single-threaded (the native
thread pools are pinned to one thread), so on an idle host `cpu_s` equals
their wall time.
"""

import random
import signal
import time

INTERVAL_S = 0.05
LOOP_ITERATIONS = 10000
SORTS = 3
SORT_DATA = [x / (1 << 30) for x in random.Random(0).sample(range(1 << 30), 2048)]
MIN_SAMPLES = 5
# The probe's lower-quartile time on a 2-vCPU Xeon virtual machine
# (CPython 3.11.7) when its vCPU ran at full speed; only a unit of scale.
REFERENCE_PROBE_S = 1.5e-3


def probe():
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    for _ in range(SORTS):
        sorted(SORT_DATA)
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager: CPU time of its body, and the vCPU speed during it.

    Installs a SIGALRM handler and an interval timer in this process, so
    it is used from the main thread, around one operation at a time.
    """

    def __init__(self):
        self.samples = []
        self.cpu_s = None

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, *exc_info):
        self.cpu_s = time.process_time() - self._cpu_start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # A body shorter than a few intervals gets its samples right after it.
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(probe())
        return False

    @property
    def probe_s(self):
        """Lower quartile of the probe's times during the body."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 4]

    @property
    def ref_s(self):
        """The body's CPU time at the reference speed."""
        return self.cpu_s * REFERENCE_PROBE_S / self.probe_s
