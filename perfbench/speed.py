"""Host-speed calibration.

On a shared VM the CPU time of the same work drifts by up to 1.5x within
minutes, as other tenants contend for the physical cores and memory, and
the drift switches on and off every few seconds.  A fixed kernel, run
from a CPU-time timer all through the run, tracks that drift: an
operation's CPU time times the kernel's reference time over the mean
kernel time of the ticks during (and next to) it gives CPU seconds at
the reference host speed.  The kernel never calls the package, so no
change to the package can move it.
"""

import random
import signal
import statistics
import time

# at least this many ticks go into the scale of one stretch of work
MIN_TICKS = 4


class Calibrator:
    """A fixed kernel, run every ``every_s`` CPU seconds of the process
    while started, and its reference CPU seconds per run.

    ``python`` parses floats, like the field CSV reader and the
    interpreter-bound fit.  ``memory`` allocates and fills grid-sized
    float64 arrays, like the temporaries of an FDTD step.

    The kernel runs in a SIGPROF handler.  There, the process CPU clock
    reads in steps of the scheduler tick (4 ms on the sizing VM), so a
    single tick's time is coarse; the mean over several ticks is not.  The
    reference times are such means, on the sizing VM at its fast state.
    ``clock`` and ``wall`` leave the kernel's own time out, so that what
    they time is the program alone.
    """

    def __init__(self, kind="python"):
        if kind == "python":
            rng = random.Random(0)
            self._lines = [",".join(repr(rng.gauss(0.0, 1.0))
                                    for _ in range(512)) for _ in range(200)]
            self.ref_s, self.every_s = 0.030, 0.5
            self._run = self._python
        elif kind == "memory":
            self.ref_s, self.every_s = 0.055, 1.0
            self._run = self._memory
            self._run()  # the allocator's first pass is slower; not kept
        else:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self.ticks = []          # [program CPU clock at the tick, kernel s]
        self._kernel_cpu = 0.0
        self._kernel_wall = 0.0
        self._in_tick = False

    def _python(self):
        for line in self._lines:
            [float(v) for v in line.split(",")]

    @staticmethod
    def _memory():
        import numpy as np  # after run.main() has pinned the thread pools
        for _ in range(2000):
            np.empty((380, 220)).fill(1.0)

    def _tick(self, signum, frame):
        if self._in_tick:
            return  # a tick that fell inside the kernel itself
        self._in_tick = True
        cpu, wall = time.process_time(), time.perf_counter()
        self._run()
        cpu_s = time.process_time() - cpu
        self.ticks.append([cpu - self._kernel_cpu, cpu_s])
        self._kernel_cpu += cpu_s
        self._kernel_wall += time.perf_counter() - wall
        self._in_tick = False

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def clock(self):
        """Process CPU seconds, less the kernel's."""
        return time.process_time() - self._kernel_cpu

    def wall(self):
        """``time.perf_counter``, less the kernel's wall time."""
        return time.perf_counter() - self._kernel_wall

    def scale(self, begin, end):
        """Factor from program CPU seconds spent between ``clock`` readings
        begin and end to seconds at the reference speed.

        It uses the ticks inside [begin, end], or the MIN_TICKS ticks
        nearest to it if fewer fell inside."""
        def distance(tick):
            return max(begin - tick[0], tick[0] - end, 0.0)
        near = sorted(self.ticks, key=distance)
        inside = sum(1 for t in near if distance(t) == 0.0)
        used = near[:max(inside, MIN_TICKS)]
        return self.ref_s / statistics.mean(k for _, k in used)

    def host_speed(self):
        """Reference over mean kernel time: 1 at the reference speed."""
        return self.ref_s / statistics.mean(k for _, k in self.ticks)
