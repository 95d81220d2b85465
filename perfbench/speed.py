"""CPU speed probes: fixed pure-Python loops, timed.

On a shared virtual machine the speed of one vCPU swings by a quarter or
more within seconds, and by as much between calls a few milliseconds
apart; the two vCPUs swing independently.  The worker therefore probes its
own speed from a timer signal every PROBE_EVERY_S, in its own process and
during the operations, subtracts the probe time from each operation, and
scales the rest to a reference speed.  The probes run no oddsym code, so the
scaled times keep the effect of a code change and lose much of the machine
drift.

Each tick runs two probes.  An operation that spans at least LONG_PROBES
ticks is scaled by the integer-multiply probe: its time is the integral of
1/speed over the operation, so the factor is the harmonic mean of the
probes taken during it.  A shorter operation sees too few ticks for that,
and is scaled by the median dict probe within PROBE_WINDOW_S of it.  On
`hopf`, `det` and the whole `tables` job the harmonic mean of the multiply
probe left a third to a half of the per-job spread that the median dict
probe left; on calls of a few milliseconds the median dict probe did best.
"""

import array
import bisect
import gc
import signal
import statistics
import time

# Dict probe: PROBE_LOOPS updates take REFERENCE_S at the reference speed.
PROBE_LOOPS = 2_500
REFERENCE_S = 0.00075
# Multiply probe: MUL_LOOPS products take MUL_REFERENCE_S at the speed at
# which the dict probe takes REFERENCE_S (the median ratio of the two probes
# over the workloads on a 2-vCPU shared virtual machine).
MUL_LOOPS = 12
MUL_REFERENCE_S = 0.00029
_MUL_A = 3 ** 2000
_MUL_B = 7 ** 1500
# Probing this often costs about 10% of the worker's time, which is
# subtracted; probing every 0.1 s left the per-job spread of a 15 ms call
# about twice as wide.
PROBE_EVERY_S = 0.01
# A short operation is scaled by the median dict probe within this distance.
PROBE_WINDOW_S = 0.02
# Ticks inside an operation from which on it counts as long.
LONG_PROBES = 20


def probe(loops: int = PROBE_LOOPS) -> float:
    """Seconds for `loops` tuple-keyed dict updates, the kind of work oddsym
    does most.  The tuples are freed before it returns, so the collector's
    allocation count, and with it the points where the collector runs in the
    caller, end where they began; collection is paused meanwhile so the size
    of the caller's heap does not change the result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(loops):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def mul_probe(loops: int = MUL_LOOPS) -> float:
    """Seconds for `loops` products of a 3,200-bit and a 4,200-bit integer,
    the arithmetic behind QPoly coefficients.  Integers are not tracked by
    the collector, so this leaves its counts alone."""
    start = time.perf_counter()
    for _ in range(loops):
        _MUL_A * _MUL_B + _MUL_A
    return time.perf_counter() - start


def scale(start: float, end: float, prober: "Prober") -> float:
    """Factor from measured to reference seconds for an operation that ran
    from `start` to `end`, from the probes taken during and around it."""
    times = prober.times
    first = bisect.bisect_left(times, start)
    last = bisect.bisect_right(times, end)
    if last - first >= LONG_PROBES:
        return MUL_REFERENCE_S / statistics.harmonic_mean(prober.mul_seconds[first:last])
    lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
    hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
    near = prober.seconds[lo:hi]
    if not near:
        nearest = min(range(len(times)), key=lambda i: abs(times[i] - start))
        near = prober.seconds[nearest:nearest + 1]
    return REFERENCE_S / statistics.median(near)


class Prober:
    """Context manager that probes every PROBE_EVERY_S from SIGALRM, and on
    entry and exit.  `spent` is the time the probes took, which callers
    subtract from what they time."""

    def __init__(self):
        # Arrays of doubles: appending allocates nothing the collector
        # tracks, unlike a list of tuples would.
        self.times = array.array("d")
        self.seconds = array.array("d")
        self.mul_seconds = array.array("d")
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.times.append(start)
        self.seconds.append(probe())
        self.mul_seconds.append(mul_probe())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Prober":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
