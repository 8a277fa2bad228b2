"""Host-speed probe: a fixed piece of pure-Python work, timed between passes.

On a shared machine the speed of the same code drifts by 20% and more over
minutes, for every workload at once, while the process keeps its core: the
neighbours slow it, not the scheduler.  A median over the passes of one run
cannot remove a drift that lasts the whole run.  So each run also times this
probe between its passes, and every time the benchmark reports is scaled by
REFERENCE_S / (mean probe time of the run): it reads as the time on a host
as fast as one that runs the probe in REFERENCE_S.

The probe does the kind of work the program does (small-integer trial
division, dict updates, string formatting, a little big-integer arithmetic)
and imports nothing from the program, so a change to the program cannot move
it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# A round figure near the probe's median time on the machine the benchmark
# was built on (an Intel Xeon, Python 3.11), so that scaled times stay near
# measured ones there.  Changing it rescales every time.
REFERENCE_S = 0.025


def probe_work() -> int:
    acc = 0
    counts: dict[int, int] = {}
    for i in range(1, 1500):
        n = i * 7919 + 1
        f = 3
        while f * f <= n and n % f:
            f += 2
        key = i % 61
        counts[key] = counts.get(key, 0) + f
        acc += len(f"{n}:{f}") + (n * n * n) % 1000003
    return acc + sum(counts.values())


def probe() -> float:
    """Seconds the probe work takes now."""
    t0 = perf_counter()
    probe_work()
    return perf_counter() - t0


class Sampler:
    """Probe times of one run, taken at most once per `every_s` seconds."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[float] = []
        self.last = float("-inf")

    def due(self) -> bool:
        return perf_counter() - self.last >= self.every_s

    def sample(self) -> None:
        self.samples.append(probe())
        self.last = perf_counter()

    def scale(self) -> float:
        """The factor that brings this run's times to the reference speed.

        A pass's time adds up the host's speed over the pass, so the probe
        times are averaged too, not their median taken: the host switches
        between a fast and a slow state, and a median follows whichever one
        holds just over half of the samples.  The fastest and slowest tenth
        are left out, so that one stall does not weigh on the mean.
        """
        samples = sorted(self.samples)
        cut = len(samples) // 10
        return REFERENCE_S / statistics.fmean(samples[cut:len(samples) - cut])
