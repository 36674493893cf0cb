"""Host-speed probe of the sweep benchmark.

On a shared host the speed of one core drifts by a quarter or more over
tens of seconds, which is larger than the regressions the benchmark has
to resolve.  A pass therefore times a fixed pure-Python loop at every
step boundary -- after each job of an in-process sweep, after each
request of the service workload, where the program is idle -- and
``run.py`` scales each step's wall time by ``PROBE_REF_S`` over the
median probe time around it.  Reported times are wall times on a host that runs the
probe in ``PROBE_REF_S``; probe time is excluded from every timing.

The loop does integer arithmetic only: it allocates no container, so
it never triggers the program's garbage collector, and nothing the
program does between steps changes its cost.
"""

from __future__ import annotations

import statistics
import time

perf = time.perf_counter

#: Probe time (median of three loops) on the reference host: a quiet
#: 2-core Intel Xeon VM, Python 3.11.
PROBE_REF_S = 1.4e-3
PROBE_LOOP = 20_000


def _loop(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


def spin(seconds: float) -> None:
    """Run the probe loop for ``seconds`` of reference-host time."""
    _loop(round(seconds / PROBE_REF_S * PROBE_LOOP))


def probe() -> float:
    """Median duration of three runs of the fixed loop (seconds)."""
    times = []
    for _ in range(3):
        started = perf()
        _loop(PROBE_LOOP)
        times.append(perf() - started)
    return statistics.median(times)


class StepClock:
    """Step boundaries of one pass, with a probe at each.

    ``marks[i]`` is the end of step ``i`` measured from :meth:`start`
    with probe time taken out; ``probes[0]`` is taken just before the
    first step and ``probes[i + 1]`` just after step ``i``.  A probe can
    run inside a traced layer (a sweep's job-completion callback);
    ``on_probe`` receives each probe's duration so the tracer can take
    it out of that layer's self time.
    """

    def __init__(self, on_probe=None) -> None:
        self.on_probe = on_probe
        self.marks: list[float] = []
        self.probes: list[float] = []
        self._probe_s = 0.0
        self._started = 0.0

    def start(self) -> None:
        self.probes.append(probe())
        self._probe_s = 0.0
        self._started = perf()

    def mark(self) -> None:
        now = perf()
        self.marks.append(now - self._started - self._probe_s)
        self.probes.append(probe())
        probe_s = perf() - now
        self._probe_s += probe_s
        if self.on_probe is not None:
            self.on_probe(probe_s)

    def elapsed(self) -> float:
        return perf() - self._started - self._probe_s


#: Probes on each side of a step that set its speed: a single probe is
#: a few milliseconds and can be cut into; the host's speed moves over
#: seconds.
PROBE_WINDOW = 2


def step_factors(probes: list[float], steps: int) -> list[float]:
    """Per-step scale to the reference host: ``PROBE_REF_S`` over the
    median of the probes within ``PROBE_WINDOW`` of the step's ends."""
    return [
        PROBE_REF_S / statistics.median(
            probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW])
        for i in range(steps)
    ]


def scaled_steps(marks: list[float], probes: list[float],
                 total: float) -> list[float]:
    """Step durations (the last one ends at ``total``) scaled to the
    reference host."""
    bounds = [0.0, *marks, total]
    durations = [b - a for a, b in zip(bounds, bounds[1:])]
    return [d * f for d, f in zip(durations,
                                  step_factors(probes, len(durations)))]
