"""How fast the host runs pure Python right now.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes: a fixed loop can take 30% longer in one run than in the next,
and every timed operation of that run slows with it.  :func:`probe` runs a
fixed kernel of plain dict, set and tuple work, which shares no code with
the program, for a given time and returns how many kernel passes it made.
Probes taken between the timed operations of a run give the host's speed
next to each operation, and the run's times are scaled to a reference speed, so that
they measure the program and not the machine's load at the time.
"""

from __future__ import annotations

import gc
import random
import time

#: The kernel's input: a fixed random graph.
_rng = random.Random(20240521)
_EDGES = [(_rng.randrange(300), _rng.randrange(300)) for _ in range(1500)]
del _rng

#: About the kernel's passes per second on the reference host (2-core
#: x86_64, Python 3.11.7).  Scaled times are in that host's seconds.
REFERENCE_SPEED = 800.0


def _kernel() -> int:
    index: dict[int, list[int]] = {}
    for a, b in _EDGES:
        index.setdefault(a, []).append(b)
    paths = set()
    for a, b in _EDGES:
        for c in index.get(b, ()):
            paths.add((a, c))
    return len(paths)


def probe(seconds: float) -> tuple[int, float]:
    """Run the kernel for about ``seconds``; return (passes, elapsed).

    The collector is off meanwhile, so the probe does not depend on how
    many objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        passes = 0
        started = time.perf_counter()
        while True:
            _kernel()
            passes += 1
            elapsed = time.perf_counter() - started
            if elapsed >= seconds:
                return passes, elapsed
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Probes the host between timed operations.

    Call it with an operation's unscaled time right after the operation;
    it probes for ``share`` of that time (at least ``floor`` seconds) and
    returns the factor that scales the operation to the reference host:
    the speed over the probes just before and just after it, over
    :data:`REFERENCE_SPEED`.
    """

    def __init__(self, share: float = 0.1, floor: float = 0.005) -> None:
        self.share, self.floor = share, floor
        self.before = probe(0.05)

    def __call__(self, elapsed: float) -> float:
        after = probe(max(self.floor, self.share * elapsed))
        passes = self.before[0] + after[0]
        seconds = self.before[1] + after[1]
        self.before = after
        return passes / seconds / REFERENCE_SPEED


def unscaled(elapsed: float) -> float:
    """The pace of runs that are not scaled (traced runs and tests)."""
    return 1.0
