"""CPU-speed calibration for the benchmark's timings.

The shared virtual machine this benchmark was built on gives a core whose
speed changes by up to 2x from one second to the next, independently on its
two cores (speed of the same loop on both, sampled per second for a minute:
correlation 0.12). Over 100 s of ``check_fischer`` passes, raw pass times
spread 18% (quartile distance over median); no bound a regression check
could use survives that.

So the measured process samples its own speed while it works: a timer
signal runs one round of a fixed calibration computation (a closure over
Fraction bounds, the same kind of work as the zone and LRA layers, but no
tarepair code) every ``PERIOD_S`` of wall time. An item's time is its wall
time minus the rounds that ran inside it, scaled to a nominal CPU, one on
which a round takes ``NOMINAL_S``, by the mean of ``NOMINAL_S / round``
over the rounds in and around it. In the same 100 s the scaled pass times
spread 2.7%; over five ``check_fischer`` runs, each in its own process,
scaled ``wall_s`` spread 3.1% while the unscaled figure ranged 5.7-7.7 s.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0025  # one calibration round on the nominal CPU
PERIOD_S = 0.05  # wall time between rounds while sampling


def calibration_round() -> float:
    """Wall time of one round of the fixed calibration computation.

    A shortest-path closure over (Fraction, strict) bound pairs, hashing each
    result: the operations the zone and LRA layers spend their time on.
    """
    start = perf_counter()
    n = 5
    rows = [[(Fraction((i * 7 + j * 3) % 11, 1 + (i + j) % 3), (i + j) % 2 == 0) for j in range(n)] for i in range(n)]
    seen: dict = {}
    for _ in range(6):
        for k in range(n):
            for i in range(n):
                dik = rows[i][k]
                for j in range(n):
                    dkj = rows[k][j]
                    v = (dik[0] + dkj[0], dik[1] or dkj[1])
                    if v[0] < rows[i][j][0] or (v[0] == rows[i][j][0] and v[1] and not rows[i][j][1]):
                        rows[i][j] = v
        key = tuple(tuple(r) for r in rows)
        seen[key] = seen.get(key, 0) + 1
    return perf_counter() - start


def speed(rounds: list[float]) -> float:
    """Factor from measured to nominal seconds, over equally spaced rounds."""
    return statistics.mean(NOMINAL_S / r for r in rounds)


class SpeedSampler:
    """Calibration rounds every ``PERIOD_S``, from a SIGALRM handler."""

    def __init__(self) -> None:
        self.rounds: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, _signum=None, _frame=None) -> None:
        self.rounds.append((perf_counter(), calibration_round()))

    def __enter__(self) -> "SpeedSampler":
        self._sample()  # so that an item ending before the first signal has a round near it
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def item_times(self, start: float, end: float) -> tuple[float, float]:
        """(unscaled, scaled) time of work that ran from ``start`` to ``end``."""
        inside = [d for t, d in self.rounds if start <= t < end]
        work = end - start - sum(inside)
        near = [d for t, d in self.rounds if start - PERIOD_S <= t < end + PERIOD_S] or [self.rounds[-1][1]]
        return work, work * speed(near)
