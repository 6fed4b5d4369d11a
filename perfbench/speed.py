"""The machine's speed, sampled between ops, so that end-to-end times taken
minutes apart on a shared host can be compared.

On a host shared with other tenants a fixed pure-Python loop runs up to
1.8 times slower for minutes at a time, and process CPU time slows with it
(the loss is not stolen time that CPU accounting would leave out).  So an
untraced run samples a fixed kernel about once a second between ops and
scales every timed figure by ``REFERENCE_S / (median kernel time)``: the
figure reads as it would on a machine that runs the kernel in
``REFERENCE_S``.  The kernel calls no code of the program, so a change to the
program moves the scaled figures by the same share as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy

#: Kernel time on an unloaded reference machine; scaled figures read as
#: measured there.
REFERENCE_S = 0.0105
#: Least time between two samples taken by :meth:`SpeedProbe.tick`.
INTERVAL_S = 1.0

#: Small inputs, repeated, so sampling adds almost nothing to the process's
#: peak RSS, which ``peak_rss_mb`` reports.
_WORDS = [f"{i * 7919 % 100_003:05d}-{chr(97 + i % 26)}" for i in range(1400)]
_CODES = numpy.arange(60_000) * 7919 % 1009
_REPEATS = 5


def kernel() -> None:
    """Work shaped like the program's: dict and string building, sorting,
    and a numpy group-by."""
    for _ in range(_REPEATS):
        groups: dict[str, list[str]] = {}
        for word in _WORDS:
            groups.setdefault(word[-1], []).append(word.upper())
        ordered = sorted(_WORDS, key=lambda word: word[::-1])
        ",".join(ordered).split(",")
        numpy.unique(_CODES, return_inverse=True)


class SpeedProbe:
    """Kernel times sampled through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Seconds spent sampling, which a timed region leaves out.
        self.spent = 0.0
        self._next = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds
        self._next = time.perf_counter() + INTERVAL_S
        return seconds

    def tick(self) -> None:
        """Sample if the last sample is more than ``INTERVAL_S`` old."""
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, first: int = 0) -> float:
        """Factor that turns a time measured since sample ``first`` into the
        time on the reference machine."""
        return REFERENCE_S / statistics.median(self.samples[first:])
