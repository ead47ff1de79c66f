"""Reference kernel: the yardstick that takes host speed out of the timings.

On a shared 2-core host the speed of the same Python code changes by up to
1.7x in phases that last seconds (another tenant on the same cores), so a
run's raw median flips between two modes.  The benchmark therefore times a
fixed pure-Python kernel between operations, about every
``EVERY_S`` seconds, and scales each operation's wall time by
``REF_S / (kernel time around that operation)``.  The result reads as
wall time on a host where the kernel takes ``REF_S``, about this host's
uncontended speed.  The kernel mixes what the workloads do: Fraction
arithmetic, complex floats, dict and str work.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

#: Kernel time that defines the reference speed.
REF_S = 400e-6
#: Seconds between kernel samples while operations run.
EVERY_S = 0.05


def kernel():
    acc = Fraction(0)
    z = 0j
    for k in range(1, 80):
        acc += Fraction(k, k + 1) * Fraction(1, k + 2)
        z = z * 0.5 + complex(k, -k) / (k + 1j)
    table = {i: str(i * i) for i in range(300)}
    return acc, z, len(",".join(table.values()))


def sample() -> float:
    """Fastest of two kernel runs, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


class Yardstick:
    """Kernel samples taken between operations; an operation that started
    after sample ``i`` is scaled by the mean of samples ``i`` and ``i + 1``."""

    def __init__(self):
        self.samples = [sample()]
        self._last = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self._last >= EVERY_S:
            self.samples.append(sample())
            self._last = perf_counter()

    @property
    def index(self) -> int:
        return len(self.samples) - 1

    def close(self) -> None:
        """Take the sample that brackets the last operations."""
        self.samples.append(sample())

    def factor(self, index: int) -> float:
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return REF_S / (0.5 * (self.samples[index] + after))
