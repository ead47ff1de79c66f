"""In-memory spans for the traced pass.

A span is ``[name, start, end, parent, calls]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``calls`` the number of calls the
span covers, so that a loop over a cheap function can be one span.  Spans
stay in memory and are written once, when the run ends.  Durations are
read scaled by a factor per top-level span (see reference.py).
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, calls])
        self._open.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _root(self, idx: int) -> int:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return idx

    def per_call_p50(self, name: str, factors: dict[int, float]) -> float:
        """Median scaled seconds per call over the spans named ``name``;
        0.0 when the workload never made that call."""
        per_call = [
            (end - start) / calls * factors[self._root(idx)]
            for idx, (n, start, end, _, calls) in enumerate(self.spans)
            if n == name
        ]
        return statistics.median(per_call) if per_call else 0.0

    def stage_sum_p50(self, stages, factors: dict[int, float]) -> float:
        """Median over top-level spans of the scaled time of their direct
        children named in ``stages``."""
        sums = dict.fromkeys(factors, 0.0)
        for name, start, end, parent, _ in self.spans:
            if name in stages and parent in sums and self.spans[parent][3] == -1:
                sums[parent] += end - start
        return statistics.median(total * factors[idx] for idx, total in sums.items())

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "calls"], "spans": self.spans}, fh)
