"""logsplit benchmark: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload exact-3p --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced pass; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
operation's output is checked against an oracle computed apart from
logsplit (see oracles.py).  A run repeats whole rounds of the same
operations until ``--seconds`` have passed.  ``attempted`` and ``failed``
count one round, the checked warm-up, so they are the same in every run;
``correct`` is false if any other round fails differently or an operation
outside the known-fault slice fails.  Times are scaled to reference speed
(reference.py).  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from time import perf_counter

import ops  # exits when the checkout has no logsplit sources

import corpus
import reference
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
#: Measured set-up launches per run (one more runs first and is dropped).
SETUP_LAUNCHES = 20
#: What the bare launch that scales each set-up launch runs: the
#: standard-library imports of logsplit and the probe, nothing of their own.
BARE_IMPORTS = (
    "import argparse, cmath, contextlib, dataclasses, enum, fractions, io, json, math, random, typing"
)
#: Bare launch time that defines the reference speed of set-up.
REF_LAUNCH_S = 0.08

#: Per-layer timings: metric, span name, scale from seconds, unit.
LAYER_TIMES = (
    ("documents.parse_us", "documents.parse", 1e6, "us"),
    ("documents.emit_us", "documents.emit", 1e6, "us"),
    ("representation.validate_us", "representation.validate", 1e6, "us"),
    ("representation.build_us", "representation.build", 1e6, "us"),
    ("representation.infinity_us", "representation.infinity", 1e6, "us"),
    ("matrix.inverse_us", "matrix.inverse", 1e6, "us"),
    ("matrix.matmul_us", "matrix.matmul", 1e6, "us"),
    ("matrix.char_poly_us", "matrix.char_poly", 1e6, "us"),
    ("eigen.eigenvalues_us", "eigen.eigenvalues", 1e6, "us"),
    ("chern.c1_us", "chern.c1", 1e6, "us"),
    ("splitting.invariant_lines_us", "splitting.invariant_lines", 1e6, "us"),
    ("splitting.dispatch_us", "splitting.dispatch", 1e6, "us"),
    ("splitting.character_root_ns", "splitting.character_root", 1e9, "ns"),
    ("cli.sweep_row_ns", "cli.sweep", 1e9, "ns"),
)


def _now() -> float:
    # CLOCK_MONOTONIC is shared with the probe processes.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _checked(wl, item, out) -> bool:
    if out is None:
        return False
    try:
        return wl.check(item, out)
    except (KeyError, TypeError, ValueError):
        return False


class Timings:
    """Raw seconds per operation, with its input's position in the round
    and the yardstick sample it started after.  Arrays keep the memory
    this costs small and flat, whatever the number of operations."""

    def __init__(self):
        self.positions = array("l")
        self.seconds = array("d")
        self.samples = array("l")

    def __len__(self) -> int:
        return len(self.seconds)

    def scaled(self, stick: reference.Yardstick) -> list[float]:
        return [s * stick.factor(i) for s, i in zip(self.seconds, self.samples)]


def _run_round(wl, items, prepared, timings, stick) -> frozenset[int]:
    """Runs the round once; returns the positions of the failed operations."""
    failing = set()
    for k, (item, p) in enumerate(zip(items, prepared)):
        sample = stick.index
        start = perf_counter()
        try:
            out = wl.run(p)
        except Exception:  # any crash of the program is a failed operation
            out = None
        seconds = perf_counter() - start
        timings.positions.append(k)
        timings.seconds.append(seconds)
        timings.samples.append(sample)
        if not _checked(wl, item, out):
            failing.add(k)
        stick.tick()
    return frozenset(failing)


class Outcome:
    """The failures of the checked warm-up round, which are what a run
    reports; every later round must fail on exactly the same operations."""

    def __init__(self, items, failing: frozenset[int]):
        self.items = items
        self.failing = failing
        self.repeats = True

    def check(self, failing: frozenset[int]) -> None:
        self.repeats &= failing == self.failing

    @property
    def correct(self) -> bool:
        # Only the known-fault slice may fail, and the same way every round.
        return self.repeats and all(self.items[k].fault for k in self.failing)


def probe_setup(workload: str, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import logsplit and finish
    the first operation, input generation excluded."""
    start = _now()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res["t_end"] - start - res["gen_s"]


def _timed_launch(workload: str, seed: int) -> tuple[float, float]:
    """One set-up launch: its wall seconds, and the same at reference speed,
    scaled by a bare launch made right after it."""
    wall = probe_setup(workload, seed)
    start = _now()
    subprocess.run([sys.executable, "-c", BARE_IMPORTS], capture_output=True, timeout=120, check=True)
    return wall, wall * REF_LAUNCH_S / (_now() - start)


def _latencies(items, timings: Timings, seconds) -> tuple[float, float, float]:
    """Units per second over all operations, and p50/p90 latency.  With
    several inputs in a round the quantiles are over each input's median
    latency in the run, which leaves out the host's per-operation jitter
    (README.md); with one input (sweep) they are over its operations."""
    rate = sum(items[k].units for k in timings.positions) / sum(seconds)
    if len(items) == 1:
        typical = list(seconds)
    else:
        per_input: dict[int, list[float]] = {}
        for k, s in zip(timings.positions, seconds):
            per_input.setdefault(k, []).append(s)
        typical = [statistics.median(v) for v in per_input.values()]
    return rate, statistics.median(typical), statistics.quantiles(typical, n=10)[-1]


def end_to_end(workload: str, seed: int, seconds: int):
    wl = ops.WORKLOADS[workload]
    items = corpus.make_round(workload, seed)
    prepared = [wl.prepare(it) for it in items]
    probe_setup(workload, seed)  # fills the bytecode caches; not counted
    stick = reference.Yardstick()
    outcome = Outcome(items, _run_round(wl, items, prepared, Timings(), stick))  # warm-up
    gc.collect()
    timings = Timings()
    setup: list[float] = []
    start = _now()
    deadline = start + seconds
    while _now() < deadline:
        # Set-up launches are spread over the run, between rounds.
        if len(setup) < SETUP_LAUNCHES and _now() >= start + len(setup) * seconds / SETUP_LAUNCHES:
            setup.append(_timed_launch(workload, seed))
        outcome.check(_run_round(wl, items, prepared, timings, stick))
    while len(setup) < SETUP_LAUNCHES:
        setup.append(_timed_launch(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stick.close()
    rate, p50, p90 = _latencies(items, timings, timings.scaled(stick))
    raw_rate, raw_p50, raw_p90 = _latencies(items, timings, timings.seconds)
    print(f"raw wall time: items_per_s {raw_rate:.1f}, latency_p50_us {raw_p50 * 1e6:.1f}, "
          f"latency_p90_us {raw_p90 * 1e6:.1f}; reference kernel "
          f"median {statistics.median(stick.samples) * 1e6:.1f} us over {len(stick.samples)} samples")
    print(f"set-up: {len(setup)} launches, wall median {statistics.median(w for w, _ in setup):.4f} s")
    metrics = {
        "items_per_s": (rate, "1/s"),
        "latency_p50_us": (p50 * 1e6, "us"),
        "latency_p90_us": (p90 * 1e6, "us"),
        "setup_s": (statistics.median(r for _, r in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return outcome, metrics, len(timings)


def traced(workload: str, seed: int, seconds: int):
    """Alternates an untraced round (the base of trace.coverage) with a
    traced round, so that both see the same host phases."""
    wl = ops.WORKLOADS[workload]
    items = corpus.make_round(workload, seed)
    prepared = [wl.prepare(it) for it in items]
    stick = reference.Yardstick()
    outcome = Outcome(items, _run_round(wl, items, prepared, Timings(), stick))  # warm-up
    gc.collect()
    base = Timings()
    tracer, counts, passes = Tracer(), ops.Counts(), 0
    op_samples: dict[int, int] = {}  # top-level span -> yardstick sample
    deadline = _now() + seconds
    while _now() < deadline:
        outcome.check(_run_round(wl, items, prepared, base, stick))
        failing = set()
        for k, (item, p) in enumerate(zip(items, prepared)):
            op_samples[len(tracer.spans)] = stick.index
            with tracer.span("op"):
                try:
                    out = wl.traced(item, p, tracer, counts)
                except Exception:  # a failed operation, as in the untraced run
                    out = None
            if not _checked(wl, item, out):
                failing.add(k)
            stick.tick()
        outcome.check(frozenset(failing))
        passes += 1
    stick.close()

    factors = {idx: stick.factor(s) for idx, s in op_samples.items()}
    metrics = {
        name: (tracer.per_call_p50(span, factors) * scale, unit)
        for name, span, scale, unit in LAYER_TIMES
    }
    for name, total in counts.values.items():
        metrics[name] = (total // passes, "count")
    base_p50 = statistics.median(base.scaled(stick))
    metrics["trace.coverage"] = (tracer.stage_sum_p50(ops.STAGES, factors) / base_p50, "ratio")
    path = os.path.join(HERE, "out", f"trace-{workload}-seed{seed}.json")
    tracer.write(path)
    print(f"trace: {len(tracer.spans)} spans over {passes} passes written to {path}")
    print(f"trace.coverage base: untraced latency p50 {base_p50 * 1e6:.3f} us (reference speed) "
          f"over {len(base)} operations")
    return outcome, metrics, len(base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    run = traced if args.trace else end_to_end
    outcome, metrics, timed_ops = run(args.workload, args.seed, args.seconds)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: one round attempted "
          f"{len(outcome.items)}, failed {len(outcome.failing)}; every round failed alike: "
          f"{outcome.repeats}; timed {timed_ops}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": len(outcome.items),
        "failed": len(outcome.failing),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
