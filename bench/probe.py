"""Set-up probe, run in a fresh interpreter by ``run.py``.

    python3 bench/probe.py <workload> <seed>

Imports logsplit, generates the workload's round, and finishes its first
operation.  Prints one JSON line with the monotonic clock at the end and
the seconds spent generating input, which the parent subtracts from the
time it measured since launching this process.
"""

import sys
import time


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import ops  # imports logsplit from the checkout

    import corpus

    gen_start = time.clock_gettime(time.CLOCK_MONOTONIC)
    item = corpus.make_round(workload, seed)[0]
    wl = ops.WORKLOADS[workload]
    prepared = wl.prepare(item)
    gen_s = time.clock_gettime(time.CLOCK_MONOTONIC) - gen_start
    try:
        wl.run(prepared)
    except Exception:  # a failing first operation still finished; run.py checks outputs
        pass
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(f'{{"t_end": {end!r}, "gen_s": {gen_s!r}}}')


if __name__ == "__main__":
    main()
