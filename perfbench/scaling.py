"""Scaling diagnostic: how ``Simulator.run`` time grows with the epoch count.

    python3 perfbench/scaling.py [--seed 1]

Runs ``vote-storm`` and ``audit-sweep`` at 100, 200 and 400 epochs and
prints, per workload, the median of three run times (thread CPU time) at
each length and the slope of log(run time) against log(epochs): 1.0 is
linear scaling, 2.0 quadratic. This is a separate invocation, not a
benchmark workload, and nothing gates on it; it takes about a minute on a
2-core VM.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys

from probe import clock
from run import SRC

SHAPES = ("vote-storm", "audit-sweep")
EPOCHS = (100, 200, 400)
REPEATS = 3


def loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (SRC / "govsim" / "__init__.py").is_file():
        print(f"error: run from a govsim checkout; {SRC / 'govsim'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from govsim import simctl
    from workloads import synthetic

    for shape in SHAPES:
        times = []
        for epochs in EPOCHS:
            scenario = synthetic(shape, args.seed, epochs=epochs)
            runs = []
            for _ in range(REPEATS):
                start = clock()
                simctl.run_scenario(scenario)
                runs.append(clock() - start)
            times.append(statistics.median(runs))
            print(f"{shape:12s} epochs {epochs:4d}  run_s {times[-1]:8.3f}")
        print(f"{shape:12s} scaling exponent {loglog_slope(EPOCHS, times):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
