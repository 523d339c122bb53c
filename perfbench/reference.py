"""Reference figures for perfbench/README.md, outside the timed runs.

Measures, on the seed-0 synthetic week:

* the wall time of each of the 13 flatness-weight sweep points
  (``weighted.solve_weighted`` called one weight at a time, best of
  ``REPEATS``);
* capped minimum-CO2 scheduling at 1x, 2x and 4x fleet size, where the
  seed-0 jobs are replicated with suffixed ids and the grid cap is
  150 kWh per interval per copy.  Each size is solved once, because the
  4x case runs for minutes.

Usage: ``python3 perfbench/reference.py [--sizes 1 2 4]``.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from depotcharge.cli import OFFICE_BASELOAD_KW  # noqa: E402
from depotcharge.flow import solve_min_co2  # noqa: E402
from depotcharge.matching import match_week, to_jobs  # noqa: E402
from depotcharge.model import Instance  # noqa: E402
from depotcharge.synth import (  # noqa: E402
    random_baseload,
    sinusoid_emissions,
    synth_timetable,
    week_horizon,
)
from depotcharge.weighted import DEFAULT_FLATNESS_SWEEP, Weights, solve_weighted  # noqa: E402

CAP_KWH_PER_COPY = 150.0

#: Timings per sweep point; the best is reported.
REPEATS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 4])
    args = parser.parse_args()

    horizon = week_horizon()
    jobs = to_jobs(match_week(synth_timetable(seed=0).lines, horizon), horizon)
    instance = Instance(horizon=horizon, jobs=jobs)
    baseload = random_baseload(horizon, *OFFICE_BASELOAD_KW, seed=0)
    emissions = sinusoid_emissions(horizon)

    sweep_s = {}
    for weight in DEFAULT_FLATNESS_SWEEP:
        weights = Weights(co2_weight=1.0, flatness_weight=weight)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            solve_weighted(instance, emissions, baseload, weights)
            best = min(best, time.perf_counter() - start)
        sweep_s[repr(weight)] = round(best, 3)
        print(f"sweep w={weight}: {best:.3f} s", file=sys.stderr, flush=True)

    capped_s = {}
    for size in args.sizes:
        copies = tuple(
            replace(job, id=f"{job.id}#{copy}") for copy in range(size) for job in jobs
        )
        capped = Instance(
            horizon=horizon,
            jobs=copies,
            caps_kwh=np.full(horizon.interval_count, CAP_KWH_PER_COPY * size),
        )
        start = time.perf_counter()
        solve_min_co2(capped, emissions)
        capped_s[f"{size}x"] = round(time.perf_counter() - start, 2)
        print(f"capped co2 {size}x ({len(copies)} jobs): {capped_s[f'{size}x']} s",
              file=sys.stderr, flush=True)

    print(json.dumps({"sweep_point_s": sweep_s, "capped_co2_s": capped_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
