"""Size ladder: stage times of the perturbative path against the exact oracle.

    python3 tools/ladder.py OUTPUT.json

The package is imported from this checkout's ``src`` and the random model
from its ``perfbench/workloads.py``.  At each (d_S, d_B) of `SIZES` the
ladder builds ``workloads.random_model`` (seed 3, lambda = 0.05) and times
these stages, each the median of `REPEATS` runs in this process:

- ``model``: the model build, `random_model` (sampling and `make_model`);
- ``kernels``: `compute_kernels` at order 3 on 21 points over [0, 2];
- ``one_point``: `one_point_operator` over that grid;
- ``offgrid``: `superop.one_point_values` at the 20 times ``grid.points[:-1]
  + 0.037``, off the grid, their kernel rows (`KernelSet.eigen_rows`) included;
- ``image``: `image_from_one_point` at t = 1;
- ``star3``: `star_of_observables` at t = 0.5, 1 and 1.5;
- ``partitions``: `expand_image_by_partitions` of the trajectory at order 3,
  t = 1, the partition sum whose suffix tree `npoint` builds once per order;
- ``exact``: one `evolve_exact` call over the grid.

Each row also holds ``ratio`` = (kernels + one_point) / exact, the cost of
the perturbative one-point path in units of the exact one.  The output file
records the setup, the provenance and ``OPENBLAS_NUM_THREADS``; a later
performance change writes its own file and compares its ratio column with
this one's.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import heisenbath as hb  # noqa: E402
import workloads  # noqa: E402
from heisenbath.superop import one_point_values, star_of_observables  # noqa: E402

SIZES = ((2, 8), (4, 8), (4, 16), (8, 16), (16, 16))
REPEATS = 3
SEED, LAM, ORDER = 3, 0.05, 3
STOP, POINTS = 2.0, 21
OFFGRID_SHIFT = 0.037
IMAGE_TIME = 1.0
STAR_TIMES = (0.5, 1.0, 1.5)
STAGES = ("model", "kernels", "one_point", "offgrid", "image", "star3", "partitions", "exact")


def _timed_run(d_s: int, d_b: int) -> dict:
    """Wall time in seconds of each stage of `STAGES`, once."""
    times = {}

    def stage(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[name] = time.perf_counter() - start
        return out

    m, obs = stage("model", workloads.random_model, np.random.default_rng(SEED), d_s, d_b, LAM)
    grid = hb.TimeGrid.linspace(STOP, POINTS)
    trunc = hb.SeriesTruncation(ORDER, LAM)
    ks = stage("kernels", hb.compute_kernels, m, ORDER, grid)
    traj = stage("one_point", hb.one_point_operator, obs, trunc, ks, m.rho_b, grid)
    offgrid = grid.points[:-1] + OFFGRID_SHIFT
    stage("offgrid", lambda: one_point_values(obs, ORDER, (LAM,), ks, m.rho_b, ks.eigen_rows(offgrid)))
    stage("image", hb.image_from_one_point, traj, ks, m.rho_b, IMAGE_TIME)
    stage("star3", star_of_observables, [(obs, t) for t in STAR_TIMES], trunc, ks, m.rho_b)
    stage("partitions", hb.expand_image_by_partitions, traj, ORDER, ks, m.rho_b, IMAGE_TIME)
    stage("exact", hb.evolve_exact, m, [obs], grid.points)
    return times


def ladder(sizes=SIZES, repeats: int = REPEATS) -> list[dict]:
    """One row per size: the median time of each stage and the ratio."""
    rows = []
    for d_s, d_b in sizes:
        runs = [_timed_run(d_s, d_b) for _ in range(repeats)]
        row = {"d_s": d_s, "d_b": d_b, "D": d_s * d_b}
        row.update({f"{name}_s": statistics.median(run[name] for run in runs) for name in STAGES})
        row["ratio"] = (row["kernels_s"] + row["one_point_s"]) / row["exact_s"]
        rows.append(row)
    return rows


def provenance() -> dict:
    try:  # the commit, with "-dirty" when tracked files differ from it
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "git": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def bench(sizes=SIZES, repeats: int = REPEATS) -> dict:
    """The ladder with its setup and provenance, as written to the output file."""
    setup = {
        "model": "perfbench.workloads.random_model",
        "seed": SEED,
        "lambda": LAM,
        "order": ORDER,
        "grid": {"stop": STOP, "points": POINTS},
        "offgrid_shift": OFFGRID_SHIFT,
        "image_time": IMAGE_TIME,
        "star_times": list(STAR_TIMES),
        "repeats": repeats,
        "statistic": "median",
    }
    return {"setup": setup, "provenance": provenance(), "rows": ladder(sizes, repeats)}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    record = bench()
    with open(argv[0], "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for row in record["rows"]:
        cells = "  ".join(f"{name} {1e3 * row[name + '_s']:8.2f} ms" for name in STAGES)
        print(f"({row['d_s']:2d}, {row['d_b']:2d})  {cells}  ratio {row['ratio']:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
