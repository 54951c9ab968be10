"""Do two checkouts give the same numbers, within the rounding budget?

    python3 tools/same_numbers.py PARENT CHANGE

PARENT and CHANGE are checkout directories (a ``git clone`` or ``git
archive`` of each commit).  For each one, a child process imports the
package from its ``src`` and the benchmark inputs from its
``perfbench/workloads.py``, and saves every output group as an array:

- every output of a series_4x8 (order 3) and of a markov_lindblad (order 0)
  solve, at seeds 1, 2 and 5;
- ``star_mixed``: at the same series_4x8 seeds, the star product
  (`star_of_observables`) of the workload's observable and a second,
  distinct hermitian observable, legs ``(O, B, O)`` at the star times, a
  product of distinct observables that no shipped config runs;
- ``offgrid_rows``: at the same seeds, the series observable's one-point
  values (`one_point_values`) at kernel rows off the grid, which no
  shipped config reaches: two offsets from three grid points each, times
  within 1e-14 of a grid point, times past the stop, and -1e-13;
- each column of each shipped config (``configs/*.yaml``) run to CSV and
  to JSON, at the config's ``truncation.order`` for the ``one_point`` and
  ``n_point`` runs and at order 0 for the others;
- each column of the two run modes no shipped config runs (`MODE_RUNS`),
  to CSV and to JSON at order 0: ``two_qubit_one_point.yaml`` with ``run:
  image_exact`` and ``dephasing_lindblad.yaml`` with ``run:
  markov_report``, groups ``configs/<config>:<mode>/<format>``.

It also runs the validate_small configs of seeds 1-12 (288 suites) and the
shipped ``validate`` config, and keeps each run's exit code and table rows;
the other shipped configs keep their exit code.

The comparison reads each numeric group's largest deviation in units of
the rounding budget of an order-N result, `diagnostics.rounding_floor` (N,
parent values), ``64 (N+1) eps max(1, max|parent|)``: a bit-identical group
reads 0 units.  A non-numeric group (a string or a flag) reads 0 units when
equal and infinity otherwise, as does a group whose shape changed, and a
deviation that is NaN counts as infinite.  The script prints every group
above 0 units, the runs that changed their exit code or a row status, each
side's validate exit codes and, per slope row, the largest slope change and
each side's smallest margin above the threshold.  It exits 0 only when
every group is within 1 unit, both sides have the same groups and runs, and
no run changed its exit code or a row status; otherwise 1.

Both children run with ``OPENBLAS_NUM_THREADS=1`` unless the variable is
set, because some BLAS results depend on the thread count.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import glob
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 5)
STATUS_SEEDS = range(1, 13)
# (shipped config, run mode) of the modes no shipped config runs
MODE_RUNS = (("two_qubit_one_point.yaml", "image_exact"), ("dephasing_lindblad.yaml", "markov_report"))


def _leaves(prefix: str, obj):
    """``(name, array)`` of every array, number, flag and string inside ``obj``."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(f"{prefix}/{key}", value)
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from _leaves(f"{prefix}/{k}", value)
    elif obj is None:
        yield prefix, np.array("None")
    else:
        yield prefix, np.asarray(obj)


def _columns(rows: list[dict]) -> dict:
    """The columns of CLI output rows: floats where every cell reads as one, else strings."""
    out = {}
    for key in rows[0] if rows else ():
        cells = [row[key] for row in rows]
        try:
            out[key] = np.array([float(c) for c in cells])
        except ValueError:
            out[key] = np.array([str(c) for c in cells])
    return out


def star_mixed(hb, workloads, series, seed: int) -> np.ndarray:
    """The star of the series observable ``O`` and a seeded hermitian ``B``, legs ``(O, B, O)``."""
    from heisenbath.superop import star_of_observables

    rng = np.random.default_rng([seed, 34])
    d = len(series.obs)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    legs = zip((series.obs, (a + a.conj().T) / 2, series.obs), workloads.STAR_TIMES)
    ks = hb.compute_kernels(series.model, series.trunc.order, series.grid)
    return star_of_observables(legs, series.trunc, ks, series.model.rho_b)


def offgrid_rows(hb, series) -> np.ndarray:
    """One-point values of the series observable at off-grid kernel rows (`KernelSet.eigen_rows`)."""
    from heisenbath.superop import one_point_values

    ks = hb.compute_kernels(series.model, series.trunc.order, series.grid)
    pts = series.grid.points
    h = pts[1]
    near = [pts[3] + 5e-15, pts[6] - 5e-15, pts[-1] + 0.3 * h, pts[-1] + 2.2 * h, -1e-13]
    times = np.concatenate([pts[1:4] + 0.37 * h, pts[5:8] + 0.61 * h, near])
    rows = ks.eigen_rows(times)
    return one_point_values(series.obs, series.trunc.order, (series.trunc.lam,), ks, series.model.rho_b, rows)


def child(checkout: str, npz: str) -> None:
    """Save the output groups of ``checkout`` to ``npz`` and print their orders and the runs as JSON."""
    import yaml

    checkout = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import heisenbath
    import workloads
    from heisenbath import cli

    if not os.path.abspath(heisenbath.__file__).startswith(os.path.join(checkout, "src") + os.sep):
        raise SystemExit(f"imported heisenbath from {heisenbath.__file__}, not from {checkout}")
    groups, orders, runs = {}, {}, {}

    def keep(prefix: str, order: int, obj) -> None:
        for name, value in _leaves(prefix, obj):
            groups[name], orders[name] = value, order

    def run(group: str, config: str, output: str, fmt: str, table: bool) -> list[dict]:
        """Run ``config`` in process, its stdout and stderr dropped; keep its exit code and,
        for a validate ``table``, its rows; return the rows."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", config, "--output", output, "--format", fmt])
        rows = []
        if os.path.exists(output):
            with open(output) as fh:
                rows = list(csv.DictReader(fh)) if fmt == "csv" else json.load(fh)
            os.unlink(output)
        runs[group] = {"exit": code, "rows": {r["check"]: r for r in rows} if table else {}}
        return rows

    with tempfile.TemporaryDirectory() as work:
        for seed in SEEDS:
            series = workloads.build_series(seed, work)
            keep(f"series_4x8/seed{seed}", series.trunc.order, workloads.solve_series(series, None))
            keep(f"star_mixed/seed{seed}", series.trunc.order, star_mixed(heisenbath, workloads, series, seed))
            keep(f"offgrid_rows/seed{seed}", series.trunc.order, offgrid_rows(heisenbath, series))
            keep(f"markov_lindblad/seed{seed}", 0, workloads.solve_markov(workloads.build_markov(seed, work), None))
        for seed in STATUS_SEEDS:
            seed_dir = os.path.join(work, f"validate{seed}")
            os.makedirs(seed_dir)
            for config, output, _ in workloads.build_validate(seed, seed_dir).tasks:
                run(f"validate_small/seed{seed}/{os.path.basename(config)}", config, output, "csv", True)
        shipped = [(config, None) for config in sorted(glob.glob(os.path.join(checkout, "configs", "*.yaml")))]
        for config, mode in shipped + [(os.path.join(checkout, "configs", name), mode) for name, mode in MODE_RUNS]:
            with open(config) as fh:
                spec = yaml.safe_load(fh)
            name = os.path.basename(config)
            if mode:
                spec["run"], name = mode, f"{name}:{mode}"
                config = os.path.join(work, f"{mode}.yaml")
                with open(config, "w") as fh:
                    yaml.safe_dump(spec, fh)
            for fmt in ("csv", "json"):
                group = f"configs/{name}/{fmt}"
                rows = run(group, config, os.path.join(work, f"config.{fmt}"), fmt, spec["run"] == "validate")
                if spec["run"] != "validate":
                    order = spec["truncation"]["order"] if spec["run"] in ("one_point", "n_point") else 0
                    keep(group, order, _columns(rows))
    np.savez(npz, **groups)
    print(json.dumps({"orders": orders, "runs": runs}))


def run_child(checkout: str) -> dict:
    """The record ``{"groups": {name: (order, array)}, "runs": {name: {"exit", "rows"}}}`` of ``checkout``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}
    with tempfile.TemporaryDirectory() as work:
        npz = os.path.join(work, "groups.npz")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", checkout, npz],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            raise SystemExit(f"same_numbers: the child for {checkout} failed (exit {proc.returncode}):\n{proc.stderr}")
        record = json.loads(proc.stdout.splitlines()[-1])
        with np.load(npz) as arrays:
            record["groups"] = {name: (order, arrays[name]) for name, order in record.pop("orders").items()}
    return record


def budget_units(order: int, parent: np.ndarray, change: np.ndarray) -> float:
    """Largest deviation of ``change`` from ``parent`` in rounding budgets of an order-``order`` result."""
    from heisenbath.diagnostics import rounding_floor

    numeric = parent.dtype.kind in "iufc" and change.dtype.kind in "iufc"
    if parent.shape != change.shape or not numeric:
        return 0.0 if np.array_equal(parent, change) else float("inf")
    same = (parent == change) | (np.isnan(parent) & np.isnan(change))
    deviation = float(np.max(np.abs(change - parent), where=~same, initial=0.0))
    finite = np.abs(parent[np.isfinite(parent)])
    units = deviation / rounding_floor(order, finite.max(initial=0.0))
    return float("inf") if np.isnan(units) else units


def compare(parent: dict, change: dict) -> int:
    """Print the report of two records (`run_child`) and return the exit code: 0 within budget, else 1."""
    a, b = parent["groups"], change["groups"]
    names = sorted(a.keys() | b.keys())
    units = {name: budget_units(a[name][0], a[name][1], b[name][1]) for name in names if name in a and name in b}
    one_sided = [name for name in names if name not in units]
    for name in one_sided:
        print(f"only in the {'parent' if name in a else 'change'}: {name}")
    for name, u in units.items():
        if u > 0:
            print(f"{u:12.4g} units  {name}")
    over = [name for name, u in units.items() if not u <= 1]
    print(f"{len(units)} groups on both sides: {sum(u == 0 for u in units.values())} read 0 units, {len(over)} exceed 1")
    changed = report_runs(parent["runs"], change["runs"])
    return 1 if over or one_sided or changed else 0


def report_runs(parent: dict, change: dict) -> int:
    """Print each run that changed its exit code or a row status (or is on one side only),
    each side's validate exit codes and per slope row the largest slope change and each
    side's smallest margin; return the number of changed runs."""

    def statuses(runs, name):
        run = runs.get(name)
        return run and (run["exit"], {check: row["status"] for check, row in run["rows"].items()})

    names = sorted(parent.keys() | change.keys())
    changed = [name for name in names if statuses(parent, name) != statuses(change, name)]
    for name in changed:
        print(f"status changed: {name}")
    for side, runs in (("parent", parent), ("change", change)):
        exits = Counter(run["exit"] for name, run in runs.items() if name.startswith("validate_small/"))
        print(f"{side}: validate_small exit codes {dict(sorted(exits.items()))}")
    print(f"{len(changed)} of {len(names)} CLI runs changed their exit code or a row status")
    a, b = _slopes(parent), _slopes(change)
    print(f"{'slope row':24s} {'largest change':>14s} {'parent margin':>14s} {'change margin':>14s}")
    for check in sorted(a.keys() | b.keys()):
        pa, pb = a.get(check, {}), b.get(check, {})
        moved = max((abs(pa[k][0] - pb[k][0]) for k in pa.keys() & pb.keys()), default=float("nan"))
        margins = [min((v - t for v, t in side.values()), default=float("nan")) for side in (pa, pb)]
        print(f"{check:24s} {moved:14.3g} {margins[0]:14.3f} {margins[1]:14.3f}")
    return len(changed)


def _slopes(runs: dict) -> dict:
    """``{check: {run: (slope, threshold)}}`` of the slope rows of ``runs``."""
    out: dict = {}
    for name, run in runs.items():
        for check, row in run["rows"].items():
            if row.get("metric") == "loglog_slope":
                out.setdefault(check, {})[name] = float(row["value"]), float(row["threshold"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--child":
        child(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))  # the budget of `budget_units`
    return compare(*(run_child(path) for path in argv))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
