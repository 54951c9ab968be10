"""Do two checkouts give the same numbers?  SHA-256 digests of every output.

    python3 tools/same_numbers.py PARENT CHANGE

PARENT and CHANGE are checkout directories (a ``git clone`` or ``git
archive`` of each commit).  For each one, a child process imports the
package from its ``src`` and the benchmark inputs from its
``perfbench/workloads.py``, and prints one SHA-256 digest per output group:

- every output of a series_4x8 and of a markov_lindblad solve;
- the exit code, stderr and CSV bytes of each validate_small config;
- each shipped config (``configs/*.yaml``) run to CSV and to JSON: exit
  code, stderr and output bytes;

the workloads at seeds 1, 2 and 5.  This script then prints the groups that
differ and the validate exit-code histogram of each side, and exits 1 on
any difference (0 when every group is identical).

A change that moves rounding on purpose cannot keep the digests, so the
children also run the validate_small configs of seeds 1-12 (288 suites)
and report each row's status and value.  The script prints how many
suites changed a row status or their exit code and, for each slope row,
the largest change of its slope and each side's smallest margin above the
threshold.  These lines inform; only the digests decide the exit code.

Both children run with ``OPENBLAS_NUM_THREADS=1`` unless the variable is
set, because some BLAS results depend on the thread count.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

SEEDS = (1, 2, 5)
STATUS_SEEDS = range(1, 13)


def _leaves(prefix: str, obj):
    """``(name, bytes)`` of every array, number and string inside ``obj``."""
    import numpy as np

    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(f"{prefix}/{key}", value)
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from _leaves(f"{prefix}/{k}", value)
    elif obj is None or isinstance(obj, (str, bool)):
        yield prefix, repr(obj).encode()
    else:
        a = np.ascontiguousarray(obj)
        yield prefix, repr((a.dtype.str, a.shape)).encode() + a.tobytes()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(cli, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI run: its exit code and stderr (stdout names the output path, so it is dropped)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def child(checkout: str) -> None:
    """Print the digests of ``checkout`` as one JSON object."""
    checkout = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import heisenbath
    import workloads
    from heisenbath import cli

    if not os.path.abspath(heisenbath.__file__).startswith(os.path.join(checkout, "src") + os.sep):
        raise SystemExit(f"imported heisenbath from {heisenbath.__file__}, not from {checkout}")
    digests, exits, suites = {}, [], {}
    with tempfile.TemporaryDirectory() as work:
        for seed in SEEDS:
            series = workloads.build_series(seed, work)
            markov = workloads.build_markov(seed, work)
            for name, out in (
                ("series_4x8", workloads.solve_series(series, None)),
                ("markov_lindblad", workloads.solve_markov(markov, None)),
            ):
                digests.update((k, _sha(v)) for k, v in _leaves(f"{name}/seed{seed}", out))
        for seed in STATUS_SEEDS:
            seed_dir = os.path.join(work, f"validate{seed}")
            os.makedirs(seed_dir)
            for config, output, _ in workloads.build_validate(seed, seed_dir).tasks:
                code, err = _cli(cli, ["run", config, "--output", output])
                group = f"validate_small/seed{seed}/{os.path.basename(config)}"
                table = b""
                if os.path.exists(output):
                    with open(output, "rb") as fh:
                        table = fh.read()
                rows = csv.DictReader(io.StringIO(table.decode()))
                suites[group] = {"exit": code, "rows": {r["check"]: r for r in rows}}
                if seed in SEEDS:
                    exits.append(code)
                    digests[f"{group}/exit"] = _sha(str(code).encode())
                    digests[f"{group}/stderr"] = _sha(err.encode())
                    if os.path.exists(output):
                        digests[f"{group}/csv"] = _sha(table)
        for config in sorted(glob.glob(os.path.join(checkout, "configs", "*.yaml"))):
            for fmt in ("csv", "json"):
                output = os.path.join(work, f"config.{fmt}")
                code, err = _cli(cli, ["run", config, "--output", output, "--format", fmt])
                group = f"configs/{os.path.basename(config)}/{fmt}"
                digests[f"{group}/exit"] = _sha(str(code).encode())
                digests[f"{group}/stderr"] = _sha(err.encode())
                with open(output, "rb") as fh:
                    digests[f"{group}/output"] = _sha(fh.read())
                os.unlink(output)
    print(json.dumps({"digests": digests, "validate_exits": exits, "suites": suites}))


def run_child(checkout: str) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", checkout], capture_output=True, text=True, env=env
    )
    if proc.returncode != 0:
        raise SystemExit(f"same_numbers: the child for {checkout} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--child":
        child(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (run_child(path) for path in argv)
    a, b = parent["digests"], change["digests"]
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for side, record in (("parent", parent), ("change", change)):
        histogram = dict(sorted(Counter(record["validate_exits"]).items()))
        print(f"{side}: {len(record['digests'])} groups, validate exit codes {histogram}")
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} groups differ")
    report_statuses(parent["suites"], change["suites"])
    return 1 if differ else 0


def _slopes(suites: dict) -> dict:
    """``{check: {suite: (slope, threshold)}}`` of the slope rows of ``suites``."""
    out: dict = {}
    for name, suite in suites.items():
        for check, row in suite["rows"].items():
            if row["metric"] == "loglog_slope":
                out.setdefault(check, {})[name] = float(row["value"]), float(row["threshold"])
    return out


def report_statuses(parent: dict, change: dict) -> None:
    """Print how many suites changed their exit code or a row status, and per
    slope row the largest slope change and each side's smallest margin."""

    def statuses(suites, name):
        suite = suites.get(name)
        return suite and (suite["exit"], {check: row["status"] for check, row in suite["rows"].items()})

    names = parent.keys() | change.keys()
    changed = sum(statuses(parent, name) != statuses(change, name) for name in names)
    seeds = f"{STATUS_SEEDS[0]}-{STATUS_SEEDS[-1]}"
    print(f"validate seeds {seeds}: {changed} of {len(names)} suites changed a row status or exit code")
    a, b = _slopes(parent), _slopes(change)
    print(f"{'slope row':24s} {'largest change':>14s} {'parent margin':>14s} {'change margin':>14s}")
    for check in sorted(a.keys() | b.keys()):
        pa, pb = a.get(check, {}), b.get(check, {})
        moved = max((abs(pa[k][0] - pb[k][0]) for k in pa.keys() & pb.keys()), default=float("nan"))
        margins = [min((v - t for v, t in side.values()), default=float("nan")) for side in (pa, pb)]
        print(f"{check:24s} {moved:14.3g} {margins[0]:14.3f} {margins[1]:14.3f}")

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
