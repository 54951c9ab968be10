"""Layered, oracle-checked benchmark of heisenbath.

    python3 perfbench/run.py --workload series_4x8 --seed 1 --seconds 23 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
One invocation runs one workload in this process (closed loop, one solve at
a time, no worker threads) for ``--seconds`` of measured solving after one
warm-up round, and checks every solve against the exact oracle.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
the median solve time (median over the workload's tasks), the median
set-up time of several fresh interpreters, this process's peak RSS and the
share of solves that passed.  Both times are scaled to the reference speed
of the machine the benchmark was tuned on, each by a pass of a fixed kernel
timed next to it (see ``calibration.py``); the record keeps the raw wall
times.
``--trace 1`` spends half the time on untraced solves and half on solves
traced through every layer (see ``layertrace.py``) and reports the per-layer
metrics, per solve.

The last line of standard output is the result object; the line before it,
and ``perfbench/out/<workload>-seed<n>-trace<t>.json``, hold the full record:
percentiles, failures, check errors and provenance.  Traced runs also write
their spans to ``perfbench/out/spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, BENCH_DIR)
import calibration  # noqa: E402

SETUP_PROBES = 12
KERNEL_EVERY_S = 0.5  # keeps the kernel within a second of every solve it scales
PROBE_TIMEOUT_S = 60
ORACLE_REPS = 5


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


# -- provenance -----------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def package_threads() -> int:
    """Worker threads the package's validation sweep uses, read as it reads them."""
    try:
        return max(1, int(os.environ.get("HEISENBATH_THREADS", "1")))
    except ValueError:
        return 1


def provenance() -> dict:
    import heisenbath
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "backend": heisenbath.BACKEND,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "HEISENBATH_THREADS": os.environ.get("HEISENBATH_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# -- statistics -----------------------------------------------------------------


def solve_time(times: list[float], kernel: list[float], n_tasks: int) -> float:
    """Solve time at reference speed: median over tasks of the median over
    each task's solves of ``t * REFERENCE_S / k``, ``k`` being the slower of
    the reference kernel passes on either side of the solve.  ``times``
    holds whole rounds, task by task.
    """
    scaled = [t * calibration.REFERENCE_S / k for t, k in zip(times, kernel)]
    return statistics.median(statistics.median(scaled[k::n_tasks]) for k in range(n_tasks))


def tail_percentile(samples: list[float]) -> dict:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return {"tail_percentile": None, "tail_s": None, "samples": n}
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return {"tail_percentile": pct, "tail_s": sorted(samples)[rank - 1], "samples": n}


# -- phases ---------------------------------------------------------------------


def setup_probes(workload: str, seed: int, workdir: str) -> list[dict]:
    """Import plus input build, each in a fresh interpreter, one after another,
    with a pass of the reference kernel in this process before the first
    probe and after each one; a probe keeps the passes on either side and is
    scaled by the slower of them."""
    probes = []
    calibration.run()  # warm-up: the first pass pays for numpy's first calls
    before = calibration.run()
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{i}")
        os.makedirs(probe_dir)
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, str(seed), probe_dir],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed (exit {proc.returncode}):\n{proc.stderr.strip()}", 3)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.abspath(rec["module"]).startswith(SRC + os.sep):
            fail(f"set-up probe imported heisenbath from {rec['module']}, not from {SRC}", 3)
        after = calibration.run()
        rec["reference_kernel_s"] = [before, after]
        probes.append(rec)
        before = after
    return probes


class Runner:
    """Runs rounds of one workload's tasks and keeps the failure accounting.

    A solve fails when it raises or its check reports a problem.  Problems
    of kind ``wrong`` (an output off its oracle tolerance, non-finite, or a
    validation defect) also make the run incorrect; kind ``error`` means the
    program refused to produce the output (an exception or an error exit).
    """

    def __init__(self, workload, inputs, tracer=None):
        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()

    def solve_once(self, task, solve_id: int) -> tuple[float, dict | None]:
        out, problems = None, []
        if self.tracer is not None:
            self.tracer.solve = solve_id
        start = time.perf_counter()
        try:
            out = self.workload.solve(self.inputs, task)
        except Exception as exc:  # a failed solve is counted, not fatal
            problems = [("error", f"raised {type(exc).__name__}: {exc}")]
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.solve = None
        if out is not None:
            try:
                problems = self.workload.check(self.inputs, task, out)
            except Exception as exc:
                problems = [("wrong", f"check raised {type(exc).__name__}: {exc}")]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += any(kind == "wrong" for kind, _ in problems)
            self.reasons.update(f"{kind}: {text}" for kind, text in problems)
        return elapsed, out

    def rounds(self, seconds: float) -> tuple[list[float], Counter, list[float]]:
        """Whole rounds until ``seconds`` have passed (at least one round).

        A pass of the reference kernel precedes a solve whenever
        ``KERNEL_EVERY_S`` have passed since the last one, and one more
        follows the last solve.  Returns the solve times, the summed
        ``counts`` the solves reported and, per solve, the slower of the two
        kernel passes on either side of it (see ``calibration``).
        """
        times: list[float] = []
        counts: Counter = Counter()
        passes: list[float] = []
        before: list[int] = []
        deadline = time.perf_counter() + seconds
        next_pass = 0.0
        while True:
            for task in self.inputs.tasks:
                if time.perf_counter() >= next_pass:
                    passes.append(calibration.run())
                    next_pass = time.perf_counter() + KERNEL_EVERY_S
                elapsed, out = self.solve_once(task, len(times))
                times.append(elapsed)
                before.append(len(passes) - 1)
                if out is not None:
                    counts.update(out.get("counts", {}))
            if time.perf_counter() >= deadline:
                passes.append(calibration.run())
                return times, counts, [max(passes[i], passes[i + 1]) for i in before]


def layer_metrics(tracer, counts: Counter, n: int, names: list[str]) -> tuple[dict, list[str]]:
    """Per-solve values of the ``<layer>.<function>.calls|self_s`` metrics,
    and the names among them whose function the package no longer has.

    Such a metric reads 0, like an idle layer's.  A name whose first part
    is no traced layer gets no value, so ``main`` refuses it as a typo.
    """
    import layertrace

    layer_names = {layer.lstrip("_") for layer in layertrace.LAYERS}
    absent = []
    solving = tracer.per_name(solving=True)
    setup = tracer.per_name(solving=False)
    requests = solving.get("dyson.stack_requests", {}).get("calls", 0)
    values = {
        "dyson.stack_offgrid_share": solving.get("dyson.stack_offgrid", {}).get("calls", 0) / max(requests, 1),
        "dyson.stack_reuse_share": solving.get("dyson.stack_reused", {}).get("calls", 0) / max(requests, 1),
    }
    for name in names:
        if name in values or not name.endswith((".calls", ".self_s")):
            continue
        base, field = name.rsplit(".", 1)
        table, divisor = (setup, 1) if base.startswith("setup.") else (solving, n)
        base = base.removeprefix("setup.")
        if base not in tracer.known:
            if base.split(".", 1)[0] not in layer_names:
                continue
            absent.append(name)
        values[name] = table.get(base, {}).get(field, 0) / divisor
    for name in names:
        if name.startswith(("cli.exit_code.", "markov.j_entries")):
            values[name] = counts.get(name, 0) / n
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "heisenbath", "__init__.py")):
        fail(f"no heisenbath package under {SRC}; run from the root of a heisenbath checkout")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace and package_threads() > 1:
        # the tracer keeps one span stack, so spans from worker threads would get wrong parents
        fail("--trace 1 needs HEISENBATH_THREADS unset or 1")

    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        probes = setup_probes(args.workload, args.seed, workdir)

        import heisenbath
        import layertrace
        import workloads

        if not os.path.abspath(heisenbath.__file__).startswith(SRC + os.sep):
            fail(f"imported heisenbath from {heisenbath.__file__}, not from {SRC}", 3)
        workload = workloads.WORKLOADS[args.workload]
        inputs_dir = os.path.join(workdir, "inputs")
        os.makedirs(inputs_dir)

        tracer = None
        if args.trace:
            tracer = layertrace.Tracer()
            tracer.install()
            tracer.solve = -1  # spans of the input build are set-up spans
        inputs = workload.build(args.seed, inputs_dir)
        if tracer is not None:
            tracer.solve = None
            tracer.uninstall()

        runner = Runner(workload, inputs)
        runner.rounds(0.0)  # warm-up round: checked and counted, not timed
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(),
            "setup_probes": probes,
        }
        measure = args.seconds / 2 if args.trace else args.seconds
        times, _, kernel = runner.rounds(measure)
        n_tasks = len(inputs.tasks)
        at_reference = [calibration.REFERENCE_S / max(p["reference_kernel_s"]) for p in probes]
        values = {
            "setup_s": statistics.median((p["import_s"] + p["inputs_s"]) * f for p, f in zip(probes, at_reference)),
            "setup.import_s": statistics.median(p["import_s"] * f for p, f in zip(probes, at_reference)),
            "setup.inputs_s": statistics.median(p["inputs_s"] * f for p, f in zip(probes, at_reference)),
        }
        solve_s = solve_time(times, kernel, n_tasks)
        values["solve_s"] = solve_s
        record["solve_s"] = {
            "value": solve_s,
            "wall_median_s": statistics.median(times),
            **tail_percentile(times),
            "solve_samples_s": times,
            "kernel_samples_s": kernel,
        }

        if args.trace:
            tracer.install()
            runner.tracer = tracer
            traced, counts, kernel = runner.rounds(measure)
            tracer.uninstall()
            runner.tracer = None
            traced_s = solve_time(traced, kernel, n_tasks)
            values["trace.overhead_s"] = traced_s - solve_s
            layer_values, absent = layer_metrics(tracer, counts, len(traced), [m["name"] for m in wanted])
            values.update(layer_values)
            oracle_s = 0.0
            if workload.oracle is not None:
                reps = []
                for _ in range(ORACLE_REPS):
                    start = time.perf_counter()
                    workload.oracle(inputs)
                    reps.append(time.perf_counter() - start)
                oracle_s = statistics.median(reps)
            values["series.oracle_ratio"] = statistics.median(times) / oracle_s if oracle_s else 0.0
            record["traced"] = {"solves": len(traced), "solve_s": traced_s}
            record["absent"] = absent
            record["layers"] = tracer.per_name(solving=True)
            record["setup_layers"] = tracer.per_name(solving=False)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_spans(spans_path)
            record["spans"] = os.path.relpath(spans_path, ROOT)

        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["ok_frac"] = (runner.attempted - runner.failed) / runner.attempted
        record["failed_frac"] = runner.failed / runner.attempted
        record["wrong_outputs"] = runner.wrong
        record["failures"] = dict(runner.reasons)

        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            fail(f"no value computed for {missing}", 1)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        record["metrics"] = metrics
        record_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(record_path, "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        print(json.dumps({"record": record}, default=str))
        print(
            json.dumps(
                {
                    "correct": runner.wrong == 0,
                    "attempted": runner.attempted,
                    "failed": runner.failed,
                    "metrics": metrics,
                }
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
