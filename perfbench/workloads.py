"""Benchmark workloads: seeded inputs, one solve, and the oracle check.

Each workload is a set of tasks; a round runs every task once, in order,
and each task run is one solve.  ``build`` makes the inputs from the
workload seed alone, ``solve`` calls the package, and ``check`` compares a
solve's outputs with the exact oracle and returns its problems as
``(kind, message)`` pairs: kind ``wrong`` for an incorrect output, ``error``
for an output the program refused to produce; an empty list means the solve
passed.  The package sees only the generated matrices and YAML files, never
a benchmark setting.

Random models draw Haar-random eigenbases but keep a fixed spectrum
(Chebyshev points scaled to spectral radius ``2 sqrt(n)``, the size of a
Gaussian hermitian matrix), so the integrators' step counts, and with them
the solve time, barely depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

import heisenbath as hb
from heisenbath import markov

# -- random inputs ------------------------------------------------------------


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Hermitian matrix with a Haar-random eigenbasis and Chebyshev levels
    of spectral radius ``radius``."""
    levels = np.cos(np.pi * (np.arange(n) + 0.5) / n) / np.cos(np.pi / (2 * n))
    q = _haar(rng, n)
    return (q * (radius * levels)) @ q.conj().T


def random_model(
    rng: np.random.Generator,
    d_s: int,
    d_b: int,
    lam: float,
    h0_radius: float | None = None,
    qubit_tilt: float | None = None,
):
    """Model with fixed-spectrum random Hamiltonians, a random mixed bath
    state and a random observable of spectral norm 1.

    With ``qubit_tilt`` (d_S = 2 only) H0 is diagonal and the observable is
    a unit spin at that polar angle from the H0 axis, with random azimuth:
    its components, and so the integrator's step sizes, are then nearly the
    same for every seed.
    """
    radius = 2 * math.sqrt(d_s) if h0_radius is None else h0_radius
    if qubit_tilt is None:
        h0 = _hermitian(rng, d_s, radius)
    else:
        h0 = np.diag([radius, -radius])
    hb_ = _hermitian(rng, d_b, 2 * math.sqrt(d_b))
    hi = _hermitian(rng, d_s * d_b, 2 * math.sqrt(d_s * d_b))
    w = rng.random(d_b) + 0.1
    q = _haar(rng, d_b)
    rho_b = (q * (w / w.sum())) @ q.conj().T
    if qubit_tilt is None:
        obs = _hermitian(rng, d_s, 1.0)
    else:
        c, s, phase = math.cos(qubit_tilt), math.sin(qubit_tilt), np.exp(2j * np.pi * rng.random())
        obs = np.array([[c, s * phase], [s * np.conj(phase), -c]])
    m = hb.make_model(h0, hb_, hi, np.eye(d_s) / d_s, rho_b, lam=lam)
    return m, obs


def truncation_tolerance(m, order: int, t_max: float, factors: int) -> float:
    """Leading Dyson-remainder term of an order-``order`` series.

    Each of ``factors`` unit-norm observables carries a propagator pair whose
    first dropped term is ``x^(n+1)/(n+1)!`` with ``x = lam ||H_I|| t / hbar``;
    the truncation error scales as ``lam^(n+1)`` with this prefactor.
    """
    x = m.constants.lam * np.linalg.norm(m.hi.mat, 2) * t_max / m.constants.hbar
    return factors * x ** (order + 1) / math.factorial(order + 1)


def _max_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


# -- series_4x8 ---------------------------------------------------------------

SERIES_DIMS = (4, 8)
SERIES_ORDER = 3
SERIES_LAM = 0.01
SERIES_STOP, SERIES_POINTS = 2.0, 41
IMAGE_TIMES = (0.5, 1.0, 2.0)
STAR_TIMES = (2.0, 1.0, 0.5)
PARTITION_TIME = 1.0
DECOMPOSE_TIMES = (1.0, 0.5, 0.25)


@dataclass
class SeriesInputs:
    model: object
    obs: np.ndarray
    grid: object
    trunc: object
    tasks: tuple = (None,)
    refs: dict = field(default_factory=dict)


def build_series(seed: int, workdir: str) -> SeriesInputs:
    rng = np.random.default_rng([seed, 1])
    m, obs = random_model(rng, *SERIES_DIMS, SERIES_LAM)
    grid = hb.TimeGrid.linspace(SERIES_STOP, SERIES_POINTS)
    return SeriesInputs(m, obs, grid, hb.SeriesTruncation(SERIES_ORDER, SERIES_LAM))


def solve_series(inp: SeriesInputs, task) -> dict:
    m, obs, grid, trunc = inp.model, inp.obs, inp.grid, inp.trunc
    rho_b = m.rho_b
    ks = hb.compute_kernels(m, trunc.order, grid)
    traj = hb.one_point_operator(obs, trunc, ks, rho_b, grid, "obs")
    images = [hb.image_from_one_point(traj, ks, rho_b, t) for t in IMAGE_TIMES]
    star = hb.star_product([(traj, t) for t in STAR_TIMES], ks, rho_b)
    parts = hb.expand_image_by_partitions(traj, trunc.order, ks, rho_b, PARTITION_TIME)
    dec = hb.decompose_3pt(m, obs, obs, obs, *DECOMPOSE_TIMES, trunc, ks=ks)
    o_op = hb.system_operator(obs, SERIES_DIMS)
    exact = hb.evolve_images_exact(m, o_op, grid)
    return {
        "one_point": traj.values,
        "images": np.stack([f.blocks for f in images]),
        "star": star.mat,
        "partitions": parts.blocks,
        "decompose_total": dec.total,
        "exact_images": np.stack([f.blocks for f in exact]),
    }


def oracle_series(inp: SeriesInputs) -> dict:
    """Exact references for every output of `solve_series`."""
    m = inp.model
    o_op = hb.system_operator(inp.obs, SERIES_DIMS)
    evolved = {float(t): hb.heisenberg_evolve_exact(m, o_op, float(t)) for t in inp.grid.points}
    return {
        "one_point": np.stack([hb.weighted_bath_trace(x, m.rho_b).mat for x in evolved.values()]),
        "images": np.stack([hb.to_image_family(evolved[t]).blocks for t in IMAGE_TIMES]),
        "star": hb.npoint_reduced_exact(m, [(o_op, t) for t in STAR_TIMES]).mat,
        "decompose_total": hb.npoint_reduced_exact(m, [(o_op, t) for t in DECOMPOSE_TIMES]).mat,
        "exact_images": np.stack([hb.to_image_family(x).blocks for x in evolved.values()]),
    }


def check_series(inp: SeriesInputs, task, out: dict) -> list[tuple[str, str]]:
    if not inp.refs:
        inp.refs = oracle_series(inp)
    ref = inp.refs
    m, order = inp.model, inp.trunc.order
    tol1 = truncation_tolerance(m, order, SERIES_STOP, 1)
    tol3 = truncation_tolerance(m, order, max(STAR_TIMES), 3)
    partition_gap = _max_err(out["partitions"], out["images"][IMAGE_TIMES.index(PARTITION_TIME)])
    checks = {
        "one_point_vs_oracle": (_max_err(out["one_point"], ref["one_point"]), tol1),
        "images_vs_oracle": (_max_err(out["images"], ref["images"]), tol1),
        "star3_vs_oracle": (_max_err(out["star"], ref["star"]), tol3),
        "decompose_3pt_vs_oracle": (_max_err(out["decompose_total"], ref["decompose_total"]), tol3),
        "partitions_vs_series_image": (partition_gap, 1e-12),
        "exact_images_vs_oracle": (_max_err(out["exact_images"], ref["exact_images"]), 1e-9),
    }
    failed = [f"{k}: {err:.3e} > {tol:.3e}" for k, (err, tol) in checks.items() if not err <= tol]
    if not _all_finite(*out.values()):
        failed.append("non-finite output")
    return [("wrong", f) for f in failed]


# -- validate_small -----------------------------------------------------------

VALIDATE_DIMS = ((2, 2), (2, 3), (3, 2))
VALIDATE_CONFIGS = 24  # a multiple of 12: every dims pair meets both orders
ORDER3_EVERY = 4  # every fourth config asks for order 3


@dataclass
class ValidateInputs:
    tasks: tuple  # (config path, output path, order)


def build_validate(seed: int, workdir: str) -> ValidateInputs:
    import yaml

    rng = np.random.default_rng([seed, 2])
    tasks = []
    for i in range(VALIDATE_CONFIGS):
        d_s, d_b = VALIDATE_DIMS[i % len(VALIDATE_DIMS)]
        order = 3 if i % ORDER3_EVERY == ORDER3_EVERY - 1 else 2
        cfg = {
            "model": {"preset": "two_qubit"},
            "run": "validate",
            "truncation": {"order": order, "lambda": 0.1},
            "grid": {"stop": 1.5, "num": 5},
            "validate": {"seed": int(rng.integers(2**31)), "d_s": d_s, "d_b": d_b},
            "output": {"path": "unused.csv", "format": "csv"},
        }
        path = os.path.join(workdir, f"validate_{i:02d}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=True)
        tasks.append((path, os.path.join(workdir, f"validate_{i:02d}.csv"), order))
    return ValidateInputs(tuple(tasks))


def solve_validate(inp: ValidateInputs, task) -> dict:
    """One in-process CLI run; an escaping exception is exit 1, as from the shell."""
    from heisenbath import cli

    cfg, output, _ = task
    if os.path.exists(output):
        os.unlink(output)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(["run", cfg, "--output", output])
        except Exception:
            code = 1
            traceback.print_exc()
    return {
        "exit_code": code,
        "stderr": stderr.getvalue().strip(),
        "counts": {f"cli.exit_code.{code}": 1},
    }


def check_validate(inp: ValidateInputs, task, out: dict) -> list[tuple[str, str]]:
    """Exit 0 with a finite, all-pass table; exit 4 means the table holds
    oracle misses, any other exit that the run failed."""
    _, output, order = task
    code = out["exit_code"]
    if code not in (0, 4):
        return [("error", f"order {order}: exit {code}: {out['stderr'][-200:]}")]
    with open(output, newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = [f"{r['check']} {r['value']} vs {r['threshold']}" for r in rows if r["status"] != "pass"]
    if not rows:
        failed.append("empty validation table")
    if not all(math.isfinite(float(r["value"])) for r in rows):
        failed.append("non-finite value in validation table")
    if code == 4 and not failed:
        failed.append("exit 4 with an all-pass table")
    return [("wrong", f"order {order}: {f}") for f in failed]


# -- markov_lindblad ----------------------------------------------------------

# Part 1 mirrors configs/dephasing_lindblad.yaml (CLI j_tolerance default 0.1).
DEPHASING = {
    "stop": 20.0,
    "points": 41,
    "horizon": 6.0,
    "j_horizon": 5.0,
    "decay_threshold": 0.025,
    "j_tolerance": 0.1,
    "eta": 0.0,
}
# Part 2: a random (2, 3) model; eta = 0.5 regulates its non-decaying correlator.
RANDOM_MARKOV = {
    "stop": 5.0,
    "points": 41,
    "horizon": 5.0,
    "j_horizon": 5.0,
    "decay_threshold": 0.025,
    "j_tolerance": 0.1,
    "eta": 0.5,
}
RANDOM_MARKOV_DIMS = (2, 3)
RANDOM_MARKOV_LAM = 0.02
RANDOM_MARKOV_H0 = 0.5
RANDOM_MARKOV_TILT = math.pi / 3


@dataclass
class MarkovPart:
    name: str
    model: object
    observables: tuple
    grid: object
    params: dict


@dataclass
class MarkovInputs:
    parts: tuple
    tasks: tuple = (None,)


def build_markov(seed: int, workdir: str) -> MarkovInputs:
    rng = np.random.default_rng([seed, 3])
    preset = hb.dephasing_bath(lam=0.05)
    dephasing = MarkovPart(
        "dephasing",
        preset.model,
        tuple(preset.observables[k] for k in ("sx", "sy", "sz")),
        hb.TimeGrid.linspace(DEPHASING["stop"], DEPHASING["points"]),
        DEPHASING,
    )
    m, obs = random_model(rng, *RANDOM_MARKOV_DIMS, RANDOM_MARKOV_LAM, RANDOM_MARKOV_H0, RANDOM_MARKOV_TILT)
    random_part = MarkovPart(
        "random",
        m,
        (obs,),
        hb.TimeGrid.linspace(RANDOM_MARKOV["stop"], RANDOM_MARKOV["points"]),
        RANDOM_MARKOV,
    )
    return MarkovInputs((dephasing, random_part))


def solve_markov(inp: MarkovInputs, task) -> dict:
    out = {}
    for part in inp.parts:
        m, p = part.model, part.params
        dec = hb.decompose_interaction(m.hi)
        report = hb.check_markov_assumptions(m, dec, p["horizon"], p["decay_threshold"])
        bd = markov.bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
        sc = hb.spectral_coefficients(
            m, dec, bd.frequencies, horizon=p["j_horizon"], tol=p["j_tolerance"], eta=p["eta"]
        )
        trajs = [hb.evolve_lindblad(o, bd, sc, m.h0.mat, m.constants, part.grid) for o in part.observables]
        out[part.name] = {"report": report, "bohr": bd, "j": sc, "trajectories": trajs}
    out["counts"] = {"markov.j_entries": sum(len(out[p.name]["j"].j) for p in inp.parts)}
    return out


def lindblad_generator(m, bd, sc) -> np.ndarray:
    """Matrix of the (linear) Lindblad RHS on row-major vectorised operators,
    assembled column by column from the d_S^2 matrix units."""
    d = m.dim_system
    cols = []
    for k in range(d * d):
        unit = np.zeros(d * d, dtype=complex)
        unit[k] = 1.0
        cols.append(hb.lindblad_rhs(unit.reshape(d, d), bd, sc, m.h0.mat, m.constants).ravel())
    return np.stack(cols, axis=1)


def check_markov(inp: MarkovInputs, task, out: dict) -> list[tuple[str, str]]:
    from scipy.linalg import expm

    failed = []
    for part in inp.parts:
        res = out[part.name]
        m = part.model
        gen = lindblad_generator(m, res["bohr"], res["j"])
        identity_rhs = hb.lindblad_rhs(np.eye(m.dim_system), res["bohr"], res["j"], m.h0.mat, m.constants)
        if not np.max(np.abs(identity_rhs)) <= 1e-12:
            failed.append(f"{part.name}: lindblad_rhs(1) = {np.max(np.abs(identity_rhs)):.3e}")
        for o0, traj in zip(part.observables, res["trajectories"]):
            ref = [expm(t * gen) @ np.asarray(o0, dtype=complex).ravel() for t in part.grid.points]
            err = _max_err(traj.reshape(len(part.grid), -1), np.stack(ref))
            if not err <= 1e-8:
                failed.append(f"{part.name}: Lindblad vs expm {err:.3e} > 1e-8")
            if not _all_finite(traj):
                failed.append(f"{part.name}: non-finite trajectory")
    passes = out["dephasing"]["report"].passes
    failed += [f"dephasing MarkovReport fails {k}" for k, ok in sorted(passes.items()) if not ok]
    return [("wrong", f) for f in failed]


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    solve: object
    check: object
    oracle: object = None  # exact references for one solve's outputs, timed for the oracle ratio


WORKLOADS = {
    w.name: w
    for w in (
        Workload("series_4x8", build_series, solve_series, check_series, oracle_series),
        Workload("validate_small", build_validate, solve_validate, check_validate),
        Workload("markov_lindblad", build_markov, solve_markov, check_markov),
    )
}
