"""Command-line entry point: experiment configuration, execution, emission.

``heisenbath run <config>`` executes one experiment described by a YAML
file; ``heisenbath preset list`` shows the shipped models;
``heisenbath validate <config> [--seed N]`` runs the perturbative-vs-oracle
defect suite.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 validation defect exceeded.

Operator trajectories are emitted as long-format rows
``(time, observable, row, col, re, im)``; floats are written with 17
significant digits so identical runs produce byte-identical files.  CSV
fields are quoted where they need it: a label holding a comma, such as the
``J[i,j](omega=...)`` checks of a Markov report, is one quoted field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np
import yaml

from .diagnostics import validation_suite
from .dyson import compute_kernels
from .errors import (
    DimensionError,
    HeisenbathError,
    InvalidDensityMatrix,
    NonFiniteResult,
    NonHermitianInput,
    ParseError,
    ValidationError,
)
from .images import contract_with_bath, evolve_images_exact
from .markov import (
    FIRST_MOMENT_THRESHOLD,
    STATIONARITY_THRESHOLD,
    bohr_decompose_all,
    check_markov_assumptions,
    decompose_interaction,
    evolve_lindblad,
    spectral_coefficients,
)
from .model import ModelSpec, make_model
from .presets import PRESETS
from .spaces import TimeGrid, herm_defect, system_operator
from .superop import SeriesTruncation, one_point_operator, star_product, trajectory_value

RUN_MODES = ("one_point", "n_point", "image_exact", "lindblad", "markov_report", "validate")
FLOAT_FMT = "%.17g"
KERNEL_CAP = 6  # highest truncation order a run may ask for


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    model: ModelSpec
    run: str
    observables: dict  # name -> (matrix, times or None)
    truncation: SeriesTruncation
    grid: TimeGrid
    output_path: str
    output_format: str
    npoint_factors: list = field(default_factory=list)
    markov: dict = field(default_factory=dict)
    validate: dict = field(default_factory=dict)


def _fail(path: str, reason: str):
    raise ValidationError(f"{path}: {reason}")


def parse_number(value, path: str, kind=float):
    """A finite config scalar as ``kind`` (float or int), else a ParseError naming ``path``."""
    if not isinstance(value, bool):
        if kind is int and isinstance(value, int):
            return value
        try:
            num = float(value)
        except (TypeError, ValueError, OverflowError):
            num = None
        if num is not None and math.isfinite(num) and (kind is float or num.is_integer()):
            return kind(num)
    want = "an integer" if kind is int else "a finite number"
    raise ParseError(f"{path}: expected {want}, got {value!r}")


def _mapping(value, path: str) -> dict:
    """A config section that must be a mapping; absent or null reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected a mapping, got {value!r}")
    return value


def _sequence(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{path}: expected a list, got {value!r}")
    return list(value)


def _parse_entry(value, path: str) -> complex:
    parts = [value, 0] if isinstance(value, (int, float)) else value
    if isinstance(parts, (list, tuple)) and len(parts) == 2 and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v in parts
    ):
        return complex(parts[0], parts[1])
    _fail(path, f"expected a finite number or [re, im] pair, got {value!r}")


def parse_matrix(rows, path: str) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not rows:
        _fail(path, "expected a non-empty nested list (row-major matrix)")
    mat = np.array(
        [[_parse_entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(r)] for i, r in enumerate(rows)],
        dtype=complex,
    )
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        _fail(path, f"matrix must be square, got shape {mat.shape}")
    return mat


def _build_model(section, path: str):
    if not isinstance(section, dict):
        _fail(path, "expected a mapping")
    if "preset" in section:
        name = section["preset"]
        if name not in PRESETS:
            _fail(f"{path}.preset", f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        params = {k: v for k, v in section.items() if k != "preset"}
        try:
            preset = PRESETS[name](**params)
        except TypeError as exc:
            _fail(f"{path}.preset", f"bad parameters for {name!r}: {exc}")
        except ValueError as exc:
            _fail(f"{path}.preset", str(exc))
        return preset.model, dict(preset.observables)
    required = ("h0", "hb", "hi", "rho0", "rho_b")
    missing = [k for k in required if k not in section]
    if missing:
        _fail(path, f"missing fields {missing} (or use 'preset')")
    mats = {k: parse_matrix(section[k], f"{path}.{k}") for k in required}
    for k in ("h0", "hb", "hi"):
        if herm_defect(mats[k]) > 1e-10:
            _fail(f"{path}.{k}", "not hermitian")
    try:
        model = make_model(
            mats["h0"],
            mats["hb"],
            mats["hi"],
            mats["rho0"],
            mats["rho_b"],
            hbar=parse_number(section.get("hbar", 1.0), f"{path}.hbar"),
        )
    except (DimensionError, InvalidDensityMatrix, NonHermitianInput, ValueError) as exc:
        _fail(path, str(exc))
    return model, {}


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment file, naming the offending field on failure."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"could not parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a mapping")

    run = raw.get("run")
    if run not in RUN_MODES:
        _fail("run", f"must be one of {RUN_MODES}, got {run!r}")

    model, preset_obs = _build_model(raw.get("model", {}), "model")

    tr_raw = _mapping(raw.get("truncation"), "truncation")
    order = parse_number(tr_raw.get("order", 2), "truncation.order", int)
    lam = parse_number(tr_raw.get("lambda", model.constants.lam or 0.1), "truncation.lambda")
    truncation = SeriesTruncation(order, lam)

    grid_raw = _mapping(raw.get("grid"), "grid")
    if "points" in grid_raw:
        try:
            points = [
                parse_number(t, f"grid.points[{k}]")
                for k, t in enumerate(_sequence(grid_raw["points"], "grid.points"))
            ]
            grid = TimeGrid(np.asarray(points, dtype=float))
        except ValueError as exc:
            _fail("grid.points", str(exc))
    else:
        stop = parse_number(grid_raw.get("stop", 1.0), "grid.stop")
        num = parse_number(grid_raw.get("num", 11), "grid.num", int)
        if stop <= 0 or num < 2:
            _fail("grid", f"need stop > 0 and num >= 2, got stop={stop}, num={num}")
        try:
            grid = TimeGrid.linspace(stop, num)
        except ValueError as exc:  # stop too small to separate num points
            _fail("grid", f"stop={stop}, num={num}: {exc}")

    observables = {}
    obs_raw = _mapping(raw.get("observables"), "observables")
    for name, spec in obs_raw.items():
        spec = _mapping(spec, f"observables.{name}")
        if "matrix" in spec:
            mat = parse_matrix(spec["matrix"], f"observables.{name}.matrix")
        elif name in preset_obs:
            mat = preset_obs[name]
        else:
            _fail(f"observables.{name}", "no matrix given and not provided by the preset")
        if mat.shape != (model.dim_system, model.dim_system):
            _fail(f"observables.{name}", f"matrix shape {mat.shape} does not match d_S={model.dim_system}")
        times = spec.get("times")
        if times is not None:
            times = [
                parse_number(t, f"observables.{name}.times[{k}]")
                for k, t in enumerate(_sequence(times, f"observables.{name}.times"))
            ]
            beyond = [t for t in times if t < 0 or t > grid.stop]
            if beyond:
                _fail(f"observables.{name}.times", f"outside the grid [0, {grid.stop}]: {beyond}")
        observables[name] = (mat, times)
    if not observables and run in ("one_point", "n_point", "image_exact", "lindblad"):
        _fail("observables", "at least one observable is required for this run mode")

    out_raw = _mapping(raw.get("output"), "output")
    output_path = str(out_raw.get("path", "results.csv"))
    output_format = str(out_raw.get("format", "csv"))
    if output_format not in ("csv", "json"):
        _fail("output.format", f"must be csv or json, got {output_format!r}")

    npoint_factors = []
    if run == "n_point":
        factors = _mapping(raw.get("npoint"), "npoint").get("factors")
        if not factors:
            _fail("npoint.factors", "n_point runs need a list of {observable, time} entries")
        for k, f in enumerate(_sequence(factors, "npoint.factors")):
            f = _mapping(f, f"npoint.factors[{k}]")
            name = f.get("observable")
            if name not in observables:
                _fail(f"npoint.factors[{k}].observable", f"unknown observable {name!r}")
            t = parse_number(f.get("time", 0.0), f"npoint.factors[{k}].time")
            if t < 0:
                _fail(f"npoint.factors[{k}].time", f"negative time {t}; the grid starts at 0")
            npoint_factors.append((name, t))

    cfg = ExperimentConfig(
        model=model,
        run=run,
        observables=observables,
        truncation=truncation,
        grid=grid,
        output_path=output_path,
        output_format=output_format,
        npoint_factors=npoint_factors,
        markov=_mapping(raw.get("markov"), "markov"),
        validate=_mapping(raw.get("validate"), "validate"),
    )
    _check_kernel_cap(cfg)
    return cfg


def _check_kernel_cap(cfg: ExperimentConfig) -> None:
    if cfg.truncation.order > KERNEL_CAP:
        _fail("truncation.order", f"{cfg.truncation.order} exceeds kernel cap {KERNEL_CAP}")


# -- emission ------------------------------------------------------------------


def _format_value(v):
    if isinstance(v, float):
        return FLOAT_FMT % v
    return str(v)


def write_rows(rows: list[dict], path: str, fmt: str) -> None:
    """Write rows atomically (temp file + rename), deterministically formatted."""
    if fmt == "csv":
        buf = io.StringIO()
        if rows:
            keys = list(rows[0].keys())
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(keys)
            writer.writerows([_format_value(r[k]) for k in keys] for r in rows)
        payload = buf.getvalue() or "\n"
    else:
        canon = [
            {k: (_format_value(v) if isinstance(v, float) else v) for k, v in r.items()}
            for r in rows
        ]
        payload = json.dumps(canon, sort_keys=True, indent=1) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _matrix_rows(rows: list, time: float, label: str, mat: np.ndarray) -> None:
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            rows.append(
                {
                    "time": float(time),
                    "observable": label,
                    "row": i,
                    "col": j,
                    "re": float(mat[i, j].real),
                    "im": float(mat[i, j].imag),
                }
            )


# -- run modes -----------------------------------------------------------------


def _run_one_point(cfg: ExperimentConfig) -> list[dict]:
    ks = compute_kernels(cfg.model, cfg.truncation.order, cfg.grid)
    rows: list[dict] = []
    for name, (mat, times) in sorted(cfg.observables.items()):
        traj = one_point_operator(mat, cfg.truncation, ks, cfg.model.rho_b, cfg.grid, name)
        sample = times if times is not None else list(cfg.grid.points)
        for t in sample:
            _matrix_rows(rows, t, name, trajectory_value(traj, ks, cfg.model.rho_b, float(t)))
    return rows


def _run_n_point(cfg: ExperimentConfig) -> list[dict]:
    times = [t for _, t in cfg.npoint_factors]
    stop = max(max(times), cfg.grid.stop)
    grid = cfg.grid if cfg.grid.stop >= max(times) else TimeGrid.linspace(stop, len(cfg.grid))
    ks = compute_kernels(cfg.model, cfg.truncation.order, grid)
    trajs = {
        name: one_point_operator(mat, cfg.truncation, ks, cfg.model.rho_b, grid, name)
        for name, (mat, _) in cfg.observables.items()
    }
    factors = [(trajs[name], t) for name, t in cfg.npoint_factors]
    star = star_product(factors, ks, cfg.model.rho_b)
    label = "star:" + "*".join(f"{name}@{FLOAT_FMT % t}" for name, t in cfg.npoint_factors)
    rows: list[dict] = []
    _matrix_rows(rows, max(times), label, star.mat)
    return rows


def _run_image_exact(cfg: ExperimentConfig) -> list[dict]:
    rows: list[dict] = []
    for name, (mat, _) in sorted(cfg.observables.items()):
        o_op = system_operator(mat, (cfg.model.dim_system, cfg.model.dim_bath))
        traj = evolve_images_exact(cfg.model, o_op, cfg.grid)
        for fam in traj:
            for a in range(fam.dim_bath):
                for b in range(fam.dim_bath):
                    _matrix_rows(rows, fam.time, f"{name}[{a}][{b}]", fam.block(a, b))
            reduced = contract_with_bath(fam, cfg.model.rho_b)
            _matrix_rows(rows, fam.time, f"{name}_S", reduced.mat)
    return rows


def _markov_pipeline(cfg: ExperimentConfig):
    m = cfg.model
    dec = decompose_interaction(m.hi)

    def param(key, default):
        return parse_number(cfg.markov.get(key, default), f"markov.{key}")

    horizon = param("horizon", max(cfg.grid.stop, 1.0))
    threshold = param("decay_threshold", 0.025)
    report = check_markov_assumptions(m, dec, horizon, threshold)
    bd = bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
    sc = spectral_coefficients(
        m,
        dec,
        bd.frequencies,
        horizon=param("j_horizon", horizon),
        tol=param("j_tolerance", 0.1),
        eta=param("eta", 0.0),
    )
    return dec, report, bd, sc


def _run_lindblad(cfg: ExperimentConfig) -> list[dict]:
    m = cfg.model
    _, _, bd, sc = _markov_pipeline(cfg)
    names = sorted(cfg.observables)
    stack = np.stack([cfg.observables[name][0] for name in names])
    trajectories = evolve_lindblad(stack, bd, sc, m.h0.mat, m.constants, cfg.grid)
    rows: list[dict] = []
    for name, values in zip(names, trajectories):
        for t, val in zip(cfg.grid.points, values):
            _matrix_rows(rows, t, name, val)
    return rows


def _run_markov_report(cfg: ExperimentConfig) -> list[dict]:
    _, report, bd, sc = _markov_pipeline(cfg)
    rows = [
        {
            "check": "first_moment",
            "metric": "max_abs",
            "value": report.first_moment_max,
            "threshold": FIRST_MOMENT_THRESHOLD,
            "status": "pass" if report.passes["first_moment"] else "fail",
        },
        {
            "check": "stationarity",
            "metric": "max_abs_defect",
            "value": report.stationarity_defect,
            "threshold": STATIONARITY_THRESHOLD,
            "status": "pass" if report.passes["stationarity"] else "fail",
        },
        {
            "check": "decay",
            "metric": "crossing_time",
            # no crossing within the horizon: the crossing time is beyond it
            "value": report.decay_time if report.decay_time is not None else report.horizon,
            "threshold": report.decay_threshold,
            "status": "pass" if report.passes["decay"] else "fail",
        },
    ]
    for i, j, k in np.ndindex(sc.j.shape):
        val = complex(sc.j[i, j, k])
        rows.append(
            {
                "check": f"J[{i},{j}](omega={FLOAT_FMT % sc.frequencies[k]})",
                "metric": "re_im",
                "value": val.real,
                "threshold": val.imag,
                "status": "converged" if sc.defects[i, j, k] <= sc.tolerance else "unconverged",
            }
        )
    return rows


def _run_validate(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    params = []
    for key, default, low in (("seed", 0, 0), ("d_s", 2, 1), ("d_b", 3, 1)):
        value = parse_number(cfg.validate.get(key, default), f"validate.{key}", int)
        if value < low:
            _fail(f"validate.{key}", f"must be >= {low}, got {value}")
        params.append(value)
    rows = validation_suite(*params, order=cfg.truncation.order)
    return rows, [r for r in rows if r["status"] != "pass"]


def _describe_failure(row: dict) -> str:
    """``cumulant2_order2 slope 3.62 < 3.8``: a failing row with its value and threshold."""
    if "slope" in row["metric"]:
        return f"{row['check']} slope {row['value']:.3g} < {row['threshold']:.3g}"
    return f"{row['check']} defect {row['value']:.3g} > {row['threshold']:.3g}"


def _check_finite(rows: list[dict]) -> None:
    """Raise `NonFiniteResult` on the first row holding a NaN or an infinity."""
    for row in rows:
        if not all(math.isfinite(v) for v in row.values() if isinstance(v, float)):
            raise NonFiniteResult(f"non-finite value in result row {row}; no output written")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes the artifact and returns the exit status.

    Every row is checked for finite values before anything is written, so a
    NaN or overflow is reported once, as exit 3, not as numpy warnings first.
    A validation table with failing rows is written and names them on
    stderr, as exit 4.
    """
    failing: list[dict] = []
    if cfg.run == "one_point":
        rows = _run_one_point(cfg)
    elif cfg.run == "n_point":
        rows = _run_n_point(cfg)
    elif cfg.run == "image_exact":
        rows = _run_image_exact(cfg)
    elif cfg.run == "lindblad":
        rows = _run_lindblad(cfg)
    elif cfg.run == "markov_report":
        rows = _run_markov_report(cfg)
    elif cfg.run == "validate":
        rows, failing = _run_validate(cfg)
    else:  # pragma: no cover - guarded by load_config
        raise ValidationError(f"run: unsupported mode {cfg.run!r}")
    _check_finite(rows)
    write_rows(rows, cfg.output_path, cfg.output_format)
    if failing:
        detail = "; ".join(_describe_failure(r) for r in failing)
        print(f"validation defects exceeded thresholds: {detail}", file=sys.stderr)
        return 4
    return 0


# -- argparse ------------------------------------------------------------------


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "order", None) is not None:
        cfg.truncation = SeriesTruncation(args.order, cfg.truncation.lam)
    if getattr(args, "lam", None) is not None:
        cfg.truncation = SeriesTruncation(cfg.truncation.order, parse_number(args.lam, "--lambda"))
    if getattr(args, "output", None):
        cfg.output_path = args.output
    if getattr(args, "format", None):
        cfg.output_format = args.format
    _check_kernel_cap(cfg)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heisenbath",
        description="Heisenberg-picture open-system experiments with exact-oracle validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--order", type=int, default=None, help="override truncation order")
    p_run.add_argument("--lambda", dest="lam", type=float, default=None, help="override coupling")
    p_run.add_argument("--output", default=None, help="override output path")
    p_run.add_argument("--format", choices=("csv", "json"), default=None)

    p_preset = sub.add_parser("preset", help="inspect shipped presets")
    p_preset.add_argument("action", choices=("list",))

    p_val = sub.add_parser("validate", help="run the perturbative-vs-oracle defect suite")
    p_val.add_argument("config")
    p_val.add_argument("--seed", type=int, default=None, help="override random seed")
    p_val.add_argument("--output", default=None)
    p_val.add_argument("--format", choices=("csv", "json"), default=None)

    args = parser.parse_args(argv)

    if args.command == "preset":
        for name in sorted(PRESETS):
            print(name)
        return 0

    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command == "validate":
            cfg.run = "validate"
            if args.seed is not None:
                cfg.validate["seed"] = args.seed
        status = run_experiment(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HeisenbathError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if status == 0:
        print(f"wrote {cfg.output_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
