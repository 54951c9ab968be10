"""Command-line entry point: experiment configuration, execution, emission.

``heisenbath run <config>`` executes one experiment described by a YAML
file; ``heisenbath preset list`` shows the shipped models;
``heisenbath validate <config> [--seed N]`` runs the perturbative-vs-oracle
defect suite.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 validation defect exceeded.

Every section a config holds is parsed and checked whatever the run mode;
a mode only states what it requires: ``n_point`` needs ``npoint.factors``,
``one_point``, ``n_point``, ``image_exact`` and ``lindblad`` need an
observable, and ``validate`` needs ``1 <= truncation.order <= 4``.  The scalar
fields of ``grid``, ``markov`` and ``validate`` are each one
``(name, default, kind, bound)`` row of a module table (`GRID_SCALARS`,
`MARKOV_SCALARS`, `VALIDATE_SCALARS`) read by `_scalars`, and `FIELDS`
reads those sections' field names off the same rows.

A run's result is one table: a dict of equal-length numpy columns whose
key order is the header.  Operator trajectories are the long-format table
``(time, observable, row, col, re, im)``, built from the stacked matrices
by `_operator_table`; the check modes have their own columns.  One
`np.isfinite` over the float columns guards the write, and CSV rows are
formatted as they are written, a chunk at a time, so memory grows with the
arrays, not with per-row objects.  Floats are written with 17 significant
digits so identical runs produce byte-identical files.  CSV fields are
quoted where they need it: a label holding a comma, such as the
``J[i,j](omega=...)`` checks of a Markov report, is one quoted field.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import _blockops
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
from .markov import (
    FIRST_MOMENT_THRESHOLD,
    J_TOLERANCE,
    STATIONARITY_THRESHOLD,
    bohr_decompose_all,
    check_markov_assumptions,
    decompose_interaction,
    evolve_lindblad,
    spectral_coefficients,
)
from .model import ModelSpec, make_model
from .oracle import evolve_exact
from .presets import PRESETS
from .spaces import HERM_TOL, TimeGrid, check_density, herm_defect, system_matrix
from .superop import SeriesTruncation, one_point_values, star_of_observables

FLOAT_FMT = "%.17g"
CHUNK = 4096  # rows a written table formats at a time
KERNEL_CAP = 6  # highest truncation order a run may ask for
# highest order a validate run may ask for: above it the four couplings of the
# sweep leave too few errors between the asymptotic range and the rounding floor
VALIDATE_ORDER_CAP = 4
VALIDATE_DIM_CAP = 512  # largest full-space dimension d_s * d_b a validate run may ask for
INLINE_COUPLING = 0.1  # coupling of an inline model whose config names none
# libyaml's parser where PyYAML was built with it, about 6x faster on a config
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
# the scalar fields of a section, each one (name, default, kind, bound) row read by `_scalars`
GRID_SCALARS = (("stop", 1.0, float, (">", 0)), ("num", 11, int, (">=", 2)))  # unless grid.points is given
MARKOV_SCALARS = (
    ("horizon", None, float, (">", 0)),  # default max(grid.stop, 1), given at parse time
    ("decay_threshold", 0.025, float, (">", 0)),
    ("j_horizon", None, float, (">", 0)),  # default the horizon, given at parse time
    ("j_tolerance", J_TOLERANCE, float, (">=", 0)),
    ("eta", 0.0, float, None),  # over a finite horizon any finite regulator defines J
)
# an error that cannot scale with the coupling has no slope to fit: a
# one-dimensional system makes every series exact, and at order 0 the
# series inversion is the identity, so their errors sit at rounding; a
# one-level bath makes both two-point cumulants vanish identically, so the
# cumulant error is exactly 0 at every coupling
VALIDATE_SCALARS = (("seed", 0, int, (">=", 0)), ("d_s", 2, int, (">=", 2)), ("d_b", 3, int, (">=", 2)))
# the fields each config section allows; any other key is a config error naming it
FIELDS = {
    "": ("model", "run", "truncation", "grid", "observables", "output", "npoint", "markov", "validate"),
    "model": ("h0", "hb", "hi", "rho0", "rho_b", "hbar"),  # an inline model; a preset takes its own parameters
    "truncation": ("order", "lambda"),
    "grid": ("points", *(row[0] for row in GRID_SCALARS)),
    "observables.<name>": ("matrix", "times"),
    "output": ("path", "format"),
    "npoint": ("factors",),
    "npoint.factors[k]": ("observable", "time"),
    "markov": tuple(row[0] for row in MARKOV_SCALARS),
    "validate": tuple(row[0] for row in VALIDATE_SCALARS),
}


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
    npoint_factors: list  # (observable name, time) per factor
    markov: dict  # horizon, decay_threshold, j_horizon, j_tolerance and eta
    validate: dict  # seed, d_s and d_b


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
    raise ParseError(f"{path}: expected {want}, got {reprlib.repr(value)}")


def _bounded(value, path: str, kind, bound):
    """`parse_number`, then ``bound``: ``(">", low)`` or ``(">=", low)``; a value
    outside it is a ValidationError naming ``path``."""
    num = parse_number(value, path, kind)
    if bound and not (num > bound[1] if bound[0] == ">" else num >= bound[1]):
        _fail(path, f"must be {bound[0]} {bound[1]}, got {num}")
    return num


def _scalars(section: dict, path: str, specs, **defaults) -> dict:
    """Each ``(name, default, kind, bound)`` field of a section, by `_bounded`;
    a keyword in ``defaults`` replaces a row's default."""
    return {
        name: _bounded(section.get(name, defaults.get(name, default)), f"{path}.{name}", kind, bound)
        for name, default, kind, bound in specs
    }


def _numbers(value, path: str, bound=None) -> list:
    """A config list of numbers, each by `_bounded` under ``path[k]``."""
    return [_bounded(v, f"{path}[{k}]", float, bound) for k, v in enumerate(_sequence(value, path))]


def _choice(value, path: str, choices):
    """``value`` if it is a name (a string) among ``choices`` (None: any name), else a
    ValidationError naming ``path``."""
    if isinstance(value, str) and (choices is None or value in choices):
        return value
    want = "a name (a string)" if choices is None else f"one of {list(choices)}"
    _fail(path, f"must be {want}, got {reprlib.repr(value)}")


def _mapping(value, path: str, fields: tuple[str, ...] | None) -> dict:
    """A config section that must be a mapping whose keys are `_choice` of the
    given ``fields`` (None: any names); absent or null reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected a mapping, got {reprlib.repr(value)}")
    for key in value:
        _choice(key, f"{path}.{key}" if path else f"{key}", fields)
    return value


def _sequence(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{path}: expected a list, got {reprlib.repr(value)}")
    return list(value)


def _parse_entry(value, path: str) -> complex:
    """A matrix entry: a number, or an ``[re, im]`` pair, each part by `parse_number`."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0)
    return complex(*(parse_number(v, path) for v in parts))


def parse_matrix(rows, path: str) -> np.ndarray:
    """A square matrix: a non-empty list of rows, each a `_sequence` of as many entries."""
    rows = _sequence(rows, path)
    if not rows:
        _fail(path, "expected a non-empty nested list (row-major matrix)")
    for i, row in enumerate(rows):
        if len(_sequence(row, f"{path}[{i}]")) != len(rows):
            _fail(f"{path}[{i}]", f"expected {len(rows)} entries (a square matrix), got {len(row)}")
    return np.array([[_parse_entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(r)] for i, r in enumerate(rows)])


def _build_model(section, path: str):
    if isinstance(section, dict) and "preset" in section:
        name = _choice(section["preset"], f"{path}.preset", PRESETS)
        params = {k: parse_number(v, f"{path}.{k}") for k, v in section.items() if k != "preset"}
        try:
            preset = PRESETS[name](**params)
        except TypeError as exc:
            _fail(f"{path}.preset", f"bad parameters for {reprlib.repr(name)}: {exc}")
        except ValueError as exc:
            _fail(f"{path}.preset", str(exc))
        return preset.model, dict(preset.observables)
    section = _mapping(section, path, FIELDS["model"])
    required = ("h0", "hb", "hi", "rho0", "rho_b")
    missing = [k for k in required if k not in section]
    if missing:
        _fail(path, f"missing fields {missing} (or use 'preset')")
    mats = {k: parse_matrix(section[k], f"{path}.{k}") for k in required}
    for k in ("h0", "hb", "hi"):
        if not herm_defect(mats[k]) <= HERM_TOL:  # a NaN defect fails too
            _fail(f"{path}.{k}", "not hermitian")
    for k in ("rho0", "rho_b"):
        try:
            check_density(mats[k], f"{path}.{k}")
        except InvalidDensityMatrix as exc:
            raise ValidationError(str(exc)) from None
    try:
        model = make_model(
            mats["h0"],
            mats["hb"],
            mats["hi"],
            mats["rho0"],
            mats["rho_b"],
            hbar=parse_number(section.get("hbar", 1.0), f"{path}.hbar"),
            lam=INLINE_COUPLING,
        )
    except (DimensionError, InvalidDensityMatrix, NonHermitianInput, ValueError) as exc:
        _fail(path, str(exc))
    return model, {}


def load_config(path: str, flags: dict | None = None) -> ExperimentConfig:
    """Parse and validate an experiment file, naming the offending field on failure.

    ``flags`` maps a dotted field name to a command-line value that replaces
    it (``{"truncation.order": 3}``) before any field is checked.  The
    coupling is ``truncation.lambda``, else the model's own; the model and
    ``truncation.lam`` both carry it.
    """
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:  # missing, a directory, unreadable
        raise ParseError(f"could not read config file {path}: {exc.strerror}") from exc
    except (yaml.YAMLError, RecursionError) as exc:  # a deep nesting overflows the parser
        raise ParseError(f"could not parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    for key, value in (flags or {}).items():
        section, _, name = key.rpartition(".")
        if section:
            raw[section] = {**_mapping(raw.get(section), section, FIELDS[section]), name: value}
        else:
            raw[name] = value
    _mapping(raw, "", FIELDS[""])

    run = _choice(raw.get("run"), "run", RUN_MODES)

    model, preset_obs = _build_model(raw.get("model", {}), "model")

    tr_raw = _mapping(raw.get("truncation"), "truncation", FIELDS["truncation"])
    order = parse_number(tr_raw.get("order", 2), "truncation.order", int)
    if not 0 <= order <= KERNEL_CAP:
        _fail("truncation.order", f"must lie in [0, {KERNEL_CAP}] (the kernel cap), got {order}")
    lam = parse_number(tr_raw.get("lambda", model.constants.lam), "truncation.lambda")
    model = model.with_coupling(lam)
    truncation = SeriesTruncation(order, lam)

    grid_raw = _mapping(raw.get("grid"), "grid", FIELDS["grid"])
    if "points" in grid_raw:
        try:
            grid = TimeGrid(np.asarray(_numbers(grid_raw["points"], "grid.points"), dtype=float))
        except ValueError as exc:
            _fail("grid.points", str(exc))
    else:
        stop, num = _scalars(grid_raw, "grid", GRID_SCALARS).values()
        try:
            grid = TimeGrid.linspace(stop, num)
        except ValueError as exc:  # stop too small to separate num points
            _fail("grid", f"stop={stop}, num={num}: {exc}")

    observables = {}
    obs_raw = _mapping(raw.get("observables"), "observables", None)
    for name, spec in obs_raw.items():
        spec = _mapping(spec, f"observables.{name}", FIELDS["observables.<name>"])
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
            times = _numbers(times, f"observables.{name}.times", (">=", 0))
        observables[name] = (mat, times)
    if not observables and run in ("one_point", "n_point", "image_exact", "lindblad"):
        _fail("observables", "at least one observable is required for this run mode")

    out_raw = _mapping(raw.get("output"), "output", FIELDS["output"])
    output_path = out_raw.get("path", "results.csv")
    if not isinstance(output_path, str) or not output_path:
        _fail("output.path", f"must be a non-empty path, got {reprlib.repr(output_path)}")
    output_format = _choice(out_raw.get("format", "csv"), "output.format", ("csv", "json"))

    npoint_factors = []
    factors = _mapping(raw.get("npoint"), "npoint", FIELDS["npoint"]).get("factors")
    if not factors and run == "n_point":
        _fail("npoint.factors", "n_point runs need a list of {observable, time} entries")
    for k, f in enumerate([] if factors is None else _sequence(factors, "npoint.factors")):
        f = _mapping(f, f"npoint.factors[{k}]", FIELDS["npoint.factors[k]"])
        name = _choice(f.get("observable"), f"npoint.factors[{k}].observable", observables)
        time = _bounded(f.get("time", 0.0), f"npoint.factors[{k}].time", float, (">=", 0))
        npoint_factors.append((name, time))

    mk_raw = _mapping(raw.get("markov"), "markov", FIELDS["markov"])
    horizon = mk_raw.get("horizon", max(grid.stop, 1.0))
    markov = _scalars(mk_raw, "markov", MARKOV_SCALARS, horizon=horizon, j_horizon=horizon)

    va_raw = _mapping(raw.get("validate"), "validate", FIELDS["validate"])
    validate = _scalars(va_raw, "validate", VALIDATE_SCALARS)
    d_s, d_b = validate["d_s"], validate["d_b"]
    if d_s * d_b > VALIDATE_DIM_CAP:
        _fail("validate.d_s * validate.d_b", f"{d_s} * {d_b} exceeds the full-space cap {VALIDATE_DIM_CAP}")
    if run == "validate" and not 1 <= order <= VALIDATE_ORDER_CAP:
        _fail("truncation.order", f"a validate run needs 1 <= order <= {VALIDATE_ORDER_CAP}, got {order}")

    return ExperimentConfig(
        model=model,
        run=run,
        observables=observables,
        truncation=truncation,
        grid=grid,
        output_path=output_path,
        output_format=output_format,
        npoint_factors=npoint_factors,
        markov=markov,
        validate=validate,
    )


# -- emission ------------------------------------------------------------------


def _cells(table: dict, n: int):
    """The ``n`` rows of a table, each a tuple of cells with floats as `FLOAT_FMT`
    strings, formatted `CHUNK` rows at a time."""
    for start in range(0, n, CHUNK):
        columns = [c[start : start + CHUNK] for c in table.values()]
        yield from zip(*([FLOAT_FMT % v for v in c.tolist()] if c.dtype.kind == "f" else c.tolist() for c in columns))


def write_rows(table: dict, path: str, fmt: str) -> None:
    """Write a table atomically (temp file + rename), deterministically formatted.

    CSV rows are formatted as they are written, under a header of the
    table's keys; JSON is a list of one object per row.  A table with no
    rows is ``"\\n"`` (CSV) or ``"[]\\n"`` (JSON).  The file gets the mode a
    plain ``open`` gives a new file, ``0o666`` less the umask.
    """
    n = len(next(iter(table.values())))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            if fmt == "csv" and n:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(table)
                writer.writerows(_cells(table, n))
            else:
                if fmt == "json":
                    json.dump([dict(zip(table, cells)) for cells in _cells(table, n)], fh, sort_keys=True, indent=1)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _operator_table(labels, times, values: np.ndarray) -> dict:
    """The long-format table ``(time, observable, row, col, re, im)`` of the
    matrices ``values`` ``(n, d, d)``, the k-th labelled ``labels[k]`` at ``times[k]``."""
    n, d, _ = values.shape
    return {
        "time": np.repeat(np.asarray(times, dtype=float), d * d),
        "observable": np.repeat(np.asarray(labels, dtype=object), d * d),
        "row": np.tile(np.repeat(np.arange(d), d), n),
        "col": np.tile(np.arange(d), n * d),
        "re": values.real.ravel(),
        "im": values.imag.ravel(),
    }


# -- run modes -----------------------------------------------------------------


def _run_one_point(cfg: ExperimentConfig) -> dict:
    ks = compute_kernels(cfg.model, cfg.truncation.order, cfg.grid)
    order, lam = cfg.truncation.order, cfg.truncation.lam
    labels, samples, values = [], [], []
    for name, (mat, times) in sorted(cfg.observables.items()):
        sample = cfg.grid.points if times is None else np.array(times, dtype=float)
        values.append(one_point_values(system_matrix(mat), order, (lam,), ks, cfg.model.rho_b, ks.eigen_rows(sample))[0])
        labels += [name] * len(sample)
        samples.append(sample)
    return _operator_table(labels, np.concatenate(samples), np.concatenate(values))


def _run_n_point(cfg: ExperimentConfig) -> dict:
    ks = compute_kernels(cfg.model, cfg.truncation.order, cfg.grid)
    legs = [(cfg.observables[name][0], t) for name, t in cfg.npoint_factors]
    star = star_of_observables(legs, cfg.truncation, ks, cfg.model.rho_b)
    label = "star:" + "*".join(f"{name}@{FLOAT_FMT % t}" for name, t in cfg.npoint_factors)
    return _operator_table([label], [max(t for _, t in legs)], star[None])


def _run_image_exact(cfg: ExperimentConfig) -> dict:
    """Per observable and time, the ``d_B^2`` blocks ``name[a][b]``, then the reduced operator ``name_S``."""
    m, points = cfg.model, cfg.grid.points
    d_s, d_b = m.dim_system, m.dim_bath
    labels, values = [], []
    for name, (mat, _) in sorted(cfg.observables.items()):
        evolved = evolve_exact(m, [mat], points)
        blocks = _blockops.block_view(evolved, d_b).reshape(len(points), d_b * d_b, d_s, d_s)
        reduced = np.stack([_blockops.bath_trace(x, m.rho_b) for x in evolved])  # one call per time: see `bath_trace`
        values.append(np.concatenate([blocks, reduced[:, None]], axis=1).reshape(-1, d_s, d_s))
        per_time = [f"{name}[{a}][{b}]" for a, b in np.ndindex(d_b, d_b)] + [f"{name}_S"]
        labels.append(np.tile(np.array(per_time, dtype=object), len(points)))
    times = np.tile(np.repeat(points, d_b * d_b + 1), len(labels))
    return _operator_table(np.concatenate(labels), times, np.concatenate(values))


def _markov_pipeline(cfg: ExperimentConfig):
    m, p = cfg.model, cfg.markov
    dec = decompose_interaction(m.hi)
    bd = bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
    sc = spectral_coefficients(m, dec, bd.frequencies, horizon=p["j_horizon"], tol=p["j_tolerance"], eta=p["eta"])
    return dec, bd, sc


def _run_lindblad(cfg: ExperimentConfig) -> dict:
    m, points = cfg.model, cfg.grid.points
    _, bd, sc = _markov_pipeline(cfg)
    names = sorted(cfg.observables)
    stack = np.stack([cfg.observables[name][0] for name in names])
    trajectories = evolve_lindblad(stack, bd, sc, m.h0.mat, m.constants, cfg.grid)
    labels = np.repeat(np.array(names, dtype=object), len(points))
    return _operator_table(labels, np.tile(points, len(names)), trajectories.reshape(-1, *trajectories.shape[-2:]))


def _run_markov_report(cfg: ExperimentConfig) -> dict:
    dec, _, sc = _markov_pipeline(cfg)
    report = check_markov_assumptions(cfg.model, dec, cfg.markov["horizon"], cfg.markov["decay_threshold"])
    # no decay crossing within the horizon: the crossing time is beyond it
    crossing = report.decay_time if report.decay_time is not None else report.horizon
    checks, metrics, values, thresholds = zip(
        ("first_moment", "max_abs", report.first_moment_max, FIRST_MOMENT_THRESHOLD),
        ("stationarity", "max_abs_defect", report.stationarity_defect, STATIONARITY_THRESHOLD),
        ("decay", "crossing_time", crossing, report.decay_threshold),
    )
    entries = [f"J[{i},{j}](omega={FLOAT_FMT % sc.frequencies[k]})" for i, j, k in np.ndindex(sc.j.shape)]
    status = ["pass" if report.passes[check] else "fail" for check in checks]
    status += ["converged" if defect <= sc.tolerance else "unconverged" for defect in sc.defects.ravel()]
    return {
        "check": np.array([*checks, *entries]),
        "metric": np.array([*metrics, *["re_im"] * len(entries)]),
        "value": np.concatenate([values, sc.j.real.ravel()]),
        "threshold": np.concatenate([thresholds, sc.j.imag.ravel()]),
        "status": np.array(status),
    }


def _run_validate(cfg: ExperimentConfig) -> dict:
    rows = validation_suite(**cfg.validate, order=cfg.truncation.order)
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


RUNNERS = {
    "one_point": _run_one_point,
    "n_point": _run_n_point,
    "image_exact": _run_image_exact,
    "lindblad": _run_lindblad,
    "markov_report": _run_markov_report,
    "validate": _run_validate,
}
RUN_MODES = tuple(RUNNERS)


def _describe_failure(table: dict, i: int) -> str:
    """``cumulant2_order2 slope 3.62 < 3.8``: failing row ``i`` with its value and threshold."""
    check, value, threshold = table["check"][i], table["value"][i], table["threshold"][i]
    if "slope" in table["metric"][i]:
        return f"{check} slope {value:.3g} < {threshold:.3g}"
    return f"{check} defect {value:.3g} > {threshold:.3g}"


def _check_finite(table: dict) -> None:
    """Raise `NonFiniteResult` naming the first row that holds a NaN or an infinity."""
    finite = np.all([np.isfinite(c) for c in table.values() if c.dtype.kind == "f"], axis=0)
    if not np.all(finite):
        i = int(np.argmin(finite))
        row = {key: c[i : i + 1].tolist()[0] for key, c in table.items()}
        raise NonFiniteResult(f"non-finite value in result row {row}; no output written")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes the artifact and returns the exit status.

    A run mode returns its result as one table: a dict of equal-length
    columns whose key order is the header.  Every float column is checked
    for finite values before anything is written, so a NaN or overflow is
    reported once, as exit 3, not as numpy warnings first.  A validation
    table with failing rows is written and names them on stderr, as exit 4.
    """
    table = RUNNERS[cfg.run](cfg)
    failing = np.flatnonzero(table["status"] != "pass") if cfg.run == "validate" else ()
    _check_finite(table)
    try:
        write_rows(table, cfg.output_path, cfg.output_format)
    except OSError as exc:  # a directory, or a path under a regular file
        _fail("output.path", f"could not write {cfg.output_path}: {exc.strerror}")
    if len(failing):
        detail = "; ".join(_describe_failure(table, i) for i in failing)
        print(f"validation defects exceeded thresholds: {detail}", file=sys.stderr)
        return 4
    return 0


# -- argparse ------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenbath",
        description="Heisenberg-picture open-system experiments with exact-oracle validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)  # what run and validate share
    config.add_argument("config")
    config.add_argument("--output", default=None, help="override output path")
    config.add_argument("--format", choices=("csv", "json"), default=None)

    p_run = sub.add_parser("run", parents=[config], help="run an experiment config")
    p_run.add_argument("--order", type=int, default=None, help="override truncation order")
    p_run.add_argument("--lambda", dest="lam", type=float, default=None, help="override coupling")
    p_preset = sub.add_parser("preset", help="inspect shipped presets")
    p_preset.add_argument("action", choices=("list",))
    p_val = sub.add_parser("validate", parents=[config], help="run the perturbative-vs-oracle defect suite")
    p_val.add_argument("--seed", type=int, default=None, help="override random seed")
    return parser


PARSER = _parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)

    if args.command == "preset":
        for name in sorted(PRESETS):
            print(name)
        return 0

    flags = {
        "run": "validate" if args.command == "validate" else None,
        "truncation.order": getattr(args, "order", None),
        "truncation.lambda": getattr(args, "lam", None),
        "validate.seed": getattr(args, "seed", None),
        "output.path": args.output,
        "output.format": args.format,
    }
    try:
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        status = run_experiment(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HeisenbathError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    if status == 0:
        print(f"wrote {cfg.output_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
