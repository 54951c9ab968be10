"""Property tests of the CLI exit-code contract on fuzzed shipped configs and
on an inline-model config, with any YAML value at any field.

Every run exits 0 (finite results written), 2 (bad config, field named),
3 (numerical failure) or 4 (validation defect); never 1, the code of an
escaping exception.  An exit 0 or 4 leaves a file of finite values (a
validate run writes its table on exit 4), and exits 2 and 3 leave no file.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import traceback

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from heisenbath import cli

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

numbers = st.one_of(st.floats(), st.floats(min_value=-1.0, max_value=10.0))


def square_matrices(n: int):
    return st.lists(st.lists(numbers, min_size=n, max_size=n), min_size=n, max_size=n)


def _shipped(config: str) -> dict:
    with open(os.path.join(CONFIGS, config)) as fh:
        return yaml.safe_load(fh)


def _execute(raw: dict) -> tuple[int, str, dict]:
    """Run ``raw`` from a temporary working directory, where a relative or default
    ``output.path`` lands too; (exit code, stderr, the text of each file the run
    wrote there, by name)."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("exp.yaml", "w") as fh:
                yaml.safe_dump(raw, fh, sort_keys=False)  # keys of mixed types do not sort
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(["run", "exp.yaml"])
                except Exception:
                    code = 1
                    traceback.print_exc(file=err)
            files = {}
            for name in set(os.listdir()) - {"exp.yaml"}:
                with open(name) as fh:
                    files[name] = fh.read()
        finally:
            os.chdir(cwd)
    return code, err.getvalue(), files


def _run(config: str, **sections) -> tuple[int, str, list[dict] | None]:
    """Run a shipped config with ``sections`` replaced; (exit code, stderr, rows or None)."""
    code, err, files = _execute({**_shipped(config), **sections, "output": {"path": "out.json", "format": "json"}})
    return code, err, json.loads(files["out.json"]) if "out.json" in files else None


def _assert_contract(code: int, err: str, rows: list[dict] | None, finite: tuple[str, ...]) -> None:
    assert code in (0, 2, 3, 4), err[-2000:]
    if code in (0, 4):
        assert rows, f"exit {code} without a written table"
        assert all(math.isfinite(float(r[k])) for r in rows for k in finite)
    else:
        assert rows is None, f"exit {code} left an output file"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("config", ["two_qubit_one_point.yaml", "two_qubit_two_point.yaml"])
@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    order=st.integers(min_value=-2, max_value=4),
    lam=numbers,
    stop=numbers,
    num=st.integers(min_value=-1, max_value=20),
)
@example(order=-1, lam=0.1, stop=1.0, num=3)
@example(order=2, lam=1.0e200, stop=5.0, num=11)
@example(order=4, lam=-0.3, stop=2.0, num=20)
@example(order=0, lam=0.0, stop=1.0, num=2)
@example(order=1, lam=0.1, stop=5e-324, num=3)
def test_exit_code_contract(config, order, lam, stop, num):
    code, err, rows = _run(config, truncation={"order": order, "lambda": lam}, grid={"stop": stop, "num": num})
    _assert_contract(code, err, rows, ("time", "re", "im"))
    if order < 0:
        assert code == 2 and "truncation.order" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["lindblad", "markov_report"])
@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    horizon=numbers,
    j_horizon=numbers,
    decay_threshold=numbers,
    j_tolerance=numbers,
    eta=numbers,
    lam=numbers | st.text(max_size=3),
    hbar=numbers,
    splitting=numbers,
)
@example(horizon=6.0, j_horizon=5.0, decay_threshold=0.025, j_tolerance=0.1, eta=5e-324, lam=0.05, hbar=1.0, splitting=1.3)
@example(horizon=6.0, j_horizon=5.0, decay_threshold=0.025, j_tolerance=0.1, eta=-1e300, lam=0.05, hbar=1.0, splitting=1.3)
@example(horizon=6.0, j_horizon=5.0, decay_threshold=0.025, j_tolerance=0.1, eta=0.0, lam="abc", hbar=1.0, splitting=1.3)
@example(horizon=6.0, j_horizon=5.0, decay_threshold=0.025, j_tolerance=0.1, eta=0.0, lam=math.nan, hbar=1.0, splitting=1.3)
@example(horizon=6.0, j_horizon=5.0, decay_threshold=0.025, j_tolerance=0.1, eta=0.0, lam=0.05, hbar=1.0, splitting=math.inf)
@example(horizon=6.0, j_horizon=5.0, decay_threshold=0.025, j_tolerance=0.1, eta=0.0, lam=0.05, hbar=math.nan, splitting=1.3)
def test_markov_exit_code_contract(mode, horizon, j_horizon, decay_threshold, j_tolerance, eta, lam, hbar, splitting):
    """The Markov run modes on the dephasing config with fuzzed `markov` settings
    and fuzzed preset parameters ``lam``, ``hbar`` and ``splitting`` (the
    config's `truncation.lambda` is dropped, so the preset's coupling is the
    run's)."""
    markov = {
        "horizon": horizon,
        "j_horizon": j_horizon,
        "decay_threshold": decay_threshold,
        "j_tolerance": j_tolerance,
        "eta": eta,
    }
    model = {"preset": "dephasing_bath", "lam": lam, "hbar": hbar, "splitting": splitting}
    code, err, rows = _run("dephasing_lindblad.yaml", run=mode, markov=markov, model=model, truncation={"order": 2})
    _assert_contract(code, err, rows, ("value", "threshold") if mode == "markov_report" else ("time", "re", "im"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=-2, max_value=2**32),
    d_s=st.integers(min_value=0, max_value=3),
    d_b=st.integers(min_value=0, max_value=3),
    order=st.integers(min_value=0, max_value=5),
)
@example(seed=-1, d_s=2, d_b=3, order=2)
@example(seed=42, d_s=0, d_b=3, order=2)
@example(seed=3, d_s=1, d_b=3, order=2)
@example(seed=3, d_s=2, d_b=3, order=0)
@example(seed=3, d_s=2, d_b=3, order=5)
def test_validate_exit_code_contract(seed, d_s, d_b, order):
    """The validate mode with a fuzzed `validate` section and truncation order.

    d_S < 2, d_B < 2 and order 0 are configuration errors (their errors
    sit at rounding, or vanish, for every coupling, so no slope can be
    fitted), and so is an order above 4 (no four-coupling sweep fits it);
    none of them is 1.
    """
    code, err, rows = _run(
        "validate_random.yaml",
        truncation={"order": order, "lambda": 0.1},
        validate={"seed": seed, "d_s": d_s, "d_b": d_b},
    )
    _assert_contract(code, err, rows, ("value", "threshold"))
    if seed < 0 or d_s < 2 or d_b < 2:
        assert code == 2 and "validate." in err
    elif not 1 <= order <= 4:
        assert code == 2 and "truncation.order" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    stop=numbers,
    num=st.integers(min_value=-1, max_value=20),
    matrix=st.none() | st.integers(min_value=1, max_value=3).flatmap(square_matrices),
)
@example(stop=5.0, num=11, matrix=[[1.7e308, -1.0], [2.0, 0.5]])
@example(stop=2.0, num=3, matrix=[[0.3, -1.0], [2.0, 5e-324]])
@example(stop=2.0, num=3, matrix=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
def test_image_exact_exit_code_contract(stop, num, matrix):
    """The image_exact mode with a fuzzed grid and the preset's observable
    (``matrix`` None) or a fuzzed one of any size."""
    observables = {"s1x": {}} if matrix is None else {"o": {"matrix": matrix}}
    code, err, rows = _run(
        "two_qubit_one_point.yaml", run="image_exact", grid={"stop": stop, "num": num}, observables=observables
    )
    _assert_contract(code, err, rows, ("time", "re", "im"))


# An inline-model n_point config: README's example model with a grid of points,
# an observable with complex entries and times, and two star factors.
INLINE = {
    "model": {
        "h0": [[0, 0], [0, 1.3]],
        "hb": [[0, 0], [0, 0.8]],
        "hi": [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
        "rho0": [[1, 0], [0, 0]],
        "rho_b": [[0.6, 0], [0, 0.4]],
        "hbar": 1.0,
    },
    "run": "n_point",
    "truncation": {"order": 2, "lambda": 0.05},
    "grid": {"points": [0.0, 0.5, 1.0]},
    "observables": {"coherence": {"matrix": [[0, [0, -1]], [[0, 1], 0]], "times": [0.25, 1.5]}},
    "npoint": {"factors": [{"observable": "coherence", "time": 0.9}, {"observable": "coherence", "time": 0.4}]},
}

# YAML values of every kind.  Numbers are small or enormous, never in between,
# and text holds a digit only in the listed words: a mid-size count such as
# `grid.num: 1e8` is a valid config that allocates for real, while an enormous
# one is refused at once.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=12)
    | st.just(10**20)
    | st.floats(min_value=-10.0, max_value=10.0)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324])
)
WORDS = st.text(alphabet="ab_.- ", max_size=3) | st.sampled_from(
    ["s1x", "coherence", "two_qubit", "csv", "json", "validate", "image_exact", "1e-3"]
)


def yaml_values(scalars):
    """Scalars from ``scalars``, and lists and mappings nested up to a few levels deep."""
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(WORDS | st.integers(0, 2), inner, max_size=2),
        max_leaves=8,
    )


def _positions(node, path=()):
    """The path of every field and list position under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _positions(child, (*path, key))


def _put(raw: dict, position: tuple, value) -> None:
    for key in position[:-1]:
        raw = raw[key]
    raw[position[-1]] = value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("config", [*sorted(os.listdir(CONFIGS)), "inline"])
@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_value_at_any_field(config, data):
    """Any YAML value at any field or list position of a shipped config or of
    `INLINE`, its output set to ``out.json``.  ``output.path`` takes no text,
    so that every file a run writes lies in its temporary directory."""
    raw = copy.deepcopy(INLINE) if config == "inline" else _shipped(config)
    raw["output"] = {"path": "out.json", "format": "json"}
    position = data.draw(st.sampled_from(list(_positions(raw))), label="position")
    value = data.draw(yaml_values(SCALARS if position == ("output", "path") else SCALARS | WORDS), label="value")
    _put(raw, position, value)
    code, err, files = _execute(raw)
    assert code in (0, 2, 3, 4), err[-2000:]
    assert code != 2 or "config error: " in err
    assert bool(files) == (code in (0, 4)), f"exit {code} left {sorted(files)}"


MATRICES = {
    "observable": ("observables", "coherence", "matrix"),
    **{name: ("model", name) for name in ("h0", "hb", "hi", "rho0", "rho_b")},
}
# (position in `INLINE`, the value put there, the field the error names) of each
# malformed value that once exited 1 or was accepted
MALFORMED = {
    "preset_list": (("model",), {"preset": [1]}, "model.preset"),
    "factor_observable_list": (("npoint", "factors", 0, "observable"), [1], "npoint.factors[0].observable"),
    "observable_name_number": (("observables", 1), {"matrix": [[1, 0], [0, 1]]}, "observables.1"),
    "output_path_null": (("output", "path"), None, "output.path"),
}
for name, position in MATRICES.items():
    field = ".".join(map(str, position))
    MALFORMED[f"{name}_number_row"] = ((*position, 0), 1, f"{field}[0]")
    MALFORMED[f"{name}_ragged"] = ((*position, 1), [0], f"{field}[1]")
    MALFORMED[f"{name}_true_entry"] = ((*position, 0, 0), True, f"{field}[0][0]")


@pytest.mark.parametrize("position,value,field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_value_is_2(position, value, field):
    """Exit 2 naming the field, and no file, for each malformed value."""
    raw = {**copy.deepcopy(INLINE), "output": {"path": "out.json", "format": "json"}}
    _put(raw, position, value)
    code, err, files = _execute(raw)
    assert code == 2 and f"config error: {field}: " in err, err[-2000:]
    assert files == {}
