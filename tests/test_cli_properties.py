"""Property tests of the CLI exit-code contract on fuzzed shipped configs.

Every run exits 0 (finite results written), 2 (bad config, field named),
3 (numerical failure) or 4 (validation defect); never 1, the code of an
escaping exception.  An exit 0 or 4 leaves a file of finite values (a
validate run writes its table on exit 4), and exits 2 and 3 leave no file.
"""

import contextlib
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


def _run(config: str, **sections) -> tuple[int, str, list[dict] | None]:
    """Run a shipped config with ``sections`` replaced; (exit code, stderr, rows or None)."""
    with open(os.path.join(CONFIGS, config)) as fh:
        raw = yaml.safe_load(fh)
    raw.update(sections)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        raw["output"] = {"path": out, "format": "json"}
        path = os.path.join(tmp, "exp.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["run", path])
            except Exception:
                code = 1
                traceback.print_exc(file=err)
        rows = None
        if os.path.exists(out):
            with open(out) as fh:
                rows = json.load(fh)
    return code, err.getvalue(), rows


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
