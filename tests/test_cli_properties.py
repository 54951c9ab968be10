"""Property tests of the CLI exit-code contract on fuzzed shipped configs.

Every run exits 0 (finite results written), 2 (bad config, field named),
3 (numerical failure) or 4 (validation defect); never 1, the code of an
escaping exception.  An exit 0 leaves a file of finite values, and any
other exit leaves no file.
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
    if code == 0:
        assert rows, "exit 0 without a written table"
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
    order=st.integers(min_value=0, max_value=4),
    lam=numbers,
    stop=numbers,
    num=st.integers(min_value=-1, max_value=20),
)
@example(order=2, lam=1.0e200, stop=5.0, num=11)
@example(order=4, lam=-0.3, stop=2.0, num=20)
@example(order=0, lam=0.0, stop=1.0, num=2)
@example(order=1, lam=0.1, stop=5e-324, num=3)
def test_exit_code_contract(config, order, lam, stop, num):
    code, err, rows = _run(config, truncation={"order": order, "lambda": lam}, grid={"stop": stop, "num": num})
    _assert_contract(code, err, rows, ("time", "re", "im"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["lindblad", "markov_report"])
@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(horizon=numbers, j_horizon=numbers, decay_threshold=numbers, j_tolerance=numbers, eta=numbers)
@example(horizon=6.0, j_horizon=5.0, decay_threshold=0.025, j_tolerance=0.1, eta=5e-324)
@example(horizon=6.0, j_horizon=5.0, decay_threshold=0.025, j_tolerance=0.1, eta=-1e300)
def test_markov_exit_code_contract(mode, horizon, j_horizon, decay_threshold, j_tolerance, eta):
    """The Markov run modes on the dephasing config with fuzzed `markov` settings."""
    markov = {
        "horizon": horizon,
        "j_horizon": j_horizon,
        "decay_threshold": decay_threshold,
        "j_tolerance": j_tolerance,
        "eta": eta,
    }
    code, err, rows = _run("dephasing_lindblad.yaml", run=mode, markov=markov)
    _assert_contract(code, err, rows, ("value", "threshold") if mode == "markov_report" else ("time", "re", "im"))
