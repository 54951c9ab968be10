"""The comparison of ``tools/same_numbers.py`` on synthetic records, with no checkout run."""

import importlib.util
import os

import numpy as np
import pytest

SAME_NUMBERS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "same_numbers.py")
EPS = np.finfo(float).eps


def _load():
    spec = importlib.util.spec_from_file_location("tools_same_numbers", SAME_NUMBERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_numbers = _load()


def _record():
    """Two numeric groups (orders 3 and 0), one string group and one validate run."""
    row = {"status": "pass", "metric": "loglog_slope", "value": "3.1", "threshold": "2.8"}
    return {
        "groups": {
            "series/images": (3, np.array([[2.0 + 1j, -0.5], [0.25j, 1.0]])),
            "markov/j": (0, np.array([0.1, 0.2, np.nan])),
            "markov/label": (0, np.array("dephasing")),
        },
        "runs": {"validate/seed1": {"exit": 0, "rows": {"one_point_order2": row}}},
    }


def test_identical_records_read_zero_units_and_exit_0(capsys):
    assert same_numbers.compare(_record(), _record()) == 0
    out = capsys.readouterr().out
    assert "3 groups on both sides: 3 read 0 units, 0 exceed 1" in out
    assert "0 of 1 CLI runs changed" in out


def test_a_group_at_two_units_exits_1_and_is_named(capsys):
    change = _record()
    order, images = change["groups"]["series/images"]
    floor = 64 * (order + 1) * EPS * np.max(np.abs(images))  # max|images| = |2 + i| > 1
    moved = images.copy()
    moved[1, 0] += 2 * floor  # the real part of 0.25j is 0, so the step is exact
    change["groups"]["series/images"] = (order, moved)
    assert same_numbers.budget_units(order, images, moved) == pytest.approx(2.0)
    assert same_numbers.compare(_record(), change) == 1
    assert "units  series/images" in capsys.readouterr().out
    half = images.copy()
    half[1, 1] -= floor / 2
    change["groups"]["series/images"] = (order, half)
    assert same_numbers.compare(_record(), change) == 0


def test_nan_counts_as_over_budget(capsys):
    change = _record()
    change["groups"]["series/images"] = (3, np.array([[np.nan, -0.5], [0.25j, 1.0]]))
    assert same_numbers.compare(_record(), change) == 1
    assert "inf units  series/images" in capsys.readouterr().out


def test_a_changed_row_status_or_exit_code_exits_1(capsys):
    status = _record()
    status["runs"]["validate/seed1"]["rows"]["one_point_order2"]["status"] = "fail"
    code = _record()
    code["runs"]["validate/seed1"]["exit"] = 4
    for change in (status, code):
        assert same_numbers.compare(_record(), change) == 1
        assert "status changed: validate/seed1" in capsys.readouterr().out


def test_a_group_on_one_side_only_exits_1(capsys):
    change = _record()
    del change["groups"]["markov/label"]
    assert same_numbers.compare(_record(), change) == 1
    assert "only in the parent: markov/label" in capsys.readouterr().out
    assert same_numbers.compare(change, _record()) == 1
    assert "only in the change: markov/label" in capsys.readouterr().out
