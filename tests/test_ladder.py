"""The size ladder of ``tools/ladder.py`` at its smallest size, one repeat."""

import importlib.util
import json
import math
import os

LADDER_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "ladder.py")


def _load_ladder():
    spec = importlib.util.spec_from_file_location("tools_ladder", LADDER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_rung_schema_and_times():
    ladder = _load_ladder()
    record = json.loads(json.dumps(ladder.bench(sizes=((2, 8),), repeats=1)))  # what the file holds
    assert set(record) == {"setup", "provenance", "rows"}
    assert record["setup"]["repeats"] == 1 and record["setup"]["order"] == 3
    assert "OPENBLAS_NUM_THREADS" in record["provenance"]
    (row,) = record["rows"]
    assert (row["d_s"], row["d_b"], row["D"]) == (2, 8, 16)
    times = [row[f"{name}_s"] for name in ladder.STAGES]
    assert set(row) == {"d_s", "d_b", "D", "ratio", *(f"{name}_s" for name in ladder.STAGES)}
    assert all(math.isfinite(t) and t > 0 for t in [*times, row["ratio"]])
    assert row["ratio"] == (row["kernels_s"] + row["one_point_s"]) / row["exact_s"]
