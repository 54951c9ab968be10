"""The benchmark's calls into the package.

Each workload of ``perfbench/workloads.py`` builds its inputs, solves its
first task and passes its own oracle check, so a change that breaks a name
or an output the benchmark relies on fails here.
"""

import importlib.util
import os
import sys

import pytest

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_task_solves_and_checks(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inputs = w.build(1, str(tmp_path))
    task = inputs.tasks[0]
    assert w.check(inputs, task, w.solve(inputs, task)) == []
