"""Rounding budget: results must not depend on the BLAS thread count.

One (d_S, d_B) = (8, 16), order-3, lambda = 0.05 solve runs in two
subprocesses, under ``OPENBLAS_NUM_THREADS=1`` and ``=2``: the one-point
values on a 21-point grid over [0, 2], a 3-leg star product and the exact
evolution over the same grid.  The outputs need not share their bits, since
a threaded GEMM may sum in another order, but each must agree within the
budget ``64 (N + 1) eps max|a|`` of an order-N series.
"""

import os
import subprocess
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ORDER = 3
SOLVE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[3])
import numpy as np
from heisenbath.diagnostics import random_model
from heisenbath.dyson import compute_kernels
from heisenbath.oracle import evolve_exact
from heisenbath.spaces import TimeGrid
from heisenbath.superop import SeriesTruncation, one_point_operator, star_of_observables

order, lam = int(sys.argv[2]), 0.05
m, obs = random_model(3, 8, 16)
m = m.with_coupling(lam)
grid = TimeGrid.linspace(2.0, 21)
trunc = SeriesTruncation(order, lam)
ks = compute_kernels(m, order, grid)
np.savez(
    sys.argv[1],
    one_point=one_point_operator(obs, trunc, ks, m.rho_b, grid).values,
    star=star_of_observables([(obs, 0.5), (obs, 1.0), (obs, 1.5)], trunc, ks, m.rho_b),
    exact=evolve_exact(m, [obs], grid.points),
)
"""


def _solve(tmp_path, threads: int) -> dict:
    path = tmp_path / f"threads{threads}.npz"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    argv = [sys.executable, "-c", SOLVE_SCRIPT, str(path), str(ORDER), SRC]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with np.load(path) as data:
        return dict(data)


def test_outputs_agree_across_blas_thread_counts(tmp_path):
    one, two = _solve(tmp_path, 1), _solve(tmp_path, 2)
    eps = np.finfo(float).eps
    for name, a in one.items():
        gap = float(np.max(np.abs(a - two[name])))
        budget = 64 * (ORDER + 1) * eps * float(np.max(np.abs(a)))
        print(f"{name}: max|a - b| = {gap / (eps * np.max(np.abs(a))):.2f} eps max|a| (budget {budget:.2e})")
        assert gap <= budget, f"{name}: {gap:.3e} > {budget:.3e}"
