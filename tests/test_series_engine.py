"""The full-space GEMM series engine against direct einsum references.

Sizes (d_S, d_B) = (2, 3), (3, 2) and (4, 8), orders 0-4, on and off the
kernel grid; agreement is required to 1e-13 relative to the largest entry
of the reference (kernel entries grow like (|H_I| t)^n / n!).  The
partition expansion is also held to its sandwich count: one per distinct
suffix (inner chain) plus one per distinct first pair.
"""

import numpy as np
import pytest

from heisenbath import _blockops
from heisenbath.diagnostics import random_model
from heisenbath.dyson import compute_kernels
from heisenbath.npoint import (
    assemble_partition_term,
    decompose_3pt,
    enumerate_even_partitions,
    expand_image_by_partitions,
)
from heisenbath.spaces import TimeGrid
from heisenbath.superop import (
    SeriesTruncation,
    _apply_DtP_S,
    _apply_P_blocks,
    _apply_P_blocks_printed,
    free_evolved,
    one_point_operator,
    one_point_value,
    star_of_observables,
    trajectory_value,
)
from helpers import (
    einsum_DtP_S,
    einsum_one_point,
    einsum_P_blocks,
    einsum_P_blocks_printed,
    einsum_partition_term,
)

SIZES = ((2, 3, 1.0), (3, 2, 0.7), (4, 8, 1.0))  # (d_S, d_B, hbar)
ORDERS = range(5)
GRID_TIME, OFF_GRID_TIME = 0.75, 0.6
LAM = 0.1


@pytest.fixture(scope="module", params=SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def engine_model(request):
    d_s, d_b, hbar = request.param
    m, obs = random_model(11 + d_s, d_s, d_b, hbar=hbar)
    ks = compute_kernels(m, 4, TimeGrid.linspace(1.5, 7))
    return m, obs, ks


def _close(out, ref):
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(out - ref))) <= 1e-13 * scale


@pytest.mark.parametrize("t", [GRID_TIME, OFF_GRID_TIME])
@pytest.mark.parametrize("n", ORDERS)
def test_sandwiches_match_einsum(engine_model, n, t):
    m, obs, ks = engine_model
    kstack = ks.heis_stack(t)
    a = free_evolved(obs, ks, t)
    assert _close(_apply_P_blocks(n, a, kstack), einsum_P_blocks(n, a, kstack))
    assert _close(_apply_P_blocks_printed(n, a, kstack), einsum_P_blocks_printed(n, a, kstack))
    cov = ks.cov_d_stack(t)
    rho = m.rho_b.mat
    assert _close(_apply_DtP_S(n, a, kstack, cov, rho), einsum_DtP_S(n, a, kstack, cov, rho))


@pytest.mark.parametrize("n", ORDERS)
def test_partition_terms_match_einsum(engine_model, n):
    m, obs, ks = engine_model
    hbar = m.constants.hbar
    trunc = SeriesTruncation(4, LAM)
    kstack = ks.heis_stack(GRID_TIME)
    value = one_point_value(obs, trunc, ks, m.rho_b, GRID_TIME)
    for p in enumerate_even_partitions(n, n + 1):
        out = assemble_partition_term(p, value, trunc, ks, m.rho_b, GRID_TIME).blocks
        ref = einsum_partition_term(p.pairs, value, kstack, m.rho_b.mat, LAM, hbar)
        assert _close(out, ref), p.pairs


@pytest.mark.parametrize("t", [GRID_TIME, OFF_GRID_TIME])
@pytest.mark.parametrize("order", ORDERS)
def test_partition_expansion_matches_einsum_sum(engine_model, order, t):
    """The shared-suffix expansion equals the per-partition einsum words, summed."""
    m, obs, ks = engine_model
    trunc = SeriesTruncation(order, LAM)
    traj = one_point_operator(obs, trunc, ks, m.rho_b, ks.grid, "obs")
    value = trajectory_value(traj, ks, m.rho_b, t)
    kstack = ks.heis_stack(t)
    ref = sum(
        einsum_partition_term(p.pairs, value, kstack, m.rho_b.mat, LAM, m.constants.hbar)
        for n in range(order + 1)
        for p in enumerate_even_partitions(n, n + 1)
    )
    assert _close(expand_image_by_partitions(traj, order, ks, m.rho_b, t).blocks, ref)


# per-partition evaluation would take 1, 7, 36, 164 and 700 sandwiches
@pytest.mark.parametrize("n_max,sandwiches", [(0, 1), (1, 5), (2, 15), (3, 43), (4, 130)])
def test_partition_expansion_sandwich_count(engine_model, monkeypatch, n_max, sandwiches):
    m, obs, ks = engine_model
    traj = one_point_operator(obs, SeriesTruncation(n_max, LAM), ks, m.rho_b, ks.grid, "obs")
    calls = []
    real = _blockops.sandwich_sum

    def counted(lefts, rights):
        calls.append(len(lefts))
        return real(lefts, rights)

    monkeypatch.setattr(_blockops, "sandwich_sum", counted)
    expand_image_by_partitions(traj, n_max, ks, m.rho_b, GRID_TIME)
    assert calls == [1] * sandwiches


@pytest.mark.parametrize("order", ORDERS)
def test_batched_one_point_matches_per_time_and_einsum(engine_model, order):
    m, obs, ks = engine_model
    hbar = m.constants.hbar
    trunc = SeriesTruncation(order, LAM)
    traj = one_point_operator(obs, trunc, ks, m.rho_b, ks.grid, "obs")
    for k, t in enumerate(ks.grid.points):
        single = one_point_value(obs, trunc, ks, m.rho_b, float(t))
        ref = einsum_one_point(free_evolved(obs, ks, t), ks.heis_stack(t), m.rho_b.mat, order, LAM, hbar)
        assert _close(traj.values[k], single)
        assert _close(traj.values[k], ref)
    off = one_point_value(obs, trunc, ks, m.rho_b, OFF_GRID_TIME)
    ref = einsum_one_point(
        free_evolved(obs, ks, OFF_GRID_TIME), ks.heis_stack(OFF_GRID_TIME), m.rho_b.mat, order, LAM, hbar
    )
    assert _close(off, ref)


@pytest.mark.parametrize("order", ORDERS)
def test_decompose_total_matches_star(engine_model, order):
    m, obs, ks = engine_model
    times = (0.4, OFF_GRID_TIME, 1.5)
    trunc = SeriesTruncation(order, LAM)
    dec = decompose_3pt(m, obs, obs, obs, *times, trunc, ks=ks)
    star = star_of_observables([(obs, t) for t in times], trunc, ks, m.rho_b)
    assert _close(dec.total, star)

