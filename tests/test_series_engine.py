"""The full-space GEMM series engine against direct einsum references.

Sizes (d_S, d_B) = (2, 3), (3, 2) and (4, 8), orders 0-4, on and off the
kernel grid; agreement is required to 1e-13 relative to the largest entry
of the reference (kernel entries grow like (|H_I| t)^n / n!).  The
partition expansion is also held to its sandwich count: one per distinct
suffix (inner chain) plus one per distinct first pair, batched one call per
suffix length, and bit for bit to the per-suffix evaluation.  The engine's
coupling axis is held to the engine at one coupling bit for bit, and the
fused one-point sum to the total-order sandwich sum of a constant sequence.
"""

import math
import pickle

import numpy as np
import pytest

from heisenbath import _blockops, dyson, npoint, superop
from heisenbath.diagnostics import DEFAULT_LAMBDAS, random_model, rhs_fd_errors, rounding_floor
from heisenbath.dyson import compute_kernels
from heisenbath.npoint import (
    PartitionWords,
    _partitions,
    decompose_3pt,
    expand_image_by_partitions,
    irreducible_2pt,
)
from heisenbath.oracle import npoint_reduced_exact
from heisenbath.spaces import TimeGrid
from heisenbath.superop import (
    SeriesTruncation,
    _dressed,
    _factors,
    image_from_one_point,
    lift_observable,
    lift_values,
    local_rhs,
    one_point_operator,
    one_point_values,
    star_of_observables,
    star_product,
)
from helpers import (
    einsum_DtP_S,
    einsum_one_point,
    einsum_P_blocks,
    einsum_P_blocks_printed,
    einsum_partition_term,
    heis_stack,
    lift_at,
    lift_legs,
    one_point_at,
    partition_image,
    partition_term,
    per_suffix_partition_image,
    random_hermitian,
    recursive_partition_image,
    rhs_at,
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


def _blocks(ks, stack):
    """Block view ``(..., d_B, d_B, d_S, d_S)`` of full-space matrices, as the einsum references read them."""
    return _blockops.block_view(stack, ks.dim_bath)


def _close(out, ref):
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(out - ref))) <= 1e-13 * scale


@pytest.mark.parametrize("t", [GRID_TIME, OFF_GRID_TIME])
@pytest.mark.parametrize("n", ORDERS)
def test_sandwiches_match_einsum(engine_model, n, t):
    """The sandwiches in the kernel frame, rotated out, against the einsum
    references on the original-basis kernels; the covariant derivatives of
    the reference come from the recurrence in the original basis."""
    m, obs, ks = engine_model
    heis = heis_stack(ks, t)
    fams = _blocks(ks, heis)
    e = m.bath_energies / m.constants.hbar
    cov = np.zeros_like(heis)
    cov[1:] = np.tile(1j * (e[:, None] - e[None, :]), (ks.dim_system,) * 2) * heis[1:] + m.hi.mat @ heis[:-1]
    a = ks.frame.free_conjugate(obs, t)
    frame, kstack = ks.frame, ks.frame_stack(ks.eigen_rows([t])[0])
    turns = 1j ** np.arange(ks.orders + 1)[:, None, None]
    stack, adjoint = turns * kstack, turns * kstack.conj().swapaxes(-1, -2)
    ops, ds = (frame.enter(a),), ks.dim_system
    derived = frame.leave_open(_dressed(*_factors(stack, ds), ops, n))
    assert _close(_blocks(ks, derived), einsum_P_blocks(n, a, fams))
    printed = frame.leave_open(_dressed(*_factors(adjoint, ds), ops, n))
    assert _close(_blocks(ks, printed), einsum_P_blocks_printed(n, a, fams))
    rho, cov_stack = m.rho_b, turns * ks.frame_derivative(kstack)
    (left, right), (cov_left, cov_right) = _factors(stack, ds, rho), _factors(cov_stack, ds, rho)
    dressed = frame.leave(_dressed(cov_left, right, ops, n) + _dressed(left, cov_right, ops, n))
    assert _close(dressed, einsum_DtP_S(n, a, fams, _blocks(ks, cov), rho))


@pytest.mark.parametrize("n", ORDERS)
def test_partition_terms_match_einsum(engine_model, n):
    m, obs, ks = engine_model
    hbar = m.constants.hbar
    trunc = SeriesTruncation(4, LAM)
    kstack = _blocks(ks, heis_stack(ks, GRID_TIME))
    value = one_point_at(obs, trunc, ks, m.rho_b, GRID_TIME)
    for p in _partitions(n, n + 1):
        out = partition_term(p, value, trunc, ks, m.rho_b, GRID_TIME).blocks
        ref = einsum_partition_term(p, value, kstack, m.rho_b, LAM, hbar)
        assert _close(out, ref), p


@pytest.mark.parametrize("t", [GRID_TIME, OFF_GRID_TIME])
@pytest.mark.parametrize("order", ORDERS)
def test_partition_expansion_matches_einsum_sum(engine_model, order, t):
    """The shared-suffix expansion equals the per-partition einsum words, summed."""
    m, obs, ks = engine_model
    trunc = SeriesTruncation(order, LAM)
    traj = one_point_operator(obs, trunc, ks, m.rho_b, ks.grid, "obs")
    value = one_point_at(traj.observable, traj.truncation, ks, m.rho_b, t)
    kstack = _blocks(ks, heis_stack(ks, t))
    ref = sum(
        einsum_partition_term(p, value, kstack, m.rho_b, LAM, m.constants.hbar)
        for n in range(order + 1)
        for p in _partitions(n, n + 1)
    )
    assert _close(expand_image_by_partitions(traj, order, ks, m.rho_b, t).blocks, ref)


# per-partition evaluation would take 1, 7, 36, 164 and 700 sandwiches
@pytest.mark.parametrize("n_max,sandwiches", [(0, 1), (1, 5), (2, 15), (3, 43), (4, 130)])
def test_partition_expansion_sandwich_count(engine_model, monkeypatch, n_max, sandwiches):
    """One batched sandwich call per suffix length 1..n_max and one for the open
    words; their batch sizes add up to the distinct suffixes and first pairs."""
    m, obs, ks = engine_model
    traj = one_point_operator(obs, SeriesTruncation(n_max, LAM), ks, m.rho_b, ks.grid, "obs")
    calls = []
    real = PartitionWords._sandwiches

    def counted(words, pairs, cores):
        calls.append(len(pairs))
        return real(words, pairs, cores)

    monkeypatch.setattr(PartitionWords, "_sandwiches", counted)
    expand_image_by_partitions(traj, n_max, ks, m.rho_b, GRID_TIME)
    assert len(calls) == n_max + 1 and sum(calls) == sandwiches


@pytest.mark.parametrize("d_s,d_b", [(2, 3), (3, 2)])
def test_partition_plan_is_built_once_per_order(d_s, d_b):
    """`PartitionWords.image` reads the suffix tree of its order from one plan,
    built by the first image of that order: a second image, on new words,
    builds nothing.  The plan's batches add up to the sandwich count, and
    each image at orders 0-4 equals the lone-call oracle
    `per_suffix_partition_image` bit for bit."""
    m, obs = random_model(5, d_s, d_b)
    ks = compute_kernels(m, 4, TimeGrid.linspace(1.5, 7))
    value = one_point_at(obs, SeriesTruncation(4, LAM), ks, m.rho_b, GRID_TIME)
    row = ks.eigen_rows([GRID_TIME])[0]
    npoint._suffix_plan.cache_clear()
    for n_max, sandwiches in zip(ORDERS, (1, 5, 15, 43, 130)):
        first, second = (PartitionWords(value, SeriesTruncation(n_max, LAM), ks, m.rho_b, row) for _ in range(2))
        image = first.image(n_max)
        built = npoint._suffix_plan.cache_info().misses
        assert built == n_max + 1
        assert np.array_equal(second.image(n_max), image)
        assert npoint._suffix_plan.cache_info().misses == built
        plan = npoint._suffix_plan(n_max)
        assert sum(len(pairs) for pairs, _ in plan.levels) + len(plan.firsts) == sandwiches
        assert np.array_equal(image, per_suffix_partition_image(value, n_max, LAM, ks, m.rho_b, GRID_TIME))


@pytest.mark.parametrize("t", [GRID_TIME, OFF_GRID_TIME])
@pytest.mark.parametrize("n_max", ORDERS)
def test_batched_partition_sum_equals_per_suffix_evaluation(engine_model, monkeypatch, n_max, t):
    """Each suffix length in one sandwich call, and the sum bit for bit the one
    `per_suffix_partition_image` forms from lone calls, one sandwich at a
    time; to rounding the one `recursive_partition_image` forms out of the
    frame."""
    m, obs, ks = engine_model
    traj = one_point_operator(obs, SeriesTruncation(n_max, LAM), ks, m.rho_b, ks.grid, "obs")
    value = one_point_at(traj.observable, traj.truncation, ks, m.rho_b, t)
    expected = per_suffix_partition_image(value, n_max, LAM, ks, m.rho_b, t)
    calls = []
    real = PartitionWords._sandwiches
    monkeypatch.setattr(PartitionWords, "_sandwiches", lambda *args: calls.append(1) or real(*args))
    image = expand_image_by_partitions(traj, n_max, ks, m.rho_b, t).matrix
    assert np.array_equal(image, expected)
    assert len(calls) == n_max + 1
    assert _close(image, recursive_partition_image(value, n_max, LAM, ks, m.rho_b, t))


@pytest.mark.parametrize("order", ORDERS)
def test_batched_one_point_matches_per_time_and_einsum(engine_model, order):
    m, obs, ks = engine_model
    hbar = m.constants.hbar
    trunc = SeriesTruncation(order, LAM)
    traj = one_point_operator(obs, trunc, ks, m.rho_b, ks.grid, "obs")
    for k, t in enumerate(ks.grid.points):
        single = one_point_at(obs, trunc, ks, m.rho_b, float(t))
        kstack = _blocks(ks, heis_stack(ks, t))
        ref = einsum_one_point(ks.frame.free_conjugate(obs, t), kstack, m.rho_b, order, LAM, hbar)
        assert _close(traj.values[k], single)
        assert _close(traj.values[k], ref)
    off = one_point_at(obs, trunc, ks, m.rho_b, OFF_GRID_TIME)
    kstack = _blocks(ks, heis_stack(ks, OFF_GRID_TIME))
    ref = einsum_one_point(ks.frame.free_conjugate(obs, OFF_GRID_TIME), kstack, m.rho_b, order, LAM, hbar)
    assert _close(off, ref)


@pytest.mark.parametrize("order", ORDERS)
def test_decompose_total_matches_star(engine_model, order):
    m, obs, ks = engine_model
    times = (0.4, OFF_GRID_TIME, 1.5)
    trunc = SeriesTruncation(order, LAM)
    dec = decompose_3pt(m, obs, obs, obs, *times, trunc, ks=ks)
    star = star_of_observables([(obs, t) for t in times], trunc, ks, m.rho_b)
    assert _close(dec.total, star)


def test_each_leg_set_is_one_lift(engine_model, monkeypatch):
    """A star of three legs with distinct observables, `irreducible_2pt` and
    `decompose_3pt` each make one `lift_observable` call, one observable per
    leg on the kernel rows of the legs' times (grid, off-grid and a repeated
    time); each leg's value and family are those of its lone one-leg
    `lift_legs`, bit for bit.  The mixed star agrees with the exact product
    within three times the leading Dyson remainder ``x^(N+1)/(N+1)!``, ``x =
    lam |H_I| t_max / hbar``, scaled by the observables' norms."""
    m, obs, ks = engine_model
    rng = np.random.default_rng(34)
    o1, o2, o3 = obs, random_hermitian(rng, ks.dim_system), random_hermitian(rng, ks.dim_system)
    times, trunc = (1.5, OFF_GRID_TIME, 1.5), SeriesTruncation(3, 0.03)
    legs = list(zip((o1, o2, o3), times))
    lone = [superop.lift_legs([leg], trunc, ks, m.rho_b) for leg in legs]
    calls, real = [], superop.lift_observable

    def recorded(o, *args):
        calls.append((o, args[-1], real(o, *args)))
        return calls[-1][2]

    monkeypatch.setattr(superop, "lift_observable", recorded)
    star = star_of_observables(legs, trunc, ks, m.rho_b)
    irreducible_2pt(m, o1, o2, *times[:2], trunc, ks)
    decompose_3pt(m, o1, o2, o3, *times, trunc, ks)
    assert len(calls) == 3
    for used, (o, rows, (values, _, mats)) in zip((legs, legs[:2], legs), calls):
        assert np.array_equal(o, np.stack([x for x, _ in used]))
        assert np.array_equal(rows, ks.eigen_rows(np.array([t for _, t in used])))
        for k, (value, mat) in enumerate(lone[: len(used)]):
            assert np.array_equal(values[k, 0], value[0]) and np.array_equal(mats[k, 0], mat[0])
    exact = npoint_reduced_exact(m.with_coupling(trunc.lam), legs).mat
    x = trunc.lam * np.linalg.norm(m.hi.mat, 2) * max(times) / m.constants.hbar
    norms = np.prod([np.linalg.norm(o, 2) for o in (o1, o2, o3)])
    assert np.max(np.abs(star - exact)) <= 3 * norms * x ** (trunc.order + 1) / math.factorial(trunc.order + 1)



# a coupling sweep with a zero and a negative coupling; (2, 2) joins the engine sizes.
# numpy's array power rounds (0.3)^4 and (1e-3/0.7)^4 differently from Python's.
SWEEP = (0.1, 0.0, -0.03, 1e-3, 0.3)
SWEEP_SIZES = ((2, 2, 1.0), *SIZES)


def _written_out_inverse(value, order, lam, ks, rho_b, t):
    """``inv[order]`` by the recursion for one coupling in the kernel frame: ``inv[m]``
    is the value minus the traced dressing of ``inv[<m]`` at order m on the stack
    ``i^p S[p]``, weights ``(lam/hbar)^(m-k)`` by numpy's array power; only
    ``value - inv[order]`` leaves the frame."""
    hbar = ks.frame.constants.hbar
    stack = 1j ** np.arange(ks.orders + 1)[:, None, None] * ks.frame_stack(ks.eigen_rows([t])[0])
    weight = (np.array([lam]) / hbar)[0, None, None]  # an array, so that ** is numpy's, as in the engine
    inv = [ks.frame.enter(value)]
    for m in range(1, order + 1):
        inv.append(inv[0] - _dressed(*_factors(stack, ks.dim_system, rho_b), inv, m, weight))
    return value - ks.frame.leave(inv[0] - inv[order])


@pytest.fixture(scope="module", params=SWEEP_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def sweep_model(request):
    d_s, d_b, hbar = request.param
    m, obs = random_model(5 + d_s * d_b, d_s, d_b, hbar=hbar)
    ks = compute_kernels(m, 4, TimeGrid.linspace(1.5, 7))
    return m, obs, ks


@pytest.mark.parametrize("t", [GRID_TIME, OFF_GRID_TIME])
@pytest.mark.parametrize("order", ORDERS)
def test_coupling_sweep_equals_one_coupling_at_a_time(sweep_model, order, t):
    """Every coupling of a sweep gets, bit for bit, what the engine returns
    for it alone: one-point values (at one time, at a pair of times
    and over the grid), inversions, image families and the local RHS.  The
    inversion also equals its recursion written out for one coupling."""
    m, obs, ks = sweep_model
    rho_b = m.rho_b
    row = ks.eigen_rows([t])[0]
    values, inverses, families = (x[0] for x in lift_observable(obs, order, SWEEP, ks, rho_b, row[None]))
    pair_times = np.array([t + 1e-5, t - 1e-5])
    pair = one_point_values(obs, order, SWEEP, ks, rho_b, ks.eigen_rows(pair_times))
    grid_values = one_point_values(obs, order, SWEEP, ks, rho_b, ks.eigen_rows(ks.grid.points))
    from_values = lift_values(values[None], order, SWEEP, ks, rho_b, row[None])
    assert np.array_equal(from_values[0][0], inverses) and np.array_equal(from_values[1][0], families)
    trajs = [one_point_operator(obs, SeriesTruncation(order, lam), ks, rho_b, ks.grid) for lam in SWEEP]
    at_t = np.stack([one_point_at(traj.observable, traj.truncation, ks, rho_b, t) for traj in trajs])
    rhs = local_rhs(at_t, order, SWEEP, ks, rho_b, row)
    for k, lam in enumerate(SWEEP):
        trunc = SeriesTruncation(order, lam)
        assert np.array_equal(values[k], one_point_at(obs, trunc, ks, rho_b, t))
        for value, s in zip(pair[k], pair_times):
            assert np.array_equal(value, one_point_at(obs, trunc, ks, rho_b, s))
        assert np.array_equal(grid_values[k], trajs[k].values)
        assert np.array_equal(inverses[k], lift_at(values[k], trunc, ks, rho_b, t)[0])
        assert np.array_equal(inverses[k], _written_out_inverse(values[k], order, lam, ks, rho_b, t))
        assert np.array_equal(families[k], lift_at(values[k], trunc, ks, rho_b, t)[1].matrix)
        assert np.array_equal(rhs[k], rhs_at(trajs[k], t, ks, rho_b))


@pytest.mark.parametrize("t", [GRID_TIME, OFF_GRID_TIME])
@pytest.mark.parametrize("order", ORDERS)
def test_one_point_values_are_the_traced_dressing_of_a_constant_sequence(sweep_model, order, t):
    """The fused one-point sum is the total-order sandwich sum of the constant
    sequence ``(B, ..., B)``, ``B = U0^dag O U0`` in the frame, traced on the
    stack ``i^p S[p]``: every coupling of the sweep within the rounding budget
    of order N."""
    m, obs, ks = sweep_model
    row = ks.eigen_rows([t])[0]
    values = one_point_values(obs, order, SWEEP, ks, m.rho_b, row[None])[:, 0]
    stack = 1j ** np.arange(ks.orders + 1)[:, None, None] * ks.frame_stack(row)
    x = (np.asarray(SWEEP) / m.constants.hbar)[:, None, None]
    b = ks.frame.enter(ks.frame.free_conjugate(obs, t))
    dressed = ks.frame.leave(_dressed(*_factors(stack, ks.dim_system, m.rho_b), (b,) * (order + 1), order, x))
    assert np.max(np.abs(dressed - values)) <= rounding_floor(order, values)


def test_empty_time_batch_has_written_out_shapes(sweep_model):
    """No times give no kernel rows, ``(0, n_max + 1, D, D)``, and no one-point
    values, ``(n_lam, 0, d_S, d_S)``, at every order."""
    m, obs, ks = sweep_model
    d_s, d = m.dim_system, m.dim_system * m.dim_bath
    rows = ks.eigen_rows(np.array([]))
    assert rows.shape == (0, ks.orders + 1, d, d)
    for order in ORDERS:
        assert one_point_values(obs, order, SWEEP, ks, m.rho_b, rows).shape == (len(SWEEP), 0, d_s, d_s)


@pytest.fixture
def exponentials(monkeypatch):
    """The `toeplitz_expm` calls made while the test runs."""
    calls = []
    real = dyson.toeplitz_expm
    monkeypatch.setattr(dyson, "toeplitz_expm", lambda a: calls.append(1) or real(a))
    return calls


def test_time_within_rounding_of_a_grid_point_reads_its_row(exponentials):
    """``linspace(1.65, 7)`` holds 1.0999999999999999, not 1.1: both are the
    grid row, with the bits of the grid time and no exponential; 1.1 + 1e-13
    lies off the grid and makes one."""
    m, obs = random_model(3, 2, 3)
    ks = compute_kernels(m, 3, TimeGrid.linspace(1.65, 7))
    grid_t = float(ks.grid.points[4])
    assert grid_t != 1.1
    exponentials.clear()
    assert np.array_equal(ks.eigen_rows([1.1])[0], ks.eigen_rows(ks.grid.points)[4])
    trunc = SeriesTruncation(2, 0.1)
    value = one_point_at(obs, trunc, ks, m.rho_b, 1.1)
    family = lift_at(value, trunc, ks, m.rho_b, 1.1)[1]
    assert not exponentials
    assert np.array_equal(value, one_point_at(obs, trunc, ks, m.rho_b, grid_t))
    assert np.array_equal(family.matrix, lift_at(value, trunc, ks, m.rho_b, grid_t)[1].matrix)
    ks.eigen_rows([1.1 + 1e-13])
    assert len(exponentials) == 1


def test_kernel_set_is_read_only():
    """A suite's lifts, partition sum and RHS check and public calls at off-grid
    times leave every attribute of the kernel set the same object with the same bytes."""
    m, obs = random_model(3, 2, 3)
    ks = compute_kernels(m, 3, TimeGrid.linspace(1.65, 7))
    before = {k: (v, pickle.dumps(v)) for k, v in vars(ks).items()}
    values = lift_legs(m, obs, ks, 2, (0.44, 0.88, 1.1), DEFAULT_LAMBDAS)[0]
    row = ks.eigen_rows([1.1])[0]
    partition_image(values[2, 0], 2, 0.1, ks, m.rho_b, row)
    rhs_fd_errors(obs, values[2, :2], 2, (0.1, 0.01), ks, m.rho_b, row, 1.1)
    trunc = SeriesTruncation(2, 0.1)
    traj = one_point_operator(obs, trunc, ks, m.rho_b, ks.grid)
    star_product([(traj, 0.3), (traj, 0.7)], ks, m.rho_b)
    star_of_observables([(obs, 0.3), (obs, 0.7)], trunc, ks, m.rho_b)
    heis_stack(ks, 0.3), ks.tilde_stack(0.7)
    after = vars(ks)
    assert after.keys() == before.keys()
    assert all(after[k] is v and pickle.dumps(after[k]) == b for k, (v, b) in before.items())
    assert not ks.eigen_rows(ks.grid.points).flags.writeable


def test_series_solve_on_grid_times_makes_one_exponential(exponentials):
    """A (4, 8) order-3 solve whose times all lie on the kernel grid: the
    shared step exponential is the only one."""
    m, obs = random_model(1, 4, 8)
    grid = TimeGrid.linspace(2.0, 41)
    trunc = SeriesTruncation(3, 0.01)
    ks = compute_kernels(m, trunc.order, grid)
    traj = one_point_operator(obs, trunc, ks, m.rho_b, grid)
    for t in (0.5, 1.0, 2.0):
        image_from_one_point(traj, ks, m.rho_b, t)
    star_product([(traj, t) for t in (2.0, 1.0, 0.5)], ks, m.rho_b)
    expand_image_by_partitions(traj, trunc.order, ks, m.rho_b, 1.0)
    decompose_3pt(m, obs, obs, obs, 1.0, 0.5, 0.25, trunc, ks=ks)
    assert len(exponentials) == 1
