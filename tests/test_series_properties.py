"""Identities of the series engine as property tests on random models.

Each property draws a seeded random model with d_S, d_B <= 4, an order
0..4 and its times, and compares a series quantity with a reference that
does not call the function under test: the free evolution from an
eigendecomposition of H0, a one-point value from `one_point_values`, or the
same star product with its legs reversed.  The scaling properties take the
orders whose error they can resolve: 1..4 for the roundtrip and 1..3, at
d_S, d_B <= 3, for the equal-time product.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenbath.diagnostics import random_model
from heisenbath.dyson import compute_kernels
from heisenbath._blockops import bath_trace
from heisenbath.npoint import expand_image_by_partitions
from heisenbath.spaces import TimeGrid
from heisenbath.superop import (
    SeriesTruncation,
    image_from_one_point,
    one_point_operator,
    star_of_observables,
    star_product,
)
from helpers import lift_at, one_point_at, random_hermitian

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None, database=None)

seeds = st.integers(min_value=0, max_value=2**16)
dims = st.integers(min_value=1, max_value=4)
nontrivial_dims = st.integers(min_value=2, max_value=4)
orders = st.integers(min_value=0, max_value=4)
times = st.floats(min_value=0.3, max_value=1.2)


def _setup(seed: int, d_s: int, d_b: int, order: int, stop: float):
    m, obs = random_model(seed, d_s, d_b)
    return m, obs, compute_kernels(m, order, TimeGrid.linspace(stop, 5))


def _free(m, o: np.ndarray, t: float) -> np.ndarray:
    """``U0(t)^dag o U0(t)`` from an eigendecomposition of H0."""
    e, v = np.linalg.eigh(m.h0.mat)
    u0 = (v * np.exp(-1j * e * t / m.constants.hbar)) @ v.conj().T
    return u0.conj().T @ o @ u0


@PROPERTY
@given(seed=seeds, d_s=nontrivial_dims, d_b=nontrivial_dims, order=st.integers(1, 4), t=times)
def test_roundtrip_misses_free_evolution_at_next_order(seed, d_s, d_b, order, t):
    """The series inversion (`lift_values`) of a one-point value misses ``U0^dag O U0`` by
    O(lam^(N+1)): halving lam divides the error by at least 2^(N+0.5).
    Both dimensions are at least 2: at d_S = 1 the error vanishes, and at
    d_B = 1 the coupling is a system term whose order-3 error can sink to
    1e-13 at these couplings, too near rounding for a ratio.  At order 0
    the inversion is the identity and the error vanishes; order 4 halves
    from 0.08, since its error at 0.01 sinks towards rounding."""
    m, obs, ks = _setup(seed, d_s, d_b, order, t)
    free = _free(m, obs, t)
    errors = []
    for lam in (0.08, 0.04) if order == 4 else (0.02, 0.01):
        trunc = SeriesTruncation(order, lam)
        back = lift_at(one_point_at(obs, trunc, ks, m.rho_b, t), trunc, ks, m.rho_b, t)[0]
        errors.append(np.max(np.abs(back - free)))
    assert errors[1] > 1e-11, errors
    assert errors[0] / errors[1] >= 2 ** (order + 0.5), errors


@PROPERTY
@given(seed=seeds, d_s=dims, d_b=dims, order=orders, t=times, lam=st.sampled_from([0.05, 0.1, 0.2]))
def test_partition_sum_cancels_and_matches_the_superoperator_image(seed, d_s, d_b, order, t, lam):
    """The partition sum contracts back to the one-point value (cancellation)
    and equals the super-operator image family (dual bookkeeping), to 1e-12."""
    m, obs, ks = _setup(seed, d_s, d_b, order, t)
    trunc = SeriesTruncation(order, lam)
    traj = one_point_operator(obs, trunc, ks, m.rho_b, ks.grid)
    family = expand_image_by_partitions(traj, order, ks, m.rho_b, t)
    value = one_point_at(obs, trunc, ks, m.rho_b, t)
    assert np.max(np.abs(bath_trace(family.matrix, m.rho_b) - value)) < 1e-12
    assert np.max(np.abs(family.matrix - image_from_one_point(traj, ks, m.rho_b, t).matrix)) < 1e-12


@PROPERTY
@given(seed=seeds, d_s=dims, d_b=dims, order=orders, legs=st.lists(times, min_size=1, max_size=3))
def test_uncoupled_star_is_the_product_of_free_evolutions(seed, d_s, d_b, order, legs):
    """At lam = 0 a star product is the plain product of ``U0^dag A U0``."""
    m, _, ks = _setup(seed, d_s, d_b, order, max(legs))
    rng = np.random.default_rng(seed)
    observables = [random_hermitian(rng, d_s) for _ in legs]
    trunc = SeriesTruncation(order, 0.0)
    factors = [(one_point_operator(o, trunc, ks, m.rho_b, ks.grid), t) for o, t in zip(observables, legs)]
    expected = functools.reduce(np.matmul, [_free(m, o, t) for o, t in zip(observables, legs)])
    star = star_product(factors, ks, m.rho_b).mat
    assert np.max(np.abs(star - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))


@PROPERTY
@given(seed=seeds, d_s=dims, d_b=dims, order=orders, t1=times, t2=times, lam=st.sampled_from([0.05, 0.1, 0.3]))
def test_adjoint_of_a_two_leg_star_reverses_its_legs(seed, d_s, d_b, order, t1, t2, lam):
    """For hermitian A and B, ``star(A@t1, B@t2)^dag = star(B@t2, A@t1)``."""
    m, a, ks = _setup(seed, d_s, d_b, order, max(t1, t2))
    b = random_hermitian(np.random.default_rng(seed), d_s)
    trunc = SeriesTruncation(order, lam)
    leg_a = (one_point_operator(a, trunc, ks, m.rho_b, ks.grid), t1)
    leg_b = (one_point_operator(b, trunc, ks, m.rho_b, ks.grid), t2)
    forward = star_product([leg_a, leg_b], ks, m.rho_b).mat
    backward = star_product([leg_b, leg_a], ks, m.rho_b).mat
    assert np.max(np.abs(forward.conj().T - backward)) < 1e-12 * max(1.0, np.max(np.abs(backward)))


@PROPERTY
@given(
    seed=seeds,
    d_s=st.integers(2, 3),
    d_b=st.integers(2, 3),
    order=st.integers(1, 3),
    t=times,
)
def test_equal_time_star_is_the_product_one_point_value_at_next_order(seed, d_s, d_b, order, t):
    """At equal times the deformed product is the one-point value of the plain
    product: ``star(A@t, B@t) - one_point_at(A B, t)`` is O(lam^(N+1)), so
    halving lam divides it by at least 2^(N+0.5)."""
    m, a, ks = _setup(seed, d_s, d_b, order, t)
    b = random_hermitian(np.random.default_rng(seed), d_s)
    defects = []
    for lam in (0.02, 0.01):
        trunc = SeriesTruncation(order, lam)
        star = star_of_observables([(a, t), (b, t)], trunc, ks, m.rho_b)
        defects.append(np.max(np.abs(star - one_point_at(a @ b, trunc, ks, m.rho_b, t))))
    assert defects[1] > 1e-11, defects
    assert defects[0] / defects[1] >= 2 ** (order + 0.5), defects
