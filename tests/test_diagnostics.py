"""The validation suite's lifts, rows and helpers."""

import collections

import pytest

import numpy as np

from heisenbath import _blockops, diagnostics, dyson, npoint, superop
from heisenbath.diagnostics import (
    DEFAULT_LAMBDAS,
    DEFECT_LAMBDA,
    cancellation_defect,
    cumulant2_errors,
    decomposition_sum_defect,
    dual_bookkeeping_defect,
    exact_cumulant,
    fit_slope,
    image_errors,
    one_point_errors,
    random_model,
    rhs_fd_errors,
    rounding_floor,
    roundtrip_errors,
    star_errors,
    validation_suite,
)
from heisenbath.dyson import compute_kernels
from heisenbath.oracle import evolve_exact, reduced_product
from heisenbath.spaces import TimeGrid
from helpers import lift_legs, loop_validation_errors, partition_image


def _record(monkeypatch, name, key):
    """Record ``key(*args)`` of every call to the superop function ``name``, wherever it is bound."""
    calls = []
    original = getattr(superop, name)

    def counted(*args):
        calls.append(key(*args))
        return original(*args)

    for module in (superop, npoint, diagnostics):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_validation_suite_lifts_each_point_once(monkeypatch):
    """Each ``(order, t)`` is lifted once, with every coupling of the sweep in
    that one call, or at `DEFECT_LAMBDA` alone, and so is each one-point
    series evaluation; the roundtrip row reads the inversion the shared
    lift already ran (every `lift_values` call is a lift's own), and the
    kernel row of each time is
    fetched once, in two `eigen_rows` calls: the suite's three times and
    the RHS check's two.  The engine takes kernel rows, so a call is
    keyed by the bytes of its rows: equal bytes mean the same time."""
    lifts = _record(
        monkeypatch, "lift_observable", lambda o, order, lams, ks, rho_b, row: (order, row.tobytes(), lams)
    )
    values = _record(
        monkeypatch, "one_point_values", lambda o, order, lams, ks, rho_b, rows: (order, rows.tobytes(), lams)
    )
    inversions = _record(monkeypatch, "lift_values", lambda v, order, lams, ks, rho_b, rows: (order, rows.tobytes(), lams))
    fetches = []
    fetch = dyson.KernelSet.eigen_rows
    monkeypatch.setattr(dyson.KernelSet, "eigen_rows", lambda ks, times: fetches.append(list(times)) or fetch(ks, times))
    validation_suite(3, 2, 3, order=2)
    for calls in (lifts, values):
        repeated = {k: n for k, n in collections.Counter(calls).items() if n > 1}
        assert calls and not repeated
        assert {lams for *_, lams in calls} == {DEFAULT_LAMBDAS, (DEFECT_LAMBDA,)}
    times = [float(t) for call in fetches for t in call]
    assert len(fetches) == 2 and len(times) == len(set(times)) == 5
    assert inversions == lifts


def test_validation_suite_makes_five_exponentials(monkeypatch):
    """The shared step, then one exact step to each off-grid time of a (2, 3)
    order-2 suite: t1, t2 and the local-RHS row's t +- step."""
    calls = []
    real = dyson.toeplitz_expm
    monkeypatch.setattr(dyson, "toeplitz_expm", lambda a: calls.append(1) or real(a))
    validation_suite(3, 2, 3, order=2)
    assert len(calls) == 5


@pytest.mark.parametrize("order", [1, 2, 3])
def test_suite_lifts_each_order_once_for_the_sweep(monkeypatch, order):
    """An order-N suite makes exactly one `lift_observable` call per order
    0..N+1.  Orders 1 and N, which its slope rows read, are lifted at the
    kernel rows of its three times and the four couplings of
    `DEFAULT_LAMBDAS`; every other order only at ``(t, DEFECT_LAMBDA)``, the
    one point its cancellation and dual-bookkeeping rows read."""
    calls = _record(monkeypatch, "lift_observable", lambda o, n, lams, ks, rho_b, rows: (n, len(rows), lams))
    validation_suite(3, 2, 3, order=order)
    swept = {1, order}
    expected = [(n, 3, DEFAULT_LAMBDAS) if n in swept else (n, 1, (DEFECT_LAMBDA,)) for n in range(order + 2)]
    assert sorted(calls) == expected


@pytest.mark.parametrize("order", [1, 2, 3])
def test_suite_times_lift_in_one_call(monkeypatch, order):
    """An order-N suite lifts its times (t1, t2, t) in one engine call for
    each of orders 1 and N, and each time's value, inversion and family equal
    the lone `lift_observable` at that time bit for bit (every other order is
    lifted at t alone)."""
    lifted, lift = [], superop.lift_observable

    def recorded(*args):
        lifted.append((args, lift(*args)))
        return lifted[-1][1]

    monkeypatch.setattr(diagnostics, "lift_observable", recorded)
    validation_suite(4, 3, 2, order=order)
    swept = [(args, out) for args, out in lifted if len(args[-1]) == 3]
    assert sorted(args[1] for args, _ in swept) == sorted({1, order})
    for (obs, n, lams, ks, rho_b, rows), out in swept:
        for row, values, inverses, families in zip(rows, *out):
            lone = [x[0] for x in superop.lift_observable(obs, n, lams, ks, rho_b, row[None])]
            assert np.array_equal(values, lone[0])
            assert np.array_equal(inverses, lone[1])
            assert np.array_equal(families, lone[2])


@pytest.mark.parametrize("seed,d_s,d_b", [(3, 2, 3), (5, 3, 2)])
def test_suite_rows_equal_unshared_helpers(seed, d_s, d_b):
    """Every suite row, bit for bit, from the helpers each given the arrays of
    its own lifts, every time lifted alone; each slope is fitted above the
    rounding floor of the exact quantity its row compares with."""
    order, t, lams = 2, 1.1, DEFAULT_LAMBDAS
    rows = validation_suite(seed, d_s, d_b, order=order, t=t)
    m, obs = random_model(seed, d_s, d_b)
    ks = compute_kernels(m, 3, TimeGrid.linspace(1.5 * t, 7))
    rho = m.rho_b

    def fresh(n, *times):  # values, inversions, families (n_leg, n_lam, ...), one lift per time
        lone = [lift_legs(m, obs, ks, n, (s,), lams) for s in times]
        return [np.concatenate(x) for x in zip(*lone)]

    t1, t2 = 0.4 * t, 0.8 * t
    exact = evolve_exact(m, [obs], (t1, t2, t), lams).swapaxes(0, 1)
    v12, _, f12 = fresh(order, t1, t2)
    v3, _, f3 = fresh(order, t1, t2, t)
    free = ks.frame.free_conjugate(obs, t)
    reduced = _blockops.bath_trace(exact[2], rho)
    expected = {
        "one_point_order2": fit_slope(
            lams, one_point_errors(fresh(order, t)[0][0], exact[2], rho), rounding_floor(order, reduced)
        ),
        "star_n2_order1": fit_slope(
            lams, star_errors(fresh(1, t1, t2)[2], exact[:2], rho), rounding_floor(1, reduced_product(exact[:2], rho))
        ),
        "star_n3_order1": fit_slope(
            lams, star_errors(fresh(1, t1, t2, t)[2], exact, rho), rounding_floor(1, reduced_product(exact, rho))
        ),
        "image_order2": fit_slope(lams, image_errors(fresh(order, t)[2][0], exact[2]), rounding_floor(order, exact[2])),
        "roundtrip_order2": fit_slope(
            lams, roundtrip_errors(fresh(order, t)[1][0], free), rounding_floor(order, free)
        ),
        "cumulant2_order2": fit_slope(
            lams, cumulant2_errors(v12, f12, exact[:2], rho), rounding_floor(order, exact_cumulant(exact[:2], rho))
        ),
        "decompose_3pt_sum": decomposition_sum_defect(v3[:, 0], f3[:, 0], rho),
        "rhs_fd_order2": rhs_fd_errors(obs, fresh(order, t)[0][0], order, lams, ks, rho, ks.eigen_rows([t])[0], t)[2],
    }
    for n in range(order + 2):
        value, _, mat = fresh(n, t)
        image = partition_image(value[0, 0], n, 0.1, ks, rho, ks.eigen_rows([t])[0])
        expected[f"cancellation_n{n}"] = cancellation_defect(image, value[0, 0], rho)
        expected[f"dual_bookkeeping_n{n}"] = dual_bookkeeping_defect(image, mat[0, 0])
    assert {r["check"]: r["value"] for r in rows} == expected


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("seed,d_s,d_b", [(3, 2, 3), (5, 3, 2)])
def test_helpers_equal_per_coupling_loops(seed, d_s, d_b, order):
    """Each error helper's array over the sweep, and each defect, equals the
    per-coupling loop of `helpers.loop_validation_errors` bit for bit."""
    t, lams = 1.1, DEFAULT_LAMBDAS
    times = t1, t2, _ = (0.4 * t, 0.8 * t, t)
    m, obs = random_model(seed, d_s, d_b)
    ks = compute_kernels(m, 3, TimeGrid.linspace(1.5 * t, 7))
    rho, row = m.rho_b, ks.eigen_rows([t])[0]
    lifts = [lift_legs(m, obs, ks, n, times, lams) for n in range(order + 2)]
    images = [partition_image(lift[0][2, 0], n, 0.1, ks, rho, row) for n, lift in enumerate(lifts)]
    exact = evolve_exact(m, [obs], times, lams)
    legs = exact.swapaxes(0, 1)
    values, inverses, mats = lifts[order]
    got = {
        "one_point": one_point_errors(values[2], legs[2], rho),
        "star_n2": star_errors(mats[:2], legs[:2], rho),
        "star_n3": star_errors(mats, legs, rho),
        "image": image_errors(mats[2], legs[2]),
        "roundtrip": roundtrip_errors(inverses[2], ks.frame.free_conjugate(obs, t)),
        "cumulant2": cumulant2_errors(values[:2], mats[:2], legs[:2], rho),
        "rhs_fd": rhs_fd_errors(obs, values[2], order, lams, ks, rho, row, t),
        "decompose_3pt_sum": decomposition_sum_defect(values[:, 0], mats[:, 0], rho),
    }
    for n, image in enumerate(images):
        got[f"cancellation_n{n}"] = cancellation_defect(image, lifts[n][0][2, 0], rho)
        got[f"dual_bookkeeping_n{n}"] = dual_bookkeeping_defect(image, lifts[n][2][2, 0])
    assert got == loop_validation_errors(m, obs, ks, lifts, images, times, lams, exact, 0.1)


# The suites closest to a slope threshold, found by running seeds 0-1199 at
# each dims and taking, per slope row, the suite of smallest margin
# (value - threshold): 1172 one_point 0.105, 165 roundtrip 0.137,
# 1049 cumulant 0.167, 220 image 0.143, 642 star_n3 0.178, 476 star_n2 0.181.
NEAR_THRESHOLD_SEEDS = {(2, 2): (165, 1049, 642, 476), (2, 3): (1172,), (3, 2): (220,)}


@pytest.mark.parametrize("d_s,d_b", [(2, 2), (2, 3), (3, 2)])
def test_order2_suites_pass_every_row(d_s, d_b):
    """The contract `heisenbath validate` is held to at order 2: every row of
    seeds 0-11 passes, and of the six suites of seeds 0-1199 that sit
    closest to a slope threshold (`NEAR_THRESHOLD_SEEDS`).  A rounding
    change that flips a floor-level slope fails this test rather than a
    validation run."""
    failing = [
        (seed, r["check"], r["value"], r["threshold"])
        for seed in (*range(12), *NEAR_THRESHOLD_SEEDS[(d_s, d_b)])
        for r in validation_suite(seed, d_s, d_b, order=2)
        if r["status"] != "pass"
    ]
    assert not failing


@pytest.mark.parametrize("seed", range(3))
def test_order3_suite_at_a_ladder_size_passes_every_row(seed):
    """At (d_S, d_B) = (4, 8), the benchmark's series size, an order-3 suite
    passes every row: its kernels reach order 4, and each slope is fitted
    above the rounding floor."""
    rows = validation_suite(seed, 4, 8, order=3)
    assert rows and not [(r["check"], r["value"], r["threshold"]) for r in rows if r["status"] != "pass"]
