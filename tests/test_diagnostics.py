"""The validation suite's shared series results."""

import collections

import pytest

import numpy as np

from heisenbath import diagnostics, dyson, npoint, superop
from heisenbath.diagnostics import (
    DEFAULT_LAMBDAS,
    SeriesResults,
    cancellation_defect,
    cumulant2_errors,
    decomposition_sum_defect,
    dual_bookkeeping_defect,
    fit_slope,
    image_errors,
    one_point_errors,
    random_model,
    rhs_fd_errors,
    roundtrip_errors,
    star_errors,
    validation_suite,
)
from heisenbath.dyson import compute_kernels
from heisenbath.oracle import evolve_exact
from heisenbath.spaces import TimeGrid
from helpers import loop_validation_errors


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
    that one call, and so is each one-point series evaluation; no
    one-coupling one-point value is left in a suite, the roundtrip row
    reads the inversion the shared lift already ran, and the kernel row of
    each time is fetched once.  The engine takes kernel rows, so a call is
    keyed by the bytes of its rows: equal bytes mean the same time."""
    lifts = _record(
        monkeypatch, "_lift_observable", lambda o, order, lams, ks, rho_b, row: (order, row.tobytes(), lams)
    )
    values = _record(
        monkeypatch, "_one_point_values", lambda o, order, lams, ks, rho_b, rows: (order, rows.tobytes(), lams)
    )
    singles = _record(monkeypatch, "one_point_value", lambda o, trunc, ks, rho_b, t: (trunc.order, trunc.lam, t))
    inversions = _record(monkeypatch, "invert_one_point", lambda v, trunc, ks, rho_b, t: (trunc.order, trunc.lam, t))
    rows = []
    fetch = dyson.KernelSet.row
    monkeypatch.setattr(dyson.KernelSet, "row", lambda ks, t: rows.append(float(t)) or fetch(ks, t))
    validation_suite(3, 2, 3, order=2)
    for calls in (lifts, values):
        repeated = {k: n for k, n in collections.Counter(calls).items() if n > 1}
        assert calls and not repeated
        assert {lams for *_, lams in calls} == {DEFAULT_LAMBDAS}
    assert rows and len(rows) == len(set(rows))
    assert not singles
    assert not inversions


def test_validation_suite_makes_five_exponentials(monkeypatch):
    """The shared step, then one exact step to each off-grid time of a (2, 3)
    order-2 suite: t1, t2 and the local-RHS row's t +- step."""
    calls = []
    real = dyson.toeplitz_expm
    monkeypatch.setattr(dyson, "toeplitz_expm", lambda a: calls.append(1) or real(a))
    validation_suite(3, 2, 3, order=2)
    assert len(calls) == 5


@pytest.mark.parametrize("order", [1, 2, 3])
def test_suite_times_lift_in_one_call(monkeypatch, order):
    """A lift at any of the suite times (t1, t2, t) lifts all three in one
    engine call, and each time's value, inversion and family equal the lone
    `_lift_observable` at that time bit for bit."""
    m, obs = random_model(4, 3, 2)
    ks = compute_kernels(m, 3, TimeGrid.linspace(1.65, 7))
    times = (0.44, 0.88, 1.1)
    calls = _record(monkeypatch, "_lift_observable", lambda o, order, lams, ks, rho_b, rows: len(rows))
    series = SeriesResults(m, obs, ks, DEFAULT_LAMBDAS, times)
    lifted = [series.lift(order, t) for t in times]
    assert calls == [3]
    for t, (values, inverses, families) in zip(times, lifted):
        lone = [x[0] for x in superop._lift_observable(series.obs, order, series.lams, ks, m.rho_b, ks.row(t)[None])]
        assert np.array_equal(values, lone[0])
        assert np.array_equal(inverses, lone[1])
        assert np.array_equal(families, lone[2])


def test_column_outside_the_sweep_rejected():
    m, obs = random_model(4, 2, 2)
    series = SeriesResults(m, obs, compute_kernels(m, 1, TimeGrid.linspace(1.0, 3)), (0.1, 0.01))
    with pytest.raises(KeyError, match="not in the sweep"):
        series.column(0.5)


@pytest.mark.parametrize("seed,d_s,d_b", [(3, 2, 3), (5, 3, 2)])
def test_suite_rows_equal_unshared_helpers(seed, d_s, d_b):
    """Every suite row, bit for bit, from the helpers each given a fresh `SeriesResults`."""
    order, t, lams = 2, 1.1, DEFAULT_LAMBDAS
    rows = validation_suite(seed, d_s, d_b, order=order, t=t)
    m, obs = random_model(seed, d_s, d_b)
    ks = compute_kernels(m, 3, TimeGrid.linspace(1.5 * t, 7))

    def fresh():
        return SeriesResults(m, obs, ks)

    t1, t2 = 0.4 * t, 0.8 * t
    exact = evolve_exact(m, [obs], (t1, t2, t), lams)
    at_t, at_t1_t2 = exact[:, 2:], exact[:, :2]
    expected = {
        "one_point_order2": fit_slope(lams, one_point_errors(fresh(), t, order, lams, at_t)),
        "star_n2_order1": fit_slope(lams, star_errors(fresh(), (t1, t2), 1, lams, at_t1_t2)),
        "star_n3_order1": fit_slope(lams, star_errors(fresh(), (t1, t2, t), 1, lams, exact)),
        "image_order2": fit_slope(lams, image_errors(fresh(), t, order, lams, at_t)),
        "roundtrip_order2": fit_slope(lams, roundtrip_errors(fresh(), t, order, lams)),
        "cumulant2_order2": fit_slope(lams, cumulant2_errors(fresh(), t1, t2, order, lams, at_t1_t2)),
        "decompose_3pt_sum": decomposition_sum_defect(fresh(), (t1, t2, t), order, 0.1),
        "rhs_fd_order2": rhs_fd_errors(fresh(), t, order, lams)[2],
    }
    for n in range(order + 2):
        expected[f"cancellation_n{n}"] = cancellation_defect(fresh(), t, n, 0.1)
        expected[f"dual_bookkeeping_n{n}"] = dual_bookkeeping_defect(fresh(), t, n, 0.1)
    assert {r["check"]: r["value"] for r in rows} == expected


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("seed,d_s,d_b", [(3, 2, 3), (5, 3, 2)])
def test_helpers_equal_per_coupling_loops(seed, d_s, d_b, order):
    """Each error helper's array over the sweep, and each defect, equals the
    per-coupling loop of `helpers.loop_validation_errors` bit for bit."""
    t, lams = 1.1, DEFAULT_LAMBDAS
    times = t1, t2, _ = (0.4 * t, 0.8 * t, t)
    m, obs = random_model(seed, d_s, d_b)
    series = SeriesResults(m, obs, compute_kernels(m, 3, TimeGrid.linspace(1.5 * t, 7)), lams, times)
    exact = evolve_exact(m, [obs], times, lams)
    got = {
        "one_point": one_point_errors(series, t, order, lams, exact[:, 2:]),
        "star_n2": star_errors(series, (t1, t2), order, lams, exact[:, :2]),
        "star_n3": star_errors(series, times, order, lams, exact),
        "image": image_errors(series, t, order, lams, exact[:, 2:]),
        "roundtrip": roundtrip_errors(series, t, order, lams),
        "cumulant2": cumulant2_errors(series, t1, t2, order, lams, exact[:, :2]),
        "rhs_fd": rhs_fd_errors(series, t, order, lams),
        "decompose_3pt_sum": decomposition_sum_defect(series, times, order, 0.1),
    }
    for n in range(order + 2):
        got[f"cancellation_n{n}"] = cancellation_defect(series, t, n, 0.1)
        got[f"dual_bookkeeping_n{n}"] = dual_bookkeeping_defect(series, t, n, 0.1)
    assert got == loop_validation_errors(series, times, order, lams, exact, 0.1)


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
