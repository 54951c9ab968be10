"""The validation suite's shared series results."""

import collections

import pytest

from heisenbath import diagnostics, npoint, superop
from heisenbath.diagnostics import (
    DEFAULT_LAMBDAS,
    SeriesResults,
    cancellation_defect,
    cumulant2_errors,
    decomposition_sum_defect,
    dual_bookkeeping_defect,
    exact_sweep,
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
from heisenbath.spaces import TimeGrid


def _count_calls(monkeypatch, name):
    """Record ``(order, lam, t)`` of every call to the superop function ``name``."""
    calls = []
    original = getattr(superop, name)

    def counted(o, trunc, ks, rho_b, t):
        calls.append((trunc.order, trunc.lam, float(t)))
        return original(o, trunc, ks, rho_b, t)

    for module in (superop, npoint, diagnostics):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_validation_suite_lifts_each_point_once(monkeypatch):
    """No ``(order, lam, t)`` reaches the one-point series or its inversion twice:
    the roundtrip row reads the inversion the shared lift already ran."""
    lifts = _count_calls(monkeypatch, "_lift_value")
    values = _count_calls(monkeypatch, "one_point_value")
    inversions = _count_calls(monkeypatch, "invert_one_point")
    validation_suite(3, 2, 3, order=2)
    for calls in (lifts, values):
        repeated = {k: n for k, n in collections.Counter(calls).items() if n > 1}
        assert calls and not repeated
    assert not inversions


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
    exact = exact_sweep(m, obs, (t1, t2, t), lams)
    at_t, at_t1_t2 = [x[2:] for x in exact], [x[:2] for x in exact]
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


# The suites closest to a slope threshold, found by running seeds 0-1199 at
# each dims and taking, per slope row, the suite of smallest margin
# (value - threshold): 1172 one_point 0.105, 165 roundtrip 0.137,
# 1049 cumulant 0.138, 220 image 0.143, 642 star_n3 0.178, 476 star_n2 0.181.
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
