"""Perturbative-vs-oracle validation sweeps.

Each check compares a perturbative quantity at truncation order n against
the exact oracle over a logarithmic coupling sweep and fits the error's
log-log slope; a correct order-n truncation scales as lambda^(n+1).  The
slope thresholds (n + 0.8) tolerate prefactor noise without letting an
order slip through.  Identity-type checks (cancellation, dual bookkeeping,
decomposition sum) are asserted at rounding level instead.

The rows of one suite read their series quantities from one `SeriesResults`
built from the suite's model, observable and kernels.  It lifts every
distinct ``(order, lam, t)`` once (one-point value, then its series
inversion and the image family of it), builds every one-point trajectory
over the kernel grid once and expands every partition sum once; the
one-point, image, roundtrip, star, cumulant, bookkeeping and decomposition
rows all read these results.  The cumulant and decomposition arithmetic is `npoint`'s, applied
to the shared legs.  The object lives for one suite call and holds no state
beyond it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _blockops
from .model import ModelSpec, make_model
from .oracle import evolve_exact
from .dyson import KernelSet, compute_kernels
from .images import ImageFamily
from .npoint import _cumulant_2pt, _decompose_3pt, expand_image_by_partitions
from .spaces import TimeGrid, system_operator
from .superop import (
    OnePointTrajectory,
    SeriesTruncation,
    _lift_value,
    chain_contract,
    one_point_operator,
    one_point_rhs,
    one_point_value,
    trajectory_value,
)

DEFAULT_LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4)


def random_model(seed: int, d_s: int, d_b: int, hbar: float = 1.0) -> tuple[ModelSpec, np.ndarray]:
    """Seeded random hermitian model plus a random hermitian observable."""
    rng = np.random.default_rng(seed)

    def herm(n: int) -> np.ndarray:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (a + a.conj().T) / 2

    w = rng.random(d_b) + 0.1
    rho_b = np.diag(w / w.sum())
    q, _ = np.linalg.qr(rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b)))
    rho_b = q @ rho_b @ q.conj().T
    m = make_model(herm(d_s), herm(d_b), herm(d_s * d_b), np.eye(d_s) / d_s, rho_b, hbar=hbar)
    return m, herm(d_s)


def fit_slope(lams, errors) -> float:
    """Least-squares slope of log10(error) against log10(lambda)."""
    x = np.log10(np.asarray(lams, dtype=float))
    y = np.log10(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def exact_sweep(m: ModelSpec, obs, times, lams) -> list[np.ndarray]:
    """Exact full-space ``O(t)`` at ``times`` for each coupling in ``lams``.

    One `evolve_exact` call, so one eigendecomposition, per coupling; each
    entry has shape ``(len(times), D, D)``.  The ``exact`` argument of an
    ``*_errors`` helper is this sweep at the helper's own times.
    """
    o_op = system_operator(obs, (m.dim_system, m.dim_bath))
    return [evolve_exact(m.with_coupling(lam), [o_op], times) for lam in lams]


class SeriesResults:
    """Series quantities of one model, observable and kernel set, each computed once.

    Each method computes its result on first request and returns the same
    arrays to every later one, so callers must not write into them.  The
    arithmetic is the series layer's, so a row reads the same bits from a
    shared object as from a fresh one.
    """

    def __init__(self, m: ModelSpec, obs, ks: KernelSet):
        self.m, self.obs, self.ks = m, obs, ks
        self._lifts: dict = {}
        self._trajectories: dict = {}
        self._partitions: dict = {}

    def _lift(self, order: int, lam: float, t: float) -> tuple[np.ndarray, np.ndarray, ImageFamily]:
        t = float(t)
        key = (order, lam, t)
        if key not in self._lifts:
            trunc = SeriesTruncation(order, lam)
            value = one_point_value(self.obs, trunc, self.ks, self.m.rho_b, t)
            self._lifts[key] = (value, *_lift_value(value, trunc, self.ks, self.m.rho_b, t))
        return self._lifts[key]

    def lift(self, order: int, lam: float, t: float) -> tuple[np.ndarray, ImageFamily]:
        """One-point value at ``t`` and the image family the series inversion lifts it to."""
        value, _, family = self._lift(order, lam, t)
        return value, family

    def inverse(self, order: int, lam: float, t: float) -> np.ndarray:
        """``inv[order]``: the series inversion of the one-point value, taken by the same lift."""
        return self._lift(order, lam, t)[1]

    def trajectory(self, order: int, lam: float) -> OnePointTrajectory:
        """One-point operator over the kernel grid."""
        key = (order, lam)
        if key not in self._trajectories:
            trunc = SeriesTruncation(order, lam)
            self._trajectories[key] = one_point_operator(
                self.obs, trunc, self.ks, self.m.rho_b, self.ks.grid, "obs"
            )
        return self._trajectories[key]

    def partitions(self, n_max: int, lam: float, t: float) -> ImageFamily:
        """Partition-sum image family at ``t`` of the order-``n_max`` trajectory."""
        key = (n_max, lam, t)
        if key not in self._partitions:
            traj = self.trajectory(n_max, lam)
            self._partitions[key] = expand_image_by_partitions(traj, n_max, self.ks, self.m.rho_b, t)
        return self._partitions[key]


def _reduced(m: ModelSpec, full: np.ndarray) -> np.ndarray:
    return _blockops.bath_trace(full, m.rho_b.mat)


def one_point_errors(series: SeriesResults, t: float, order: int, lams, exact) -> list[float]:
    def err(lam: float, x: np.ndarray) -> float:
        val, _ = series.lift(order, lam, t)
        return float(np.max(np.abs(val - _reduced(series.m, x[0]))))

    return [err(lam, x) for lam, x in zip(lams, exact)]


def star_errors(series: SeriesResults, times, order: int, lams, exact) -> list[float]:
    def err(lam: float, x: np.ndarray) -> float:
        st = chain_contract([series.lift(order, lam, t)[1] for t in times], series.m.rho_b)
        return float(np.max(np.abs(st - _reduced(series.m, functools.reduce(np.matmul, x)))))

    return [err(lam, x) for lam, x in zip(lams, exact)]


def image_errors(series: SeriesResults, t: float, order: int, lams, exact) -> list[float]:
    def err(lam: float, x: np.ndarray) -> float:
        _, fam = series.lift(order, lam, t)
        return float(np.max(np.abs(fam.matrix - x[0])))

    return [err(lam, x) for lam, x in zip(lams, exact)]


def roundtrip_errors(series: SeriesResults, t: float, order: int, lams) -> list[float]:
    def err(lam: float) -> float:
        back = series.inverse(order, lam, t)
        free = series.ks.frame.free_conjugate(np.asarray(series.obs, dtype=complex), t)
        return float(np.max(np.abs(back - free)))

    return [err(lam) for lam in lams]


def cumulant2_errors(series: SeriesResults, t1: float, t2: float, order: int, lams, exact) -> list[float]:
    m = series.m

    def err(lam: float, x: np.ndarray) -> float:
        values, lifted = zip(*(series.lift(order, lam, t) for t in (t1, t2)))
        irr = _cumulant_2pt(values, lifted, m.rho_b)
        ex_1, ex_2 = _reduced(m, x[0]), _reduced(m, x[1])
        return float(np.max(np.abs(irr - (_reduced(m, x[0] @ x[1]) - ex_1 @ ex_2))))

    return [err(lam, x) for lam, x in zip(lams, exact)]


def rhs_fd_errors(series: SeriesResults, t: float, order: int, lams) -> list[float]:
    ks, rho_b = series.ks, series.m.rho_b
    step = 1e-5 * max(1.0, t)

    def err(lam: float) -> float:
        trunc = SeriesTruncation(order, lam)
        rhs = one_point_rhs(series.trajectory(order, lam), t, ks, rho_b).mat
        plus = one_point_value(series.obs, trunc, ks, rho_b, t + step)
        minus = one_point_value(series.obs, trunc, ks, rho_b, t - step)
        return float(np.max(np.abs(rhs - (plus - minus) / (2 * step))))

    return [err(lam) for lam in lams]


def cancellation_defect(series: SeriesResults, t: float, n_max: int, lam: float) -> float:
    fam = series.partitions(n_max, lam, t)
    back = _blockops.bath_trace(fam.matrix, series.m.rho_b.mat)
    value = trajectory_value(series.trajectory(n_max, lam), series.ks, series.m.rho_b, t)
    return float(np.max(np.abs(back - value)))


def dual_bookkeeping_defect(series: SeriesResults, t: float, n_max: int, lam: float) -> float:
    by_parts = series.partitions(n_max, lam, t)
    _, by_series = series.lift(n_max, lam, t)
    return float(np.max(np.abs(by_parts.matrix - by_series.matrix)))


def decomposition_sum_defect(series: SeriesResults, times, order: int, lam: float) -> float:
    values, lifted = zip(*(series.lift(order, lam, t) for t in times))
    dec = _decompose_3pt(values, lifted, series.ks, series.m.rho_b)
    return float(np.max(np.abs(dec.total - chain_contract(lifted, series.m.rho_b))))


def validation_suite(
    seed: int,
    d_s: int = 2,
    d_b: int = 3,
    order: int = 2,
    t: float = 1.1,
    lams=DEFAULT_LAMBDAS,
) -> list[dict]:
    """Full defect table for one random model; each row carries pass/fail."""
    m, obs = random_model(seed, d_s, d_b)
    grid = TimeGrid.linspace(1.5 * t, 7)
    ks = compute_kernels(m, max(order, 3), grid)
    series = SeriesResults(m, obs, ks)
    t1, t2, t3 = 0.4 * t, 0.8 * t, t
    exact = exact_sweep(m, obs, (t1, t2, t3), lams)
    at_t = [x[2:] for x in exact]
    at_t1_t2 = [x[:2] for x in exact]
    rows: list[dict] = []

    def slope_row(check: str, errors: list[float], threshold: float):
        s = fit_slope(lams, errors)
        rows.append(
            {
                "check": check,
                "metric": "loglog_slope",
                "value": s,
                "threshold": threshold,
                "status": "pass" if s >= threshold else "fail",
            }
        )

    def defect_row(check: str, value: float, threshold: float):
        rows.append(
            {
                "check": check,
                "metric": "max_abs_defect",
                "value": value,
                "threshold": threshold,
                "status": "pass" if value <= threshold else "fail",
            }
        )

    slope_row(f"one_point_order{order}", one_point_errors(series, t, order, lams, at_t), order + 0.8)
    slope_row("star_n2_order1", star_errors(series, (t1, t2), 1, lams, at_t1_t2), 1.8)
    slope_row("star_n3_order1", star_errors(series, (t1, t2, t3), 1, lams, exact), 1.8)
    slope_row(f"image_order{order}", image_errors(series, t, order, lams, at_t), order + 0.8)
    slope_row(f"roundtrip_order{order}", roundtrip_errors(series, t, order, lams), order + 0.8)
    slope_row(f"cumulant2_order{order}", cumulant2_errors(series, t1, t2, order, lams, at_t1_t2), order + 0.8)

    for n in range(order + 2):
        defect_row(f"cancellation_n{n}", cancellation_defect(series, t, n, 0.1), 1e-12)
        defect_row(f"dual_bookkeeping_n{n}", dual_bookkeeping_defect(series, t, n, 0.1), 1e-12)
    defect_row("decompose_3pt_sum", decomposition_sum_defect(series, (t1, t2, t3), order, 0.1), 1e-12)

    fd_errs = rhs_fd_errors(series, t, order, lams)
    c_fit = max(e / lam ** (order + 1) for e, lam in zip(fd_errs[:2], lams[:2]))
    defect_row(f"rhs_fd_order{order}", fd_errs[2], max(1e-6, 2.0 * c_fit * lams[2] ** (order + 1)))
    return rows
