"""Perturbative-vs-oracle validation sweeps.

Each check compares a perturbative quantity at truncation order n against
the exact oracle over a logarithmic coupling sweep and fits the error's
log-log slope; a correct order-n truncation scales as lambda^(n+1).  The
slope thresholds (n + 0.8) tolerate prefactor noise without letting an
order slip through.  Identity-type checks (cancellation, dual bookkeeping,
decomposition sum) are asserted at rounding level instead.

The rows of one suite read their series quantities from one `SeriesResults`
(model, observable, kernels, coupling sweep and times), which lives for one
suite call.  Between the layers a family is its matrix: the object lifts
every suite time ``(t1, t2, t)`` of an order in one engine call for the
whole sweep, and returns one-point values, inversions and image-family
matrices with a leading coupling axis; each partition sum is expanded once.
The exact references are one `evolve_exact` call for the sweep,
``evolve_exact(m, [obs], times, lams)`` of shape ``(n_lam, n_t, D, D)``;
the ``exact`` argument of an ``*_errors`` helper is that array at the
helper's own times, a slice such as ``exact[:, 2:]``.  So each
``*_errors`` row is one array expression over the sweep, closed by one
max-abs per coupling.  The series legs chain through `chain_contract` and
the `npoint` cumulant arithmetic, the exact legs through the oracle's own
`reduced_product`, so a fault in the series chain cannot cancel.  Every
coupling and time gets the bits the one-coupling, one-time functions of
`superop` give it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _blockops
from .model import ModelSpec, make_model
from .oracle import evolve_exact, reduced_product
from .dyson import KernelSet, compute_kernels
from .npoint import _PartitionWords, _cumulant_2pt, _decompose_3pt
from .spaces import TimeGrid, system_matrix
from .superop import (
    SeriesTruncation,
    _lift_observable,
    _one_point_rhs,
    _one_point_values,
    chain_contract,
)

DEFAULT_LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4)
DEFECT_LAMBDA = 0.1  # the coupling of the rounding-level identity rows


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
    """Least-squares slope of log10(error) against log10(lambda), in closed form:
    ``sum (x - mean x)(y - mean y) / sum (x - mean x)^2``."""
    x = np.log10(np.asarray(lams, dtype=float))
    y = np.log10(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


class SeriesResults:
    """Series quantities of one model, observable and kernel set over a coupling sweep.

    ``lams`` is the sweep and ``times`` the times lifted together.  A lift
    holds every coupling on a leading axis (`columns` gives positions on
    it); a lift at one of ``times`` lifts all of them at that order in one
    engine call, and each time's kernel row is fetched once.  Results are
    computed on first request and shared, so callers must not write into
    them.  A row reads the same bits from a shared object as from a fresh
    one, from a sweep as from its couplings one at a time, and from several
    legs as from each time alone.
    """

    def __init__(self, m: ModelSpec, obs, ks: KernelSet, lams=DEFAULT_LAMBDAS, times=()):
        self.m, self.obs, self.ks = m, system_matrix(obs), ks
        self.lams = tuple(dict.fromkeys(float(lam) for lam in lams))
        self.times = tuple(dict.fromkeys(float(t) for t in times))
        self.row = functools.cache(ks.row)  # the kernel row at a time
        self._lifts: dict = {}
        self._partitions: dict = {}

    def column(self, lam: float) -> int:
        """Position of ``lam`` on the coupling axis of the sweep."""
        if lam not in self.lams:
            raise KeyError(f"coupling {lam!r} is not in the sweep {self.lams}")
        return self.lams.index(lam)

    def columns(self, lams) -> list[int]:
        """Positions of ``lams`` on the coupling axis of the sweep."""
        return [self.column(lam) for lam in lams]

    def lift(self, order: int, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One-point values at ``t`` ``(n_lam, d_S, d_S)``, their series inversions
        ``inv[order]`` (same shape) and the image-family matrices the inversions
        lift them to ``(n_lam, D, D)``, for every coupling of the sweep."""
        t = float(t)
        if (order, t) not in self._lifts:
            legs = self.times if t in self.times else (t,)
            rows = np.stack([self.row(s) for s in legs])
            lifted = _lift_observable(self.obs, order, self.lams, self.ks, self.m.rho_b, rows)
            for s, *leg in zip(legs, *lifted):
                self._lifts[order, s] = tuple(leg)
        return self._lifts[order, t]

    def partitions(self, n_max: int, lam: float, t: float) -> np.ndarray:
        """Partition-sum image-family matrix ``(D, D)`` at ``t`` of the order-``n_max`` trajectory."""
        key = (n_max, lam, t)
        if key not in self._partitions:
            value = self.lift(n_max, t)[0][self.column(lam)]
            words = _PartitionWords(value, SeriesTruncation(n_max, lam), self.ks, self.m.rho_b, self.row(t))
            self._partitions[key] = words.image(n_max)
        return self._partitions[key]


def _legs(series: SeriesResults, order: int, times, lams) -> tuple[np.ndarray, np.ndarray]:
    """One-point values ``(n_t, n_lam, d_S, d_S)`` and image-family matrices
    ``(n_t, n_lam, D, D)`` at ``times`` and the couplings ``lams``."""
    k = series.columns(lams)
    values, _, mats = zip(*(series.lift(order, t) for t in times))
    return np.stack(values)[:, k], np.stack(mats)[:, k]


def _max_abs(x: np.ndarray):
    """Largest entry modulus of each matrix of ``x`` ``(..., m, n)``, as Python floats."""
    return np.max(np.abs(x), axis=(-2, -1)).tolist()


def one_point_errors(series: SeriesResults, t: float, order: int, lams, exact) -> list[float]:
    values, _ = _legs(series, order, (t,), lams)
    return _max_abs(values[0] - _blockops.bath_trace(exact[:, 0], series.m.rho_b))


def star_errors(series: SeriesResults, times, order: int, lams, exact) -> list[float]:
    _, mats = _legs(series, order, times, lams)
    rho_b = series.m.rho_b
    return _max_abs(chain_contract(mats, rho_b) - reduced_product(exact.swapaxes(0, 1), rho_b))


def image_errors(series: SeriesResults, t: float, order: int, lams, exact) -> list[float]:
    _, mats = _legs(series, order, (t,), lams)
    return _max_abs(mats[0] - exact[:, 0])


def roundtrip_errors(series: SeriesResults, t: float, order: int, lams) -> list[float]:
    free = series.ks.frame.free_conjugate(np.asarray(series.obs, dtype=complex), t)
    return _max_abs(series.lift(order, t)[1][series.columns(lams)] - free)


def cumulant2_errors(series: SeriesResults, t1: float, t2: float, order: int, lams, exact) -> list[float]:
    values, mats = _legs(series, order, (t1, t2), lams)
    rho_b, legs = series.m.rho_b, exact.swapaxes(0, 1)
    reduced = _blockops.bath_trace(legs, rho_b)
    exact_cumulant = reduced_product(legs, rho_b) - reduced[0] @ reduced[1]
    return _max_abs(_cumulant_2pt(values, mats, rho_b) - exact_cumulant)


def rhs_fd_errors(series: SeriesResults, t: float, order: int, lams) -> list[float]:
    ks, rho_b = series.ks, series.m.rho_b
    step = 1e-5 * max(1.0, t)
    rhs = _one_point_rhs(series.lift(order, t)[0], order, series.lams, ks, rho_b, series.row(t))
    rows = ks.eigen_rows(np.array([t + step, t - step]))
    plus, minus = _one_point_values(series.obs, order, series.lams, ks, rho_b, rows).swapaxes(0, 1)
    k = series.columns(lams)
    return _max_abs(rhs[k] - ((plus - minus) / (2 * step))[k])


def cancellation_defect(series: SeriesResults, t: float, n_max: int, lam: float) -> float:
    back = _blockops.bath_trace(series.partitions(n_max, lam, t), series.m.rho_b)
    return _max_abs(back - series.lift(n_max, t)[0][series.column(lam)])


def dual_bookkeeping_defect(series: SeriesResults, t: float, n_max: int, lam: float) -> float:
    return _max_abs(series.partitions(n_max, lam, t) - series.lift(n_max, t)[2][series.column(lam)])


def decomposition_sum_defect(series: SeriesResults, times, order: int, lam: float) -> float:
    values, mats = _legs(series, order, times, (lam,))
    parts = _decompose_3pt(values, mats, series.m.rho_b)
    return _max_abs(sum(parts) - chain_contract(mats, series.m.rho_b))[0]


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
    t1, t2, t3 = 0.4 * t, 0.8 * t, t
    series = SeriesResults(m, obs, ks, (*lams, DEFECT_LAMBDA), (t1, t2, t3))
    exact = evolve_exact(m, [obs], (t1, t2, t3), lams)
    at_t, at_t1_t2 = exact[:, 2:], exact[:, :2]
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
        defect_row(f"cancellation_n{n}", cancellation_defect(series, t, n, DEFECT_LAMBDA), 1e-12)
        defect_row(f"dual_bookkeeping_n{n}", dual_bookkeeping_defect(series, t, n, DEFECT_LAMBDA), 1e-12)
    triple = decomposition_sum_defect(series, (t1, t2, t3), order, DEFECT_LAMBDA)
    defect_row("decompose_3pt_sum", triple, 1e-12)

    fd_errs = rhs_fd_errors(series, t, order, lams)
    c_fit = max(e / lam ** (order + 1) for e, lam in zip(fd_errs[:2], lams[:2]))
    defect_row(f"rhs_fd_order{order}", fd_errs[2], max(1e-6, 2.0 * c_fit * lams[2] ** (order + 1)))
    return rows
