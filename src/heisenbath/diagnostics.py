"""Perturbative-vs-oracle validation sweeps.

Each check compares a perturbative quantity at truncation order n against
the exact oracle over a logarithmic coupling sweep and fits the error's
log-log slope; a correct order-n truncation scales as lambda^(n+1).  The
slope thresholds (n + 0.8) tolerate prefactor noise without letting an
order slip through.  Identity-type checks (cancellation, dual bookkeeping,
decomposition sum) are asserted at rounding level instead.

The rows of one suite read their series quantities from one `SeriesResults`
built from the suite's model, observable, kernels, coupling sweep and
times.  The series engine carries a leading coupling axis and a leading
leg axis, so the object lifts every suite time ``(t1, t2, t)`` of an order
in one call for all couplings of the sweep (one-point values, then their
series inversions and image families) and expands every partition sum
once, each suffix length of it in one batched call; the one-point, image,
roundtrip, star, cumulant, bookkeeping and decomposition rows all read
these results, and the local-RHS row evaluates its RHS and its ``t +-
step`` values for the whole sweep in one call each.  The exact references
come from one `evolve_exact` call for the whole sweep (`exact_sweep`).
Every coupling and time gets the bits the one-coupling, one-time functions
of `superop` give it.  The cumulant and decomposition arithmetic is
`npoint`'s, applied to the shared legs.  The object lives for one suite
call and holds no state beyond it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _blockops
from .model import ModelSpec, make_model
from .oracle import evolve_exact
from .dyson import KernelSet, compute_kernels
from .images import ImageFamily
from .npoint import _PartitionWords, _cumulant_2pt, _decompose_3pt
from .spaces import TimeGrid, system_operator
from .superop import (
    SeriesTruncation,
    _lift_observable,
    _obs_matrix,
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


def exact_sweep(m: ModelSpec, obs, times, lams) -> np.ndarray:
    """Exact full-space ``O(t)`` at ``times`` for each coupling in ``lams``,
    shape ``(len(lams), len(times), D, D)``.

    One `evolve_exact` call for the whole sweep: one free Hamiltonian and one
    batched eigendecomposition.  The ``exact`` argument of an ``*_errors``
    helper is this sweep at the helper's own times.
    """
    return evolve_exact(m, [system_operator(obs, (m.dim_system, m.dim_bath))], times, lams)


class SeriesResults:
    """Series quantities of one model, observable and kernel set over a coupling sweep.

    ``lams`` is the sweep and ``times`` the times lifted together.  Every
    result holds all of its couplings, computed by one call of the series
    engine: lifts are keyed by ``(order, t)``, a lift at one of ``times``
    lifts all of them at that order (a leg each), and each time's kernel
    row is fetched once.  Each method computes its result on first request
    and returns the same arrays to every later one, so callers must not
    write into them.  The arithmetic of each coupling and leg is the series
    layer's, so a row reads the same bits from a shared object as from a
    fresh one, from a sweep as from its couplings one at a time, and from
    several legs as from each time alone.
    """

    def __init__(self, m: ModelSpec, obs, ks: KernelSet, lams=DEFAULT_LAMBDAS, times=()):
        self.m, self.obs, self.ks = m, _obs_matrix(obs), ks
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

    def _lift(self, order: int, t: float) -> tuple[np.ndarray, np.ndarray, list[ImageFamily]]:
        t = float(t)
        if (order, t) not in self._lifts:
            legs = self.times if t in self.times else (t,)
            rows = np.stack([self.row(s) for s in legs])
            lifted = _lift_observable(self.obs, order, self.lams, self.ks, self.m.rho_b, rows)
            for s, values, inverses, families in zip(legs, *lifted):
                self._lifts[order, s] = (values, inverses, [ImageFamily(f, self.ks.dim_bath, s) for f in families])
        return self._lifts[order, t]

    def lift(self, order: int, lam: float, t: float) -> tuple[np.ndarray, ImageFamily]:
        """One-point value at ``t`` and the image family the series inversion lifts it to."""
        values, _, families = self._lift(order, t)
        k = self.column(lam)
        return values[k], families[k]

    def inverse(self, order: int, lam: float, t: float) -> np.ndarray:
        """``inv[order]``: the series inversion of the one-point value, taken by the same lift."""
        return self._lift(order, t)[1][self.column(lam)]

    def values(self, order: int, t: float) -> np.ndarray:
        """One-point values at ``t`` of every coupling, ``(n_lam, d_S, d_S)``."""
        return self._lift(order, t)[0]

    def partitions(self, n_max: int, lam: float, t: float) -> ImageFamily:
        """Partition-sum image family at ``t`` of the order-``n_max`` trajectory."""
        key = (n_max, lam, t)
        if key not in self._partitions:
            value = self.values(n_max, t)[self.column(lam)]
            words = _PartitionWords(value, SeriesTruncation(n_max, lam), self.ks, self.m.rho_b, self.row(t))
            self._partitions[key] = ImageFamily(words.image(n_max), self.ks.dim_bath, t)
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
    rhs = _one_point_rhs(series.values(order, t), order, series.lams, ks, rho_b, series.row(t))
    rows = ks.eigen_rows(np.array([t + step, t - step]))
    plus, minus = _one_point_values(series.obs, order, series.lams, ks, rho_b, rows).swapaxes(0, 1)
    fd = (plus - minus) / (2 * step)
    return [float(np.max(np.abs(rhs[k] - fd[k]))) for k in map(series.column, lams)]


def cancellation_defect(series: SeriesResults, t: float, n_max: int, lam: float) -> float:
    fam = series.partitions(n_max, lam, t)
    back = _blockops.bath_trace(fam.matrix, series.m.rho_b.mat)
    value = series.values(n_max, t)[series.column(lam)]
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
    t1, t2, t3 = 0.4 * t, 0.8 * t, t
    series = SeriesResults(m, obs, ks, (*lams, DEFECT_LAMBDA), (t1, t2, t3))
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
        defect_row(f"cancellation_n{n}", cancellation_defect(series, t, n, DEFECT_LAMBDA), 1e-12)
        defect_row(f"dual_bookkeeping_n{n}", dual_bookkeeping_defect(series, t, n, DEFECT_LAMBDA), 1e-12)
    triple = decomposition_sum_defect(series, (t1, t2, t3), order, DEFECT_LAMBDA)
    defect_row("decompose_3pt_sum", triple, 1e-12)

    fd_errs = rhs_fd_errors(series, t, order, lams)
    c_fit = max(e / lam ** (order + 1) for e, lam in zip(fd_errs[:2], lams[:2]))
    defect_row(f"rhs_fd_order{order}", fd_errs[2], max(1e-6, 2.0 * c_fit * lams[2] ** (order + 1)))
    return rows
