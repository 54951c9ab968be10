"""Perturbative-vs-oracle validation sweeps.

Each check compares a perturbative quantity at truncation order n against
the exact oracle over a logarithmic coupling sweep and fits the error's
log-log slope; a correct order-n truncation scales as lambda^(n+1).  The
slope thresholds (n + 0.8) tolerate prefactor noise without letting an
order slip through.  Identity-type checks (cancellation, dual bookkeeping,
decomposition sum) are asserted at rounding level instead.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _blockops
from .model import ModelSpec, make_model
from .oracle import evolve_exact
from .dyson import KernelSet, compute_kernels
from .npoint import decompose_3pt, expand_image_by_partitions, irreducible_2pt
from .spaces import TimeGrid, full_operator, system_operator, weighted_bath_trace
from .superop import (
    SeriesTruncation,
    image_from_value,
    invert_one_point,
    one_point_operator,
    one_point_rhs,
    one_point_value,
    star_of_observables,
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


def _reduced(m: ModelSpec, full: np.ndarray) -> np.ndarray:
    return weighted_bath_trace(full_operator(full, m.hi.tag), m.rho_b).mat


def one_point_errors(m: ModelSpec, obs, t: float, order: int, ks: KernelSet, lams, exact) -> list[float]:
    def err(lam: float, x: np.ndarray) -> float:
        val = one_point_value(obs, SeriesTruncation(order, lam), ks, m.rho_b, t)
        return float(np.max(np.abs(val - _reduced(m, x[0]))))

    return [err(lam, x) for lam, x in zip(lams, exact)]


def star_errors(m: ModelSpec, obs, times, order: int, ks: KernelSet, lams, exact) -> list[float]:
    def err(lam: float, x: np.ndarray) -> float:
        st = star_of_observables([(obs, t) for t in times], SeriesTruncation(order, lam), ks, m.rho_b)
        return float(np.max(np.abs(st - _reduced(m, functools.reduce(np.matmul, x)))))

    return [err(lam, x) for lam, x in zip(lams, exact)]


def image_errors(m: ModelSpec, obs, t: float, order: int, ks: KernelSet, lams, exact) -> list[float]:
    def err(lam: float, x: np.ndarray) -> float:
        trunc = SeriesTruncation(order, lam)
        val = one_point_value(obs, trunc, ks, m.rho_b, t)
        fam = image_from_value(val, trunc, ks, m.rho_b, t)
        return float(np.max(np.abs(fam.blocks - _blockops.full_to_fam(x[0], m.dim_system, m.dim_bath))))

    return [err(lam, x) for lam, x in zip(lams, exact)]


def roundtrip_errors(m: ModelSpec, obs, t: float, order: int, ks: KernelSet, lams) -> list[float]:
    def err(lam: float) -> float:
        trunc = SeriesTruncation(order, lam)
        val = one_point_value(obs, trunc, ks, m.rho_b, t)
        back = invert_one_point(val, trunc, ks, m.rho_b, t)
        free = ks.frame.free_conjugate(np.asarray(obs, dtype=complex), t)
        return float(np.max(np.abs(back - free)))

    return [err(lam) for lam in lams]


def cumulant2_errors(
    m: ModelSpec, obs, t1: float, t2: float, order: int, ks: KernelSet, lams, exact
) -> list[float]:
    def err(lam: float, x: np.ndarray) -> float:
        irr = irreducible_2pt(m, obs, obs, t1, t2, SeriesTruncation(order, lam), ks=ks)
        ex_1, ex_2 = _reduced(m, x[0]), _reduced(m, x[1])
        return float(np.max(np.abs(irr.mat - (_reduced(m, x[0] @ x[1]) - ex_1 @ ex_2))))

    return [err(lam, x) for lam, x in zip(lams, exact)]


def rhs_fd_errors(m: ModelSpec, obs, t: float, order: int, ks: KernelSet, grid: TimeGrid, lams) -> list[float]:
    step = 1e-5 * max(1.0, t)

    def err(lam: float) -> float:
        trunc = SeriesTruncation(order, lam)
        traj = one_point_operator(obs, trunc, ks, m.rho_b, grid, "obs")
        rhs = one_point_rhs(traj, t, ks, m.rho_b).mat
        plus = one_point_value(obs, trunc, ks, m.rho_b, t + step)
        minus = one_point_value(obs, trunc, ks, m.rho_b, t - step)
        return float(np.max(np.abs(rhs - (plus - minus) / (2 * step))))

    return [err(lam) for lam in lams]


def cancellation_defect(m: ModelSpec, obs, t: float, n_max: int, lam: float, ks: KernelSet) -> float:
    trunc = SeriesTruncation(n_max, lam)
    grid = ks.grid
    traj = one_point_operator(obs, trunc, ks, m.rho_b, grid, "obs")
    fam = expand_image_by_partitions(traj, n_max, ks, m.rho_b, t)
    back = np.einsum("abij,ba->ij", fam.blocks, m.rho_b.mat)
    return float(np.max(np.abs(back - trajectory_value(traj, ks, m.rho_b, t))))


def dual_bookkeeping_defect(m: ModelSpec, obs, t: float, n_max: int, lam: float, ks: KernelSet) -> float:
    trunc = SeriesTruncation(n_max, lam)
    traj = one_point_operator(obs, trunc, ks, m.rho_b, ks.grid, "obs")
    by_parts = expand_image_by_partitions(traj, n_max, ks, m.rho_b, t)
    val = one_point_value(obs, trunc, ks, m.rho_b, t)
    by_series = image_from_value(val, trunc, ks, m.rho_b, t)
    return float(np.max(np.abs(by_parts.blocks - by_series.blocks)))


def decomposition_sum_defect(m: ModelSpec, obs, times, order: int, lam: float, ks: KernelSet) -> float:
    trunc = SeriesTruncation(order, lam)
    dec = decompose_3pt(m, obs, obs, obs, *times, trunc, ks=ks)
    star = star_of_observables([(obs, t) for t in times], trunc, ks, m.rho_b)
    return float(np.max(np.abs(dec.total - star)))


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

    slope_row(f"one_point_order{order}", one_point_errors(m, obs, t, order, ks, lams, at_t), order + 0.8)
    slope_row("star_n2_order1", star_errors(m, obs, (t1, t2), 1, ks, lams, at_t1_t2), 1.8)
    slope_row("star_n3_order1", star_errors(m, obs, (t1, t2, t3), 1, ks, lams, exact), 1.8)
    slope_row(f"image_order{order}", image_errors(m, obs, t, order, ks, lams, at_t), order + 0.8)
    slope_row(f"roundtrip_order{order}", roundtrip_errors(m, obs, t, order, ks, lams), order + 0.8)
    slope_row(
        f"cumulant2_order{order}", cumulant2_errors(m, obs, t1, t2, order, ks, lams, at_t1_t2), order + 0.8
    )

    for n in range(order + 2):
        defect_row(f"cancellation_n{n}", cancellation_defect(m, obs, t, n, 0.1, ks), 1e-12)
        defect_row(f"dual_bookkeeping_n{n}", dual_bookkeeping_defect(m, obs, t, n, 0.1, ks), 1e-12)
    defect_row(
        "decompose_3pt_sum", decomposition_sum_defect(m, obs, (t1, t2, t3), order, 0.1, ks), 1e-12
    )

    fd_errs = rhs_fd_errors(m, obs, t, order, ks, grid, lams)
    c_fit = max(e / lam ** (order + 1) for e, lam in zip(fd_errs[:2], lams[:2]))
    defect_row(f"rhs_fd_order{order}", fd_errs[2], max(1e-6, 2.0 * c_fit * lams[2] ** (order + 1)))
    return rows
