"""Perturbative-vs-oracle validation sweeps.

Each check compares a perturbative quantity at truncation order n against
the exact oracle over a logarithmic coupling sweep and fits the error's
log-log slope; a correct order-n truncation scales as lambda^(n+1).  The
slope thresholds (n + 0.8) tolerate prefactor noise without letting an
order slip through.  A fit reads only the couplings whose error lies above
the rounding budget ``64 (N+1) eps max(1, max|reference|)`` of the row's
order N (`rounding_floor`), the reference being the exact quantity the
row compares with: from order 3 on, the smallest couplings put the error
at that floor, where it no longer scales.  A row left with fewer than two
couplings reads slope 0 and fails.  Identity-type checks (cancellation,
dual bookkeeping, decomposition sum) are asserted at rounding level
instead.

A suite builds its kernels to order n + 1, fetches the kernel rows of its
times ``(t1, t2, t)`` in one `KernelSet.eigen_rows` call, and lifts every
order its rows read, 0..n+1, in one `superop.lift_observable` call per
order: one-point values, their series inversions and the image-family
matrices they lift to, each ``(n_leg, n_lam, ...)`` with the leg axis
first.  Orders 1 and n, which the slope rows read, are lifted at the three
times and every coupling of the sweep; every other order only at ``(t,
DEFECT_LAMBDA)``, the one point that its cancellation and dual-bookkeeping
rows read.  Each order's partition sum is expanded once, at that point, by
`npoint.PartitionWords`.  The exact references are one `evolve_exact`
call for the sweep, its legs first as well, ``(n_leg, n_lam, D, D)``.
Each ``*_errors`` and ``*_defect`` helper takes the arrays it compares,
so each row is one array expression over the sweep, closed by one max-abs
per coupling, and the suite writes its rows as one ``(check, metric,
value, threshold)`` table whose status is set in one place.  The series
legs chain through `chain_contract` and `npoint.cumulant_2pt`, the exact
legs through the oracle's own `reduced_product`, so a fault in the series
chain cannot cancel.  Every coupling and time gets the bits the one-coupling,
one-time functions of `superop` give it.
"""

from __future__ import annotations

import numpy as np

from . import _blockops
from .model import ModelSpec, make_model
from .oracle import evolve_exact, reduced_product
from .dyson import KernelSet, compute_kernels
from .npoint import PartitionWords, cumulant_2pt, decompose_3pt_parts
from .spaces import TimeGrid
from .superop import (
    SeriesTruncation,
    chain_contract,
    lift_observable,
    local_rhs,
    one_point_values,
)

DEFAULT_LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4)
DEFECT_LAMBDA = DEFAULT_LAMBDAS[0]  # the coupling of the rounding-level identity rows


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


def rounding_floor(order: int, reference) -> float:
    """The rounding budget ``64 (N+1) eps max(1, max|reference|)`` of an order-N
    result whose exact value is ``reference``: an error at or below it is rounding."""
    return 64 * (order + 1) * np.finfo(float).eps * max(1.0, float(np.max(np.abs(reference))))


def fit_slope(lams, errors, floor: float = 0.0) -> float:
    """Least-squares slope of log10(error) against log10(lambda) over the couplings
    whose error is not at or below ``floor``, in closed form: ``sum (x - mean
    x)(y - mean y) / sum (x - mean x)^2``.  A NaN error stays in the fit, so
    it makes the slope NaN.  With fewer than two couplings left there is no
    slope, and the fit reads 0, below every slope threshold."""
    errors = np.asarray(errors, dtype=float)
    fitted = ~(errors <= floor)
    if np.count_nonzero(fitted) < 2:
        return 0.0
    x = np.log10(np.asarray(lams, dtype=float)[fitted])
    y = np.log10(errors[fitted])
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


def _max_abs(x: np.ndarray):
    """Largest entry modulus of each matrix of ``x`` ``(..., m, n)``, as Python floats."""
    return np.max(np.abs(x), axis=(-2, -1)).tolist()


def one_point_errors(values, exact, rho_b) -> list[float]:
    """One-point values ``(n_lam, d_S, d_S)`` against the bath trace of the exact leg ``(n_lam, D, D)``."""
    return _max_abs(values - _blockops.bath_trace(exact, rho_b))


def star_errors(mats, exact, rho_b) -> list[float]:
    """The chain of family matrices against the exact reduced product, legs ``(n_leg, n_lam, D, D)``."""
    return _max_abs(chain_contract(mats, rho_b) - reduced_product(exact, rho_b))


def image_errors(mats, exact) -> list[float]:
    """Family matrices against the exact Heisenberg operators, both ``(n_lam, D, D)``."""
    return _max_abs(mats - exact)


def roundtrip_errors(inverses, free) -> list[float]:
    """Series inversions ``(n_lam, d_S, d_S)`` against the freely evolved observable ``U0^dag O U0``."""
    return _max_abs(inverses - free)


def exact_cumulant(exact, rho_b) -> np.ndarray:
    """The two-point cumulant ``(O1 O2)_S - O1S O2S`` of the exact legs ``(2, n_lam, D, D)``."""
    reduced = _blockops.bath_trace(exact, rho_b)
    return reduced_product(exact, rho_b) - reduced[0] @ reduced[1]


def cumulant2_errors(values, mats, exact, rho_b) -> list[float]:
    """The two-point cumulant of two legs (values and family matrices) against
    `exact_cumulant` of the exact legs ``(2, n_lam, D, D)``."""
    return _max_abs(cumulant_2pt(values, mats, rho_b) - exact_cumulant(exact, rho_b))


def rhs_fd_errors(obs, values, order: int, lams, ks: KernelSet, rho_b, row, t: float) -> list[float]:
    """The local RHS at the one-point values ``(n_lam, d_S, d_S)`` at ``t``, whose kernel
    row is ``row``, against a central difference of the one-point series around ``t``."""
    step = 1e-5 * max(1.0, t)
    rhs = local_rhs(values, order, lams, ks, rho_b, row)
    rows = ks.eigen_rows(np.array([t + step, t - step]))
    plus, minus = one_point_values(obs, order, lams, ks, rho_b, rows).swapaxes(0, 1)
    return _max_abs(rhs - (plus - minus) / (2 * step))


def cancellation_defect(image, value, rho_b) -> float:
    """The bath trace of a partition image ``(D, D)`` against its one-point value."""
    return _max_abs(_blockops.bath_trace(image, rho_b) - value)


def dual_bookkeeping_defect(image, mat) -> float:
    """A partition image against the family matrix of the super-operator series, both ``(D, D)``."""
    return _max_abs(image - mat)


def decomposition_sum_defect(values, mats, rho_b) -> float:
    """The five `decompose_3pt` parts of three legs at one coupling (values ``(3, d_S,
    d_S)``, family matrices ``(3, D, D)``), summed, against their star product."""
    return _max_abs(sum(decompose_3pt_parts(values, mats, rho_b)) - chain_contract(mats, rho_b))


def validation_suite(seed: int, d_s: int = 2, d_b: int = 3, order: int = 2, t: float = 1.1) -> list[dict]:
    """Full defect table for one random model; each row carries pass/fail."""
    m, obs = random_model(seed, d_s, d_b)
    ks = compute_kernels(m, order + 1, TimeGrid.linspace(1.5 * t, 7))
    rho_b, lams = m.rho_b, DEFAULT_LAMBDAS
    times = (0.4 * t, 0.8 * t, t)
    rows = ks.eigen_rows(times)
    # the orders the slope rows read, at every leg and coupling: (values, inversions, family matrices), legs first
    sweep = {n: lift_observable(obs, n, lams, ks, rho_b, rows) for n in sorted({1, order})}
    exact = evolve_exact(m, [obs], times, lams).swapaxes(0, 1)
    values, inverses, mats = sweep[order]
    star, free = sweep[1][2], ks.frame.free_conjugate(obs, t)
    fd_errs = rhs_fd_errors(obs, values[2], order, lams, ks, rho_b, rows[2], t)
    c_fit = max(e / lam ** (order + 1) for e, lam in zip(fd_errs[:2], lams[:2]))

    slope, reduced = order + 0.8, _blockops.bath_trace(exact[2], rho_b)
    slopes = [  # (check, errors over the sweep, the row's order, the exact side it compares with, threshold)
        (f"one_point_order{order}", one_point_errors(values[2], exact[2], rho_b), order, reduced, slope),
        ("star_n2_order1", star_errors(star[:2], exact[:2], rho_b), 1, reduced_product(exact[:2], rho_b), 1.8),
        ("star_n3_order1", star_errors(star, exact, rho_b), 1, reduced_product(exact, rho_b), 1.8),
        (f"image_order{order}", image_errors(mats[2], exact[2]), order, exact[2], slope),
        (f"roundtrip_order{order}", roundtrip_errors(inverses[2], free), order, free, slope),
        (
            f"cumulant2_order{order}",
            cumulant2_errors(values[:2], mats[:2], exact[:2], rho_b),
            order,
            exact_cumulant(exact[:2], rho_b),
            slope,
        ),
    ]
    defects = []  # (check, defect, threshold)
    k = lams.index(DEFECT_LAMBDA)
    for n in range(order + 2):
        if n in sweep:
            values_n, _, mats_n = sweep[n]
            value, mat = values_n[2, k], mats_n[2, k]
        else:  # every other order is lifted only at (t, DEFECT_LAMBDA), the one point its rows read
            values_n, _, mats_n = lift_observable(obs, n, (DEFECT_LAMBDA,), ks, rho_b, rows[2:])
            value, mat = values_n[0, 0], mats_n[0, 0]
        image = PartitionWords(value, SeriesTruncation(n, DEFECT_LAMBDA), ks, rho_b, rows[2]).image(n)
        defects.append((f"cancellation_n{n}", cancellation_defect(image, value, rho_b), 1e-12))
        defects.append((f"dual_bookkeeping_n{n}", dual_bookkeeping_defect(image, mat), 1e-12))
    defects.append(("decompose_3pt_sum", decomposition_sum_defect(values[:, k], mats[:, k], rho_b), 1e-12))
    defects.append((f"rhs_fd_order{order}", fd_errs[2], max(1e-6, 2.0 * c_fit * lams[2] ** (order + 1))))
    table = [
        (check, "loglog_slope", fit_slope(lams, errors, rounding_floor(n, reference)), threshold)
        for check, errors, n, reference, threshold in slopes
    ]
    table += [(check, "max_abs_defect", value, threshold) for check, value, threshold in defects]
    # a slope passes at or above its threshold, a defect at or below it
    return [
        {
            "check": check,
            "metric": metric,
            "value": value,
            "threshold": threshold,
            "status": "pass" if (value >= threshold if metric == "loglog_slope" else value <= threshold) else "fail",
        }
        for check, metric, value, threshold in table
    ]
