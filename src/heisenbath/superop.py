"""Super-operators, one-point operators, series inversion and star products.

The order-n dressing of a system operator is built directly from the Dyson
product of the truncated propagator family with its adjoint, which places
the kernel adjoints on the *right* factors:

    (P[n] A)_ab = sum_{r=0}^n i^(n-2r) sum_g K[n-r]_ag A (K[r]_bg)^dag .

Written with kernel blocks transposed-and-daggered this is the familiar
``i^(n-2r) K^dag A K`` sandwich; the two readings differ once the
interaction-picture Hamiltonian stops commuting with itself at different
times, and only the Dyson-derived one reproduces exact dynamics to the
truncation order.  `printed_sandwich_defect` measures the difference so
the discrepancy stays visible instead of silently resolved.

Contractions with the bath state use ``rho_B[b, a]`` throughout, matching
the reduced-operator definition; star products close the index chain with
``rho_B[a_{N+1}, a_1]``.

Families and kernel stacks are full-space ``D x D`` matrices (``D = d_S d_B``,
blocks as in `_blockops`), so every sandwich is a full-space product:

    P[n] A = sum_r i^(n-2r) K[n-r] (A (x) 1_B) K[r]^dag ,

one right-multiplication of the kernel stack by ``A`` and one
``(D, (n+1)D) @ ((n+1)D, D)`` GEMM, on the kernels in the H0 eigenbasis
(`KernelSet.frame_stack`).  With ``alpha_p = (i lam/hbar)^p`` and real
``lam``, ``(lam/hbar)^n i^(n-2r) = alpha_(n-r) conj(alpha_r)``, so the whole
total-order one-point sum folds into

    sum_n (lam/hbar)^n P[n] B = sum_p alpha_p K[p] (B (x) 1_B) C[N-p]^dag ,
    C[m] = sum_(q<=m) alpha_q K[q] ,

one GEMM per order stacked over a whole grid (`one_point_values`).

The series engine (`one_point_values`, `lift_values`, `lift_observable`,
`lift_legs`, `local_rhs`, `value_and_row`) is what `npoint`,
`diagnostics` and the CLI call.  It takes a sequence of couplings and the
kernel rows of its times, and returns one result per coupling on a
leading axis: `one_point_values` gives ``(n_lam, n_t, d_S, d_S)`` for
every coupling and time at once.  The lifts (`lift_observable`,
`lift_values`) also take several times at once: a leading leg axis, one
kernel row and so one frame stack per leg, so a caller that holds several
times (the validation suite) lifts them all in one call.  The trajectory
functions (`one_point_operator`, `image_from_one_point`, `star_product`)
are that engine called with the one coupling of their truncation, so
their callers never see a kernel row.  Between these layers a family is
its ``(..., D, D)`` matrix, leading coupling or leg axes included:
`chain_contract` takes factors whose leading axes broadcast, and
`ImageFamily` wraps only what a public function returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _blockops
from .dyson import KernelSet
from .errors import DimensionError
from .images import ImageFamily
from .spaces import OperatorMatrix, TimeGrid, check_order, system_matrix, system_operator


@dataclass(frozen=True)
class SeriesTruncation:
    """Total perturbative order and coupling strength of a series evaluation."""

    order: int
    lam: float

    def __post_init__(self):
        check_order(self.order, "truncation order")
        if not np.isfinite(self.lam):
            raise ValueError(f"coupling must be finite, got {self.lam}")


@dataclass
class OnePointTrajectory:
    """One-point operator values on a time grid at fixed truncation."""

    label: str
    observable: np.ndarray
    grid: TimeGrid
    values: np.ndarray  # (n_t, d_S, d_S)
    truncation: SeriesTruncation


def _padded_powers(n: int) -> np.ndarray:
    # i^(n-2r) for r = 0..n
    return np.array([1j ** (n - 2 * r) for r in range(n + 1)])


def _P_full(n: int, a: np.ndarray, kstack: np.ndarray) -> np.ndarray:
    """Dyson-derived order-n sandwich as a full-space matrix.

    With the adjoint stack ``kstack.conj().swapaxes(-1, -2)`` it is the
    sandwich as displayed, ``sum_r i^(n-2r) K[n-r]^dag (A (x) 1_B) K[r]``.
    The leading axes of ``kstack`` ``(..., n_max + 1, D, D)`` and ``a``
    ``(..., d_S, d_S)`` broadcast.
    """
    lefts = _padded_powers(n)[:, None, None] * _blockops.system_lift(kstack[..., n::-1, :, :], a)
    return _blockops.sandwich_sum(lefts, kstack[..., : n + 1, :, :])


def printed_sandwich_defect(n: int, a, t: float, ks: KernelSet) -> float:
    """Max-norm gap between the Dyson-derived and as-displayed order-n sandwiches."""
    ks.check_order(n)
    kstack = ks.frame_stack(ks.row(t))
    a = ks.frame.enter(system_matrix(a))
    derived, printed = _P_full(n, a, kstack), _P_full(n, a, kstack.conj().swapaxes(-1, -2))
    return float(np.max(np.abs(ks.frame.leave_open(derived - printed))))


def _weights(lams, j: int, hbar: float) -> np.ndarray:
    """``(lam/hbar)^j`` per coupling, shape ``(n_lam, 1, 1)``."""
    return (np.asarray(lams, dtype=float) / hbar)[:, None, None] ** j


def one_point_values(
    o: np.ndarray, order: int, lams, ks: KernelSet, rho_b: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """``sum_n (lam/hbar)^n P_S[n] U0^dag O U0`` per coupling and time, shape ``(n_lam, n_t, d_S, d_S)``.

    ``o`` is a ``(d_S, d_S)`` array, and ``rows`` are the kernel rows of the
    times (`KernelSet.eigen_rows`, or ``KernelSet.row(t)[None]`` for one
    time).  The fused form ``sum_p alpha_p K[p] (B (x) 1_B)
    C[N-p]^dag`` of the module docstring, evaluated in the free eigenbasis
    ``V = v0 (x) 1_B`` of the rows: with ``K[p] = V E[p] exp(-iFt) V^dag`` the free phases
    cancel against ``B = U0^dag O U0``, so ``K[p] (B (x) 1_B) K[q]^dag =
    V E[p] (o (x) 1_B) E[q]^dag V^dag`` with the time-independent
    ``o = v0^dag O v0``, and ``V`` commutes with the bath contraction.  The
    bath state is folded into the left factor, ``tr_B(L C^dag (1 (x) rho_B))
    = sum_(b,z) [(1 (x) rho_B) L]_(i b, z) conj(C_(m b, z))``, so each order
    is one GEMM per coupling stacked over all times with a ``d_S x d_S``
    result; the partial sums ``C[m]`` are accumulated alongside, and the
    temporaries hold one order at a time.  The rows ``(1 (x) rho_B) E[p]``
    do not depend on the coupling and are formed once for the sweep.
    """
    ks.check_order(order)
    n = order
    n_t, n_lam = len(rows), len(lams)
    ds, db = ks.dim_system, ks.dim_bath
    d = ds * db
    hbar = ks.frame.constants.hbar
    alpha = (1j * np.asarray(lams, dtype=float)[:, None] / hbar) ** np.arange(n + 1)  # alpha_p = (i lam/hbar)^p
    o_eig = _blockops.kron_identity(ks.frame.enter(o), db)
    rows = rows.reshape(n_t, ds, db, ks.orders + 1, d)  # E[p] = rows[..., p, :]
    out = np.zeros((n_lam, n_t, ds, ds), dtype=complex)
    partial = np.zeros((n_lam, n_t, ds, db, d), dtype=complex)
    left = np.empty((n_lam, n_t * d, d), dtype=complex)
    for p in range(n, -1, -1):
        partial += alpha[:, n - p, None, None, None, None] * rows[..., n - p, :]  # now C[n - p]
        # left = conj((1 (x) rho_B) alpha_p E[p] (o (x) 1_B)), conjugated in place so
        # that C enters the product as a transposed view rather than a conjugated copy
        np.matmul((rho_b @ rows[..., p, :]).reshape(-1, d), alpha[:, p, None, None] * o_eig, out=left)
        np.conjugate(left, out=left)
        out += (left.reshape(n_lam, n_t, ds, db * d) @ partial.reshape(n_lam, n_t, ds, db * d).swapaxes(-1, -2)).conj()
    return ks.frame.leave(out)


def one_point_operator(
    o,
    trunc: SeriesTruncation,
    ks: KernelSet,
    rho_b: np.ndarray,
    grid: TimeGrid,
    label: str = "O",
) -> OnePointTrajectory:
    """One-point operator trajectory over a grid at fixed truncation."""
    o_mat = system_matrix(o)
    values = one_point_values(o_mat, trunc.order, (trunc.lam,), ks, rho_b, ks.eigen_rows(grid.points))[0]
    return OnePointTrajectory(label, o_mat, grid, values, trunc)


def value_and_row(o_s: OnePointTrajectory, ks: KernelSet, rho_b: np.ndarray, t: float):
    """A trajectory's value at ``t`` (its grid row, else recomputed) and the kernel row at ``t``."""
    row, k, trunc = ks.row(t), o_s.grid.index(t), o_s.truncation
    if k is None:
        return one_point_values(o_s.observable, trunc.order, (trunc.lam,), ks, rho_b, row[None])[0, 0], row
    return o_s.values[k], row


def _inverted_series(
    values: np.ndarray, order: int, lams, ks: KernelSet, rho_b: np.ndarray, kstacks: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """``inv[m] = (1 + sum lam^n P_S[n])^{-1} value`` truncated at order m, m = 0..order.

    ``values`` holds one one-point value per leg and coupling,
    ``(n_leg, n_lam, d_S, d_S)``, and ``kstacks`` the frame stack of each
    leg's time (`KernelSet.frame_stack`), ``(n_leg, n_max + 1, D, D)``; the
    recursion runs in that frame, and each ``inv[m]`` is returned there.
    Uses ``inv[m] = value - sum_{j=1}^m (lam/hbar)^j P_S[j] inv[m-j]``, which
    resums the multinomial expansion with total-order truncation.  Also
    returns the open-index sum ``sum_{j=1}^order (lam/hbar)^j P[j]
    inv[order-j]`` of the last step as full-space matrices
    ``(n_leg, n_lam, D, D)``, which is the image family minus its order-zero
    term ``inv[order] (x) 1_B``, and its bath contraction (both zero at
    order 0).
    """
    hbar = ks.frame.constants.hbar
    entered = ks.frame.enter(values)
    kstacks = kstacks[:, None]  # each leg's stack serves all of its couplings
    inv = [entered]
    opened = np.zeros((*values.shape[:-2], *kstacks.shape[-2:]), dtype=complex)
    traced = np.zeros(entered.shape, dtype=complex)
    for m in range(1, order + 1):
        opened = sum(_weights(lams, j, hbar) * _P_full(j, inv[m - j], kstacks) for j in range(1, m + 1))
        traced = _blockops.bath_trace(opened, rho_b)
        inv.append(entered - traced)
    return inv, opened, traced


def lift_values(
    values: np.ndarray, order: int, lams, ks: KernelSet, rho_b: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The series inversions ``inv[order]`` of one-point values ``(n_leg, n_lam,
    d_S, d_S)``, one per leg and coupling, and their image families ``(n_leg,
    n_lam, D, D)``, from the kernel rows of the legs' times ``(n_leg, D,
    (n_max + 1) D)``.  Only the corrections to the order-zero term leave the
    frame.  Truncation is by *total* order ``n + n_1 + ... + n_k``, never per
    factor; the order-by-order cancellation that returns the one-point value
    under bath contraction holds only with total-order truncation."""
    ks.check_order(order)
    _, opened, traced = _inverted_series(values, order, lams, ks, rho_b, ks.frame_stack(rows))
    inverses = values - ks.frame.leave(traced)
    return inverses, ks.frame.leave_open(opened) + _blockops.kron_identity(inverses, ks.dim_bath)


def lift_observable(
    o: np.ndarray, order: int, lams, ks: KernelSet, rho_b: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-point values of an observable from the kernel rows of the legs' times,
    ``(n_leg, n_lam, d_S, d_S)``, with their inversions and image families
    (`lift_values`)."""
    values = one_point_values(o, order, lams, ks, rho_b, rows).swapaxes(0, 1)
    return (values, *lift_values(values, order, lams, ks, rho_b, rows))


def image_from_one_point(
    o_s: OnePointTrajectory, ks: KernelSet, rho_b: np.ndarray, t: float
) -> ImageFamily:
    """Image family of a one-point trajectory at time t."""
    value, row = value_and_row(o_s, ks, rho_b, t)
    trunc = o_s.truncation
    mats = lift_values(value[None, None], trunc.order, (trunc.lam,), ks, rho_b, row[None])[1]
    return ImageFamily(mats[0, 0], ks.dim_bath, t)


def lift_legs(legs, trunc: SeriesTruncation, ks: KernelSet, rho_b: np.ndarray):
    """One-point values ``(n_leg, d_S, d_S)`` and image-family matrices ``(n_leg, D, D)``
    of ``(observable, time)`` legs, each leg lifted alone from its kernel row, fetched once."""
    lifts = [
        lift_observable(system_matrix(o), trunc.order, (trunc.lam,), ks, rho_b, ks.row(float(t))[None])
        for o, t in legs
    ]
    return np.stack([values[0, 0] for values, _, _ in lifts]), np.stack([mats[0, 0] for _, _, mats in lifts])


def chain_contract(mats, rho_b: np.ndarray) -> np.ndarray:
    """Chain-compose family matrices and close the index loop with ``rho_B[a_{N+1}, a_1]``.

    ``mats`` is a sequence (or an array with the factor axis first) of
    matrices ``(..., D, D)`` whose leading axes broadcast; the product runs
    left to right, and each leading index gets the bits of its lone chain.
    """
    return _blockops.bath_trace(functools.reduce(np.matmul, mats), rho_b)


def star_product(
    factors,
    ks: KernelSet,
    rho_b: np.ndarray,
) -> OperatorMatrix:
    """Deformed product ``O_S(t_1) * ... * O_S(t_N)`` of one-point trajectories.

    ``factors`` is a sequence of ``(OnePointTrajectory, time)`` pairs sharing
    kernels and truncation.  Each factor is lifted to its image family, the
    families are chain-composed, and the chain is closed with the bath state.
    """
    factors = list(factors)
    if not factors:
        raise DimensionError("star_product needs at least one factor")
    truncs = {(f.truncation.order, f.truncation.lam) for f, _ in factors}
    if len(truncs) > 1:
        raise DimensionError(f"star_product factors disagree on truncation: {truncs}")
    mats = [image_from_one_point(f, ks, rho_b, float(t)).matrix for f, t in factors]
    return system_operator(chain_contract(mats, rho_b), (ks.dim_system, ks.dim_bath))


def star_of_observables(
    entries,
    trunc: SeriesTruncation,
    ks: KernelSet,
    rho_b: np.ndarray,
) -> np.ndarray:
    """Star product straight from observables: ``entries`` is a sequence of
    ``(observable, time)`` pairs."""
    entries = list(entries)
    if not entries:
        raise DimensionError("star_of_observables needs at least one factor")
    return chain_contract(lift_legs(entries, trunc, ks, rho_b)[1], rho_b)


def _apply_DtP_S(
    n: int,
    a: np.ndarray,
    kstack: np.ndarray,
    cov_stack: np.ndarray,
    rho: np.ndarray,
) -> np.ndarray:
    """Kernel-derivative super-operator of order n, bath-contracted.

    Product rule over the two kernel slots of the order-n sandwich, with the
    time derivative taken covariantly (inside the ``U0 ... U0^dag`` frame).
    """
    coeffs = np.tile(_padded_powers(n), 2)[:, None, None]
    lefts = coeffs * _blockops.system_lift(np.concatenate([cov_stack[n::-1], kstack[n::-1]]), a)
    rights = np.concatenate([kstack[: n + 1], cov_stack[: n + 1]])
    return _blockops.bath_trace(_blockops.sandwich_sum(lefts, rights), rho)


def local_rhs(
    values: np.ndarray, order: int, lams, ks: KernelSet, rho_b: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """Local-in-time RHS of the one-point evolution at one-point values ``(n_lam,
    d_S, d_S)``, one per coupling, from the kernel row at their time.

    ``(i/hbar)[H0, O_S] + sum (-1)^k (lam/hbar)^(n+n_1+...+n_k)
    DtP_S[n] P_S[n_1] ... P_S[n_k] O_S`` with total-order truncation; the
    kernel derivatives come from the recurrence, so no differencing enters.
    """
    ks.check_order(order)
    hbar = ks.frame.constants.hbar
    kstack = ks.frame_stack(row)
    # the RHS needs inv[0..order-1] only: the last inversion step is never formed
    inv = _inverted_series(values[None], max(order - 1, 0), lams, ks, rho_b, kstack[None])[0]
    cov_stack = ks.frame_derivative(kstack)
    dressed = np.zeros(values.shape, dtype=complex)
    for n in range(1, order + 1):
        dressed += _weights(lams, n, hbar) * _apply_DtP_S(n, inv[order - n][0], kstack, cov_stack, rho_b)
    h0 = ks.model.h0.mat
    return (1j / hbar) * (h0 @ values - values @ h0) + ks.frame.leave(dressed)
