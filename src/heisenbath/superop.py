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

Every sandwich is evaluated in full space, where the family blocks are the
entries of ``D x D`` matrices (``D = d_S d_B``, layout of `_blockops`):

    P[n] A = sum_r i^(n-2r) full(K[n-r]) (A (x) 1_B) full(K[r])^dag ,

one right-multiplication of the kernel stack by ``A`` and one
``(D, (n+1)D) @ ((n+1)D, D)`` GEMM.  With ``alpha_p = (i lam/hbar)^p`` and
real ``lam``, ``(lam/hbar)^n i^(n-2r) = alpha_(n-r) conj(alpha_r)``, so the
whole total-order one-point sum folds into

    sum_n (lam/hbar)^n P[n] B = sum_p alpha_p K[p] (B (x) 1_B) C[N-p]^dag ,
    C[m] = sum_(q<=m) alpha_q K[q] ,

one GEMM per order stacked over a whole grid (`_one_point_values`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blockops
from .dyson import KernelSet
from .errors import DimensionError
from .images import ImageFamily
from .spaces import DensityMatrix, OperatorMatrix, Space, SpaceTag, TimeGrid, as_matrix, system_operator


@dataclass(frozen=True)
class SeriesTruncation:
    """Total perturbative order and coupling strength of a series evaluation."""

    order: int
    lam: float

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.order}")


@dataclass
class OnePointTrajectory:
    """One-point operator values on a time grid at fixed truncation."""

    label: str
    observable: np.ndarray
    grid: TimeGrid
    values: np.ndarray  # (n_t, d_S, d_S)
    truncation: SeriesTruncation


def _obs_matrix(o) -> np.ndarray:
    if isinstance(o, OperatorMatrix) and o.tag.kind is not Space.SYSTEM:
        raise DimensionError("observables must live on the system space")
    return as_matrix(o)


def _system_tag(ks: KernelSet) -> SpaceTag:
    return SpaceTag(Space.SYSTEM, ks.dim_system, ks.dim_bath)


def _padded_powers(n: int) -> np.ndarray:
    # i^(n-2r) for r = 0..n
    return np.array([1j ** (n - 2 * r) for r in range(n + 1)])


def _per_order(c: np.ndarray) -> np.ndarray:
    # coefficients on the orders axis of a family stack (..., orders, d_B, d_B, d_S, d_S)
    return c[:, None, None, None, None]


def _P_full(n: int, a: np.ndarray, kstack: np.ndarray) -> np.ndarray:
    """Dyson-derived order-n sandwich as a full-space matrix."""
    lefts = _per_order(_padded_powers(n)) * _blockops.system_lift(kstack[n::-1], a)
    return _blockops.sandwich_sum(lefts, kstack[: n + 1])


def _apply_P_blocks(n: int, a: np.ndarray, kstack: np.ndarray) -> np.ndarray:
    """Dyson-derived order-n sandwich, returning family blocks."""
    return _blockops.full_to_fam(_P_full(n, a, kstack), a.shape[0], kstack.shape[1])


def _apply_P_blocks_printed(n: int, a: np.ndarray, kstack: np.ndarray) -> np.ndarray:
    """The same sandwich with daggers on the left factors, as displayed:
    ``sum_r i^(n-2r) K[n-r]^dag (A (x) 1_B) K[r]``, which is the Dyson-derived
    form of the adjoint kernel families."""
    return _apply_P_blocks(n, a, _blockops.fam_adjoint(kstack))


def apply_P_ab(n: int, a, t: float, ks: KernelSet) -> ImageFamily:
    """Order-n super-operator dressing of a system operator, open bath indices."""
    ks.check_order(n)
    return ImageFamily(_apply_P_blocks(n, _obs_matrix(a), ks.heis_stack(t)), t)


def apply_P_S(n: int, a, t: float, ks: KernelSet, rho_b: DensityMatrix) -> np.ndarray:
    """Bath-contracted order-n dressing ``(P[n] A)_ab rho_B[b, a]``."""
    ks.check_order(n)
    full = _P_full(n, _obs_matrix(a), ks.heis_stack(t))
    return _blockops.bath_trace(full, rho_b.mat, ks.dim_system, ks.dim_bath)


def printed_sandwich_defect(n: int, a, t: float, ks: KernelSet) -> float:
    """Max-norm gap between the Dyson-derived and as-displayed order-n sandwiches."""
    kstack = ks.heis_stack(t)
    a = _obs_matrix(a)
    return float(
        np.max(np.abs(_apply_P_blocks(n, a, kstack) - _apply_P_blocks_printed(n, a, kstack)))
    )


def free_evolved(o, ks: KernelSet, t: float) -> np.ndarray:
    """Free Heisenberg conjugation ``U0(t)^dag O U0(t)``."""
    return ks.frame.free_conjugate(_obs_matrix(o), t)


def _one_point_values(
    o: np.ndarray, trunc: SeriesTruncation, ks: KernelSet, rho_b: DensityMatrix, times: np.ndarray
) -> np.ndarray:
    """``sum_n (lam/hbar)^n P_S[n] U0^dag O U0`` at every time, shape ``(n_t, d_S, d_S)``.

    The fused form ``sum_p alpha_p K[p] (B (x) 1_B) C[N-p]^dag`` of the module
    docstring, evaluated in the free eigenbasis ``V = v0 (x) 1_B`` of the
    kernel rows: with ``K[p] = V E[p] exp(-iFt) V^dag`` the free phases
    cancel against ``B = U0^dag O U0``, so ``K[p] (B (x) 1_B) K[q]^dag =
    V E[p] (o (x) 1_B) E[q]^dag V^dag`` with the time-independent
    ``o = v0^dag O v0``, and ``V`` commutes with the bath contraction.  The
    bath state is folded into the left factor, ``tr_B(L C^dag (1 (x) rho_B))
    = sum_(b,z) [(1 (x) rho_B) L]_(i b, z) conj(C_(m b, z))``, so each order
    is one GEMM stacked over all times with a ``d_S x d_S`` result; the
    partial sums ``C[m]`` are accumulated alongside, and the temporaries
    hold one order at a time.
    """
    ks.check_order(trunc.order)
    n = trunc.order
    n_t = len(times)
    ds, db = ks.dim_system, ks.dim_bath
    d = ds * db
    # alpha_p = (i lam/hbar)^p for p = 0..n, by exact repeated products
    alpha = np.cumprod(np.concatenate(([1.0], np.full(n, 1j * trunc.lam / ks.frame.constants.hbar))))
    v0 = ks.frame.v0
    o_eig = _blockops.fam_to_full(_blockops.delta_family(v0.conj().T @ o @ v0, db))
    rows = ks.eigen_rows(times).reshape(n_t, ds, db, ks.orders + 1, d)  # E[p] = rows[..., p, :]
    out = np.zeros((n_t, ds, ds), dtype=complex)
    partial = np.zeros((n_t, ds, db, d), dtype=complex)
    left = np.empty((n_t * d, d), dtype=complex)
    for p in range(n, -1, -1):
        partial += alpha[n - p] * rows[..., n - p, :]  # now C[n - p]
        # left = conj((1 (x) rho_B) alpha_p E[p] (o (x) 1_B)), conjugated in place so
        # that C enters the product as a transposed view rather than a conjugated copy
        np.matmul((rho_b.mat @ rows[..., p, :]).reshape(-1, d), alpha[p] * o_eig, out=left)
        np.conjugate(left, out=left)
        out += (left.reshape(n_t, ds, -1) @ partial.reshape(n_t, ds, -1).swapaxes(-1, -2)).conj()
    return v0 @ out @ v0.conj().T


def one_point_value(o, trunc: SeriesTruncation, ks: KernelSet, rho_b: DensityMatrix, t: float) -> np.ndarray:
    """Truncated one-point series ``sum_n (lam/hbar)^n P_S[n] U0^dag O U0`` at one time."""
    return _one_point_values(_obs_matrix(o), trunc, ks, rho_b, np.array([float(t)]))[0]


def one_point_operator(
    o,
    trunc: SeriesTruncation,
    ks: KernelSet,
    rho_b: DensityMatrix,
    grid: TimeGrid,
    label: str = "O",
) -> OnePointTrajectory:
    """One-point operator trajectory over a grid at fixed truncation."""
    o_mat = _obs_matrix(o)
    values = _one_point_values(o_mat, trunc, ks, rho_b, grid.points)
    return OnePointTrajectory(label, o_mat, grid, values, trunc)


def trajectory_value(o_s: OnePointTrajectory, ks: KernelSet, rho_b: DensityMatrix, t: float) -> np.ndarray:
    """Value of a trajectory at time t (grid hit or recomputed from kernels)."""
    hits = np.flatnonzero(np.abs(o_s.grid.points - t) <= 1e-14)
    if hits.size:
        return o_s.values[hits[0]]
    return one_point_value(o_s.observable, o_s.truncation, ks, rho_b, t)


def _inverted_series(
    value: np.ndarray,
    order: int,
    lam: float,
    ks: KernelSet,
    rho_b: DensityMatrix,
    t: float,
) -> tuple[list[np.ndarray], np.ndarray]:
    """``inv[m] = (1 + sum lam^n P_S[n])^{-1} value`` truncated at order m, m = 0..order.

    Uses the recursion ``inv[m] = value - sum_{j=1}^m (lam/hbar)^j P_S[j] inv[m-j]``,
    which resums the multinomial expansion with total-order truncation.  Also
    returns the open-index sum ``sum_{j=1}^order (lam/hbar)^j P[j] inv[order-j]``
    of the last step as a full-space matrix (zero at order 0): it is the
    image family minus its order-zero term ``inv[order] delta_ab``.
    """
    hbar = ks.frame.constants.hbar
    kstack = ks.heis_stack(t)
    ds, db = ks.dim_system, ks.dim_bath
    inv = [value]
    opened = np.zeros((ds * db, ds * db), dtype=complex)
    for m in range(1, order + 1):
        opened = sum((lam / hbar) ** j * _P_full(j, inv[m - j], kstack) for j in range(1, m + 1))
        inv.append(value - _blockops.bath_trace(opened, rho_b.mat, ds, db))
    return inv, opened


def invert_one_point(
    o_s_value,
    trunc: SeriesTruncation,
    ks: KernelSet,
    rho_b: DensityMatrix,
    t: float,
) -> np.ndarray:
    """Recover ``U0^dag O U0`` from a one-point value via the multinomial inverse."""
    ks.check_order(trunc.order)
    value = _obs_matrix(o_s_value)
    return _inverted_series(value, trunc.order, trunc.lam, ks, rho_b, t)[0][trunc.order]


def image_from_value(
    value: np.ndarray,
    trunc: SeriesTruncation,
    ks: KernelSet,
    rho_b: DensityMatrix,
    t: float,
) -> ImageFamily:
    """Image family from a one-point value (the series inversion composed with P[n]).

    Truncation is by *total* order ``n + n_1 + ... + n_k``, never per factor;
    the order-by-order cancellation that returns the one-point value under
    bath contraction holds only with total-order truncation.
    """
    ks.check_order(trunc.order)
    inv, opened = _inverted_series(_obs_matrix(value), trunc.order, trunc.lam, ks, rho_b, t)
    opened = _blockops.full_to_fam(opened, ks.dim_system, ks.dim_bath)
    return ImageFamily(opened + _blockops.delta_family(inv[-1], ks.dim_bath), t)


def image_from_one_point(
    o_s: OnePointTrajectory, ks: KernelSet, rho_b: DensityMatrix, t: float
) -> ImageFamily:
    """Image family of a one-point trajectory at time t."""
    value = trajectory_value(o_s, ks, rho_b, t)
    return image_from_value(value, o_s.truncation, ks, rho_b, t)


def lifted_factor(
    o,
    trunc: SeriesTruncation,
    ks: KernelSet,
    rho_b: DensityMatrix,
    t: float,
) -> ImageFamily:
    """One star-product factor: the image family of the observable's one-point value."""
    value = one_point_value(o, trunc, ks, rho_b, t)
    return image_from_value(value, trunc, ks, rho_b, t)


def trivial_factor(value: np.ndarray, ks: KernelSet, t: float) -> ImageFamily:
    """A star-product factor entering as ``O_S(t) delta_ab`` (its trivial partition)."""
    return ImageFamily(_blockops.delta_family(value, ks.dim_bath), t)


def chain_contract(families: list[ImageFamily], rho_b: DensityMatrix) -> np.ndarray:
    """Chain-compose families and close the index loop with ``rho_B[a_{N+1}, a_1]``."""
    prod = _blockops.fam_to_full(families[0].blocks)
    for f in families[1:]:
        prod = prod @ _blockops.fam_to_full(f.blocks)
    return _blockops.bath_trace(prod, rho_b.mat, families[0].dim_system, families[0].dim_bath)


def star_product(
    factors,
    ks: KernelSet,
    rho_b: DensityMatrix,
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
    families = [image_from_one_point(f, ks, rho_b, float(t)) for f, t in factors]
    return system_operator(chain_contract(families, rho_b), _system_tag(ks))


def star_of_observables(
    entries,
    trunc: SeriesTruncation,
    ks: KernelSet,
    rho_b: DensityMatrix,
) -> np.ndarray:
    """Star product straight from observables: ``entries`` is a sequence of
    ``(observable, time)`` pairs."""
    families = [lifted_factor(o, trunc, ks, rho_b, float(t)) for o, t in entries]
    return chain_contract(families, rho_b)


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
    coeffs = _per_order(np.tile(_padded_powers(n), 2))
    lefts = coeffs * _blockops.system_lift(np.concatenate([cov_stack[n::-1], kstack[n::-1]]), a)
    rights = np.concatenate([kstack[: n + 1], cov_stack[: n + 1]])
    full = _blockops.sandwich_sum(lefts, rights)
    return _blockops.bath_trace(full, rho, a.shape[0], kstack.shape[1])


def one_point_rhs(
    o_s: OnePointTrajectory,
    t: float,
    ks: KernelSet,
    rho_b: DensityMatrix,
) -> OperatorMatrix:
    """Local-in-time RHS of the one-point evolution at the trajectory's truncation.

    ``(i/hbar)[H0, O_S] + sum (-1)^k (lam/hbar)^(n+n_1+...+n_k)
    DtP_S[n] P_S[n_1] ... P_S[n_k] O_S`` with total-order truncation; the
    kernel derivatives come from the recurrence, so no differencing enters.
    """
    trunc = o_s.truncation
    ks.check_order(trunc.order)
    hbar = ks.frame.constants.hbar
    value = trajectory_value(o_s, ks, rho_b, t)
    # the RHS needs inv[0..order-1] only: the last inversion step is never formed
    inv, _ = _inverted_series(value, max(trunc.order - 1, 0), trunc.lam, ks, rho_b, t)
    kstack = ks.heis_stack(t)
    cov_stack = ks.cov_d_stack(t)
    h0 = ks.frame.h0_mat
    out = (1j / hbar) * (h0 @ value - value @ h0)
    for n in range(1, trunc.order + 1):
        out += (trunc.lam / hbar) ** n * _apply_DtP_S(
            n, inv[trunc.order - n], kstack, cov_stack, rho_b.mat
        )
    return system_operator(out, _system_tag(ks))
