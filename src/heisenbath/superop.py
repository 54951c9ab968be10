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

Families and kernel stacks are full-space ``D x D`` matrices (``D = d_S d_B``),
on the kernels in the frame of `dyson` (`KernelSet.frame_stack`), where ``X
(A (x) 1_B)`` is ``X.reshape(-1, d_S) @ A``.  Every series quantity is one
total-order sandwich sum (`_dressed`), with ``x = lam/hbar`` riding on the
operators:

    sum_(p+q+k=N) x^(p+q) L[p] (A_k (x) 1_B) R[q]^dag ,   L = R = i^p S[p] ,

one GEMM per output block, ``X[q] = sum_(p+k=N-q) L[p] (x^(N-k) A_k (x)
1_B)``, the left stack's blocks side by side against the operators stacked
in reverse, and one product ``sum_q X[q] R[q]^dag``, returned open or
bath-traced; the trace folds ``rho_B`` into the right factor and reads both
factors with their rows system-major, so it forms no ``D x D`` product.
A stack's two factors are formed once per lift (`_factors`) and read by
every order of it.  The series inversion ``inv[m]`` is
the one-point value minus the traced sum of ``inv[0..m-1]`` at order m,
whose ``(0, 0)`` term is ``inv[m]`` itself; the image family is the open sum
of ``inv[0..N]`` at order N, and the local RHS the traced sum of
``inv[0..N-1]`` with the covariant-derivative stack on the left, then on the
right.  The one-point value is the traced sum of the constant sequence
``(B, ..., B)``, ``B = U0^dag O U0``, and keeps a fused form: with
``alpha_p = (i lam/hbar)^p`` and real ``lam``, ``x^(p+q) i^(p-q) = alpha_p
conj(alpha_q)``, so

    sum_n (lam/hbar)^n P[n] B = sum_p alpha_p K[p] (B (x) 1_B) C[N-p]^dag ,
    C[m] = sum_(q<=m) alpha_q K[q] ,

per order one traced GEMM per coupling stacked over a whole grid, on a
coupling-free left factor, with the ``U0`` phases cancelled
(`one_point_values`), where the sum above would lift ``B`` at every time.

The series engine (`one_point_values`, `lift_values`, `lift_observable`,
`lift_legs`, `local_rhs`) is what `npoint`, `diagnostics` and the CLI
call.  It takes a sequence of couplings and the kernel rows of its times,
one observable or one per time, and returns one result per coupling on a
leading axis: `one_point_values` gives ``(n_lam, n_t, d_S, d_S)``.  The
lifts take a leading leg axis, one kernel row and so one frame stack per
leg, so a leg set is one lift: the validation suite's observable at its
times, or the ``(observable, time)`` legs of a star product, cumulant or
three-point part (`lift_legs`).  A leg's value has one source,
`one_point_values` at its kernel row.  The trajectory functions
(`one_point_operator`, `image_from_one_point`, `star_product`) are that
engine called with the one coupling of their truncation, so their
callers never see a kernel row.  Between these layers a family is
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


def _factors(stack: np.ndarray, ds: int, rho_b=None) -> tuple[np.ndarray, np.ndarray]:
    """The left and right factors of `_dressed` for a frame stack ``(..., n + 1, D, D)``,
    formed once and read by the sums of every order up to n.

    The left factor puts the blocks side by side, ``(..., D d_B, (n + 1)
    d_S)``: column block p is ``L[p]`` reshaped with the system index of its
    columns last, so that ``L[p] (A (x) 1_B)`` is a GEMM by ``A`` on it, and
    a sum of such products over p is one GEMM.  A row of it joins the row
    ``(b, i)`` of ``L[p]`` and the bath part ``a`` of its column, ordered
    ``(i, b, a)``, system-major, when the sum is traced (``rho_b`` given),
    and ``(b, i, a)``, bath-major, when it is open.  The right factor is
    ``R[q]^dag``, ``(..., n + 1, D, D)``, when open, and ``conj(F[q])^T``,
    ``(..., n + 1, d_B D, d_S)``, when traced: the bath state folded in, ``F
    = (1 (x) rho_B^dag) R``, read with its rows system-major.
    """
    *lead, n1, d, _ = stack.shape
    db, k = d // ds, len(lead)
    rows = (k + 2, k + 1) if rho_b is not None else (k + 1, k + 2)
    blocks = stack.reshape(*lead, n1, db, ds, db, ds).transpose(*range(k), *rows, k + 3, k, k + 4)
    left = blocks.reshape(*lead, d * db, n1 * ds)
    if rho_b is None:
        return left, stack.conj().swapaxes(-1, -2)
    folded = rho_b.conj().T @ stack.reshape(*lead, n1, db, ds, d).swapaxes(-3, -2)
    return left, folded.reshape(*lead, n1, ds, db * d).conj().swapaxes(-1, -2)


def _dressed(left, right, ops, n: int, x=1.0) -> np.ndarray:
    """The total-order sandwich sum ``sum_(p+q+k=n) x^(p+q) L[p] (A_k (x) 1_B) R[q]^dag``.

    ``left`` and ``right`` are the `_factors` of frame stacks with at least
    n + 1 blocks, ``ops`` the operators ``A_0, A_1, ...`` ``(K, ..., d_S,
    d_S)`` with ``K <= n + 1``, an ``A_k`` not given reading as zero, and
    ``x`` a weight ``(..., 1, 1)`` that rides on the operators, ``x^(n-k)
    A_k``; leading axes broadcast.  The weighted operators are stacked in
    reverse, ``Arev = (x A_(K-1), ..., x^n A_0)``, so each output block is
    one GEMM, ``X[q] = sum_(p+k=n-q) L[p] (x^(n-k) A_k (x) 1_B)`` a column
    block of the left factor by a row block of ``Arev``, with no zero
    block.  The sum ``sum_q X[q] R[q]^dag`` is returned open, ``(..., D,
    D)``, or bath-traced, ``(..., d_S, d_S)``, as the right factor was
    formed: traced, both factors are read with their rows system-major, so
    each ``X[q]`` meets ``conj(F[q])^T`` in one GEMM and no ``D x D``
    product is formed.
    """
    ops = np.asarray(ops)
    n_ops, ds = len(ops), ops.shape[-1]
    arev = np.empty((*np.broadcast_shapes(ops.shape[1:-2], np.shape(x)[:-2]), n_ops * ds, ds), dtype=complex)
    for k, a in enumerate(ops):  # block n_ops - 1 - k of Arev
        arev[..., (n_ops - 1 - k) * ds : (n_ops - k) * ds, :] = x ** (n - k) * a
    lead = np.broadcast_shapes(left.shape[:-2], arev.shape[:-2])
    lifted = np.empty((*lead, n + 1, left.shape[-2], ds), dtype=complex)
    for q in range(n + 1):  # L[p] for p = n-q-w+1..n-q against A_(w-1)..A_0
        w = min(n + 1 - q, n_ops)
        cols, ops_w = left[..., (n + 1 - q - w) * ds : (n + 1 - q) * ds], arev[..., (n_ops - w) * ds :, :]
        np.matmul(cols, ops_w, out=lifted[..., q, :, :])
    rights = right[..., : n + 1, :, :]
    return (lifted.reshape(*lead, n + 1, rights.shape[-1], -1) @ rights).sum(-3)


def _inverted(values: np.ndarray, order: int, lams, ks: KernelSet, rho_b: np.ndarray, stack: np.ndarray):
    """The series inversions ``inv[0..order]`` of one-point values, in the frame, the weight
    ``lam/hbar`` and the traced `_factors` of ``stack``.

    ``inv[m] = (1 + sum lam^n P_S[n])^{-1} value`` truncated at total order
    m: the value minus the bath-traced dressing of ``inv[<m]`` at order m on
    ``stack``, the ``i^p S[p]`` of the values' time, since the ``(0, 0)``
    term of that dressing is ``inv[m]`` itself.  The factors are formed once,
    for every step.
    """
    x = (np.asarray(lams, dtype=float) / ks.frame.constants.hbar)[:, None, None]
    left, right = _factors(stack, ks.dim_system, rho_b)
    inv = np.empty((order + 1, *values.shape), dtype=complex)
    inv[0] = ks.frame.enter(values)
    for m in range(1, order + 1):
        inv[m] = inv[0] - _dressed(left, right, inv[:m], m, x)
    return inv, x, (left, right)


def printed_sandwich_defect(n: int, a, t: float, ks: KernelSet) -> float:
    """Max-norm gap between the Dyson-derived and as-displayed order-n sandwiches:
    the dressing of ``A`` on the stack ``i^p S[p]`` and on ``i^p S[p]^dag``."""
    ks.check_order(n)
    kstack, turns = ks.frame_stack(ks.eigen_rows([t])[0]), 1j ** np.arange(ks.orders + 1)[:, None, None]
    a, stacks = ks.frame.enter(system_matrix(a)), (turns * kstack, turns * kstack.conj().swapaxes(-1, -2))
    derived, printed = (_dressed(*_factors(s, ks.dim_system), (a,), n) for s in stacks)
    return float(np.max(np.abs(ks.frame.leave_open(derived - printed))))


def one_point_values(
    o: np.ndarray, order: int, lams, ks: KernelSet, rho_b: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """``sum_n (lam/hbar)^n P_S[n] U0^dag O U0`` per coupling and time, shape ``(n_lam, n_t, d_S, d_S)``.

    ``rows``, ``(n_t, n_max + 1, D, D)``, are the kernel rows of the times
    (`KernelSet.eigen_rows`), and ``o`` is one observable ``(d_S, d_S)`` for
    all of them or one per row ``(n_t, d_S, d_S)``.  The fused form ``sum_p
    alpha_p K[p] (B (x) 1_B) C[N-p]^dag`` of the module docstring, evaluated in the frame
    ``V = v0 (x) 1_B`` of the rows: with ``K[p] = V E[p] exp(-iFt) V^dag`` the free phases
    cancel against ``B = U0^dag O U0``, so ``K[p] (B (x) 1_B) K[q]^dag =
    V E[p] (o (x) 1_B) E[q]^dag V^dag`` with the time-independent
    ``o = v0^dag O v0``, and ``V`` commutes with the bath contraction.  The
    bath state is folded into the left factor, ``tr_B(L C^dag (1 (x) rho_B))
    = sum_(b,z) [(1 (x) rho_B) L]_(b i, z) conj(C_(b m, z))``, both read with
    their rows system-major, so each order is one GEMM per coupling stacked
    over all times with a ``d_S x d_S`` result that ``alpha_p`` weights.  The
    left factor ``(1 (x) rho_B) E[p] (o (x) 1_B)`` does not depend on the
    coupling and is formed once for the sweep, by a GEMM by ``rho_B`` and one
    by ``o`` (one per row when each row has its own, each with the bits of its
    lone call); the partial sums ``C[m]`` are accumulated alongside, and the
    temporaries hold one order at a time.
    """
    ks.check_order(order)
    n = order
    n_t, n_lam = len(rows), len(lams)
    ds, db = ks.dim_system, ks.dim_bath
    d = ds * db
    hbar = ks.frame.constants.hbar
    alpha = (1j * np.asarray(lams, dtype=float)[:, None] / hbar) ** np.arange(n + 1)  # alpha_p = (i lam/hbar)^p
    o_eig = ks.frame.enter(o).reshape(-1, ds, ds)  # one observable, or one per row
    rows = rows.reshape(n_t, ks.orders + 1, db, ds, d).swapaxes(2, 3)  # E[p] = rows[:, p], rows (i, a)
    out = np.zeros((n_lam, n_t, ds, ds), dtype=complex)
    partial = np.zeros((n_lam, n_t, ds, db, d), dtype=complex)
    left = np.empty((n_t, ds, db, d), dtype=complex)
    for p in range(n, -1, -1):
        partial += alpha[:, n - p, None, None, None, None] * rows[:, n - p]  # now C[n - p]
        # left = conj((1 (x) rho_B) E[p] (o (x) 1_B)), conjugated in place so
        # that C enters the product as a transposed view rather than a conjugated copy
        np.matmul((rho_b @ rows[:, p]).reshape(len(o_eig), -1, ds), o_eig, out=left.reshape(len(o_eig), -1, ds))
        np.conjugate(left, out=left)
        traced = left.reshape(n_t, ds, db * d) @ partial.reshape(n_lam, n_t, ds, db * d).swapaxes(-1, -2)
        out += alpha[:, p, None, None, None] * traced.conj()
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


def lift_values(
    values: np.ndarray, order: int, lams, ks: KernelSet, rho_b: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The series inversions ``inv[order]`` of one-point values ``(n_leg, n_lam,
    d_S, d_S)``, one per leg and coupling, and their image families ``(n_leg,
    n_lam, D, D)``, from the kernel rows of the legs' times ``(n_leg, n_max +
    1, D, D)``.  The family is the open sum of ``inv[0..order]`` at
    that order, ``inv[order] (x) 1_B`` included; only ``value - inv[order]``
    leaves the frame for the inversion, so order 0 returns the value.
    Truncation is by *total* order ``n + n_1 + ... + n_k``, never per
    factor; the order-by-order cancellation that returns the one-point value
    under bath contraction holds only with total-order truncation."""
    ks.check_order(order)
    stack = (1j ** np.arange(order + 1)[:, None, None] * ks.frame_stack(rows[:, : order + 1]))[:, None]
    inv, x, _ = _inverted(values, order, lams, ks, rho_b, stack)  # the stack is shared by every coupling
    inverses = values - ks.frame.leave(inv[0] - inv[order])
    return inverses, ks.frame.leave_open(_dressed(*_factors(stack, ks.dim_system), inv, order, x))


def lift_observable(
    o: np.ndarray, order: int, lams, ks: KernelSet, rho_b: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-point values ``(n_leg, n_lam, d_S, d_S)`` of an observable, or of one per
    leg, from the kernel rows of the legs' times (`one_point_values`), with their
    inversions and image families (`lift_values`): one lift per leg set."""
    values = one_point_values(o, order, lams, ks, rho_b, rows).swapaxes(0, 1)
    return (values, *lift_values(values, order, lams, ks, rho_b, rows))


def lift_legs(legs, trunc: SeriesTruncation, ks: KernelSet, rho_b: np.ndarray):
    """One-point values ``(n_leg, d_S, d_S)`` and image-family matrices ``(n_leg, D, D)``
    of ``(observable, time)`` legs, all lifted in one `lift_observable` call, one
    observable per leg; each leg gets the bits of its lone lift."""
    obs, times = zip(*legs)
    rows = ks.eigen_rows(np.array(times, dtype=float))
    observables = np.stack([system_matrix(o) for o in obs])
    values, _, mats = lift_observable(observables, trunc.order, (trunc.lam,), ks, rho_b, rows)
    return values[:, 0], mats[:, 0]


def image_from_one_point(
    o_s: OnePointTrajectory, ks: KernelSet, rho_b: np.ndarray, t: float
) -> ImageFamily:
    """Image family of a one-point trajectory at time t: its observable lifted as one leg."""
    return ImageFamily(lift_legs(((o_s.observable, t),), o_s.truncation, ks, rho_b)[1][0], ks.dim_bath, t)


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
    star = star_of_observables([(f.observable, t) for f, t in factors], factors[0][0].truncation, ks, rho_b)
    return system_operator(star, (ks.dim_system, ks.dim_bath))


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
    stack, turns = ks.frame_stack(row[: order + 1]), 1j ** np.arange(order + 1)[:, None, None]
    cov, stack = turns * ks.frame_derivative(stack), turns * stack
    # the RHS needs inv[0..order-1] only: the last inversion step is never formed
    inv, x, (left, right) = _inverted(values, max(order - 1, 0), lams, ks, rho_b, stack)
    cov_left, cov_right = _factors(cov, ks.dim_system, rho_b)
    dressed = _dressed(cov_left, right, inv[:order], order, x) + _dressed(left, cov_right, inv[:order], order, x)
    h0 = ks.model.h0.mat
    return (1j / ks.frame.constants.hbar) * (h0 @ values - values @ h0) + ks.frame.leave(dressed)
