"""Interaction picture and the time-ordered perturbative kernels.

The interaction-picture Hamiltonian family is
``Htilde_ab(t) = U0(t) H_Iab U0(t)^dag exp(-i(E_a - E_b)t/hbar)`` with
``U0(t) = exp(-i H0 t / hbar)``.  The order-n kernel is the nested
time-ordered integral of n such factors (latest time leftmost),

    Ktilde[n](t) = int_0^t Htilde(s) . Ktilde[n-1](s) ds,   Ktilde[0] = 1.

On the full space ``Htilde(t) = exp(-iFt) H_I exp(iFt)`` with the free
generator ``F = (H0 + H_B)/hbar``, so ``E[n](t) = exp(iFt) Ktilde[n](t)``
obeys the autonomous chain ``dE[n]/dt = iF E[n] + H_I E[n-1]``.  Its
solution is the first block row ``R(t) = (E[0], ..., E[n_max])`` of
``exp(tM)``, where ``M`` is block-bidiagonal with ``iF`` on the diagonal
and ``H_I`` above it (Van Loan, IEEE TAC 23 (1978) 395).  ``M`` is
block upper-triangular Toeplitz, and so is every power series in it: it is
stored as its first block row ``(iF, H_I, 0, ...)``, and `toeplitz_expm`
computes the exponential's first block row by Pade-13 scaling and squaring
(Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179) with products that are
truncated block convolutions.  In the frame below, block 0 of ``M`` is the
diagonal ``iF``, and so is block 0 of every power, of the Pade quotient, of
each step and of each row.  So block 0 of a row of two or more blocks is
diagonal: the end terms of a product are row and column scalings, and the
Pade solve against block 0 is a division.  A one-block row is a dense
matrix (the Lindblad step).  The row, shape ``(n_max + 1, D, D)``, is
propagated as ``R(t + dt) = R(t) exp(dt M)``, the same block convolution
with the step's first block row, and an off-grid time, past the last point
included, is reached exactly from the grid point below it; off-grid times
at the same offset from their grid points share that exponential.  A
grid's steps share one ``S = exp(hM)`` at a median step ``h``: steps that
differ from ``h`` only by rounding (``linspace``) use ``S + (dt - h) S M``,
whose neglected term ``O(((dt - h)|M|)^2)`` lies below double precision; any
other step gets its own exponential (`propagate_rows`, which the Lindblad
evolution shares with a one-block generator and a one-block row).
Nested quadrature survives only as a test oracle.

All of this happens in the frame, the H0 eigenbasis ``V = v0 (x) 1_B`` where
``F`` is diagonal, and so does the series engine (`KernelSet.frame_stack`).
Its index is bath-major, ``a * d_S + i``, in every row, stack and generator
block, built so by permuting ``F``'s diagonal and ``V^dag H_I V`` once; with
the system index last, ``X (A (x) 1_B)`` is ``X.reshape(-1, d_S) @ A``.
`InteractionFrame.leave_open` returns to the original basis and the public
layout ``i * d_B + a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, OrderExceedsKernels
from .images import ImageFamily
from .model import ModelSpec
from .spaces import Constants, TimeGrid, check_order


@dataclass(frozen=True)
class InteractionFrame:
    """Free-evolution data: H0 eigensystem and constants."""

    eps0: np.ndarray  # H0 eigenvalues
    v0: np.ndarray  # H0 eigenvectors, columns
    constants: Constants

    def free_conjugate(self, o: np.ndarray, t: float) -> np.ndarray:
        """Free Heisenberg evolution ``U0(t)^dag o U0(t)``."""
        phases = np.exp(1j * self.eps0 * t / self.constants.hbar)
        return self.leave(self.enter(o) * np.outer(phases, phases.conj()))

    def enter(self, a: np.ndarray) -> np.ndarray:
        """System operators ``(..., d_S, d_S)`` in the H0 eigenbasis, ``v0^dag a v0``."""
        return self.v0.conj().T @ a @ self.v0

    def leave(self, y: np.ndarray) -> np.ndarray:
        """System operators ``(..., d_S, d_S)`` back from the H0 eigenbasis, ``v0 y v0^dag``."""
        return self.v0 @ y @ self.v0.conj().T

    def leave_open(self, x: np.ndarray) -> np.ndarray:
        """Frame matrices ``(..., D, D)`` back from the H0 eigenbasis,
        ``(v0 (x) 1_B) x (v0 (x) 1_B)^dag``: ``v0 X_ab v0^dag`` for every bath
        block, two GEMMs of ``d_S D^2`` work, whose result is copied once into
        the system-major layout."""
        *lead, d, _ = x.shape
        ds, k = self.v0.shape[0], len(lead)
        rows = self.v0 @ (x.reshape(-1, ds) @ self.v0.conj().T).reshape(*lead, d // ds, ds, d)
        blocks = rows.reshape(*lead, d // ds, ds, d // ds, ds).transpose(*range(k), k + 1, k, k + 3, k + 2)
        return blocks.reshape(*lead, d, d)


def frame_of(m: ModelSpec) -> InteractionFrame:
    eps0, v0 = np.linalg.eigh(m.h0.mat)
    return InteractionFrame(eps0, v0, m.constants)


# Diagonal Pade approximants r_m = V^{-1} U of exp: numerator coefficients
# b_0..b_m, and the largest |A|_1 at which r_m meets double precision without
# scaling (Higham 2005, Table 2.3).
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (
        9,
        2.097847961257068e0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    ),
    (
        13,
        5.371920351148152e0,
        (
            64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
            129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
            1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
        ),
    ),
)


def toeplitz_mul(a: np.ndarray, b: np.ndarray, n: int | None = None) -> np.ndarray:
    """Product of block upper-triangular Toeplitz matrices of ``n`` blocks, as first block rows.

    ``(AB)_k = sum_{m <= k} A_{k - m} B_m`` for ``k < n``.  A factor may hold
    fewer than ``n`` blocks (by default ``n`` is the longer one's length): the
    blocks past its end are zero, and no term reads them (`_nonzero_head`).
    In a row of two or more blocks, block 0 of both factors is diagonal, so
    the end terms ``A_k B_0`` (block 0 of the product included) and ``A_0
    B_k`` are column and row scalings, and only the inner terms ``0 < m <
    k`` are matmuls, one batched matmul per inner block of ``b``.  A
    one-block row is a dense matrix, and the blocks of its ``a``, ``(1, r,
    D)``, may be rectangular: a block row stepped by ``B``.
    """
    n = max(len(a), len(b)) if n is None else n
    if n == 1:
        return np.matmul(a, b[0])
    a0, b0 = np.diagonal(a[0]), np.diagonal(b[0])
    out = np.empty((n, *a.shape[1:]), dtype=np.result_type(a, b))
    np.multiply(a, b0, out=out[: len(a)])
    out[len(a) :] = 0
    out[1 : len(b)] += a0[:, None] * b[1:]
    for m in range(1, min(len(b), n - 1)):
        out[m + 1 : m + len(a)] += np.matmul(a[1 : n - m], b[m])
    return out


def _nonzero_head(row: np.ndarray) -> np.ndarray:
    """``row`` up to its last nonzero block, block 0 at least: the blocks past
    it are zero, so a `toeplitz_mul` by it skips them.  The Van Loan
    generator ``(iF, H_I, 0, ...)`` keeps two blocks."""
    nonzero = np.flatnonzero(row.reshape(len(row), -1).any(axis=1))
    return row[: nonzero[-1] + 1 if nonzero.size else 1]


def toeplitz_norm1(blocks: np.ndarray) -> float:
    """1-norm of the block Toeplitz matrix of ``blocks``: the largest column sum of ``sum_n |A_n|``."""
    return float(np.abs(blocks).sum(axis=(0, 1)).max())


def _toeplitz_solve(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``X`` with ``Q X = P`` by block forward substitution.  In a row of two
    or more blocks ``Q_0`` and ``P_0`` are diagonal: so is ``X_0``, whose
    product with ``Q`` is a column scaling, and each later block is divided by
    ``Q_0``'s diagonal before its product with ``Q`` is taken off the blocks
    after it.  A one-block row is one dense solve."""
    if len(p) == 1:
        return np.linalg.solve(q[0], p[0])[None]
    q0 = np.diagonal(q[0])
    x0 = np.diagonal(p[0]) / q0
    x = p - q * x0
    x[0] = np.diag(x0)
    for k in range(1, len(p)):
        x[k] /= q0[:, None]
        x[k + 1 :] -= np.matmul(q[1 : len(p) - k], x[k])
    return x


def toeplitz_expm(blocks: np.ndarray) -> np.ndarray:
    """First block row of ``exp(A)`` for block upper-triangular Toeplitz ``A``.

    ``A`` is given by its first block row, shape ``(n, D, D)``; a dense matrix
    is the case ``n = 1``.  Pade scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26 (2005) 1179, Algorithm 2.3): the lowest degree whose
    bound admits ``|A|_1``, else degree 13 on ``A / 2^s`` squared ``s``
    times.  Every product is a `toeplitz_mul`, and the ones by ``A`` itself
    read only its blocks up to the last nonzero one (`_nonzero_head`): for
    the Van Loan generator ``(iF, H_I, 0, ...)``, ``A^2`` takes one inner
    GEMM and ``A`` times the odd part n - 2.  Squaring raises the
    rounding of the Pade step to the power ``2^s``, so the result carries a
    relative error of about ``eps |A|_1``: unless ``eps |A|_1 <= sqrt(eps)``
    (a NaN or infinite entry fails too), fewer than half of its digits are
    significant, and it raises `NonFiniteResult`.
    """
    a = np.asarray(blocks, dtype=complex)
    norm, eps = toeplitz_norm1(a), np.finfo(float).eps
    if not norm * eps <= math.sqrt(eps):
        raise NonFiniteResult(
            f"matrix exponential of a generator with 1-norm {norm}: fewer than half of its digits are significant"
        )
    for m, theta, b in _PADE:
        if norm <= theta:
            break
    s = 0 if norm <= theta else math.ceil(math.log2(norm / theta))
    eye = np.zeros_like(a)
    eye[0] = np.eye(a.shape[1])
    a = _nonzero_head(a / 2.0**s)  # a product by a zero block is never formed
    a2 = toeplitz_mul(a, a, len(eye))
    if m == 13:
        a4 = toeplitz_mul(a2, a2)
        a6 = toeplitz_mul(a4, a2)
        odd = toeplitz_mul(a6, b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        v = toeplitz_mul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    else:
        powers = [eye, a2]
        while len(powers) <= m // 2:
            powers.append(toeplitz_mul(powers[-1], a2))
        odd = sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    u = toeplitz_mul(a, odd)
    x = _toeplitz_solve(v - u, v + u)
    for _ in range(s):
        x = toeplitz_mul(x, x)
    return x


def propagate_rows(first: np.ndarray, gen: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``first @ exp((t - points[0]) G)`` at every point, shape ``(n_t, *first.shape)``.

    ``G`` is block upper-triangular Toeplitz with first block row ``gen``,
    shape ``(n, D, D)`` (a dense generator is one block), and ``first`` is a
    block row like it, or ``(1, r, D)``.  Propagated one step at a time, ``R[k] =
    R[k - 1] @ exp(dt_k G)``, each step a `toeplitz_mul` by the step's first
    block row.  The steps share one `toeplitz_expm` at the median step
    ``h``: a step within ``sqrt(eps) / |G|_1`` of it (``linspace`` rounding)
    is ``exp(h G) + (dt - h) exp(h G) G``, whose neglected term lies below
    double precision; any other step gets its own exponential.
    """
    rows = np.empty((len(points), *first.shape), dtype=complex)
    rows[0] = first
    steps = np.diff(points)
    if steps.size == 0:
        return rows
    h = float(np.sort(steps)[steps.size // 2])
    base = toeplitz_expm(h * gen)
    near = np.abs(steps - h) * toeplitz_norm1(gen) <= np.sqrt(np.finfo(float).eps)
    slope = toeplitz_mul(base, _nonzero_head(gen)) if np.any(near & (steps != h)) else None
    cache: dict[float, np.ndarray] = {h: base}
    for k, (dt, first_order) in enumerate(zip(steps.tolist(), near.tolist()), start=1):
        if dt not in cache:
            cache[dt] = base + (dt - h) * slope if first_order else toeplitz_expm(dt * gen)
        rows[k] = toeplitz_mul(rows[k - 1], cache[dt])
    return rows


class KernelSet:
    """Time-ordered kernels of all orders up to ``orders`` at every ``t >= 0``.

    It holds the rows ``R(t) = (E[0], ..., E[n_max])`` at the grid points
    and does not change after construction; `eigen_rows` reaches any time,
    off the grid and past the last point included, and every stack is
    computed from a row on request.  ``tilde_stack(t)[n]`` is the
    interaction-picture family ``Ktilde[n](t)`` in the original basis and
    ``frame_stack(R(t))[n]`` the Heisenberg-frame kernels ``K[n]_ab(t) =
    exp(+i(E_a-E_b)t/hbar) U0^dag Ktilde U0`` in the frame; each stack holds
    orders ``0..n_max`` as full-space matrices, shape ``(n_max + 1, D, D)``,
    with order 0 the identity.
    """

    def __init__(self, m: ModelSpec, n_max: int, grid: TimeGrid):
        self.model = m
        self.orders = n_max
        self.grid = grid
        self.frame = frame_of(m)
        d_s, d_b = m.dim_system, m.dim_bath
        self.dim_system, self.dim_bath = d_s, d_b
        hbar = m.constants.hbar
        # (i/hbar)(E_a - E_b) at every frame entry (a i, b j)
        self._bath_phase = np.repeat(np.repeat(1j * m.bath_gaps, d_s, axis=0), d_s, axis=1)
        # the frame, bath-major: index a * d_S + i carries (E_a + eps0_i) / hbar
        free = (m.bath_energies[:, None] + self.frame.eps0[None, :]).ravel() / hbar
        d = d_s * d_b
        # first block row of the Van Loan generator M: (iF, H_I, 0, ..., 0)
        gen = np.zeros((n_max + 1, d, d), dtype=complex)
        gen[0] = np.diag(1j * free)
        if n_max:  # (v0 (x) 1_B)^dag H_I (v0 (x) 1_B), a mix of d_S row blocks, then of column blocks
            rows = (self.frame.v0.conj().T @ m.hi.mat.reshape(d_s, -1)).reshape(d, d_s, d_b)
            mixed = (self.frame.v0.T @ rows).reshape(d_s, d_b, d_s, d_b)  # (i a, j b)
            gen[1] = mixed.transpose(1, 0, 3, 2).reshape(d, d)
        self._gen = gen
        # R(t) at the grid points, shape (n_t, n_max + 1, d, d), from the identity row
        first = np.zeros_like(gen)
        first[0] = np.eye(d)
        self._rows = propagate_rows(first, gen, grid.points)
        self._rows.flags.writeable = False

    # -- rows and stacks ----------------------------------------------------

    def eigen_rows(self, times: np.ndarray) -> np.ndarray:
        """``R(t)`` at each of ``times``, ``(n_t, n_max + 1, D, D)``, with ``n_t = 0`` for no time.

        A time within 1e-14 of a grid point reads the stored row of the first
        such point, and the grid itself is served without a copy.  Any other
        ``t >= -1e-12`` is one exact step from the grid point below it (the
        first point, for a time just below 0; past the last point included),
        and off-grid times at the same offset share one exponential.  NaN or
        an earlier time raises `OrderExceedsKernels`.
        """
        pts = self.grid.points
        if np.array_equal(times, pts):
            return self._rows
        t = np.asarray(times, dtype=float)
        near = np.searchsorted(pts, t - 1e-14)  # the first point that can lie within 1e-14
        on = np.append(pts, np.inf)[near] - t <= 1e-14
        bad = ~on & ~(t >= -1e-12)  # NaN included
        if bad.any():
            raise OrderExceedsKernels(f"kernels start at t = 0 but t={float(t[bad][0])!r} was requested")
        k = np.where(on, near, np.maximum(np.searchsorted(pts, t, side="right") - 1, 0))
        rows, offsets, off = self._rows[k], (t - pts[k]).tolist(), np.flatnonzero(~on).tolist()
        steps = {dt: toeplitz_expm(dt * self._gen) for dt in dict.fromkeys(offsets[i] for i in off)}
        for i in off:
            rows[i] = toeplitz_mul(rows[i], steps[offsets[i]])
        return rows

    def frame_stack(self, row: np.ndarray) -> np.ndarray:
        """The kernels in the H0 eigenbasis, ``S[n] = E[n] E[0]^-1 = V^dag K[n] V``
        with ``V = v0 (x) 1_B`` and ``E[0] = exp(iFt)`` diagonal; ``S[0] = 1``.
        Rows ``(..., n_max + 1, D, D)`` give stacks of the same shape."""
        d = row.shape[-1]
        out = row / np.diagonal(row[..., 0, :, :], axis1=-2, axis2=-1)[..., None, None, :]
        out[..., 0, :, :] = np.eye(d)
        return out

    def frame_derivative(self, stack: np.ndarray) -> np.ndarray:
        """Covariant derivatives ``U0^dag d/dt[U0 K[n] U0^dag] U0`` of a `frame_stack`, in its basis:
        ``(i/hbar)(E_a - E_b) o S[n] + (V^dag H_I V) S[n-1]`` from the recurrence, the phase
        taken entrywise at bath indices ``(a, b)``; order 0 vanishes identically."""
        out = np.zeros_like(stack)
        out[1:] = self._bath_phase * stack[1:] + self._gen[1:2] @ stack[:-1]  # no H_I term at n_max = 0
        return out

    def tilde_stack(self, t: float) -> np.ndarray:
        """``Ktilde[n](t) = V E[0]^-1 E[n] V^dag`` in the original basis, n = 0..n_max."""
        row = self.eigen_rows([t])[0]
        e0 = np.diagonal(row[0])  # E[0], diagonal
        out = self.frame_stack(row)
        out[1:] = self.frame.leave_open(out[1:] * e0 / e0[:, None])
        return out

    def check_order(self, n: int) -> None:
        """Raise `OrderExceedsKernels` unless order ``n`` lies in ``0..orders``."""
        if n < 0 or n > self.orders:
            raise OrderExceedsKernels(f"series order {n} exceeds computed kernel order {self.orders}")


def compute_kernels(m: ModelSpec, n_max: int, grid: TimeGrid) -> KernelSet:
    """Kernels of orders 0..``n_max``, stored at every point of ``grid`` and
    reached at any other ``t >= 0`` by `KernelSet.eigen_rows`."""
    check_order(n_max, "n_max")
    return KernelSet(m, n_max, grid)


def dyson_propagator(ks: KernelSet, lam: float, order: int, t: float) -> ImageFamily:
    """Truncated evolution-operator family ``sum_n (-i lam/hbar)^n Ktilde[n](t)``."""
    ks.check_order(order)
    hbar = ks.frame.constants.hbar
    stack = ks.tilde_stack(t)
    out = np.zeros_like(stack[0])
    for n in range(order + 1):
        out += (-1j * lam / hbar) ** n * stack[n]
    return ImageFamily(out, ks.dim_bath, t)

