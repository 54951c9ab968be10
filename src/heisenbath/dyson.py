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
truncated block convolutions.  The row is propagated as
``R(t + dt) = R(t) exp(dt M)``, one GEMM against the step matrix assembled
from its blocks, and an off-grid time is reached exactly from the grid
point at or below it.  A grid's steps share one ``S = exp(hM)`` at a median
step ``h``: steps that differ from ``h`` only by rounding (``linspace``)
use ``S + (dt - h) S M``, whose neglected term ``O(((dt - h)|M|)^2)`` lies
below double precision; any other step gets its own exponential
(`propagate_rows`, which the Lindblad evolution shares with a one-block
generator).
Nested quadrature survives only as a test oracle.

All of this happens in the H0 eigenbasis, where ``F`` is diagonal; results
are rotated back on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blockops
from .errors import NonFiniteResult, OrderExceedsKernels
from .images import ImageFamily, to_image_family
from .model import ModelSpec
from .spaces import Constants, OperatorMatrix, TimeGrid, as_matrix


@dataclass(frozen=True)
class InteractionFrame:
    """Free-evolution data: H0 eigensystem, bath energies, constants."""

    eps0: np.ndarray  # H0 eigenvalues
    v0: np.ndarray  # H0 eigenvectors, columns
    bath_energies: np.ndarray
    constants: Constants
    h0_mat: np.ndarray

    def u0(self, t: float) -> np.ndarray:
        """``exp(-i H0 t / hbar)``; ``u0(0)`` is the identity."""
        return (self.v0 * np.exp(-1j * self.eps0 * t / self.constants.hbar)) @ self.v0.conj().T

    def free_conjugate(self, o: np.ndarray, t: float) -> np.ndarray:
        """Free Heisenberg evolution ``U0(t)^dag o U0(t)``."""
        phases = np.exp(1j * self.eps0 * t / self.constants.hbar)
        inner = (self.v0.conj().T @ o @ self.v0) * np.outer(phases, phases.conj())
        return self.v0 @ inner @ self.v0.conj().T


def frame_of(m: ModelSpec) -> InteractionFrame:
    eps0, v0 = np.linalg.eigh(m.h0.mat)
    return InteractionFrame(eps0, v0, m.bath_energies, m.constants, m.h0.mat.copy())


def interaction_hamiltonian_images(m: ModelSpec, t: float) -> ImageFamily:
    """The family ``Htilde_ab(t)``; at ``t = 0`` these are the Schrodinger images."""
    fr = frame_of(m)
    hbar = m.constants.hbar
    u = fr.u0(t)
    hi_fam = to_image_family(m.hi).blocks
    delta = (m.bath_energies[:, None] - m.bath_energies[None, :]) / hbar
    phases = np.exp(-1j * delta * t)
    blocks = (u @ hi_fam @ u.conj().T) * phases[:, :, None, None]
    return ImageFamily(blocks, t)


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


def toeplitz_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of block upper-triangular Toeplitz matrices, as first block rows.

    ``(AB)_k = sum_{m <= k} A_m B_{k - m}``: one batched matmul per output block.
    """
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    for k in range(len(a)):
        out[k] = np.matmul(a[: k + 1], b[k::-1]).sum(axis=0)
    return out


def toeplitz_dense(blocks: np.ndarray) -> np.ndarray:
    """The ``(nD, nD)`` matrix whose first block row is ``blocks``, shape ``(n, D, D)``."""
    n, d, _ = blocks.shape
    r, c = np.triu_indices(n)
    out = np.zeros((n, d, n, d), dtype=blocks.dtype)
    out[r, :, c] = blocks[c - r]
    return out.reshape(n * d, n * d)


def toeplitz_norm1(blocks: np.ndarray) -> float:
    """1-norm of `toeplitz_dense` (``blocks``): the largest column sum of ``sum_n |A_n|``."""
    return float(np.abs(blocks).sum(axis=(0, 1)).max())


def _toeplitz_solve(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``X`` with ``Q X = P`` by block forward substitution, one solve against ``Q_0`` per block."""
    x = np.empty_like(p)
    x[0] = np.linalg.solve(q[0], p[0])
    for k in range(1, len(p)):
        x[k] = np.linalg.solve(q[0], p[k] - np.matmul(q[1 : k + 1], x[k - 1 :: -1]).sum(axis=0))
    return x


def toeplitz_expm(blocks: np.ndarray) -> np.ndarray:
    """First block row of ``exp(A)`` for block upper-triangular Toeplitz ``A``.

    ``A`` is given by its first block row, shape ``(n, D, D)``; a dense matrix
    is the case ``n = 1``.  Pade scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26 (2005) 1179, Algorithm 2.3): the lowest degree whose
    bound admits ``|A|_1``, else degree 13 on ``A / 2^s`` squared ``s``
    times.  Every product is a `toeplitz_mul`.  A NaN or infinite entry
    raises `NonFiniteResult`.
    """
    a = np.asarray(blocks, dtype=complex)
    norm = toeplitz_norm1(a)
    if not math.isfinite(norm):
        raise NonFiniteResult(f"matrix exponential of a generator with 1-norm {norm}")
    for m, theta, b in _PADE:
        if norm <= theta:
            break
    s = 0 if norm <= theta else math.ceil(math.log2(norm / theta))
    a = a / 2.0**s
    eye = np.zeros_like(a)
    eye[0] = np.eye(a.shape[1])
    a2 = toeplitz_mul(a, a)
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
    shape ``(n, D, D)`` (a dense generator is one block).  Propagated one
    step at a time, ``R[k] = R[k - 1] @ exp(dt_k G)``, each step one GEMM
    against the step matrix assembled from its blocks.  The steps share one
    `toeplitz_expm` at the median step ``h``: a step within
    ``sqrt(eps) / |G|_1`` of it (``linspace`` rounding) is
    ``exp(h G) + (dt - h) exp(h G) G``, whose neglected term lies below
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
    step = toeplitz_dense(base)
    slope = toeplitz_dense(toeplitz_mul(base, gen)) if np.any(near & (steps != h)) else None
    cache: dict[float, np.ndarray] = {h: step}
    for k, (dt, first_order) in enumerate(zip(steps.tolist(), near.tolist()), start=1):
        if dt not in cache:
            cache[dt] = step + (dt - h) * slope if first_order else toeplitz_dense(toeplitz_expm(dt * gen))
        np.matmul(rows[k - 1], cache[dt], out=rows[k])
    return rows


class KernelSet:
    """Time-ordered kernels of all orders up to ``orders`` on a grid.

    ``tilde_at(n, t)`` returns interaction-picture blocks ``Ktilde[n]_ab(t)``
    in the original basis; ``heis_at(n, t)`` returns the Heisenberg-frame
    kernels ``K[n]_ab(t) = exp(+i(E_a-E_b)t/hbar) U0^dag Ktilde U0``.
    """

    def __init__(self, m: ModelSpec, n_max: int, grid: TimeGrid):
        self.model = m
        self.orders = n_max
        self.grid = grid
        self.frame = frame_of(m)
        d_s, d_b = m.dim_system, m.dim_bath
        self.dim_system, self.dim_bath = d_s, d_b
        hbar = m.constants.hbar
        self._hi_fam = to_image_family(m.hi).blocks
        self._delta_b = (m.bath_energies[:, None] - m.bath_energies[None, :]) / hbar
        # full-space eigenbasis of F: index i * d_B + a carries (eps0_i + E_a) / hbar
        self._free = (self.frame.eps0[:, None] + m.bath_energies[None, :]).ravel() / hbar
        self._v = np.kron(self.frame.v0, np.eye(d_b))
        d = d_s * d_b
        # first block row of the Van Loan generator M: (iF, H_I, 0, ..., 0)
        gen = np.zeros((n_max + 1, d, d), dtype=complex)
        gen[0] = np.diag(1j * self._free)
        if n_max:
            gen[1] = self._v.conj().T @ m.hi.mat @ self._v
        self._gen = gen
        # R(t) at the grid points, shape (n_t, d, (n_max + 1) d)
        self._rows = propagate_rows(np.eye(d, (n_max + 1) * d), gen, grid.points)
        self._cache: dict[tuple[str, float], np.ndarray] = {}

    # -- raw stacks ---------------------------------------------------------

    def _row(self, t: float) -> np.ndarray:
        """``R(t)``: stored at grid points, one exact (cached) step away elsewhere."""
        pts = self.grid.points
        hits = np.flatnonzero(pts == t)
        if hits.size:
            return self._rows[hits[0]]
        if not (-1e-12 <= t <= self.grid.stop * (1 + 1e-12) + 1e-12):
            raise OrderExceedsKernels(
                f"kernels were computed on [0, {self.grid.stop!r}] but t={t!r} was requested"
            )
        key = ("row", float(t))
        hit = self._cache.get(key)
        if hit is None:
            k = max(int(np.searchsorted(pts, t, side="right")) - 1, 0)
            step = toeplitz_dense(toeplitz_expm((t - pts[k]) * self._gen))
            hit = self._remember(key, self._rows[k] @ step)
        return hit

    def _remember(self, key: tuple[str, float], value: np.ndarray) -> np.ndarray:
        if len(self._cache) > 256:
            self._cache.clear()
        self._cache[key] = value
        return value

    def eigen_rows(self, times: np.ndarray) -> np.ndarray:
        """``R(t) = (E[0], ..., E[n_max])`` at each time, shape ``(n_t, D, (n_max + 1) D)``.

        Full-space blocks in the free eigenbasis, ``V = v0 (x) 1_B``, where
        ``K[n](t) = V E[n](t) exp(-iFt) V^dag``.  The grid itself is served
        without a copy.
        """
        if np.array_equal(times, self.grid.points):
            return self._rows
        return np.stack([self._row(float(t)) for t in times])

    def _stack(self, kind: str, t: float) -> np.ndarray:
        """Orders 0..n_max in the original basis; kind 'tilde' or 'heis'."""
        key = (kind, float(t))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        d = self.dim_system * self.dim_bath
        e = self._row(t).reshape(d, self.orders + 1, d).transpose(1, 0, 2)[1:]
        phase = np.exp(-1j * self._free * t)
        # Ktilde[n] = exp(-iFt) E[n]; K[n] = exp(iFt) Ktilde[n] exp(-iFt) = E[n] exp(-iFt)
        eig = phase[:, None] * e if kind == "tilde" else e * phase[None, :]
        rotated = _blockops.full_to_fam(self._v @ eig @ self._v.conj().T, self.dim_system, self.dim_bath)
        out = np.concatenate([_blockops.delta_family(np.eye(self.dim_system), self.dim_bath)[None], rotated])
        return self._remember(key, out)

    def tilde_stack(self, t: float) -> np.ndarray:
        return self._stack("tilde", t)

    def heis_stack(self, t: float) -> np.ndarray:
        return self._stack("heis", t)

    def cov_d_stack(self, t: float) -> np.ndarray:
        """Covariant kernel derivatives ``U0^dag d/dt[U0 K[n] U0^dag] U0``.

        From the recurrence these are known without differencing:
        ``(i/hbar)(E_a - E_b) K[n]_ab + sum_g H_Iag K[n-1]_gb``; order 0
        vanishes identically.
        """
        key = ("cov", float(t))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        heis = self.heis_stack(t)
        out = np.zeros_like(heis)
        phase = 1j * self._delta_b[:, :, None, None]
        for n in range(1, self.orders + 1):
            out[n] = phase * heis[n] + _blockops.fam_mul(self._hi_fam, heis[n - 1])
        return self._remember(key, out)

    # -- per-order access ---------------------------------------------------

    def check_order(self, n: int) -> None:
        """Raise `OrderExceedsKernels` unless order ``n`` lies in ``0..orders``."""
        if n < 0 or n > self.orders:
            raise OrderExceedsKernels(f"series order {n} exceeds computed kernel order {self.orders}")

    def tilde_at(self, n: int, t: float) -> ImageFamily:
        self.check_order(n)
        return ImageFamily(self.tilde_stack(t)[n].copy(), t)

    def heis_at(self, n: int, t: float) -> ImageFamily:
        self.check_order(n)
        return ImageFamily(self.heis_stack(t)[n].copy(), t)


def compute_kernels(m: ModelSpec, n_max: int, grid: TimeGrid) -> KernelSet:
    """Kernels of orders 0..``n_max`` at every point of ``grid``."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return KernelSet(m, n_max, grid)


def dyson_propagator(ks: KernelSet, lam: float, order: int, t: float) -> ImageFamily:
    """Truncated evolution-operator family ``sum_n (-i lam/hbar)^n Ktilde[n](t)``."""
    ks.check_order(order)
    hbar = ks.frame.constants.hbar
    stack = ks.tilde_stack(t)
    out = np.zeros_like(stack[0])
    for n in range(order + 1):
        out += (-1j * lam / hbar) ** n * stack[n]
    return ImageFamily(out, t)


def image_first_order(o: OperatorMatrix | np.ndarray, ks: KernelSet, lam: float, t: float) -> ImageFamily:
    """First-order interaction-picture image family of a system observable.

    ``O delta_ab + (i lam/hbar) [Ktilde[1]_ab(t), O]``; the commutator with
    the time integral equals the integral of commutators.
    """
    ks.check_order(1)
    o_mat = as_matrix(o)
    hbar = ks.frame.constants.hbar
    k1 = ks.tilde_stack(t)[1]
    blocks = _blockops.delta_family(o_mat, ks.dim_bath) + (1j * lam / hbar) * (k1 @ o_mat - o_mat @ k1)
    return ImageFamily(blocks, t)
