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
defective, so ``expm`` computes it; the row is propagated as
``R(t + dt) = R(t) exp(dt M)`` and an off-grid time is reached exactly from
the grid point at or below it.  A grid's steps share one ``S = exp(hM)`` at
a median step ``h``: steps that differ from ``h`` only by rounding
(``linspace``) use ``S + (dt - h) S M``, whose neglected term
``O(((dt - h)|M|)^2)`` lies below double precision; any other step gets
its own ``expm``.  Nested quadrature survives only as a test oracle.

All of this happens in the H0 eigenbasis, where ``F`` is diagonal; results
are rotated back on access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import _blockops
from .errors import OrderExceedsKernels
from .images import ImageFamily, to_image_family
from .model import ModelSpec
from .spaces import Constants, OperatorMatrix, TimeGrid


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


def _step_exponentials(gen: np.ndarray, steps: np.ndarray) -> list[np.ndarray]:
    """``exp(dt * gen)`` for each step, sharing one ``expm`` among near-equal steps."""
    if steps.size == 0:
        return []
    h = float(np.sort(steps)[steps.size // 2])
    base = expm(h * gen)
    near = np.abs(steps - h) * np.linalg.norm(gen, 1) <= np.sqrt(np.finfo(float).eps)
    slope = base @ gen if np.any(near & (steps != h)) else None
    cache: dict[float, np.ndarray] = {h: base}
    out = []
    for dt, first_order in zip(steps.tolist(), near.tolist()):
        if dt not in cache:
            cache[dt] = base + (dt - h) * slope if first_order else expm(dt * gen)
        out.append(cache[dt])
    return out


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
        gen = np.kron(np.eye(n_max + 1), np.diag(1j * self._free))
        gen[:-d, d:] += np.kron(np.eye(n_max), self._v.conj().T @ m.hi.mat @ self._v)
        self._gen = gen
        # R(t) at the grid points, shape (n_t, d, (n_max + 1) d)
        self._rows = np.empty((len(grid), d, (n_max + 1) * d), dtype=complex)
        self._rows[0] = np.eye(d, (n_max + 1) * d)
        for k, step in enumerate(_step_exponentials(gen, np.diff(grid.points)), start=1):
            np.matmul(self._rows[k - 1], step, out=self._rows[k])
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
            hit = self._remember(key, self._rows[k] @ expm((t - pts[k]) * self._gen))
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
        out = np.concatenate(
            [_blockops.identity_family(self.dim_system, self.dim_bath)[None], rotated]
        )
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

    def _check_order(self, n: int) -> None:
        if n < 0 or n > self.orders:
            raise OrderExceedsKernels(f"order {n} requested, kernels available up to {self.orders}")

    def tilde_at(self, n: int, t: float) -> ImageFamily:
        self._check_order(n)
        return ImageFamily(self.tilde_stack(t)[n].copy(), t)

    def heis_at(self, n: int, t: float) -> ImageFamily:
        self._check_order(n)
        return ImageFamily(self.heis_stack(t)[n].copy(), t)


def compute_kernels(m: ModelSpec, n_max: int = 4, grid: TimeGrid = None) -> KernelSet:
    """Kernels of orders 0..``n_max`` at every point of ``grid``."""
    if grid is None:
        raise ValueError("compute_kernels needs a TimeGrid")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return KernelSet(m, n_max, grid)


def dyson_propagator(ks: KernelSet, lam: float, order: int, t: float) -> ImageFamily:
    """Truncated evolution-operator family ``sum_n (-i lam/hbar)^n Ktilde[n](t)``."""
    if order > ks.orders:
        raise OrderExceedsKernels(f"order {order} requested, kernels available up to {ks.orders}")
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
    if ks.orders < 1:
        raise OrderExceedsKernels("first-order images need kernels of order >= 1")
    o_mat = o.mat if isinstance(o, OperatorMatrix) else np.asarray(o, dtype=complex)
    hbar = ks.frame.constants.hbar
    k1 = ks.tilde_stack(t)[1]
    blocks = (1j * lam / hbar) * (k1 @ o_mat - o_mat @ k1)
    idx = np.arange(ks.dim_bath)
    blocks[idx, idx] += o_mat
    return ImageFamily(blocks, t)
