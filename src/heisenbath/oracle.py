"""Exact brute-force reference dynamics.

Everything here is computed by full-space eigendecomposition, with no
approximation of any kind: these functions are the ground truth that every
perturbative module is tested against.  `evolve_exact` is the package's one
diagonalisation of the total Hamiltonian; every other exact result (single
times, grids, N-point products, the validation references) is one call to it,
and a coupling sweep is one call with one batched eigendecomposition.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from . import _blockops
from .errors import DimensionError, NonFiniteResult, NonHermitianInput
from .model import ModelSpec
from .spaces import (
    HERM_TOL,
    OperatorMatrix,
    full_operator,
    herm_defect,
    system_matrix,
    system_operator,
)


def _free_hamiltonian(m: ModelSpec) -> np.ndarray:
    """The coupling-free part ``H0 (x) 1 + 1 (x) H_B`` on the full space."""
    return np.kron(m.h0.mat, np.eye(m.dim_bath)) + np.kron(np.eye(m.dim_system), m.hb)


def evolve_exact(m: ModelSpec, observables, times, lams=None) -> np.ndarray:
    """``U(t)^dag (o (x) 1_B) U(t)`` at every time, shape ``(n_t, D, D)``.

    ``observables`` holds one system observable per time, or one for all
    times: a ``(d_S, d_S)`` array or a system `OperatorMatrix`; any
    other shape or a full-space operator raises `DimensionError`.
    ``U(t) = exp(-iHt/hbar)``: one eigendecomposition ``H = V diag(E)
    V^dag`` serves every time, ``U = (V exp(-iEt/hbar)) V^dag`` is one GEMM
    over all times, ``(o (x) 1_B) U`` mixes the d_S row blocks of ``U``
    (``d_S D^2`` work), and ``U^dag ((o (x) 1_B) U)`` is one batched GEMM.

    With a coupling sweep ``lams`` in place of the model's own coupling the
    result gains a leading coupling axis, ``(n_lam, n_t, D, D)``: the free
    part of ``H`` is built once, each coupling's ``H`` is checked for
    hermiticity, and one batched eigendecomposition serves them all.  Each
    coupling gets the bits of a lone call on ``m.with_coupling(lam)``.

    A phase ``E t / hbar`` carries a rounding error of about ``eps |E t /
    hbar|``: unless ``eps max|E| max|t| / hbar <= sqrt(eps)`` (the rule of
    `dyson.toeplitz_expm`; a NaN or infinite bound fails too), fewer than
    half of its digits are significant, and it raises `NonFiniteResult`.
    """
    mats = [system_matrix(o) for o in observables]
    if any(o.shape != (m.dim_system, m.dim_system) for o in mats):
        raise DimensionError(f"observables must have shape {(m.dim_system, m.dim_system)}")
    sweep = [m.constants.lam] if lams is None else lams
    h = _free_hamiltonian(m) + np.asarray(sweep, dtype=float)[:, None, None] * m.hi.mat
    for defect in map(herm_defect, h):
        if not defect <= HERM_TOL:  # a NaN defect fails too
            raise NonHermitianInput(f"total Hamiltonian is not hermitian (defect {defect:.2e})")
    evals, vecs = np.linalg.eigh(h)
    times, eps = np.asarray(times, dtype=float), np.finfo(float).eps
    span = np.max(np.abs(evals), initial=0.0) * np.max(np.abs(times), initial=0.0) / m.constants.hbar
    if not eps * span <= math.sqrt(eps):
        raise NonFiniteResult(f"exact phases E t / hbar up to {span:.3g}: fewer than half of their digits significant")
    n_lam, d, _ = h.shape
    phases = np.exp(-1j * evals[:, None, :] * times[:, None] / m.constants.hbar)
    scaled = vecs[:, None] * phases[..., None, :]
    u = (scaled.reshape(n_lam, -1, d) @ vecs.conj().swapaxes(-1, -2)).reshape(n_lam, -1, d, d)
    del scaled  # freeing each (n_lam, n_t, D, D) temporary once read keeps the peak at three of them
    mixed = (np.stack(mats) @ u.reshape(n_lam, -1, m.dim_system, m.dim_bath * d)).reshape(u.shape)
    # a contiguous adjoint keeps the batched product on BLAS
    adjoint = np.conj(u.swapaxes(-1, -2), order="C")
    del u
    out = adjoint @ mixed
    return out[0] if lams is None else out


def heisenberg_evolve_exact(m: ModelSpec, o0: OperatorMatrix, t: float) -> OperatorMatrix:
    """Heisenberg-evolved ``exp(+iHt/hbar) (o0 (x) 1_B) exp(-iHt/hbar)``."""
    return full_operator(evolve_exact(m, [o0], [t])[0], m.hi.dims)


def npoint_reduced_exact(
    m: ModelSpec, ops: Sequence[tuple[OperatorMatrix, float]]
) -> OperatorMatrix:
    """``tr_B{O_1(t_1) ... O_N(t_N) rho_B}`` with the product in sequence order."""
    if not ops:
        raise DimensionError("npoint_reduced_exact needs at least one operator")
    legs = evolve_exact(m, [o for o, _ in ops], [t for _, t in ops])
    return system_operator(reduced_product(legs, m.rho_b), m.hi.dims)


def reduced_product(legs, rho_b: np.ndarray) -> np.ndarray:
    """``tr_B{X_1 ... X_N (1 (x) rho_B)}`` of full-space legs ``(N, ..., D, D)``.

    The product runs in leg order over the first axis, and the leading axes
    of the legs broadcast.  It is the exact side's own reduction: the series
    side closes its chains through `superop.chain_contract`, and a reference
    that shared that code could not see a fault in it.
    """
    return _blockops.bath_trace(functools.reduce(np.matmul, legs), rho_b)
