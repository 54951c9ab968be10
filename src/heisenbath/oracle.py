"""Exact brute-force reference dynamics.

Everything here is computed by full-space eigendecomposition, with no
approximation of any kind: these functions are the ground truth that every
perturbative module is tested against.  `evolve_exact` is the package's one
diagonalisation of the total Hamiltonian; every other exact result (single
times, grids, N-point products, the validation references) is one call to it.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import _blockops
from .errors import DimensionError, IndexOutOfRange
from .model import ModelSpec
from .spaces import (
    DensityMatrix,
    OperatorMatrix,
    Space,
    full_operator,
    system_operator,
    weighted_bath_trace,
)


def total_hamiltonian(m: ModelSpec) -> OperatorMatrix:
    """``H0 (x) 1 + 1 (x) H_B + lambda * H_I`` on the full space."""
    d_s, d_b = m.dim_system, m.dim_bath
    mat = (
        np.kron(m.h0.mat, np.eye(d_b))
        + np.kron(np.eye(d_s), m.hb.mat)
        + m.constants.lam * m.hi.mat
    )
    return full_operator(mat, m.hi.tag)


def evolve_exact(m: ModelSpec, observables: Sequence[OperatorMatrix], times) -> np.ndarray:
    """``U(t)^dag (o (x) 1_B) U(t)`` at every time, shape ``(n_t, D, D)``.

    ``observables`` holds one system observable per time, or one for all
    times.  ``U(t) = exp(-iHt/hbar)``: one eigendecomposition ``H = V
    diag(E) V^dag`` serves every time, ``U = (V exp(-iEt/hbar)) V^dag`` is
    one GEMM over all times, and ``(U^dag (o (x) 1_B)) U`` two batched GEMMs.
    The full ``o (x) 1_B`` and this order fix the rounding of every exact
    reference; a cheaper form changes it, and with it the validation slopes
    whose smallest errors sit at the rounding floor.
    """
    if any(o.tag.kind is not Space.SYSTEM for o in observables):
        raise DimensionError("initial observable must live on the system space")
    h = total_hamiltonian(m)
    h.require_hermitian("total Hamiltonian")
    evals, vecs = np.linalg.eigh(h.mat)
    d = h.mat.shape[0]
    scaled = vecs * np.exp(-1j * evals * np.asarray(times, dtype=float)[:, None] / m.constants.hbar)[:, None, :]
    u = (scaled.reshape(-1, d) @ vecs.conj().T).reshape(-1, d, d)
    o_full = _blockops.kron_identity(np.stack([o.mat for o in observables]), m.dim_bath)
    # a contiguous adjoint keeps the batched product on BLAS
    return (np.conj(u.swapaxes(-1, -2), order="C") @ o_full) @ u


def heisenberg_evolve_exact(m: ModelSpec, o0: OperatorMatrix, t: float) -> OperatorMatrix:
    """Heisenberg-evolved ``exp(+iHt/hbar) (o0 (x) 1_B) exp(-iHt/hbar)``."""
    return full_operator(evolve_exact(m, [o0], [t])[0], m.hi.tag)


def npoint_reduced_exact(
    m: ModelSpec, ops: Sequence[tuple[OperatorMatrix, float]]
) -> OperatorMatrix:
    """``tr_B{O_1(t_1) ... O_N(t_N) rho_B}`` with the product in sequence order."""
    if not ops:
        raise DimensionError("npoint_reduced_exact needs at least one operator")
    prod = functools.reduce(np.matmul, evolve_exact(m, [o for o, _ in ops], [t for _, t in ops]))
    return weighted_bath_trace(full_operator(prod, m.hi.tag), m.rho_b)


def image_extract_exact(x: OperatorMatrix, alpha: int, beta: int) -> OperatorMatrix:
    """Image block ``T_alpha^dag x T_beta``: ``result[i,j] = x[(i,a),(j,b)]``."""
    if x.tag.kind is not Space.FULL:
        raise DimensionError("image extraction expects a full-space operator")
    d_b = x.tag.dim_bath
    if not (0 <= alpha < d_b and 0 <= beta < d_b):
        raise IndexOutOfRange(f"bath indices ({alpha}, {beta}) outside [0, {d_b})")
    return system_operator(_blockops.block_view(x.mat, d_b)[alpha, beta], x.tag)


def expectation(o_s: OperatorMatrix, rho0: DensityMatrix) -> complex:
    """``tr(o_s rho0)`` on the system space."""
    if o_s.tag.kind is not Space.SYSTEM or rho0.tag.kind is not Space.SYSTEM:
        raise DimensionError("expectation expects system-space operands")
    if o_s.tag.dim_system != rho0.tag.dim_system:
        raise DimensionError("system dimensions differ")
    return complex(np.trace(o_s.mat @ rho0.mat))
