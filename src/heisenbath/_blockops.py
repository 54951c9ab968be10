"""Full-space matrix stacks and the block view of their bath indices.

A family is a full-space matrix ``X`` of size ``D = d_S d_B`` (or a stack
``(..., D, D)`` of them); its image blocks are
``X_ab[i, j] = X[i * d_B + a, j * d_B + b]``.  `block_view` reads them as an
array ``(..., d_B, d_B, d_S, d_S)`` without a copy.

The series engine evaluates sandwiches ``sum_k L_k (A (x) 1_B) R_k^dag`` as
GEMMs: a system operator acts as ``A (x) 1_B`` (`kron_identity`), which on
the right of ``X`` multiplies every block by ``A`` (`system_lift`); the k
terms are then one ``(D, kD) @ (kD, D)`` product (`sandwich_sum`), and
`bath_trace` contracts the result with the bath state.  All three carry
leading axes, such as the coupling axis of a coupling sweep; `system_lift`
and `sandwich_sum` give each leading index the GEMM a lone operator would
get.
"""

from __future__ import annotations

import numpy as np


def block_view(full: np.ndarray, db: int) -> np.ndarray:
    """The blocks ``(..., d_B, d_B, d_S, d_S)`` of full-space matrices ``(..., D, D)``, as a view."""
    *lead, d, _ = full.shape
    k = len(lead)
    return full.reshape(*lead, d // db, db, d // db, db).transpose(*range(k), k + 1, k + 3, k, k + 2)


def kron_identity(value: np.ndarray, db: int) -> np.ndarray:
    """``value (x) 1_B`` for system operators ``(..., d_S, d_S)``: blocks ``value delta_ab``."""
    *lead, ds, _ = value.shape
    out = np.zeros((*lead, ds, db, ds, db), dtype=complex)
    idx = np.arange(db)
    out[..., :, idx, :, idx] = value
    return out.reshape(*lead, ds * db, ds * db)


def system_lift(stack: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``X (A (x) 1_B)`` for every matrix ``X`` of a stack ``(k, D, D)``.

    Every block ``X_ab`` times the system operator ``a``: the stack is
    copied once into block layout, whose last axis is the column system
    index, so the product is one ``(rows, d_S) @ (d_S, d_S)`` GEMM.  Leading
    axes of ``a`` (one operator per coupling, ``(..., d_S, d_S)``) lead the
    result, ``(..., k, D, D)``: the stack is laid out once and multiplied by
    each operator, one GEMM of the same shape apiece.
    """
    k, d, _ = stack.shape
    *lead, ds, _ = a.shape
    db = d // ds
    n = len(lead)
    # (k, i, a, j, b) -> (..., k, a, b, i, j) and back
    lifted = stack.reshape(k, ds, db, ds, db).transpose(0, 2, 4, 1, 3).reshape(-1, ds) @ a
    back = (*range(n), n, n + 3, n + 1, n + 4, n + 2)
    return lifted.reshape(*lead, k, db, db, ds, ds).transpose(back).reshape(*lead, k, d, d)


def sandwich_sum(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """``sum_k L_k R_k^dag`` of matrix stacks ``(..., k, D, D)`` and ``(k, D, D)``.

    Each operand is laid out once as the ``(D, kD)`` matrix
    ``[X_0 | ... | X_(k-1)]``, so the sum is a single
    ``(D, kD) @ (kD, D)`` product per leading index of ``lefts``, all
    against the one laid-out ``rights``.
    """
    *lead, k, d, _ = lefts.shape
    n = len(lead)
    left = lefts.transpose(*range(n), n + 1, n, n + 2).reshape(*lead, d, k * d)
    right = np.conj(rights.transpose(1, 0, 2), order="C").reshape(d, k * d)
    return left @ right.T


def bath_trace(full: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Reduced operator ``sum_ab X[i * d_B + a, m * d_B + b] rho_B[b, a]`` of full-space ``X``.

    Leading axes are carried; this is ``sum_ab X_ab rho_B[b, a]`` over the
    blocks of ``X``.  Written as the transpose, reshape and `np.dot` that
    ``np.tensordot(x, rho, ([-3, -1], [1, 0]))`` performs, without its
    argument handling; a `matmul` could take another BLAS path.
    """
    db = rho.shape[0]
    *lead, d, _ = full.shape
    ds = d // db
    k = len(lead)
    x = full.reshape(*lead, ds, db, ds, db).transpose(*range(k), k, k + 2, k + 1, k + 3)
    return np.dot(x.reshape(-1, db * db), rho.T.reshape(-1, 1)).reshape(*lead, ds, ds)
