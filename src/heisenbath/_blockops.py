"""Full-space matrix stacks and the block view of their bath indices.

A family is a full-space matrix ``X`` of size ``D = d_S d_B`` (or a stack
``(..., D, D)`` of them); its image blocks are
``X_ab[i, j] = X[i * d_B + a, j * d_B + b]``.  `block_view` reads them as an
array ``(..., d_B, d_B, d_S, d_S)`` without a copy.

The partition words of `npoint` evaluate sandwiches ``sum_k L_k (A (x) 1_B)
R_k^dag`` as GEMMs: a system operator acts as ``A (x) 1_B`` (`kron_identity`),
which on the right of ``X`` multiplies every block by ``A`` (`system_lift`);
the k terms are then one ``(D, kD) @ (kD, D)`` product (`sandwich_sum`), and
`bath_trace` contracts the result with the bath state.  All three carry
leading axes, broadcast against each other: the suffixes of one length in a
partition sum, the couplings of a sweep.  `system_lift` and `sandwich_sum`
give each leading index the GEMM a lone operator and lone stack would get,
so a batched call returns the bits of its lone calls.
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
    """``X (A (x) 1_B)`` for every matrix ``X`` of stacks ``(..., k, D, D)``.

    Every block ``X_ab`` times the system operator ``a``: each stack is
    copied once into block layout, whose last axis is the column system
    index, so the product is one ``(rows, d_S) @ (d_S, d_S)`` GEMM per
    stack and operator.  The leading axes of the stack and of ``a``
    (``(..., d_S, d_S)``: one operator per coupling, say) broadcast and lead
    the result, ``(..., k, D, D)``; a stack shared by several operators is
    laid out once.
    """
    *slead, k, d, _ = stack.shape
    *alead, ds, _ = a.shape
    db = d // ds
    lead = np.broadcast_shapes(tuple(slead), tuple(alead))
    n, s = len(lead), len(slead)
    # (..., k, i, a, j, b) -> (..., k, a, b, i, j) and back
    laid = stack.reshape(*slead, k, ds, db, ds, db).transpose(*range(s), s, s + 2, s + 4, s + 1, s + 3)
    lifted = laid.reshape(*slead, -1, ds) @ a
    back = (*range(n), n, n + 3, n + 1, n + 4, n + 2)
    return lifted.reshape(*lead, k, db, db, ds, ds).transpose(back).reshape(*lead, k, d, d)


def sandwich_sum(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """``sum_k L_k R_k^dag`` of matrix stacks ``(..., k, D, D)``, leading axes broadcast.

    Each operand is laid out once as the ``(D, kD)`` matrix
    ``[X_0 | ... | X_(k-1)]``, so the sum is a single
    ``(D, kD) @ (kD, D)`` product per leading index; ``rights`` with fewer
    leading axes is laid out once for all of them.
    """
    *lead, k, d, _ = lefts.shape
    n = len(lead)
    left = lefts.transpose(*range(n), n + 1, n, n + 2).reshape(*lead, d, k * d)
    right = np.conj(rights.swapaxes(-3, -2), order="C").reshape(*rights.shape[:-3], d, k * d)
    return left @ right.swapaxes(-1, -2)


def bath_trace(full: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Reduced operator ``sum_ab X[i * d_B + a, m * d_B + b] rho_B[b, a]`` of full-space ``X``.

    Leading axes are carried; this is ``sum_ab X_ab rho_B[b, a]`` over the
    blocks of ``X``.  Written as the transpose, reshape and `np.dot` that
    ``np.tensordot(x, rho, ([-3, -1], [1, 0]))`` performs, without its
    argument handling; a `matmul` could take another BLAS path.  Every
    entry is one row of a single matrix-vector product, so a stack gets the
    bits of its matrices one at a time, except at ``d_S = 1``: there a lone
    matrix is a single row, which numpy sends to a dot product instead.
    """
    db = rho.shape[0]
    *lead, d, _ = full.shape
    ds = d // db
    k = len(lead)
    x = full.reshape(*lead, ds, db, ds, db).transpose(*range(k), k, k + 2, k + 1, k + 3)
    return np.dot(x.reshape(-1, db * db), rho.T.reshape(-1, 1)).reshape(*lead, ds, ds)
