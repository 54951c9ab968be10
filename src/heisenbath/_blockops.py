"""Block-family layout and products.

A family is a complex array of shape ``(..., d_B, d_B, d_S, d_S)``;
``fam[a, b]`` is the system-space block carrying bath indices ``(a, b)``.
It is the same data as the full-space matrix
``X[i * d_B + a, j * d_B + b] = fam[a, b][i, j]``; `fam_to_full` and
`full_to_fam` write this permutation (and `sandwich_sum` the same one for
k families side by side), and any leading axes (orders, grid points) are
carried along.

The series engine evaluates sandwiches ``sum_k L_k (A (x) 1_B) R_k^dag`` in
full space, ``D = d_S d_B``: a system operator acts as ``A (x) 1_B``, which
is one right-multiplication of the contiguous family by ``A``
(`system_lift`); the k terms are then one ``(D, kD) @ (kD, D)`` product
(`sandwich_sum`), and `bath_trace` contracts the result with the bath state.
"""

from __future__ import annotations

import numpy as np


def fam_to_full(fam: np.ndarray) -> np.ndarray:
    """Full-space matrices of a family (or a stack of families)."""
    *lead, db, _, ds, _ = fam.shape
    k = len(lead)
    axes = tuple(range(k)) + (k + 2, k, k + 3, k + 1)
    return fam.transpose(axes).reshape(*lead, ds * db, ds * db)


def full_to_fam(full: np.ndarray, ds: int, db: int) -> np.ndarray:
    """Inverse of `fam_to_full`, as a contiguous array."""
    lead = full.shape[:-2]
    k = len(lead)
    axes = tuple(range(k)) + (k + 1, k + 3, k, k + 2)
    return np.ascontiguousarray(full.reshape(*lead, ds, db, ds, db).transpose(axes))


def fam_mul(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Blockwise product ``out[a,b] = sum_g f[a,g] @ g[g,b]``.

    Equals full-space matrix multiplication in the permuted layout, so a
    single BLAS call does the work.
    """
    db, _, ds, _ = f.shape[-4:]
    return full_to_fam(fam_to_full(f) @ fam_to_full(g), ds, db)


def delta_family(value: np.ndarray, db: int) -> np.ndarray:
    """The family ``value delta_ab`` of the full-space operator ``value (x) 1_B``.

    Leading axes of ``value`` (a stack of system operators) are carried.
    """
    *lead, ds, _ = value.shape
    out = np.zeros((*lead, db, db, ds, ds), dtype=complex)
    idx = np.arange(db)
    out[..., idx, idx, :, :] = value[..., None, :, :]
    return out


def fam_adjoint(fam: np.ndarray) -> np.ndarray:
    """Family of the adjoint: ``out[a, b] = fam[b, a]^dag`` (leading axes carried)."""
    return np.conj(fam).swapaxes(-4, -3).swapaxes(-2, -1)


def system_lift(fam: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Family stack of ``X (A (x) 1_B)``: every block of ``fam`` times the system operator ``a``.

    The family's last axis is the column system index, so this is one GEMM.
    """
    return (fam.reshape(-1, a.shape[0]) @ a).reshape(fam.shape)


def sandwich_sum(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Full-space ``sum_k L_k R_k^dag`` of family stacks ``(k, d_B, d_B, d_S, d_S)``.

    Each operand is laid out once as the ``(D, kD)`` matrix
    ``[full(X_0) | ... | full(X_(k-1))]``, so the sum is a single
    ``(D, kD) @ (kD, D)`` product.
    """
    k, db, _, ds, _ = lefts.shape
    d = ds * db
    # (k, a, b, i, j) -> (i, a, k, j, b)
    left = lefts.transpose(3, 1, 0, 4, 2).reshape(d, k * d)
    right = np.conj(rights.transpose(3, 1, 0, 4, 2), order="C").reshape(d, k * d)
    return left @ right.T


def bath_trace(full: np.ndarray, rho: np.ndarray, ds: int, db: int) -> np.ndarray:
    """Reduced operator ``sum_ab X[i * d_B + a, m * d_B + b] rho_B[b, a]`` of full-space ``X``.

    Leading axes are carried; this is ``sum_ab fam[a, b] rho_B[b, a]`` of
    the family of ``X``.  Written as the transpose, reshape and `np.dot` that
    ``np.tensordot(x, rho, ([-3, -1], [1, 0]))`` performs, without its
    argument handling; a `matmul` could take another BLAS path.
    """
    lead = full.shape[:-2]
    k = len(lead)
    x = full.reshape(*lead, ds, db, ds, db).transpose(*range(k), k, k + 2, k + 1, k + 3)
    return np.dot(x.reshape(-1, db * db), rho.T.reshape(-1, 1)).reshape(*lead, ds, ds)
