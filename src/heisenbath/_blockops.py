"""Block-family layout and products.

A family is a complex array of shape ``(..., d_B, d_B, d_S, d_S)``;
``fam[a, b]`` is the system-space block carrying bath indices ``(a, b)``.
It is the same data as the full-space matrix
``X[i * d_B + a, j * d_B + b] = fam[a, b][i, j]``; `fam_to_full` and
`full_to_fam` are the only places that write this permutation, and any
leading axes (orders, grid points) are carried along.
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


def identity_family(ds: int, db: int) -> np.ndarray:
    """The family of the full identity: ``1_S * delta_{ab}``."""
    out = np.zeros((db, db, ds, ds), dtype=complex)
    idx = np.arange(db)
    out[idx, idx] = np.eye(ds)
    return out
