"""Full-space matrix stacks, the block view of their bath indices and the bath trace.

A family is a full-space matrix ``X`` of size ``D = d_S d_B`` (or a stack
``(..., D, D)`` of them); its image blocks are
``X_ab[i, j] = X[i * d_B + a, j * d_B + b]``.  `block_view` reads them as an
array ``(..., d_B, d_B, d_S, d_S)`` without a copy, and `bath_trace`
contracts a family with the bath state.

There is one other layout, the frame's (`dyson`): a frame matrix indexes
``a * d_S + i``, bath-major with the system index last, so that ``A (x)
1_B`` on its right is a GEMM by ``A`` on a reshape and needs no helper here.
`frame_trace` is `bath_trace` for it; both contract the same blocks in the
same way, so a stack gets the bits of its matrices one at a time.
"""

from __future__ import annotations

import numpy as np


def block_view(full: np.ndarray, db: int) -> np.ndarray:
    """The blocks ``(..., d_B, d_B, d_S, d_S)`` of full-space matrices ``(..., D, D)``, as a view."""
    *lead, d, _ = full.shape
    k = len(lead)
    return full.reshape(*lead, d // db, db, d // db, db).transpose(*range(k), k + 1, k + 3, k, k + 2)


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
    db, (*lead, d, _) = len(rho), full.shape
    k = len(lead)
    return _traced(full.reshape(*lead, d // db, db, d // db, db).transpose(*range(k), k, k + 2, k + 1, k + 3), rho)


def frame_trace(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """`bath_trace` of frame matrices ``(..., D, D)``, indexed ``a * d_S + i``: their
    `block_view` with system and bath exchanged is the array ``(..., d_S, d_S, d_B, d_B)`` it contracts."""
    return _traced(block_view(x, x.shape[-1] // len(rho)), rho)


def _traced(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``sum_ab x[..., i, m, a, b] rho_B[b, a]``, one matrix-vector product."""
    *lead, ds, _, db, _ = x.shape
    return np.dot(x.reshape(-1, db * db), rho.T.reshape(-1, 1)).reshape(*lead, ds, ds)
