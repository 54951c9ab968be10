"""Image-operator families and their exact evolution.

A full-space operator ``X`` is equivalent to the family of system-space
blocks ``X_ab = T_a^dag X T_b`` indexed by bath states; the family of a
product is the product of the full-space matrices, and contracting with the
bath state (`heisenbath._blockops.bath_trace`) recovers reduced operators.
A family is stored as its ``D x D`` full-space matrix; the blocks are a view
of it (`heisenbath._blockops`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blockops
from .errors import DimensionError
from .model import ModelSpec
from .oracle import evolve_exact
from .spaces import OperatorMatrix, TimeGrid, full_dims


@dataclass(frozen=True)
class ImageFamily:
    """Bath-indexed family of system blocks at a common time.

    Stored as the full-space matrix ``X`` (``D x D``, ``D = d_S d_B``);
    ``blocks[a, b] = X_ab`` is a view of it, ``X_ab[i, j] = X[i * d_B + a, j * d_B + b]``.
    """

    matrix: np.ndarray  # (D, D) complex
    dim_bath: int
    time: float = 0.0

    def __post_init__(self):
        matrix = np.ascontiguousarray(self.matrix, dtype=complex)
        d = matrix.shape[0] if matrix.ndim == 2 else 0
        if matrix.shape != (d, d) or self.dim_bath < 1 or d % self.dim_bath:
            raise DimensionError(f"family matrix has shape {matrix.shape}, expected (D, D) with d_B | D")
        object.__setattr__(self, "matrix", matrix)

    @property
    def blocks(self) -> np.ndarray:
        """``(d_B, d_B, d_S, d_S)`` view of the matrix."""
        return _blockops.block_view(self.matrix, self.dim_bath)


def to_image_family(x: OperatorMatrix, time: float = 0.0) -> ImageFamily:
    """All blocks ``T_a^dag x T_b`` of a full-space operator."""
    return ImageFamily(x.mat, full_dims(x, "to_image_family")[1], time)


def evolve_images_exact(m: ModelSpec, o0: OperatorMatrix, grid: TimeGrid) -> list[ImageFamily]:
    """Image families of ``exp(iHt/hbar) (o0 (x) 1) exp(-iHt/hbar)`` on a grid.

    They solve the coupled block equation
    ``dO_ab/dt = (i/hbar) sum_g (H_ag O_gb - O_ag H_gb)`` from
    ``O_ab(0) = o0 delta_ab``; since ``H = H0 + H_B + lambda H_I`` is
    time-independent, one eigendecomposition (`oracle.evolve_exact`) gives
    every time exactly.
    """
    evolved = evolve_exact(m, [o0], grid.points)
    return [ImageFamily(x, m.dim_bath, float(t)) for x, t in zip(evolved, grid.points)]
