"""Image-operator families and their exact evolution.

A full-space operator ``X`` is equivalent to the family of system-space
blocks ``X_ab = T_a^dag X T_b`` indexed by bath states; the family of a
product is the product of the full-space matrices, and contracting with the
bath state recovers reduced operators.  A family is stored as its ``D x D``
full-space matrix; the blocks are a view of it (`heisenbath._blockops`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blockops
from .errors import DimensionError, IndexOutOfRange
from .model import ModelSpec
from .oracle import evolve_exact
from .spaces import (
    DensityMatrix,
    OperatorMatrix,
    Space,
    SpaceTag,
    TimeGrid,
    full_operator,
    system_operator,
)


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
    def dim_system(self) -> int:
        return self.matrix.shape[0] // self.dim_bath

    @property
    def blocks(self) -> np.ndarray:
        """``(d_B, d_B, d_S, d_S)`` view of the matrix."""
        return _blockops.block_view(self.matrix, self.dim_bath)

    def block(self, alpha: int, beta: int) -> np.ndarray:
        if not (0 <= alpha < self.dim_bath and 0 <= beta < self.dim_bath):
            raise IndexOutOfRange(f"bath indices ({alpha}, {beta}) outside [0, {self.dim_bath})")
        return self.blocks[alpha, beta]


@dataclass(frozen=True)
class ProjectionMap:
    """``T_alpha = sum_i |i alpha><i|`` embedding the system at bath state alpha."""

    alpha: int
    dim_system: int
    dim_bath: int

    def __post_init__(self):
        if not 0 <= self.alpha < self.dim_bath:
            raise IndexOutOfRange(f"alpha={self.alpha} outside [0, {self.dim_bath})")

    @property
    def matrix(self) -> np.ndarray:
        t = np.zeros((self.dim_system * self.dim_bath, self.dim_system), dtype=complex)
        for i in range(self.dim_system):
            t[i * self.dim_bath + self.alpha, i] = 1.0
        return t


def to_image_family(x: OperatorMatrix, time: float = 0.0) -> ImageFamily:
    """All blocks ``T_a^dag x T_b`` of a full-space operator."""
    if x.tag.kind is not Space.FULL:
        raise DimensionError("to_image_family expects a full-space operator")
    return ImageFamily(x.mat, x.tag.dim_bath, time)


def from_image_family(f: ImageFamily) -> OperatorMatrix:
    """The full-space operator ``sum_ab T_a blocks[a,b] T_b^dag`` (inverse of `to_image_family`)."""
    tag = SpaceTag(Space.FULL, f.dim_system, f.dim_bath)
    return full_operator(f.matrix, tag)


def identity_family(d_s: int, d_b: int, time: float = 0.0) -> ImageFamily:
    return ImageFamily(np.eye(d_s * d_b), d_b, time)


def initial_family(o0: OperatorMatrix, d_b: int) -> ImageFamily:
    """``O * delta_ab``: the image family of a system observable at t = 0."""
    if o0.tag.kind is not Space.SYSTEM:
        raise DimensionError("initial observable must live on the system space")
    return ImageFamily(_blockops.kron_identity(o0.mat, d_b), d_b, 0.0)


def compose_images(f1: ImageFamily, f2: ImageFamily) -> ImageFamily:
    """Blockwise product ``out[a,b] = sum_g f1[a,g] f2[g,b]``.

    This is the full-space product exactly (no approximation), which is how
    N-point image operators are built from 1-point ones.
    """
    if f1.blocks.shape != f2.blocks.shape:
        raise DimensionError(f"family shapes differ: {f1.blocks.shape} vs {f2.blocks.shape}")
    return ImageFamily(f1.matrix @ f2.matrix, f2.dim_bath, f2.time)


def contract_with_bath(f: ImageFamily, rho_b: DensityMatrix) -> OperatorMatrix:
    """Reduced operator ``sum_ab blocks[a,b] rho_B[b,a]``."""
    if rho_b.tag.dim_bath != f.dim_bath:
        raise DimensionError("bath dimensions differ")
    mat = _blockops.bath_trace(f.matrix, rho_b.mat)
    return system_operator(mat, SpaceTag(Space.SYSTEM, f.dim_system, f.dim_bath))


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
