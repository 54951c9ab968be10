"""Image-operator families and their exact evolution.

A full-space operator ``X`` is equivalent to the family of system-space
blocks ``X_ab = T_a^dag X T_b`` indexed by bath states; the family of a
product is the blockwise product, and contracting with the bath state
recovers reduced operators.  Families are stored as arrays of shape
``(d_B, d_B, d_S, d_S)``, in the layout of `heisenbath._blockops`.
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
    """Bath-indexed family of system blocks at a common time."""

    blocks: np.ndarray  # (d_B, d_B, d_S, d_S) complex
    time: float = 0.0

    def __post_init__(self):
        blocks = np.ascontiguousarray(self.blocks, dtype=complex)
        if blocks.ndim != 4 or blocks.shape[0] != blocks.shape[1] or blocks.shape[2] != blocks.shape[3]:
            raise DimensionError(f"family blocks have shape {blocks.shape}, expected (dB,dB,dS,dS)")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim_bath(self) -> int:
        return self.blocks.shape[0]

    @property
    def dim_system(self) -> int:
        return self.blocks.shape[2]

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
    return ImageFamily(_blockops.full_to_fam(x.mat, x.tag.dim_system, x.tag.dim_bath), time)


def from_image_family(f: ImageFamily) -> OperatorMatrix:
    """Reassemble ``sum_ab T_a blocks[a,b] T_b^dag`` (inverse of `to_image_family`)."""
    tag = SpaceTag(Space.FULL, f.dim_system, f.dim_bath)
    return full_operator(_blockops.fam_to_full(f.blocks), tag)


def identity_family(d_s: int, d_b: int, time: float = 0.0) -> ImageFamily:
    return ImageFamily(_blockops.delta_family(np.eye(d_s), d_b), time)


def initial_family(o0: OperatorMatrix, d_b: int) -> ImageFamily:
    """``O * delta_ab``: the image family of a system observable at t = 0."""
    if o0.tag.kind is not Space.SYSTEM:
        raise DimensionError("initial observable must live on the system space")
    return ImageFamily(_blockops.delta_family(o0.mat, d_b), 0.0)


def compose_images(f1: ImageFamily, f2: ImageFamily) -> ImageFamily:
    """Blockwise product ``out[a,b] = sum_g f1[a,g] f2[g,b]``.

    Mirrors full-space multiplication exactly (no approximation), which is
    how N-point image operators are built from 1-point ones.
    """
    if f1.blocks.shape != f2.blocks.shape:
        raise DimensionError(f"family shapes differ: {f1.blocks.shape} vs {f2.blocks.shape}")
    return ImageFamily(_blockops.fam_mul(f1.blocks, f2.blocks), f2.time)


def contract_with_bath(f: ImageFamily, rho_b: DensityMatrix) -> OperatorMatrix:
    """Reduced operator ``sum_ab blocks[a,b] rho_B[b,a]``."""
    if rho_b.tag.dim_bath != f.dim_bath:
        raise DimensionError("bath dimensions differ")
    mat = np.einsum("abij,ba->ij", f.blocks, rho_b.mat)
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
    fams = _blockops.full_to_fam(evolved, m.dim_system, m.dim_bath)
    return [ImageFamily(fam, float(t)) for fam, t in zip(fams, grid.points)]
