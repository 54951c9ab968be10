"""Tagged operators, the density check, constants, time grids and the tagged bath trace.

Index convention (fixed globally, asserted in the test suite): the combined
space is spanned by ``|i alpha>`` with ``i`` a system index and ``alpha`` a
bath index, flattened row-major as ``row = i * d_B + alpha``.  Every
contraction in the package relies on this flattening.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._blockops import bath_trace
from .errors import DimensionError, InvalidDensityMatrix

# Tolerances, relative to the matrix norm (double precision, dims <= ~64).
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


class Space(Enum):
    SYSTEM = "system"
    FULL = "full"


@dataclass(frozen=True)
class SpaceTag:
    """Identifies which space a matrix acts on and the global dimensions."""

    kind: Space
    dim_system: int
    dim_bath: int

    def __post_init__(self):
        if self.dim_system < 1 or self.dim_bath < 1:
            raise DimensionError(
                f"dimensions must be >= 1, got d_S={self.dim_system}, d_B={self.dim_bath}"
            )

    @property
    def side(self) -> int:
        """Side length of a matrix carrying this tag."""
        if self.kind is Space.SYSTEM:
            return self.dim_system
        return self.dim_system * self.dim_bath


def _as_complex_matrix(entries) -> np.ndarray:
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    return mat


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex square matrix tagged with the space it acts on."""

    mat: np.ndarray
    tag: SpaceTag

    def __post_init__(self):
        mat = _as_complex_matrix(self.mat)
        if mat.shape[0] != self.tag.side:
            raise DimensionError(
                f"matrix side {mat.shape[0]} does not match tag "
                f"{self.tag.kind.value} (expected {self.tag.side})"
            )
        object.__setattr__(self, "mat", read_only(mat))


def read_only(mat: np.ndarray) -> np.ndarray:
    """A read-only copy of an array."""
    mat = mat.copy()
    mat.flags.writeable = False
    return mat


def as_matrix(x) -> np.ndarray:
    """The matrix of an `OperatorMatrix`, or any array-like as a complex array."""
    return x.mat if isinstance(x, OperatorMatrix) else np.asarray(x, dtype=complex)


def system_matrix(o) -> np.ndarray:
    """`as_matrix` of a system observable: an array, or an `OperatorMatrix` tagged
    for the system space; a full-space operator raises `DimensionError`."""
    if isinstance(o, OperatorMatrix) and o.tag.kind is not Space.SYSTEM:
        raise DimensionError("observables must live on the system space")
    return as_matrix(o)


def system_operator(entries, tag_or_dims) -> OperatorMatrix:
    return OperatorMatrix(_as_complex_matrix(entries), _retag(tag_or_dims, Space.SYSTEM))


def full_operator(entries, tag_or_dims) -> OperatorMatrix:
    return OperatorMatrix(_as_complex_matrix(entries), _retag(tag_or_dims, Space.FULL))


def _retag(tag_or_dims, kind: Space) -> SpaceTag:
    if isinstance(tag_or_dims, SpaceTag):
        return SpaceTag(kind, tag_or_dims.dim_system, tag_or_dims.dim_bath)
    d_s, d_b = tag_or_dims
    return SpaceTag(kind, int(d_s), int(d_b))


def herm_defect(mat: np.ndarray) -> float:
    """Frobenius distance to the hermitian part, relative to the norm."""
    scale = max(1.0, float(np.linalg.norm(mat)))
    return float(np.linalg.norm(mat - mat.conj().T)) / scale


def check_density(mat: np.ndarray, name: str) -> None:
    """Raise `InvalidDensityMatrix`, naming ``name``, unless ``mat`` is hermitian,
    of unit trace and positive semi-definite."""
    scale = max(1.0, float(np.linalg.norm(mat)))
    if herm_defect(mat) > HERM_TOL:
        raise InvalidDensityMatrix(f"{name}: density matrix is not hermitian")
    if abs(np.trace(mat) - 1.0) > TRACE_TOL * scale:
        raise InvalidDensityMatrix(f"{name}: density matrix trace is {np.trace(mat):.12g}, expected 1")
    evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    if evals.min() < -PSD_TOL * scale:
        raise InvalidDensityMatrix(f"{name}: density matrix has negative eigenvalue {evals.min():.3e}")


@dataclass(frozen=True)
class Constants:
    """Physical constants: hbar and the dimensionless coupling strength."""

    hbar: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sequence of sample times starting at 0."""

    points: np.ndarray = field()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("time grid must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(pts)):
            raise ValueError("time grid points must be finite")
        if pts[0] != 0.0:
            raise ValueError(f"time grid must start at 0, got {pts[0]}")
        if pts.size > 1 and np.any(np.diff(pts) <= 0):
            raise ValueError("time grid must be strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_floats", tuple(pts.tolist()))  # what `index` bisects, converted once

    @classmethod
    def linspace(cls, stop: float, num: int) -> "TimeGrid":
        return cls(np.linspace(0.0, stop, num))

    @property
    def stop(self) -> float:
        return float(self.points[-1])

    def index(self, t: float) -> int | None:
        """Index of the grid point within 1e-14 of ``t``, or None off the grid."""
        points = self._floats
        k = bisect.bisect_left(points, t - 1e-14)  # the first point that can lie within
        return k if k < len(points) and points[k] - t <= 1e-14 else None

    def __len__(self) -> int:
        return self.points.size

    def __iter__(self):
        return iter(self.points)


def weighted_bath_trace(x: OperatorMatrix, rho_b: np.ndarray) -> OperatorMatrix:
    """Bath-state-weighted trace ``tr_B{x (1 (x) rho_B)}``.

    Elementwise this is ``sum_{ab} x[(i,a),(j,b)] rho_B[b,a]``: the tagged
    form of `heisenbath._blockops.bath_trace`, the one contraction with the
    bath state that the series engine and the exact references share.
    """
    if x.tag.kind is not Space.FULL:
        raise DimensionError("weighted_bath_trace expects a full-space operator")
    if np.shape(rho_b) != (x.tag.dim_bath, x.tag.dim_bath):
        raise DimensionError("rho_b must be a bath density matrix of matching dimension")
    return system_operator(bath_trace(x.mat, rho_b), x.tag)
