"""Operators that carry their dimensions, the density check, constants, time
grids and the bath trace of a full-space operator.

Index convention (fixed globally, asserted in the test suite): the combined
space is spanned by ``|i alpha>`` with ``i`` a system index and ``alpha`` a
bath index, flattened row-major as ``row = i * d_B + alpha``.  Every
contraction in the package relies on this flattening.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._blockops import bath_trace
from .errors import DimensionError, InvalidDensityMatrix

# Tolerances, relative to the matrix norm (double precision, dims <= ~64).
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex square matrix of a model with dimensions ``dims = (d_S, d_B)``.

    Its side is the space it acts on: ``d_S`` for the system space, ``d_S * d_B``
    for the full space (at ``d_B = 1`` the two are the same space).
    """

    mat: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
        d_s, d_b = map(int, self.dims)
        if d_s < 1 or d_b < 1:
            raise DimensionError(f"dimensions must be >= 1, got d_S={d_s}, d_B={d_b}")
        if mat.shape[0] not in (d_s, d_s * d_b):
            raise DimensionError(f"matrix side {mat.shape[0]} is neither d_S={d_s} nor d_S*d_B={d_s * d_b}")
        object.__setattr__(self, "mat", read_only(mat))
        object.__setattr__(self, "dims", (d_s, d_b))


def read_only(mat: np.ndarray) -> np.ndarray:
    """A read-only copy of an array."""
    mat = mat.copy()
    mat.flags.writeable = False
    return mat


def system_matrix(o) -> np.ndarray:
    """The matrix of a system observable: an array-like as a complex array, or an
    `OperatorMatrix` of side ``d_S``; a full-space operator raises `DimensionError`."""
    if isinstance(o, OperatorMatrix) and o.mat.shape[0] != o.dims[0]:
        raise DimensionError("observables must live on the system space")
    return o.mat if isinstance(o, OperatorMatrix) else np.asarray(o, dtype=complex)


def full_dims(x: OperatorMatrix, caller: str) -> tuple[int, int]:
    """``(d_S, d_B)`` of a full-space operator; any other side raises `DimensionError`."""
    d_s, d_b = x.dims
    if x.mat.shape[0] != d_s * d_b:
        raise DimensionError(f"{caller} expects a full-space operator")
    return d_s, d_b


def system_operator(entries, dims) -> OperatorMatrix:
    op = OperatorMatrix(entries, dims)
    system_matrix(op)
    return op


def full_operator(entries, dims) -> OperatorMatrix:
    op = OperatorMatrix(entries, dims)
    full_dims(op, "full_operator")
    return op


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


def check_order(n, name: str) -> None:
    """Raise `ValueError`, naming ``name``, unless ``n`` is a non-negative
    integer: a Python or numpy integer, not a bool."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


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

    @classmethod
    def linspace(cls, stop: float, num: int) -> "TimeGrid":
        return cls(np.linspace(0.0, stop, num))

    @property
    def stop(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return self.points.size

    def __iter__(self):
        return iter(self.points)


def weighted_bath_trace(x: OperatorMatrix, rho_b: np.ndarray) -> OperatorMatrix:
    """Bath-state-weighted trace ``tr_B{x (1 (x) rho_B)}``.

    Elementwise this is ``sum_{ab} x[(i,a),(j,b)] rho_B[b,a]``: the
    `OperatorMatrix` form of `heisenbath._blockops.bath_trace`, the one
    contraction with the bath state that the series engine and the exact
    references share.
    """
    d_b = full_dims(x, "weighted_bath_trace")[1]
    if np.shape(rho_b) != (d_b, d_b):
        raise DimensionError("rho_b must be a bath density matrix of matching dimension")
    return system_operator(bath_trace(x.mat, rho_b), x.dims)
