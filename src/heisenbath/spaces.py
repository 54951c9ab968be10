"""Foundational linear algebra on system, bath and combined Hilbert spaces.

Index convention (fixed globally, asserted in the test suite): the combined
space is spanned by ``|i alpha>`` with ``i`` a system index and ``alpha`` a
bath index, flattened row-major as ``row = i * d_B + alpha``.  Every
contraction in the package relies on this flattening.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._blockops import bath_trace
from .errors import (
    DimensionError,
    InvalidDensityMatrix,
    NonHermitianInput,
)

# Tolerances, relative to the matrix norm (double precision, dims <= ~64).
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARY_TOL = 1e-9


class Space(Enum):
    SYSTEM = "system"
    BATH = "bath"
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
        if self.kind is Space.BATH:
            return self.dim_bath
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
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @property
    def is_hermitian(self) -> bool:
        return herm_defect(self.mat) <= HERM_TOL

    def require_hermitian(self, what: str = "operator") -> None:
        if not self.is_hermitian:
            raise NonHermitianInput(f"{what} is not hermitian (defect {herm_defect(self.mat):.2e})")


def as_matrix(x) -> np.ndarray:
    """The matrix of an `OperatorMatrix`, or any array-like as a complex array."""
    return x.mat if isinstance(x, OperatorMatrix) else np.asarray(x, dtype=complex)


def system_operator(entries, tag_or_dims) -> OperatorMatrix:
    return OperatorMatrix(_as_complex_matrix(entries), _retag(tag_or_dims, Space.SYSTEM))


def bath_operator(entries, tag_or_dims) -> OperatorMatrix:
    return OperatorMatrix(_as_complex_matrix(entries), _retag(tag_or_dims, Space.BATH))


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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semi-definite, unit-trace operator."""

    op: OperatorMatrix

    def __post_init__(self):
        mat = self.op.mat
        scale = max(1.0, float(np.linalg.norm(mat)))
        if herm_defect(mat) > HERM_TOL:
            raise InvalidDensityMatrix("density matrix is not hermitian")
        if abs(np.trace(mat) - 1.0) > TRACE_TOL * scale:
            raise InvalidDensityMatrix(f"density matrix trace is {np.trace(mat):.12g}, expected 1")
        evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        if evals.min() < -PSD_TOL * scale:
            raise InvalidDensityMatrix(f"density matrix has negative eigenvalue {evals.min():.3e}")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def tag(self) -> SpaceTag:
        return self.op.tag


@dataclass(frozen=True)
class Constants:
    """Physical constants: hbar and the dimensionless coupling strength."""

    hbar: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sequence of sample times starting at 0."""

    points: np.ndarray = field()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("time grid must be a non-empty 1-D sequence")
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


def _check_same_tag(a: OperatorMatrix, b: OperatorMatrix) -> None:
    if a.tag != b.tag:
        raise DimensionError(f"tags differ: {a.tag} vs {b.tag}")


def tensor_product(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of a system and a bath operator on the full space.

    ``(a (x) b)[(i, alpha), (j, beta)] = a[i, j] * b[alpha, beta]`` under the
    ``row = i * d_B + alpha`` convention, which is exactly ``np.kron``.
    """
    if a.tag.kind is not Space.SYSTEM or b.tag.kind is not Space.BATH:
        raise DimensionError("tensor_product expects (system, bath) operands")
    if (a.tag.dim_system, a.tag.dim_bath) != (b.tag.dim_system, b.tag.dim_bath):
        raise DimensionError("operands carry different global dimensions")
    return full_operator(np.kron(a.mat, b.mat), a.tag)


def partial_trace_bath(x: OperatorMatrix) -> OperatorMatrix:
    """Unweighted bath trace: ``result[i, j] = sum_alpha x[(i,a),(j,a)]``,
    `bath_trace` against the identity."""
    if x.tag.kind is not Space.FULL:
        raise DimensionError("partial_trace_bath expects a full-space operator")
    return system_operator(bath_trace(x.mat, np.eye(x.tag.dim_bath)), x.tag)


def weighted_bath_trace(x: OperatorMatrix, rho_b: DensityMatrix) -> OperatorMatrix:
    """Bath-state-weighted trace ``tr_B{x (1 (x) rho_B)}``.

    Elementwise this is ``sum_{ab} x[(i,a),(j,b)] rho_B[b,a]``: the tagged
    form of `heisenbath._blockops.bath_trace`, the one contraction with the
    bath state that the series engine and the exact references share.
    """
    if x.tag.kind is not Space.FULL:
        raise DimensionError("weighted_bath_trace expects a full-space operator")
    if rho_b.tag.kind is not Space.BATH or rho_b.tag.dim_bath != x.tag.dim_bath:
        raise DimensionError("rho_b must be a bath density matrix of matching dimension")
    return system_operator(bath_trace(x.mat, rho_b.mat), x.tag)


def matrix_exponential_unitary(h: OperatorMatrix, t: float, hbar: float = 1.0) -> OperatorMatrix:
    """``exp(-i h t / hbar)`` for hermitian ``h`` via eigendecomposition.

    The eigendecomposition route is unconditionally stable and unitary up to
    rounding, unlike scaling-and-squaring on a skew-hermitian argument.
    """
    h.require_hermitian("matrix_exponential_unitary input")
    evals, vecs = np.linalg.eigh(h.mat)
    phases = np.exp(-1j * evals * t / hbar)
    return OperatorMatrix((vecs * phases) @ vecs.conj().T, h.tag)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """``a b - b a`` for operators on the same space."""
    _check_same_tag(a, b)
    return OperatorMatrix(a.mat @ b.mat - b.mat @ a.mat, a.tag)
