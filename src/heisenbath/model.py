"""Model specification: Hamiltonians, bath state, and the working basis.

The working bath basis is always the eigenbasis of ``H_B``: the builder
diagonalizes a non-diagonal ``H_B`` and rotates ``rho_B`` and ``H_I``
accordingly.  The phase structure of every perturbative kernel depends on
this basis, so it is normalized once here and assumed everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonHermitianInput
from .spaces import (
    Constants,
    OperatorMatrix,
    check_density,
    full_operator,
    herm_defect,
    read_only,
    system_operator,
    HERM_TOL,
)


@dataclass(frozen=True)
class ModelSpec:
    """System (x) bath model ``H = H0 + H_B + lambda * H_I`` with initial states.

    ``hb`` is diagonal and ``bath_energies`` holds its diagonal; ``hi`` and
    ``rho_b`` are expressed in the same (eigen)basis.  ``hb``, ``rho0`` and
    ``rho_b`` are read-only complex arrays, the states checked by `make_model`.
    """

    h0: OperatorMatrix
    hb: np.ndarray
    hi: OperatorMatrix
    constants: Constants
    rho0: np.ndarray
    rho_b: np.ndarray
    bath_energies: np.ndarray

    @property
    def dim_system(self) -> int:
        return self.h0.mat.shape[0]

    @property
    def dim_bath(self) -> int:
        return len(self.bath_energies)

    @property
    def bath_gaps(self) -> np.ndarray:
        """The bath Bohr frequencies ``(E_a - E_b) / hbar``, shape ``(d_B, d_B)``."""
        e = self.bath_energies
        return (e[:, None] - e[None, :]) / self.constants.hbar

    def with_coupling(self, lam: float) -> "ModelSpec":
        """Same model at a different coupling strength."""
        return ModelSpec(
            self.h0,
            self.hb,
            self.hi,
            Constants(self.constants.hbar, lam),
            self.rho0,
            self.rho_b,
            self.bath_energies,
        )


def _canonical_bath_eigenbasis(hb: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition with deterministic handling of degeneracies.

    Eigenvalues ascend; within a degenerate group each vector gets a phase
    fix (largest-modulus entry made real positive) and the group's columns
    are sorted lexicographically by rounded real and imaginary parts, so
    repeated runs and equivalent inputs produce identical bases.
    """
    evals, vecs = np.linalg.eigh(hb)
    scale = max(1.0, float(np.abs(evals).max()))
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[start] > tol * scale:
            group = vecs[:, start:i]
            for k in range(group.shape[1]):
                pivot = np.argmax(np.abs(group[:, k]))
                phase = group[pivot, k]
                if abs(phase) > 0:
                    group[:, k] *= np.conj(phase) / abs(phase)
            if group.shape[1] > 1:
                keys = np.round(
                    np.concatenate([group.real, group.imag], axis=0), 9
                )
                order = np.lexsort(keys[::-1])
                group = group[:, order]
            vecs[:, start:i] = group
            start = i
    return evals, vecs


def make_model(
    h0,
    hb,
    hi,
    rho0,
    rho_b,
    hbar: float = 1.0,
    lam: float = 0.0,
) -> ModelSpec:
    """Validate raw matrices and rotate to the bath energy eigenbasis.

    Parameters
    ----------
    h0, hb, hi:
        System, bath and interaction Hamiltonians (``hi`` on the full space,
        row convention ``i * d_B + alpha``).  All must be hermitian.
    rho0, rho_b:
        System and bath density matrices: hermitian, of unit trace and
        positive semi-definite, else `InvalidDensityMatrix` names the one at fault.
    hbar, lam:
        Planck constant (kept explicit; unit bugs surface as hbar-power
        mismatches) and coupling strength.
    """
    h0 = np.asarray(h0, dtype=complex)
    hb = np.asarray(hb, dtype=complex)
    hi = np.asarray(hi, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    rho_b = np.asarray(rho_b, dtype=complex)

    d_s = h0.shape[0]
    d_b = hb.shape[0]
    if hi.shape != (d_s * d_b, d_s * d_b):
        raise DimensionError(
            f"H_I has shape {hi.shape}, expected {(d_s * d_b, d_s * d_b)} for d_S={d_s}, d_B={d_b}"
        )
    if rho0.shape != (d_s, d_s):
        raise DimensionError(f"rho0 has shape {rho0.shape}, expected {(d_s, d_s)}")
    if rho_b.shape != (d_b, d_b):
        raise DimensionError(f"rho_B has shape {rho_b.shape}, expected {(d_b, d_b)}")

    for name, mat in (("H0", h0), ("H_B", hb), ("H_I", hi)):
        if not herm_defect(mat) <= HERM_TOL:  # a NaN defect fails too
            raise NonHermitianInput(f"{name} is not hermitian (defect {herm_defect(mat):.2e})")

    off_diag = hb - np.diag(np.diag(hb))
    if np.linalg.norm(off_diag) <= HERM_TOL * max(1.0, np.linalg.norm(hb)):
        # keep the caller's ordering when H_B is already diagonal
        energies = np.diag(hb).real.copy()
    else:
        energies, basis = _canonical_bath_eigenbasis(hb.copy(), HERM_TOL)
        rot_full = np.kron(np.eye(d_s), basis)
        hi = rot_full.conj().T @ hi @ rot_full
        rho_b = basis.conj().T @ rho_b @ basis

    h0, hi = system_operator(h0, (d_s, d_b)), full_operator(hi, (d_s, d_b))
    check_density(rho0, "rho0")
    check_density(rho_b, "rho_b")
    return ModelSpec(
        h0=h0,
        hb=read_only(np.diag(energies).astype(complex)),
        hi=hi,
        constants=Constants(hbar=hbar, lam=lam),
        rho0=read_only(rho0),
        rho_b=read_only(rho_b),
        bath_energies=energies,
    )
