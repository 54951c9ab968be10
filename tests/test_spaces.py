"""The global index convention, the tagged bath trace and the validation of
tagged operators, model states, constants and time grids."""

import numpy as np
import pytest

from heisenbath.errors import DimensionError, InvalidDensityMatrix
from heisenbath.model import make_model
from heisenbath.spaces import (
    Constants,
    OperatorMatrix,
    TimeGrid,
    full_operator,
    system_operator,
    weighted_bath_trace,
)
from helpers import random_density


def test_index_convention():
    """|i alpha> maps to row i*d_B + alpha: fixed globally, asserted here once."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    full = full_operator(np.kron(a, b), (2, 3))
    d_b = 3
    for i in range(2):
        for j in range(2):
            for al in range(3):
                for be in range(3):
                    assert full.mat[i * d_b + al, j * d_b + be] == pytest.approx(a[i, j] * b[al, be])


class TestWeightedBathTrace:
    def test_factorized(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = random_density(rng, 3)
        full = full_operator(np.kron(a, b), (2, 3))
        out = weighted_bath_trace(full, rho).mat
        assert np.allclose(out, np.trace(b @ rho) * a)

    def test_identity_normalization(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 3)
        out = weighted_bath_trace(full_operator(np.eye(6), (2, 3)), rho)
        assert np.allclose(out.mat, np.eye(2))

    def test_random_against_index_sum(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = random_density(rng, 3)
        out = weighted_bath_trace(full_operator(x, (2, 3)), rho).mat
        brute = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for al in range(3):
                    for be in range(3):
                        brute[i, j] += x[i * 3 + al, j * 3 + be] * rho[be, al]
        assert np.allclose(out, brute)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = random_density(rng, 3)
        lhs = weighted_bath_trace(full_operator(x + 2.5 * y, (2, 3)), rho).mat
        rhs = (
            weighted_bath_trace(full_operator(x, (2, 3)), rho).mat
            + 2.5 * weighted_bath_trace(full_operator(y, (2, 3)), rho).mat
        )
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_rejects_system_operator_and_other_bath(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 3)
        with pytest.raises(DimensionError, match="full-space"):
            weighted_bath_trace(system_operator(np.eye(2), (2, 3)), rho)
        with pytest.raises(DimensionError, match="matching dimension"):
            weighted_bath_trace(full_operator(np.eye(4), (2, 2)), rho)


def _qubit_pair(rho_b):
    """A decoupled (d_S, d_B) = (2, 2) model with bath state ``rho_b``."""
    return make_model(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((4, 4)), np.eye(2) / 2, rho_b)


class TestValidation:
    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityMatrix):
            _qubit_pair(np.eye(2))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(InvalidDensityMatrix):
            _qubit_pair(np.diag([1.5, -0.5]))

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(InvalidDensityMatrix):
            _qubit_pair([[0.5, 0.3], [0.0, 0.5]])

    def test_operator_side_must_match_tag(self):
        with pytest.raises(DimensionError):
            system_operator(np.eye(3), (2, 2))
        with pytest.raises(DimensionError, match="square"):
            system_operator(np.ones((2, 3)), (2, 2))

    def test_space_tag_rejects_zero_dimension(self):
        with pytest.raises(DimensionError, match=">= 1"):
            OperatorMatrix(np.eye(2), (0, 2))

    def test_constants_require_positive_hbar(self):
        with pytest.raises(ValueError):
            Constants(hbar=0.0)

    @pytest.mark.parametrize("hbar", [np.nan, np.inf])
    def test_constants_refuse_non_finite_hbar(self, hbar):
        with pytest.raises(ValueError, match="hbar"):
            Constants(hbar=hbar)

    @pytest.mark.parametrize("points", [[0.0, np.nan], [0.0, 1.0, np.inf]])
    def test_time_grid_refuses_non_finite_points(self, points):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(np.array(points))

    def test_time_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.2, 0.2]))
        with pytest.raises(ValueError, match="non-empty 1-D sequence"):
            TimeGrid(np.array([]))
        with pytest.raises(ValueError, match="non-empty 1-D sequence"):
            TimeGrid(np.array([[0.0, 0.5]]))
        grid = TimeGrid.linspace(1.0, 5)
        assert len(grid) == 5 and grid.stop == 1.0
