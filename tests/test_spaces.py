"""The global index convention, the tagged bath trace and the validation of
tagged operators, density matrices, constants and time grids."""

import numpy as np
import pytest

from heisenbath.errors import DimensionError, InvalidDensityMatrix
from heisenbath.spaces import (
    Constants,
    DensityMatrix,
    Space,
    SpaceTag,
    TimeGrid,
    bath_operator,
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
        rho = DensityMatrix(bath_operator(random_density(rng, 3), (2, 3)))
        full = full_operator(np.kron(a, b), (2, 3))
        out = weighted_bath_trace(full, rho).mat
        assert np.allclose(out, np.trace(b @ rho.mat) * a)

    def test_identity_normalization(self):
        rng = np.random.default_rng(6)
        rho = DensityMatrix(bath_operator(random_density(rng, 3), (2, 3)))
        out = weighted_bath_trace(full_operator(np.eye(6), (2, 3)), rho)
        assert np.allclose(out.mat, np.eye(2))

    def test_random_against_index_sum(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = DensityMatrix(bath_operator(random_density(rng, 3), (2, 3)))
        out = weighted_bath_trace(full_operator(x, (2, 3)), rho).mat
        brute = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for al in range(3):
                    for be in range(3):
                        brute[i, j] += x[i * 3 + al, j * 3 + be] * rho.mat[be, al]
        assert np.allclose(out, brute)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = DensityMatrix(bath_operator(random_density(rng, 3), (2, 3)))
        lhs = weighted_bath_trace(full_operator(x + 2.5 * y, (2, 3)), rho).mat
        rhs = (
            weighted_bath_trace(full_operator(x, (2, 3)), rho).mat
            + 2.5 * weighted_bath_trace(full_operator(y, (2, 3)), rho).mat
        )
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_rejects_system_operator_and_other_bath(self):
        rng = np.random.default_rng(10)
        rho = DensityMatrix(bath_operator(random_density(rng, 3), (2, 3)))
        with pytest.raises(DimensionError, match="full-space"):
            weighted_bath_trace(system_operator(np.eye(2), (2, 3)), rho)
        with pytest.raises(DimensionError, match="matching dimension"):
            weighted_bath_trace(full_operator(np.eye(4), (2, 2)), rho)


class TestValidation:
    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityMatrix):
            DensityMatrix(bath_operator(np.eye(2), (2, 2)))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(InvalidDensityMatrix):
            DensityMatrix(bath_operator(np.diag([1.5, -0.5]), (2, 2)))

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(InvalidDensityMatrix):
            DensityMatrix(bath_operator([[0.5, 0.3], [0.0, 0.5]], (2, 2)))

    def test_operator_side_must_match_tag(self):
        with pytest.raises(DimensionError):
            system_operator(np.eye(3), (2, 2))
        with pytest.raises(DimensionError, match="square"):
            system_operator(np.ones((2, 3)), (2, 2))

    def test_space_tag_rejects_zero_dimension(self):
        with pytest.raises(DimensionError, match=">= 1"):
            SpaceTag(Space.SYSTEM, 0, 2)

    def test_constants_require_positive_hbar(self):
        with pytest.raises(ValueError):
            Constants(hbar=0.0)

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


def test_time_grid_index_is_the_first_point_within_1e14():
    """`TimeGrid.index` equals a scan for the first point ``p`` with
    ``t - 1e-14 <= p`` and ``p - t <= 1e-14``, on on-grid, within-window,
    off-grid, pre-start, past-stop and NaN times."""
    rng = np.random.default_rng(12)
    grid = TimeGrid(np.concatenate(([0.0], np.cumsum(rng.random(40) + 1e-3))))
    pts = grid.points.tolist()
    on = rng.choice(pts, 20)
    times = [
        *on,
        *(on + rng.uniform(-1e-14, 1e-14, 20)),
        *(on + rng.choice([-1.0, 1.0], 20) * rng.uniform(2e-14, 1e-13, 20)),
        *rng.uniform(0.0, grid.stop, 20),
        -1e-15, -1e-13, -0.5, grid.stop + 1e-15, grid.stop + 1e-13, grid.stop + 1.0, float("nan"),
    ]
    for t in map(float, times):
        scan = next((k for k, p in enumerate(pts) if t - 1e-14 <= p and p - t <= 1e-14), None)
        assert grid.index(t) == scan
    assert any(grid.index(float(t)) is None for t in times) and any(grid.index(float(t)) == 0 for t in times)
