"""Image families: extraction, the block view, bath contraction, exact block evolution."""

import numpy as np
import pytest

import heisenbath as hb
from heisenbath.errors import DimensionError
from heisenbath.images import (
    ImageFamily,
    contract_with_bath,
    evolve_images_exact,
    to_image_family,
)
from heisenbath.model import make_model
from heisenbath.oracle import heisenberg_evolve_exact
from heisenbath.spaces import (
    TimeGrid,
    full_operator,
    system_operator,
)
from helpers import heis_stack, projection, random_density, random_hermitian, total_hamiltonian


def test_projection_map_identities():
    d_s, d_b = 2, 3
    ts = [projection(a, d_s, d_b) for a in range(d_b)]
    for a in range(d_b):
        for b in range(d_b):
            expected = np.eye(d_s) if a == b else np.zeros((d_s, d_s))
            assert np.array_equal(ts[a].conj().T @ ts[b], expected)
    completeness = sum(t @ t.conj().T for t in ts)
    assert np.array_equal(completeness, np.eye(d_s * d_b))


class TestToFromFamily:
    def test_system_operator_family(self):
        rng = np.random.default_rng(0)
        h0 = random_hermitian(rng, 2)
        fam = to_image_family(full_operator(np.kron(h0, np.eye(3)), (2, 3)))
        for a in range(3):
            for b in range(3):
                assert np.allclose(fam.block(a, b), h0 if a == b else 0)

    def test_two_qubit_interaction_images(self):
        """The four exchange-interaction image blocks in closed form."""
        preset = hb.two_qubit(0.25)
        fam = to_image_family(preset.model.hi)
        assert np.allclose(fam.block(0, 0), 0.25 * np.diag([1, -1]))
        assert np.allclose(fam.block(0, 1), 0.5 * np.array([[0, 0], [1, 0]]))
        assert np.allclose(fam.block(1, 0), 0.5 * np.array([[0, 1], [0, 0]]))
        assert np.allclose(fam.block(1, 1), 0.25 * np.diag([-1, 1]))

    def test_random_extraction(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        fam = to_image_family(full_operator(x, (2, 3)))
        for a in range(3):
            for b in range(3):
                for i in range(2):
                    for j in range(2):
                        assert fam.block(a, b)[i, j] == x[i * 3 + a, j * 3 + b]

    def test_family_is_one_matrix_with_a_block_view(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        fam = ImageFamily(x, 3, 0.5)
        assert fam.matrix.shape == (6, 6) and fam.dim_bath == 3
        assert fam.blocks.shape == (3, 3, 2, 2) and np.shares_memory(fam.blocks, fam.matrix)
        assert np.array_equal(fam.block(2, 1), x[2::3, 1::3])
        with pytest.raises(DimensionError):
            ImageFamily(x, 4)


class TestContract:
    def test_mismatched_inputs_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(DimensionError, match="full-space"):
            to_image_family(system_operator(np.eye(2), (2, 3)))
        rho = random_density(rng, 2)
        with pytest.raises(DimensionError, match="bath dimensions differ"):
            contract_with_bath(ImageFamily(np.eye(6), 3), rho)

    def test_diagonal_family_gives_operator_back(self):
        rng = np.random.default_rng(6)
        o = random_hermitian(rng, 2)
        rho = random_density(rng, 3)
        fam = ImageFamily(np.kron(o, np.eye(3)), 3)
        assert np.allclose(contract_with_bath(fam, rho), o)

    def test_two_qubit_first_kernel_contraction(self, two_qubit_quarter):
        """K_S^(1)(t) = (1 - 2c) (hbar^2 t / 4) diag(1, -1)."""
        preset, ks = two_qubit_quarter
        t, c = 1.3, 0.25
        fam = ImageFamily(heis_stack(ks, t)[1], ks.dim_bath)
        out = contract_with_bath(fam, preset.model.rho_b)
        assert np.max(np.abs(out - (1 - 2 * c) * t / 4 * np.diag([1, -1]))) < 1e-12

    def test_random_index_sum(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = random_density(rng, 3)
        out = contract_with_bath(ImageFamily(x, 3), rho)
        brute = np.zeros((2, 2), dtype=complex)
        for a in range(3):
            for b in range(3):
                brute += x[a::3, b::3] * rho[b, a]
        assert np.allclose(out, brute)


class TestEvolveImagesExact:
    def test_decoupled_family_is_stationary(self):
        """H0 = 0, lam = 0, diagonal H_B: the delta family never moves."""
        m = make_model(
            np.zeros((2, 2)), np.diag([0.3, 1.1, 2.9]), np.zeros((6, 6)), np.eye(2) / 2, np.eye(3) / 3
        )
        rng = np.random.default_rng(8)
        o = system_operator(random_hermitian(rng, 2), (2, 3))
        traj = evolve_images_exact(m, o, TimeGrid.linspace(2.0, 5))
        for fam in traj:
            assert np.max(np.abs(fam.blocks - ImageFamily(np.kron(o.mat, np.eye(3)), 3).blocks)) < 1e-10

    def test_families_solve_the_block_heisenberg_equation(self):
        """dO_ab/dt = (i/hbar) sum_g (H_ag O_gb - O_ag H_gb), by central difference."""
        rng = np.random.default_rng(11)
        m = make_model(
            random_hermitian(rng, 2),
            random_hermitian(rng, 3),
            random_hermitian(rng, 6),
            np.eye(2) / 2,
            random_density(rng, 3),
            lam=0.7,
            hbar=1.3,
        )
        o = system_operator(random_hermitian(rng, 2), (2, 3))
        h = total_hamiltonian(m)
        t, dt = 0.9, 1e-4
        lo, mid, hi = evolve_images_exact(m, o, TimeGrid(np.array([0.0, t - dt, t, t + dt])))[1:]
        deriv = (hi.matrix - lo.matrix) / (2 * dt)
        rhs = (1j / m.constants.hbar) * (h @ mid.matrix - mid.matrix @ h)
        assert np.max(np.abs(rhs)) > 0.1
        assert np.max(np.abs(deriv - rhs)) < 1e-7

    def test_two_qubit_reproduces_exact_law(self):
        c, lam = 0.25, 0.5
        preset = hb.two_qubit(c, lam=lam)
        s1x = system_operator(preset.observables["s1x"], (2, 2))
        traj = evolve_images_exact(preset.model, s1x, TimeGrid.linspace(3.0, 7))
        for fam in traj:
            t = fam.time
            reduced = contract_with_bath(fam, preset.model.rho_b)
            off = 0.25 * (1 + np.cos(lam * t) + 1j * (1 - 2 * c) * np.sin(lam * t))
            assert np.max(np.abs(reduced - np.array([[0, off], [np.conj(off), 0]]))) < 1e-9

    def test_matches_oracle_blocks(self):
        rng = np.random.default_rng(9)
        m = make_model(
            random_hermitian(rng, 2),
            random_hermitian(rng, 3),
            random_hermitian(rng, 6),
            np.eye(2) / 2,
            random_density(rng, 3),
            lam=0.8,
        )
        o = system_operator(random_hermitian(rng, 2), (2, 3))
        traj = evolve_images_exact(m, o, TimeGrid.linspace(5.0, 6))
        for fam in traj:
            oracle = to_image_family(heisenberg_evolve_exact(m, o, fam.time))
            assert np.linalg.norm(fam.blocks - oracle.blocks) < 1e-8

    def test_hermitian_transport(self):
        rng = np.random.default_rng(10)
        m = make_model(
            random_hermitian(rng, 2),
            random_hermitian(rng, 2),
            random_hermitian(rng, 4),
            np.eye(2) / 2,
            random_density(rng, 2),
            lam=1.1,
        )
        o = system_operator(random_hermitian(rng, 2), (2, 2))
        traj = evolve_images_exact(m, o, TimeGrid.linspace(2.0, 4))
        for fam in traj:
            adj = fam.blocks.transpose(1, 0, 3, 2).conj()
            assert np.max(np.abs(adj - fam.blocks)) < 1e-9
