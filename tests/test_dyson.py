"""Interaction picture and time-ordered kernels against quadrature oracles."""

import numpy as np
import pytest

import heisenbath as hb
from heisenbath.dyson import (
    compute_kernels,
    dyson_propagator,
    image_first_order,
    interaction_hamiltonian_images,
    toeplitz_dense,
    toeplitz_expm,
    toeplitz_mul,
    toeplitz_norm1,
)
from heisenbath.errors import NonFiniteResult, OrderExceedsKernels
from heisenbath.images import identity_family, to_image_family
from heisenbath.model import make_model
from heisenbath.spaces import TimeGrid, matrix_exponential_unitary
from helpers import random_hermitian, random_density


def _random_spec(seed, d_s=2, d_b=2):
    rng = np.random.default_rng(seed)
    return make_model(
        random_hermitian(rng, d_s),
        random_hermitian(rng, d_b),
        random_hermitian(rng, d_s * d_b),
        np.eye(d_s) / d_s,
        random_density(rng, d_b),
    )


class TestInteractionImages:
    def test_at_zero_gives_schroedinger_images(self):
        m = _random_spec(0)
        fam = interaction_hamiltonian_images(m, 0.0)
        assert np.allclose(fam.blocks, to_image_family(m.hi).blocks)

    def test_two_qubit_time_independent(self):
        m = hb.two_qubit(0.3).model
        f0 = interaction_hamiltonian_images(m, 0.0)
        f1 = interaction_hamiltonian_images(m, 1.7)
        assert np.allclose(f0.blocks, f1.blocks, atol=1e-14)

    def test_random_against_conjugation_oracle(self):
        m = _random_spec(1)
        t = 0.9
        fam = interaction_hamiltonian_images(m, t)
        u0 = matrix_exponential_unitary(m.h0, t).mat
        hi_fam = to_image_family(m.hi)
        for a in range(2):
            for b in range(2):
                phase = np.exp(-1j * (m.bath_energies[a] - m.bath_energies[b]) * t)
                expected = u0 @ hi_fam.block(a, b) @ u0.conj().T * phase
                assert np.allclose(fam.block(a, b), expected, atol=1e-13)


class TestKernels:
    def test_order_zero_is_identity_family(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        for t in (0.0, 0.4, 1.9):
            assert np.allclose(ks.tilde_at(0, t).blocks, identity_family(2, 2).blocks)

    def test_higher_orders_vanish_at_zero(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        for n in (1, 2, 3):
            assert np.max(np.abs(ks.tilde_at(n, 0.0).blocks)) == 0.0

    def test_two_qubit_first_order(self, two_qubit_quarter):
        """Constant interaction images integrate to H_Iab * t."""
        preset, ks = two_qubit_quarter
        t = 1.1
        hi_fam = to_image_family(preset.model.hi)
        k1 = ks.heis_at(1, t)
        assert np.max(np.abs(k1.blocks - hi_fam.blocks * t)) < 1e-11

    def test_two_qubit_second_order(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        t = 1.6
        k2 = ks.heis_at(2, t)
        assert np.max(np.abs(k2.block(0, 0) - t**2 / 32 * np.diag([1, 5]))) < 1e-11
        assert np.max(np.abs(k2.block(0, 1) - t**2 / 8 * np.array([[0, 0], [-1, 0]]))) < 1e-11
        assert np.max(np.abs(k2.block(1, 0) - t**2 / 8 * np.array([[0, -1], [0, 0]]))) < 1e-11
        assert np.max(np.abs(k2.block(1, 1) - t**2 / 32 * np.diag([5, 1]))) < 1e-11

    @pytest.mark.parametrize("seed", [2, 8])
    def test_second_order_against_nested_quadrature(self, seed):
        """Kernels against a midpoint double integral, refined by Richardson
        extrapolation until the O(dt^2) error is gone; ``t`` is the last
        point of a uniform grid and an off-grid time of a non-uniform one."""
        m = _random_spec(seed)
        t = 0.8
        grids = (TimeGrid.linspace(t, 5), TimeGrid(np.array([0.0, 0.05, 0.3, 0.65, 0.9, 1.4])))
        from heisenbath._blockops import fam_mul

        def midpoint_kernels(steps):
            dt = t / steps
            mids = (np.arange(steps) + 0.5) * dt
            k1 = np.zeros((2, 2, 2, 2), dtype=complex)
            k2 = np.zeros_like(k1)
            running = np.zeros_like(k1)
            for s in mids:
                h = interaction_hamiltonian_images(m, s).blocks
                k2 += fam_mul(h, running + 0.5 * dt * h) * dt
                k1 += h * dt
                running += h * dt
            return k1, k2

        coarse = midpoint_kernels(300)
        fine = midpoint_kernels(600)
        k1 = (4 * fine[0] - coarse[0]) / 3
        k2 = (4 * fine[1] - coarse[1]) / 3
        for grid in grids:
            ks = compute_kernels(m, 2, grid)
            assert np.max(np.abs(ks.tilde_at(1, t).blocks - k1)) < 1e-7
            assert np.max(np.abs(ks.tilde_at(2, t).blocks - k2)) < 1e-7

    def test_heis_tilde_phase_conversion_invertible(self):
        m = _random_spec(3)
        t = 1.2
        ks = compute_kernels(m, 2, TimeGrid.linspace(t, 4))
        u0 = matrix_exponential_unitary(m.h0, t).mat
        for n in (1, 2):
            tilde = ks.tilde_at(n, t).blocks
            heis = ks.heis_at(n, t).blocks
            back = np.empty_like(heis)
            for a in range(2):
                for b in range(2):
                    phase = np.exp(1j * (m.bath_energies[a] - m.bath_energies[b]) * t)
                    back[a, b] = phase * (u0.conj().T @ tilde[a, b] @ u0)
            assert np.max(np.abs(back - heis)) < 1e-12

    def test_shared_step_exponential_matches_per_step_expm(self, monkeypatch):
        """Rounding-level step differences (linspace) share one exponential;
        genuinely different steps get their own.  Rows match per-step `expm`
        propagation of the dense Van Loan generator."""
        from scipy.linalg import expm

        from heisenbath import dyson

        calls = []
        exponential = dyson.toeplitz_expm
        monkeypatch.setattr(dyson, "toeplitz_expm", lambda a: calls.append(1) or exponential(a))
        points = np.concatenate([np.linspace(0.0, 1.0, 41), [1.1, 1.35, 1.8]])
        assert len(set(np.diff(points[:41]).tolist())) > 1  # ulp-level spread
        ks = compute_kernels(_random_spec(7, 2, 3), 3, TimeGrid(points))
        assert len(calls) == 4  # the median step, then 0.1, 0.25 and 0.45
        gen = toeplitz_dense(ks._gen)
        row = np.eye(6, 24, dtype=complex)
        for k, dt in enumerate(np.diff(points), start=1):
            step = expm(dt * gen)
            row = row @ step
            assert np.max(np.abs(ks._rows[k] - row)) <= 1e-13 * np.max(np.abs(row))

    def test_first_order_step_correction(self, monkeypatch):
        """Steps within sqrt(eps)/|M| of the shared one differ from it by a
        first-order term far above rounding; rows propagated with the
        corrected steps match per-step expm."""
        from scipy.linalg import expm

        from heisenbath import dyson

        blocks = compute_kernels(_random_spec(8, 2, 3), 2, TimeGrid.linspace(1.0, 2))._gen
        gen = toeplitz_dense(blocks)
        h = 0.05
        steps = h * (1.0 + np.array([0.0, 1e-9, -2e-9]) / (h * np.linalg.norm(gen, 1)))
        points = np.concatenate([[0.0], np.cumsum(steps)])
        first = np.eye(gen.shape[0])[:6]
        calls = []
        exponential = dyson.toeplitz_expm
        monkeypatch.setattr(dyson, "toeplitz_expm", lambda a: calls.append(1) or exponential(a))
        got = dyson.propagate_rows(first, blocks, points)
        assert len(calls) == 1
        assert np.array_equal(got[0], first)
        ref = first.astype(complex)
        for dt, row in zip(np.diff(points), got[1:]):
            ref = ref @ expm(dt * gen)
            assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))
        uncorrected = got[2] @ expm(h * gen)
        assert np.max(np.abs(got[3] - uncorrected)) > 1e-10  # the correction is not rounding

    def test_time_outside_grid_rejected(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        with pytest.raises(OrderExceedsKernels):
            ks.tilde_at(1, 5.0)

    def test_order_beyond_cap_rejected(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        with pytest.raises(OrderExceedsKernels):
            ks.heis_at(4, 0.5)


def _assert_matches_scipy_expm(blocks):
    """First block row of `toeplitz_expm` against `scipy.linalg.expm` of the
    dense matrix, to 1e-13 relative to the largest reference entry."""
    from scipy.linalg import expm

    n, d, _ = blocks.shape
    ref = expm(toeplitz_dense(blocks))[:d].reshape(d, n, d).transpose(1, 0, 2)
    got = toeplitz_expm(blocks)
    assert got.shape == blocks.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestToeplitzExponential:
    # |A|_1 at every Pade degree (3, 5, 7, 9, 13); above theta_13 = 5.37 it squares
    NORMS = [1e-3, 0.2, 0.9, 2.0, 5.0, 12.0, 60.0]

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("order", range(5))
    def test_van_loan_rows_match_scipy(self, order, norm):
        gen = compute_kernels(_random_spec(9, 2, 3), order, TimeGrid.linspace(1.0, 2))._gen
        assert gen.shape == (order + 1, 6, 6)
        _assert_matches_scipy_expm(norm / toeplitz_norm1(gen) * gen)

    @pytest.mark.parametrize("norm", NORMS)
    def test_dense_nonnormal_matches_scipy(self, norm):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        assert np.max(np.abs(a @ a.conj().T - a.conj().T @ a)) > 1.0
        _assert_matches_scipy_expm(norm / np.linalg.norm(a, 1) * a[None])

    @pytest.mark.parametrize("t", [0.1, 1.0, 4.0, 15.0])
    def test_jordan_block_matches_scipy(self, t):
        jordan = -0.5 * np.eye(4) + np.eye(4, k=1)
        _assert_matches_scipy_expm(t * jordan[None])

    def test_zero_gives_identity_row(self):
        got = toeplitz_expm(np.zeros((3, 4, 4)))
        assert np.array_equal(got, np.stack([np.eye(4), np.zeros((4, 4)), np.zeros((4, 4))]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(np.inf, np.nan)])
    def test_non_finite_generator_raises(self, bad):
        blocks = np.zeros((2, 3, 3), dtype=complex)
        blocks[1, 0, 2] = bad
        with pytest.raises(NonFiniteResult):
            toeplitz_expm(blocks)

    def test_norm_and_product_match_dense(self):
        rng = np.random.default_rng(11)
        a, b = (rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3)) for _ in range(2))
        dense = toeplitz_dense(toeplitz_mul(a, b))
        assert np.max(np.abs(dense - toeplitz_dense(a) @ toeplitz_dense(b))) < 1e-14 * np.max(np.abs(dense))
        assert np.isclose(toeplitz_norm1(a), np.linalg.norm(toeplitz_dense(a), 1), rtol=1e-15)


class TestDysonPropagator:
    def test_zero_coupling_is_identity(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        fam = dyson_propagator(ks, 0.0, 3, 1.4)
        assert np.allclose(fam.blocks, identity_family(2, 2).blocks)

    def test_first_order_two_qubit(self, two_qubit_quarter):
        preset, ks = two_qubit_quarter
        lam, t = 0.2, 0.9
        fam = dyson_propagator(ks, lam, 1, t)
        expected = identity_family(2, 2).blocks - 1j * lam * t * to_image_family(preset.model.hi).blocks
        assert np.max(np.abs(fam.blocks - expected)) < 1e-11

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_unitarity_defect_scales_with_order(self, order):
        """sum_g U+_ga U_gb - delta_ab 1 has norm O(lam^(order+1))."""
        m = _random_spec(4)
        t = 1.0
        ks = compute_kernels(m, order, TimeGrid.linspace(t, 4))
        lams = np.array([1e-1, 1e-2, 1e-3])
        defects = []
        for lam in lams:
            fam = dyson_propagator(ks, lam, order, t).blocks
            big = fam.transpose(0, 2, 1, 3).reshape(4, 4)
            defects.append(np.max(np.abs(big.conj().T @ big - np.eye(4))))
        slope = np.polyfit(np.log10(lams), np.log10(defects), 1)[0]
        assert slope >= order + 0.8

    def test_order_exceeds(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        with pytest.raises(OrderExceedsKernels):
            dyson_propagator(ks, 0.1, 4, 0.5)


class TestImageFirstOrder:
    def test_identity_commutes(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        fam = image_first_order(np.eye(2), ks, 0.3, 1.2)
        assert np.allclose(fam.blocks, identity_family(2, 2).blocks)

    def test_two_qubit_contraction_matches_first_order_one_point(self, two_qubit_quarter):
        """Contracting the first-order family reproduces the O(lam) term of the
        order-2 closed form: +-(hbar/2)(1/2)(1-2c) i lam t off-diagonals."""
        preset, ks = two_qubit_quarter
        from heisenbath.images import contract_with_bath

        lam, t, c = 0.05, 1.5, 0.25
        s1x = preset.observables["s1x"]
        fam = image_first_order(s1x, ks, lam, t)
        reduced = contract_with_bath(fam, preset.model.rho_b).mat
        expected = 0.5 * np.array(
            [[0, 1 + 0.5j * (1 - 2 * c) * lam * t], [1 - 0.5j * (1 - 2 * c) * lam * t, 0]]
        )
        assert np.max(np.abs(reduced - expected)) < 1e-11

    def test_random_against_truncated_propagator_sandwich(self):
        m = _random_spec(5)
        rng = np.random.default_rng(6)
        o = random_hermitian(rng, 2)
        t, lam = 0.7, 1e-3
        ks = compute_kernels(m, 1, TimeGrid.linspace(t, 4))
        fam = image_first_order(o, ks, lam, t).blocks

        prop = dyson_propagator(ks, lam, 1, t).blocks
        big_u = prop.transpose(0, 2, 1, 3).reshape(4, 4)
        big_o = identity_family(2, 2).blocks.copy()
        idx = np.arange(2)
        big_o[idx, idx] = o
        big_o = big_o.transpose(0, 2, 1, 3).reshape(4, 4)
        sandwich = (big_u.conj().T @ big_o @ big_u).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
        assert np.max(np.abs(fam - sandwich)) < 10 * lam**2
