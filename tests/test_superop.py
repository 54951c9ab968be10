"""Super-operator dressing, one-point series, inversion, star products, RHS."""

import numpy as np
import pytest

import heisenbath as hb
from heisenbath.diagnostics import fit_slope
from heisenbath.errors import DimensionError, OrderExceedsKernels
from heisenbath.dyson import compute_kernels
from heisenbath.images import ImageFamily, contract_with_bath, to_image_family
from heisenbath.oracle import heisenberg_evolve_exact, npoint_reduced_exact
from heisenbath.spaces import TimeGrid, system_operator, weighted_bath_trace
from heisenbath.superop import (
    SeriesTruncation,
    chain_contract,
    one_point_operator,
    printed_sandwich_defect,
    star_of_observables,
    star_product,
)
from helpers import dressing_at, heis_stack, lift_at, one_point_at, random_hermitian, rhs_at

LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4)


class TestApplyP:
    def test_order_zero_is_delta_family(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 2)
        fam = ImageFamily(dressing_at(0, a, 0.9, ks), ks.dim_bath)
        expected = ImageFamily(np.eye(4), 2).blocks * 0
        idx = np.arange(2)
        expected[idx, idx] = a
        assert np.allclose(fam.blocks, expected)

    def test_order_one_explicit_sandwich(self, two_qubit_quarter):
        """P[1]A = i (K1_ab A - A (K1_ba)^dag) blockwise."""
        _, ks = two_qubit_quarter
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 2)
        t = 1.3
        k1 = ImageFamily(heis_stack(ks, t)[1], ks.dim_bath).blocks
        fam = ImageFamily(dressing_at(1, a, t, ks), ks.dim_bath).blocks
        for al in range(2):
            for be in range(2):
                expected = 1j * (k1[al, be] @ a - a @ k1[be, al].conj().T)
                assert np.allclose(fam[al, be], expected, atol=1e-13)

    def test_order_two_contraction_matches_closed_bracket(self, two_qubit_quarter):
        """The lam^2 bracket: K2S+ S + S K2S - K1+_ga S K1_gb rho_ba (the
        time-ordered images commute here, so the as-displayed form is exact)."""
        preset, ks = two_qubit_quarter
        t = 1.4
        s1x = preset.observables["s1x"]
        rho = preset.model.rho_b
        k1 = ImageFamily(heis_stack(ks, t)[1], ks.dim_bath).blocks
        k2 = ImageFamily(heis_stack(ks, t)[2], ks.dim_bath).blocks
        k2s = np.einsum("abij,ba->ij", k2, rho)
        cross = np.einsum("gaji,jk,gbkm,ba->im", k1.conj(), s1x, k1, rho)
        bracket = -(k2s.conj().T @ s1x + s1x @ k2s - cross)
        out = dressing_at(2, s1x, t, ks, preset.model.rho_b)
        assert np.max(np.abs(out - bracket)) < 1e-12

    def test_order_one_contraction_is_kernel_commutator(self, two_qubit_quarter):
        """P_S[1] S1x = i [K_S^(1)(t), S1x] (the contracted kernel is hermitian here)."""
        preset, ks = two_qubit_quarter
        t = 0.9
        s1x = preset.observables["s1x"]
        rho = preset.model.rho_b
        k1s = np.einsum("abij,ba->ij", ImageFamily(heis_stack(ks, t)[1], ks.dim_bath).blocks, rho)
        out = dressing_at(1, s1x, t, ks, preset.model.rho_b)
        assert np.allclose(out, 1j * (k1s @ s1x - s1x @ k1s), atol=1e-13)

    def test_apply_P_S_contracts_apply_P_ab(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        t = 0.8
        fam = ImageFamily(dressing_at(2, obs, t, ks), ks.dim_bath).blocks
        brute = np.zeros((2, 2), dtype=complex)
        for a in range(3):
            for b in range(3):
                brute += fam[a, b] * m.rho_b[b, a]
        assert np.allclose(dressing_at(2, obs, t, ks, m.rho_b), brute, atol=1e-13)

    def test_order_cap(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        with pytest.raises(OrderExceedsKernels):
            printed_sandwich_defect(4, np.eye(2), 0.5, ks)


class TestSandwichConvention:
    """The Dyson product puts kernel adjoints on the right factors; the
    as-displayed sandwich daggers the left ones.  Equal for commuting
    interaction-picture Hamiltonians, measurably different otherwise, and
    only the Dyson-derived form tracks the exact oracle."""

    def test_two_qubit_forms_agree(self, two_qubit_quarter):
        preset, ks = two_qubit_quarter
        s1x = preset.observables["s1x"]
        for n in (1, 2, 3):
            assert printed_sandwich_defect(n, s1x, 1.2, ks) < 1e-12

    def test_noncommuting_forms_differ_and_derived_wins(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        t, lam, order = 1.1, 1e-3, 2
        defect = printed_sandwich_defect(2, obs, t, ks)
        assert defect > 1e-3  # genuinely different sandwiches

        hbar = 1.0
        from heisenbath.superop import _dressed, _factors

        turns, kstack = 1j ** np.arange(ks.orders + 1)[:, None, None], ks.frame_stack(ks.eigen_rows([t])[0])
        b = ks.frame.enter(ks.frame.free_conjugate(obs, t))
        exact = to_image_family(
            heisenberg_evolve_exact(m.with_coupling(lam), system_operator(obs, (2, 3)), t)
        ).matrix
        errs = {}
        for name, stack in (("derived", turns * kstack), ("printed", turns * kstack.conj().swapaxes(-1, -2))):
            fam = ks.frame.leave_open(_dressed(*_factors(stack, ks.dim_system), (b,) * (order + 1), order, lam / hbar))
            errs[name] = np.max(np.abs(fam - exact))
        print(
            f"order-2 image error vs oracle: derived={errs['derived']:.3e} "
            f"printed={errs['printed']:.3e} (sandwich gap {defect:.3e})"
        )
        assert errs["derived"] < 1e-2 * errs["printed"]


class TestOnePoint:
    def test_zero_coupling_is_free_conjugation(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        t = 1.2
        val = one_point_at(obs, SeriesTruncation(2, 0.0), ks, m.rho_b, t)
        assert np.allclose(val, ks.frame.free_conjugate(obs, t), atol=1e-13)

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5])
    def test_two_qubit_second_order_closed_form(self, c):
        preset = hb.two_qubit(c)
        ks = compute_kernels(preset.model, 2, TimeGrid.linspace(2.0, 5))
        lam = 0.1
        for t in (0.3, 1.0, 1.9):
            val = one_point_at(
                preset.observables["s1x"], SeriesTruncation(2, lam), ks, preset.model.rho_b, t
            )
            upper = 1 + 0.5 * (1 - 2 * c) * 1j * lam * t - 0.25 * (lam * t) ** 2
            expected = 0.5 * np.array([[0, upper], [np.conj(upper), 0]])
            assert np.max(np.abs(val - expected)) < 1e-11

    def test_random_scaling_against_oracle(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        t = 1.1
        o_op = system_operator(obs, (2, 3))
        errs = []
        for lam in LAMBDAS:
            val = one_point_at(obs, SeriesTruncation(2, lam), ks, m.rho_b, t)
            exact = weighted_bath_trace(
                heisenberg_evolve_exact(m.with_coupling(lam), o_op, t), m.rho_b
            ).mat
            errs.append(np.max(np.abs(val - exact)))
        assert fit_slope(LAMBDAS, errs) >= 2.8

    def test_hermitian_output(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        for order in range(4):
            val = one_point_at(obs, SeriesTruncation(order, 0.3), ks, m.rho_b, 1.0)
            assert np.max(np.abs(val - val.conj().T)) < 1e-12

    def test_trajectory_grid_values(self, random_model_2x3):
        """Every stored value equals the lone `one_point_at` of its grid time, bit for bit."""
        m, obs, ks = random_model_2x3
        traj = one_point_operator(obs, SeriesTruncation(2, 0.1), ks, m.rho_b, ks.grid, "obs")
        for k, t in enumerate(ks.grid.points):
            assert np.array_equal(traj.values[k], one_point_at(obs, traj.truncation, ks, m.rho_b, t))


class TestInversion:
    def test_order_zero_identity(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        out = lift_at(obs, SeriesTruncation(0, 0.2), ks, m.rho_b, 0.7)[0]
        assert np.array_equal(out, np.asarray(obs, dtype=complex))

    def test_roundtrip_scaling(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        t = 0.9
        errs = []
        for lam in LAMBDAS:
            trunc = SeriesTruncation(2, lam)
            val = one_point_at(obs, trunc, ks, m.rho_b, t)
            back = lift_at(val, trunc, ks, m.rho_b, t)[0]
            errs.append(np.max(np.abs(back - ks.frame.free_conjugate(obs, t))))
        assert fit_slope(LAMBDAS, errs) >= 2.8

    def test_two_qubit_roundtrip_returns_observable(self, two_qubit_quarter):
        """H0 = 0 makes the free conjugation trivial: the inverse recovers S1x."""
        preset, ks = two_qubit_quarter
        lam, t = 0.05, 1.1
        trunc = SeriesTruncation(2, lam)
        s1x = preset.observables["s1x"]
        val = one_point_at(s1x, trunc, ks, preset.model.rho_b, t)
        back = lift_at(val, trunc, ks, preset.model.rho_b, t)[0]
        assert np.max(np.abs(back - s1x)) < 10 * lam**3


class TestImageFromOnePoint:
    def test_zero_coupling(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        t = 1.0
        trunc = SeriesTruncation(2, 0.0)
        val = one_point_at(obs, trunc, ks, m.rho_b, t)
        fam = lift_at(val, trunc, ks, m.rho_b, t)[1]
        free = ks.frame.free_conjugate(obs, t)
        for a in range(3):
            for b in range(3):
                assert np.allclose(fam.blocks[a, b], free if a == b else 0, atol=1e-13)

    def test_blockwise_scaling_against_oracle(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        t = 1.1
        o_op = system_operator(obs, (2, 3))
        errs = []
        for lam in LAMBDAS:
            trunc = SeriesTruncation(2, lam)
            val = one_point_at(obs, trunc, ks, m.rho_b, t)
            fam = lift_at(val, trunc, ks, m.rho_b, t)[1]
            exact = to_image_family(heisenberg_evolve_exact(m.with_coupling(lam), o_op, t))
            errs.append(np.max(np.abs(fam.blocks - exact.blocks)))
        assert fit_slope(LAMBDAS, errs) >= 2.8

    def test_contraction_recovers_one_point_exactly(self, random_model_2x3):
        """Order-by-order cancellation: bath contraction undoes the lift to
        rounding, not merely to the truncation order."""
        m, obs, ks = random_model_2x3
        for order in range(4):
            trunc = SeriesTruncation(order, 0.1)
            val = one_point_at(obs, trunc, ks, m.rho_b, 1.3)
            fam = lift_at(val, trunc, ks, m.rho_b, 1.3)[1]
            back = contract_with_bath(fam, m.rho_b)
            assert np.max(np.abs(back - val)) < 1e-13


class TestStarProduct:
    def test_single_factor_reduces_to_value(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        trunc = SeriesTruncation(2, 0.1)
        traj = one_point_operator(obs, trunc, ks, m.rho_b, ks.grid, "obs")
        t = 1.2
        out = star_product([(traj, t)], ks, m.rho_b)
        assert np.allclose(out.mat, one_point_at(traj.observable, traj.truncation, ks, m.rho_b, t), atol=1e-13)

    def test_two_qubit_first_order_factorizes(self, two_qubit_quarter):
        """(S1x(t1) S1x(t2))_S = S1xS(t1) S1xS(t2) + O(lam^2)."""
        preset, ks = two_qubit_quarter
        m = preset.model
        s1x = preset.observables["s1x"]
        t1, t2 = 0.6, 1.4
        errs = []
        for lam in LAMBDAS:
            trunc = SeriesTruncation(1, lam)
            star = star_of_observables([(s1x, t1), (s1x, t2)], trunc, ks, m.rho_b)
            prod = one_point_at(s1x, trunc, ks, m.rho_b, t1) @ one_point_at(
                s1x, trunc, ks, m.rho_b, t2
            )
            errs.append(np.max(np.abs(star - prod)))
        assert fit_slope(LAMBDAS, errs) >= 1.8

    @pytest.mark.parametrize("times", [(0.5, 1.2), (0.3, 0.8, 1.4)])
    def test_matches_oracle_npoint(self, random_model_2x3, times):
        m, obs, ks = random_model_2x3
        o_op = system_operator(obs, (2, 3))
        errs = []
        for lam in LAMBDAS:
            trunc = SeriesTruncation(1, lam)
            star = star_of_observables([(obs, t) for t in times], trunc, ks, m.rho_b)
            exact = npoint_reduced_exact(m.with_coupling(lam), [(o_op, t) for t in times]).mat
            errs.append(np.max(np.abs(star - exact)))
        assert fit_slope(LAMBDAS, errs) >= 1.8

    def test_mixed_truncations_rejected(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        t1 = one_point_operator(obs, SeriesTruncation(1, 0.1), ks, m.rho_b, ks.grid, "a")
        t2 = one_point_operator(obs, SeriesTruncation(2, 0.1), ks, m.rho_b, ks.grid, "b")
        with pytest.raises(DimensionError):
            star_product([(t1, 0.5), (t2, 0.9)], ks, m.rho_b)

    def test_no_factor_rejected(self, random_model_2x3):
        m, _, ks = random_model_2x3
        with pytest.raises(DimensionError, match="at least one factor"):
            star_product([], ks, m.rho_b)

    def test_no_observable_rejected(self, random_model_2x3):
        m, _, ks = random_model_2x3
        with pytest.raises(DimensionError, match="at least one factor"):
            star_of_observables([], SeriesTruncation(1, 0.1), ks, m.rho_b)


def test_chain_contract_of_stacks_equals_its_slices(random_model_2x3):
    """Factors ``(n_lam, D, D)``, one of them shared ``(D, D)``, give each
    slice the bits of its own chain."""
    m, _, _ = random_model_2x3
    rng = np.random.default_rng(23)
    stacks = [rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6)) for _ in range(2)]
    shared = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    factors = [stacks[0], shared, stacks[1]]
    got = chain_contract(factors, m.rho_b)
    assert got.shape == (4, 2, 2)
    for k in range(4):
        assert np.array_equal(got[k], chain_contract([stacks[0][k], shared, stacks[1][k]], m.rho_b))
    assert np.array_equal(chain_contract(np.stack(stacks), m.rho_b), chain_contract(stacks, m.rho_b))


def test_bath_observable_rejected(random_model_2x3):
    m, _, ks = random_model_2x3
    with pytest.raises(DimensionError, match="system space"):
        one_point_operator(hb.full_operator(np.eye(6), (2, 3)), SeriesTruncation(1, 0.1), ks, m.rho_b, ks.grid)


def test_negative_truncation_order_rejected():
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        SeriesTruncation(-1, 0.1)


@pytest.mark.parametrize("order", [1.5, True])
def test_non_integer_truncation_order_rejected(order):
    with pytest.raises(ValueError, match="order must be an integer"):
        SeriesTruncation(order, 0.1)


def test_numpy_integer_truncation_order_accepted():
    assert SeriesTruncation(np.int64(2), 0.1).order == 2


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_non_finite_truncation_coupling_rejected(lam):
    with pytest.raises(ValueError, match="coupling must be finite"):
        SeriesTruncation(1, lam)


class TestOnePointRHS:
    def test_zero_coupling_free_heisenberg(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        traj = one_point_operator(obs, SeriesTruncation(2, 0.0), ks, m.rho_b, ks.grid, "obs")
        t = 1.0
        rhs = rhs_at(traj, t, ks, m.rho_b)
        o_s = one_point_at(traj.observable, traj.truncation, ks, m.rho_b, t)
        expected = 1j * (m.h0.mat @ o_s - o_s @ m.h0.mat)
        assert np.max(np.abs(rhs - expected)) < 1e-12

    @pytest.mark.parametrize("lam", [0.1, 0.01])
    def test_two_qubit_derivative_of_closed_form(self, two_qubit_quarter, lam):
        """d/dt of the order-2 matrix: off-diagonals (hbar/2)(+-(1/2)(1-2c) i lam - lam^2 t / 2),
        reproduced up to the lam^3 series-inversion remainder."""
        preset, ks = two_qubit_quarter
        m = preset.model
        c = 0.25
        traj = one_point_operator(
            preset.observables["s1x"], SeriesTruncation(2, lam), ks, m.rho_b, ks.grid, "s1x"
        )
        for t in (0.4, 1.5):
            rhs = rhs_at(traj, t, ks, m.rho_b)
            upper = 0.5j * (1 - 2 * c) * lam - 0.5 * lam**2 * t
            expected = 0.5 * np.array([[0, upper], [np.conj(upper), 0]])
            assert np.max(np.abs(rhs - expected)) < lam**3

    def test_matches_finite_difference(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        t, lam = 1.1, 1e-3
        trunc = SeriesTruncation(2, lam)
        traj = one_point_operator(obs, trunc, ks, m.rho_b, ks.grid, "obs")
        rhs = rhs_at(traj, t, ks, m.rho_b)
        h = 1e-5 * max(1.0, t)
        fd = (
            one_point_at(obs, trunc, ks, m.rho_b, t + h)
            - one_point_at(obs, trunc, ks, m.rho_b, t - h)
        ) / (2 * h)
        assert np.max(np.abs(rhs - fd)) < 1e-6
