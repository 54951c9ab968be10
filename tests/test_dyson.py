"""Interaction picture and time-ordered kernels against quadrature oracles."""

import numpy as np
import pytest
import scipy.linalg

import heisenbath as hb
from heisenbath import dyson
from heisenbath.dyson import (
    compute_kernels,
    dyson_propagator,
    _toeplitz_solve,
    toeplitz_expm,
    toeplitz_mul,
    toeplitz_norm1,
)
from heisenbath.errors import NonFiniteResult, OrderExceedsKernels
from heisenbath.images import ImageFamily, to_image_family
from heisenbath.model import make_model
from heisenbath.spaces import TimeGrid
from helpers import heis_stack, interaction_hamiltonian_images, random_density, random_hermitian, toeplitz_dense


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
        u0 = scipy.linalg.expm(-1j * m.h0.mat * t)
        hi_fam = to_image_family(m.hi)
        for a in range(2):
            for b in range(2):
                phase = np.exp(-1j * (m.bath_energies[a] - m.bath_energies[b]) * t)
                expected = u0 @ hi_fam.block(a, b) @ u0.conj().T * phase
                assert np.allclose(fam.block(a, b), expected, atol=1e-13)


class TestKernels:
    def test_negative_order_rejected(self, two_qubit_quarter):
        preset, _ = two_qubit_quarter
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            compute_kernels(preset.model, -1, TimeGrid.linspace(1.0, 3))

    @pytest.mark.parametrize("n_max", [2.5, True])
    def test_non_integer_order_rejected(self, two_qubit_quarter, n_max):
        preset, _ = two_qubit_quarter
        with pytest.raises(ValueError, match="n_max must be an integer"):
            compute_kernels(preset.model, n_max, TimeGrid.linspace(1.0, 3))

    def test_numpy_integer_order_accepted(self, two_qubit_quarter):
        preset, _ = two_qubit_quarter
        assert compute_kernels(preset.model, np.int64(1), TimeGrid.linspace(1.0, 3)).orders == 1

    def test_order_zero_is_identity_family(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        for t in (0.0, 0.4, 1.9):
            tilde = ImageFamily(ks.tilde_stack(t)[0], ks.dim_bath)
            assert np.allclose(tilde.blocks, ImageFamily(np.eye(4), 2).blocks)

    def test_higher_orders_vanish_at_zero(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        for n in (1, 2, 3):
            assert np.max(np.abs(ImageFamily(ks.tilde_stack(0.0)[n], ks.dim_bath).blocks)) == 0.0

    def test_two_qubit_first_order(self, two_qubit_quarter):
        """Constant interaction images integrate to H_Iab * t."""
        preset, ks = two_qubit_quarter
        t = 1.1
        hi_fam = to_image_family(preset.model.hi)
        k1 = ImageFamily(heis_stack(ks, t)[1], ks.dim_bath)
        assert np.max(np.abs(k1.blocks - hi_fam.blocks * t)) < 1e-11

    def test_two_qubit_second_order(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        t = 1.6
        k2 = ImageFamily(heis_stack(ks, t)[2], ks.dim_bath)
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

        def midpoint_kernels(steps):
            dt = t / steps
            mids = (np.arange(steps) + 0.5) * dt
            k1 = np.zeros((4, 4), dtype=complex)
            k2 = np.zeros_like(k1)
            running = np.zeros_like(k1)
            for s in mids:
                h = interaction_hamiltonian_images(m, s).matrix
                k2 += (h @ (running + 0.5 * dt * h)) * dt
                k1 += h * dt
                running += h * dt
            return k1, k2

        coarse = midpoint_kernels(300)
        fine = midpoint_kernels(600)
        k1 = (4 * fine[0] - coarse[0]) / 3
        k2 = (4 * fine[1] - coarse[1]) / 3
        for grid in grids:
            ks = compute_kernels(m, 2, grid)
            assert np.max(np.abs(ks.tilde_stack(t)[1] - k1)) < 1e-7
            assert np.max(np.abs(ks.tilde_stack(t)[2] - k2)) < 1e-7

    def test_stacks_are_full_space_with_identity_order_zero(self):
        ks = compute_kernels(_random_spec(4), 2, TimeGrid.linspace(1.0, 3))
        heis, tilde = heis_stack(ks, 0.7), ks.tilde_stack(0.7)
        cov = ks.frame_derivative(ks.frame_stack(ks.eigen_rows([0.7])[0]))
        assert heis.shape == tilde.shape == cov.shape == (3, 4, 4)
        assert np.array_equal(heis[0], np.eye(4)) and np.array_equal(tilde[0], np.eye(4))
        assert not np.any(cov[0])
        assert np.array_equal(heis_stack(ks, 0.7)[2], heis[2])

    def test_heis_tilde_phase_conversion_invertible(self):
        m = _random_spec(3)
        t = 1.2
        ks = compute_kernels(m, 2, TimeGrid.linspace(t, 4))
        u0 = scipy.linalg.expm(-1j * m.h0.mat * t)
        for n in (1, 2):
            tilde = ImageFamily(ks.tilde_stack(t)[n], ks.dim_bath).blocks
            heis = ImageFamily(heis_stack(ks, t)[n], ks.dim_bath).blocks
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
            got = ks._rows[k].transpose(1, 0, 2).reshape(6, 24)  # the blocks side by side
            assert np.max(np.abs(got - row)) <= 1e-13 * np.max(np.abs(row))

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
        first = np.eye(gen.shape[0])[:6].reshape(6, 3, 6).transpose(1, 0, 2)  # the identity block row
        calls = []
        exponential = dyson.toeplitz_expm
        monkeypatch.setattr(dyson, "toeplitz_expm", lambda a: calls.append(1) or exponential(a))
        got = dyson.propagate_rows(first, blocks, points).transpose(0, 2, 1, 3).reshape(len(points), 6, 18)
        first = first.transpose(1, 0, 2).reshape(6, 18)
        assert len(calls) == 1
        assert np.array_equal(got[0], first)
        ref = first.astype(complex)
        for dt, row in zip(np.diff(points), got[1:]):
            ref = ref @ expm(dt * gen)
            assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))
        uncorrected = got[2] @ expm(h * gen)
        assert np.max(np.abs(got[3] - uncorrected)) > 1e-10  # the correction is not rounding

    def test_time_past_the_stop_steps_from_the_last_row(self):
        """A time past the grid's stop is the row of the grid extended to it,
        bit for bit; a negative or NaN time still has no kernels."""
        m = _random_spec(9, 2, 3)
        ks = compute_kernels(m, 3, TimeGrid(np.array([0.0, 0.5, 1.0])))
        extended = compute_kernels(m, 3, TimeGrid(np.array([0.0, 0.5, 1.0, 1.3])))
        assert np.array_equal(ks.eigen_rows([1.3])[0], extended.eigen_rows([1.3])[0])
        for t in (-0.1, float("nan")):
            with pytest.raises(OrderExceedsKernels):
                ks.eigen_rows([t])

    def test_off_grid_times_share_one_exponential_per_offset(self, monkeypatch):
        """The 20 times ``grid.points[:-1] + 0.037`` of ``linspace(2, 21)`` lie at
        5 distinct offsets from their grid points: `eigen_rows` makes 5
        exponentials, not 20, and each row has the bits of a lone one-time call,
        which makes its own."""
        from heisenbath import dyson

        ks = compute_kernels(_random_spec(12, 2, 3), 3, TimeGrid.linspace(2.0, 21))
        times = ks.grid.points[:-1] + 0.037
        calls = []
        exponential = dyson.toeplitz_expm
        monkeypatch.setattr(dyson, "toeplitz_expm", lambda a: calls.append(1) or exponential(a))
        rows = ks.eigen_rows(times)
        assert len(times) == 20 and len(calls) == 5
        assert all(np.array_equal(row, ks.eigen_rows([t])[0]) for row, t in zip(rows, times))
        assert len(calls) == 25

    def test_eigen_rows_reads_the_first_grid_row_within_1e14(self, monkeypatch):
        """A time reads the stored row of the first grid point ``p`` with
        ``t - 1e-14 <= p`` and ``p - t <= 1e-14`` (a scan), bit for bit and with
        no exponential, on on-grid, within-window, off-grid, pre-start, past-stop
        and NaN times; any other time from -1e-12 on makes one exponential, and
        NaN and -0.5 raise.  The batched call has the bits of the lone ones."""
        from heisenbath import dyson

        rng = np.random.default_rng(12)
        ks = compute_kernels(_random_spec(13), 1, TimeGrid(np.concatenate(([0.0], np.cumsum(rng.random(40) + 1e-3)))))
        grid, stored = ks.grid, ks.eigen_rows(ks.grid.points)
        pts = grid.points.tolist()
        on = rng.choice(pts, 20)
        times = [
            *on,
            *(on + rng.uniform(-1e-14, 1e-14, 20)),
            *(on + rng.choice([-1.0, 1.0], 20) * rng.uniform(2e-14, 1e-13, 20)),
            *rng.uniform(0.0, grid.stop, 20),
            -1e-15, -1e-13, -0.5, grid.stop + 1e-15, grid.stop + 1e-13, grid.stop + 1.0, float("nan"),
        ]
        calls = []
        exponential = dyson.toeplitz_expm
        monkeypatch.setattr(dyson, "toeplitz_expm", lambda a: calls.append(1) or exponential(a))
        lone, placed, scans = [], [], []
        for t in map(float, times):
            scan = next((k for k, p in enumerate(pts) if t - 1e-14 <= p and p - t <= 1e-14), None)
            calls.clear()
            if scan is None and not t >= -1e-12:
                with pytest.raises(OrderExceedsKernels):
                    ks.eigen_rows([t])
                continue
            lone.append(ks.eigen_rows([t])[0])
            placed.append(t)
            scans.append(scan)
            if scan is None:
                assert len(calls) == 1
            else:
                assert np.array_equal(lone[-1], stored[scan]) and not calls
        assert len(placed) == len(times) - 2 and None in scans and 0 in scans
        assert np.array_equal(ks.eigen_rows(placed), np.stack(lone))

    def test_order_beyond_cap_rejected(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        with pytest.raises(OrderExceedsKernels):
            ks.check_order(4)


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

    @pytest.mark.parametrize("norm,gemms", [(1.0, 15), (20.0, 24)])
    def test_generator_row_multiplies_no_zero_block(self, monkeypatch, norm, gemms):
        """One exponential of an order-3 Van Loan row ``(iF, H_I, 0, 0)``,
        counted in inner GEMMs (`np.matmul` batch entries).  A full product
        or the solve of 4 blocks takes 3; ``A^2`` takes 1 and ``A`` times the
        odd part 2, since ``A``'s zero blocks are never read.  At |A|_1 = 1
        (degree 9: A^2, three full powers, A times the odd part, the solve)
        that is 15 against 18; at 20 (degree 13, two squarings: A^2, A^4,
        A^6, two full products, A times the odd part, the solve, two squares)
        24 against 27.  Reading the zero blocks changes no bit."""
        gen = compute_kernels(_random_spec(9, 2, 3), 3, TimeGrid.linspace(1.0, 2))._gen
        blocks = norm / toeplitz_norm1(gen) * gen
        counts, matmul = [], np.matmul

        def counted(a, b, *args, **kwargs):
            counts.append(len(a) if a.ndim == 3 else 1)
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        row = toeplitz_expm(blocks)
        assert sum(counts) == gemms
        counts.clear()
        monkeypatch.setattr(dyson, "_nonzero_head", lambda blocks: blocks)
        assert np.array_equal(toeplitz_expm(blocks), row)
        assert sum(counts) == gemms + 3

    def test_zero_gives_identity_row(self):
        got = toeplitz_expm(np.zeros((3, 4, 4)))
        assert np.array_equal(got, np.stack([np.eye(4), np.zeros((4, 4)), np.zeros((4, 4))]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(np.inf, np.nan)])
    def test_non_finite_generator_raises(self, bad):
        blocks = np.zeros((2, 3, 3), dtype=complex)
        blocks[1, 0, 2] = bad
        with pytest.raises(NonFiniteResult):
            toeplitz_expm(blocks)

    def test_generator_beyond_the_precision_raises(self):
        """Squaring leaves ``eps |A|_1`` of relative error: a nilpotent generator
        of 1-norm 1/(2 sqrt(eps)) returns a finite row, one of 2/sqrt(eps), 1/eps
        or 1e100 raises, since fewer than half of the digits would survive."""
        eps = np.finfo(float).eps
        blocks = np.zeros((2, 3, 3), dtype=complex)
        blocks[1] = np.eye(3, k=1) / eps
        assert np.all(np.isfinite(toeplitz_expm(np.sqrt(eps) / 2 * blocks)))
        for scale in (2 * np.sqrt(eps), 1.0, 1e100 * eps):
            with pytest.raises(NonFiniteResult, match="fewer than half of its digits are significant"):
                toeplitz_expm(scale * blocks)

    def test_norm_and_product_match_dense(self):
        """Norm, product and solve of first block rows against the dense
        matrices, at n = 2 (no inner term), 4 and 5 blocks, whose block 0 is
        diagonal, and at n = 1, a dense matrix (the Lindblad step).  There a
        rectangular first factor ``(1, r, D)`` is a block row stepped by a
        Toeplitz matrix: the first block row of the dense product."""
        rng = np.random.default_rng(11)
        for n in (4, 1, 2, 5):
            a, b = (rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3)) for _ in range(2))
            if n > 1:  # the contract of a multi-block row: block 0 is diagonal
                a[0], b[0] = np.diag(np.diagonal(a[0])), np.diag(np.diagonal(b[0]))
            dense = toeplitz_dense(toeplitz_mul(a, b))
            assert np.max(np.abs(dense - toeplitz_dense(a) @ toeplitz_dense(b))) < 1e-14 * np.max(np.abs(dense))
            assert np.isclose(toeplitz_norm1(a), np.linalg.norm(toeplitz_dense(a), 1), rtol=1e-15)
            if n == 1:
                rect = rng.normal(size=(n, 5, 3)) + 1j * rng.normal(size=(n, 5, 3))
                got = toeplitz_mul(rect, b).transpose(1, 0, 2).reshape(5, 3 * n)
                ref = rect.transpose(1, 0, 2).reshape(5, 3 * n) @ toeplitz_dense(b)
                assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))
            q = b + 4 * np.eye(3)  # Q_0 well conditioned, and diagonal with b's
            got = _toeplitz_solve(q, a)
            ref = np.linalg.solve(toeplitz_dense(q), toeplitz_dense(a))[:3].reshape(3, n, 3).transpose(1, 0, 2)
            assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


class TestDysonPropagator:
    def test_zero_coupling_is_identity(self, two_qubit_quarter):
        _, ks = two_qubit_quarter
        fam = dyson_propagator(ks, 0.0, 3, 1.4)
        assert np.allclose(fam.blocks, ImageFamily(np.eye(4), 2).blocks)

    def test_first_order_two_qubit(self, two_qubit_quarter):
        preset, ks = two_qubit_quarter
        lam, t = 0.2, 0.9
        fam = dyson_propagator(ks, lam, 1, t)
        expected = ImageFamily(np.eye(4), 2).blocks - 1j * lam * t * to_image_family(preset.model.hi).blocks
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
