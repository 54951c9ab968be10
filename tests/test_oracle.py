"""Exact brute-force reference: evolution, reduction, images, completeness."""

import numpy as np
import pytest
import scipy.linalg

import heisenbath as hb
from heisenbath.diagnostics import DEFAULT_LAMBDAS, validation_suite
from heisenbath.errors import DimensionError, IndexOutOfRange, NonFiniteResult, NonHermitianInput
from heisenbath.images import evolve_images_exact, to_image_family
from heisenbath.model import make_model
from heisenbath.oracle import (
    evolve_exact,
    heisenberg_evolve_exact,
    npoint_reduced_exact,
)
from heisenbath.spaces import (
    TimeGrid,
    full_operator,
    system_operator,
    weighted_bath_trace,
)
from helpers import projection, random_density, random_hermitian, total_hamiltonian


def _random_spec(seed, d_s=2, d_b=3, lam=0.7):
    rng = np.random.default_rng(seed)
    return make_model(
        random_hermitian(rng, d_s),
        random_hermitian(rng, d_b),
        random_hermitian(rng, d_s * d_b),
        np.eye(d_s) / d_s,
        random_density(rng, d_b),
        lam=lam,
    )


@pytest.mark.parametrize("d_0,d_b,field", [(3, 3, "rho0"), (2, 2, "rho_B")])
def test_make_model_rejects_state_shapes(d_0, d_b, field):
    """A (d_S, d_B) = (2, 3) model with a state of the wrong side."""
    rng = np.random.default_rng(22)
    with pytest.raises(DimensionError, match=f"{field} has shape"):
        make_model(
            random_hermitian(rng, 2),
            random_hermitian(rng, 3),
            random_hermitian(rng, 6),
            np.eye(d_0) / d_0,
            np.eye(d_b) / d_b,
        )


class TestTotalHamiltonian:
    def test_decoupled(self):
        m = _random_spec(0, lam=0.0)
        h = total_hamiltonian(m)
        expected = np.kron(m.h0.mat, np.eye(3)) + np.kron(np.eye(2), m.hb)
        assert np.allclose(h, expected)

    def test_two_qubit_preset(self):
        preset = hb.two_qubit(0.25, lam=0.4)
        h = total_hamiltonian(preset.model)
        s = [0.5 * p for p in (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))]
        expected = 0.4 * sum(np.kron(a, a) for a in s)
        assert np.allclose(h, expected)

    def test_random_assembly(self):
        m = _random_spec(1)
        h = total_hamiltonian(m)
        brute = (
            np.kron(m.h0.mat, np.eye(3)) + np.kron(np.eye(2), m.hb) + m.constants.lam * m.hi.mat
        )
        assert np.allclose(h, brute)


class TestHeisenbergEvolve:
    def test_initial_condition(self):
        m = _random_spec(2)
        rng = np.random.default_rng(3)
        o = system_operator(random_hermitian(rng, 2), (2, 3))
        out = heisenberg_evolve_exact(m, o, 0.0).mat
        assert np.allclose(out, np.kron(o.mat, np.eye(3)))

    def test_decoupled_diagonal(self):
        """lam = 0 with diagonal H0: pure phase rotation of the system block."""
        h0 = np.diag([0.3, -1.1])
        m = make_model(h0, np.diag([0.2, 0.9]), np.zeros((4, 4)), np.eye(2) / 2, np.eye(2) / 2)
        o = system_operator(np.array([[0, 1], [1, 0]], dtype=complex), (2, 2))
        t = 1.7
        out = heisenberg_evolve_exact(m, o, t).mat
        u0 = np.diag(np.exp(-1j * np.diag(h0) * t))
        assert np.allclose(out, np.kron(u0.conj().T @ o.mat @ u0, np.eye(2)))

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5])
    def test_two_qubit_closed_form(self, c):
        lam = 0.6
        preset = hb.two_qubit(c, lam=lam)
        m = preset.model
        s1x = system_operator(preset.observables["s1x"], (2, 2))
        for t in (0.3, 1.4, 4.0):
            reduced = weighted_bath_trace(heisenberg_evolve_exact(m, s1x, t), m.rho_b).mat
            off = 0.25 * (1 + np.cos(lam * t) + 1j * (1 - 2 * c) * np.sin(lam * t))
            expected = np.array([[0, off], [np.conj(off), 0]])
            assert np.max(np.abs(reduced - expected)) < 1e-12

    def test_spectrum_preserved(self):
        m = _random_spec(4)
        rng = np.random.default_rng(5)
        o = system_operator(random_hermitian(rng, 2), (2, 3))
        ev0 = np.linalg.eigvalsh(np.kron(o.mat, np.eye(3)))
        evt = np.linalg.eigvalsh(heisenberg_evolve_exact(m, o, 2.3).mat)
        assert np.max(np.abs(ev0 - evt)) < 1e-8

    @pytest.mark.parametrize("t, hbar", [(1e300, 1.0), (1.0, 1e-300)])
    def test_phases_with_few_digits_are_refused(self, t, hbar):
        """``eps max|E| max|t| / hbar`` above ``sqrt(eps)`` leaves no significant
        digit in the phases: `NonFiniteResult`, not finite noise."""
        rng = np.random.default_rng(7)
        h0, hb_, hi = random_hermitian(rng, 2), random_hermitian(rng, 3), random_hermitian(rng, 6)
        m = make_model(h0, hb_, hi, np.eye(2) / 2, random_density(rng, 3), hbar=hbar, lam=0.7)
        with pytest.raises(NonFiniteResult, match="fewer than half"):
            evolve_exact(m, [random_hermitian(rng, 2)], [0.0, t])

    def test_group_law(self):
        m = _random_spec(6)
        h = total_hamiltonian(m)
        t1, t2 = 0.7, 1.9
        u12 = scipy.linalg.expm(-1j * h * (t1 + t2))
        u1 = scipy.linalg.expm(-1j * h * t1)
        u2 = scipy.linalg.expm(-1j * h * t2)
        assert np.max(np.abs(u12 - u1 @ u2)) < 1e-10


class TestNPointReduced:
    def test_single_at_zero(self):
        m = _random_spec(7)
        rng = np.random.default_rng(8)
        o = system_operator(random_hermitian(rng, 2), (2, 3))
        out = npoint_reduced_exact(m, [(o, 0.0)]).mat
        assert np.allclose(out, o.mat)

    def test_identity_pair(self):
        m = _random_spec(9)
        ident = system_operator(np.eye(2), (2, 3))
        out = npoint_reduced_exact(m, [(ident, 0.8), (ident, 1.9)]).mat
        assert np.allclose(out, np.eye(2), atol=1e-12)

    def test_two_qubit_first_order_expansion(self):
        """Series-expanding the oracle two-point operator in lam reproduces the
        dimensionally consistent closed form (hbar^2/4 prefactor, lam*hbar*(t1-t2))."""
        c = 0.25
        t1, t2 = 0.9, 0.4
        h = 1e-6
        preset = hb.two_qubit(c)
        s1x = system_operator(preset.observables["s1x"], (2, 2))

        def two_point(lam):
            return npoint_reduced_exact(preset.model.with_coupling(lam), [(s1x, t1), (s1x, t2)]).mat

        deriv = (two_point(h) - two_point(-h)) / (2 * h)
        first_order = two_point(0.0) + 0.1 * deriv
        expected = 0.25 * np.diag(
            [1 + 0.5j * (1 - 2 * c) * (t1 - t2) * 0.1, 1 - 0.5j * (1 - 2 * c) * (t1 - t2) * 0.1]
        )
        assert np.max(np.abs(first_order - expected)) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            npoint_reduced_exact(_random_spec(10), [])


class TestOneDiagonalisation:
    """Every exact result diagonalises the total Hamiltonian once per coupled model,
    and a coupling sweep diagonalises all of its models in one batched call."""

    @staticmethod
    def _count_full_eigh(monkeypatch, d):
        """The number of ``d x d`` matrices in each `np.linalg.eigh` call on them."""
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            if np.shape(a)[-2:] == (d, d):
                calls.append(int(np.prod(np.shape(a)[:-2])))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_validation_suite_once_per_coupling(self, monkeypatch):
        calls = self._count_full_eigh(monkeypatch, 6)
        validation_suite(3, 2, 3, order=2)
        assert calls == [len(DEFAULT_LAMBDAS)] == [4]

    def test_npoint_reduced_exact_once_for_all_factors(self, monkeypatch):
        """Three factors with different observables: one eigh, and the same
        product as evolving each factor on its own."""
        m = _random_spec(12)
        rng = np.random.default_rng(13)
        ops = [(system_operator(random_hermitian(rng, 2), (2, 3)), t) for t in (0.3, 1.4, 0.8)]
        expected = heisenberg_evolve_exact(m, *ops[0]).mat
        for op in ops[1:]:
            expected = expected @ heisenberg_evolve_exact(m, *op).mat
        expected = weighted_bath_trace(full_operator(expected, (2, 3)), m.rho_b).mat
        calls = self._count_full_eigh(monkeypatch, 6)
        out = npoint_reduced_exact(m, ops).mat
        assert calls == [1]
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_coupling_sweep_equals_one_call_per_coupling(self, monkeypatch):
        """A sweep with a zero and a negative coupling, one observable per time:
        one batched eigh, and every coupling bit for bit its lone call."""
        m = _random_spec(18, d_s=3, d_b=2)
        rng = np.random.default_rng(19)
        obs = [system_operator(random_hermitian(rng, 3), (3, 2)) for _ in range(3)]
        times, lams = (0.0, 0.44, 1.7), (0.1, 0.0, -0.03, 1e-4)
        calls = self._count_full_eigh(monkeypatch, 6)
        swept = evolve_exact(m, obs, times, lams)
        assert calls == [4] and swept.shape == (4, 3, 6, 6)
        for k, lam in enumerate(lams):
            assert np.array_equal(swept[k], evolve_exact(m.with_coupling(lam), obs, times))

    def test_bath_observable_rejected(self):
        m = _random_spec(21)
        with pytest.raises(DimensionError, match="system space"):
            evolve_exact(m, [full_operator(np.eye(6), (2, 3))], (0.5,))

    def test_array_observable_equals_tagged(self):
        """A plain array is the same observable as its system-tagged operator, bit for
        bit; an array of another shape is refused."""
        m = _random_spec(22)
        o = random_hermitian(np.random.default_rng(23), 2)
        times = (0.0, 0.6, 1.3)
        assert np.array_equal(evolve_exact(m, [o], times), evolve_exact(m, [system_operator(o, (2, 3))], times))
        with pytest.raises(DimensionError, match="shape"):
            evolve_exact(m, [np.eye(3)], times)

    def test_coupling_sweep_checks_each_coupling(self):
        m = _random_spec(20)
        o = system_operator(np.eye(2), (2, 3))
        with pytest.raises(NonHermitianInput, match="total Hamiltonian"):
            evolve_exact(m, [o], (0.5,), (0.1, np.nan))

    def test_evolve_images_exact_once_per_grid(self, monkeypatch):
        m = _random_spec(14)
        o = system_operator(random_hermitian(np.random.default_rng(15), 2), (2, 3))
        calls = self._count_full_eigh(monkeypatch, 6)
        assert len(evolve_images_exact(m, o, TimeGrid.linspace(2.0, 9))) == 9
        assert calls == [1]


class TestImageExtract:
    def test_system_operator_is_diagonal_family(self):
        rng = np.random.default_rng(11)
        o = random_hermitian(rng, 2)
        x = full_operator(np.kron(o, np.eye(3)), (2, 3))
        for a in range(3):
            for b in range(3):
                block = to_image_family(x).block(a, b)
                assert np.allclose(block, o if a == b else 0)

    def test_identity(self):
        x = full_operator(np.eye(6), (2, 3))
        assert np.allclose(to_image_family(x).block(1, 1), np.eye(2))
        assert np.allclose(to_image_family(x).block(0, 2), 0)

    def test_random_entry_picking(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        block = to_image_family(full_operator(x, (2, 3))).block(1, 2)
        for i in range(2):
            for j in range(2):
                assert block[i, j] == x[i * 3 + 1, j * 3 + 2]

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            to_image_family(full_operator(np.eye(6), (2, 3))).block(0, 3)

    def test_projection_completeness(self):
        """sum_ab T_a (T_a^dag X T_b) T_b^dag reassembles X exactly."""
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        xf = full_operator(x, (2, 3))
        acc = np.zeros_like(x)
        for a in range(3):
            ta = projection(a, 2, 3)
            for b in range(3):
                tb = projection(b, 2, 3)
                acc += ta @ to_image_family(xf).block(a, b) @ tb.conj().T
        assert np.array_equal(acc, x)


class TestBasisNormalization:
    def test_non_finite_hamiltonian_rejected(self):
        hb_nan = np.diag([0.0, np.nan])
        with pytest.raises(NonHermitianInput):
            make_model(np.eye(2), hb_nan, np.zeros((4, 4)), np.eye(2) / 2, np.eye(2) / 2)

    def test_non_finite_coupling_rejected(self):
        """The exact evolution checks the total Hamiltonian, where a NaN coupling first appears."""
        m = hb.two_qubit(0.25).model.with_coupling(np.nan)
        with pytest.raises(NonHermitianInput, match="total Hamiltonian"):
            heisenberg_evolve_exact(m, system_operator(np.eye(2), (2, 2)), 0.5)

    def test_non_diagonal_bath_hamiltonian_is_rotated(self):
        """Physics is invariant under the loader's rotation to the H_B eigenbasis."""
        rng = np.random.default_rng(16)
        h0 = random_hermitian(rng, 2)
        hb_raw = random_hermitian(rng, 3)
        hi_raw = random_hermitian(rng, 6)
        rho_b_raw = random_density(rng, 3)
        m = make_model(h0, hb_raw, hi_raw, np.eye(2) / 2, rho_b_raw, lam=0.5)
        assert np.allclose(m.hb, np.diag(m.bath_energies))
        assert np.all(np.diff(m.bath_energies) >= 0)

        o = system_operator(random_hermitian(rng, 2), (2, 3))
        t = 1.3
        reduced = weighted_bath_trace(heisenberg_evolve_exact(m, o, t), m.rho_b).mat

        h_raw = np.kron(h0, np.eye(3)) + np.kron(np.eye(2), hb_raw) + 0.5 * hi_raw
        evals, vecs = np.linalg.eigh(h_raw)
        u = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
        evolved = u.conj().T @ np.kron(o.mat, np.eye(3)) @ u
        raw_reduced = weighted_bath_trace(full_operator(evolved, (2, 3)), rho_b_raw).mat
        assert np.max(np.abs(reduced - raw_reduced)) < 1e-11

    def test_diagonal_bath_hamiltonian_is_kept_without_eigendecomposition(self, monkeypatch):
        """A diagonal H_B keeps the caller's order and basis, and is never diagonalised;
        `bath_gaps` are its level differences over hbar."""
        from heisenbath import model

        def refuse(*args):
            raise AssertionError("a diagonal H_B was diagonalised")

        monkeypatch.setattr(model, "_canonical_bath_eigenbasis", refuse)
        rng = np.random.default_rng(24)
        hi_raw, rho_b_raw = random_hermitian(rng, 6), random_density(rng, 3)
        energies = np.array([2.0, 0.5, 1.0])
        m = make_model(np.eye(2), np.diag(energies), hi_raw, np.eye(2) / 2, rho_b_raw, hbar=1.3)
        assert np.array_equal(m.bath_energies, energies)
        assert np.array_equal(m.hi.mat, hi_raw) and np.array_equal(m.rho_b, rho_b_raw)
        assert np.array_equal(m.bath_gaps, (energies[:, None] - energies[None, :]) / 1.3)

    def test_degenerate_bath_is_deterministic(self):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        hb_raw = q @ np.diag([1.0, 1.0, 2.0]) @ q.T
        m1 = make_model(np.zeros((2, 2)), hb_raw, np.zeros((6, 6)), np.eye(2) / 2, np.eye(3) / 3)
        m2 = make_model(np.zeros((2, 2)), hb_raw, np.zeros((6, 6)), np.eye(2) / 2, np.eye(3) / 3)
        assert np.array_equal(m1.rho_b, m2.rho_b)
        assert np.array_equal(m1.bath_energies, m2.bath_energies)
