"""Interaction decomposition, Markov assumptions, Bohr data, Lindblad generator."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import heisenbath as hb
from heisenbath.dyson import compute_kernels, frame_of, toeplitz_expm
from heisenbath.errors import DimensionError, NonHermitianInput
from heisenbath.markov import (
    N_TAU,
    BohrDecomposition,
    SpectralCoefficients,
    _correlations,
    bath_correlation,
    bohr_decompose_all,
    bohr_decomposition,
    check_markov_assumptions,
    decompose_interaction,
    evolve_lindblad,
    first_moment,
    lindblad_generator,
    lindblad_rhs,
    reconstruct_bohr,
    spectral_coefficients,
)
from heisenbath.model import make_model
from heisenbath.spaces import Constants, TimeGrid, full_operator
from heisenbath.superop import SeriesTruncation, one_point_operator, one_point_rhs
from helpers import loop_hermitian_basis, loop_lindblad_rhs, random_density, random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def _markov_data(name):
    """Model, Bohr data and J for the dephasing preset or a seeded random
    (d_S, d_B) model with a generic H0 and hbar = 0.7."""
    if name == "dephasing":
        m = hb.dephasing_bath(lam=0.05).model
        horizon, eta = 5.0, 0.0
    else:
        d_s, d_b = name
        rng = np.random.default_rng(30 + 10 * d_s + d_b)
        m = make_model(
            random_hermitian(rng, d_s),
            np.diag(np.linspace(0.0, 1.6, d_b)),
            random_hermitian(rng, d_s * d_b),
            np.eye(d_s) / d_s,
            random_density(rng, d_b),
            hbar=0.7,
            lam=0.2,
        )
        horizon, eta = 4.0, 0.5
    dec = decompose_interaction(m.hi)
    bd = bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
    sc = spectral_coefficients(m, dec, bd.frequencies, horizon=horizon, eta=eta)
    return m, bd, sc


def _one_line(jval):
    """Bohr data of one S_z coupling term on the zero line, with ``J = jval``."""
    bd = BohrDecomposition(np.array([0.0]), SZ[None, None].copy())
    j = np.full((1, 1, 1), jval, dtype=complex)
    return bd, SpectralCoefficients(bd.frequencies, j, np.zeros((1, 1, 1)), 10.0, 1e-8, 0.0, True)


class TestDecomposeInteraction:
    def test_rank_one(self):
        rng = np.random.default_rng(0)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        dec = decompose_interaction(full_operator(np.kron(a, b), (2, 3)))
        assert dec.r.shape == (1, 2, 2) and dec.s.shape == (1, 3, 3)
        assert np.allclose(np.kron(dec.r[0], dec.s[0]), np.kron(a, b), atol=1e-12)

    def test_two_qubit_three_terms(self):
        m = hb.two_qubit(0.25).model
        dec = decompose_interaction(m.hi)
        assert len(dec.r) == len(dec.s) == 3
        assert np.max(np.abs(dec.reconstruct() - m.hi.mat)) < 1e-12

    def test_factors_are_hermitian(self):
        rng = np.random.default_rng(1)
        dec = decompose_interaction(full_operator(random_hermitian(rng, 6), (2, 3)))
        for factors in (dec.r, dec.s):
            assert np.max(np.abs(factors - factors.conj().transpose(0, 2, 1))) < 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(2)
        hi = full_operator(random_hermitian(rng, 8), (2, 4))
        dec = decompose_interaction(hi)
        defect = np.linalg.norm(dec.reconstruct() - hi.mat) / np.linalg.norm(hi.mat)
        assert defect < 1e-10

    def test_rejects_non_hermitian(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NonHermitianInput):
            decompose_interaction(full_operator(bad, (2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_hermitian_basis_matches_loop_construction(self, n):
        """The coordinate maps against the basis built element by element:
        the coordinates of X are ``tr(F_a^dag X)``, the inverse is
        ``sum_a c_a F_a``, and hermitian X has real coordinates."""
        from heisenbath.markov import _from_hermitian_coords, _hermitian_coords

        basis = loop_hermitian_basis(n)
        rng = np.random.default_rng(22 + n)
        x = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        coords = _hermitian_coords(x)
        assert coords.shape == (3, n * n)
        assert np.max(np.abs(coords - np.einsum("aij,kij->ka", basis.conj(), x))) <= 1e-15
        c = rng.normal(size=(3, n * n))
        assert np.max(np.abs(_from_hermitian_coords(c, n) - np.einsum("ka,aij->kij", c, basis))) <= 1e-15
        h = x + x.conj().transpose(0, 2, 1)
        assert np.max(np.abs(_hermitian_coords(h).imag)) <= 1e-15
        assert np.max(np.abs(_from_hermitian_coords(_hermitian_coords(h).real, n) - h)) <= 1e-14

    def test_no_basis_tensor_at_d_b_32(self):
        """At (d_S, d_B) = (2, 32) the decomposition reads coordinates in
        place, with no (d^2, d, d) basis or d^4 coefficient contraction; it
        reconstructs H_I with hermitian factors."""
        rng = np.random.default_rng(23)
        hi = full_operator(random_hermitian(rng, 64), (2, 32))
        tracemalloc.start()
        try:
            dec = decompose_interaction(hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert dec.r.shape == (4, 2, 2) and dec.s.shape == (4, 32, 32)
        assert np.linalg.norm(dec.reconstruct() - hi.mat) <= 1e-12 * np.linalg.norm(hi.mat)
        for factors in (dec.r, dec.s):
            assert np.max(np.abs(factors - factors.conj().transpose(0, 2, 1))) <= 1e-14

    def test_reconstruct_is_the_kron_sum(self):
        rng = np.random.default_rng(21)
        dec = decompose_interaction(full_operator(random_hermitian(rng, 12), (3, 4)))
        ref = sum(np.kron(r, s) for r, s in zip(dec.r, dec.s))
        assert len(dec.r) > 1
        assert np.max(np.abs(dec.reconstruct() - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5])
    def test_two_qubit_weighted_factor_sum(self, c):
        """sum_i tr(S^i rho_B) R^i equals tr_B{H_I (1 x rho_B)} = (1-2c)/2 S_z,
        which is invariant under the SVD's rotation freedom."""
        m = hb.two_qubit(c).model
        dec = decompose_interaction(m.hi)
        acc = sum(np.trace(s @ m.rho_b.mat) * r for r, s in zip(dec.r, dec.s))
        expected = (1 - 2 * c) / 2 * 0.5 * SZ
        assert np.max(np.abs(acc - expected)) < 1e-12


class TestMarkovAssumptions:
    def test_maximally_mixed_bath_traceless_coupling(self):
        """rho_B = 1/d with traceless bath factors: the first moment is exactly zero."""
        m = make_model(np.zeros((2, 2)), np.diag([0.0, 1.0]), np.kron(SX, SX), np.eye(2) / 2, np.eye(2) / 2)
        dec = decompose_interaction(m.hi)
        rep = check_markov_assumptions(m, dec, 4.0, decay_threshold=0.5)
        assert rep.first_moment_max < 1e-14

    def test_diagonal_bath_state_is_stationary(self):
        rng = np.random.default_rng(3)
        w = rng.random(3) + 0.1
        m = make_model(
            random_hermitian(rng, 2),
            np.diag([0.0, 0.7, 1.9]),
            random_hermitian(rng, 6),
            np.eye(2) / 2,
            np.diag(w / w.sum()),
        )
        dec = decompose_interaction(m.hi)
        rep = check_markov_assumptions(m, dec, 5.0, decay_threshold=0.01)
        assert rep.stationarity_defect < 1e-13

    def test_two_qubit_correlator_never_decays(self):
        """Degenerate bath levels give a constant correlator; the report says so."""
        m = hb.two_qubit(0.25).model
        dec = decompose_interaction(m.hi)
        rep = check_markov_assumptions(m, dec, 5.0, decay_threshold=0.05)
        assert rep.decay_time is None
        assert not rep.passes["decay"]

    def test_dephasing_preset_passes_all(self):
        p = hb.dephasing_bath()
        dec = decompose_interaction(p.model.hi)
        rep = check_markov_assumptions(p.model, dec, 6.0, decay_threshold=0.025)
        assert rep.passes == {"first_moment": True, "stationarity": True, "decay": True}
        assert 3.0 < rep.decay_time < 5.0

    def test_report_matches_pointwise_correlators(self):
        """First moments, stationarity defect and decay profile against
        `first_moment` and `bath_correlation` evaluated one time at a time."""
        rng = np.random.default_rng(15)
        m = make_model(
            random_hermitian(rng, 2),
            random_hermitian(rng, 3),
            random_hermitian(rng, 6),
            np.eye(2) / 2,
            random_density(rng, 3),
        )
        dec = decompose_interaction(m.hi)
        horizon, n = 3.0, len(dec.r)
        rep = check_markov_assumptions(m, dec, horizon, decay_threshold=0.1)
        ts, taus = np.linspace(0.0, horizon, 7), np.linspace(0.0, horizon, 41)
        fm = [max(abs(first_moment(m, dec, i, t)) for t in ts) for i in range(n)]
        stat = max(
            abs(bath_correlation(m, dec, i, j, t, tau) - bath_correlation(m, dec, i, j, 0.0, tau))
            for i in range(n) for j in range(n) for t in ts[1:] for tau in taus
        )
        profile = [
            max(abs(bath_correlation(m, dec, i, j, 0.0, tau)) for i in range(n) for j in range(n))
            for tau in rep.tau
        ]
        assert min(fm) > 1e-3 and stat > 1e-3
        assert np.allclose(rep.first_moment_by_term, fm, rtol=0, atol=1e-13)
        assert rep.stationarity_defect == pytest.approx(stat, abs=1e-13)
        assert np.allclose(rep.corr_profile, profile, rtol=0, atol=1e-13)

    def test_dephasing_correlations_pointwise_and_stationary(self):
        """Evenly spaced levels repeat every gap: the correlators on the
        report's 7 x 41 (t, tau) grid match `bath_correlation`, and the
        diagonal bath state leaves a stationarity defect of exactly zero."""
        m = hb.dephasing_bath().model
        dec = decompose_interaction(m.hi)
        horizon, n = 5.0, len(dec.r)
        ts, taus = np.linspace(0.0, horizon, 7), np.linspace(0.0, horizon, 41)
        corr = _correlations(m, dec, ts, taus)
        ref = [
            [[[bath_correlation(m, dec, i, j, t, tau) for tau in taus] for j in range(n)] for i in range(n)]
            for t in ts
        ]
        assert corr.shape == (7, n, n, 41)
        assert np.max(np.abs(corr - np.array(ref))) <= 1e-13
        assert check_markov_assumptions(m, dec, horizon, decay_threshold=0.025).stationarity_defect == 0.0

    def test_one_table_memory_at_d_b_64(self):
        """At (d_S, d_B) = (2, 64) with 4 coupling terms the report holds one
        (n, n, d_B, d_B) correlator table per time sample, not the
        (n, n, d_B, d_B, d_B) tensor that peaked at 95 MB on this model."""
        rng = np.random.default_rng(31)
        m = make_model(
            random_hermitian(rng, 2),
            random_hermitian(rng, 64),
            random_hermitian(rng, 128),
            np.eye(2) / 2,
            random_density(rng, 64),
            lam=0.05,
        )
        dec = decompose_interaction(m.hi)
        assert len(dec.r) == 4
        tracemalloc.start()
        try:
            rep = check_markov_assumptions(m, dec, 5.0, decay_threshold=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert rep.corr_profile.shape == (N_TAU,)

    def test_first_moment_derivative_theorem(self):
        """Vanishing first moment forces its time derivative to vanish too."""
        p = hb.dephasing_bath()
        dec = decompose_interaction(p.model.hi)
        h = 1e-6
        for t in (0.0, 1.3, 4.0):
            d = (first_moment(p.model, dec, 0, t + h) - first_moment(p.model, dec, 0, t - h)) / (2 * h)
            assert abs(d) < 1e-8


class TestBohr:
    def test_trivial_h0(self):
        rng = np.random.default_rng(4)
        r = random_hermitian(rng, 2)
        bd = bohr_decomposition(r, np.zeros((2, 2)))
        assert bd.frequencies.tolist() == [0.0]
        assert bd.components.shape == (1, 1, 2, 2)
        assert np.allclose(bd.components[0, 0], r)

    def test_two_level_splitting(self):
        delta = 1.7
        bd = bohr_decomposition(SX, np.diag([0.0, delta]))
        assert np.allclose(bd.frequencies, [-delta, delta])
        assert np.allclose(bd.components[0, 1], [[0, 1], [0, 0]])  # raising part: e^{i delta t}|0><1|
        assert np.allclose(bd.components[0, 0], [[0, 0], [1, 0]])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        h0 = random_hermitian(rng, 3)
        r = random_hermitian(rng, 3)
        m = make_model(h0, np.zeros((2, 2)), np.zeros((6, 6)), np.eye(3) / 3, np.eye(2) / 2)
        fr = frame_of(m)
        bd = bohr_decomposition(r, h0)
        eps = np.linalg.eigvalsh(h0)
        w_min = min(abs(a - b) for i, a in enumerate(eps) for b in eps[i + 1 :])
        for t in np.linspace(0, 2 * np.pi / w_min, 10):
            u = fr.u0(t)
            target = u @ r @ u.conj().T
            assert np.max(np.abs(reconstruct_bohr(bd, 0, t) - target)) < 1e-10

    def test_chained_frequencies_partition_the_elements(self):
        """Bohr frequencies 0.6e-9 apart chain within the merge tolerance
        (1e-9); every matrix element still lands on exactly one line."""
        rng = np.random.default_rng(16)
        h0 = np.diag([0.0, 0.6e-9, 1.2e-9, 1.0])
        r = random_hermitian(rng, 4)
        bd = bohr_decomposition(r, h0)
        assert np.all(np.diff(bd.frequencies) > 0)
        assert np.max(np.abs(bd.components[0].sum(axis=0) - r)) <= 1e-13

    def test_chained_frequencies_reconstruct_free_evolution(self):
        """With merged lines the reconstruction is off only by the merged
        frequency spread: |w - w_line| t |R_ab| <= 1e-9 t max|R|."""
        rng = np.random.default_rng(17)
        h0 = np.diag([0.0, 0.6e-9, 1.2e-9, 1.0])
        r = random_hermitian(rng, 4)
        bd = bohr_decomposition(r, h0)
        for t in np.linspace(0.0, 2 * np.pi, 9):
            u = np.diag(np.exp(-1j * np.diag(h0) * t))
            target = u @ r @ u.conj().T
            bound = 1e-13 + 1e-9 * t * np.max(np.abs(r))
            assert np.max(np.abs(reconstruct_bohr(bd, 0, t) - target)) <= bound

    @pytest.mark.parametrize("name", [(2, 3), (3, 2), "lines_differ"])
    def test_all_terms_match_one_call_each(self, name):
        """The stacked decomposition of every coupling term equals one
        `bohr_decomposition` per term, zero on the lines a term lacks; the
        frequency list is their union.  In ``lines_differ`` the S_z term
        lies on the zero line only and the S_x term on the two others only."""
        if name == "lines_differ":
            hi = 2.0 * np.kron(SZ, SX) + np.kron(SX, SZ)
            m = make_model(np.diag([0.0, 1.0]), np.diag([0.0, 0.5]), hi, np.eye(2) / 2, np.eye(2) / 2)
        else:
            m = _markov_data(name)[0]
        dec = decompose_interaction(m.hi)
        bd = bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
        assert len(dec.r) > 1
        assert bd.components.shape == (len(dec.r), len(bd.frequencies), *dec.r.shape[1:])
        union = set()
        for i, r in enumerate(dec.r):
            one = bohr_decomposition(r, m.h0.mat, m.constants.hbar)
            at = np.searchsorted(bd.frequencies, one.frequencies)
            assert np.array_equal(bd.frequencies[at], one.frequencies)
            a = one.components[0]
            assert np.max(np.abs(bd.components[i, at] - a)) <= 1e-15 * max(1.0, np.max(np.abs(a)))
            assert not np.any(np.delete(bd.components[i], at, axis=0))
            union |= set(one.frequencies.tolist())
        assert bd.frequencies.tolist() == sorted(union)
        if name == "lines_differ":
            assert bd.frequencies.tolist() == [-1.0, 0.0, 1.0]
            on_line = np.linalg.norm(bd.components, axis=(2, 3)) > 0
            assert on_line.tolist() == [[False, True, False], [True, False, True]]

    def test_hermitian_coupling_has_conjugate_lines(self):
        rng = np.random.default_rng(6)
        h0 = random_hermitian(rng, 3)
        r = random_hermitian(rng, 3)
        bd = bohr_decomposition(r, h0)
        for k, w in enumerate(bd.frequencies):
            partner = bd.components[0, np.argmin(np.abs(bd.frequencies + w))]
            assert np.max(np.abs(bd.components[0, k].conj().T - partner)) < 1e-10


class TestSpectralCoefficients:
    def _two_level_bath(self, omega_b, rho00=1.0):
        return make_model(
            np.zeros((2, 2)),
            np.diag([0.0, omega_b]),
            np.kron(SZ, SX),
            np.eye(2) / 2,
            np.diag([rho00, 1 - rho00]),
        )

    def test_zero_correlator(self):
        """Coupling supported on the unoccupied level gives J = 0."""
        m = make_model(
            np.zeros((2, 2)),
            np.diag([0.0, 1.0]),
            np.kron(SZ, np.diag([0.0, 1.0])),
            np.eye(2) / 2,
            np.diag([1.0, 0.0]),
        )
        dec = decompose_interaction(m.hi)
        assert abs(bath_correlation(m, dec, 0, 0, 0.0, 1.3)) < 1e-14
        sc = spectral_coefficients(m, dec, [0.0], horizon=10.0, tol=1e-8)
        assert abs(sc.j[0, 0, 0]) < 1e-10
        assert sc.converged

    @pytest.mark.parametrize("eta", [0.5, 0.25])
    def test_single_mode_analytic(self, eta):
        """C(tau) = C0 exp(-i Omega tau) with regulator: J = C0/(eta + i(omega + Omega))."""
        omega_b = 1.9
        m = self._two_level_bath(omega_b)
        dec = decompose_interaction(m.hi)
        c0 = bath_correlation(m, dec, 0, 0, 0.0, 0.0)
        # here C(tau) = c0 * exp(+i omega_b tau), i.e. Omega = -omega_b
        horizon = 60.0 / eta
        sc = spectral_coefficients(m, dec, [0.4, -0.8], horizon=horizon, tol=1e-6, eta=eta)
        assert sc.j.shape == sc.defects.shape == (1, 1, 2)
        for k, w in enumerate((0.4, -0.8)):
            expected = c0 / (eta + 1j * (w - omega_b))
            assert abs(sc.j[0, 0, k] - expected) < 1e-6

    def test_eta_to_zero_limit_real_part(self):
        omega_b = 1.9
        m = self._two_level_bath(omega_b)
        dec = decompose_interaction(m.hi)
        c0 = bath_correlation(m, dec, 0, 0, 0.0, 0.0).real
        w = 0.4
        for eta in (0.4, 0.2, 0.1):
            sc = spectral_coefficients(m, dec, [w], horizon=80.0 / eta, tol=1e-5, eta=eta)
            analytic = c0 * eta / (eta**2 + (w - omega_b) ** 2)
            assert abs(sc.j[0, 0, 0].real - analytic) < 1e-5

    @pytest.mark.parametrize("eta,pick", [(0.3, "random"), (0.0, "bath_gap")])
    def test_closed_form_matches_quadrature(self, eta, pick):
        """Against adaptive quadrature of the sampled correlator; a frequency
        equal to a bath gap makes some exponents exactly zero."""
        from scipy.integrate import quad

        rng = np.random.default_rng(12)
        m = make_model(
            random_hermitian(rng, 2),
            np.diag([0.0, 0.7, 1.9]),
            random_hermitian(rng, 6),
            np.eye(2) / 2,
            np.diag([0.5, 0.3, 0.2]),
        )
        dec = decompose_interaction(m.hi)
        gap = float(m.bath_energies[2] - m.bath_energies[0])
        freqs = [0.4, -1.1] if pick == "random" else [gap, 0.0]
        horizon = 3.0
        sc = spectral_coefficients(m, dec, freqs, horizon=horizon, eta=eta)
        for i in range(len(dec.r)):
            for j in range(len(dec.r)):
                for k, w in enumerate(freqs):

                    def f(tau, part):
                        c = bath_correlation(m, dec, i, j, 0.0, tau)
                        return part(np.exp(-1j * w * tau - eta * tau) * c)

                    ref = complex(
                        quad(f, 0.0, horizon, args=(np.real,), epsabs=1e-13, epsrel=1e-13)[0],
                        quad(f, 0.0, horizon, args=(np.imag,), epsabs=1e-13, epsrel=1e-13)[0],
                    )
                    assert abs(sc.j[i, j, k] - ref) < 1e-10


class TestLindbladRHS:
    def _artificial(self, jval, delta=1.3):
        return (*_one_line(jval), 0.5 * delta * SZ)

    def test_identity_is_fixed_point(self):
        bd, sc, h0 = self._artificial(0.05 + 0.02j)
        out = lindblad_rhs(np.eye(2), bd, sc, h0, Constants(1.0, 0.3))
        assert np.max(np.abs(out)) < 1e-15

    def test_zero_spectral_coefficients_give_free_motion(self):
        bd, sc, h0 = self._artificial(0.0)
        rng = np.random.default_rng(7)
        o = random_hermitian(rng, 2)
        out = lindblad_rhs(o, bd, sc, h0, Constants(1.0, 0.3))
        assert np.allclose(out, 1j * (h0 @ o - o @ h0))

    def test_hermiticity_preserved(self):
        bd, sc, h0 = self._artificial(0.05 + 0.02j)
        rng = np.random.default_rng(8)
        o = random_hermitian(rng, 2)
        out = lindblad_rhs(o, bd, sc, h0, Constants(1.0, 0.3))
        assert np.max(np.abs(out - out.conj().T)) < 1e-10

    def test_strict_paper_form_breaks_identity_fixity(self):
        bd, sc, h0 = self._artificial(0.05 + 0.02j)
        out = lindblad_rhs(np.eye(2), bd, sc, h0, Constants(1.0, 0.3), strict_paper=True)
        assert np.max(np.abs(out)) > 0.1  # bare H0 O term survives

    def test_dephasing_rate_by_hand(self):
        """For sigma_z dephasing the coherence decays at 4 (lam/hbar)^2 Re J(0)."""
        jval = 0.05 + 0.02j
        lam = 0.3
        bd, sc, h0 = self._artificial(jval)
        out = lindblad_rhs(np.array([[0, 1], [0, 0]], dtype=complex), bd, sc, h0, Constants(1.0, lam))
        # d/dt sigma+ = (i delta) sigma+ - 4 lam^2 Re J sigma+
        coeff = out[0, 1]
        assert coeff == pytest.approx(1j * 1.3 - 4 * lam**2 * jval.real, abs=1e-14)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("name", ["dephasing", (2, 3), (3, 2)])
    def test_collapsed_rhs_matches_line_pair_loop(self, name, strict):
        """The O(terms) collapsed RHS against the O(lines^2) double sum, on a
        stack of operators and with some J entries zeroed."""
        m, bd, sc = _markov_data(name)
        d = m.dim_system
        rng = np.random.default_rng(18)
        ops = np.stack([random_hermitian(rng, d), rng.normal(size=(d, d)) + 0j, np.eye(d)])
        zeroed = sc.j.copy()
        zeroed.flat[::4] = 0.0
        assert np.all(sc.j != 0) and np.any(zeroed == 0)
        if name != "dephasing":
            lines = np.count_nonzero(np.linalg.norm(bd.components, axis=(2, 3)), axis=1)
            assert np.all(lines > 1)  # several lines per term
        for j in (sc.j, zeroed):
            coeffs = dataclasses.replace(sc, j=j)
            got = lindblad_rhs(ops, bd, coeffs, m.h0.mat, m.constants, strict)
            ref = np.stack([loop_lindblad_rhs(o, bd, coeffs, m.h0.mat, m.constants, strict) for o in ops])
            assert got.shape == ops.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


    @pytest.mark.parametrize("name", ["dephasing", (2, 3)])
    def test_frequency_mismatch_raises(self, name):
        """J at frequencies 1e-12 off the Bohr lines, or at fewer of them,
        is refused rather than matched up loosely."""
        m, bd, sc = _markov_data(name)
        dec = decompose_interaction(m.hi)
        for freqs in (bd.frequencies + 1e-12, bd.frequencies[:-1]):
            other = spectral_coefficients(m, dec, freqs, horizon=sc.horizon, eta=sc.eta)
            with pytest.raises(DimensionError):
                lindblad_rhs(np.eye(m.dim_system), bd, other, m.h0.mat, m.constants)


class TestEvolveLindblad:
    def test_identity_stays_identity(self):
        bd, sc = _one_line(0.05 + 0.02j)
        traj = evolve_lindblad(np.eye(2), bd, sc, 0.5 * SZ, Constants(1.0, 0.3), TimeGrid.linspace(4.0, 9))
        assert np.max(np.abs(traj - np.eye(2))) < 1e-10

    def test_zero_j_is_phase_rotation(self):
        delta = 1.3
        bd, sc = _one_line(0.0)
        grid = TimeGrid.linspace(3.0, 7)
        traj = evolve_lindblad(SX, bd, sc, 0.5 * delta * SZ, Constants(1.0, 0.3), grid)
        for t, val in zip(grid.points, traj):
            assert val[0, 1] == pytest.approx(np.exp(1j * delta * t), abs=1e-9)

    def test_dephasing_decay_rate(self):
        jval = 0.05 + 0.02j
        lam = 0.3
        gamma = 4 * lam**2 * jval.real
        bd, sc = _one_line(jval)
        grid = TimeGrid.linspace(5.0, 11)
        traj = evolve_lindblad(SX, bd, sc, 0.5 * 1.3 * SZ, Constants(1.0, lam), grid)
        for t, val in zip(grid.points, traj):
            assert abs(val[0, 1]) == pytest.approx(np.exp(-gamma * t), abs=1e-9)


    def test_matches_adaptive_integration_of_the_rhs(self):
        """The exact exponential against DOP853 on `lindblad_rhs`, for a
        random two-term coupling."""
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(13)
        hi = sum(np.kron(random_hermitian(rng, 2), random_hermitian(rng, 3)) for _ in range(2))
        m = make_model(
            random_hermitian(rng, 2),
            np.diag([0.0, 0.6, 1.7]),
            hi,
            np.eye(2) / 2,
            np.diag([0.5, 0.3, 0.2]),
            lam=0.2,
        )
        dec = decompose_interaction(m.hi)
        bd = bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
        sc = spectral_coefficients(m, dec, bd.frequencies, horizon=4.0, eta=0.5)
        o0 = random_hermitian(rng, 2)
        grid = TimeGrid.linspace(4.0, 9)
        traj = evolve_lindblad(o0, bd, sc, m.h0.mat, m.constants, grid)
        sol = solve_ivp(
            lambda t, y: lindblad_rhs(y.reshape(2, 2), bd, sc, m.h0.mat, m.constants).ravel(),
            (0.0, grid.stop),
            o0.astype(complex).ravel(),
            method="DOP853",
            t_eval=grid.points,
            rtol=1e-12,
            atol=1e-12,
        )
        ref = sol.y.T.reshape(len(grid), 2, 2)
        assert np.max(np.abs(traj - o0)) > 0.1
        assert np.max(np.abs(traj - ref)) < 1e-9

    @pytest.mark.parametrize(
        "points",
        [np.linspace(0.0, 4.0, 41), np.concatenate([np.linspace(0.0, 1.0, 11), [1.3, 1.35, 2.0, 2.9]])],
        ids=["linspace", "nonuniform"],
    )
    @pytest.mark.parametrize("name", [(2, 3), (3, 2)])
    def test_grid_propagation_matches_expm_per_time(self, name, points):
        from scipy.linalg import expm

        m, bd, sc = _markov_data(name)
        d = m.dim_system
        grid = TimeGrid(points)
        o0 = random_hermitian(np.random.default_rng(19), d)
        traj = evolve_lindblad(o0, bd, sc, m.h0.mat, m.constants, grid)
        gen = lindblad_generator(bd, sc, m.h0.mat, m.constants)
        ref = np.stack([(expm(t * gen) @ o0.ravel()).reshape(d, d) for t in points])
        assert traj.shape == (len(grid), d, d)
        assert np.max(np.abs(traj - o0)) > 0.1
        assert np.max(np.abs(traj - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("name", ["dephasing", (2, 3), (3, 2)])
    def test_step_exponential_matches_scipy(self, name):
        """The one-block `toeplitz_expm` of the generator against `scipy.linalg.expm`."""
        from scipy.linalg import expm

        m, bd, sc = _markov_data(name)
        gen = lindblad_generator(bd, sc, m.h0.mat, m.constants)
        for t in (0.05, 1.0, 10.0):
            ref = expm(t * gen)
            got = toeplitz_expm(t * gen[None])[0]
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_stacked_operators_match_one_call_each(self):
        m, bd, sc = _markov_data((3, 2))
        rng = np.random.default_rng(20)
        ops = np.stack([[random_hermitian(rng, 3) for _ in range(3)] for _ in range(2)])
        grid = TimeGrid.linspace(3.0, 13)
        got = evolve_lindblad(ops, bd, sc, m.h0.mat, m.constants, grid)
        assert got.shape == (2, 3, len(grid), 3, 3)
        for idx in np.ndindex(2, 3):
            one = evolve_lindblad(ops[idx], bd, sc, m.h0.mat, m.constants, grid)
            assert np.max(np.abs(got[idx] - one)) <= 1e-14 * np.max(np.abs(one))

    def test_wrong_operator_size_rejected(self):
        bd, sc = _one_line(0.05)
        for shape in [(3, 3), (2, 3, 3), (4,), (2, 2, 1)]:
            with pytest.raises(DimensionError):
                evolve_lindblad(np.ones(shape), bd, sc, 0.5 * SZ, Constants(1.0, 0.3), TimeGrid.linspace(1.0, 3))

    def test_generator_equals_column_by_column_assembly(self):
        """One stacked `lindblad_rhs` call gives the same matrix as mapping
        each matrix unit on its own."""
        rng = np.random.default_rng(21)
        hi = sum(np.kron(random_hermitian(rng, 3), random_hermitian(rng, 2)) for _ in range(3))
        m = make_model(
            random_hermitian(rng, 3), np.diag([0.0, 0.9]), hi, np.eye(3) / 3, np.diag([0.7, 0.3]), lam=0.2
        )
        dec = decompose_interaction(m.hi)
        bd = bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
        sc = spectral_coefficients(m, dec, bd.frequencies, horizon=4.0, eta=0.5)
        gen = lindblad_generator(bd, sc, m.h0.mat, m.constants)
        cols = []
        for k in range(9):
            unit = np.zeros(9, dtype=complex)
            unit[k] = 1.0
            cols.append(lindblad_rhs(unit.reshape(3, 3), bd, sc, m.h0.mat, m.constants).ravel())
        assert np.max(np.abs(gen - np.stack(cols, axis=1))) <= 1e-15


class TestGeneratorAgreement:
    def test_dephasing_preset_matches_one_point_rhs(self):
        """The adjoint generator equals the order-2 local RHS within the
        assumption-defect bound, both at matched and mismatched horizons."""
        p = hb.dephasing_bath(lam=0.05)
        m = p.model
        dec = decompose_interaction(m.hi)
        rep = check_markov_assumptions(m, dec, 6.0, decay_threshold=0.025)
        bd = bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
        lam = m.constants.lam
        grid = TimeGrid.linspace(5.0, 11)
        ks = compute_kernels(m, 2, grid)
        traj = one_point_operator(
            p.observables["sx"], SeriesTruncation(2, lam), ks, m.rho_b, grid, "sx"
        )

        for t_eval, j_horizon in ((5.0, 5.0), (4.0, 6.0)):
            sc = spectral_coefficients(m, dec, bd.frequencies, horizon=j_horizon, tol=0.2)
            from heisenbath.superop import trajectory_value

            o_val = trajectory_value(traj, ks, m.rho_b, t_eval)
            pert = one_point_rhs(traj, t_eval, ks, m.rho_b).mat
            lind = lindblad_rhs(o_val, bd, sc, m.h0.mat, m.constants)
            diff = np.max(np.abs(pert - lind))
            bound = rep.rhs_defect_bound(
                float(np.linalg.norm(o_val, 2)), t_eval, lam, 1.0, j_horizon=j_horizon
            )
            assert diff <= bound
