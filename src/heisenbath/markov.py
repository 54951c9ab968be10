"""Markovian limit: interaction decomposition, assumption checks, spectral
coefficients and the adjoint Lindblad-form generator.

The interaction is split as ``H_I = sum_i R^i (x) S^i`` with *hermitian*
factors (a real-structured operator-Schmidt decomposition); hermitian
factors are what make the half-line bath correlation functions close under
conjugation, which the generator derivation relies on.  All bath
correlators are evaluated in the working (H_B eigen-) basis where the
interaction-picture bath factors are pure phase twists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyson import propagate_rows
from .errors import DimensionError, NonHermitianInput
from .model import ModelSpec
from .spaces import Constants, OperatorMatrix, TimeGrid, full_dims, herm_defect, HERM_TOL

SCHMIDT_CUTOFF = 1e-12
RECONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class InteractionDecomposition:
    """``H_I = sum_i R^i (x) S^i`` with hermitian factors stacked by term:
    ``r`` of shape ``(n, d_S, d_S)`` and ``s`` of shape ``(n, d_B, d_B)``."""

    r: np.ndarray
    s: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """``sum_i R^i (x) S^i`` as one contraction over the terms."""
        (n, d_s, _), d_b = self.r.shape, self.s.shape[1]
        prod = self.r.reshape(n, d_s * d_s).T @ self.s.reshape(n, d_b * d_b)
        return prod.reshape(d_s, d_s, d_b, d_b).transpose(0, 2, 1, 3).reshape(d_s * d_b, d_s * d_b)


def _hermitian_coords(x: np.ndarray) -> np.ndarray:
    """Coordinates ``tr(F_a^dag X)`` of ``x`` (..., n, n) in the orthonormal
    (Frobenius) hermitian basis ``F``: the diagonal units, then for each pair
    ``i < j`` its symmetric and antisymmetric unit, so the coordinates are
    ``X_ii``, ``(X_ij + X_ji)/sqrt2`` and ``i(X_ij - X_ji)/sqrt2``.  They
    are real exactly when ``x`` is hermitian."""
    n = x.shape[-1]
    i, j = np.triu_indices(n, 1)
    upper, lower = x[..., i, j], x[..., j, i]
    out = np.empty((*x.shape[:-2], n * n), dtype=complex)
    out[..., :n] = np.diagonal(x, axis1=-2, axis2=-1)
    out[..., n::2] = (upper + lower) / np.sqrt(2)
    out[..., n + 1 :: 2] = 1j * (upper - lower) / np.sqrt(2)
    return out


def _from_hermitian_coords(c: np.ndarray, n: int) -> np.ndarray:
    """``sum_a c_a F_a`` for coordinates ``c`` (..., n^2): inverse of `_hermitian_coords`."""
    i, j = np.triu_indices(n, 1)
    sym, anti = c[..., n::2], c[..., n + 1 :: 2]
    out = np.zeros((*c.shape[:-1], n, n), dtype=complex)
    out[..., np.arange(n), np.arange(n)] = c[..., :n]
    out[..., i, j] = (sym - 1j * anti) / np.sqrt(2)
    out[..., j, i] = (sym + 1j * anti) / np.sqrt(2)
    return out


def decompose_interaction(hi: OperatorMatrix) -> InteractionDecomposition:
    """Operator-Schmidt decomposition of a hermitian full-space interaction.

    The reduced SVD runs over the real coefficient matrix of ``H_I`` in the
    hermitian product basis (`_hermitian_coords` on the system and on the
    bath indices), so every returned factor is hermitian; singular values
    and the reconstruction agree with the complex reshaping route.  Terms
    with singular value below ``1e-12 * s_max`` are dropped.
    """
    d_s, d_b = full_dims(hi, "decompose_interaction")
    if herm_defect(hi.mat) > HERM_TOL:
        raise NonHermitianInput("H_I is not hermitian")
    r4 = hi.mat.reshape(d_s, d_b, d_s, d_b).transpose(0, 2, 1, 3)
    bath = _hermitian_coords(r4)  # (d_S, d_S, d_B^2)
    coeff = _hermitian_coords(np.moveaxis(bath, -1, 0)).T  # (d_S^2, d_B^2)
    if np.max(np.abs(coeff.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeff))):
        raise NonHermitianInput("hermitian-basis coefficients came out complex")
    u, s, vt = np.linalg.svd(coeff.real, full_matrices=False)
    n = np.count_nonzero(s >= SCHMIDT_CUTOFF * s[0])
    root = np.sqrt(s[:n])[:, None, None]
    dec = InteractionDecomposition(
        root * _from_hermitian_coords(u[:, :n].T, d_s), root * _from_hermitian_coords(vt[:n], d_b)
    )
    defect = np.linalg.norm(dec.reconstruct() - hi.mat) / max(1.0, np.linalg.norm(hi.mat))
    if defect > RECONSTRUCTION_TOL:
        raise DimensionError(f"Schmidt reconstruction defect {defect:.2e} exceeds tolerance")
    return dec


# -- bath correlation functions ----------------------------------------------


def correlation_table(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``W[..., i, j, b, c] = S^j_bc (rho S^i)_cb`` for factors ``s`` ``(n, d_B, d_B)``
    and bath states ``rho`` ``(..., d_B, d_B)``.

    Against ``rho_B`` this is the weight table of ``J``; against the twisted
    state ``rho_t`` of `_twisted_states` it gives the correlators at time t:
    ``<S~^i(t) S~^j(t - tau)>_B = sum_bc W_t[i, j, b, c] exp(i delta_bc tau)``.
    """
    return s * np.swapaxes(rho[..., None, :, :] @ s, -1, -2)[..., :, None, :, :]


def _twisted_states(m: ModelSpec, t) -> np.ndarray:
    """``rho_t[c, a] = rho_B[c, a] exp(-i delta_ac t)`` for every time, ``(n_t, d_B, d_B)``:
    both interaction-picture phases at time t on the state, which keeps the
    diagonal of ``rho_B`` exactly.  ``tr(S^i rho_t)`` is the first moment."""
    return m.rho_b * np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), m.bath_gaps))


def _correlations(m: ModelSpec, dec: InteractionDecomposition, t, tau) -> np.ndarray:
    """The correlators ``<S~^i(t) S~^j(t - tau)>_B`` on time grids, ``C[k, i, j, l]`` at ``(t[k], tau[l])``.

    One `correlation_table` per time sample, against its twisted state.  The
    tau phase factorizes over the levels, ``exp(i delta_bc tau) = v_b conj(v_c)``
    with ``v = exp(i E tau / hbar)``, so the tau grid enters as one product
    with the ``(d_B, n_tau)`` matrix ``conj(v)`` and a contraction with ``v``.
    """
    w = correlation_table(dec.s, _twisted_states(m, t))
    v = np.exp(1j * np.multiply.outer(m.bath_energies / m.constants.hbar, np.asarray(tau, dtype=float)))
    return np.einsum("...bl,bl->...l", w @ v.conj(), v)


@dataclass(frozen=True)
class MarkovReport:
    """Quantified assumption defects; honest about finite-bath recurrences.

    Rapid decay has no hard boolean at finite bath dimension, so it is
    reported as a crossing time plus the correlation profile; the caller's
    thresholds decide.
    """

    first_moment_by_term: tuple[float, ...]
    first_moment_max: float
    stationarity_defect: float
    tau: np.ndarray
    corr_profile: np.ndarray  # max_ij |C(0, tau)|
    decay_time: float | None
    decay_threshold: float
    horizon: float
    r_norm_sum: float
    bath_gap_max: float
    passes: dict = field(default_factory=dict)

    def tail_mass(self, lo: float, hi: float | None = None) -> float:
        """``int_lo^hi max_ij |C(0, tau)| dtau`` from the sampled profile."""
        hi = self.horizon if hi is None else min(hi, self.horizon)
        if lo >= hi:
            return 0.0
        mask = (self.tau >= lo) & (self.tau <= hi)
        return float(np.trapezoid(self.corr_profile[mask], self.tau[mask]))

    def rhs_defect_bound(
        self,
        o_norm: float,
        t_eval: float,
        lam: float,
        hbar: float,
        j_horizon: float | None = None,
    ) -> float:
        """Bound on ``|lindblad_rhs - one_point_rhs(order 2)|`` at time ``t_eval``.

        Four kernel-sandwich integrals enter the order-lambda^2 generator;
        each inherits (a) the correlation mass between the evaluation time
        and the J-integration horizon and (b) the stationarity defect
        accumulated over the integration window; J itself is exact (closed
        form).  A nonzero first moment feeds the
        order-lambda super-operators, with the bath phase gradient
        controlling its time derivative.  A small absolute floor covers
        kernel rounding.
        """
        lh = lam / hbar
        j_horizon = self.horizon if j_horizon is None else j_horizon
        window = max(t_eval, j_horizon)
        mismatch = self.tail_mass(min(t_eval, j_horizon), max(t_eval, j_horizon))
        second = 4.0 * lh**2 * self.r_norm_sum**2 * o_norm * (
            mismatch + self.stationarity_defect * window
        )
        first = 2.0 * lh * self.r_norm_sum * o_norm * self.first_moment_max * (
            1.0 + self.bath_gap_max * window
        )
        floor = 1e-9 * o_norm * max(1.0, lh**2 * self.r_norm_sum**2)
        return second + first + floor


# pass thresholds of the first-moment and stationarity defects, sampled at
# N_TIME_SAMPLES times; the decay profile takes N_TAU lags
FIRST_MOMENT_THRESHOLD = 1e-10
STATIONARITY_THRESHOLD = 1e-10
N_TIME_SAMPLES = 7
N_TAU = 401


def check_markov_assumptions(
    m: ModelSpec,
    dec: InteractionDecomposition,
    horizon: float,
    decay_threshold: float,
) -> MarkovReport:
    """Sample the three Markov assumptions and report their defects.

    First moments and stationarity at N_TIME_SAMPLES times (41 lags), the
    decay profile at N_TAU lags; every correlator comes from one
    ``(n, n, d_B, d_B)`` table per time sample (`_correlations`).
    """
    t_samples = np.linspace(0.0, horizon, N_TIME_SAMPLES)
    tau_fine = np.linspace(0.0, horizon, N_TAU)
    tau_coarse = np.linspace(0.0, horizon, 41)

    moments = np.einsum("kca,iac->ki", _twisted_states(m, t_samples), dec.s)
    fm = tuple(float(x) for x in np.max(np.abs(moments), axis=0))

    coarse = _correlations(m, dec, t_samples, tau_coarse)
    stat = float(np.max(np.abs(coarse[1:] - coarse[:1]), initial=0.0))

    profile = np.max(np.abs(_correlations(m, dec, [0.0], tau_fine)[0]), axis=(0, 1), initial=0.0)
    below = np.flatnonzero(profile < decay_threshold)
    decay_time = float(tau_fine[below[0]]) if below.size else None

    report = MarkovReport(
        first_moment_by_term=fm,
        first_moment_max=max(fm) if fm else 0.0,
        stationarity_defect=stat,
        tau=tau_fine,
        corr_profile=profile,
        decay_time=decay_time,
        decay_threshold=decay_threshold,
        horizon=horizon,
        r_norm_sum=float(np.linalg.norm(dec.r, 2, axis=(1, 2)).sum()),
        bath_gap_max=float(np.max(np.abs(m.bath_gaps))),
        passes={
            "first_moment": (max(fm) if fm else 0.0) <= FIRST_MOMENT_THRESHOLD,
            "stationarity": stat <= STATIONARITY_THRESHOLD,
            "decay": decay_time is not None,
        },
    )
    return report


# -- Bohr decomposition -------------------------------------------------------


@dataclass(frozen=True)
class BohrDecomposition:
    """Fourier data of the freely evolved system coupling operators.

    ``frequencies`` (n_w,) ascending and ``components`` (n, n_w, d_S, d_S)
    with ``sum_w exp(i w t) A^i_w = U0(t) R^i U0(t)^dag`` for every term i;
    ``A^i_w`` is zero where term i has no line at ``w``.
    """

    frequencies: np.ndarray
    components: np.ndarray


def _merge_frequencies(raw: np.ndarray, tol: float) -> np.ndarray:
    vals = np.sort(raw)
    merged = [vals[0]]
    for v in vals[1:]:
        if v - merged[-1] > tol:
            merged.append(v)
    return np.array(merged)


def bohr_decomposition(r, h0, hbar: float = 1.0) -> BohrDecomposition:
    """Bohr components of one system operator or a stack ``(n, d_S, d_S)``.

    Frequencies are eigenvalue differences of ``H0`` over hbar, merged when
    closer than ``1e-9 * max|eps|`` so eigensolver noise cannot split a
    line; ``A_w`` collects the matrix elements whose nearest merged line is
    ``w``, expressed in the original basis.  Each element lies on exactly
    one line, so ``sum_w A_w = R`` even where frequencies chain within the
    merge tolerance.  One eigendecomposition of ``H0``, one stacked rotation
    into its eigenbasis and one line mask serve every operator.  A line is
    kept where some operator has a component above ``1e-14 max(1, |R|)``;
    smaller components are zeroed.
    """
    r = np.asarray(r, dtype=complex)
    rs = r[None] if r.ndim == 2 else r
    h0 = np.asarray(h0, dtype=complex)
    if herm_defect(h0) > HERM_TOL:
        raise NonHermitianInput("H0 is not hermitian")
    eps, v = np.linalg.eigh(h0)
    r_eig = v.conj().T @ rs @ v
    scale = float(np.max(np.abs(eps))) if eps.size else 0.0
    tol = 1e-9 * max(scale, 1e-3) / hbar
    omegas = (eps[None, :] - eps[:, None]) / hbar  # w(a, b) = (eps_b - eps_a)/hbar
    merged = _merge_frequencies(omegas.ravel(), tol)
    masks = np.argmin(np.abs(omegas[:, :, None] - merged), axis=2) == np.arange(len(merged))[:, None, None]
    a_w = v @ (r_eig[:, None] * masks) @ v.conj().T  # (operator, line, d_S, d_S)
    keep = np.linalg.norm(a_w, axis=(2, 3)) > 1e-14 * np.maximum(1.0, np.linalg.norm(rs, axis=(1, 2)))[:, None]
    lines = keep.any(axis=0)
    return BohrDecomposition(merged[lines], (a_w * keep[:, :, None, None])[:, lines])


def bohr_decompose_all(dec: InteractionDecomposition, h0, hbar: float = 1.0) -> BohrDecomposition:
    """Bohr decomposition of every system factor, on a shared frequency list."""
    return bohr_decomposition(dec.r, h0, hbar)


# -- spectral coefficients ----------------------------------------------------


# largest convergence defect |J(horizon) - J(horizon/2)| at which a J entry
# counts as converged, unless the caller passes its own
J_TOLERANCE = 0.1


@dataclass(frozen=True)
class SpectralCoefficients:
    """Half-line Fourier transforms ``J^{ij}(w)`` of the bath correlators.

    ``j[i, j, k]`` is ``J^{ij}(frequencies[k])`` and ``defects[i, j, k]``
    its ``|J(horizon) - J(horizon/2)|``.
    """

    frequencies: np.ndarray
    j: np.ndarray
    defects: np.ndarray
    horizon: float
    tolerance: float
    eta: float
    converged: bool


def _halfline_integrals(z: np.ndarray, upper: float) -> np.ndarray:
    """``int_0^upper exp(z tau) dtau``: ``(exp(z upper) - 1) / z``, or ``upper``
    at ``z = 0``, which includes a ``|z|`` below the smallest normal float."""
    out = np.full(z.shape, upper, dtype=complex)
    nz = np.abs(z) >= np.finfo(float).tiny
    out[nz] = np.expm1(z[nz] * upper) / z[nz]
    return out


def spectral_coefficients(
    m: ModelSpec,
    dec: InteractionDecomposition,
    freqs,
    horizon: float,
    tol: float = J_TOLERANCE,
    eta: float = 0.0,
) -> SpectralCoefficients:
    """``J^{ij}(w) = int_0^horizon exp(-i w tau - eta tau) <S~^i(0) S~^j(-tau)> dtau``.

    A finite-bath correlator is the finite sum
    ``sum_bc S^j_bc (rho_B S^i)_cb exp(i(E_b - E_c) tau / hbar)``, so each
    term integrates in closed form (Breuer & Petruccione 2002, sec. 3.3).
    The convergence defect compares the horizon against its half.  Finite
    baths are quasi-periodic, so a non-decaying correlator is reported via
    ``converged=False`` rather than silently averaged; the exponential regulator ``eta`` documents the
    idealization when used.
    """
    weights = correlation_table(dec.s, m.rho_b)
    w = np.asarray(freqs, dtype=float)
    z = 1j * m.bath_gaps[:, :, None] - 1j * w - eta
    full = np.einsum("ijbc,bcw->ijw", weights, _halfline_integrals(z, horizon))
    half = np.einsum("ijbc,bcw->ijw", weights, _halfline_integrals(z, horizon / 2.0))
    defects = np.abs(full - half)
    return SpectralCoefficients(w, full, defects, horizon, tol, eta, bool(np.all(defects <= tol)))


# -- the Lindblad-form generator ----------------------------------------------


def lindblad_rhs(
    o_s,
    bd: BohrDecomposition,
    sc: SpectralCoefficients,
    h0,
    constants: Constants,
) -> np.ndarray:
    """Adjoint Lindblad-form RHS for a one-point operator.

    ``(i/hbar)[H0, O] + (i lam/hbar)^2 sum_{w w'} sum_{ij} J^{ij}(w)
    {A^{i dag}_w A^j_{w'} O - A^{i dag}_w O A^j_{w'}} + h.c.`` with the
    conjugate terms taken linearly in ``O`` (the generator of an evolution
    must be linear; for hermitian ``O`` this equals the literal adjoint).
    ``J^{ij}(w)`` does not depend on ``w'``, so the sum over ``w'`` is
    collapsed into ``B^j = sum_w' A^j_w'`` and the one over ``(i, w)`` into
    ``Gamma^j = sum J^{ij}(w) A^{i dag}_w``, and the dissipator is
    ``sum_j Gamma^j B^j O - Gamma^j O B^j + O B^{j dag} Gamma^{j dag} -
    B^{j dag} O Gamma^{j dag}``: a few products per coupling term, however
    many Bohr lines there are.  ``sc`` must hold ``J`` at the lines of
    ``bd``; any other frequency list raises `DimensionError`.
    The first term is the commutator: the paper's bare product ``H0 O``
    breaks identity fixity (`tests/helpers.loop_lindblad_rhs` keeps it).
    Leading axes of ``o_s`` are a stack of operators, each mapped alone.
    """
    o = np.asarray(o_s, dtype=complex)
    h0 = np.asarray(h0, dtype=complex)
    if o.shape[-2:] != h0.shape:
        raise DimensionError(f"operator shape {o.shape} vs H0 shape {h0.shape}")
    n, n_w = bd.components.shape[:2]
    if sc.j.shape != (n, n, n_w) or not np.array_equal(sc.frequencies, bd.frequencies):
        raise DimensionError(
            f"J of shape {sc.j.shape} at frequencies {sc.frequencies} does not match "
            f"{n} terms at the Bohr lines {bd.frequencies}"
        )
    hbar, lam = constants.hbar, constants.lam
    out = (1j / hbar) * (h0 @ o - o @ h0)
    b = bd.components.sum(axis=1)
    gamma = np.einsum("ijw,iwba->jab", sc.j, bd.components.conj())
    pref = (1j * lam / hbar) ** 2
    drift = pref * (gamma @ b).sum(axis=0)
    out += drift @ o + o @ drift.conj().T
    for gamma_j, b_j in zip(gamma, b):
        out -= pref * (gamma_j @ o @ b_j + b_j.conj().T @ o @ gamma_j.conj().T)
    return out


def lindblad_generator(
    bd: BohrDecomposition,
    sc: SpectralCoefficients,
    h0,
    constants: Constants,
) -> np.ndarray:
    """Matrix ``G`` of the (linear) `lindblad_rhs` on row-major vectorised operators.

    Column k is the RHS of the k-th matrix unit; all d_S^2 units go through
    one stacked `lindblad_rhs` call.
    """
    h0 = np.asarray(h0, dtype=complex)
    d = h0.shape[0]
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return lindblad_rhs(units, bd, sc, h0, constants).reshape(d * d, d * d).T


def evolve_lindblad(
    o0,
    bd: BohrDecomposition,
    sc: SpectralCoefficients,
    h0,
    constants: Constants,
    grid: TimeGrid,
) -> np.ndarray:
    """Evolve one-point operators under the autonomous Lindblad-form generator.

    `lindblad_rhs` is linear in the operator, so its matrix ``G`` on
    row-major vectorised operators (`lindblad_generator`) is assembled once.
    The operators, as the rows ``vec(o0)^T`` of one block, are propagated
    under ``G^T``, a one-block generator, with one step exponential shared by
    all steps (`dyson.propagate_rows`), so each value is ``exp(t G) vec(o0)``.
    ``o0`` is one operator or a stack ``(..., d_S, d_S)``; returns
    ``(..., n_t, d_S, d_S)``.
    """
    o0 = np.asarray(o0, dtype=complex)
    gen = lindblad_generator(bd, sc, h0, constants)
    d = math.isqrt(gen.shape[0])
    if o0.shape[-2:] != (d, d):
        raise DimensionError(f"operator shape {o0.shape} does not match the {gen.shape[0]}-dim generator")
    rows = propagate_rows(o0.reshape(1, -1, d * d), gen.T[None], grid.points)[:, 0]
    return np.moveaxis(rows, 0, 1).reshape(*o0.shape[:-2], len(grid), d, d)
