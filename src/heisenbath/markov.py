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
from .errors import DimensionError, NonConvergent, NonHermitianInput
from .model import ModelSpec
from .spaces import Constants, OperatorMatrix, Space, TimeGrid, as_matrix, herm_defect, HERM_TOL

SCHMIDT_CUTOFF = 1e-12
RECONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class InteractionDecomposition:
    """``H_I = sum_i R^i (x) S^i`` with hermitian system/bath factors."""

    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def r_norms(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(r, 2)) for r, _ in self.terms)

    def reconstruct(self) -> np.ndarray:
        """``sum_i R^i (x) S^i`` as one contraction over the terms."""
        r = np.stack([r for r, _ in self.terms])
        s = np.stack([s for _, s in self.terms])
        (n, d_s, _), d_b = r.shape, s.shape[1]
        prod = r.reshape(n, d_s * d_s).T @ s.reshape(n, d_b * d_b)
        return prod.reshape(d_s, d_s, d_b, d_b).transpose(0, 2, 1, 3).reshape(d_s * d_b, d_s * d_b)


def _hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of hermitian n x n matrices: the diagonal
    units, then for each pair ``i < j`` its symmetric and antisymmetric unit."""
    i, j = np.triu_indices(n, 1)
    sym = n + 2 * np.arange(i.size)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[sym, i, j] = basis[sym, j, i] = 1.0 / np.sqrt(2)
    basis[sym + 1, i, j] = -1j / np.sqrt(2)
    basis[sym + 1, j, i] = 1j / np.sqrt(2)
    return basis


def decompose_interaction(hi: OperatorMatrix) -> InteractionDecomposition:
    """Operator-Schmidt decomposition of a hermitian full-space interaction.

    The SVD runs over the real coefficient matrix of hermitian product
    bases, so every returned factor is hermitian; singular values and the
    reconstruction agree with the complex reshaping route.  Terms with
    singular value below ``1e-12 * s_max`` are dropped.
    """
    if hi.tag.kind is not Space.FULL:
        raise DimensionError("decompose_interaction expects a full-space operator")
    if herm_defect(hi.mat) > HERM_TOL:
        raise NonHermitianInput("H_I is not hermitian")
    d_s, d_b = hi.tag.dim_system, hi.tag.dim_bath
    f_sys = _hermitian_basis(d_s)
    g_bath = _hermitian_basis(d_b)
    r4 = hi.mat.reshape(d_s, d_b, d_s, d_b).transpose(0, 2, 1, 3)
    coeff = np.einsum("aij,ijkl,bkl->ab", f_sys.conj(), r4, g_bath.conj())
    if np.max(np.abs(coeff.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeff))):
        raise NonHermitianInput("hermitian-basis coefficients came out complex")
    u, s, vt = np.linalg.svd(coeff.real)
    terms = []
    for k, sk in enumerate(s):
        if sk < SCHMIDT_CUTOFF * s[0]:
            break
        rk = np.sqrt(sk) * np.einsum("a,aij->ij", u[:, k], f_sys)
        sk_mat = np.sqrt(sk) * np.einsum("b,bij->ij", vt[k], g_bath)
        terms.append((rk, sk_mat))
    dec = InteractionDecomposition(tuple(terms))
    defect = np.linalg.norm(dec.reconstruct() - hi.mat) / max(1.0, np.linalg.norm(hi.mat))
    if defect > RECONSTRUCTION_TOL:
        raise DimensionError(f"Schmidt reconstruction defect {defect:.2e} exceeds tolerance")
    return dec


# -- bath correlation functions ----------------------------------------------


def _bath_phases(m: ModelSpec) -> np.ndarray:
    e = m.bath_energies
    return (e[:, None] - e[None, :]) / m.constants.hbar


def bath_correlation(m: ModelSpec, dec: InteractionDecomposition, i: int, j: int, t: float, tau: float) -> complex:
    """``<S~^i(t) S~^j(t - tau)>_B`` in the working bath basis."""
    delta = _bath_phases(m)
    s_i = dec.terms[i][1] * np.exp(-1j * delta * t)
    s_j = dec.terms[j][1] * np.exp(-1j * delta * (t - tau))
    return complex(np.trace(s_i @ s_j @ m.rho_b.mat))


def first_moment(m: ModelSpec, dec: InteractionDecomposition, i: int, t: float) -> complex:
    """``tr_B{S~^i(t) rho_B}``: the order-lambda contraction that must vanish."""
    delta = _bath_phases(m)
    s_i = dec.terms[i][1] * np.exp(-1j * delta * t)
    return complex(np.trace(s_i @ m.rho_b.mat))


def _bath_factors(m: ModelSpec, dec: InteractionDecomposition) -> np.ndarray:
    return np.array([s for _, s in dec.terms], dtype=complex).reshape(-1, m.dim_bath, m.dim_bath)


def _correlation_weights(m: ModelSpec, dec: InteractionDecomposition) -> np.ndarray:
    """``W[i, j, a, b, c] = S^i_ab S^j_bc rho_B[c, a]``, so that
    ``<S~^i(t) S~^j(t - tau)>_B = sum_abc W exp(-i delta_ac t + i delta_bc tau)``."""
    s = _bath_factors(m, dec)
    return np.einsum("iab,jbc,ca->ijabc", s, s, m.rho_b.mat)


def _phase_table(sign: complex, times, delta: np.ndarray) -> np.ndarray:
    """``exp(sign * t * delta)`` for every time, one complex exponential per
    distinct gap (an evenly spaced spectrum repeats many)."""
    gaps, where = np.unique(delta, return_inverse=True)
    return np.exp(sign * np.multiply.outer(times, gaps))[..., where.reshape(delta.shape)]


def _correlations(m: ModelSpec, dec: InteractionDecomposition, t, tau) -> np.ndarray:
    """`bath_correlation` on time grids: ``C[k, l, i, j]`` at ``(t[k], tau[l])``.

    The left phases are contracted first, then all ``tau`` at once in one
    matmul against the ``(n_tau, d_B^2)`` right phases.
    """
    delta = _bath_phases(m)
    left = _phase_table(-1j, t, delta)
    right = _phase_table(1j, tau, delta)
    w = _correlation_weights(m, dec)
    n, d_b = w.shape[0], delta.shape[0]
    inner = np.einsum("ijabc,kac->kbcij", w, left).reshape(len(left), d_b * d_b, n * n)
    return (right.reshape(len(right), d_b * d_b) @ inner).reshape(len(left), len(right), n, n)


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
        quad_tol: float = 1e-9,
    ) -> float:
        """Bound on ``|lindblad_rhs - one_point_rhs(order 2)|`` at time ``t_eval``.

        Four kernel-sandwich integrals enter the order-lambda^2 generator;
        each inherits (a) the correlation mass between the evaluation time
        and the J-integration horizon, (b) the stationarity defect
        accumulated over the integration window, and (c) an integration
        allowance ``quad_tol``.  A nonzero first moment feeds the
        order-lambda super-operators, with the bath phase gradient
        controlling its time derivative.  A small absolute floor covers
        kernel rounding.
        """
        lh = lam / hbar
        j_horizon = self.horizon if j_horizon is None else j_horizon
        window = max(t_eval, j_horizon)
        mismatch = self.tail_mass(min(t_eval, j_horizon), max(t_eval, j_horizon))
        second = 4.0 * lh**2 * self.r_norm_sum**2 * o_norm * (
            mismatch + self.stationarity_defect * window + quad_tol
        )
        first = 2.0 * lh * self.r_norm_sum * o_norm * self.first_moment_max * (
            1.0 + self.bath_gap_max * window
        )
        floor = 1e-9 * o_norm * max(1.0, lh**2 * self.r_norm_sum**2)
        return second + first + floor


# pass thresholds of the first-moment and stationarity defects, sampled at N_TIME_SAMPLES times
FIRST_MOMENT_THRESHOLD = 1e-10
STATIONARITY_THRESHOLD = 1e-10
N_TIME_SAMPLES = 7


def check_markov_assumptions(
    m: ModelSpec,
    dec: InteractionDecomposition,
    horizon: float,
    decay_threshold: float,
    n_tau: int = 401,
) -> MarkovReport:
    """Sample the three Markov assumptions and report their defects."""
    t_samples = np.linspace(0.0, horizon, N_TIME_SAMPLES)
    tau_fine = np.linspace(0.0, horizon, n_tau)
    tau_coarse = np.linspace(0.0, horizon, min(41, n_tau))
    delta = _bath_phases(m)

    twists = _phase_table(-1j, t_samples, delta)
    moments = np.einsum("iab,ba,kab->ki", _bath_factors(m, dec), m.rho_b.mat, twists)
    fm = tuple(float(x) for x in np.max(np.abs(moments), axis=0))

    coarse = _correlations(m, dec, t_samples, tau_coarse)
    stat = float(np.max(np.abs(coarse[1:] - coarse[:1]), initial=0.0))

    profile = np.max(np.abs(_correlations(m, dec, [0.0], tau_fine)[0]), axis=(1, 2), initial=0.0)
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
        r_norm_sum=float(sum(np.linalg.norm(r, 2) for r, _ in dec.terms)),
        bath_gap_max=float(np.max(np.abs(delta))),
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

    ``sum_w exp(i w t) A^i_w = U0(t) R^i U0(t)^dag`` for every term i.
    """

    frequencies: tuple[float, ...]
    coefficients: dict  # (term index, frequency) -> ndarray


def _merge_frequencies(raw: np.ndarray, tol: float) -> np.ndarray:
    vals = np.sort(raw)
    merged = [vals[0]]
    for v in vals[1:]:
        if v - merged[-1] > tol:
            merged.append(v)
    return np.array(merged)


def _bohr_lines(rs: np.ndarray, h0, hbar: float) -> list[list[tuple[float, np.ndarray]]]:
    """Bohr components of a stack of system operators ``(n, d_S, d_S)``.

    One eigendecomposition of ``H0``, one stacked rotation into its
    eigenbasis and one line mask serve every operator; see
    `bohr_decomposition`.
    """
    h0 = as_matrix(h0)
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
    return [[(float(merged[k]), a_w[i, k]) for k in np.flatnonzero(keep[i])] for i in range(len(rs))]


def bohr_decomposition(r, h0, hbar: float = 1.0) -> list[tuple[float, np.ndarray]]:
    """Bohr components of one system coupling operator.

    Frequencies are eigenvalue differences of ``H0`` over hbar, merged when
    closer than ``1e-9 * max|eps|`` so eigensolver noise cannot split a
    line; ``A_w`` collects the matrix elements whose nearest merged line is
    ``w``, expressed in the original basis.  Each element lies on exactly
    one line, so ``sum_w A_w = R`` even where frequencies chain within the
    merge tolerance.
    """
    r = as_matrix(r)
    return _bohr_lines(r[None], h0, hbar)[0]


def bohr_decompose_all(dec: InteractionDecomposition, h0, hbar: float = 1.0) -> BohrDecomposition:
    """Bohr decomposition of every system factor, on a shared frequency list."""
    lines = _bohr_lines(np.array([r for r, _ in dec.terms], dtype=complex), h0, hbar)
    coefficients = {(i, w): a_w for i, term in enumerate(lines) for w, a_w in term}
    return BohrDecomposition(tuple(sorted({w for _, w in coefficients})), coefficients)


def reconstruct_bohr(bd: BohrDecomposition, i: int, t: float) -> np.ndarray:
    """``sum_w exp(i w t) A^i_w`` (should equal ``U0 R^i U0^dag``)."""
    terms = [np.exp(1j * w * t) * a for (k, w), a in bd.coefficients.items() if k == i]
    return sum(terms)


# -- spectral coefficients ----------------------------------------------------


@dataclass(frozen=True)
class SpectralCoefficients:
    """Half-line Fourier transforms ``J^{ij}(w)`` of the bath correlators."""

    j: dict  # (i, j, w) -> complex
    horizon: float
    tolerance: float
    eta: float
    defects: dict  # (i, j, w) -> |J(horizon) - J(horizon/2)|
    converged: bool


def _halfline_integrals(z: np.ndarray, upper: float) -> np.ndarray:
    """``int_0^upper exp(z tau) dtau``: ``(exp(z upper) - 1) / z``, or ``upper`` at ``z = 0``."""
    out = np.full(z.shape, upper, dtype=complex)
    nz = z != 0
    out[nz] = np.expm1(z[nz] * upper) / z[nz]
    return out


def spectral_coefficients(
    m: ModelSpec,
    dec: InteractionDecomposition,
    freqs,
    horizon: float,
    tol: float = 1e-8,
    eta: float = 0.0,
    strict: bool = False,
) -> SpectralCoefficients:
    """``J^{ij}(w) = int_0^horizon exp(-i w tau - eta tau) <S~^i(0) S~^j(-tau)> dtau``.

    A finite-bath correlator is the finite sum
    ``sum_bc S^j_bc (rho_B S^i)_cb exp(i(E_b - E_c) tau / hbar)``, so each
    term integrates in closed form (Breuer & Petruccione 2002, sec. 3.3).
    The convergence defect compares the horizon against its half.  Finite
    baths are quasi-periodic, so a non-decaying correlator is reported via
    ``converged=False`` (and `NonConvergent` in strict mode) rather than
    silently averaged; the exponential regulator ``eta`` documents the
    idealization when used.
    """
    weights = _correlation_weights(m, dec).sum(axis=2)  # [i, j, b, c] of exp(i delta_bc tau)
    w = np.asarray(freqs, dtype=float)
    z = 1j * _bath_phases(m)[:, :, None] - 1j * w - eta
    full = np.einsum("ijbc,bcw->ijw", weights, _halfline_integrals(z, horizon))
    half = np.einsum("ijbc,bcw->ijw", weights, _halfline_integrals(z, horizon / 2.0))
    jmap: dict = {}
    defects: dict = {}
    for (i, jj, k), val in np.ndenumerate(full):
        jmap[(i, jj, float(w[k]))] = complex(val)
        defects[(i, jj, float(w[k]))] = float(abs(val - half[i, jj, k]))
    converged = all(d <= tol for d in defects.values())
    if strict and not converged:
        worst = max(defects.values())
        raise NonConvergent(f"J integrals not converged in horizon (worst defect {worst:.3e})")
    return SpectralCoefficients(jmap, horizon, tol, eta, defects, converged)


# -- the Lindblad-form generator ----------------------------------------------


def _collapsed_lines(bd: BohrDecomposition, sc: SpectralCoefficients) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(Gamma^j, B^j)`` for every coupling term ``j`` with a nonzero ``J^{ij}``.

    ``B^j = sum_w' A^j_w'`` and ``Gamma^j = sum_(i, w) J^{ij}(w) A^{i dag}_w``:
    ``J^{ij}(w)`` does not depend on ``w'``, so the double sum over Bohr
    lines factors through ``B^j``.  Missing and zero ``J`` entries drop out.
    """
    sums: dict = {}
    for (j, _), a in bd.coefficients.items():
        sums[j] = sums[j] + a if j in sums else a
    out = []
    for j, b in sums.items():
        gamma = None
        for (i, w), a in bd.coefficients.items():
            jw = sc.j.get((i, j, float(w)))
            if jw is None or jw == 0:
                continue
            term = jw * a.conj().T
            gamma = term if gamma is None else gamma + term
        if gamma is not None:
            out.append((gamma, b))
    return out


def lindblad_rhs(
    o_s,
    bd: BohrDecomposition,
    sc: SpectralCoefficients,
    h0,
    constants: Constants,
    strict_paper: bool = False,
) -> np.ndarray:
    """Adjoint Lindblad-form RHS for a one-point operator.

    ``(i/hbar)[H0, O] + (i lam/hbar)^2 sum_{w w'} sum_{ij} J^{ij}(w)
    {A^{i dag}_w A^j_{w'} O - A^{i dag}_w O A^j_{w'}} + h.c.`` with the
    conjugate terms taken linearly in ``O`` (the generator of an evolution
    must be linear; for hermitian ``O`` this equals the literal adjoint).
    The sum over ``w'`` is collapsed into ``B^j = sum_w' A^j_w'`` and the
    one over ``(i, w)`` into ``Gamma^j = sum J^{ij}(w) A^{i dag}_w``, so the
    dissipator is ``sum_j Gamma^j B^j O - Gamma^j O B^j + O B^{j dag}
    Gamma^{j dag} - B^{j dag} O Gamma^{j dag}``: a few products per
    coupling term, however many Bohr lines there are.
    The default first term is the commutator: the bare product breaks
    identity fixity, and ``strict_paper=True`` restores it for comparison.
    Leading axes of ``o_s`` are a stack of operators, each mapped alone.
    """
    o = as_matrix(o_s)
    h0 = as_matrix(h0)
    if o.shape[-2:] != h0.shape:
        raise DimensionError(f"operator shape {o.shape} vs H0 shape {h0.shape}")
    hbar, lam = constants.hbar, constants.lam
    if strict_paper:
        out = (1j / hbar) * (h0 @ o)
    else:
        out = (1j / hbar) * (h0 @ o - o @ h0)
    lines = _collapsed_lines(bd, sc)
    if not lines:
        return out
    pref = (1j * lam / hbar) ** 2
    drift = pref * sum(gamma @ b for gamma, b in lines)
    out += drift @ o + o @ drift.conj().T
    for gamma, b in lines:
        out -= pref * (gamma @ o @ b + b.conj().T @ o @ gamma.conj().T)
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
    h0 = as_matrix(h0)
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
    The operators, as rows ``vec(o0)^T``, are propagated over the grid under
    ``G^T``, a one-block generator, with one step exponential shared by all
    steps (`dyson.propagate_rows`), so each grid value is ``exp(t G) vec(o0)``.
    ``o0`` is one operator or a stack ``(..., d_S, d_S)``; returns
    ``(..., n_t, d_S, d_S)``.
    """
    o0 = as_matrix(o0)
    gen = lindblad_generator(bd, sc, h0, constants)
    d = math.isqrt(gen.shape[0])
    if o0.shape[-2:] != (d, d):
        raise DimensionError(f"operator shape {o0.shape} does not match the {gen.shape[0]}-dim generator")
    rows = propagate_rows(o0.reshape(-1, d * d), gen.T[None], grid.points)
    return np.moveaxis(rows, 0, 1).reshape(*o0.shape[:-2], len(grid), d, d)
