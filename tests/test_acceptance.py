"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -rA`` to get one line per
criterion plus the printed values.  Everything is desk scale
(d_S * d_B <= 16) and tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest

import heisenbath as hb
from heisenbath.diagnostics import (
    cancellation_defect,
    cumulant2_errors,
    decomposition_sum_defect,
    dual_bookkeeping_defect,
    fit_slope,
    one_point_errors,
    random_model,
    rhs_fd_errors,
    star_errors,
)
from heisenbath.dyson import compute_kernels
from heisenbath.images import ImageFamily, contract_with_bath, evolve_images_exact
from heisenbath.markov import (
    bohr_decompose_all,
    check_markov_assumptions,
    decompose_interaction,
    lindblad_rhs,
    spectral_coefficients,
)
from heisenbath.oracle import evolve_exact, npoint_reduced_exact
from heisenbath.spaces import TimeGrid, system_matrix, system_operator
from heisenbath.superop import (
    SeriesTruncation,
    one_point_operator,
    star_of_observables,
)
from helpers import heis_stack, lift_legs, one_point_at, partition_image, rhs_at

LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4)
C_VALUES = (0.0, 0.25, 0.5)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.mark.parametrize("c", C_VALUES)
def test_criterion_01_two_qubit_one_point_second_order(c):
    """Order-2 one-point of S1x equals the closed form entrywise within 1e-10."""
    lam = 0.1
    preset = hb.two_qubit(c, lam=lam)
    ks = compute_kernels(preset.model, 2, TimeGrid.linspace(2.0, 9))
    worst = 0.0
    for t in np.linspace(0.0, 2.0, 9):
        val = one_point_at(
            preset.observables["s1x"], SeriesTruncation(2, lam), ks, preset.model.rho_b, float(t)
        )
        upper = 1 + 0.5 * (1 - 2 * c) * 1j * lam * t - 0.25 * (lam * t) ** 2
        expected = 0.5 * np.array([[0, upper], [np.conj(upper), 0]])
        worst = max(worst, float(np.max(np.abs(val - expected))))
    assert worst < 1e-10
    report(1, f"c={c}: max entrywise defect {worst:.2e} < 1e-10")


@pytest.mark.parametrize("c", C_VALUES)
def test_criterion_02_two_qubit_exact_law(c):
    """Exact image evolution reproduces the closed-form S1xS(t) over a full period."""
    lam = 0.5
    preset = hb.two_qubit(c, lam=lam)
    s1x = system_operator(preset.observables["s1x"], (2, 2))
    grid = TimeGrid.linspace(2 * np.pi / lam, 21)  # lam*hbar*t spans [0, 2pi]
    traj = evolve_images_exact(preset.model, s1x, grid)
    worst = 0.0
    for fam in traj:
        t = fam.time
        reduced = contract_with_bath(fam, preset.model.rho_b)
        off = 0.25 * (1 + np.cos(lam * t) + 1j * (1 - 2 * c) * np.sin(lam * t))
        expected = np.array([[0, off], [np.conj(off), 0]])
        worst = max(worst, float(np.max(np.abs(reduced - expected))))
    assert worst < 1e-8
    report(2, f"c={c}: max defect {worst:.2e} < 1e-8 over lam*t in [0, 2pi]")


@pytest.mark.parametrize("seed,d_b", [(7, 2), (11, 3)])
def test_criterion_03_truncation_error_scaling(seed, d_b):
    """Order-2 one-point slope >= 2.8; order-1 star products slope >= 1.8."""
    m, obs = random_model(seed, 2, d_b)
    ks = compute_kernels(m, 2, TimeGrid.linspace(1.65, 7))

    def exact(times):
        return evolve_exact(m, [obs], times, LAMBDAS).swapaxes(0, 1)

    values = lift_legs(m, obs, ks, 2, (1.1,), LAMBDAS)[0]
    s1 = fit_slope(LAMBDAS, one_point_errors(values[0], exact((1.1,))[0], m.rho_b))
    times2, times3 = (0.6, 1.2), (0.4, 0.9, 1.3)
    s2 = fit_slope(LAMBDAS, star_errors(lift_legs(m, obs, ks, 1, times2, LAMBDAS)[2], exact(times2), m.rho_b))
    s3 = fit_slope(LAMBDAS, star_errors(lift_legs(m, obs, ks, 1, times3, LAMBDAS)[2], exact(times3), m.rho_b))
    assert s1 >= 2.8
    assert s2 >= 1.8
    assert s3 >= 1.8
    report(3, f"seed={seed} d_B={d_b}: slopes one_point={s1:.2f}, star2={s2:.2f}, star3={s3:.2f}")


@pytest.mark.parametrize("c", C_VALUES)
def test_criterion_04_kernel_regression(c):
    """K_S^(1) and K_S^(2) closed forms within 1e-10 relative, 5 times x 3 c."""
    preset = hb.two_qubit(c)
    ks = compute_kernels(preset.model, 2, TimeGrid.linspace(2.0, 9))
    rho = preset.model.rho_b
    worst = 0.0
    for t in (0.3, 0.7, 1.1, 1.6, 2.0):
        k1s = np.einsum("abij,ba->ij", ImageFamily(heis_stack(ks, t)[1], ks.dim_bath).blocks, rho)
        k2s = np.einsum("abij,ba->ij", ImageFamily(heis_stack(ks, t)[2], ks.dim_bath).blocks, rho)
        exp1 = (1 - 2 * c) * t / 4 * np.diag([1.0, -1.0])
        exp2 = t**2 / 32 * np.diag([1 + 4 * c, 5 - 4 * c])
        worst = max(worst, np.max(np.abs(k1s - exp1)) / max(np.linalg.norm(exp1), 1e-30))
        worst = max(worst, np.max(np.abs(k2s - exp2)) / np.linalg.norm(exp2))
    assert worst < 1e-10
    report(4, f"c={c}: worst relative kernel defect {worst:.2e} < 1e-10")


def _spec_pair():
    two_qubit = hb.two_qubit(0.25)
    m_rand, obs_rand = random_model(42, 2, 3)
    return (
        ("two_qubit", two_qubit.model, two_qubit.observables["s1x"], 1.3),
        ("random", m_rand, obs_rand, 1.1),
    )


def test_criterion_05_cancellation_property():
    """Bath contraction of the partition expansion returns O_S within 1e-12, n <= 3."""
    worst = 0.0
    for name, m, obs, t in _spec_pair():
        ks = compute_kernels(m, 3, TimeGrid.linspace(1.5 * t, 7))
        for n in range(4):
            value = lift_legs(m, obs, ks, n, (t,), (0.1,))[0][0, 0]
            image = partition_image(value, n, 0.1, ks, m.rho_b, ks.eigen_rows([t])[0])
            worst = max(worst, cancellation_defect(image, value, m.rho_b))
    assert worst < 1e-12
    report(5, f"max contraction defect {worst:.2e} < 1e-12 for n <= 3, both specs")


def test_criterion_06_dual_bookkeeping():
    """Partition-sum image equals super-operator-series image within 1e-12, n <= 3."""
    worst = 0.0
    for name, m, obs, t in _spec_pair():
        ks = compute_kernels(m, 3, TimeGrid.linspace(1.5 * t, 7))
        for n in range(4):
            values, _, mats = lift_legs(m, obs, ks, n, (t,), (0.1,))
            image = partition_image(values[0, 0], n, 0.1, ks, m.rho_b, ks.eigen_rows([t])[0])
            worst = max(worst, dual_bookkeeping_defect(image, mats[0, 0]))
    assert worst < 1e-12
    report(6, f"max blockwise gap {worst:.2e} < 1e-12 for n <= 3, both specs")


def test_criterion_07_cumulant_identities():
    """2-point cumulant tracks the oracle cumulant at order+0.8 slope; the 3-point
    decomposition sums back to the star product at rounding level."""
    order = 2
    slopes = []
    sums = []
    for name, m, obs, t in _spec_pair():
        ks = compute_kernels(m, max(order, 2), TimeGrid.linspace(1.5 * t, 7))
        exact = evolve_exact(m, [obs], (0.5 * t, t), LAMBDAS).swapaxes(0, 1)
        values, _, mats = lift_legs(m, obs, ks, order, (0.5 * t, t), LAMBDAS)
        errs = cumulant2_errors(values, mats, exact, m.rho_b)
        slopes.append(fit_slope(LAMBDAS, errs))
        for n in range(order + 1):
            values, _, mats = lift_legs(m, obs, ks, n, (0.4 * t, 0.8 * t, t), (0.1,))
            sums.append(decomposition_sum_defect(values[:, 0], mats[:, 0], m.rho_b))
    assert min(slopes) >= order + 0.8
    assert max(sums) < 1e-12
    report(
        7,
        f"cumulant slopes {['%.2f' % s for s in slopes]} >= {order + 0.8}; "
        f"3pt sum defect {max(sums):.2e} < 1e-12",
    )


def test_criterion_08_two_point_first_order():
    """Order-1 star product meets the oracle's O(lam) expansion within C lam^2,
    resolving the closed-form prefactor in favor of the oracle."""
    c, t1, t2 = 0.25, 0.9, 0.4
    preset = hb.two_qubit(c)
    m = preset.model
    s1x = preset.observables["s1x"]
    o_op = system_operator(s1x, (2, 2))
    ks = compute_kernels(m, 1, TimeGrid.linspace(1.5, 7))

    h = 1e-6
    e_plus = npoint_reduced_exact(m.with_coupling(h), [(o_op, t1), (o_op, t2)]).mat
    e_minus = npoint_reduced_exact(m.with_coupling(-h), [(o_op, t1), (o_op, t2)]).mat
    e0 = npoint_reduced_exact(m.with_coupling(0.0), [(o_op, t1), (o_op, t2)]).mat
    e1 = (e_plus - e_minus) / (2 * h)

    errs = []
    for lam in LAMBDAS:
        star = star_of_observables(
            [(s1x, t1), (s1x, t2)], SeriesTruncation(1, lam), ks, m.rho_b
        )
        errs.append(float(np.max(np.abs(star - (e0 + lam * e1)))))
    c_fit = errs[0] / LAMBDAS[0] ** 2
    for lam, err in zip(LAMBDAS, errs):
        assert err <= max(2.0 * c_fit * lam**2, 1e-12)

    # prefactor bookkeeping: the oracle expansion carries hbar^2/4, not hbar/2
    lam_probe = 0.1
    oracle_first = e0 + lam_probe * e1
    quarter_form = 0.25 * np.diag(
        [1 + 0.5j * (1 - 2 * c) * (t1 - t2) * lam_probe, 1 - 0.5j * (1 - 2 * c) * (t1 - t2) * lam_probe]
    )
    half_form = 2.0 * quarter_form
    gap_quarter = float(np.max(np.abs(oracle_first - quarter_form)))
    gap_half = float(np.max(np.abs(oracle_first - half_form)))
    assert gap_quarter < 1e-6 < gap_half
    report(
        8,
        f"C={c_fit:.3f} sweep bound holds; closed-form prefactor resolved to hbar^2/4 "
        f"(gap {gap_quarter:.1e}) over hbar/2 (gap {gap_half:.1e})",
    )


def test_criterion_09_lindblad_properties():
    """Identity fixity, hermiticity, and agreement with the order-2 local RHS
    within the assumption-defect bound on the dephasing preset."""
    p = hb.dephasing_bath(lam=0.05)
    m = p.model
    dec = decompose_interaction(m.hi)
    report_mk = check_markov_assumptions(m, dec, 6.0, decay_threshold=0.025)
    assert all(report_mk.passes.values())
    bd = bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
    sc = spectral_coefficients(m, dec, bd.frequencies, horizon=5.0, tol=0.2)

    fix = float(np.max(np.abs(lindblad_rhs(np.eye(2), bd, sc, m.h0.mat, m.constants))))
    assert fix <= 1e-12

    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = (a + a.conj().T) / 2
    out = lindblad_rhs(a, bd, sc, m.h0.mat, m.constants)
    herm = float(np.max(np.abs(out - out.conj().T)))
    assert herm <= 1e-10

    grid = TimeGrid.linspace(5.0, 11)
    ks = compute_kernels(m, 2, grid)
    lam = m.constants.lam
    traj = one_point_operator(p.observables["sx"], SeriesTruncation(2, lam), ks, m.rho_b, grid, "sx")
    t_eval = 5.0
    o_val = one_point_at(traj.observable, traj.truncation, ks, m.rho_b, t_eval)
    pert = rhs_at(traj, t_eval, ks, m.rho_b)
    lind = lindblad_rhs(o_val, bd, sc, m.h0.mat, m.constants)
    diff = float(np.max(np.abs(pert - lind)))
    bound = report_mk.rhs_defect_bound(
        float(np.linalg.norm(o_val, 2)), t_eval, lam, 1.0, j_horizon=5.0
    )
    assert diff <= bound
    report(
        9,
        f"identity {fix:.1e} <= 1e-12; hermiticity {herm:.1e} <= 1e-10; "
        f"generator gap {diff:.2e} <= defect bound {bound:.2e}",
    )


def test_criterion_10_local_rhs_consistency():
    """one_point_rhs matches central finite differences of the one-point series
    within max(1e-6, C lam^(order+1)) on the two-qubit and a random spec."""
    order = 2
    for name, m, obs, t in _spec_pair():
        ks = compute_kernels(m, order, TimeGrid.linspace(1.5 * t, 7))
        values = lift_legs(m, obs, ks, order, (t,), LAMBDAS)[0]
        errs = rhs_fd_errors(system_matrix(obs), values[0], order, LAMBDAS, ks, m.rho_b, ks.eigen_rows([t])[0], t)
        c_fit = errs[0] / LAMBDAS[0] ** (order + 1)
        for lam, err in zip(LAMBDAS, errs):
            assert err <= max(1e-6, 2.0 * c_fit * lam ** (order + 1))
    report(10, f"FD agreement holds on both specs (C={c_fit:.3f})")
