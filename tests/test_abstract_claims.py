"""Claims of the paper's abstract that no validation row states on its own.

README's claims table maps every sentence of the abstract to the tests and
rows that check it; these are the three that needed a test of their own, and
a check that every test README cites exists.
"""

import ast
import pathlib
import re

import numpy as np

import heisenbath as hb
from heisenbath.diagnostics import fit_slope, random_model, rounding_floor
from heisenbath.dyson import compute_kernels
from heisenbath.model import make_model
from heisenbath.oracle import heisenberg_evolve_exact, npoint_reduced_exact
from heisenbath.spaces import TimeGrid, system_operator, weighted_bath_trace
from heisenbath.superop import (
    SeriesTruncation,
    chain_contract,
    lift_values,
    star_of_observables,
)
from helpers import lift_at, one_point_at, random_density, random_hermitian


def test_rank_one_bath_state_reads_d_b_images_per_end_factor():
    """"The number of image operators equals the dimension of the environment":
    with ``rho_B = |0><0|`` a two-point chain reads only the d_B blocks ``X_0a``
    of its first family and ``X_a0`` of its second, bit for bit, while a
    three-point chain reads every block of its middle family."""
    rng = np.random.default_rng(7)
    d_s, d_b = 2, 3
    h0, hb_diag, hi = random_hermitian(rng, d_s), np.diag(rng.normal(size=d_b)), random_hermitian(rng, d_s * d_b)
    m = make_model(h0, hb_diag, hi, np.eye(d_s) / d_s, np.diag([1.0, 0.0, 0.0]))
    ks = compute_kernels(m, 2, TimeGrid.linspace(1.3, 5))
    trunc = SeriesTruncation(2, 0.1)
    legs = [(random_hermitian(rng, d_s), t) for t in (0.4, 0.9, 1.3)]
    families = [lift_at(one_point_at(o, trunc, ks, m.rho_b, t), trunc, ks, m.rho_b, t)[1].matrix for o, t in legs]
    bath_zero = np.arange(d_s * d_b) % d_b == 0  # full-space rows and columns of bath state 0

    def row0(x):
        return x * bath_zero[:, None]

    def col0(x):
        return x * bath_zero[None, :]

    first, middle, last = families
    assert np.array_equal(chain_contract([row0(first), col0(middle)], m.rho_b), chain_contract([first, middle], m.rho_b))
    three = chain_contract(families, m.rho_b)
    assert np.array_equal(chain_contract([row0(first), middle, col0(last)], m.rho_b), three)
    assert np.max(np.abs(chain_contract([row0(first), row0(middle), col0(last)], m.rho_b) - three)) > 1e-3


def test_naive_product_misses_the_two_point_function_at_second_order():
    """"Multi-time correlations are not products of one-point operators": on
    the two-qubit preset the naive product ``O_S(t1) O_S(t2)`` misses the
    exact reduced two-point function by O(lam^2), while the order-2 star
    product misses it by O(lam^3)."""
    preset = hb.two_qubit(0.25)
    m, s1x = preset.model, preset.observables["s1x"]
    t1, t2 = 1.1, 0.6
    lams = (0.1, 0.05, 0.025)
    ks = compute_kernels(m, 2, TimeGrid.linspace(t1, 5))
    o = system_operator(s1x, (2, 2))
    gaps, star_errors = [], []
    for lam in lams:
        ml = m.with_coupling(lam)
        one_point = [weighted_bath_trace(heisenberg_evolve_exact(ml, o, t), m.rho_b).mat for t in (t1, t2)]
        exact = npoint_reduced_exact(ml, [(o, t1), (o, t2)]).mat
        gaps.append(np.max(np.abs(one_point[0] @ one_point[1] - exact)))
        star = star_of_observables([(s1x, t1), (s1x, t2)], SeriesTruncation(2, lam), ks, m.rho_b)
        star_errors.append(np.max(np.abs(star - exact)))
    assert 1.8 <= fit_slope(lams, gaps) <= 2.2, gaps
    assert fit_slope(lams, star_errors) >= 2.8, star_errors
    assert gaps[-1] >= 100 * star_errors[-1], (gaps, star_errors)


def test_lift_is_a_polynomial_of_degree_n_in_the_bath_state():
    """"It depends non-linearly on the environment state": the order-N lift
    (`lift_values`: the series inversion and the image family) folds the bath
    state in once per order, so under the mixture ``rho(p) = p rho_1 + (1 - p)
    rho_2`` it is a polynomial of degree exactly N in p.  At 9 values of p in
    [0, 1], N = 0..4 and two couplings, a degree-N fit leaves rounding and a
    degree-(N-1) fit leaves a thousand times more; the mixture defect
    ``F(1/2) - (F(0) + F(1))/2`` is rounding at N <= 1 and scales as lam^2 at
    N = 2."""
    rng = np.random.default_rng(23)
    m, _ = random_model(3, 2, 3)
    t, lams, ps = 1.2, (0.1, 0.05), np.linspace(0.0, 1.0, 9)
    ks = compute_kernels(m, 4, TimeGrid.linspace(t, 5))
    rho_1, rho_2, value = random_density(rng, 3), random_density(rng, 3), random_hermitian(rng, 2)

    def lift(order, lam):  # (9, n): the inversion and the family at each p, flattened
        rows = []
        for p in ps:
            rho = p * rho_1 + (1 - p) * rho_2
            inverses, mats = lift_values(value[None, None], order, (lam,), ks, rho, ks.eigen_rows([t]))
            rows.append(np.concatenate([inverses.ravel(), mats.ravel()]))
        return np.array(rows)

    def fit_residual(f, degree):
        vander = np.vander(ps, degree + 1)
        return float(np.max(np.abs(vander @ np.linalg.lstsq(vander, f, rcond=None)[0] - f)))

    defects = {}
    for order in range(5):
        for lam in lams:
            f = lift(order, lam)
            floor = rounding_floor(order, f)
            assert fit_residual(f, order) <= floor, (order, lam)
            if order:
                assert fit_residual(f, order - 1) >= 1e3 * floor, (order, lam)
            defects[order, lam] = float(np.max(np.abs(f[4] - (f[0] + f[-1]) / 2)))
            if order <= 1:
                assert defects[order, lam] <= floor, (order, lam)
    assert abs(fit_slope(lams, [defects[2, lam] for lam in lams]) - 2.0) <= 0.01, defects


TESTS = pathlib.Path(__file__).resolve().parent


def test_readme_citations_name_existing_tests():
    """Every `` `test_*.py::[Class::]test_*` `` in README names a test function
    of that module (inside that class), found by its definition."""
    readme = (TESTS.parent / "README.md").read_text()
    citations = re.findall(r"`(test_\w+\.py)::(?:(\w+)::)?(test_\w+)`", readme)
    assert citations
    missing = []
    for module, cls, name in citations:
        path = TESTS / module
        body = ast.parse(path.read_text()).body if path.exists() else []
        if cls:
            body = [item for node in body if isinstance(node, ast.ClassDef) and node.name == cls for item in node.body]
        if not any(isinstance(node, ast.FunctionDef) and node.name == name for node in body):
            missing.append("::".join(filter(None, (module, cls, name))))
    assert missing == []
