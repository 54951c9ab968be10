"""Even partitions, term assembly, cancellation, cumulant decompositions."""

import itertools

import numpy as np
import pytest

from heisenbath.diagnostics import fit_slope
from heisenbath._blockops import bath_trace
from heisenbath.images import ImageFamily
from heisenbath.npoint import (
    _partitions,
    cumulant_2pt,
    decompose_3pt,
    decompose_3pt_parts,
    expand_image_by_partitions,
    irreducible_2pt,
)
from heisenbath.oracle import heisenberg_evolve_exact, npoint_reduced_exact
from heisenbath.spaces import full_operator, system_operator, weighted_bath_trace
from heisenbath.superop import (
    SeriesTruncation,
    image_from_one_point,
    lift_legs,
    one_point_operator,
    star_of_observables,
)
from helpers import heis_stack, lift_at, one_point_at, partition_term, random_density, random_hermitian

LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4)


def compositions(n, parts):
    """Every tuple of ``parts`` non-negative integers summing to n, by stars
    and bars: the bar positions are the (parts - 1)-subsets of n + parts - 1 slots."""
    slots = n + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1,) + bars + (slots,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(parts))


def brute_force_partitions(n, k_max):
    """All tuples ((n1,m1),...) satisfying the slot conditions, by exhaustion."""
    out = set()
    for k in range(1, k_max + 1):
        for flat in compositions(n, 2 * k):
            pairs = tuple(zip(flat[::2], flat[1::2]))
            if any(a + b == 0 for a, b in pairs[1:]):
                continue
            out.add(pairs)
    return out


@pytest.mark.parametrize("n,parts", [(0, 1), (0, 4), (3, 2), (2, 6), (4, 4)])
def test_compositions_are_every_tuple_with_the_sum(n, parts):
    """Stars and bars against filtering the full product, at sizes where the product is small."""
    every = [t for t in itertools.product(range(n + 1), repeat=parts) if sum(t) == n]
    ours = list(compositions(n, parts))
    assert len(ours) == len(set(ours))
    assert set(ours) == set(every)


class TestEnumeration:
    def test_order_zero(self):
        parts = _partitions(0, 1)
        assert list(parts) == [((0, 0),)]

    def test_order_one_hand_enumeration(self):
        parts = _partitions(1, 2)
        expected = {((1, 0),), ((0, 1),), ((0, 0), (1, 0)), ((0, 0), (0, 1))}
        assert set(parts) == expected

    @pytest.mark.parametrize("n", range(5))
    def test_counts_match_brute_force(self, n):
        k_max = n + 1
        ours = set(_partitions(n, k_max))
        assert ours == brute_force_partitions(n, k_max)

    def test_deterministic_lexicographic_order(self):
        a = list(_partitions(3, 4))
        assert a == sorted(a)
        assert a == list(_partitions(3, 4))


class TestAssembleTerm:
    def test_trivial_partition_is_open_delta(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        trunc = SeriesTruncation(2, 0.1)
        val = one_point_at(obs, trunc, ks, m.rho_b, 0.9)
        fam = partition_term(((0, 0),), val, trunc, ks, m.rho_b, 0.9)
        for a in range(3):
            for b in range(3):
                assert np.allclose(fam.blocks[a, b], val if a == b else 0)

    def test_single_left_slot_matches_direct_word(self, random_model_2x3):
        """{(1, 0)}: +(i lam/hbar) K1_ab O_S, no contraction, no sign."""
        m, obs, ks = random_model_2x3
        lam, t = 0.1, 0.9
        trunc = SeriesTruncation(2, lam)
        val = one_point_at(obs, trunc, ks, m.rho_b, t)
        fam = partition_term(((1, 0),), val, trunc, ks, m.rho_b, t)
        k1 = ImageFamily(heis_stack(ks, t)[1], ks.dim_bath).blocks
        expected = 1j * lam * np.einsum("abij,jk->abik", k1, val)
        assert np.allclose(fam.blocks, expected, atol=1e-13)

    def test_zero_pair_prefix_cancels_under_contraction(self, random_model_2x3):
        """A partition and its (0,0)-prefixed partner contract to exact negatives."""
        m, obs, ks = random_model_2x3
        trunc = SeriesTruncation(3, 0.2)
        val = one_point_at(obs, trunc, ks, m.rho_b, 1.1)
        for pairs in [((1, 0),), ((1, 1),), ((2, 0), (0, 1))]:
            base = partition_term(pairs, val, trunc, ks, m.rho_b, 1.1)
            prefixed = partition_term(((0, 0),) + pairs, val, trunc, ks, m.rho_b, 1.1)
            lhs = bath_trace(base.matrix, m.rho_b)
            rhs = bath_trace(prefixed.matrix, m.rho_b)
            assert np.max(np.abs(lhs + rhs)) < 1e-14


class TestExpandByPartitions:
    def test_order_zero(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        traj = one_point_operator(obs, SeriesTruncation(0, 0.1), ks, m.rho_b, ks.grid, "obs")
        fam = expand_image_by_partitions(traj, 0, ks, m.rho_b, 1.0)
        val = one_point_at(traj.observable, traj.truncation, ks, m.rho_b, 1.0)
        for a in range(3):
            for b in range(3):
                assert np.allclose(fam.blocks[a, b], val if a == b else 0)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_dual_bookkeeping(self, random_model_2x3, order):
        """Partition sum equals the super-operator series blockwise at rounding level."""
        m, obs, ks = random_model_2x3
        traj = one_point_operator(obs, SeriesTruncation(order, 0.1), ks, m.rho_b, ks.grid, "obs")
        t = 1.2
        by_parts = expand_image_by_partitions(traj, order, ks, m.rho_b, t)
        by_series = image_from_one_point(traj, ks, m.rho_b, t)
        assert np.max(np.abs(by_parts.blocks - by_series.blocks)) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_contraction_survives_only_trivial_partition(self, two_qubit_quarter, order):
        preset, ks = two_qubit_quarter
        m = preset.model
        traj = one_point_operator(
            preset.observables["s1x"], SeriesTruncation(order, 0.15), ks, m.rho_b, ks.grid, "s1x"
        )
        t = 0.8
        fam = expand_image_by_partitions(traj, order, ks, m.rho_b, t)
        back = bath_trace(fam.matrix, m.rho_b)
        assert np.max(np.abs(back - one_point_at(traj.observable, traj.truncation, ks, m.rho_b, t))) < 1e-13


class TestIrreducible2pt:
    def test_zero_coupling_vanishes(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        out = irreducible_2pt(m, obs, obs, 0.5, 1.2, SeriesTruncation(2, 0.0), ks=ks)
        assert np.max(np.abs(out)) < 1e-13

    def test_first_order_correction_is_second_order_small(self, two_qubit_quarter):
        preset, ks = two_qubit_quarter
        m = preset.model
        s1x = preset.observables["s1x"]
        errs = []
        for lam in LAMBDAS:
            out = irreducible_2pt(m, s1x, s1x, 0.5, 1.3, SeriesTruncation(1, lam), ks=ks)
            errs.append(np.max(np.abs(out)))
        assert fit_slope(LAMBDAS, errs) >= 1.8

    def test_matches_oracle_cumulant(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        o_op = system_operator(obs, (2, 3))
        t1, t2 = 0.6, 1.2
        errs = []
        for lam in LAMBDAS:
            ml = m.with_coupling(lam)
            pert = irreducible_2pt(m, obs, obs, t1, t2, SeriesTruncation(2, lam), ks=ks)
            ex12 = npoint_reduced_exact(ml, [(o_op, t1), (o_op, t2)]).mat
            ex1 = weighted_bath_trace(heisenberg_evolve_exact(ml, o_op, t1), m.rho_b).mat
            ex2 = weighted_bath_trace(heisenberg_evolve_exact(ml, o_op, t2), m.rho_b).mat
            errs.append(np.max(np.abs(pert - (ex12 - ex1 @ ex2))))
        assert fit_slope(LAMBDAS, errs) >= 2.8


class TestDecompose3pt:
    def test_zero_coupling_collapses_to_disconnected(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        dec = decompose_3pt(m, obs, obs, obs, 0.3, 0.7, 1.2, SeriesTruncation(2, 0.0), ks=ks)
        for part in (dec.wired_12, dec.wired_31, dec.wired_23, dec.irreducible):
            assert np.max(np.abs(part)) < 1e-12
        free = [ks.frame.free_conjugate(obs, t) for t in (0.3, 0.7, 1.2)]
        assert np.allclose(dec.disconnected, free[0] @ free[1] @ free[2], atol=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_components_sum_to_star_product(self, random_model_2x3, order):
        m, obs, ks = random_model_2x3
        times = (0.4, 0.9, 1.3)
        trunc = SeriesTruncation(order, 0.1)
        dec = decompose_3pt(m, obs, obs, obs, *times, trunc, ks=ks)
        star = star_of_observables([(obs, t) for t in times], trunc, ks, m.rho_b)
        assert np.max(np.abs(dec.total - star)) < 1e-12

    def test_each_part_is_its_own_definition(self, random_model_2x3):
        """Each of the five parts against its definition, on three distinct
        observables at three distinct times, from the legs' one-point values
        ``v_k`` and image families ``X_k``: ``disconnected = v1 v2 v3``,
        ``wired_12 = (X1 X2)_S v3 - disc``, ``wired_31 = (X1 (v2 (x) 1) X3)_S - disc``,
        ``wired_23 = v1 (X2 X3)_S - disc``, and the irreducible part the rest
        of ``(X1 X2 X3)_S``."""
        m, obs, ks = random_model_2x3
        rng = np.random.default_rng(31)
        observables = (obs, random_hermitian(rng, 2), random_hermitian(rng, 2))
        times = (0.4, 0.9, 1.3)
        trunc = SeriesTruncation(2, 0.1)
        values = [one_point_at(o, trunc, ks, m.rho_b, t) for o, t in zip(observables, times)]
        x1, x2, x3 = (lift_at(v, trunc, ks, m.rho_b, t)[1].matrix for v, t in zip(values, times))
        v1, v2, v3 = values

        def reduced(x):
            return bath_trace(ImageFamily(x, m.dim_bath).matrix, m.rho_b)

        disc = v1 @ v2 @ v3
        wired_12 = reduced(x1 @ x2) @ v3 - disc
        wired_31 = reduced(x1 @ np.kron(v2, np.eye(m.dim_bath)) @ x3) - disc
        wired_23 = v1 @ reduced(x2 @ x3) - disc
        irreducible = reduced(x1 @ x2 @ x3) - disc - wired_12 - wired_31 - wired_23
        dec = decompose_3pt(m, *observables, *times, trunc, ks=ks)
        expected = (disc, wired_12, wired_31, wired_23, irreducible)
        parts = (dec.disconnected, dec.wired_12, dec.wired_31, dec.wired_23, dec.irreducible)
        for part, want in zip(parts, expected):
            assert np.max(np.abs(part - want)) < 1e-12
        assert min(np.max(np.abs(a - b)) for a, b in itertools.combinations(expected[1:4], 2)) > 1e-4

    def test_trivial_families_of_the_wired_parts(self, random_model_2x3):
        """The wired parts of `decompose_3pt_parts` against their trivial families
        ``O_S delta_ab``: a trivial last or first factor leaves the bath trace, ``wired_12 = cumulant_2pt(1, 2)
        O3S`` and ``wired_23 = O1S cumulant_2pt(2, 3)``, and ``wired_31`` is the
        block sum ``sum_abc (X1)_ac O2S (X3)_cb rho_B[b, a]`` minus the disconnected part."""
        m, obs, ks = random_model_2x3
        rng = np.random.default_rng(229)
        legs = zip((obs, random_hermitian(rng, 2), random_hermitian(rng, 2)), (0.4, 0.9, 1.3))
        values, lifted = lift_legs(legs, SeriesTruncation(2, 0.1), ks, m.rho_b)
        disc, wired_12, wired_31, wired_23, _ = decompose_3pt_parts(values, lifted, m.rho_b)
        assert np.max(np.abs(wired_12 - cumulant_2pt(values[:2], lifted[:2], m.rho_b) @ values[2])) < 1e-13
        assert np.max(np.abs(wired_23 - values[0] @ cumulant_2pt(values[1:], lifted[1:], m.rho_b))) < 1e-13
        x1, x3 = (ImageFamily(x, m.dim_bath).blocks for x in (lifted[0], lifted[2]))
        sites = itertools.product(range(m.dim_bath), repeat=3)
        loop = sum(x1[a, c] @ values[1] @ x3[c, b] * m.rho_b[b, a] for a, b, c in sites)
        assert np.max(np.abs(wired_31 - (loop - disc))) < 1e-13

    @pytest.mark.parametrize("ds,db,lead", [(2, 3, ()), (2, 3, (4,)), (3, 5, (2, 3)), (4, 8, ())])
    def test_wired_31_acts_with_the_identity_family_of_o2s(self, ds, db, lead):
        """``wired_31 = (X1 (O2S (x) 1_B) X3)_S - disc`` with ``O2S (x) 1_B`` as
        ``np.kron(O2S, eye(d_B))``, to 1e-14 relative, on random families with
        leading axes: the column GEMM on a reshape keeps the family layout."""
        rng = np.random.default_rng(ds * 100 + db)
        d = ds * db

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        values, lifted, rho_b = cplx(3, *lead, ds, ds), cplx(3, *lead, d, d), random_density(rng, db)
        disc, _, wired_31, _, _ = decompose_3pt_parts(values, lifted, rho_b)
        for k in np.ndindex(*lead):
            x1, x3, v2 = lifted[0][k], lifted[2][k], values[1][k]
            ref = bath_trace(ImageFamily(x1 @ np.kron(v2, np.eye(db)) @ x3, db).matrix, rho_b) - disc[k]
            assert np.max(np.abs(wired_31[k] - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_two_qubit_irreducible_matches_oracle_formula(self, two_qubit_quarter):
        """Third cumulant against the same formula built from oracle quantities."""
        preset, ks = two_qubit_quarter
        m = preset.model
        s1x = preset.observables["s1x"]
        o_op = system_operator(s1x, (2, 2))
        times = (0.4, 0.9, 1.5)
        errs = []
        for lam in LAMBDAS:
            ml = m.with_coupling(lam)
            pert3 = decompose_3pt(m, s1x, s1x, s1x, *times, SeriesTruncation(2, lam), ks=ks)

            ones = [
                weighted_bath_trace(heisenberg_evolve_exact(ml, o_op, t), m.rho_b).mat
                for t in times
            ]
            disc = ones[0] @ ones[1] @ ones[2]

            def mixed(trivial_leg):
                evolved = []
                for k, t in enumerate(times):
                    if k == trivial_leg:
                        evolved.append(np.kron(ones[k], np.eye(2)))
                    else:
                        evolved.append(heisenberg_evolve_exact(ml, o_op, t).mat)
                prod = evolved[0] @ evolved[1] @ evolved[2]
                return weighted_bath_trace(full_operator(prod, (2, 2)), m.rho_b).mat

            full = npoint_reduced_exact(ml, [(o_op, t) for t in times]).mat
            irr_oracle = (
                full
                - (mixed(2) - disc)
                - (mixed(1) - disc)
                - (mixed(0) - disc)
                - disc
            )
            errs.append(np.max(np.abs(pert3.irreducible - irr_oracle)))
        assert fit_slope(LAMBDAS, errs) >= 2.8
