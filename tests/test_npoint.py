"""Even partitions, term assembly, cancellation, cumulant decompositions."""

import itertools

import numpy as np
import pytest

import heisenbath as hb
from heisenbath.diagnostics import fit_slope
from heisenbath.images import contract_with_bath
from heisenbath.npoint import (
    EvenPartition,
    assemble_partition_term,
    decompose_3pt,
    enumerate_even_partitions,
    expand_image_by_partitions,
    irreducible_2pt,
)
from heisenbath.oracle import heisenberg_evolve_exact, npoint_reduced_exact
from heisenbath.spaces import full_operator, system_operator, weighted_bath_trace
from heisenbath.superop import (
    SeriesTruncation,
    image_from_one_point,
    one_point_operator,
    one_point_value,
    star_of_observables,
    trajectory_value,
)

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
        parts = enumerate_even_partitions(0, 1)
        assert [p.pairs for p in parts] == [((0, 0),)]

    def test_order_one_hand_enumeration(self):
        parts = enumerate_even_partitions(1, 2)
        expected = {((1, 0),), ((0, 1),), ((0, 0), (1, 0)), ((0, 0), (0, 1))}
        assert {p.pairs for p in parts} == expected

    @pytest.mark.parametrize("n", range(5))
    def test_counts_match_brute_force(self, n):
        k_max = n + 1
        ours = {p.pairs for p in enumerate_even_partitions(n, k_max)}
        assert ours == brute_force_partitions(n, k_max)

    def test_deterministic_lexicographic_order(self):
        a = [p.pairs for p in enumerate_even_partitions(3, 4)]
        assert a == sorted(a)
        assert a == [p.pairs for p in enumerate_even_partitions(3, 4)]

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            EvenPartition(((1, 0), (0, 0)))
        with pytest.raises(ValueError):
            EvenPartition(((-1, 2),))


def test_enumeration_is_a_fresh_list_of_shared_partitions():
    """Partitions are held once per (n, k_max); callers cannot mutate the held value."""
    first = enumerate_even_partitions(3, 4)
    first.clear()
    second = enumerate_even_partitions(3, 4)
    assert len(second) == len(brute_force_partitions(3, 4))
    assert second is not enumerate_even_partitions(3, 4)
    assert second[0] is enumerate_even_partitions(3, 4)[0]


def test_multi_leg_partition_totals():
    from heisenbath.npoint import MultiLegPartition

    legs = (
        EvenPartition(((0, 0), (1, 0))),
        EvenPartition(((0, 1),)),
        EvenPartition(((0, 0),)),
    )
    mlp = MultiLegPartition(legs)
    assert mlp.total == 2
    with pytest.raises(ValueError):
        MultiLegPartition((EvenPartition(((0, 0), (0, 0))),))


class TestAssembleTerm:
    def test_trivial_partition_is_open_delta(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        trunc = SeriesTruncation(2, 0.1)
        val = one_point_value(obs, trunc, ks, m.rho_b, 0.9)
        fam = assemble_partition_term(EvenPartition(((0, 0),)), val, trunc, ks, m.rho_b, 0.9)
        for a in range(3):
            for b in range(3):
                assert np.allclose(fam.blocks[a, b], val if a == b else 0)

    def test_single_left_slot_matches_direct_word(self, random_model_2x3):
        """{(1, 0)}: +(i lam/hbar) K1_ab O_S, no contraction, no sign."""
        m, obs, ks = random_model_2x3
        lam, t = 0.1, 0.9
        trunc = SeriesTruncation(2, lam)
        val = one_point_value(obs, trunc, ks, m.rho_b, t)
        fam = assemble_partition_term(EvenPartition(((1, 0),)), val, trunc, ks, m.rho_b, t)
        k1 = ks.heis_at(1, t).blocks
        expected = 1j * lam * np.einsum("abij,jk->abik", k1, val)
        assert np.allclose(fam.blocks, expected, atol=1e-13)

    def test_zero_pair_prefix_cancels_under_contraction(self, random_model_2x3):
        """A partition and its (0,0)-prefixed partner contract to exact negatives."""
        m, obs, ks = random_model_2x3
        trunc = SeriesTruncation(3, 0.2)
        val = one_point_value(obs, trunc, ks, m.rho_b, 1.1)
        for pairs in [((1, 0),), ((1, 1),), ((2, 0), (0, 1))]:
            base = assemble_partition_term(EvenPartition(pairs), val, trunc, ks, m.rho_b, 1.1)
            prefixed = assemble_partition_term(
                EvenPartition(((0, 0),) + pairs), val, trunc, ks, m.rho_b, 1.1
            )
            lhs = contract_with_bath(base, m.rho_b).mat
            rhs = contract_with_bath(prefixed, m.rho_b).mat
            assert np.max(np.abs(lhs + rhs)) < 1e-14


class TestExpandByPartitions:
    def test_order_zero(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        traj = one_point_operator(obs, SeriesTruncation(0, 0.1), ks, m.rho_b, ks.grid, "obs")
        fam = expand_image_by_partitions(traj, 0, ks, m.rho_b, 1.0)
        val = trajectory_value(traj, ks, m.rho_b, 1.0)
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
        back = contract_with_bath(fam, m.rho_b).mat
        assert np.max(np.abs(back - trajectory_value(traj, ks, m.rho_b, t))) < 1e-13


class TestIrreducible2pt:
    def test_zero_coupling_vanishes(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        out = irreducible_2pt(m, obs, obs, 0.5, 1.2, SeriesTruncation(2, 0.0), ks=ks)
        assert np.max(np.abs(out.mat)) < 1e-13

    def test_first_order_correction_is_second_order_small(self, two_qubit_quarter):
        preset, ks = two_qubit_quarter
        m = preset.model
        s1x = preset.observables["s1x"]
        errs = []
        for lam in LAMBDAS:
            out = irreducible_2pt(m, s1x, s1x, 0.5, 1.3, SeriesTruncation(1, lam), ks=ks)
            errs.append(np.max(np.abs(out.mat)))
        assert fit_slope(LAMBDAS, errs) >= 1.8

    def test_matches_oracle_cumulant(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        o_op = system_operator(obs, (2, 3))
        t1, t2 = 0.6, 1.2
        errs = []
        for lam in LAMBDAS:
            ml = m.with_coupling(lam)
            pert = irreducible_2pt(m, obs, obs, t1, t2, SeriesTruncation(2, lam), ks=ks).mat
            ex12 = npoint_reduced_exact(ml, [(o_op, t1), (o_op, t2)]).mat
            ex1 = weighted_bath_trace(heisenberg_evolve_exact(ml, o_op, t1), m.rho_b).mat
            ex2 = weighted_bath_trace(heisenberg_evolve_exact(ml, o_op, t2), m.rho_b).mat
            errs.append(np.max(np.abs(pert - (ex12 - ex1 @ ex2))))
        assert fit_slope(LAMBDAS, errs) >= 2.8

    def test_builds_own_kernels_when_missing(self):
        preset = hb.two_qubit(0.25)
        out = irreducible_2pt(
            preset.model, preset.observables["s1x"], preset.observables["s1x"], 0.3, 0.7,
            SeriesTruncation(1, 0.1),
        )
        assert out.mat.shape == (2, 2)


class TestDecompose3pt:
    def test_zero_coupling_collapses_to_disconnected(self, random_model_2x3):
        m, obs, ks = random_model_2x3
        dec = decompose_3pt(m, obs, obs, obs, 0.3, 0.7, 1.2, SeriesTruncation(2, 0.0), ks=ks)
        for part in (dec.wired_12, dec.wired_31, dec.wired_23, dec.irreducible):
            assert np.max(np.abs(part.mat)) < 1e-12
        from heisenbath.superop import free_evolved

        free = [free_evolved(obs, ks, t) for t in (0.3, 0.7, 1.2)]
        assert np.allclose(dec.disconnected.mat, free[0] @ free[1] @ free[2], atol=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_components_sum_to_star_product(self, random_model_2x3, order):
        m, obs, ks = random_model_2x3
        times = (0.4, 0.9, 1.3)
        trunc = SeriesTruncation(order, 0.1)
        dec = decompose_3pt(m, obs, obs, obs, *times, trunc, ks=ks)
        star = star_of_observables([(obs, t) for t in times], trunc, ks, m.rho_b)
        assert np.max(np.abs(dec.total - star)) < 1e-12

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
            errs.append(np.max(np.abs(pert3.irreducible.mat - irr_oracle)))
        assert fit_slope(LAMBDAS, errs) >= 2.8
