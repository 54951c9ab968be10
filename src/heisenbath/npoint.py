"""Even-partition combinatorics and cumulant decompositions.

The order-n term of an image operator is a sum over partitions of n into an
even number of non-negative slots ``{(n_1, m_1), ..., (n_k, m_k)}`` with
``n_i + m_i > 0`` for i >= 2.  Each partition maps to a signed operator
word: pair 1 keeps its bath indices open, pairs 2..k are contracted with
the bath state, left slots carry kernels and right slots their adjoints.
Summing all partitions reproduces the super-operator series term by term
(two bookkeepings of the same expansion), and prefixing a (0, 0) pair flips
the sign of a term's bath contraction, which is why only the trivial
partition survives contraction.

How the sum is evaluated: a partition's inner value (pairs 2..k wrapped
innermost first, each contracted with ``rho_B`` and weighted by
``-i^(n_i - m_i) (lam/hbar)^(n_i + m_i)``) depends only on its suffix, so
each distinct suffix is wrapped once and reused by every partition that
ends with it.  Pair 1's open word is linear in its core, so it runs once
per distinct first pair, on the sum of the inner values of the partitions
that start with it.  Up to order 0..4 that is 1, 5, 15, 43 and 130
full-space sandwiches, against 1, 7, 36, 164 and 700 one partition at a
time.  Suffixes are deliberately not merged by total order: that sum is
the super-operator series inversion itself, and the partition sum would
then no longer be an independent check of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _blockops
from .dyson import KernelSet, compute_kernels
from .images import ImageFamily
from .model import ModelSpec
from .spaces import DensityMatrix, OperatorMatrix, Space, SpaceTag, TimeGrid, as_matrix, system_operator
from .superop import (
    OnePointTrajectory,
    SeriesTruncation,
    chain_contract,
    image_from_value,
    one_point_value,
    trajectory_value,
    trivial_factor,
)


@dataclass(frozen=True)
class EvenPartition:
    """Pairs ``((n_1, m_1), ..., (n_k, m_k))`` of non-negative slot orders."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a partition needs at least one pair")
        for i, (n, m) in enumerate(self.pairs):
            if n < 0 or m < 0:
                raise ValueError(f"pair {i} has negative entries: {(n, m)}")
            if i >= 1 and n + m == 0:
                raise ValueError(f"pair {i} is (0, 0); only the first pair may vanish")

    @property
    def total(self) -> int:
        return sum(n + m for n, m in self.pairs)

    @property
    def k(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class MultiLegPartition:
    """One EvenPartition per correlator factor."""

    legs: tuple[EvenPartition, ...]

    @property
    def total(self) -> int:
        return sum(leg.total for leg in self.legs)


def enumerate_even_partitions(n: int, k_max: int) -> list[EvenPartition]:
    """All partitions of n with 1 <= k <= k_max pairs, in lexicographic order.

    Exhaustive and duplicate-free; any pair beyond k = n + 1 would force a
    zero-order pair in position >= 2, so larger ``k_max`` adds nothing.
    """
    if n < 0 or k_max < 1:
        raise ValueError(f"need n >= 0 and k_max >= 1, got n={n}, k_max={k_max}")
    return list(_partitions(n, k_max))


@functools.cache
def _partitions(n: int, k_max: int) -> tuple[EvenPartition, ...]:
    """The enumeration behind `enumerate_even_partitions`, held per ``(n, k_max)``."""
    found: list[tuple[tuple[int, int], ...]] = []

    def extend(prefix: list[tuple[int, int]], remaining: int):
        k = len(prefix)
        if k >= 1 and remaining == 0:
            found.append(tuple(prefix))
        if k == k_max:
            return
        lo = 0 if k == 0 else 1
        for s in range(lo, remaining + 1):
            for n_i in range(s + 1):
                prefix.append((n_i, s - n_i))
                extend(prefix, remaining - s)
                prefix.pop()

    extend([], n)
    return tuple(EvenPartition(p) for p in sorted(found))


class _PartitionWords:
    """Operator words of partitions at one time, each distinct inner chain evaluated once.

    `inner` is the value of a suffix (pairs 2..k): the one-point value
    wrapped innermost first with kernel slot ``n_i`` on the left and the
    adjoint of slot ``m_i`` on the right, each pair contracted with
    ``rho_B[b_i, a_i]`` and weighted by ``-i^(n_i - m_i) (lam/hbar)^(n_i + m_i)``.
    It depends on nothing but the suffix, so it is held per suffix tuple
    for the life of the object.  `open_word` applies pair 1, bath indices
    open, in full space; it is linear in its core.
    """

    def __init__(
        self, value: np.ndarray, trunc: SeriesTruncation, ks: KernelSet, rho_b: DensityMatrix, t: float
    ):
        self.kstack = ks.heis_stack(t)
        self.rho = rho_b.mat
        self.x = trunc.lam / ks.frame.constants.hbar
        self.ds, self.db = ks.dim_system, ks.dim_bath
        self.inner_values: dict[tuple[tuple[int, int], ...], np.ndarray] = {(): value}

    def _weight(self, n_i: int, m_i: int) -> complex:
        return 1j ** (n_i - m_i) * self.x ** (n_i + m_i)

    def _sandwich(self, n_i: int, m_i: int, core: np.ndarray) -> np.ndarray:
        # full-space K[n_i] (core (x) 1_B) K[m_i]^dag, one GEMM
        left = _blockops.system_lift(self.kstack[n_i : n_i + 1], core)
        return _blockops.sandwich_sum(left, self.kstack[m_i : m_i + 1])

    def inner(self, suffix: tuple[tuple[int, int], ...]) -> np.ndarray:
        hit = self.inner_values.get(suffix)
        if hit is None:
            (n_i, m_i), rest = suffix[0], suffix[1:]
            core = -self._weight(n_i, m_i) * self.inner(rest)
            hit = _blockops.bath_trace(self._sandwich(n_i, m_i, core), self.rho, self.ds, self.db)
            self.inner_values[suffix] = hit
        return hit

    def open_word(self, pair: tuple[int, int], core: np.ndarray) -> np.ndarray:
        return self._sandwich(*pair, self._weight(*pair) * core)


def assemble_partition_term(
    p: EvenPartition,
    o_s_value,
    trunc: SeriesTruncation,
    ks: KernelSet,
    rho_b: DensityMatrix,
    t: float,
) -> ImageFamily:
    """The signed operator word of one partition, bath indices of pair 1 open.

    Working from the innermost pair outwards: wrap the one-point value with
    kernel slot ``n_i`` on the left and the adjoint of slot ``m_i`` on the
    right, contracting each inner pair with ``rho_B[b_i, a_i]``; pair 1 is
    left open.  Coefficient ``(-1)^(k-1) i^(sum n - sum m) (lam/hbar)^total``.
    """
    ks.check_order(p.total)
    value = as_matrix(o_s_value)
    words = _PartitionWords(value, trunc, ks, rho_b, t)
    full = words.open_word(p.pairs[0], words.inner(p.pairs[1:]))
    return ImageFamily(_blockops.full_to_fam(full, words.ds, words.db), t)


def expand_image_by_partitions(
    o_s: OnePointTrajectory,
    n_max: int,
    ks: KernelSet,
    rho_b: DensityMatrix,
    t: float,
) -> ImageFamily:
    """Image family as the partition sum over all orders n <= n_max.

    Same series as the super-operator route, different bookkeeping; the two
    agree blockwise to rounding at equal order.  Each distinct suffix is
    wrapped once, and pair 1's word runs once per distinct first pair, on
    the sum of the inner values of the partitions that start with it.
    """
    ks.check_order(n_max)
    words = _PartitionWords(trajectory_value(o_s, ks, rho_b, t), o_s.truncation, ks, rho_b, t)
    cores: dict[tuple[int, int], np.ndarray] = {}
    for n in range(n_max + 1):
        for p in _partitions(n, n + 1):
            first = p.pairs[0]
            cores[first] = cores.get(first, 0) + words.inner(p.pairs[1:])
    full = sum(words.open_word(pair, core) for pair, core in cores.items())
    return ImageFamily(_blockops.full_to_fam(full, words.ds, words.db), t)


def _ensure_kernels(
    m: ModelSpec, trunc: SeriesTruncation, times: Sequence[float], ks: KernelSet | None
) -> KernelSet:
    if ks is not None:
        return ks
    stop = max(float(t) for t in times)
    grid = TimeGrid(np.array([0.0, stop]) if stop > 0 else np.array([0.0]))
    return compute_kernels(m, trunc.order, grid)


def _sys_tag(ks: KernelSet) -> SpaceTag:
    return SpaceTag(Space.SYSTEM, ks.dim_system, ks.dim_bath)


def _lift_legs(legs, trunc: SeriesTruncation, ks: KernelSet, rho_b: DensityMatrix):
    """One-point values and image families of ``(observable, time)`` legs, each computed once."""
    values = [one_point_value(o, trunc, ks, rho_b, float(t)) for o, t in legs]
    lifted = [image_from_value(v, trunc, ks, rho_b, float(t)) for v, (_, t) in zip(values, legs)]
    return values, lifted


def irreducible_2pt(
    m: ModelSpec,
    o1,
    o2,
    t1: float,
    t2: float,
    trunc: SeriesTruncation,
    ks: KernelSet | None = None,
) -> OperatorMatrix:
    """Second-order cumulant ``(O1(t1) O2(t2))_S - O1S(t1) O2S(t2)``."""
    ks = _ensure_kernels(m, trunc, (t1, t2), ks)
    values, lifted = _lift_legs(((o1, t1), (o2, t2)), trunc, ks, m.rho_b)
    return system_operator(_cumulant_2pt(values, lifted, m.rho_b), _sys_tag(ks))


def _cumulant_2pt(values, lifted, rho_b: DensityMatrix) -> np.ndarray:
    """``(O1 O2)_S - O1S O2S`` from two lifted legs (one-point values and image families)."""
    return chain_contract(lifted, rho_b) - values[0] @ values[1]


@dataclass(frozen=True)
class ThreePointDecomposition:
    """Cluster decomposition of a three-point reduced operator."""

    disconnected: OperatorMatrix
    wired_12: OperatorMatrix
    wired_31: OperatorMatrix
    wired_23: OperatorMatrix
    irreducible: OperatorMatrix

    @property
    def total(self) -> np.ndarray:
        return (
            self.disconnected.mat
            + self.wired_12.mat
            + self.wired_31.mat
            + self.wired_23.mat
            + self.irreducible.mat
        )


def decompose_3pt(
    m: ModelSpec,
    o1,
    o2,
    o3,
    t1: float,
    t2: float,
    t3: float,
    trunc: SeriesTruncation,
    ks: KernelSet | None = None,
) -> ThreePointDecomposition:
    """Disconnected, pairwise-wired and irreducible parts of a 3-point operator.

    The wired term for a pair keeps the remaining factor's partition trivial
    (its leg restricted to the (0, 0) pair) while preserving the 1-2-3
    operator word order, e.g. ``wired_31 = (O1 O2S O3)_S - O1S O2S O3S``.
    The irreducible part is the third-order cumulant, so the five components
    sum to the full star product identically.
    """
    ks = _ensure_kernels(m, trunc, (t1, t2, t3), ks)
    values, lifted = _lift_legs(((o1, t1), (o2, t2), (o3, t3)), trunc, ks, m.rho_b)
    return _decompose_3pt(values, lifted, ks, m.rho_b)


def _decompose_3pt(values, lifted, ks: KernelSet, rho_b: DensityMatrix) -> ThreePointDecomposition:
    """The decomposition of `decompose_3pt` from three lifted legs.

    Each leg enters once as its image family and once as its trivial family
    ``O_S(t) delta_ab``.
    """
    tag = _sys_tag(ks)
    trivial = [trivial_factor(v, ks, f.time) for v, f in zip(values, lifted)]
    disc = values[0] @ values[1] @ values[2]

    star_all = chain_contract(lifted, rho_b)
    star_12 = chain_contract([lifted[0], lifted[1], trivial[2]], rho_b)
    star_31 = chain_contract([lifted[0], trivial[1], lifted[2]], rho_b)
    star_23 = chain_contract([trivial[0], lifted[1], lifted[2]], rho_b)

    w12 = star_12 - disc
    w31 = star_31 - disc
    w23 = star_23 - disc
    irr = star_all - disc - w12 - w31 - w23
    return ThreePointDecomposition(
        disconnected=system_operator(disc, tag),
        wired_12=system_operator(w12, tag),
        wired_31=system_operator(w31, tag),
        wired_23=system_operator(w23, tag),
        irreducible=system_operator(irr, tag),
    )
