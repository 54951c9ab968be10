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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _blockops
from .dyson import KernelSet, compute_kernels
from .errors import OrderExceedsKernels
from .images import ImageFamily
from .model import ModelSpec
from .spaces import DensityMatrix, OperatorMatrix, Space, SpaceTag, TimeGrid, system_operator
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
    return [EvenPartition(p) for p in sorted(found)]


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
    if p.total > ks.orders:
        raise OrderExceedsKernels(
            f"partition of order {p.total} exceeds computed kernel order {ks.orders}"
        )
    value = o_s_value.mat if isinstance(o_s_value, OperatorMatrix) else np.asarray(o_s_value, complex)
    kstack = ks.heis_stack(t)
    ds, db = ks.dim_system, ks.dim_bath

    def word(n_i: int, m_i: int, core: np.ndarray) -> np.ndarray:
        # full-space K[n_i] (core (x) 1_B) K[m_i]^dag, one GEMM
        left = _blockops.system_lift(kstack[n_i : n_i + 1], core)
        return _blockops.sandwich_sum(left, kstack[m_i : m_i + 1])

    core = value
    for n_i, m_i in p.pairs[:0:-1]:
        core = _blockops.bath_trace(word(n_i, m_i, core), rho_b.mat, ds, db)
    blocks = _blockops.full_to_fam(word(*p.pairs[0], core), ds, db)
    n_sum = sum(n for n, _ in p.pairs)
    m_sum = sum(m for _, m in p.pairs)
    hbar = ks.frame.constants.hbar
    coeff = (-1) ** (p.k - 1) * 1j ** (n_sum - m_sum) * (trunc.lam / hbar) ** p.total
    return ImageFamily(coeff * blocks, t)


def expand_image_by_partitions(
    o_s: OnePointTrajectory,
    n_max: int,
    ks: KernelSet,
    rho_b: DensityMatrix,
    t: float,
) -> ImageFamily:
    """Image family as the partition sum over all orders n <= n_max.

    Same series as the super-operator route, different bookkeeping; the two
    agree blockwise to rounding at equal order.
    """
    if n_max > ks.orders:
        raise OrderExceedsKernels(f"n_max {n_max} exceeds computed kernel order {ks.orders}")
    value = trajectory_value(o_s, ks, rho_b, t)
    trunc = o_s.truncation
    db, ds = ks.dim_bath, ks.dim_system
    out = np.zeros((db, db, ds, ds), dtype=complex)
    for n in range(n_max + 1):
        for p in enumerate_even_partitions(n, n + 1):
            out += assemble_partition_term(p, value, trunc, ks, rho_b, t).blocks
    return ImageFamily(out, t)


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
    star = chain_contract(lifted, m.rho_b)
    return system_operator(star - values[0] @ values[1], _sys_tag(ks))


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
    rho_b = m.rho_b
    tag = _sys_tag(ks)
    # each factor is lifted once, as its image family and as its trivial family
    legs = ((o1, t1), (o2, t2), (o3, t3))
    values, lifted = _lift_legs(legs, trunc, ks, rho_b)
    trivial = [trivial_factor(v, ks, float(t)) for v, (_, t) in zip(values, legs)]
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
