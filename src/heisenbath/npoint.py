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
time.  The sandwiches are batched, never merged: all suffixes of one
length are wrapped in one batched sandwich and one bath trace, and the
open words of all first pairs in one more, so a sum through order n makes
n + 1 calls, and each suffix and word keeps the bits of its lone
sandwich.  Which suffixes there are, and which partitions share them,
depends on n alone: `_suffix_plan` builds that tree once per order, as
index arrays (each length's first pairs and the index of each suffix's
tail one length down, then the suffixes of each first pair), so an image
does no dict or tuple work.  Suffixes are deliberately not merged by
total order: that sum is the super-operator series inversion itself, and
the partition sum would then no longer be an independent check of it.
The words are formed on
the kernels in the frame (`KernelSet.frame_stack`), whose index is
bath-major with the system index last: a core acts as ``core (x) 1_B`` by a
GEMM on a reshape of the kernel stack, a suffix is traced there
(`_blockops.frame_trace`), and an image leaves the frame once
(`InteractionFrame.leave_open`).

`PartitionWords` and the cumulant arithmetic (`cumulant_2pt`,
`decompose_3pt_parts`) are the engine that `diagnostics` calls.  The
cumulant arithmetic takes legs as arrays, one-point values ``(n_leg, ...,
d_S, d_S)`` and image-family matrices ``(n_leg, ..., D, D)``, and returns
arrays; `irreducible_2pt` and `decompose_3pt` call it on the legs that
`superop.lift_legs` lifts at their times, all in one engine call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _blockops
from .dyson import KernelSet
from .images import ImageFamily
from .model import ModelSpec
from .superop import (
    OnePointTrajectory,
    SeriesTruncation,
    chain_contract,
    lift_legs,
    one_point_values,
)


@functools.cache
def _partitions(n: int, k_max: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All partitions of n with 1 <= k <= k_max pairs ``((n_1, m_1), ..., (n_k,
    m_k))``, in lexicographic order, held per ``(n, k_max)``.

    Exhaustive and duplicate-free; any pair beyond k = n + 1 would force a
    zero-order pair in position >= 2, so larger ``k_max`` adds nothing.
    """
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
    return tuple(sorted(found))


@dataclass(frozen=True)
class _SuffixPlan:
    """The suffix tree of the partitions of orders ``0..n_max`` as index arrays.

    ``levels[L - 1]`` holds the suffixes of length L, in the order a walk of
    every partition's suffixes from the longest down first meets them: each
    one's first pair ``(k, 2)`` and the index of its tail, the suffix one pair
    shorter, in level L - 1 (level 0 is the empty suffix alone).  ``firsts``
    holds the distinct first pairs ``(n_first, 2)`` in order of first
    appearance; ``suffixes`` the suffix of every partition, grouped by first
    pair in that order and in partition order within a group, as an index
    into levels 0..n_max concatenated, and ``ends`` where each group ends.
    """

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    firsts: np.ndarray
    suffixes: np.ndarray
    ends: tuple[int, ...]


@functools.cache
def _suffix_plan(n_max: int) -> _SuffixPlan:
    """The `_SuffixPlan` of orders ``0..n_max``, built once per order."""
    follow: dict[tuple[int, int], list] = {}
    for n in range(n_max + 1):
        for p in _partitions(n, n + 1):
            follow.setdefault(p[0], []).append(p[1:])
    suffixes = [suffix for group in follow.values() for suffix in group]
    by_length: dict[int, dict] = {0: {(): 0}}
    for suffix in suffixes:
        while suffix not in by_length.setdefault(len(suffix), {}):
            by_length[len(suffix)][suffix] = len(by_length[len(suffix)])
            suffix = suffix[1:]
    offsets = np.cumsum([0] + [len(by_length[length]) for length in range(n_max + 1)]).tolist()
    levels = tuple(
        (np.array([s[0] for s in by_length[k]]), np.array([by_length[k - 1][s[1:]] for s in by_length[k]]))
        for k in range(1, n_max + 1)
    )
    index = np.array([offsets[len(s)] + by_length[len(s)][s] for s in suffixes])
    ends = tuple(np.cumsum([len(group) for group in follow.values()]).tolist())
    return _SuffixPlan(levels, np.array(list(follow)), index, ends)


class PartitionWords:
    """The partition sum at one time, each distinct inner chain evaluated once.

    The inner value of a suffix (pairs 2..k) is the one-point value wrapped
    innermost first with kernel slot ``n_i`` on the left and the adjoint of
    slot ``m_i`` on the right, each pair contracted with ``rho_B[b_i, a_i]``
    and weighted by ``-i^(n_i - m_i) (lam/hbar)^(n_i + m_i)``.  `image` reads
    the suffix tree of its order from `_suffix_plan`, built once per order:
    it wraps the suffixes one length at a time, each length in one batched
    sandwich and one `frame_trace`, then applies pair 1, bath indices open,
    in full space, to every first pair in one more batched sandwich.  Each
    suffix and word gets the bits of its lone sandwich.
    """

    def __init__(
        self, value: np.ndarray, trunc: SeriesTruncation, ks: KernelSet, rho_b: np.ndarray, row: np.ndarray
    ):
        self.frame = ks.frame
        self.kstack = ks.frame_stack(row)
        self.rho = rho_b
        self.x = trunc.lam / ks.frame.constants.hbar
        self.core = ks.frame.enter(value)

    def _weights(self, n_max: int) -> np.ndarray:
        # i^(n_i - m_i) x^(n_i + m_i) at [n_i, m_i], each a Python complex (numpy's 1j ** array rounds otherwise)
        orders = range(n_max + 1)
        return np.array([[1j ** (n_i - m_i) * self.x ** (n_i + m_i) for m_i in orders] for n_i in orders])

    def _sandwiches(self, pairs: np.ndarray, cores: np.ndarray) -> np.ndarray:
        # K[n_i] (core_i (x) 1_B) K[m_i]^dag in the frame for every pair (n_i, m_i) of ``pairs`` (k, 2):
        # a GEMM by the core on the reshaped stack (the system index is last), then one D x D GEMM apiece
        n, m = pairs.T
        d, ds = self.kstack.shape[-1], cores.shape[-1]
        lifted = (self.kstack[n].reshape(len(n), -1, ds) @ cores).reshape(len(n), d, d)
        return lifted @ self.kstack[m].conj().swapaxes(-1, -2)

    def image(self, n_max: int) -> np.ndarray:
        """The partition sum over all orders ``n <= n_max``, out of the frame.

        The core of each first pair sums the inner values of the partitions
        that start with it, in partition order, and the words are summed in
        order of first appearance.
        """
        plan, weights = _suffix_plan(n_max), self._weights(n_max)
        inner = [self.core[None]]
        for pairs, tails in plan.levels:
            cores = -weights[pairs[:, 0], pairs[:, 1], None, None] * inner[-1][tails]
            inner.append(_blockops.frame_trace(self._sandwiches(pairs, cores), self.rho))
        grouped = np.concatenate(inner)[plan.suffixes]
        # with d_S >= 2 a reduction over the leading axis adds its terms in order (`np.add.reduceat` does not)
        cores = np.stack([np.add.reduce(grouped[a:b]) for a, b in zip((0, *plan.ends), plan.ends)])
        firsts = plan.firsts
        words = self._sandwiches(firsts, weights[firsts[:, 0], firsts[:, 1], None, None] * cores)
        return self.frame.leave_open(np.add.reduce(words))


def expand_image_by_partitions(
    o_s: OnePointTrajectory,
    n_max: int,
    ks: KernelSet,
    rho_b: np.ndarray,
    t: float,
) -> ImageFamily:
    """Image family as the partition sum over all orders n <= n_max.

    Same series as the super-operator route, different bookkeeping; the two
    agree blockwise to rounding at equal order.  Each distinct suffix is
    wrapped once, and pair 1's word runs once per distinct first pair, on
    the sum of the inner values of the partitions that start with it.
    """
    ks.check_order(n_max)
    rows, trunc = ks.eigen_rows([t]), o_s.truncation
    value = one_point_values(o_s.observable, trunc.order, (trunc.lam,), ks, rho_b, rows)[0, 0]
    words = PartitionWords(value, trunc, ks, rho_b, rows[0])
    return ImageFamily(words.image(n_max), ks.dim_bath, t)


def irreducible_2pt(
    m: ModelSpec,
    o1,
    o2,
    t1: float,
    t2: float,
    trunc: SeriesTruncation,
    ks: KernelSet,
) -> np.ndarray:
    """Second-order cumulant ``(O1(t1) O2(t2))_S - O1S(t1) O2S(t2)``."""
    values, lifted = lift_legs(((o1, t1), (o2, t2)), trunc, ks, m.rho_b)
    return cumulant_2pt(values, lifted, m.rho_b)


def cumulant_2pt(values, lifted, rho_b: np.ndarray) -> np.ndarray:
    """``(O1 O2)_S - O1S O2S`` from two legs."""
    return chain_contract(lifted, rho_b) - values[0] @ values[1]


@dataclass(frozen=True)
class ThreePointDecomposition:
    """Cluster decomposition of a three-point reduced operator."""

    disconnected: np.ndarray
    wired_12: np.ndarray
    wired_31: np.ndarray
    wired_23: np.ndarray
    irreducible: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.disconnected + self.wired_12 + self.wired_31 + self.wired_23 + self.irreducible


def decompose_3pt(
    m: ModelSpec,
    o1,
    o2,
    o3,
    t1: float,
    t2: float,
    t3: float,
    trunc: SeriesTruncation,
    ks: KernelSet,
) -> ThreePointDecomposition:
    """Disconnected, pairwise-wired and irreducible parts of a 3-point operator.

    The wired term for a pair keeps the remaining factor's partition trivial
    (its leg restricted to the (0, 0) pair) while preserving the 1-2-3
    operator word order, e.g. ``wired_31 = (O1 O2S O3)_S - O1S O2S O3S``.
    The irreducible part is the third-order cumulant, so the five components
    sum to the full star product identically.
    """
    values, lifted = lift_legs(((o1, t1), (o2, t2), (o3, t3)), trunc, ks, m.rho_b)
    return ThreePointDecomposition(*decompose_3pt_parts(values, lifted, m.rho_b))


def decompose_3pt_parts(values: np.ndarray, lifted: np.ndarray, rho_b: np.ndarray) -> tuple[np.ndarray, ...]:
    """The disconnected, wired 12, 31, 23 and irreducible parts of `decompose_3pt`
    from three legs.  A wired part is the star product with one leg's family
    trivial, ``O_S(t) delta_ab``, less the disconnected part.  A trivial family
    at either end of the chain leaves the bath trace, so wired 12 and 23 are a
    `cumulant_2pt` times the third value; in wired 31 the second value acts on
    the first family's columns, ``X1 (O2S (x) 1_B)``, by a GEMM on a reshape."""
    (v1, v2, v3), (x1, x2, x3) = values, lifted
    disc = v1 @ v2 @ v3
    x12 = x1 @ x2  # the chain of legs 1 and 2, shared by wired 12 and the full chain
    wired_12 = (chain_contract([x12], rho_b) - v1 @ v2) @ v3  # cumulant_2pt of legs 1 and 2, times O3S
    x1_v2 = (v2.swapaxes(-1, -2)[..., None, :, :] @ x1.reshape(*x1.shape[:-1], v2.shape[-1], -1)).reshape(x1.shape)
    wired_31 = chain_contract([x1_v2, x3], rho_b) - disc
    wired_23 = v1 @ cumulant_2pt(values[1:], lifted[1:], rho_b)
    return disc, wired_12, wired_31, wired_23, chain_contract([x12, x3], rho_b) - disc - wired_12 - wired_31 - wired_23
