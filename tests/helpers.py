import numpy as np


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_density(rng, n):
    w = rng.random(n) + 0.1
    rho = np.diag(w / w.sum()).astype(complex)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q @ rho @ q.conj().T


def projection(alpha, d_s, d_b):
    """``T_alpha = sum_i |i alpha><i|``, embedding the system at bath state alpha:
    the reference for the block convention ``X_ab = T_a^dag X T_b``."""
    t = np.zeros((d_s * d_b, d_s), dtype=complex)
    t[np.arange(d_s) * d_b + alpha, np.arange(d_s)] = 1.0
    return t


# -- the series engine at one coupling and one time --------------------------------
# The engine takes couplings and kernel rows on leading axes; these read its one
# item at one truncation and time, the form in which the tests state their checks.


def one_point_at(o, trunc, ks, rho_b, t):
    """`one_point_values` at the truncation's coupling and the kernel row of ``t``, ``(d_S, d_S)``."""
    from heisenbath.spaces import system_matrix
    from heisenbath.superop import one_point_values

    return one_point_values(system_matrix(o), trunc.order, (trunc.lam,), ks, rho_b, ks.eigen_rows([t]))[0, 0]


def lift_at(value, trunc, ks, rho_b, t):
    """The series inversion ``(d_S, d_S)`` and image family of one one-point value:
    `lift_values` of one leg and coupling at the kernel row of ``t``."""
    from heisenbath.images import ImageFamily
    from heisenbath.spaces import system_matrix
    from heisenbath.superop import lift_values

    value = system_matrix(value)[None, None]
    inverses, mats = lift_values(value, trunc.order, (trunc.lam,), ks, rho_b, ks.eigen_rows([t]))
    return inverses[0, 0], ImageFamily(mats[0, 0], ks.dim_bath, t)


def dressing_at(n, a, t, ks, rho_b=None):
    """The order-n dressing ``P[n] A`` of a system operator: `_dressed` of ``(A,)`` on
    the stack ``i^p S[p]`` of ``t``.  Bath indices open, as a full-space ``(D, D)``
    matrix, or with ``rho_b`` contracted, ``(P[n] A)_ab rho_B[b, a]``, ``(d_S, d_S)``."""
    from heisenbath.superop import _dressed, _factors

    stack = 1j ** np.arange(ks.orders + 1)[:, None, None] * ks.frame_stack(ks.eigen_rows([t])[0])
    dressed = _dressed(*_factors(stack, ks.dim_system, rho_b), (ks.frame.enter(np.asarray(a, dtype=complex)),), n)
    if rho_b is None:
        return ks.frame.leave_open(dressed)
    return ks.frame.leave(dressed)


def rhs_at(traj, t, ks, rho_b):
    """`local_rhs` at a trajectory's value at ``t`` (`one_point_at`) and the kernel row of ``t``, ``(d_S, d_S)``."""
    from heisenbath.superop import local_rhs

    value, trunc = one_point_at(traj.observable, traj.truncation, ks, rho_b, t), traj.truncation
    return local_rhs(value[None], trunc.order, (trunc.lam,), ks, rho_b, ks.eigen_rows([t])[0])[0]


def partition_term(pairs, value, trunc, ks, rho_b, t):
    """The signed word of the partition ``pairs``, bath indices of pair 1 open, as
    an image family, from lone `PartitionWords` sandwiches (`lone_partition_word`)."""
    from heisenbath.images import ImageFamily
    from heisenbath.npoint import PartitionWords

    words = PartitionWords(np.asarray(value, dtype=complex), trunc, ks, rho_b, ks.eigen_rows([t])[0])
    word = lone_partition_word(words, pairs[0], lone_inner_value(words, pairs[1:], {}))
    return ImageFamily(ks.frame.leave_open(word), ks.dim_bath, t)


def _lone_weight(words, pair):
    """``i^(n_i - m_i) x^(n_i + m_i)`` of one pair, as ``(1, 1, 1)``, formed as `PartitionWords` forms it."""
    (n_i, m_i), x = pair, words.x
    return np.array([1j ** (n_i - m_i) * x ** (n_i + m_i)])[:, None, None]


def lone_inner_value(words, suffix, inner: dict):
    """The inner value of ``suffix`` (pairs 2..k of a partition) in the frame,
    wrapped innermost first, each pair by a lone sandwich of ``words`` and a
    lone `frame_trace`; every suffix is formed once and held in ``inner``."""
    from heisenbath import _blockops

    if not suffix:
        return words.core
    if suffix not in inner:
        core = -_lone_weight(words, suffix[0]) * lone_inner_value(words, suffix[1:], inner)[None]
        inner[suffix] = _blockops.frame_trace(words._sandwiches(np.array(suffix[:1]), core), words.rho)[0]
    return inner[suffix]


def lone_partition_word(words, pair, core):
    """Pair 1's word on ``core``, bath indices open, in the frame: one lone sandwich of ``words``."""
    return words._sandwiches(np.array([pair]), _lone_weight(words, pair) * core[None])[0]


# -- pointwise references with no program caller ---------------------------------
# One quantity at one time, written out from its definition: the references that
# the tests hold the package's batched and frame forms against.


def u0(frame, t):
    """``exp(-i H0 t / hbar)`` of an `InteractionFrame`; ``u0(frame, 0)`` is the identity."""
    return (frame.v0 * np.exp(-1j * frame.eps0 * t / frame.constants.hbar)) @ frame.v0.conj().T


def total_hamiltonian(m):
    """``H0 (x) 1 + 1 (x) H_B + lambda * H_I`` on the full space."""
    free = np.kron(m.h0.mat, np.eye(m.dim_bath)) + np.kron(np.eye(m.dim_system), m.hb)
    return free + m.constants.lam * m.hi.mat


def interaction_hamiltonian_images(m, t):
    """The family ``Htilde_ab(t)``; at ``t = 0`` these are the Schrodinger images."""
    from heisenbath.dyson import frame_of
    from heisenbath.images import ImageFamily

    u = np.kron(u0(frame_of(m), t), np.eye(m.dim_bath))
    phases = np.tile(np.exp(-1j * m.bath_gaps * t), (m.dim_system, m.dim_system))
    return ImageFamily((u @ m.hi.mat @ u.conj().T) * phases, m.dim_bath, t)


def heis_stack(ks, t):
    """``K[n](t)`` of a `KernelSet` in the original basis, n = 0..n_max."""
    out = ks.frame_stack(ks.eigen_rows([t])[0])
    out[1:] = ks.frame.leave_open(out[1:])
    return out


def bath_correlation(m, dec, i, j, t, tau):
    """``<S~^i(t) S~^j(t - tau)>_B`` in the working bath basis."""
    delta = m.bath_gaps
    s_i = dec.s[i] * np.exp(-1j * delta * t)
    s_j = dec.s[j] * np.exp(-1j * delta * (t - tau))
    return complex(np.trace(s_i @ s_j @ m.rho_b))


def first_moment(m, dec, i, t):
    """``tr_B{S~^i(t) rho_B}``: the order-lambda contraction that must vanish."""
    s_i = dec.s[i] * np.exp(-1j * m.bath_gaps * t)
    return complex(np.trace(s_i @ m.rho_b))


# -- einsum references for the GEMM series engine -------------------------------
# Direct transcriptions of the sandwich formulas, kept only to check the
# full-space GEMM implementations in `heisenbath.superop` and `heisenbath.npoint`.


def einsum_P_blocks(n, a, kstack):
    """Dyson-derived order-n sandwich ``sum_r i^(n-2r) sum_g K[n-r]_ag A (K[r]_bg)^dag``."""
    return sum(
        1j ** (n - 2 * r) * np.einsum("agij,jk,bgmk->abim", kstack[n - r], a, kstack[r].conj())
        for r in range(n + 1)
    )


def einsum_P_blocks_printed(n, a, kstack):
    """As-displayed order-n sandwich ``sum_r i^(n-2r) sum_g (K[n-r]_ga)^dag A K[r]_gb``."""
    return sum(
        1j ** (n - 2 * r) * np.einsum("gaji,jk,gbkm->abim", kstack[n - r].conj(), a, kstack[r])
        for r in range(n + 1)
    )


def einsum_DtP_S(n, a, kstack, cov_stack, rho):
    """Bath-contracted kernel-derivative super-operator, product rule over both slots."""
    out = 0
    for r in range(n + 1):
        left = np.einsum("agij,jk,bgmk,ba->im", cov_stack[n - r], a, kstack[r].conj(), rho)
        right = np.einsum("agij,jk,bgmk,ba->im", kstack[n - r], a, cov_stack[r].conj(), rho)
        out = out + 1j ** (n - 2 * r) * (left + right)
    return out


def einsum_partition_term(pairs, value, kstack, rho, lam, hbar=1.0):
    """Signed operator word of one even partition, bath indices of pair 1 open."""
    core = value
    for n_i, m_i in pairs[:0:-1]:
        core = np.einsum("agij,jk,bgmk,ba->im", kstack[n_i], core, kstack[m_i].conj(), rho, optimize=True)
    n_1, m_1 = pairs[0]
    blocks = np.einsum("agij,jk,bgmk->abim", kstack[n_1], core, kstack[m_1].conj(), optimize=True)
    n_sum = sum(n for n, _ in pairs)
    m_sum = sum(m for _, m in pairs)
    total = n_sum + m_sum
    return (-1) ** (len(pairs) - 1) * 1j ** (n_sum - m_sum) * (lam / hbar) ** total * blocks


def einsum_one_point(b, kstack, rho, order, lam, hbar=1.0):
    """``sum_n (lam/hbar)^n sum_ab (P[n] B)_ab rho_B[b, a]`` term by term."""
    return sum(
        (lam / hbar) ** n * np.einsum("abij,ba->ij", einsum_P_blocks(n, b, kstack), rho)
        for n in range(order + 1)
    )


def recursive_partition_image(value, n_max, lam, ks, rho, t):
    """The partition sum of `heisenbath.npoint.expand_image_by_partitions` with
    every suffix wrapped by its own sandwich, recursively, and every first
    pair's word formed alone, on the kernels out of the frame
    (`heis_stack`) with system-major arithmetic (`system_lift`,
    `sandwich_sum`, `bath_trace`): an evaluation that shares no product with
    the engine's, and agrees with it to rounding."""
    from heisenbath import _blockops
    from heisenbath.npoint import _partitions

    kstack = heis_stack(ks, t)
    x = lam / ks.frame.constants.hbar
    inner = {(): np.asarray(value, dtype=complex)}

    def weight(n_i, m_i):
        return 1j ** (n_i - m_i) * x ** (n_i + m_i)

    def sandwich(n_i, m_i, core):
        left = system_lift(kstack[n_i : n_i + 1], core)
        return sandwich_sum(left, kstack[m_i : m_i + 1])

    def wrap(suffix):
        if suffix not in inner:
            (n_i, m_i), rest = suffix[0], suffix[1:]
            inner[suffix] = _blockops.bath_trace(sandwich(n_i, m_i, -weight(n_i, m_i) * wrap(rest)), rho)
        return inner[suffix]

    cores = {}
    for n in range(n_max + 1):
        for p in _partitions(n, n + 1):
            cores[p[0]] = cores.get(p[0], 0) + wrap(p[1:])
    return sum(sandwich(*pair, weight(*pair) * core) for pair, core in cores.items())


def per_suffix_partition_image(value, n_max, lam, ks, rho, t):
    """The partition sum of `heisenbath.npoint.expand_image_by_partitions` from
    lone sandwiches of its `PartitionWords`: every suffix wrapped alone
    (`lone_inner_value`), and every first pair's word formed alone
    (`lone_partition_word`), summed in the same order; the batched sum must
    reproduce it bit for bit."""
    from heisenbath.npoint import PartitionWords, _partitions
    from heisenbath.superop import SeriesTruncation

    words = PartitionWords(value, SeriesTruncation(n_max, lam), ks, rho, ks.eigen_rows([t])[0])
    inner, cores = {}, {}
    for n in range(n_max + 1):
        for p in _partitions(n, n + 1):
            cores[p[0]] = cores.get(p[0], 0) + lone_inner_value(words, p[1:], inner)
    return ks.frame.leave_open(sum(lone_partition_word(words, pair, core) for pair, core in cores.items()))


# -- system-major sandwiches for the loop references -------------------------------
# Full-space products in the original basis and its layout ``i * d_B + a``,
# kept only for `recursive_partition_image`: ``X (A (x) 1_B)`` multiplies
# every block ``X_ab`` by ``A`` (`system_lift`), and the k terms of a sandwich
# are one ``(D, kD) @ (kD, D)`` product (`sandwich_sum`).  Both carry leading
# axes, broadcast against each other, and give each leading index the GEMM a
# lone operator and lone stack would get, so a batched call returns the bits
# of its lone calls.


def system_lift(stack: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``X (A (x) 1_B)`` for every matrix ``X`` of stacks ``(..., k, D, D)``.

    Every block ``X_ab`` times the system operator ``a``: each stack is
    copied once into block layout, whose last axis is the column system
    index, so the product is one ``(rows, d_S) @ (d_S, d_S)`` GEMM per
    stack and operator.  The leading axes of the stack and of ``a``
    (``(..., d_S, d_S)``: one operator per coupling, say) broadcast and lead
    the result, ``(..., k, D, D)``; a stack shared by several operators is
    laid out once.
    """
    *slead, k, d, _ = stack.shape
    *alead, ds, _ = a.shape
    db = d // ds
    lead = np.broadcast_shapes(tuple(slead), tuple(alead))
    n, s = len(lead), len(slead)
    # (..., k, i, a, j, b) -> (..., k, a, b, i, j) and back
    laid = stack.reshape(*slead, k, ds, db, ds, db).transpose(*range(s), s, s + 2, s + 4, s + 1, s + 3)
    lifted = laid.reshape(*slead, -1, ds) @ a
    back = (*range(n), n, n + 3, n + 1, n + 4, n + 2)
    return lifted.reshape(*lead, k, db, db, ds, ds).transpose(back).reshape(*lead, k, d, d)


def sandwich_sum(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """``sum_k L_k R_k^dag`` of matrix stacks ``(..., k, D, D)``, leading axes broadcast.

    Each operand is laid out once as the ``(D, kD)`` matrix
    ``[X_0 | ... | X_(k-1)]``, so the sum is a single
    ``(D, kD) @ (kD, D)`` product per leading index; ``rights`` with fewer
    leading axes is laid out once for all of them.
    """
    *lead, k, d, _ = lefts.shape
    n = len(lead)
    left = lefts.transpose(*range(n), n + 1, n, n + 2).reshape(*lead, d, k * d)
    right = np.conj(rights.swapaxes(-3, -2), order="C").reshape(*rights.shape[:-3], d, k * d)
    return left @ right.swapaxes(-1, -2)


# -- dense reference for block upper-triangular Toeplitz rows -------------------
# `heisenbath.dyson` keeps every block-Toeplitz matrix as its first block row;
# the tests check its exponential, product, solve and rows against the dense matrix.


def toeplitz_dense(blocks: np.ndarray) -> np.ndarray:
    """The ``(nD, nD)`` matrix whose first block row is ``blocks``, shape ``(n, D, D)``."""
    n, d, _ = blocks.shape
    r, c = np.triu_indices(n)
    out = np.zeros((n, d, n, d), dtype=blocks.dtype)
    out[r, :, c] = blocks[c - r]
    return out.reshape(n * d, n * d)


# -- line-pair reference for the collapsed Lindblad generator --------------------
# The adjoint Lindblad RHS summed over every pair of Bohr lines, as written in
# the paper, kept only to check the collapsed form in `heisenbath.markov`.


def loop_lindblad_rhs(o, bd, sc, h0, constants, strict_paper=False):
    """``(i/hbar)[H0, O] + (i lam/hbar)^2 sum_{(i,w),(j,w')} J^{ij}(w) {...} + h.c.``,
    one term per pair of (term, line) entries of ``bd.components``."""
    o = np.asarray(o, dtype=complex)
    h0 = np.asarray(h0, dtype=complex)
    hbar, lam = constants.hbar, constants.lam
    out = (1j / hbar) * (h0 @ o) if strict_paper else (1j / hbar) * (h0 @ o - o @ h0)
    pref = (1j * lam / hbar) ** 2
    n, n_w = bd.components.shape[:2]
    for i, k in np.ndindex(n, n_w):
        a_i = bd.components[i, k]
        a_i_dag = a_i.conj().T
        for jj, kp in np.ndindex(n, n_w):
            a_j = bd.components[jj, kp]
            jw = sc.j[i, jj, k]
            out = out + pref * jw * (a_i_dag @ a_j @ o - a_i_dag @ o @ a_j)
            out = out + pref * np.conj(jw) * (o @ a_j.conj().T @ a_i - a_j.conj().T @ o @ a_i)
    return out


# -- loop reference for the hermitian operator basis ------------------------------


def loop_hermitian_basis(n):
    """Orthonormal hermitian basis built element by element: diagonal units,
    then the symmetric and antisymmetric unit of each pair ``i < j``."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[i, j] = s[j, i] = 1.0 / np.sqrt(2)
            basis.append(s)
            a = np.zeros((n, n), dtype=complex)
            a[i, j] = -1j / np.sqrt(2)
            a[j, i] = 1j / np.sqrt(2)
            basis.append(a)
    return np.stack(basis)


# -- the validation suite's series inputs and per-coupling references ------------
# `lift_legs` and `partition_image` form the arrays the error and defect
# helpers of `heisenbath.diagnostics` compare, as `validation_suite` does;
# `loop_validation_errors` is those helpers one coupling at a time, as loops
# over the sweep, kept only to check their array expressions.


def lift_legs(m, obs, ks, order, times, lams):
    """One-point values, series inversions and image-family matrices of ``obs`` at
    ``times``, each ``(n_leg, n_lam, ...)``, in one engine call for the sweep ``lams``."""
    from heisenbath.spaces import system_matrix
    from heisenbath.superop import lift_observable

    rows = ks.eigen_rows(np.array(times, dtype=float))
    return lift_observable(system_matrix(obs), order, tuple(lams), ks, m.rho_b, rows)


def partition_image(value, n_max, lam, ks, rho_b, row):
    """The partition sum ``(D, D)`` over orders ``n <= n_max`` of a one-point value ``(d_S, d_S)``
    at the coupling ``lam``, at the time whose kernel row is ``row``."""
    from heisenbath.npoint import PartitionWords
    from heisenbath.superop import SeriesTruncation

    return PartitionWords(value, SeriesTruncation(n_max, lam), ks, rho_b, row).image(n_max)


def loop_validation_errors(m, obs, ks, lifts, images, times, lams, exact, lam):
    """Every error list and defect of a suite at ``times = (t1, t2, t)``, the
    lists one coupling of ``lams`` at a time and the defects at ``lam``.
    ``lifts[n]`` holds the values, inversions and family matrices ``(3, n_lam,
    ...)`` of order n at ``times`` for n = 0..order+1, ``images[n]`` the
    order-n partition image at ``t`` and ``lam``, and ``exact`` is the exact
    sweep ``(n_lam, 3, D, D)`` at ``times``.  Each coupling is read from the
    shared arrays and every bath trace, chain and product is formed for that
    coupling alone."""
    from heisenbath import _blockops
    from heisenbath.superop import local_rhs, one_point_values

    rho, order = m.rho_b, len(lifts) - 2
    t = times[2]

    def at(n, k, leg):  # one coupling and leg of a shared lift: value, inversion, family
        values, inverses, mats = lifts[n]
        return values[leg, k], inverses[leg, k], mats[leg, k]

    def trace(x):
        return _blockops.bath_trace(x, rho)

    def chain(mats):
        prod = mats[0]
        for x in mats[1:]:
            prod = prod @ x
        return trace(prod)

    def max_abs(x):
        return float(np.max(np.abs(x)))

    free = ks.frame.free_conjugate(np.asarray(obs, dtype=complex), t)
    step = 1e-5 * max(1.0, t)
    rows = ks.eigen_rows(np.array([t + step, t - step]))
    out = {key: [] for key in ("one_point", "star_n2", "star_n3", "image", "roundtrip", "cumulant2", "rhs_fd")}
    for k, (lam_, x) in enumerate(zip(lams, exact)):
        value, inverse, mat = at(order, k, 2)
        (v1, _, f1), (v2, _, f2) = at(order, k, 0), at(order, k, 1)
        out["one_point"].append(max_abs(value - trace(x[2])))
        out["star_n2"].append(max_abs(chain([f1, f2]) - trace(x[0] @ x[1])))
        out["star_n3"].append(max_abs(chain([f1, f2, mat]) - trace(x[0] @ x[1] @ x[2])))
        out["image"].append(max_abs(mat - x[2]))
        out["roundtrip"].append(max_abs(inverse - free))
        out["cumulant2"].append(max_abs((chain([f1, f2]) - v1 @ v2) - (trace(x[0] @ x[1]) - trace(x[0]) @ trace(x[1]))))
        rhs = local_rhs(value[None], order, (lam_,), ks, rho, ks.eigen_rows([t])[0])[0]
        plus, minus = one_point_values(obs, order, (lam_,), ks, rho, rows)[0]
        out["rhs_fd"].append(max_abs(rhs - (plus - minus) / (2 * step)))
    k = lams.index(lam)
    for n, parts in enumerate(images):
        out[f"cancellation_n{n}"] = max_abs(trace(parts) - at(n, k, 2)[0])
        out[f"dual_bookkeeping_n{n}"] = max_abs(parts - at(n, k, 2)[2])
    v, _, f = zip(*(at(order, k, leg) for leg in range(3)))
    disc, d = v[0] @ v[1] @ v[2], len(f[0])
    x1_v2 = (v[1].T @ f[0].reshape(d, len(v[1]), -1)).reshape(d, d)  # f[0] (v[1] (x) 1_B)
    wired = [(chain([f[0], f[1]]) - v[0] @ v[1]) @ v[2], chain([x1_v2, f[2]]) - disc]
    wired.append(v[0] @ (chain([f[1], f[2]]) - v[1] @ v[2]))
    irreducible = chain(f) - disc - wired[0] - wired[1] - wired[2]
    out["decompose_3pt_sum"] = max_abs(disc + wired[0] + wired[1] + wired[2] + irreducible - chain(f))
    return out
