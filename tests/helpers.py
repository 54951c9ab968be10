import numpy as np


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_density(rng, n):
    w = rng.random(n) + 0.1
    rho = np.diag(w / w.sum()).astype(complex)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q @ rho @ q.conj().T


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
