"""Full-space stacks, their block view and the engine's products against explicit matrices."""

import numpy as np
import pytest

from heisenbath import _blockops


def random_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_layout_entries_and_leading_axes():
    """``blocks[a, b][i, j] == matrix[i * d_B + a, j * d_B + b]``, stacked or not, as a view."""
    rng = np.random.default_rng(1)
    ds, db = 2, 3
    full = random_stack(rng, (4, 2, 6, 6))
    blocks = _blockops.block_view(full, db)
    assert blocks.shape == (4, 2, db, db, ds, ds)
    assert np.shares_memory(blocks, full)
    for a in range(db):
        for b in range(db):
            for i in range(ds):
                for j in range(ds):
                    assert np.array_equal(blocks[..., a, b, i, j], full[..., i * db + a, j * db + b])


def test_identity_family_layout():
    """``value (x) 1_B`` is ``np.kron(value, eye)`` exactly, with leading axes."""
    rng = np.random.default_rng(2)
    value = random_stack(rng, (3, 2, 2))
    out = _blockops.kron_identity(value, 4)
    assert out.shape == (3, 8, 8)
    for k in range(3):
        assert np.array_equal(out[k], np.kron(value[k], np.eye(4)))
    assert np.array_equal(_blockops.kron_identity(np.eye(2), 3), np.eye(6))


@pytest.mark.parametrize("ds,db,k", [(2, 2, 1), (2, 3, 4), (3, 2, 2), (4, 8, 3)])
def test_system_lift_matches_kron_and_block_gemm(ds, db, k):
    """``X (A (x) 1_B)`` to 1e-14 relative, and bitwise the block-layout GEMM
    ``fam.reshape(-1, d_S) @ A``, also on a reversed view of the stack."""
    rng = np.random.default_rng(ds * 10 + db)
    stack = random_stack(rng, (k, ds * db, ds * db))
    a = random_stack(rng, (ds, ds))
    for x in (stack, stack[::-1]):
        out = _blockops.system_lift(x, a)
        ref = x @ np.kron(a, np.eye(db))
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        fam = np.ascontiguousarray(_blockops.block_view(x, db))
        inline = (fam.reshape(-1, ds) @ a).reshape(fam.shape)
        assert np.array_equal(_blockops.block_view(out, db), inline)


def test_engine_products_match_explicit_full_space_matrices():
    """`sandwich_sum` and `bath_trace` against the explicit ``D x D`` products they stand for."""
    rng = np.random.default_rng(3)
    ds, db, k = 2, 3, 4
    d = ds * db
    lefts, rights = random_stack(rng, (k, d, d)), random_stack(rng, (k, d, d))
    rho = random_stack(rng, (db, db))
    out = _blockops.sandwich_sum(lefts, rights)
    assert np.allclose(out, sum(lefts[n] @ rights[n].conj().T for n in range(k)))
    reduced = np.trace((out @ np.kron(np.eye(ds), rho)).reshape(ds, db, ds, db), axis1=1, axis2=3)
    assert np.allclose(_blockops.bath_trace(out, rho), reduced)
    stacked = _blockops.bath_trace(lefts, rho)
    assert stacked.shape == (k, ds, ds)
    for n in range(k):
        assert np.allclose(stacked[n], _blockops.bath_trace(lefts[n], rho))
