"""Block-family layout and products against explicit full-space matrices."""

import numpy as np

from heisenbath import _blockops


def random_family(rng, db, ds, lead=()):
    shape = lead + (db, db, ds, ds)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_identity_family_layout():
    fam = _blockops.delta_family(np.eye(2), 3)
    assert fam.shape == (3, 3, 2, 2)
    for a in range(3):
        for b in range(3):
            assert np.array_equal(fam[a, b], np.eye(2) if a == b else np.zeros((2, 2)))
    value = random_family(np.random.default_rng(2), 1, 2)[0, 0]
    assert np.array_equal(_blockops.fam_to_full(_blockops.delta_family(value, 3)), np.kron(value, np.eye(3)))


def test_fam_mul_matches_full_space_product():
    rng = np.random.default_rng(0)
    f, g = random_family(rng, 3, 2), random_family(rng, 3, 2)
    out = _blockops.fam_mul(f, g)
    full_f = f.transpose(2, 0, 3, 1).reshape(6, 6)
    full_g = g.transpose(2, 0, 3, 1).reshape(6, 6)
    expected = (full_f @ full_g).reshape(2, 3, 2, 3).transpose(1, 3, 0, 2)
    assert np.allclose(out, expected)


def test_layout_entries_and_leading_axes():
    """``full[i * d_B + a, j * d_B + b] = fam[a, b][i, j]``, stacked or not."""
    rng = np.random.default_rng(1)
    ds, db = 2, 3
    stack = random_family(rng, db, ds, lead=(4, 2))
    full = _blockops.fam_to_full(stack)
    assert full.shape == (4, 2, 6, 6)
    for a in range(db):
        for b in range(db):
            for i in range(ds):
                for j in range(ds):
                    assert np.array_equal(full[..., i * db + a, j * db + b], stack[..., a, b, i, j])
    assert np.array_equal(_blockops.full_to_fam(full, ds, db), stack)


def test_engine_products_match_explicit_full_space_matrices():
    """`system_lift`, `sandwich_sum`, `bath_trace` and `fam_adjoint` against
    the explicit ``D x D`` matrices they stand for."""
    rng = np.random.default_rng(2)
    ds, db, k = 2, 3, 4
    lefts, rights = random_family(rng, db, ds, lead=(k,)), random_family(rng, db, ds, lead=(k,))
    a = rng.normal(size=(ds, ds)) + 1j * rng.normal(size=(ds, ds))
    rho = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
    full_l, full_r = _blockops.fam_to_full(lefts), _blockops.fam_to_full(rights)
    lifted = _blockops.fam_to_full(_blockops.system_lift(lefts, a))
    assert np.allclose(lifted, full_l @ np.kron(a, np.eye(db)))
    expected = sum(full_l[n] @ full_r[n].conj().T for n in range(k))
    out = _blockops.sandwich_sum(lefts, rights)
    assert np.allclose(out, expected)
    reduced = np.trace((out @ np.kron(np.eye(ds), rho)).reshape(ds, db, ds, db), axis1=1, axis2=3)
    assert np.allclose(_blockops.bath_trace(out, rho, ds, db), reduced)
    assert np.allclose(_blockops.fam_to_full(_blockops.fam_adjoint(lefts)), full_l.conj().swapaxes(-1, -2))
