"""Block-family layout and products against explicit full-space matrices."""

import numpy as np

from heisenbath import _blockops


def random_family(rng, db, ds, lead=()):
    shape = lead + (db, db, ds, ds)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_identity_family_layout():
    fam = _blockops.identity_family(2, 3)
    assert fam.shape == (3, 3, 2, 2)
    for a in range(3):
        for b in range(3):
            assert np.array_equal(fam[a, b], np.eye(2) if a == b else np.zeros((2, 2)))


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
