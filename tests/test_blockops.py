"""Full-space stacks, their block view, the bath traces of both layouts and the
test references' system-major products against explicit matrices."""

import numpy as np
import pytest

from heisenbath import _blockops
from helpers import sandwich_sum, system_lift


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


@pytest.mark.parametrize("ds,db,k", [(2, 2, 1), (2, 3, 4), (3, 2, 2), (4, 8, 3)])
def test_system_lift_matches_kron_and_block_gemm(ds, db, k):
    """``X (A (x) 1_B)`` to 1e-14 relative, and bitwise the block-layout GEMM
    ``fam.reshape(-1, d_S) @ A``, also on a reversed view of the stack."""
    rng = np.random.default_rng(ds * 10 + db)
    stack = random_stack(rng, (k, ds * db, ds * db))
    a = random_stack(rng, (ds, ds))
    for x in (stack, stack[::-1]):
        out = system_lift(x, a)
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
    out = sandwich_sum(lefts, rights)
    assert np.allclose(out, sum(lefts[n] @ rights[n].conj().T for n in range(k)))
    reduced = np.trace((out @ np.kron(np.eye(ds), rho)).reshape(ds, db, ds, db), axis1=1, axis2=3)
    assert np.allclose(_blockops.bath_trace(out, rho), reduced)
    stacked = _blockops.bath_trace(lefts, rho)
    assert stacked.shape == (k, ds, ds)
    for n in range(k):
        assert np.allclose(stacked[n], _blockops.bath_trace(lefts[n], rho))
    # the frame's index a * d_S + i is the permutation of i * d_B + a
    perm = np.arange(d).reshape(ds, db).T.ravel()
    framed = out[perm][:, perm]
    assert np.allclose(_blockops.frame_trace(framed, rho), reduced)
    assert np.allclose(_blockops.frame_trace(np.kron(rho, np.eye(ds)) @ framed, np.eye(db)), reduced)


@pytest.mark.parametrize("ds,db", [(2, 2), (2, 3), (3, 2), (4, 8)])
def test_batched_calls_equal_lone_calls(ds, db):
    """Stacks with a leading axis (one per leg or partition suffix) against
    operators with one or two leading axes (legs, then couplings): every
    index gets the bits of its lone `system_lift`, `sandwich_sum`,
    `bath_trace` and `frame_trace`."""
    rng = np.random.default_rng(ds * 10 + db + 7)
    d, k, legs, lams = ds * db, 3, 4, 2
    stacks = random_stack(rng, (legs, k, d, d))
    rights = random_stack(rng, (legs, k, d, d))
    per_leg = random_stack(rng, (legs, ds, ds))
    per_leg_and_coupling = random_stack(rng, (legs, lams, ds, ds))
    rho = random_stack(rng, (db, db))
    lifted = system_lift(stacks, per_leg)
    summed = sandwich_sum(lifted, rights)
    traced = _blockops.bath_trace(summed, rho)
    framed = _blockops.frame_trace(summed, rho)
    swept = sandwich_sum(system_lift(stacks[:, None], per_leg_and_coupling), rights[:, None])
    assert lifted.shape == (legs, k, d, d) and swept.shape == (legs, lams, d, d)
    for n in range(legs):
        lone = system_lift(stacks[n], per_leg[n])
        assert np.array_equal(lifted[n], lone)
        assert np.array_equal(summed[n], sandwich_sum(lone, rights[n]))
        assert np.array_equal(traced[n], _blockops.bath_trace(summed[n], rho))
        assert np.array_equal(framed[n], _blockops.frame_trace(summed[n], rho))
        for j in range(lams):
            lone = system_lift(stacks[n], per_leg_and_coupling[n, j])
            assert np.array_equal(swept[n, j], sandwich_sum(lone, rights[n]))
