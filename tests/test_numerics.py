"""Tolerance policy, rank decisions, random samplers."""

import numpy as np
import pytest

import entclass as ec

from conftest import svd_rank


def test_policy_defaults_and_validation():
    policy = ec.TolerancePolicy()
    assert policy.rank_rel_eps == 1e-9
    assert policy.det_rel_eps == 1e-10
    with pytest.raises(ValueError):
        ec.TolerancePolicy(rank_rel_eps=0.0)
    with pytest.raises(ValueError):
        ec.TolerancePolicy(det_rel_eps=1e-2)


def test_numerical_rank_outer_product(gen):
    u = ec.random_state((5,), gen).amplitudes
    v = ec.random_state((7,), gen).amplitudes
    assert svd_rank(np.outer(u, v.conj())) == 1


def test_numerical_rank_c223_deg_flattening():
    psi = ec.representative("C223_DEG", 3)
    assert svd_rank(ec.flatten(psi)) == 3


def test_numerical_rank_unitary_invariance(gen):
    for _ in range(1000):
        p = int(gen.integers(2, 8))
        q = int(gen.integers(2, 8))
        r = int(gen.integers(1, min(p, q) + 1))
        a = gen.standard_normal((p, r)) + 1j * gen.standard_normal((p, r))
        b = gen.standard_normal((r, q)) + 1j * gen.standard_normal((r, q))
        m = a @ b
        rank = svd_rank(m)
        rotated = ec.random_unitary(p, gen) @ m @ ec.random_unitary(q, gen)
        assert svd_rank(rotated) == rank


def test_random_sl_unit_determinant(gen):
    for k in (2, 3, 4, 8):
        m = ec.random_sl(k, gen)
        assert abs(np.linalg.det(m) - 1.0) < 1e-10


def test_random_sl_distinct_seeds_differ():
    a = ec.random_sl(2, ec.RandomSource(1))
    b = ec.random_sl(2, ec.RandomSource(2))
    assert not np.allclose(a, b)


def test_random_sl_group_closure(gen):
    m = ec.random_sl(3, gen) @ ec.random_sl(3, gen)
    assert abs(np.linalg.det(m) - 1.0) < 1e-9


def test_random_unitary_scalar_case(gen):
    u = ec.random_unitary(1, gen)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_random_unitary_orthonormal_and_unimodular(gen):
    for k in (2, 3, 4, 7):
        u = ec.random_unitary(k, gen)
        assert np.abs(u.conj().T @ u - np.eye(k)).max() < 1e-10
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_random_state_reproducible():
    a = ec.random_state((2, 2, 4), ec.RandomSource(99, 5))
    b = ec.random_state((2, 2, 4), ec.RandomSource(99, 5))
    assert a.allclose(b)
    c = ec.random_state((2, 2, 4), ec.RandomSource(99, 6))
    assert not a.allclose(c)


def test_random_source_substream():
    with pytest.raises(ValueError):
        ec.RandomSource(-1)


def test_random_state_bipartite_schmidt_rank(gen):
    for _ in range(200):
        psi = ec.random_state((2, 2), gen)
        assert svd_rank(psi.amplitudes.reshape(2, 2)) == 2


def test_random_state_lands_in_generic_class():
    hits = 0
    trials = 1000
    for t in range(trials):
        psi = ec.random_state((2, 2, 4), ec.RandomSource(31, t))
        if ec.classify(psi)[0] == ec.ClassLabel.GEN224:
            hits += 1
    assert hits >= 999
