"""Tolerance policy, rank decisions, random samplers."""

import re

import numpy as np
import pytest

import entclass as ec

from conftest import svd_rank


def test_policy_defaults_and_validation():
    # One settable tolerance, in (64 eps, 1e-8].
    assert vars(ec.TolerancePolicy()) == {"distance_eps": 1e-13}
    assert ec.TolerancePolicy(1e-8).distance_eps == 1e-8
    for bad in (0.0, 64 * np.finfo(float).eps, 1.1e-8, 1e-3):
        with pytest.raises(ValueError, match="distance_eps must lie in"):
            ec.TolerancePolicy(distance_eps=bad)


def test_numerical_rank_outer_product(gen):
    u = ec.random_state((5,), gen).amplitudes
    v = ec.random_state((7,), gen).amplitudes
    assert svd_rank(np.outer(u, v.conj())) == 1


def test_numerical_rank_c223_deg_flattening():
    psi = ec.representative("C223_DEG", 3)
    assert svd_rank(psi.amplitudes.reshape(4, -1)) == 3


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


@pytest.mark.parametrize(
    "draw, low",
    [
        (lambda k: ec.random_sl(k, ec.RandomSource(1)), 2),
        (lambda k: ec.random_unitary(k, ec.RandomSource(1)), 1),
        (lambda k: ec.random_povm_pair(k, ec.RandomSource(1)), 2),
        (lambda k: ec.equality_case_povm(k, 0.5), 2),
    ],
    ids=["random_sl", "random_unitary", "random_povm_pair", "equality_case_povm"],
)
def test_matrix_constructors_share_one_k_range(draw, low):
    # Every constructor takes k from low up to the per-party cap MAX_LEVELS.
    draw(low)
    draw(ec.MAX_LEVELS)
    with pytest.raises(ec.FormatError, match=f"requires k >= {low}, got {low - 1}"):
        draw(low - 1)
    with pytest.raises(ec.FormatError, match="k=17 exceeds cap 16"):
        draw(ec.MAX_LEVELS + 1)


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
    numpy_ints = ec.RandomSource(np.uint64(3), np.int32(2)).generator()
    assert numpy_ints.integers(2**62) == ec.RandomSource(3, 2).generator().integers(2**62)


@pytest.mark.parametrize("value", [1.5, 1.0, np.float64(2.0), True, False, "3", np.array(3.0)])
def test_random_source_rejects_non_integral_keys(value):
    # Each of these used to key the stream of the integer int() makes of it.
    for args in ((value,), (0, value)):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {value!r}")):
            ec.RandomSource(*args)
    with pytest.raises(ValueError, match="seed must be an integer"):
        ec.monte_carlo("det222", 12, value)
    with pytest.raises(ValueError, match="stream must be an integer"):
        ec.monotone_trial("det222", 1, value)


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
