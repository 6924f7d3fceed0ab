"""Shared helpers for the test suite."""

import numpy as np
import pytest

import entclass as ec

#: Every class at its smallest valid Clare dimension.
ALL_LABELS = list(ec.ClassLabel)


def natural_n(label) -> int:
    return max(2, label.min_clare_dim)


def rep(label, n=None) -> ec.StateTensor:
    label = ec.ClassLabel.parse(label)
    return ec.representative(label, natural_n(label) if n is None else n)


def svd_rank(m, policy=ec.DEFAULT_POLICY) -> int:
    """Count of singular values of ``m`` above the policy's rank threshold."""
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > policy.rank_threshold(float(s[0]), max(m.shape))))


def compress_clare(psi, target) -> ec.StateTensor:
    """Rotate Clare by the right singular vectors of the flattened state, so
    the support sits on her first levels, then cut or zero-pad to ``target``
    levels: F -> F K^T with K = V^T maps F = U diag(s) V^dagger to U diag(s)."""
    _, _, vh = np.linalg.svd(ec.flatten(psi))
    clare = np.eye(target, psi.dims[2]) @ vh.conj()
    eye = np.eye(2, dtype=complex)
    return ec.apply_local(ec.LocalOperation((eye, eye, clare)), psi)


def random_invertible_op(dims, gen) -> ec.LocalOperation:
    return ec.LocalOperation(tuple(ec.random_sl(k, gen) for k in dims))


def random_noninvertible_op(dims, gen) -> ec.LocalOperation:
    """Random factors with at least one forced rank-deficient."""
    factors = [ec.random_sl(k, gen) for k in dims]
    party = int(gen.integers(0, len(dims)))
    k = dims[party]
    u = ec.random_state((k,), gen).amplitudes
    v = ec.random_state((k,), gen).amplitudes
    factors[party] = np.outer(u, v.conj())
    return ec.LocalOperation(tuple(factors))


def uniform_block_state(dims, party, gen) -> ec.StateTensor:
    """A random state whose party-``party`` block norms are all 1/sqrt(k)."""
    k = dims[party]
    while True:
        psi = ec.random_state(dims, gen)
        a = np.moveaxis(psi.amplitudes, party, 0).copy()
        norms = np.linalg.norm(a.reshape(k, -1), axis=1)
        if norms.min() > 1e-6:
            a /= norms.reshape((k,) + (1,) * (a.ndim - 1)) * np.sqrt(k)
            return ec.StateTensor(dims, np.moveaxis(a, 0, party))


def random_diagonal_pair(k, party, gen) -> ec.PovmPair:
    alphas = gen.uniform(0.0, 1.0, size=k)
    while np.minimum(alphas, np.sqrt(1 - alphas**2)).max() < 1e-7:
        alphas = gen.uniform(0.0, 1.0, size=k)
    betas = np.sqrt(1.0 - alphas**2)
    eye = np.eye(k, dtype=complex)
    return ec.PovmPair(party, eye, eye, eye, tuple(alphas), tuple(betas))


@pytest.fixture
def gen():
    return ec.RandomSource(2024).generator()
