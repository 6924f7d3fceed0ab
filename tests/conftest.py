"""Shared helpers for the test suite."""

import math

import numpy as np
import pytest

import entclass as ec

#: Every class at its smallest valid Clare dimension.
ALL_LABELS = list(ec.ClassLabel)


def natural_n(label) -> int:
    return max(2, label.min_clare_dim)


def rep(label, n=None) -> ec.StateTensor:
    return ec.representative(label, n)


#: Largest real or imaginary parts at both ends of the float range: the
#: smallest subnormal, two more subnormals, and two whose 2-norms overflow.
EDGE_SCALES = [5e-324, 1e-310, 5.5e-309, 1.5e308, 1.5e308 + 1.5e308j]


def pattern(label) -> np.ndarray:
    """The 0/1 amplitudes of a class representative. Scaling the representative
    itself by 5e-324 would round its 1/sqrt(2) and 1/2 entries to other states."""
    return (rep(label).amplitudes != 0) * 1.0


def mantissa(scale) -> tuple[complex, int]:
    """``(m, e)`` with ``scale == m * 2**e`` and m's largest part in [0.5, 1)."""
    e = math.frexp(max(abs(scale.real), abs(scale.imag)))[1]
    return complex(math.ldexp(scale.real, -e), math.ldexp(scale.imag, -e)), e


def times_two_to(x: float, e: int) -> float:
    """``x * 2**e``, inf above the float range."""
    return math.ldexp(x, e) if math.frexp(x)[1] + e <= 1024 else math.inf


def svd_rank(m, policy=ec.DEFAULT_POLICY) -> int:
    """Count of singular values of ``m`` / ||m|| above the policy's tolerance,
    the rank the library takes on a normalized state."""
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s / np.linalg.norm(s) > policy.distance_eps))


def compress_clare(psi, target) -> ec.StateTensor:
    """Rotate Clare by the right singular vectors of the flattened state, so
    the support sits on her first levels, then cut or zero-pad to ``target``
    levels: F -> F K^T with K = V^T maps F = U diag(s) V^dagger to U diag(s)."""
    _, _, vh = np.linalg.svd(psi.amplitudes.reshape(4, -1))
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
