"""The tolerance policy and seeded random sampling.

Every rank and zero decision in the library flows through a shared
TolerancePolicy: class boundaries are exactly the loci where tolerances
bite, so a single knob keeps misclassification reproducible and tunable.
Random sampling (states, special-linear and unitary factors) is driven by
a pinned counter-based generator with explicit substreams, so any trial
can be replayed from its (seed, stream) pair alone.

RNG pin: numpy's Philox (4x64) keyed directly with (seed, stream). The
key fully determines the stream on every platform and numpy release that
ships Philox, which makes Monte-Carlo aggregates seed-deterministic and
embarrassingly parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .tensor import StateTensor

#: Largest matrix side handled by this module (and by the library overall).
MAX_MATRIX_DIM = 16


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds for treating computed quantities as zero.

    rank_rel_eps: singular values below rank_rel_eps * s_max * max_dim count
        as zero when ranks are taken.
    det_rel_eps: a determinant-type invariant of homogeneity degree d counts
        as zero below det_rel_eps * norm(psi)**d, which makes the test
        scale-free.
    """

    rank_rel_eps: float = 1e-9
    det_rel_eps: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel_eps", "det_rel_eps"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-3):
                raise ValueError(f"{name} must lie in (0, 1e-3), got {value}")

    def rank_threshold(self, s_max: float, max_dim: int) -> float:
        return self.rank_rel_eps * s_max * max_dim

    def det_threshold(self, norm: float, degree: int) -> float:
        return self.det_rel_eps * norm**degree


DEFAULT_POLICY = TolerancePolicy()


@dataclass(frozen=True)
class RandomSource:
    """A reproducible random stream identified by (seed, stream).

    Identical pairs reproduce identical draws across runs and platforms.
    Streams form a flat namespace: drivers give each trial its own stream id
    and draw everything the trial needs from that one generator.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if not (0 <= int(value) < 2**64):
                raise ValueError(f"{name} must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng: RandomSource | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RandomSource):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomSource or numpy Generator, got {type(rng)!r}")


def random_sl(k: int, rng: RandomSource | np.random.Generator) -> np.ndarray:
    """A random k x k complex matrix with determinant 1.

    Entries are standard complex Gaussians rescaled by det**(-1/k) on the
    principal branch; only modulus-type quantities are consumed downstream,
    so the branch choice is immaterial beyond determinism.
    """
    if k < 2:
        raise FormatError(f"random_sl requires k >= 2, got {k}")
    if k > MAX_MATRIX_DIM:
        raise FormatError(f"k={k} exceeds cap {MAX_MATRIX_DIM}")
    gen = _as_generator(rng)
    for _ in range(100):
        m = (gen.standard_normal((k, k)) + 1j * gen.standard_normal((k, k))) / np.sqrt(2)
        det = complex(np.linalg.det(m))
        if abs(det) >= 1e-12:
            return m * det ** (-1.0 / k)
    raise RuntimeError("could not draw a nonsingular matrix in 100 attempts")


def _substreams(seed: int, streams):
    """One generator rekeyed to (seed, s) for each stream s in turn.

    It yields the draws of ``RandomSource(seed, s).generator()``; resetting
    the key of one Philox is cheaper than building a generator per stream.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    state = bit_generator.state
    state["state"]["key"] = key
    gen = np.random.Generator(bit_generator)
    for stream in streams:
        key[1] = stream
        bit_generator.state = state
        yield gen


def _haar(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from (..., 2, k, k) standard normals, real parts first:
    one QR over the whole stack, then the phase fix."""
    z = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(k: int, rng: RandomSource | np.random.Generator) -> np.ndarray:
    """A Haar-distributed k x k unitary (Gaussian + QR with phase fix)."""
    if k < 1:
        raise FormatError(f"random_unitary requires k >= 1, got {k}")
    if k > MAX_MATRIX_DIM:
        raise FormatError(f"k={k} exceeds cap {MAX_MATRIX_DIM}")
    return _haar(_as_generator(rng).standard_normal((2, k, k)))


def _draw_state(gen: np.random.Generator, size: int) -> np.ndarray:
    """One state's draw: 2*size standard normals (real parts, then imaginary
    parts), redrawn while their norm is below 1e-150, then normalized."""
    while True:
        x = gen.standard_normal(2 * size)
        sq = float(x @ x)
        if sq > 1e-300:
            x /= math.sqrt(sq)
            return x[:size] + 1j * x[size:]


def random_state(
    dims, rng: RandomSource | np.random.Generator
) -> StateTensor:
    """A normalized state with i.i.d. complex Gaussian amplitudes.

    Such states are generic: with probability 1 they land in the top class
    for their format.
    """
    dims = tuple(int(k) for k in dims)
    return StateTensor(dims, _draw_state(_as_generator(rng), math.prod(dims)))
