"""The tolerance policy and seeded random sampling.

Every class boundary is decided by one rule on the normalized state's
distance d from it, through a shared TolerancePolicy: d above its one
tolerance is nonzero, d at most 64 eps is zero, and a d between is unresolved.
Random sampling (states, special-linear and unitary factors) is driven by
a pinned counter-based generator with explicit substreams, so any trial
can be replayed from its (seed, stream) pair alone.

RNG pin: numpy's Philox (4x64) keyed directly with (seed, stream). The
key fully determines the stream on every platform and numpy release that
ships Philox, which makes Monte-Carlo aggregates seed-deterministic and
embarrassingly parallel. A generator's state is set to the one
``Philox(key=[seed, stream])`` starts in, so building it reads no OS entropy.
``_lapack``, the library's one route to LAPACK, also draws the QRs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import det as _det, qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced

from .errors import AmbiguityError, FormatError
from .tensor import MAX_LEVELS, StateTensor, _check_int, _checked_dims, _frozen


#: Distances at most this are zero: a few roundoffs of a unit-norm state.
ZERO_FLOOR = 64 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class TolerancePolicy:
    """distance_eps, in (ZERO_FLOOR, 1e-8]: the one tolerance of every
    class-boundary decision."""

    distance_eps: float = 1e-13

    def __post_init__(self):
        if not ZERO_FLOOR < self.distance_eps <= 1e-8:
            raise ValueError(
                f"distance_eps must lie in ({ZERO_FLOOR:.3g}, 1e-8], got {self.distance_eps}"
            )

    def nonzero(self, quantity: str, distance: float) -> bool:
        """Whether ``quantity``, ``distance`` from its class boundary, is nonzero;
        AmbiguityError when float64 cannot tell."""
        if distance > self.distance_eps:
            return True
        if distance <= ZERO_FLOOR:
            return False
        raise AmbiguityError(quantity, distance, (ZERO_FLOOR, self.distance_eps))


DEFAULT_POLICY = TolerancePolicy()


def _check_key(name: str, value) -> int:
    """``value`` as an int in [0, 2**64), or ValueError."""
    if type(value) is not int or not 0 <= value < 2**64:  # one test per engine trial
        if not 0 <= (value := _check_int(name, value)) < 2**64:
            raise ValueError(f"{name} must be a 64-bit unsigned integer")
    return value


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


def _eig_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _qr_failed(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _errstate(fail):
    """The errstate np.linalg sets around a LAPACK gufunc: ``fail`` is called
    when it sets the invalid flag; overflow, division and underflow pass."""
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


def _lapack(gufunc, *operands, signature="D->d", fail=_svd_failed):
    """``gufunc(*operands, signature=signature)`` for one of np.linalg's own
    LAPACK gufuncs under ``_errstate(fail)``: np.linalg's bits and errors,
    without its per-call array, shape and dtype checks, which cost as much as
    the call on the library's small complex inputs. ``fail=None`` sets no
    errstate: the call runs in the caller's, as det does (np.linalg.det sets
    none), as ``invariant_report``'s two SVDs do under one
    ``_errstate(_svd_failed)`` and as ``_haar``'s two QR calls do under one
    ``_errstate(_qr_failed)``; the SVD of R^T R, on a report's first read of
    it, sets its own. ``DensityMatrix``'s one eigendecomposition, which its PSD
    check and ``concurrence`` share, and ``_is_invertible`` keep np.linalg's
    wrapper."""
    if fail is None:
        return gufunc(*operands, signature=signature)
    with _errstate(fail):
        return gufunc(*operands, signature=signature)


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
            _check_key(name, getattr(self, name))

    def generator(self) -> np.random.Generator:
        """The draws of ``Generator(Philox(key=[seed, stream]))``. Like it,
        its ``spawn`` raises TypeError: the seed sequence it holds makes no
        children, so no two generators share spawn state."""
        gen = np.random.Generator(np.random.Philox(_fixed_seed()))
        gen.bit_generator.state = _philox_state(self.seed, self.stream)
        return gen


@functools.cache
def _fixed_seed():
    """A stateless seed sequence, without which Philox reads OS entropy; made
    on first use, so that ``import entclass`` does not import numpy.random."""

    class FixedSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)

    return FixedSeed()


def _philox_state(seed: int, stream: int) -> dict:
    """The state ``Philox(key=[seed, stream])`` starts in, as Python ints,
    which the state setter reads twice as fast as uint64 arrays."""
    return {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [seed, stream]},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _as_generator(rng: RandomSource | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RandomSource):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomSource or numpy Generator, got {type(rng)!r}")


def _check_k(name: str, k: int, low: int) -> None:
    """Raise unless ``name``'s matrix side k is an integer in [low, MAX_LEVELS]."""
    if _check_int(f"{name}'s k", k, FormatError) < low:
        raise FormatError(f"{name} requires k >= {low}, got {k}")
    if k > MAX_LEVELS:
        raise FormatError(f"k={k} exceeds cap {MAX_LEVELS}")


def random_sl(k: int, rng: RandomSource | np.random.Generator) -> np.ndarray:
    """A random k x k complex matrix with determinant 1.

    Entries are standard complex Gaussians rescaled by det**(-1/k) on the
    principal branch; only modulus-type quantities are consumed downstream,
    so the branch choice is immaterial beyond determinism.
    """
    _check_k("random_sl", k, 2)
    gen = _as_generator(rng)
    for _ in range(100):
        m = (gen.standard_normal((k, k)) + 1j * gen.standard_normal((k, k))) / np.sqrt(2)
        det = complex(_lapack(_det, m, signature="D->D", fail=None))
        if abs(det) >= 1e-12:
            return m * det ** (-1.0 / k)
    raise RuntimeError("could not draw a nonsingular matrix in 100 attempts")


def _substreams(seed: int, streams):
    """One generator rekeyed to (seed, s) for each stream s in turn.

    It yields the draws of ``RandomSource(seed, s).generator()``; rekeying one
    Philox on ``_fixed_seed`` is cheaper than building a generator per
    stream. The seed and each stream are checked as ``RandomSource`` does.
    """
    gen = np.random.Generator(np.random.Philox(_fixed_seed()))
    state = _philox_state(_check_key("seed", seed), 0)
    key = state["state"]["key"]
    for stream in streams:
        key[1] = _check_key("stream", stream)
        gen.bit_generator.state = state
        yield gen


def _haar(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from (..., 2, k, k) standard normals, real parts first:
    one QR over the whole stack, as np.linalg.qr makes it, its two gufunc
    calls under one errstate, then the phase fix."""
    z = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / math.sqrt(2.0)
    with _errstate(_qr_failed):
        tau = _lapack(_qr_r_raw, z, signature="D->D", fail=None)  # R into z's upper triangle
        q = _lapack(_qr_reduced, z, tau, signature="DD->D", fail=None)
    d = np.diagonal(z, axis1=-2, axis2=-1).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(k: int, rng: RandomSource | np.random.Generator) -> np.ndarray:
    """A Haar-distributed k x k unitary (Gaussian + QR with phase fix)."""
    _check_k("random_unitary", k, 1)
    return _haar(_as_generator(rng).standard_normal((2, k, k)))


def _draw_state(gen: np.random.Generator, size: int) -> tuple[np.ndarray, float]:
    """One state's draw: 2*size standard normals (real parts, then imaginary
    parts), redrawn while their norm is below 1e-150, and their squared norm.
    ``_normalized`` turns draws and squared norms into states."""
    while True:
        x = gen.standard_normal(2 * size)
        sq = float(x.dot(x))
        if sq > 1e-300:
            return x, sq


def _normalized(x: np.ndarray, sq) -> np.ndarray:
    """The states of (..., 2*size) ``_draw_state`` draws with squared norms
    (...); a stack gives each state the bits of its own draw."""
    x = x / np.sqrt(sq)[..., None]
    size = x.shape[-1] // 2
    return x[..., :size] + 1j * x[..., size:]


def random_state(
    dims, rng: RandomSource | np.random.Generator
) -> StateTensor:
    """A normalized state with i.i.d. complex Gaussian amplitudes.

    Such states are generic: with probability 1 they land in the top class
    for their format.
    """
    dims = _checked_dims(dims)  # a zero dimension would redraw forever
    x, sq = _draw_state(_as_generator(rng), math.prod(dims))
    return _frozen(StateTensor, dims, _normalized(x, sq).reshape(dims))  # a unit draw
