"""Dense multipartite pure-state tensors and local filtering operations.

A state lives on an l-partite Hilbert space with per-party dimensions
(k_1, ..., k_l); its amplitudes form a dense complex array with one axis
per party, indexed in the computational basis. Local operations act one
matrix per party; invertible factors realize SLOCC equivalence, while
rank-deficient or rectangular factors realize the one-way conversions
that order the classes.

Party indices are 0-based throughout the library. Reports at the CLI
boundary translate to the 1-based convention (r1, r2, r3).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AnnihilationError,
    FormatError,
    NormalizationError,
    ZeroStateError,
)
from .labels import ClassLabel

#: Per-party dimension cap. Everything the classifier needs fits in n <= 4;
#: the cap keeps dense storage trivially small and makes typos fail loudly.
MAX_LEVELS = 16

_NORM_ATOL = 1e-12
_INVERTIBLE_REL_EPS = 1e-9


def _as_factor(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise FormatError(f"local factor must be a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise FormatError("local factor contains non-finite entries")
    m = m.copy()
    m.setflags(write=False)
    return m


def _check_int(name: str, value, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int, or ``error`` naming it. A float, bool, string or
    array would otherwise act as the integer that int() makes of it."""
    if isinstance(value, (bool, np.ndarray)) or not hasattr(type(value), "__index__"):
        raise error(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _checked_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(_check_int("a party dimension", k, FormatError) for k in dims)
    if len(dims) < 1 or any(k < 1 for k in dims):
        raise FormatError(f"invalid dims {dims}")
    if any(k > MAX_LEVELS for k in dims):
        raise FormatError(f"dims {dims} exceed the per-party cap {MAX_LEVELS}")
    return dims


def _is_invertible(matrix: np.ndarray) -> bool:
    rows, cols = matrix.shape
    if rows != cols:
        return False
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals[0] == 0.0:
        return False
    return bool(svals[-1] > _INVERTIBLE_REL_EPS * svals[0] * rows)


def _scaled_norm(amplitudes: np.ndarray) -> tuple[np.ndarray, float, float, float, int]:
    """``(scaled, rest, norm, m, e)``: the C-contiguous complex amplitudes times the
    power of two putting their largest real or imaginary part in [0.5, 1) (no sum of
    squares over- or underflows, for subnormal parts too), its 2-norm, and the 2-norm
    of the amplitudes: a float (inf above the range) and ``m * 2**e``, 0.5 <= m < 1."""
    parts = amplitudes.view(float)
    e = math.frexp(float(np.abs(parts).max()))[1]
    scaled = np.ldexp(parts, -e).view(complex)
    x = scaled.ravel()  # np.linalg.norm's sum; raveling the parts would move bits
    rest = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    m, shift = math.frexp(rest)
    e += shift
    return scaled, rest, math.ldexp(m, e) if e <= 1024 else math.inf, m, e


def _unit_and_norm(amplitudes: np.ndarray) -> tuple[np.ndarray, float]:
    """``(unit, norm)``: the amplitudes over their 2-norm, and the norm."""
    scaled, rest, norm = _scaled_norm(amplitudes)[:3]
    return scaled / rest, norm


def _check_values(amps: np.ndarray) -> None:
    if not np.isfinite(amps).all():
        raise FormatError("amplitudes contain non-finite entries")
    if not amps.any():
        raise ZeroStateError("the zero tensor is not a state")


def _frozen(cls, size, array: np.ndarray):
    """A ``StateTensor`` (dims ``size``) or ``DensityMatrix`` (dim ``size``) around a fresh
    complex array its caller owns, frozen in place. The constructors check outside input;
    a value built in-house is checked only for the faults its construction can produce."""
    array.setflags(write=False)
    value = object.__new__(cls)
    vars(value).update(zip(cls.__dataclass_fields__, (size, array)))
    return value


@dataclass(frozen=True, eq=False)
class StateTensor:
    """A pure state: per-party dimensions and a dense complex amplitude array.

    The amplitude array is stored row-major with shape equal to ``dims`` and
    frozen after construction. The zero tensor is rejected; normalization is
    explicit (``normalize``) because classification and the polynomial
    invariants are scale-covariant and exact integer amplitudes are useful.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _checked_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != dims:
            if amps.size == math.prod(dims):
                amps = amps.reshape(dims)
            else:
                raise FormatError(
                    f"amplitude array of size {amps.size} does not fill dims {dims}"
                )
        _check_values(amps)
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def party_count(self) -> int:
        return len(self.dims)

    @property
    def norm(self) -> float:
        """The 2-norm of the amplitudes; inf only where it is above the float range."""
        return _scaled_norm(self.amplitudes)[2]

    # The norm is squared by multiplication: a huge norm gives inf, where
    # ``**`` would raise OverflowError.
    def is_normalized(self, atol: float = _NORM_ATOL) -> bool:
        norm = self.norm
        return abs(norm * norm - 1.0) <= atol

    def normalize(self) -> "StateTensor":
        # The unit array is fresh, finite, nonzero and of this shape (the scaling is
        # exact and the norm it divides by is >= 1/2): frozen, not validated again.
        return _frozen(StateTensor, self.dims, _unit_and_norm(self.amplitudes)[0])

    def require_normalized(self) -> None:
        """Raise unless the squared norm is within 1e-9 of 1."""
        if not self.is_normalized(1e-9):
            norm = self.norm
            raise NormalizationError(
                f"state has squared norm {norm * norm:.6g}, expected 1"
            )

    def allclose(self, other: "StateTensor", atol: float = 1e-12) -> bool:
        return self.dims == other.dims and bool(
            np.allclose(self.amplitudes, other.amplitudes, atol=atol)
        )

    def __repr__(self) -> str:
        nnz = int(np.count_nonzero(self.amplitudes))
        return f"StateTensor(dims={self.dims}, nonzero={nnz}, norm={self.norm:.6g})"


@dataclass(frozen=True, eq=False)
class LocalOperation:
    """One matrix per party, applied as a tensor product.

    Factor i has shape (k_i', k_i): the output dimension may differ from the
    input dimension (rectangular Clare-side maps). The invertibility flag of
    each factor is computed on first read of ``invertible`` and kept; a factor
    is invertible iff it is square with full numerical rank.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(_as_factor(m) for m in self.factors))

    @cached_property
    def invertible(self) -> tuple[bool, ...]:
        return tuple(_is_invertible(m) for m in self.factors)

    @property
    def party_count(self) -> int:
        return len(self.factors)

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "LocalOperation":
        return cls(tuple(np.eye(k, dtype=complex) for k in _checked_dims(dims)))

    @classmethod
    def single_party(cls, dims: Sequence[int], party: int, matrix) -> "LocalOperation":
        """Embed one factor at ``party`` (0-based), identity elsewhere."""
        factors = [np.eye(k, dtype=complex) for k in _checked_dims(dims)]
        if not 0 <= _check_int("party", party, FormatError) < len(factors):
            raise FormatError(f"party {party} out of range for {len(factors)} parties")
        factors[party] = np.asarray(matrix, dtype=complex)
        return cls(tuple(factors))

    def after(self, other: "LocalOperation") -> "LocalOperation":
        """The composition self∘other (``other`` acts first)."""
        if self.party_count != other.party_count:
            raise FormatError("cannot compose operations on different party counts")
        composed = []
        for mine, theirs in zip(self.factors, other.factors):
            if mine.shape[1] != theirs.shape[0]:
                raise FormatError(
                    f"factor shapes {mine.shape} and {theirs.shape} do not chain"
                )
            with np.errstate(over="ignore", invalid="ignore"):  # _as_factor rejects non-finite
                composed.append(mine @ theirs)
        return LocalOperation(tuple(composed))

    def __repr__(self) -> str:
        shapes = ", ".join(f"{m.shape[0]}x{m.shape[1]}" for m in self.factors)
        return f"LocalOperation({shapes}, invertible={self.invertible})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, positive semidefinite."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        dim = _check_int("density matrix dimension", self.dim, FormatError)
        rho = np.asarray(self.entries, dtype=complex)
        if rho.shape != (dim, dim):
            raise FormatError(f"density matrix shape {rho.shape} != ({dim}, {dim})")
        tol = 1e-12 * max(1.0, float(np.abs(rho).max()))
        if (deviation := np.abs(rho - rho.conj().T).max()) > tol:
            raise FormatError(
                "density matrix is not Hermitian within tolerance: "
                f"max |rho - rho^H| = {deviation:.6g} > {tol:.6g}"
            )
        if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-12:
            raise FormatError(f"density matrix trace {np.trace(rho):.6g} != 1")
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", rho)
        if (lowest := self._eigh[0][0]) < -1e-10:
            raise FormatError(f"density matrix has a negative eigenvalue: {lowest:.6g} < -1e-10")

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.entries)


def make_state(
    dims: Sequence[int],
    entries: Iterable[tuple[Sequence[int], complex]] | dict,
) -> StateTensor:
    """Build a state from sparse (index tuple, amplitude) entries.

    Unspecified amplitudes are zero. The result is NOT normalized; callers
    normalize explicitly. Duplicate index tuples, out-of-range indices, and
    all-zero amplitude sets are rejected.
    """
    dims = _checked_dims(dims)  # before the dense array is allocated
    if isinstance(entries, dict):
        entries = entries.items()
    amps = np.zeros(dims, dtype=complex)
    seen: set[tuple[int, ...]] = set()
    for index, value in entries:
        idx = tuple(
            i if type(i) is int else _check_int("an index entry", i, FormatError)
            for i in index
        )
        if len(idx) != len(dims):
            raise FormatError(f"index {idx} has wrong arity for dims {dims}")
        if any(i < 0 or i >= k for i, k in zip(idx, dims)):
            raise FormatError(f"index {idx} out of range for dims {dims}")
        if idx in seen:
            raise FormatError(f"duplicate index tuple {idx}")
        seen.add(idx)
        amps[idx] = complex(value)
    _check_values(amps)
    return _frozen(StateTensor, dims, amps)


_SQRT2 = math.sqrt(2.0)

#: Representative states of the nine classes, as sparse patterns on (2, 2, n).
_REPRESENTATIVE_PATTERNS: dict[ClassLabel, tuple[tuple[tuple[int, int, int], complex], ...]] = {
    ClassLabel.SEP: (((0, 0, 0), 1),),
    ClassLabel.B1: (((0, 0, 1), 1), ((0, 1, 0), 1)),
    ClassLabel.B2: (((0, 0, 1), 1), ((1, 0, 0), 1)),
    ClassLabel.B3: (((0, 1, 0), 1), ((1, 0, 0), 1)),
    ClassLabel.W: (((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 0), 1)),
    ClassLabel.GHZ: (((0, 0, 0), 1), ((1, 1, 1), 1)),
    ClassLabel.C223_DEG: (((0, 0, 0), 1), ((0, 1, 1), 1), ((1, 1, 2), 1)),
    ClassLabel.C223_GEN: (
        ((0, 0, 0), 1),
        ((0, 1, 1), 1 / _SQRT2),
        ((1, 0, 1), 1 / _SQRT2),
        ((1, 1, 2), 1),
    ),
    ClassLabel.GEN224: (((0, 0, 0), 1), ((0, 1, 1), 1), ((1, 0, 2), 1), ((1, 1, 3), 1)),
}


def representative(label: ClassLabel | str, n: int | None = None) -> StateTensor:
    """The normalized representative of a class, embedded in dims (2, 2, n).

    Requires n >= 2 and n at least the class's minimal Clare dimension
    (4 for the generic 2x2x4 class, 3 for both 2x2x3 classes); the default
    is the smallest such n.
    """
    label = ClassLabel.parse(label)
    n = max(2, label.min_clare_dim) if n is None else _check_int("n", n, FormatError)
    if n < 2:
        raise FormatError(f"representative requires n >= 2, got {n}")
    needed = label.min_clare_dim
    if n < needed:
        raise FormatError(
            f"class {label.display_name} needs Clare dimension >= {needed}, got {n}"
        )
    return make_state((2, 2, n), _REPRESENTATIVE_PATTERNS[label]).normalize()


def apply_local(operation: LocalOperation, psi: StateTensor) -> StateTensor:
    """Contract one factor per party: psi' = (M_1 x ... x M_l) psi.

    Output dims are the factors' output dimensions; the result is not
    normalized. A numerically zero result raises AnnihilationError: vanishing
    branches are conditioned away, not returned as states.

    Each step feeds ``np.dot`` the operands ``np.tensordot(factor, out,
    axes=(1, axis))`` feeds it: the factor as it is, and ``out`` with the
    party's axis first and the others in order, reshaped to (k, rest).
    """
    if operation.party_count != psi.party_count:
        raise FormatError(
            f"operation has {operation.party_count} factors for a "
            f"{psi.party_count}-party state"
        )
    out = psi.amplitudes
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below raises
        for axis, factor in enumerate(operation.factors):
            if factor.shape[1] != psi.dims[axis]:
                raise FormatError(
                    f"factor {axis} has shape {factor.shape}, party dimension is "
                    f"{psi.dims[axis]}"
                )
            moved = out.transpose(axis, *range(axis), *range(axis + 1, out.ndim))
            product = np.dot(factor, moved.reshape(moved.shape[0], -1))
            back = (*range(1, axis + 1), 0, *range(axis + 1, out.ndim))
            out = product.reshape(factor.shape[0], *moved.shape[1:]).transpose(back)
    if not out.any():  # before the ratio below, whose divisor a zero factor makes 0
        raise AnnihilationError("local operation annihilated the state")
    if max(out.shape) > MAX_LEVELS:  # a nonzero result has no zero dim
        raise FormatError(f"dims {out.shape} exceed the per-party cap {MAX_LEVELS}")
    if not np.isfinite(out).all():  # large factors can overflow
        raise FormatError("amplitudes contain non-finite entries")
    out = np.ascontiguousarray(out)  # _scaled_norm reads it as floats
    # ||out|| <= 1e-14 ||psi|| prod ||M_i||_F, as m * 2**e: no product overflows.
    m, e = _scaled_norm(out)[3:]
    for a in (psi.amplitudes, *operation.factors):
        m_a, e_a = _scaled_norm(a)[3:]
        m, e = m / m_a, e - e_a
    if math.ldexp(m, e) <= 1e-14:
        raise AnnihilationError("local operation annihilated the state")
    return _frozen(StateTensor, out.shape, out)


def reduced_density(psi: StateTensor, party: int, *more: int) -> DensityMatrix:
    """Partial trace keeping ``party`` and then ``more`` (0-based), in that
    order, over every other party.

    Requires a normalized state; a trace deviation above 1e-9 is rejected.
    """
    kept, n = (party, *more), psi.party_count
    for p in kept:
        if not 0 <= _check_int("party", p, FormatError) < n:
            raise FormatError(f"party {p} out of range for {n} parties")
    if len(set(kept)) < len(kept):
        raise FormatError("the kept parties must differ")
    psi.require_normalized()
    moved = psi.amplitudes.transpose(*kept, *(p for p in range(n) if p not in kept))
    a = moved.reshape(math.prod(moved.shape[: len(kept)]), -1)
    return _frozen(DensityMatrix, a.shape[0], a @ a.conj().T)  # a Gram: Hermitian and PSD
