"""SLOCC invariants of 2x2xn pure states.

Local ranks, the magic-basis bilinear form R^T R with its rank and singular
values, the hyperdeterminants of the 2x2x2 and 2x2x3 formats (degree 4 and
degree 6 polynomial invariants), two-qubit concurrence, the three-qubit
monogamy decomposition, and the count of nonlocal parameters of a format.

The hyperdeterminants are evaluated literally, term by term, so the code
can be audited against the defining polynomials; there is no clever
factorization. Every class-boundary decision is a distance of the
normalized state from the boundary, decided by the shared tolerance
policy's one rule, which makes every decision scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import det as _det, eigvalsh_lo as _eigvalsh_lo, svd as _svd, svd_s as _svd_s

from .errors import FormatError, NumericalInstabilityError
from .numerics import DEFAULT_POLICY, ZERO_FLOOR, TolerancePolicy, _errstate, _lapack
from .tensor import DensityMatrix, StateTensor, _check_int, _unit_and_norm

#: The magic-basis transform: the fixed 4x4 unitary realizing the
#: isomorphism SL2 x SL2 ~ SO4 on the joint Alice-Bob index. Under it,
#: two-qubit local operations become complex orthogonal matrices.
MAGIC_BASIS = np.array(
    [
        [1, 0, 0, 1],
        [0, 1j, 1j, 0],
        [0, -1, 1, 0],
        [1j, 0, 0, -1j],
    ],
    dtype=complex,
) / math.sqrt(2)
MAGIC_BASIS.setflags(write=False)

_ISY = np.array([[0.0, 1.0], [-1.0, 0.0]])
#: The two-qubit spin-flip form (i sigma_y) x (i sigma_y), a real 4x4 matrix.
SPIN_FLIP = np.kron(_ISY, _ISY)
SPIN_FLIP.setflags(write=False)


def _form(x, y):  # x^T SPIN_FLIP y on 4-vectors of Python numbers
    return x[0] * y[3] + x[3] * y[0] - x[1] * y[2] - x[2] * y[1]


def _magic_basis_selftest() -> int:
    """Fix the sign relating MAGIC_BASIS^T MAGIC_BASIS to the spin-flip form.

    Only ranks and singular-value magnitudes are consumed downstream, so any
    consistent sign would do; asserting the relation at import time protects
    the dual-route checks against a silently edited constant.
    """
    product = MAGIC_BASIS.T @ MAGIC_BASIS
    if np.allclose(product, SPIN_FLIP, atol=1e-14):
        return 1
    if np.allclose(product, -SPIN_FLIP, atol=1e-14):
        return -1
    raise RuntimeError("magic-basis transform does not square to the spin-flip form")


#: +1 or -1; established once at import.
BILINEAR_SIGN = _magic_basis_selftest()
#: BILINEAR_SIGN * SPIN_FLIP @ f is f's rows reversed times these signs.
_FLIP_SIGNS = BILINEAR_SIGN * np.array([[1.0], [-1.0], [-1.0], [1.0]])


@dataclass(frozen=True)
class InvariantReport:
    """The invariants of a (2, 2, n) state, plus each class decision's distance.

    ``local_ranks`` uses the 1-based party convention (r1, r2, r3).
    ``singular_values_rtr`` are Wootters' lambda_i of the Alice-Bob reduced
    density, so max(0, l1 - l2 - l3 - l4) is its concurrence; ``rank_rtr``
    counts those above the tolerance. They decide no class, so the pair is
    computed from the private flattening on its first read (an error of that
    step, too, surfaces there) and then kept; repr, == and copies read it.
    ``det222``/``det223`` are present only when the rank-adjusted format
    admits them (r3 <= 2 and r3 <= 3; ``det223`` is exactly 0 for r3 <= 2).
    Their phases depend on the Clare rotation, so only moduli are contractual.
    ``distances`` maps each class-boundary decision to the normalized state's
    distance from it: ``local_ranks`` to the smallest kept singular value of
    the unfoldings, ``det222``/``det223`` to |Det| / ||grad Det||.
    """

    local_ranks: tuple[int, int, int]
    rank_rtr: int = field(init=False)
    singular_values_rtr: tuple[float, ...] = field(init=False)
    det222: complex | None
    det223: complex | None
    norm: float
    tolerances: TolerancePolicy
    distances: dict[str, float]
    _flat: np.ndarray = field(repr=False, compare=False)  # the unit 4 x n state

    def __getattr__(self, name):  # only fields not yet set reach here
        if name not in ("rank_rtr", "singular_values_rtr"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rtr = _rtr(self._flat)
        with _errstate("SVD did not converge"):
            svals = tuple(_lapack(_svd, rtr).tolist())
        object.__setattr__(self, "singular_values_rtr", svals)
        object.__setattr__(self, "rank_rtr", sum(x > self.tolerances.distance_eps for x in svals))
        return vars(self)[name]


class CkwReport(NamedTuple):
    """Monogamy decomposition of the Clare-vs-pair entanglement."""

    c3_rest_sq: float
    c13_sq: float
    c23_sq: float
    tangle: float
    residual: float


@dataclass(frozen=True)
class DimensionCount:
    """Nonlocal complex parameters left in the generic orbit of a format.

    raw = (prod k_i - 1) - sum (k_i^2 - 1) + delta, where delta is the
    dimension of the stabilizer of the local special-linear action on the
    generic orbit. delta has no general formula here and is caller-supplied;
    see KNOWN_STABILIZER_DIMS for the documented values.
    """

    dims: tuple[int, ...]
    delta: int
    raw: int = field(init=False)
    nonnegative: int = field(init=False)

    def __post_init__(self):
        raw = (
            math.prod(self.dims) - 1 - sum(k * k - 1 for k in self.dims) + self.delta
        )
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "nonnegative", max(raw, 0))


#: Stabilizer dimensions for the formats whose parameter counts are pinned.
KNOWN_STABILIZER_DIMS: dict[tuple[int, ...], int] = {
    (2, 2, 2, 2): 0,
    (2, 2, 4): 6,
}


def _require_format(psi: StateTensor, n: int | None = None) -> None:
    if psi.party_count != 3 or psi.dims[0] != 2 or psi.dims[1] != 2:
        raise FormatError(f"expected dims (2, 2, n), got {psi.dims}")
    if n is not None and psi.dims[2] != n:
        raise FormatError(f"expected dims (2, 2, {n}), got {psi.dims}")


#: float64 machine epsilon, the unit of the density-route error band.
_EPS = float(np.finfo(float).eps)
#: The quantity each local-rank decision names in an AmbiguityError.
_RANK_NAMES = ("local rank r1", "local rank r2", "local rank r3")


def _qubit_spectrum(gram) -> tuple[float, float]:
    """Ascending eigenvalues of the 2x2 Hermitian [[p, b*], [b, q]] (nested
    Python numbers; the lower triangle is read, as by eigvalsh). lambda_max =
    (p + q + hypot(p - q, 2|b|)) / 2 adds nonnegative terms: within 4 eps
    lambda_max. lambda_min = (pq - |b|^2) / lambda_max, with pq and |b|^2 at
    most lambda_max^2: within 10 eps lambda_max. Both are inside the band
    delta = 16 eps lambda_max allowed to eigvalsh; unit trace keeps
    lambda_max >= 1/2."""
    (p, _), (b, q) = gram
    p, q, b = p.real, q.real, abs(b)
    top = (p + q + math.hypot(p - q, 2 * b)) / 2
    return (p * q - b * b) / top, top


def _local_spectra(f: np.ndarray, pair: np.ndarray, singular, policy: TolerancePolicy):
    """Local ranks of a normalized state, given its flattened 4 x n amplitude
    matrix ``f``, the stacked Alice/Bob unfoldings ``pair`` and each
    unfolding's descending singular values (Alice's, Bob's, Clare's, as
    lists): the count of each that the policy decides nonzero, and the
    smallest singular value they keep.

    Each rank is checked against the eigenvalues lambda of the party's k x k
    reduced density: closed form for each 2x2 density (Alice's, Bob's, and
    Clare's at n = 2), eigvalsh for Clare's at any other n. Exact to delta =
    8 k eps lambda_0, they bound the rank below by #{lambda > t^2 + delta} for
    the tolerance t; no upper count could fire, as unit trace gives lambda_0
    >= 1/k, so delta >= 8 eps > t^2 for every allowed t <= 1e-8."""
    grams = (pair @ pair.conj().transpose(0, 2, 1)).tolist()
    rho = f.T @ f.conj()  # Clare's reduced density, transposed
    if len(rho) == 2:
        clare = _qubit_spectrum(rho.tolist())
    else:
        with _errstate("Eigenvalues did not converge"):
            clare = _lapack(_eigvalsh_lo, rho).tolist()
    density = [*map(_qubit_spectrum, grams), clare]
    thr_sq = policy.distance_eps**2
    ranks, kept = [], math.inf
    for party, (name, svals, eigs) in enumerate(zip(_RANK_NAMES, singular, density)):
        rank, low, k = 0, 0, len(eigs)
        while rank < len(svals) and policy.nonzero(name, svals[rank]):
            rank += 1
        delta = 8 * k * _EPS * eigs[-1]
        for e in eigs:
            low += e > thr_sq + delta
        if rank < low:
            raise NumericalInstabilityError(
                f"party {party}: unfolding rank {rank} outside the density band "
                f"[{low}, {k}] (threshold {thr_sq:.3g} + {delta:.3g})"
            )
        ranks.append(rank)
        kept = min(kept, svals[rank - 1])  # s_max >= 1/2 of a unit state: rank >= 1
    return tuple(ranks), kept


def _rtr(f: np.ndarray) -> np.ndarray:
    """R^T R for the flattened 4 x n amplitude matrix ``f`` of a normalized
    state, from its magic-basis image R = MAGIC_BASIS f. It is checked against
    the spin-flip bilinear form on ``f``: the two n x n matrices must agree
    (up to the sign fixed at import), else the call fails rather than return
    a silently unstable invariant. The first read of an ``InvariantReport``'s
    R^T R pair takes its descending singular values: Wootters' lambda_i of the
    Alice-Bob reduced density, which give its concurrence. The rank, their
    count above the policy's tolerance, decides no class."""
    r = MAGIC_BASIS @ f
    via_magic = r.T @ r
    deviation = abs(via_magic - f.T @ (f[::-1] * _FLIP_SIGNS)).max()
    if deviation > 1e-10:
        raise NumericalInstabilityError(
            "magic-basis and spin-flip routes to R^T R disagree: max deviation "
            f"{deviation:.3g} exceeds the bound 1e-10"
        )
    return via_magic


def _det_distance(cols, s) -> tuple[complex, float]:
    """``(Det, d)`` of the rank-adjusted 4 x r state F, r = 2 or 3, given as
    its columns U[:, j] s[j]: with A = F^T S F and S = BILINEAR_SIGN * SPIN_FLIP,
    Det222 = -det A, Det223 = -det A / 2 and d = |det A| / ||2 S F adj(A)||, the
    first-order distance to Det = 0 (0/0 counts as 0). S is orthogonal and
    F^H F = diag(s^2), so the norm is 2 sqrt(sum_jk s_j^2 |adj(A)_jk|^2)."""
    if len(cols) == 2:
        x, y = cols
        a, b, c = _form(x, x), _form(x, y), _form(y, y)
        det = a * c - b * b  # BILINEAR_SIGN**2 = 1
        bb = abs(b) ** 2  # adj(A) = [[c, -b], [-b, a]]
        grad = s[0] ** 2 * (abs(c) ** 2 + bb) + s[1] ** 2 * (bb + abs(a) ** 2)
    else:
        x, y, z = cols
        a, b, c, d, e, f = _form(x, x), _form(x, y), _form(x, z), _form(y, y), _form(y, z), _form(z, z)
        ce_bf, be_cd, bc_ae = c * e - b * f, b * e - c * d, b * c - a * e
        adj = ((d * f - e * e, ce_bf, be_cd), (ce_bf, a * f - c * c, bc_ae), (be_cd, bc_ae, a * d - b * b))
        det = BILINEAR_SIGN * (a * adj[0][0] + b * ce_bf + c * be_cd)
        grad = sum(sj * sj * (abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2) for sj, (p, q, r) in zip(s, adj))
    return -det / (len(cols) - 1), abs(det) / (2 * math.sqrt(grad)) if grad else 0.0


def det222(psi: StateTensor) -> complex:
    """The degree-4 hyperdeterminant of a 2x2x2 state, evaluated literally.

    Four squared pair terms, minus twice the six cross terms, plus four
    times the two odd-permutation terms.
    """
    _require_format(psi, 2)
    return _det222(psi.amplitudes.reshape(8).tolist())


def _det222(p):
    """``det222`` on the amplitudes p[4a + 2b + c] of a 2x2x2 state.

    For one state pass Python complex values, which evaluate faster than
    numpy scalars; for a stack of N states pass an (8, N) array.
    """
    p000, p001, p010, p011, p100, p101, p110, p111 = p
    squares = (
        p000**2 * p111**2
        + p001**2 * p110**2
        + p010**2 * p101**2
        + p100**2 * p011**2
    )
    crosses = (
        p000 * p001 * p110 * p111
        + p000 * p010 * p101 * p111
        + p000 * p100 * p011 * p111
        + p001 * p010 * p101 * p110
        + p001 * p100 * p011 * p110
        + p010 * p100 * p011 * p101
    )
    quads = p000 * p011 * p101 * p110 + p001 * p010 * p100 * p111
    return squares - 2 * crosses + 4 * quads


def det223(psi: StateTensor) -> complex:
    """The degree-6 hyperdeterminant of a 2x2x3 state.

    The difference of two products of 3x3 determinants built from the rows
    of the flattened state (rows indexed by the joint Alice-Bob bit pair).
    """
    _require_format(psi, 3)
    return complex(_det223(psi.amplitudes))


#: The rows 2a + b of the flattened 2x2x3 state in each 3x3 determinant:
#: det223 = det(0, 1, 2) det(1, 2, 3) - det(0, 1, 3) det(0, 2, 3).
_DET223_ROWS = np.array([[0, 1, 2], [1, 2, 3], [0, 1, 3], [0, 2, 3]])


def _det223(a: np.ndarray):
    """``det223`` on (..., 2, 2, 3) amplitudes: one stacked determinant call
    over the four row selections of every state."""
    minors = a.reshape(a.shape[:-3] + (4, 3)).take(_DET223_ROWS, axis=-2)
    d = _lapack(_det, minors, signature="D->D")
    d = d.transpose(d.ndim - 1, *range(d.ndim - 1))  # np.moveaxis(d, -1, 0)
    return d[0] * d[1] - d[2] * d[3]


def concurrence(rho: DensityMatrix | np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    max(s0 - s1 - s2 - s3, 0) where the s_i are the decreasing square roots
    of the eigenvalues of rho (spin-flip) rho* (spin-flip). They are obtained
    as the singular values of sqrt(rho) (spin-flip) sqrt(rho*): the same
    spectrum, but backward-stable where eigenvalues of the non-Hermitian
    product would lose half the working precision near zero.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(4, rho)
    if rho.dim != 4:
        raise FormatError(f"concurrence requires a 4x4 density matrix, got {rho.dim}")
    eigs, vecs = rho._eigh
    root = (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
    s = np.linalg.svd(root @ SPIN_FLIP @ root.conj(), compute_uv=False)
    return float(max(s[0] - s[1] - s[2] - s[3], 0.0))


def _concurrence_sq(x, y) -> float:
    """Squared concurrence of the pair density x x^H + y y^H (Python 4-vectors):
    tau = [[a, b], [b, c]] of spin-flip forms has singular values l1 >= l2, so
    C^2 = (l1 - l2)^2 = |a|^2 + 2|b|^2 + |c|^2 - 2|ac - b^2|, clamped at 0."""
    a, b, c = _form(x, x), _form(x, y), _form(y, y)
    return max(abs(a) ** 2 + 2 * abs(b) ** 2 + abs(c) ** 2 - 2 * abs(a * c - b * b), 0.0)


def ckw_residual(psi: StateTensor) -> CkwReport:
    """Monogamy decomposition of a normalized three-qubit pure state.

    The Clare-vs-pair tangle (4 det of Clare's reduced state, the one-vs-rest
    tangle of a pure state) splits into the two pairwise squared concurrences
    plus the three-tangle 4 |det222|; the residual of that identity is the
    verification target and should vanish to roundoff. Each term comes from
    the amplitudes p[4a + 2b + c] on Python numbers: a pair density is spanned
    by one amplitude 4-vector per bit of the third party, and det rho_C is the
    Gram determinant of Clare's two columns.
    """
    _require_format(psi, 2)
    psi.require_normalized()
    p = psi.amplitudes.reshape(8).tolist()
    u, v = p[0::2], p[1::2]
    uv = sum(x.conjugate() * y for x, y in zip(u, v))
    c3_rest_sq = 4 * (sum(abs(x) ** 2 for x in u) * sum(abs(y) ** 2 for y in v) - abs(uv) ** 2)
    c13_sq = _concurrence_sq(p[0:2] + p[4:6], p[2:4] + p[6:8])
    c23_sq = _concurrence_sq(p[0:4], p[4:8])
    tangle = 4 * abs(_det222(p))
    return CkwReport(c3_rest_sq, c13_sq, c23_sq, tangle, c3_rest_sq - c13_sq - c23_sq - tangle)


def nonlocal_dimension(dims, delta: int) -> DimensionCount:
    """Count of nonlocal complex parameters in the generic orbit of a format.

    delta (the stabilizer dimension) must be supplied; the values for
    documented formats live in KNOWN_STABILIZER_DIMS.
    """
    dims = tuple(_check_int("a party dimension", k, FormatError) for k in dims)
    delta = _check_int("stabilizer dimension", delta, FormatError)
    if delta < 0:
        raise ValueError(f"stabilizer dimension must be nonnegative, got {delta}")
    if any(k < 1 for k in dims) or len(dims) < 2:
        raise FormatError(f"invalid format {dims}")
    return DimensionCount(dims, delta)


def invariant_report(
    psi: StateTensor, policy: TolerancePolicy = DEFAULT_POLICY
) -> InvariantReport:
    """Assemble the full invariant suite for a (2, 2, n) state.

    The state is normalized by one exact power-of-two scaling, so psi * 2**k
    changes only ``norm``, the original 2-norm (inf above the float range).
    Three steps: build the operands (the flattened state and the stacked
    Alice/Bob unfoldings); take their two SVDs in one LAPACK block under the
    errstate np.linalg sets, which covers nothing else; decide and check on
    Python numbers. The report keeps the flattened state, from which the first
    read of ``rank_rtr`` or ``singular_values_rtr`` builds the cross-checked
    R^T R and takes its SVD. The SVD F = U diag(s) V^dagger
    of the flattened state gives Clare's rank r3 and, via her unitary V^T,
    the rank-adjusted state U[:, :r3] diag(s[:r3]) zero-padded to 2 or 3
    levels, on which the determinants are evaluated, literally and by
    ``_det_distance``: routes further apart than ZERO_FLOOR raise
    NumericalInstabilityError.
    """
    _require_format(psi)
    amps, norm = _unit_and_norm(psi.amplitudes)
    f = amps.reshape(4, -1)
    pair = np.concatenate((amps, amps.transpose(1, 0, 2))).reshape(2, 2, -1)
    with _errstate("SVD did not converge"):
        u, s, _ = _lapack(_svd_s, f, signature="D->DdD")
        singular = _lapack(_svd, pair).tolist()
    ranks, kept = _local_spectra(f, pair, singular + [s.tolist()], policy)
    distances = {"local_ranks": kept}
    # Adjusted states have unit norm, up to the dropped sub-threshold weight.
    r3 = ranks[2]
    det222_val = det223_val = None
    if r3 <= 3:
        adjusted, weights = u[:, :r3] * s[:r3], s.tolist()[:r3] + [0.0] * (2 - r3)
        if r3 <= 2:
            p = [x for row in adjusted.tolist() for x in row + [0j] * (2 - r3)]
            route, distances["det222"] = _det_distance((p[0::2], p[1::2]), weights)
            literal = det222_val = _det222(p)
            det223_val, distances["det223"] = 0j, 0.0
        else:
            route, distances["det223"] = _det_distance(adjusted.T.tolist(), weights)
            literal = det223_val = complex(_det223(adjusted.reshape(2, 2, 3)))
        if abs(literal - route) > ZERO_FLOOR:
            raise NumericalInstabilityError(
                f"literal Det{'222' if r3 <= 2 else '223'} {literal:.6g} and its -det A route "
                f"{route:.6g} differ by {abs(literal - route):.3g}, above the bound {ZERO_FLOOR:.3g}")
    return InvariantReport(ranks, det222_val, det223_val, norm, policy, distances, f)
