"""SLOCC invariants of 2x2xn pure states.

Local ranks, the magic-basis bilinear form R^T R with its rank and singular
values, the hyperdeterminants of the 2x2x2 and 2x2x3 formats (degree 4 and
degree 6 polynomial invariants), two-qubit concurrence, the three-tangle,
the monogamy-identity residual for three qubits, and the count of nonlocal
parameters of a format.

The hyperdeterminants are evaluated literally, term by term, so the code
can be audited against the defining polynomials; there is no clever
factorization. Zero tests use the shared tolerance policy scaled by the
state norm raised to the invariant's homogeneity degree, which makes every
decision scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import FormatError, NumericalInstabilityError
from .numerics import DEFAULT_POLICY, TolerancePolicy
from .tensor import (
    DensityMatrix,
    StateTensor,
    _unfolding,
    flatten,
    reduced_density,
    reduced_density_pair,
)

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


@dataclass(frozen=True)
class InvariantReport:
    """Every invariant the classifier consumes, plus decision margins.

    ``local_ranks`` uses the 1-based party convention (r1, r2, r3).
    ``det222``/``det223`` are present only when the rank-adjusted format
    admits them (r3 <= 2 and r3 <= 3; ``det223`` is exactly 0 for r3 <= 2).
    Their phases depend on the Clare rotation, so only moduli are contractual.
    ``margins`` maps each thresholded decision to its signed distance from
    the threshold (positive = comfortably decided).
    """

    local_ranks: tuple[int, int, int]
    rank_rtr: int
    singular_values_rtr: tuple[float, ...]
    det222: complex | None
    det223: complex | None
    norm: float
    tolerances: TolerancePolicy
    margins: dict[str, float]


class RtrResult(NamedTuple):
    rank: int
    singular_values: tuple[float, ...]


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


def _local_spectra(amps: np.ndarray, policy: TolerancePolicy):
    """Local ranks of a normalized (2, 2, n) amplitude array, their smallest
    margin, and the reduced SVD (u, s) of the flattened state (the transpose
    of Clare's unfolding). Unfoldings bypass the matrix cap of ``numerics``.

    The density eigenvalues lambda are squared singular values, so they meet
    the squared threshold t^2; eigvalsh is exact only to delta = 8 k eps
    lambda_0 > t^2, so the rank must lie in [#{lambda > t^2 + delta},
    #{lambda > t^2 - delta}]. At the default policy t^2 < delta for every n
    up to 16 (1.6e-17 against 3.5e-15 lambda_0 for a 2x4 unfolding), so the
    upper count is always k and the check is a lower bound on the rank. It
    is two-sided only when rank_rel_eps exceeds sqrt(8 k eps) / max_dim."""
    f = amps.reshape(4, amps.shape[2])
    u, s, _ = np.linalg.svd(f, full_matrices=False)
    ranks, margins = [], []
    for party, a in enumerate((_unfolding(amps, 0), _unfolding(amps, 1), f.T)):
        svals = s if party == 2 else np.linalg.svd(a, compute_uv=False)
        thr = policy.rank_threshold(float(svals[0]), max(a.shape))
        rank = int(np.count_nonzero(svals > thr))
        eigs = np.linalg.eigvalsh(a @ a.conj().T)
        delta = 8 * a.shape[0] * np.finfo(float).eps * float(eigs[-1])
        low = int(np.count_nonzero(eigs > thr * thr + delta))
        high = int(np.count_nonzero(eigs > thr * thr - delta))
        if not low <= rank <= high:
            raise NumericalInstabilityError(
                f"party {party}: unfolding rank {rank} outside the density band "
                f"[{low}, {high}] (threshold {thr * thr:.3g} +- {delta:.3g})"
            )
        ranks.append(rank)
        margins.append(_rank_margin(svals, rank, thr))
    return tuple(ranks), min(margins), u, s


def local_ranks(
    psi: StateTensor, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[int, int, int]:
    """Ranks of the three reduced density matrices of a normalized state.

    Computed twice: as the rank of each party-vs-rest unfolding and from the
    spectrum of each reduced density matrix. The two routes must agree; a
    disagreement means the state sits too close to a rank boundary for the
    current tolerance policy.
    """
    _require_format(psi)
    psi.require_normalized(atol=1e-9)
    return _local_spectra(psi.amplitudes, policy)[0]


def r_matrix(psi: StateTensor) -> np.ndarray:
    """The magic-basis image of the flattened state: a 4xn matrix."""
    return MAGIC_BASIS @ flatten(psi)


def rank_rtr(
    psi: StateTensor, policy: TolerancePolicy = DEFAULT_POLICY
) -> RtrResult:
    """Rank and descending singular values of R^T R.

    R^T R is computed both from the magic-basis image and directly as the
    spin-flip bilinear form on the flattened state; the two n x n matrices
    must agree (up to the sign fixed at import), else the call fails rather
    than return a silently unstable invariant.

    The rank threshold is taken relative to the squared state norm, the
    natural scale of this quadratic invariant (it bounds every singular
    value of R^T R). Thresholding against the matrix's own largest singular
    value would promote pure matmul roundoff to full rank whenever the form
    vanishes identically, as it does on the biseparable classes.
    """
    return _rank_rtr(flatten(psi), policy)


def _rank_rtr(f: np.ndarray, policy: TolerancePolicy) -> RtrResult:
    """``rank_rtr`` on the flattened 4xn amplitude matrix."""
    r = MAGIC_BASIS @ f
    via_magic = r.T @ r
    via_flip = BILINEAR_SIGN * (f.T @ SPIN_FLIP @ f)
    norm_sq = float(np.linalg.norm(f)) ** 2
    if np.abs(via_magic - via_flip).max() > 1e-10 * max(1.0, norm_sq):
        raise NumericalInstabilityError(
            "magic-basis and spin-flip routes to R^T R disagree"
        )
    svals = np.linalg.svd(via_magic, compute_uv=False)
    thr = policy.rank_threshold(norm_sq, via_magic.shape[0])
    rank = int(np.count_nonzero(svals > thr))
    return RtrResult(rank, tuple(float(s) for s in svals))


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
    d = np.linalg.det(a.reshape(a.shape[:-3] + (4, 3))[..., _DET223_ROWS, :])
    d = np.moveaxis(d, -1, 0)
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
    eigs, vecs = np.linalg.eigh(rho.entries)
    root = (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
    s = np.linalg.svd(root @ SPIN_FLIP @ root.conj(), compute_uv=False)
    return float(max(s[0] - s[1] - s[2] - s[3], 0.0))


def three_tangle(psi: StateTensor) -> float:
    """The three-tangle of a normalized 2x2x2 state: 4 |det222|."""
    _require_format(psi, 2)
    psi.require_normalized(atol=1e-9)
    return 4.0 * abs(det222(psi))


def ckw_residual(psi: StateTensor) -> CkwReport:
    """Monogamy decomposition of a normalized three-qubit pure state.

    The Clare-vs-pair tangle (4 det of Clare's reduced state, the one-vs-rest
    tangle of a pure state) splits into the two pairwise squared concurrences
    plus the three-tangle; the residual of that identity is the verification
    target and should vanish to roundoff.
    """
    _require_format(psi, 2)
    psi.require_normalized(atol=1e-9)
    rho3 = reduced_density(psi, 2)
    c3_rest_sq = float(4.0 * np.linalg.det(rho3.entries).real)
    c13 = concurrence(reduced_density_pair(psi, 0, 2))
    c23 = concurrence(reduced_density_pair(psi, 1, 2))
    tangle = three_tangle(psi)
    residual = c3_rest_sq - c13**2 - c23**2 - tangle
    return CkwReport(c3_rest_sq, c13**2, c23**2, tangle, residual)


def nonlocal_dimension(dims, delta: int) -> DimensionCount:
    """Count of nonlocal complex parameters in the generic orbit of a format.

    delta (the stabilizer dimension) must be supplied; the values for
    documented formats live in KNOWN_STABILIZER_DIMS.
    """
    dims = tuple(int(k) for k in dims)
    delta = int(delta)
    if delta < 0:
        raise ValueError(f"stabilizer dimension must be nonnegative, got {delta}")
    if any(k < 1 for k in dims) or len(dims) < 2:
        raise FormatError(f"invalid format {dims}")
    return DimensionCount(dims, delta)


def _rank_margin(svals: np.ndarray, rank: int, threshold: float) -> float:
    """Distance of a rank decision from its threshold: the smaller gap to the
    smallest kept and to the largest dropped of the descending ``svals``."""
    gaps = [float(svals[rank - 1]) - threshold] if rank else []
    if rank < len(svals):
        gaps.append(threshold - float(svals[rank]))
    return min(gaps, default=0.0)


def invariant_report(
    psi: StateTensor, policy: TolerancePolicy = DEFAULT_POLICY
) -> InvariantReport:
    """Assemble the full invariant suite for a (2, 2, n) state.

    The state is normalized internally (the original norm is recorded).
    The SVD F = U diag(s) V^dagger of the flattened state gives Clare's rank
    r3 and, via her unitary V^T, the rank-adjusted state U[:, :r3] diag(s[:r3])
    zero-padded to 2 or 3 levels, on which the determinants are evaluated.
    """
    _require_format(psi)
    norm = psi.norm
    amps = psi.amplitudes / norm
    if not np.isfinite(amps).all():
        raise FormatError(f"normalizing by {norm:.6g} left non-finite amplitudes")
    ranks, local_margin, u, s = _local_spectra(amps, policy)
    rtr = _rank_rtr(amps.reshape(4, -1), policy)
    rtr_thr = policy.rank_threshold(1.0, len(rtr.singular_values))
    margins = {
        "local_ranks": local_margin,
        "rank_rtr": _rank_margin(rtr.singular_values, rtr.rank, rtr_thr),
    }
    # Adjusted states have unit norm, up to the dropped sub-threshold weight.
    r3 = ranks[2]
    det222_val = det223_val = None
    if r3 <= 2:
        adjusted = np.zeros((4, 2), dtype=complex)
        adjusted[:, :r3] = u[:, :r3] * s[:r3]
        det222_val = _det222(adjusted.reshape(8).tolist())
        margins["det222"] = abs(det222_val) - policy.det_threshold(1.0, 4)
    if r3 <= 3:
        det223_val = 0j
        if r3 == 3:
            det223_val = complex(_det223((u[:, :3] * s[:3]).reshape(2, 2, 3)))
        margins["det223"] = abs(det223_val) - policy.det_threshold(1.0, 6)
    return InvariantReport(
        local_ranks=ranks,
        rank_rtr=rtr.rank,
        singular_values_rtr=rtr.singular_values,
        det222=det222_val,
        det223=det223_val,
        norm=norm,
        tolerances=policy,
        margins=margins,
    )
