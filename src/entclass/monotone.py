"""Randomized verification that |hyperdeterminant| never grows on average.

A two-outcome local measurement is represented in its singular-value form:
both elements share the right unitary V, have diagonal cores alpha_i and
beta_i with alpha_i^2 + beta_i^2 = 1, and carry independent left unitaries.
Applying such a pair to a state yields two normalized outcome states with
probabilities summing to one; the averaged measure after the measurement
must not exceed the measure before. The white-box report additionally
evaluates the internal steps of that argument (the reduced inequality in
the diagonal frame and its arithmetic-geometric-mean majorant).

One engine evaluates the check for a stack of states. Per pair dimension
k (one for det222, at most two for det223), one stacked QR draws the
unitaries and one batched matmul builds both POVM elements; per measured
party, one batched matmul applies them; and the measure is evaluated once
for the stack. Seeded trials run through it in blocks; ``check_monotone``,
``apply_povm`` and ``monotone_trial`` are stacks of one, so every route
computes a trial with the same arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError, NormalizationError, ProofChainError
from .invariants import _det222, _det223, det222, det223
from .numerics import (
    RandomSource,
    _as_generator,
    _check_k,
    _draw_state,
    _haar,
    _normalized,
    _substreams,
)
from .tensor import StateTensor, _check_int

#: measure name -> (evaluator, required dims, homogeneity degree)
MEASURES = {
    "det222": (det222, (2, 2, 2), 4),
    "det223": (det223, (2, 2, 3), 6),
}

#: An outcome with squared norm below this is a probability-zero branch.
NULL_BRANCH_EPS = 1e-14

#: Guard against effectively one-outcome pairs: resample when every level is
#: nearly fully transmitted by one element (max_i min(alpha_i, beta_i) tiny).
_DEGENERATE_EPS = 1e-7

#: Slack below -(1e-9 * before + this) counts as a violation. The absolute
#: floor covers states whose measure vanishes identically, where the
#: relative term is vacuous and polynomial-evaluation roundoff dominates.
_SLACK_ABS_FLOOR = 1e-14

#: Trials drawn and evaluated together; bounds the engine's working memory.
_BLOCK = 64

#: The k x k identity, built once per k; a read-only view, since every call shares it.
_eye = functools.cache(lambda k: np.broadcast_to(np.eye(k), (k, k)))


def _measure(measure: str, psi: StateTensor | None = None):
    """The MEASURES entry of ``measure``; with ``psi``, also check its dims."""
    try:
        entry = MEASURES[measure]
    except KeyError:
        raise FormatError(
            f"unknown measure {measure!r}; expected one of {sorted(MEASURES)}"
        ) from None
    if psi is not None and psi.dims != entry[1]:
        raise FormatError(f"measure {measure} requires dims {entry[1]}, got {psi.dims}")
    return entry


def _pair_elements(u: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Validate a stack of pairs and build their elements.

    ``u`` is (G, 3, k, k) holding u1, u2 and v; ``diag`` is (G, 2, k)
    holding the alphas and the betas. Returns the (G, 2, k, k) elements
    u_mu diag_mu v.
    """
    eye = _eye(u.shape[-1])
    unitarity = np.abs(u.conj().swapaxes(-1, -2) @ u - eye)
    norms = np.abs((diag * diag).sum(axis=1) - 1.0)
    # One test of every residual; a failure or a NaN takes the per-factor
    # route that picks the message, before non-finite input is multiplied.
    if not (
        unitarity.max() <= 1e-10
        and -1e-12 <= diag.min()
        and diag.max() <= 1 + 1e-12
        and norms.max() <= 1e-10
    ):
        bad = np.flatnonzero((unitarity.max(axis=(-2, -1)) > 1e-10).any(axis=0))
        if bad.size:
            name = ("u1", "u2", "v")[bad[0]]
            raise FormatError(f"{name} is not unitary within tolerance")
        if not ((diag >= -1e-12) & (diag <= 1 + 1e-12)).all():
            raise FormatError("diagonal entries must lie in [0, 1]")
        if (norms > 1e-10).any():
            raise FormatError("alpha_i^2 + beta_i^2 must equal 1")
    elements = u[:, :2] @ (diag[..., None] * u[:, 2:])
    gram = elements.conj().swapaxes(-1, -2) @ elements
    if np.abs(gram[:, 0] + gram[:, 1] - eye).max() > 1e-10:
        raise FormatError("POVM elements do not sum to the identity")
    return elements


@dataclass(frozen=True, eq=False)
class PovmPair:
    """A two-outcome measurement in singular-value form on one party.

    element(1) = U1 diag(alphas) V and element(2) = U2 diag(betas) V; the
    shared V and the constraint alpha_i^2 + beta_i^2 = 1 make the two
    elements complete by construction.
    """

    party: int
    u1: np.ndarray
    u2: np.ndarray
    v: np.ndarray
    alphas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "party", _check_int("party", self.party))
        alphas = tuple(float(a) for a in self.alphas)
        betas = tuple(float(b) for b in self.betas)
        k = len(alphas)
        if len(betas) != k or k < 1:
            raise FormatError("alphas and betas must have equal positive length")
        factors = []
        for name in ("u1", "u2", "v"):
            factor = np.array(getattr(self, name), dtype=complex)
            if factor.shape != (k, k):
                raise FormatError(f"{name} must be {k}x{k}, got {factor.shape}")
            factors.append(factor)
        u = np.array(factors)
        elements = _pair_elements(u[None], np.array([[alphas, betas]]))[0]
        u.setflags(write=False)
        elements.setflags(write=False)
        object.__setattr__(self, "u1", u[0])
        object.__setattr__(self, "u2", u[1])
        object.__setattr__(self, "v", u[2])
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "_elements", elements)

    @property
    def k(self) -> int:
        return len(self.alphas)

    def element(self, mu: int) -> np.ndarray:
        if mu not in (1, 2):
            raise FormatError(f"outcome index must be 1 or 2, got {mu}")
        return self._elements[mu - 1]

    def is_diagonal_frame(self, atol: float = 1e-12) -> bool:
        return all(np.abs(u - _eye(self.k)).max() <= atol for u in (self.u1, self.u2, self.v))


class Outcome(NamedTuple):
    probability: float
    state: StateTensor | None  # None marks a probability-zero branch


@dataclass(frozen=True)
class MonotoneCheck:
    """One evaluation of the averaged-measure inequality.

    ``outcomes`` holds the two normalized outcome states with their
    probabilities; ``measure_after`` is 0.0 on a probability-zero branch.
    """

    before: float
    after_avg: float
    slack: float
    passed: bool
    outcomes: tuple[Outcome, Outcome]
    measure_after: tuple[float, float]


class AmgmBounds(NamedTuple):
    """The two sides of the diagonal-frame inequality chain."""

    reduced_sum: float
    majorant: float


@dataclass(frozen=True)
class MonteCarloSummary:
    measure: str
    trials: int
    seed: int
    party: int | None
    min_slack: float
    min_slack_trial: int
    min_slack_before: float
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True, eq=False)
class MonotoneBatch:
    """Per-trial results of ``monotone_batch``, one row per trial index.

    ``probabilities`` and ``measure_after`` have one column per outcome;
    ``measure_after`` is 0.0 on a probability-zero branch.
    """

    trial: np.ndarray
    before: np.ndarray
    slack: np.ndarray
    passed: np.ndarray
    probabilities: np.ndarray
    measure_after: np.ndarray


def _degenerate(alphas) -> bool:
    return (
        max(min(a, math.sqrt(max(1.0 - a * a, 0.0))) for a in alphas)
        < _DEGENERATE_EPS
    )


def _draw_pair(gen: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One pair's draws: k uniform diagonals, redrawn while degenerate, then
    the 6k^2 normals of u1, u2 and v (see ``numerics._haar``)."""
    alphas = gen.random(k)  # the bits of gen.uniform(0.0, 1.0, size=k)
    # A degenerate draw has alphas[0] within _DEGENERATE_EPS of 0 or of 1.
    while not (
        _DEGENERATE_EPS <= alphas[0] <= 1.0 - _DEGENERATE_EPS
    ) and _degenerate(alphas.tolist()):
        alphas = gen.random(k)
    return alphas, gen.standard_normal(6 * k * k)


def random_povm_pair(
    k: int, rng: RandomSource | np.random.Generator, party: int = 0
) -> PovmPair:
    """Draw a random two-outcome pair: uniform diagonals, Haar unitaries.

    Nearly one-sided draws (an all-ones or all-zeros diagonal) would make one
    element numerically zero; they are resampled.
    """
    _check_k("random_povm_pair", k, 2)
    alphas, normals = _draw_pair(_as_generator(rng), k)
    u1, u2, v = _haar(normals.reshape(3, 2, k, k))
    return PovmPair(
        party=party,
        u1=u1,
        u2=u2,
        v=v,
        alphas=tuple(alphas),
        betas=tuple(np.sqrt(1.0 - alphas**2)),
    )


def equality_case_povm(k: int, alpha: float, party: int = 0) -> PovmPair:
    """The proportional pair: equal diagonals, identity unitaries.

    Both elements are multiples of the identity, so every outcome state
    equals the input and the averaged measure is conserved exactly.
    """
    _check_k("equality_case_povm", k, 2)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise FormatError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    beta = math.sqrt(1.0 - alpha * alpha)
    eye = np.eye(k, dtype=complex)
    return PovmPair(
        party=party,
        u1=eye,
        u2=eye,
        v=eye,
        alphas=(alpha,) * k,
        betas=(beta,) * k,
    )


def _apply(psi: np.ndarray, groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure every state of the (B, *dims) stack ``psi``.

    ``groups`` holds (parties, rows, elements) per pair dimension k: the
    rows of ``psi`` measured by pairs of side k, the party each of them
    measures and their (len(rows), 2, k, k) elements. Returns the outcome
    probabilities (B, 2), the probability-zero branches (B, 2) and the
    outcome states (B, 2, *dims), normalized except on those branches.
    """
    count, dims = len(psi), psi.shape[1:]
    if not np.isfinite(psi).all():
        raise FormatError("amplitudes contain non-finite entries")
    with np.errstate(over="ignore"):
        norm_sq = (psi.real**2 + psi.imag**2).reshape(count, -1).sum(axis=1)
    off = np.abs(norm_sq - 1.0) > 1e-9
    if off.any():
        raise NormalizationError(f"state has squared norm {norm_sq[off][0]:.6g}, expected 1")
    raw = np.empty((count, 2) + dims, dtype=complex)
    for parties, rows, elements in groups:
        k = elements.shape[-1]
        for party in sorted(set(parties.tolist())):
            if not 0 <= party < len(dims):
                raise FormatError(f"party {party} out of range")
            if k != dims[party]:
                raise FormatError(f"pair acts on dimension {k}, party has {dims[party]}")
            mine = parties == party
            if len(rows) == count and mine.all():
                # One party measuring the whole stack needs no gather/scatter.
                at = mine = slice(None)
            else:
                at = rows[mine]
            others = [axis for axis in range(1, len(dims) + 1) if axis != party + 1]
            moved = psi[at].transpose(0, party + 1, *others)
            out = elements[mine] @ moved.reshape(len(moved), 1, k, -1)
            # Axis 2 of out is the measured party; put it back in its place.
            back = list(range(3, len(dims) + 2))
            back.insert(party, 2)
            raw[at] = out.reshape(out.shape[:3] + moved.shape[2:]).transpose(0, 1, *back)
    probabilities = (raw.real**2 + raw.imag**2).reshape(count, 2, -1).sum(axis=2)
    total = probabilities[:, 0] + probabilities[:, 1]
    off = np.abs(total - 1.0) > 1e-10
    if off.any():
        raise FormatError(f"outcome probabilities sum to {total[off][0]}, expected 1")
    null = probabilities < NULL_BRANCH_EPS
    # Dividing real and imaginary parts keeps each entry independent of the stack.
    scale = np.sqrt(np.where(null, 1.0, probabilities))
    states = raw.view(float) / scale.reshape(scale.shape + (1,) * len(dims))
    return probabilities, null, states.view(complex)


class _Evaluated(NamedTuple):
    """The engine's per-state arrays for a stack of B states."""

    probabilities: np.ndarray  # (B, 2)
    null: np.ndarray  # (B, 2) probability-zero branches
    states: np.ndarray  # (B, 2, *dims) outcome states
    before: np.ndarray  # (B,)
    measure_after: np.ndarray  # (B, 2), 0.0 on probability-zero branches
    after_avg: np.ndarray  # (B,)
    slack: np.ndarray  # (B,)
    passed: np.ndarray  # (B,)


def _evaluate(measure: str, psi: np.ndarray, groups) -> _Evaluated:
    """The averaged-measure check for each state of ``psi``, measured as
    ``groups`` says (see ``_apply``), with the one pass/fail rule: a check
    passes when its slack is at least -(1e-9*|before| + _SLACK_ABS_FLOOR).
    """
    probabilities, null, states = _apply(psi, groups)
    stacked = np.concatenate([psi[:, None], states], axis=1)
    if measure == "det222":
        values = _det222(stacked.reshape(-1, 8).T)
    else:
        values = _det223(stacked)
    values = np.abs(values).reshape(len(psi), 3)
    before = values[:, 0]
    after = np.where(null, 0.0, values[:, 1:])
    after_avg = (probabilities * after).sum(axis=1)  # p0*a0 + p1*a1, in that order
    slack = before - after_avg
    passed = slack >= -(1e-9 * before + _SLACK_ABS_FLOOR)
    return _Evaluated(probabilities, null, states, before, after, after_avg, slack, passed)


def _outcomes(probabilities, null, states, row: int) -> tuple[Outcome, Outcome]:
    dims = states.shape[2:]
    return tuple(
        Outcome(
            float(probabilities[row, mu]),
            None if null[row, mu] else StateTensor(dims, states[row, mu]),
        )
        for mu in (0, 1)
    )


def _check(ev: _Evaluated, row: int) -> MonotoneCheck:
    return MonotoneCheck(
        before=float(ev.before[row]),
        after_avg=float(ev.after_avg[row]),
        slack=float(ev.slack[row]),
        passed=bool(ev.passed[row]),
        outcomes=_outcomes(ev.probabilities, ev.null, ev.states, row),
        measure_after=tuple(ev.measure_after[row].tolist()),
    )


def apply_povm(psi: StateTensor, pair: PovmPair) -> tuple[Outcome, Outcome]:
    """Measure: outcome states element(mu) psi / sqrt(p_mu), p_mu its weight."""
    groups = [(np.array([pair.party]), np.array([0]), pair._elements[None])]
    probabilities, null, states = _apply(psi.amplitudes[None], groups)
    return _outcomes(probabilities, null, states, 0)


def check_monotone(psi: StateTensor, pair: PovmPair, measure: str) -> MonotoneCheck:
    """Evaluate |measure(psi)| >= sum_mu p_mu |measure(outcome_mu)|.

    The pair may act on any party of the state. The pass tolerance is
    relative (the inequality is exact mathematics, so only roundoff-level
    violations are allowed) with a tiny absolute floor for states whose
    measure vanishes identically.
    """
    _measure(measure, psi)
    groups = [(np.array([pair.party]), np.array([0]), pair._elements[None])]
    return _check(_evaluate(measure, psi.amplitudes[None], groups), 0)


def _block_norms(psi: StateTensor, party: int) -> np.ndarray:
    moved = np.moveaxis(psi.amplitudes, party, 0)
    return np.linalg.norm(moved.reshape(moved.shape[0], -1), axis=1)


def amgm_bound_report(psi: StateTensor, pair: PovmPair, measure: str) -> AmgmBounds:
    """White-box evaluation of the diagonal-frame inequality chain.

    With identity unitaries, the averaged-to-initial measure ratio reduces to
    reduced_sum = sum over the two outcomes of
    (prod of diagonals)^(d/k) / p_mu^((d-2)/2), and the mean inequality
    on each p_mu majorizes it by
    ((prod alphas)^(2/k) + (prod betas)^(2/k))
        / (k^((d-2)/2) (prod block norms)^((d-2)/k)).
    The chain reduced_sum <= majorant <= 1 is asserted within 1e-9. The
    trailing bound requires the measured party's block norms to be uniform
    (all equal to 1/sqrt(k)); inputs outside that locus raise, because there
    the majorant genuinely exceeds one while the reduced sum still does not.
    """
    degree = _measure(measure, psi)[2]
    if not pair.is_diagonal_frame():
        raise FormatError("white-box report requires a diagonal-frame pair")
    psi.require_normalized()
    k = pair.k
    if k != psi.dims[pair.party]:
        raise FormatError("pair dimension does not match the measured party")
    z = _block_norms(psi, pair.party)
    alphas = np.asarray(pair.alphas)
    betas = np.asarray(pair.betas)

    def branch(diag: np.ndarray) -> float:
        weight = float(np.sum(diag**2 * z**2))
        numerator = float(np.prod(diag)) ** (degree / k)
        if weight <= 0.0:
            return 0.0
        return numerator / weight ** ((degree - 2) / 2)

    reduced_sum = branch(alphas) + branch(betas)
    z_product = float(np.prod(z))
    numerator = float(np.prod(alphas)) ** (2 / k) + float(np.prod(betas)) ** (2 / k)
    if z_product <= 0.0:
        majorant = math.inf
    else:
        majorant = numerator / (
            k ** ((degree - 2) / 2) * z_product ** ((degree - 2) / k)
        )
    if reduced_sum > majorant + 1e-9:
        raise ProofChainError(
            f"reduced sum {reduced_sum} exceeds its majorant {majorant}"
        )
    if majorant > 1.0 + 1e-9:
        raise ProofChainError(
            f"majorant {majorant} exceeds 1; the measured party's block norms "
            f"are {tuple(z)}, but the trailing bound holds only for uniform "
            f"blocks (all 1/sqrt({k}))"
        )
    return AmgmBounds(reduced_sum, majorant)


def _run_block(measure: str, seed: int, trials, party: int | None) -> _Evaluated:
    """Draw and evaluate the given trials of ``(measure, seed, party)``.

    Trial t draws from the Philox substream (seed, t), in this order: the
    state, the measured party (uniform over 0, 1, 2 when ``party`` is
    None), then the pair's diagonals and unitaries.
    """
    _, dims, _ = _measure(measure)
    if party is not None and not 0 <= _check_int("party", party) < 3:
        raise ValueError(f"party must be 0, 1, or 2, got {party}")
    count, size = len(trials), math.prod(dims)
    normals = np.empty((count, 2 * size))
    sq = np.empty(count)
    # Per pair dimension k: the rows its pairs measure, their parties,
    # diagonals (alphas, then betas) and unitaries' normals, in draw order.
    drawn = {k: (np.empty(count, int), np.empty(count, int), np.empty((count, 2, k)),
                 np.empty((count, 6 * k * k))) for k in sorted(set(dims))}
    used = dict.fromkeys(drawn, 0)
    for row, gen in enumerate(_substreams(seed, trials)):
        normals[row], sq[row] = _draw_state(gen, size)
        p = int(gen.integers(0, 3)) if party is None else party
        rows, parties, diag, pair_normals = drawn[k := dims[p]]
        i = used[k]
        rows[i], parties[i], diag[i, 0], pair_normals[i] = row, p, *_draw_pair(gen, k)
        used[k] = i + 1
    groups = []
    for k, (rows, parties, diag, pair_normals) in drawn.items():
        if n := used[k]:
            diag = diag[:n]
            diag[:, 1] = np.sqrt(1.0 - diag[:, 0] ** 2)
            u = _haar(pair_normals[:n].reshape(n, 3, 2, k, k))
            groups.append((parties[:n], rows[:n], _pair_elements(u, diag)))
    psi = _normalized(normals, sq).reshape((count,) + dims)
    return _evaluate(measure, psi, groups)


def monotone_trial(
    measure: str, seed: int, trial: int, party: int | None = None
) -> MonotoneCheck:
    """Trial ``trial`` of ``monte_carlo(measure, trials, seed, party)``, alone.

    From the Philox substream ``RandomSource(seed, trial)`` it draws the
    state (as ``random_state``), then the measured party (uniform over 0, 1,
    2 when ``party`` is None), then the POVM pair (as ``random_povm_pair``),
    and returns ``check_monotone`` of that draw. It runs the engine on a
    block of one, so it reproduces the batch and ``monte_carlo`` bit for bit.
    """
    return _check(_run_block(measure, seed, [trial], party), 0)


def monotone_batch(
    measure: str, seed: int, trials, party: int | None = None
) -> MonotoneBatch:
    """``monotone_trial`` for each trial index in ``trials``, as arrays.

    Row i holds the same numbers as ``monotone_trial(measure, seed,
    trials[i], party)``. The engine works on blocks of 64 trials, so its
    working memory does not grow with the number of trials.
    """
    trials = list(trials)
    if not trials:
        raise ValueError("trials must not be empty")
    parts = [
        _run_block(measure, seed, trials[start : start + _BLOCK], party)
        for start in range(0, len(trials), _BLOCK)
    ]
    fields = ("before", "slack", "passed", "probabilities", "measure_after")
    columns = {f: np.concatenate([getattr(ev, f) for ev in parts]) for f in fields}
    return MonotoneBatch(trial=np.array(trials, dtype=np.uint64), **columns)


def monte_carlo(
    measure: str,
    trials: int,
    seed: int,
    party: int | None = None,
) -> MonteCarloSummary:
    """Run trials 0 .. trials-1 and summarize them.

    Trial t draws everything from the substream (seed, t), so any trial can
    be replayed in isolation with ``monotone_trial(measure, seed, t, party)``
    and the aggregate is schedule-independent. Trials run through the
    engine one block of 64 at a time, and only the running summary is kept.
    A failure is a trial that ``check_monotone`` does not pass:
    slack < -(1e-9*|before| + 1e-14).
    """
    _measure(measure)
    if (trials := _check_int("trials", trials)) < 1:
        raise ValueError("trials must be positive")
    min_slack = math.inf
    min_trial = -1
    min_before = math.nan
    failures = 0
    for start in range(0, trials, _BLOCK):
        block = range(start, min(start + _BLOCK, trials))
        ev = _run_block(measure, seed, block, party)
        i = int(np.argmin(ev.slack))
        if ev.slack[i] < min_slack:
            min_slack, min_trial = float(ev.slack[i]), start + i
            min_before = float(ev.before[i])
        failures += int(np.count_nonzero(~ev.passed))
    return MonteCarloSummary(
        measure=measure,
        trials=trials,
        seed=int(seed),  # seed and party passed _run_block's checks
        party=None if party is None else int(party),
        min_slack=min_slack,
        min_slack_trial=min_trial,
        min_slack_before=min_before,
        failures=failures,
    )
