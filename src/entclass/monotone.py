"""Randomized verification that |hyperdeterminant| never grows on average.

A two-outcome local measurement is represented in its singular-value form:
both elements share the right unitary V, have diagonal cores alpha_i and
beta_i with alpha_i^2 + beta_i^2 = 1, and carry independent left unitaries.
Applying such a pair to a state yields two normalized outcome states with
probabilities summing to one; the averaged measure after the measurement
must not exceed the measure before. The white-box report additionally
evaluates the internal steps of that argument (the reduced inequality in
the diagonal frame and its arithmetic-geometric-mean majorant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ProofChainError
from .invariants import det222, det223
from .numerics import RandomSource, _as_generator, random_state, random_unitary
from .tensor import StateTensor

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


def _measure(measure: str):
    try:
        return MEASURES[measure]
    except KeyError:
        raise FormatError(
            f"unknown measure {measure!r}; expected one of {sorted(MEASURES)}"
        ) from None


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
        k = len(self.alphas)
        u1 = np.array(self.u1, dtype=complex)
        u2 = np.array(self.u2, dtype=complex)
        v = np.array(self.v, dtype=complex)
        alphas = tuple(float(a) for a in self.alphas)
        betas = tuple(float(b) for b in self.betas)
        if len(betas) != k or k < 1:
            raise FormatError("alphas and betas must have equal positive length")
        eye = np.eye(k)
        for name, u in (("u1", u1), ("u2", u2), ("v", v)):
            if u.shape != (k, k):
                raise FormatError(f"{name} must be {k}x{k}, got {u.shape}")
            if np.abs(u.conj().T @ u - eye).max() > 1e-10:
                raise FormatError(f"{name} is not unitary within tolerance")
        for a, b in zip(alphas, betas):
            if not (-1e-12 <= a <= 1 + 1e-12 and -1e-12 <= b <= 1 + 1e-12):
                raise FormatError("diagonal entries must lie in [0, 1]")
            if abs(a * a + b * b - 1.0) > 1e-10:
                raise FormatError("alpha_i^2 + beta_i^2 must equal 1")
        for arr in (u1, u2, v):
            arr.setflags(write=False)
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        completeness = (
            self.element(1).conj().T @ self.element(1)
            + self.element(2).conj().T @ self.element(2)
        )
        if np.abs(completeness - eye).max() > 1e-10:
            raise FormatError("POVM elements do not sum to the identity")

    @property
    def k(self) -> int:
        return len(self.alphas)

    def element(self, mu: int) -> np.ndarray:
        if mu == 1:
            return self.u1 @ (np.asarray(self.alphas)[:, None] * self.v)
        if mu == 2:
            return self.u2 @ (np.asarray(self.betas)[:, None] * self.v)
        raise FormatError(f"outcome index must be 1 or 2, got {mu}")

    def is_diagonal_frame(self, atol: float = 1e-12) -> bool:
        eye = np.eye(self.k)
        return all(
            np.abs(u - eye).max() <= atol for u in (self.u1, self.u2, self.v)
        )


class Outcome(NamedTuple):
    probability: float
    state: StateTensor | None  # None marks a probability-zero branch


@dataclass(frozen=True)
class OutcomeEnsemble:
    """The two normalized outcome states with their probabilities.

    measure_before / measure_after / degree are filled in when the ensemble
    is produced as part of a monotonicity check.
    """

    outcomes: tuple[Outcome, Outcome]
    measure_before: float | None = None
    measure_after: tuple[float, float] | None = None
    degree: int | None = None


@dataclass(frozen=True)
class MonotoneCheck:
    """One evaluation of the averaged-measure inequality."""

    before: float
    after_avg: float
    slack: float
    passed: bool
    ensemble: OutcomeEnsemble


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


def _degenerate(alphas: np.ndarray) -> bool:
    betas = np.sqrt(np.clip(1.0 - alphas**2, 0.0, 1.0))
    return float(np.minimum(alphas, betas).max()) < _DEGENERATE_EPS


def random_povm_pair(
    k: int, rng: RandomSource | np.random.Generator, party: int = 0
) -> PovmPair:
    """Draw a random two-outcome pair: uniform diagonals, Haar unitaries.

    Nearly one-sided draws (an all-ones or all-zeros diagonal) would make one
    element numerically zero; they are resampled.
    """
    if k < 2:
        raise FormatError(f"random_povm_pair requires k >= 2, got {k}")
    gen = _as_generator(rng)
    alphas = gen.uniform(0.0, 1.0, size=k)
    while _degenerate(alphas):
        alphas = gen.uniform(0.0, 1.0, size=k)
    betas = np.sqrt(1.0 - alphas**2)
    return PovmPair(
        party=int(party),
        u1=random_unitary(k, gen),
        u2=random_unitary(k, gen),
        v=random_unitary(k, gen),
        alphas=tuple(alphas),
        betas=tuple(betas),
    )


def equality_case_povm(k: int, alpha: float, party: int = 0) -> PovmPair:
    """The proportional pair: equal diagonals, identity unitaries.

    Both elements are multiples of the identity, so every outcome state
    equals the input and the averaged measure is conserved exactly.
    """
    if k < 2:
        raise FormatError(f"equality_case_povm requires k >= 2, got {k}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise FormatError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    beta = math.sqrt(1.0 - alpha * alpha)
    eye = np.eye(k, dtype=complex)
    return PovmPair(
        party=int(party),
        u1=eye,
        u2=eye,
        v=eye,
        alphas=(alpha,) * k,
        betas=(beta,) * k,
    )


def apply_povm(psi: StateTensor, pair: PovmPair) -> OutcomeEnsemble:
    """Measure: outcome states element(mu) psi / sqrt(p_mu), p_mu its weight."""
    psi.require_normalized(atol=1e-9)
    if not 0 <= pair.party < psi.party_count:
        raise FormatError(f"party {pair.party} out of range")
    if pair.k != psi.dims[pair.party]:
        raise FormatError(
            f"pair acts on dimension {pair.k}, party has {psi.dims[pair.party]}"
        )
    outcomes = []
    for mu in (1, 2):
        element = pair.element(mu)
        raw = psi.amplitudes
        raw = np.moveaxis(
            np.tensordot(element, raw, axes=(1, pair.party)), 0, pair.party
        )
        p = float(np.linalg.norm(raw) ** 2)
        if p < NULL_BRANCH_EPS:
            outcomes.append(Outcome(p, None))
        else:
            outcomes.append(Outcome(p, StateTensor(psi.dims, raw / math.sqrt(p))))
    total = outcomes[0].probability + outcomes[1].probability
    if abs(total - 1.0) > 1e-10:
        raise FormatError(f"outcome probabilities sum to {total}, expected 1")
    return OutcomeEnsemble(outcomes=(outcomes[0], outcomes[1]))


def check_monotone(psi: StateTensor, pair: PovmPair, measure: str) -> MonotoneCheck:
    """Evaluate |measure(psi)| >= sum_mu p_mu |measure(outcome_mu)|.

    The pair may act on any party of the state. The pass tolerance is
    relative (the inequality is exact mathematics, so only roundoff-level
    violations are allowed) with a tiny absolute floor for states whose
    measure vanishes identically.
    """
    fn, dims, degree = _measure(measure)
    if psi.dims != dims:
        raise FormatError(f"measure {measure} requires dims {dims}, got {psi.dims}")
    ensemble = apply_povm(psi, pair)
    before = abs(fn(psi))
    after_values = tuple(
        0.0 if out.state is None else abs(fn(out.state)) for out in ensemble.outcomes
    )
    after_avg = sum(
        out.probability * val for out, val in zip(ensemble.outcomes, after_values)
    )
    slack = before - after_avg
    passed = slack >= -(1e-9 * before + _SLACK_ABS_FLOOR)
    return MonotoneCheck(
        before=before,
        after_avg=after_avg,
        slack=slack,
        passed=passed,
        ensemble=replace(
            ensemble,
            measure_before=before,
            measure_after=after_values,
            degree=degree,
        ),
    )


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
    fn, dims, degree = _measure(measure)
    if psi.dims != dims:
        raise FormatError(f"measure {measure} requires dims {dims}, got {psi.dims}")
    if not pair.is_diagonal_frame():
        raise FormatError("white-box report requires a diagonal-frame pair")
    psi.require_normalized(atol=1e-9)
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


def monotone_trial(
    measure: str, seed: int, trial: int, party: int | None = None
) -> MonotoneCheck:
    """Trial ``trial`` of ``monte_carlo(measure, trials, seed, party)``, alone.

    The only code that turns ``(seed, trial)`` into draws: from the Philox
    substream ``RandomSource(seed, trial)`` it draws the state, then the
    measured party (uniform over 0, 1, 2 when ``party`` is None), then the
    POVM pair, and returns ``check_monotone`` of that draw.
    """
    _, dims, _ = _measure(measure)
    if party is not None and not 0 <= party < 3:
        raise ValueError(f"party must be 0, 1, or 2, got {party}")
    gen = RandomSource(seed, trial).generator()
    psi = random_state(dims, gen)
    p = int(gen.integers(0, 3)) if party is None else party
    pair = random_povm_pair(dims[p], gen, party=p)
    return check_monotone(psi, pair, measure)


def monte_carlo(
    measure: str,
    trials: int,
    seed: int,
    party: int | None = None,
) -> MonteCarloSummary:
    """Run ``monotone_trial`` for trials 0 .. trials-1 and summarize them.

    Trial t draws everything from the substream (seed, t), so any trial can
    be replayed in isolation with ``monotone_trial(measure, seed, t, party)``
    and the aggregate is schedule-independent. A failure is a trial that
    ``check_monotone`` does not pass: slack < -(1e-9*|before| + 1e-14).
    """
    _measure(measure)
    if trials < 1:
        raise ValueError("trials must be positive")
    min_slack = math.inf
    min_trial = -1
    min_before = math.nan
    failures = 0
    for t in range(trials):
        chk = monotone_trial(measure, seed, t, party)
        if chk.slack < min_slack:
            min_slack = chk.slack
            min_trial = t
            min_before = chk.before
        failures += not chk.passed
    return MonteCarloSummary(
        measure=measure,
        trials=trials,
        seed=seed,
        party=party,
        min_slack=min_slack,
        min_slack_trial=min_trial,
        min_slack_before=min_before,
        failures=failures,
    )
