"""Two-outcome measurement construction and the averaged-measure checks."""

import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import entclass as ec
from entclass.errors import FormatError, NormalizationError, ProofChainError
from entclass.monotone import _BLOCK, _apply, _draw_pair

from conftest import random_diagonal_pair, rep, uniform_block_state

SQ2I = 1 / math.sqrt(2)

#: sha256 per Monte-Carlo case; see ``monte_carlo_digests``.
DIGESTS = json.loads(Path(__file__).with_name("monte_carlo_digests.json").read_text())


def test_random_pair_completeness(gen):
    for k in (2, 3, 4):
        pair = ec.random_povm_pair(k, gen)
        m1, m2 = pair.element(1), pair.element(2)
        assert np.abs(m1.conj().T @ m1 + m2.conj().T @ m2 - np.eye(k)).max() < 1e-10


def test_random_pair_reproducible():
    a = ec.random_povm_pair(3, ec.RandomSource(5, 1))
    b = ec.random_povm_pair(3, ec.RandomSource(5, 1))
    assert a.alphas == b.alphas
    assert np.allclose(a.u1, b.u1) and np.allclose(a.v, b.v)


def test_degenerate_alpha_vector_rejected_by_constructor():
    with pytest.raises(FormatError):
        ec.PovmPair(0, np.eye(2), np.eye(2), np.eye(2), (1.0, 1.0), (0.5, 0.5))


#: Off by 0.9e-10 in the square: within the unitarity tolerance, yet two
#: such errors in u1^H u1 and alpha^2 + beta^2 add up beyond it.
_NEAR = math.sqrt(1 + 0.9e-10)

#: A valid 3x3 pair: identity unitaries, alpha_i = beta_i = 1/sqrt(2).
_SQ2I_3 = {"u1": np.eye(3), "u2": np.eye(3), "v": np.eye(3), "alphas": (SQ2I,) * 3, "betas": (SQ2I,) * 3}


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"u1": np.diag([1.0, 2.0])}, "u1 is not unitary within tolerance"),
        ({"u2": [[1, 1], [0, 1]]}, "u2 is not unitary within tolerance"),
        ({"v": 1.1 * np.eye(2)}, "v is not unitary within tolerance"),
        # The first failing check names the rejection.
        ({"v": 2 * np.eye(2), "alphas": (1.5, 0.6)}, "v is not unitary within tolerance"),
        ({"alphas": (-0.6, 0.6)}, "diagonal entries must lie in [0, 1]"),
        ({"alphas": (1.2, 0.6), "betas": (0.0, 0.8)}, "diagonal entries must lie in [0, 1]"),
        ({"betas": (0.6, 0.8)}, "alpha_i^2 + beta_i^2 must equal 1"),
        (
            {"u1": _NEAR * np.eye(2), "u2": _NEAR * np.eye(2), "alphas": (SQ2I * _NEAR,) * 2,
             "betas": (SQ2I * _NEAR,) * 2},
            "POVM elements do not sum to the identity",
        ),
        # Non-finite or huge factors are named before any product is formed.
        ({"u1": [[math.nan, 0], [0, 1]]}, "u1 is not unitary within tolerance"),
        ({"v": [[math.inf, 0], [0, 1]]}, "v is not unitary within tolerance"),
        ({"u2": [[1, 0], [0, -math.inf]]}, "u2 is not unitary within tolerance"),
        ({"u1": [[1e200, 0], [0, 1]]}, "u1 is not unitary within tolerance"),  # u1^H u1 would overflow
        # 3x3: with u2 and v both bad, u2 is named first.
        ({**_SQ2I_3, "u2": 2 * np.eye(3), "v": 2 * np.eye(3)}, "u2 is not unitary within tolerance"),
        ({**_SQ2I_3, "v": 2 * np.eye(3)}, "v is not unitary within tolerance"),
    ],
)
def test_povm_pair_names_what_it_rejects(fields, message):
    pair = {"party": 0, "u1": np.eye(2), "u2": np.eye(2), "v": np.eye(2),
            "alphas": (0.6, 0.6), "betas": (0.8, 0.8)}
    with pytest.raises(FormatError) as info:
        ec.PovmPair(**{**pair, **fields})
    assert str(info.value) == message


def test_povm_pair_builds_u_diag_v():
    pair = ec.PovmPair(0, **_SQ2I_3)
    for mu in (1, 2):
        assert np.array_equal(pair.element(mu), SQ2I * np.eye(3))


def test_degenerate_draws_resampled():
    from entclass.monotone import _degenerate

    # all transmitted by element 1 (betas ~ 0), or all by element 2
    assert _degenerate(np.array([1.0, 1.0]))
    assert _degenerate(np.array([1e-9, 1e-8]))
    assert not _degenerate(np.array([0.5, 1.0]))
    assert not _degenerate(np.array([1.0, 1e-3]))


def test_equality_case_povm_is_proportional():
    pair = ec.equality_case_povm(2, SQ2I)
    assert np.allclose(pair.element(1), np.eye(2) * SQ2I)
    assert np.allclose(pair.element(2), np.eye(2) * SQ2I)


def test_equality_case_outcomes_equal_input(gen):
    psi = ec.random_state((2, 2, 2), gen)
    outcomes = ec.apply_povm(psi, ec.equality_case_povm(2, 0.3, party=1))
    for out in outcomes:
        overlap = abs(np.vdot(out.state.amplitudes, psi.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)
    assert outcomes[0].probability == pytest.approx(0.09, abs=1e-12)


def test_apply_povm_projective_on_ghz():
    pair = ec.PovmPair(2, np.eye(2), np.eye(2), np.eye(2), (1.0, 0.0), (0.0, 1.0))
    outcomes = ec.apply_povm(rep("GHZ"), pair)
    p1, p2 = (o.probability for o in outcomes)
    assert p1 == pytest.approx(0.5) and p2 == pytest.approx(0.5)
    s1 = outcomes[0].state
    s2 = outcomes[1].state
    assert abs(s1.amplitudes[0, 0, 0]) == pytest.approx(1.0)
    assert abs(s2.amplitudes[1, 1, 1]) == pytest.approx(1.0)


def test_apply_povm_probabilities_sum_to_one(gen):
    for _ in range(200):
        psi = ec.random_state((2, 2, 3), gen)
        party = int(gen.integers(0, 3))
        pair = ec.random_povm_pair(psi.dims[party], gen, party=party)
        outcomes = ec.apply_povm(psi, pair)
        total = sum(o.probability for o in outcomes)
        assert abs(total - 1.0) < 1e-10
        for o in outcomes:
            if o.state is not None:
                assert abs(o.state.norm - 1.0) < 1e-10


def test_apply_povm_null_branch():
    pair = ec.PovmPair(0, np.eye(2), np.eye(2), np.eye(2), (1.0, 1.0), (0.0, 0.0))
    psi = rep("GHZ")
    outcomes = ec.apply_povm(psi, pair)
    assert outcomes[0].probability == pytest.approx(1.0)
    assert outcomes[1].state is None
    chk = ec.check_monotone(psi, pair, "det222")
    assert chk.passed
    assert chk.after_avg == pytest.approx(chk.before, abs=1e-12)


def _per_party(psi, groups):
    """``_apply`` as it was before its one-pass gather: per measured party,
    a transpose that puts the party first, a reshape, a matmul and the
    inverse transpose into place."""
    count, dims = len(psi), psi.shape[1:]
    raw = np.empty((count, 2) + dims, dtype=complex)
    for parties, rows, elements in groups:
        k = elements.shape[-1]
        for party in sorted(set(parties.tolist())):
            mine = parties == party
            others = [axis for axis in range(1, len(dims) + 1) if axis != party + 1]
            moved = psi[rows[mine]].transpose(0, party + 1, *others)
            out = elements[mine] @ moved.reshape(len(moved), 1, k, -1)
            back = list(range(3, len(dims) + 2))
            back.insert(party, 2)
            raw[rows[mine]] = out.reshape(out.shape[:3] + moved.shape[2:]).transpose(0, 1, *back)
    probabilities = (raw.real**2 + raw.imag**2).reshape(count, 2, -1).sum(axis=2)
    scale = np.sqrt(probabilities).reshape((count, 2) + (1,) * len(dims))
    return probabilities, (raw.view(float) / scale).view(complex)


def _stack(dims, count, seed):
    states = (ec.random_state(dims, ec.RandomSource(seed, t)) for t in range(count))
    return np.array([psi.amplitudes for psi in states])


def _group(dims, rows, parties, seed):
    """A group of random pairs measuring ``rows`` of a stack at ``parties``."""
    elements = [ec.random_povm_pair(dims[p], ec.RandomSource(seed, i))._elements
                for i, p in enumerate(parties)]
    return np.array(parties), np.array(rows), np.array(elements)


@pytest.mark.parametrize(
    "dims, groups",
    [
        # One det222 group: rows out of order, parties interleaved.
        ((2, 2, 2), [((3, 0, 2, 1), (2, 0, 1, 0))]),
        # det223: a k = 2 group at parties 1 and 0, and a k = 3 group.
        ((2, 2, 3), [((4, 1, 2), (1, 0, 1)), ((3, 0), (2, 2))]),
    ],
)
def test_one_pass_apply_matches_the_per_party_products(dims, groups):
    groups = [_group(dims, rows, parties, 40 + i) for i, (rows, parties) in enumerate(groups)]
    psi = _stack(dims, sum(len(rows) for _, rows, _ in groups), 9)
    probabilities, null, states = _apply(psi, groups)
    want_probabilities, want_states = _per_party(psi, groups)
    assert not null.any()
    assert np.array_equal(probabilities, want_probabilities)
    assert np.array_equal(states, want_states)


@pytest.mark.parametrize("dims", [(3, 2), (2, 3, 4), (2, 2, 16)])
def test_apply_povm_matches_the_per_party_products_on_any_format(dims):
    psi = ec.random_state(dims, ec.RandomSource(8))
    for party, k in enumerate(dims):
        pair = ec.random_povm_pair(k, ec.RandomSource(8, party + 1), party=party)
        outcomes = ec.apply_povm(psi, pair)
        group = (np.array([party]), np.array([0]), pair._elements[None])
        probabilities, states = _per_party(psi.amplitudes[None], [group])
        for mu, outcome in enumerate(outcomes):
            assert outcome.probability == probabilities[0, mu]
            assert np.array_equal(outcome.state.amplitudes, states[0, mu])


def test_check_monotone_ghz_random_pairs():
    psi = rep("GHZ")
    for t in range(2000):
        gen = ec.RandomSource(17, t).generator()
        party = int(gen.integers(0, 3))
        pair = ec.random_povm_pair(2, gen, party=party)
        chk = ec.check_monotone(psi, pair, "det222")
        assert chk.slack >= -1e-9 * chk.before


def test_check_monotone_w_class_stays_null(gen):
    w = rep("W")
    thr = 1e-10
    for _ in range(200):
        pair = ec.random_povm_pair(2, gen, party=int(gen.integers(0, 3)))
        chk = ec.check_monotone(w, pair, "det222")
        assert chk.before <= thr
        assert chk.after_avg <= thr
        assert chk.passed


def test_check_monotone_equality_case_slack_zero():
    ghz = rep("GHZ")
    for party in range(3):
        for alpha in (0.3, SQ2I, 0.9):
            chk = ec.check_monotone(
                ghz, ec.equality_case_povm(2, alpha, party=party), "det222"
            )
            assert abs(chk.slack) <= 1e-9


def test_check_monotone_det222_true_theorem(gen):
    # Degree 4: the raw averaged inequality is a theorem; sample broadly.
    for t in range(2000):
        g = ec.RandomSource(23, t).generator()
        psi = ec.random_state((2, 2, 2), g)
        party = int(g.integers(0, 3))
        pair = ec.random_povm_pair(2, g, party=party)
        chk = ec.check_monotone(psi, pair, "det222")
        assert chk.slack >= -1e-9 * chk.before


def test_det223_raw_average_can_increase():
    # The degree-6 modulus is NOT an entanglement monotone: with Alice
    # block norms (sqrt .9, sqrt .1) and the diagonal pair (.95, .85) the
    # average strictly increases by a predictable factor.
    g = ec.RandomSource(123).generator()
    psi = ec.random_state((2, 2, 3), g)
    a = psi.amplitudes.copy()
    a[0] *= math.sqrt(0.9) / np.linalg.norm(a[0])
    a[1] *= math.sqrt(0.1) / np.linalg.norm(a[1])
    psi = ec.StateTensor((2, 2, 3), a)
    pair = ec.PovmPair(
        0, np.eye(2), np.eye(2), np.eye(2),
        (0.95, 0.85), tuple(np.sqrt(1 - np.array([0.95, 0.85]) ** 2)),
    )
    chk = ec.check_monotone(psi, pair, "det223")
    alphas, betas = np.array(pair.alphas), np.array(pair.betas)
    z2 = np.array([0.9, 0.1])
    predicted = (
        alphas.prod() ** 3 / (alphas**2 @ z2) ** 2
        + betas.prod() ** 3 / (betas**2 @ z2) ** 2
    )
    assert chk.after_avg / chk.before == pytest.approx(predicted, rel=1e-9)
    assert predicted > 1
    assert chk.slack < 0 and not chk.passed


@pytest.mark.parametrize("measure", ["det222", "det223"])
def test_degree_normalized_measure_is_monotone(measure):
    # |Det|^(2/d) is homogeneous of degree two and SL-invariant, hence an
    # entanglement monotone; this holds on every party and every draw.
    fn, dims, degree = ec.MEASURES[measure]
    for t in range(2000):
        g = ec.RandomSource(29, t).generator()
        psi = ec.random_state(dims, g)
        party = int(g.integers(0, 3))
        pair = ec.random_povm_pair(dims[party], g, party=party)
        chk = ec.check_monotone(psi, pair, measure)
        exponent = 2.0 / degree
        before = chk.before**exponent
        after = sum(
            out.probability * val**exponent
            for out, val in zip(chk.outcomes, chk.measure_after)
        )
        assert before - after >= -1e-9 * before


def test_check_monotone_format_mismatch():
    with pytest.raises(FormatError):
        ec.check_monotone(rep("GHZ"), ec.random_povm_pair(2, ec.RandomSource(1)), "det223")


def test_permutation_consistency(gen):
    # A pair on party 0 of psi behaves like the same pair on party 1 of the
    # party-swapped state.
    for _ in range(100):
        psi = ec.random_state((2, 2, 2), gen)
        swapped = ec.StateTensor((2, 2, 2), np.swapaxes(psi.amplitudes, 0, 1))
        pair0 = ec.random_povm_pair(2, gen, party=0)
        pair1 = ec.PovmPair(1, pair0.u1, pair0.u2, pair0.v, pair0.alphas, pair0.betas)
        a = ec.check_monotone(psi, pair0, "det222")
        b = ec.check_monotone(swapped, pair1, "det222")
        assert a.before == pytest.approx(b.before, abs=1e-12)
        assert a.slack == pytest.approx(b.slack, abs=1e-11)


# ---------------------------------------------------------------------------
# white-box chain


def test_amgm_equality_case_both_sides_one():
    psi = rep("GHZ")
    pair = ec.equality_case_povm(2, SQ2I)
    bounds = ec.amgm_bound_report(psi, pair, "det222")
    assert bounds.reduced_sum == pytest.approx(1.0, abs=1e-9)
    assert bounds.majorant == pytest.approx(1.0, abs=1e-9)


def test_amgm_skewed_alphas_on_ghz():
    pair = ec.PovmPair(
        0, np.eye(2), np.eye(2), np.eye(2),
        (0.9, 0.1), tuple(np.sqrt(1 - np.array([0.9, 0.1]) ** 2)),
    )
    bounds = ec.amgm_bound_report(rep("GHZ"), pair, "det222")
    assert bounds.reduced_sum < 1.0
    assert bounds.reduced_sum <= bounds.majorant + 1e-12
    assert bounds.majorant <= 1.0 + 1e-12


def test_amgm_chain_on_uniform_block_states():
    for t in range(1000):
        g = ec.RandomSource(41, t).generator()
        measure = "det222" if t % 2 == 0 else "det223"
        dims = ec.MEASURES[measure][1]
        party = int(g.integers(0, 3))
        psi = uniform_block_state(dims, party, g)
        pair = random_diagonal_pair(dims[party], party, g)
        bounds = ec.amgm_bound_report(psi, pair, measure)
        assert bounds.reduced_sum <= bounds.majorant + 1e-9
        assert bounds.majorant <= 1.0 + 1e-9


def test_amgm_reduced_sum_matches_black_box_ratio(gen):
    # The diagonal-frame reduced sum is exactly the after/before ratio;
    # this pins the d/k exponent for every party and both measures.
    for _ in range(300):
        measure = "det222" if int(gen.integers(0, 2)) else "det223"
        fn, dims, _ = ec.MEASURES[measure]
        party = int(gen.integers(0, 3))
        psi = ec.random_state(dims, gen)
        if abs(fn(psi)) < 1e-6:
            continue
        pair = random_diagonal_pair(dims[party], party, gen)
        chk = ec.check_monotone(psi, pair, measure)
        z = np.linalg.norm(
            np.moveaxis(psi.amplitudes, party, 0).reshape(dims[party], -1), axis=1
        )
        k, d = dims[party], ec.MEASURES[measure][2]
        al, be = np.array(pair.alphas), np.array(pair.betas)
        reduced = sum(
            float(np.prod(diag)) ** (d / k) / float(diag**2 @ z**2) ** ((d - 2) / 2)
            for diag in (al, be)
        )
        assert chk.after_avg / chk.before == pytest.approx(reduced, rel=1e-8)


def test_amgm_rejects_non_diagonal_pair(gen):
    pair = ec.random_povm_pair(2, gen)
    if pair.is_diagonal_frame():
        pytest.skip("random draw happened to be diagonal")
    with pytest.raises(FormatError):
        ec.amgm_bound_report(rep("GHZ"), pair, "det222")


@pytest.mark.parametrize("party", [-1, 3])
def test_amgm_rejects_a_party_out_of_range(party):
    # A party outside the state is rejected, neither read from the end nor past it.
    with pytest.raises(FormatError, match=f"^party {party} out of range$"):
        ec.amgm_bound_report(rep("GHZ"), ec.equality_case_povm(2, SQ2I, party=party), "det222")


def test_amgm_raises_off_uniform_locus(gen):
    # Off the uniform-block locus the majorant genuinely exceeds one.
    psi = ec.random_state((2, 2, 2), gen)
    a = psi.amplitudes.copy()
    a[0] *= math.sqrt(0.9) / np.linalg.norm(a[0])
    a[1] *= math.sqrt(0.1) / np.linalg.norm(a[1])
    psi = ec.StateTensor((2, 2, 2), a)
    pair = ec.PovmPair(
        0, np.eye(2), np.eye(2), np.eye(2),
        (SQ2I, SQ2I), (SQ2I, SQ2I),
    )
    with pytest.raises(ProofChainError, match="block norms"):
        ec.amgm_bound_report(psi, pair, "det222")


# ---------------------------------------------------------------------------
# Monte-Carlo driver


def test_monte_carlo_summary_and_determinism():
    a = ec.monte_carlo("det222", 300, seed=7)
    b = ec.monte_carlo("det222", 300, seed=7)
    assert a == b
    assert a.passed and a.failures == 0
    assert a.min_slack >= -1e-9 * a.min_slack_before


def test_monte_carlo_trial_replay():
    summary = ec.monte_carlo("det222", 200, seed=13)
    g = ec.RandomSource(13, summary.min_slack_trial).generator()
    psi = ec.random_state((2, 2, 2), g)
    party = int(g.integers(0, 3))
    pair = ec.random_povm_pair(2, g, party=party)
    chk = ec.check_monotone(psi, pair, "det222")
    assert chk.slack == pytest.approx(summary.min_slack, abs=1e-15)


def test_monte_carlo_fixed_party():
    summary = ec.monte_carlo("det223", 200, seed=3, party=2)
    assert summary.party == 2
    assert summary.trials == 200


@pytest.mark.parametrize(
    "measure, party, trials, groups",
    [("det222", None, 150, [1, 1, 1]), ("det223", 2, 150, [1, 1, 1]), ("det223", None, 150, [2, 2, 2]),
     ("det223", 0, 3, [1])],
)
def test_monte_carlo_lapack_call_budget(measure, party, trials, groups, monkeypatch):
    # Per block: one qr_r_raw and one qr_reduced per pair dimension drawn,
    # sharing one errstate, and one stacked det for det223 in the caller's
    # errstate; nothing through np.linalg.
    calls, errstates = [], []
    for module in (ec.numerics, ec.invariants):
        lapack, errstate = module._lapack, module._errstate

        def counting(gufunc, *args, lapack=lapack, **kwargs):
            calls.append(gufunc.__name__)
            return lapack(gufunc, *args, **kwargs)

        def entering(fail, errstate=errstate):
            errstates.append(fail)
            return errstate(fail)

        monkeypatch.setattr(module, "_lapack", counting)
        monkeypatch.setattr(module, "_errstate", entering)
    for name in ("qr", "det", "svd"):
        monkeypatch.setattr(np.linalg, name, None)
    summary = ec.monte_carlo(measure, trials, seed=5, party=party)
    assert summary.trials == trials
    blocks = len(groups)
    assert calls.count("qr_r_raw") == calls.count("qr_reduced") == sum(groups)
    assert calls.count("det") == (blocks if measure == "det223" else 0)
    assert len(calls) == 2 * sum(groups) + calls.count("det")
    assert errstates == [ec.numerics._qr_failed] * sum(groups)


@pytest.mark.parametrize("party", [None, 0, 2])
@pytest.mark.parametrize("measure", sorted(ec.MEASURES))
def test_monotone_trial_matches_hand_rolled_draw(measure, party):
    # The documented draw order, written out independently of the kernel.
    _, dims, _ = ec.MEASURES[measure]
    for t in (0, 1, 57):
        g = ec.RandomSource(5, t).generator()
        psi = ec.random_state(dims, g)
        p = int(g.integers(0, 3)) if party is None else party
        pair = ec.random_povm_pair(dims[p], g, party=p)
        want = ec.check_monotone(psi, pair, measure)
        got = ec.monotone_trial(measure, 5, t, party)
        assert (got.slack, got.before, got.passed) == (
            want.slack, want.before, want.passed,
        )
        assert got.measure_after == want.measure_after
        for mine, ref in zip(got.outcomes, want.outcomes):
            # Equal outcome states mean the same party and the same pair.
            assert mine.probability == ref.probability
            assert np.array_equal(mine.state.amplitudes, ref.state.amplitudes)


def test_draw_pair_diagonals_are_the_uniform_draws():
    # Twin generators: the pair's diagonals are gen.uniform(0.0, 1.0, size=k)
    # bit for bit, and its normals follow them on the stream.
    for seed, stream in ((0, 0), (7, 2**63), (2**64 - 1, 12345), (20243, 393)):
        for k in range(2, 17):
            mine = ec.RandomSource(seed, stream).generator()
            twin = ec.RandomSource(seed, stream).generator()
            alphas, normals = _draw_pair(mine, k)
            assert alphas.tobytes() == twin.uniform(0.0, 1.0, size=k).tobytes()
            assert normals.tobytes() == twin.standard_normal(6 * k * k).tobytes()


class _ScriptedDiagonals:
    """A generator stand-in that hands out scripted diagonals and logs each draw."""

    def __init__(self, *diagonals):
        self.diagonals = [np.array(d) for d in diagonals]
        self.log = []

    def random(self, k):
        self.log.append(("diagonals", k))
        return self.diagonals.pop(0)

    def uniform(self, low, high, size):
        assert (low, high) == (0.0, 1.0)
        return self.random(size)

    def standard_normal(self, size):
        self.log.append(("normals", size))
        return np.zeros(size)


@pytest.mark.parametrize(
    "diagonals, kept",
    [
        # min(alpha, beta) below 1e-7 at every level: redrawn, twice.
        (([0.0, 1.0, 1e-9], [1.0 - 2**-53, 5e-8, 1.0], [0.25, 0.5, 0.75]), 2),
        (([1.0 - 2**-53, 0.0, 0.0], [0.25, 0.5, 0.75]), 1),
        # alphas[0] at the edge, but another level is not: kept.
        (([1e-9, 0.5, 1.0], [0.25, 0.5, 0.75]), 0),
        (([0.5, 0.0, 1.0], [0.25, 0.5, 0.75]), 0),
    ],
)
def test_draw_pair_redraws_degenerate_diagonals(diagonals, kept):
    gen = _ScriptedDiagonals(*diagonals)
    alphas, normals = _draw_pair(gen, 3)
    assert alphas.tolist() == list(diagonals[kept])
    assert gen.log == [("diagonals", 3)] * (kept + 1) + [("normals", 54)]
    assert normals.shape == (54,)


def test_monotone_trial_rejects_party_out_of_range():
    with pytest.raises(ValueError, match="party"):
        ec.monotone_trial("det222", 1, 0, party=3)


@pytest.mark.parametrize("value", [1.5, True, "2"])
def test_monotone_batch_rejects_non_integral_trials(value):
    # int() used to run trial 1 for 1.5 and True, and trial 2 for "2".
    message = re.escape(f"stream must be an integer, got {value!r}")
    for trials in ([value], list(range(_BLOCK)) + [value]):
        with pytest.raises(ValueError, match=message):
            ec.monotone_batch("det222", 1, trials)


def test_monotone_batch_takes_numpy_integers():
    got = ec.monotone_batch("det223", 1, np.array([3, 70], dtype=np.int64))
    want = ec.monotone_batch("det223", 1, [3, 70])
    for name in ("trial", "before", "slack", "passed", "probabilities", "measure_after"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize(
    "name, value, call",
    [
        ("trials", True, lambda v: ec.monte_carlo("det222", v, 1)),
        ("trials", 2.5, lambda v: ec.monte_carlo("det222", v, 1)),
        ("party", True, lambda v: ec.monte_carlo("det222", 2, 1, party=v)),
        ("party", 1.0, lambda v: ec.monte_carlo("det223", 2, 1, party=v)),
        ("party", True, lambda v: ec.monotone_trial("det222", 1, 0, party=v)),
        ("party", True, lambda v: ec.PovmPair(v, *[np.eye(2)] * 3, (0.6, 0.8), (0.8, 0.6))),
        ("party", 1.5, lambda v: ec.random_povm_pair(2, ec.RandomSource(1), party=v)),
        ("party", 1.0, lambda v: ec.equality_case_povm(2, 0.3, party=v)),
    ],
    ids=[
        "monte_carlo-trials-bool", "monte_carlo-trials-float", "monte_carlo-party-bool",
        "monte_carlo-party-float", "monotone_trial-party-bool", "PovmPair-party-bool",
        "random_povm_pair-party-float", "equality_case_povm-party-float",
    ],
)
def test_party_and_trial_count_must_be_integers(name, value, call):
    # Each of these used to run as the integer it rounds to, or to fail
    # with a TypeError from tuple indexing or range().
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(value)


def test_party_and_trial_count_take_numpy_integers():
    # The summary holds the checked Python ints, so its repr is the int call's.
    got = ec.monte_carlo("det223", np.int64(70), np.uint64(4), party=np.int32(1))
    assert repr(got) == repr(ec.monte_carlo("det223", 70, 4, party=1))
    pair = ec.random_povm_pair(2, ec.RandomSource(1), party=np.int64(2))
    assert type(pair.party) is int and pair.party == 2


def test_monte_carlo_counts_what_the_trial_kernel_fails():
    summary = ec.monte_carlo("det223", 600, seed=11)
    checks = [ec.monotone_trial("det223", 11, t) for t in range(600)]
    assert summary.failures == 8
    assert summary.failures == sum(not chk.passed for chk in checks)
    worst = min(range(600), key=lambda t: checks[t].slack)
    assert summary.min_slack_trial == worst
    assert summary.min_slack == checks[worst].slack
    assert summary.min_slack_before == checks[worst].before


# ---------------------------------------------------------------------------
# the batched engine


def _hand_rolled(measure, seed, t, party):
    """Trial t through the public draw chain, one call per step."""
    _, dims, _ = ec.MEASURES[measure]
    g = ec.RandomSource(seed, t).generator()
    psi = ec.random_state(dims, g)
    p = int(g.integers(0, 3)) if party is None else party
    return ec.check_monotone(psi, ec.random_povm_pair(dims[p], g, party=p), measure)


def _check_row(chk):
    probabilities = tuple(out.probability for out in chk.outcomes)
    return chk.before, chk.slack, chk.passed, probabilities, chk.measure_after


def _batch_row(batch, i):
    return (
        batch.before[i],
        batch.slack[i],
        batch.passed[i],
        tuple(batch.probabilities[i]),
        tuple(batch.measure_after[i]),
    )


@pytest.mark.parametrize("party", [None, 0, 1, 2])
@pytest.mark.parametrize("measure", sorted(ec.MEASURES))
def test_every_route_computes_a_trial_bit_for_bit(measure, party):
    seed = 31
    sizes = (1, 12, _BLOCK + 5)
    batches = {n: ec.monotone_batch(measure, seed, range(n), party) for n in sizes}
    longest = batches[sizes[-1]]
    for n, batch in batches.items():
        assert batch.trial.tolist() == list(range(n))
        for field in ("before", "slack", "passed", "probabilities", "measure_after"):
            assert np.array_equal(getattr(batch, field), getattr(longest, field)[:n])
        summary = ec.monte_carlo(measure, n, seed, party)
        worst = int(np.argmin(batch.slack))
        assert summary.min_slack_trial == worst
        assert summary.min_slack == batch.slack[worst]
        assert summary.min_slack_before == batch.before[worst]
        assert summary.failures == int(np.count_nonzero(~batch.passed))
    for t in (0, 11, _BLOCK - 1, _BLOCK, _BLOCK + 4):
        row = _batch_row(longest, t)
        assert row == _check_row(ec.monotone_trial(measure, seed, t, party))
        assert row == _check_row(_hand_rolled(measure, seed, t, party))


def monte_carlo_digests() -> dict[str, str]:
    """sha256 of the repr of each ``monte_carlo`` summary and of the bytes
    of each ``monotone_batch`` array, over both measures, every party
    choice, one trial, a partial block and more than one block, on three
    seeds (the last above 2**63)."""
    digests = {}
    for measure in sorted(ec.MEASURES):
        for party in (None, 0, 1, 2):
            for trials in (1, 12, _BLOCK + 6):
                for seed in (5, 2024, 2**63 + 7):
                    key = f"{measure} party={party} trials={trials} seed={seed}"
                    summary = ec.monte_carlo(measure, trials, seed, party)
                    digests[f"{key} summary"] = hashlib.sha256(repr(summary).encode()).hexdigest()
                    batch = ec.monotone_batch(measure, seed, range(trials), party)
                    h = hashlib.sha256()
                    for field in ("trial", "before", "slack", "passed", "probabilities", "measure_after"):
                        array = getattr(batch, field)
                        h.update(f"{field} {array.dtype} {array.shape}".encode())
                        h.update(array.tobytes())
                    digests[f"{key} batch"] = h.hexdigest()
    return digests


def test_monte_carlo_outputs_match_parent_digests():
    # Engine rewrites keep every summary and batch array bit for bit; a
    # deliberate change regenerates monte_carlo_digests.json and says so.
    got = monte_carlo_digests()
    assert sorted(got) == sorted(DIGESTS)
    assert [key for key in DIGESTS if got[key] != DIGESTS[key]] == []


@pytest.mark.parametrize("measure", sorted(ec.MEASURES))
def test_engine_matches_a_plain_reference(measure):
    # Per-outcome tensordot and the scalar measure, as the engine replaced.
    fn, dims, _ = ec.MEASURES[measure]
    batch = ec.monotone_batch(measure, 7, range(40))
    for t in range(40):
        g = ec.RandomSource(7, t).generator()
        psi = ec.random_state(dims, g)
        p = int(g.integers(0, 3))
        pair = ec.random_povm_pair(dims[p], g, party=p)
        after = 0.0
        for mu in (1, 2):
            raw = np.tensordot(pair.element(mu), psi.amplitudes, (1, p))
            raw = np.moveaxis(raw, 0, p)
            prob = float(np.vdot(raw, raw).real)
            assert batch.probabilities[t, mu - 1] == pytest.approx(prob, rel=1e-12)
            after += prob * abs(fn(ec.StateTensor(dims, raw / math.sqrt(prob))))
        before = abs(fn(psi))
        assert batch.before[t] == pytest.approx(before, rel=1e-12)
        assert batch.slack[t] == pytest.approx(before - after, abs=1e-12 * before)


def test_monotone_batch_takes_any_trial_indices():
    batch = ec.monotone_batch("det223", 11, [134, 5, 134])
    assert batch.trial.tolist() == [134, 5, 134]
    assert _batch_row(batch, 0) == _batch_row(batch, 2)
    assert _batch_row(batch, 1) == _check_row(ec.monotone_trial("det223", 11, 5))


@pytest.mark.parametrize("party", [0, 1, 2])
@pytest.mark.parametrize("measure", sorted(ec.MEASURES))
def test_annihilated_outcome_is_a_null_branch_without_warnings(measure, party):
    _, dims, _ = ec.MEASURES[measure]
    psi = ec.make_state(dims, {(0, 0, 0): 1.0})
    k = dims[party]
    eye = np.eye(k)
    keep = (1.0,) + (0.0,) * (k - 1)
    pair = ec.PovmPair(party, eye, eye, eye, keep, tuple(1.0 - a for a in keep))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chk = ec.check_monotone(psi, pair, measure)
        outcomes = ec.apply_povm(psi, pair)
    assert chk.outcomes[1] == outcomes[1] == ec.Outcome(0.0, None)
    assert chk.outcomes[0].probability == 1.0
    assert chk.measure_after[1] == 0.0
    assert chk.passed


@pytest.mark.parametrize("scale", [2.0, 1e300])
def test_engine_rejects_unnormalized_states(scale):
    psi = ec.StateTensor((2, 2, 2), scale * rep("GHZ").amplitudes)
    pair = ec.equality_case_povm(2, 0.5)
    with pytest.raises(NormalizationError):
        ec.check_monotone(psi, pair, "det222")
    with pytest.raises(NormalizationError):
        ec.apply_povm(psi, pair)


def test_engine_rejects_a_pair_of_the_wrong_dimension_or_party():
    psi = ec.random_state((2, 2, 3), ec.RandomSource(3))
    with pytest.raises(FormatError, match="dimension"):
        ec.check_monotone(psi, ec.equality_case_povm(3, 0.5, party=0), "det223")
    for party in (3, -1):
        with pytest.raises(FormatError, match="out of range"):
            ec.apply_povm(psi, ec.equality_case_povm(2, 0.5, party=party))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ec.monotone_batch("det222", 1, range(3), party=3),
        lambda: ec.monte_carlo("det223", 5, 1, party=-1),
    ],
)
def test_batch_routes_reject_party_out_of_range(call):
    with pytest.raises(ValueError, match="party"):
        call()
