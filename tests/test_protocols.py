"""Entanglement swapping and distillation, replayed through the classifier."""

import math

import numpy as np
import pytest

import entclass as ec
from entclass import protocols

from conftest import rep


def test_two_bell_is_generic_representative():
    psi = ec.two_bell()
    assert psi.dims == (2, 2, 4)
    assert psi.is_normalized()
    assert ec.classify(psi)[0] == ec.ClassLabel.GEN224
    assert ec.invariant_report(psi).local_ranks == (2, 2, 4)


def test_two_bell_clare_sees_maximal_mixture():
    rho = ec.reduced_density(ec.two_bell(), 2)
    assert np.allclose(rho.entries, np.eye(4) / 4)


def test_swap_four_uniform_branches():
    branches = ec.entanglement_swap()
    assert len(branches) == 4
    for b in branches:
        assert b.probability == pytest.approx(0.25, abs=1e-12)
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)


def test_swap_branches_are_biseparable_bell_pairs():
    for b in ec.entanglement_swap():
        assert b.post_class == ec.ClassLabel.B3
        conc = ec.concurrence(ec.reduced_density_pair(b.post_state, 0, 1))
        assert conc == pytest.approx(1.0, abs=1e-10)


def test_swap_recovery_restores_canonical_pair():
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    for b in ec.entanglement_swap():
        recovered = ec.apply_local(b.recovery, b.post_state).normalize()
        rho = ec.reduced_density_pair(recovered, 0, 1)
        overlap = float((phi_plus.conj() @ rho.entries @ phi_plus).real)
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_swap_respects_partial_order():
    for b in ec.entanglement_swap():
        assert ec.reachable(ec.ClassLabel.GEN224, b.post_class)
        assert b.post_class.grade <= ec.ClassLabel.GEN224.grade


def test_distill_ghz_branch():
    out = ec.distill_from_generic("GHZ")
    assert out.post_class == ec.ClassLabel.GHZ
    assert out.probability == pytest.approx(0.5, abs=1e-12)
    assert ec.three_tangle(out.post_state) == pytest.approx(1.0, abs=1e-10)


def test_distill_ghz_both_branches_land_in_class():
    branches = ec.distill_ghz_branches()
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)
    ghz = rep("GHZ")
    for b in branches:
        assert b.post_class == ec.ClassLabel.GHZ
        post = b.post_state
        if b.recovery is not None:
            post = ec.apply_local(b.recovery, post).normalize()
        overlap = abs(np.vdot(post.amplitudes, ghz.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_distill_w_branch():
    out = ec.distill_from_generic("W")
    assert out.post_class == ec.ClassLabel.W
    assert out.probability == pytest.approx(3 / 8, abs=1e-12)
    assert out.post_state.dims == (2, 2, 2)
    overlap = abs(np.vdot(out.post_state.amplitudes, rep("W").amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_distill_bell_ab_branch():
    out = ec.distill_from_generic("BELL_AB")
    assert out.post_class == ec.ClassLabel.B3
    assert out.probability == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize(
    "target, branches",
    [("BELL_AB", ec.entanglement_swap), ("GHZ", ec.distill_ghz_branches)],
)
def test_distill_equals_the_first_branch_of_the_full_protocol(target, branches):
    got, want = ec.distill_from_generic(target), branches()[0]
    assert (got.branch, got.probability, got.post_class) == (
        want.branch, want.probability, want.post_class,
    )
    assert np.array_equal(got.post_state.amplitudes, want.post_state.amplitudes)
    if want.recovery is None:
        assert got.recovery is None
    else:
        assert len(got.recovery.factors) == len(want.recovery.factors)
        for mine, ref in zip(got.recovery.factors, want.recovery.factors):
            assert np.array_equal(mine, ref)


def test_distill_unknown_target():
    with pytest.raises(ec.FormatError):
        ec.distill_from_generic("BELL_BC")


@pytest.mark.parametrize("spelling", ["bell-ab", " Bell_AB ", ec.ClassLabel.GHZ, "w"])
def test_distill_target_spellings(spelling):
    key = protocols._distill_key(spelling)
    assert key in protocols._DISTILL_BRANCHES
    assert ec.distill_from_generic(spelling) is ec.distill_from_generic(key)


def test_distill_probabilities_match_projected_norms():
    base = ec.two_bell()
    ghz_element = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex)
    raw = ec.apply_local(ec.LocalOperation.single_party((2, 2, 4), 2, ghz_element), base)
    assert ec.distill_from_generic("GHZ").probability == pytest.approx(raw.norm**2)


def test_distill_ghz_agrees_with_povm_coarse_graining():
    # The same two-outcome measurement in square diagonal form: level
    # pattern (1,0,0,1) vs (0,1,1,0) on Clare. Probabilities and classes
    # must match the rectangular distillation branches.
    eye = np.eye(4, dtype=complex)
    pair = ec.PovmPair(2, eye, eye, eye, (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0))
    outcomes = ec.apply_povm(ec.two_bell(), pair)
    branches = ec.distill_ghz_branches()
    for outcome, branch in zip(outcomes, branches):
        assert outcome.probability == pytest.approx(branch.probability, abs=1e-12)
        assert ec.classify(outcome.state)[0] == branch.post_class


def test_all_branches_descend_the_order():
    outcomes = list(ec.entanglement_swap()) + [
        ec.distill_from_generic(t) for t in ("GHZ", "W", "BELL_AB")
    ]
    for o in outcomes:
        assert o.post_class.grade <= ec.ClassLabel.GEN224.grade
        assert ec.reachable(ec.ClassLabel.GEN224, o.post_class)


def test_branches_are_computed_once_and_shared_read_only():
    first, second = ec.entanglement_swap(), ec.entanglement_swap()
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert [b.branch for b in ec.entanglement_swap()] == ["phi+", "phi-", "psi+", "psi-"]
    assert ec.distill_from_generic("BELL_AB") is second[0]
    assert ec.distill_from_generic("GHZ") is ec.distill_ghz_branches()[0]
    with pytest.raises(ValueError, match="read-only"):
        second[0].post_state.amplitudes[0, 0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        second[1].recovery.factors[0][0, 0] = 0


@pytest.mark.parametrize("name", sorted(protocols._BRANCHES))
def test_cached_branch_equals_a_fresh_computation(name):
    got = protocols._branch(name)
    want = protocols._clare_branch(ec.two_bell(), name, *protocols._BRANCHES[name])
    assert got is not want
    assert (got.branch, got.probability, got.post_class) == (
        want.branch, want.probability, want.post_class,
    )
    assert got.post_state.amplitudes.tobytes() == want.post_state.amplitudes.tobytes()
    assert (got.recovery is None) == (want.recovery is None)
    if want.recovery is not None:
        assert [m.tobytes() for m in got.recovery.factors] == [
            m.tobytes() for m in want.recovery.factors
        ]
        assert got.recovery.invertible == want.recovery.invertible
