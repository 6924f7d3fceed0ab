"""Decision procedure, cross-checks, and the conversion partial order."""

import numpy as np
import pytest

import entclass as ec
from entclass.classify import _cross_check, _rank_vote, partial_order
from entclass.errors import AmbiguityError, SignatureError

from conftest import (
    ALL_LABELS,
    compress_clare,
    natural_n,
    random_invertible_op,
    random_noninvertible_op,
    rep,
)

TABLE = {
    "GEN224": ((2, 2, 4), 4, None, None),
    "C223_GEN": ((2, 2, 3), 3, False, None),
    "C223_DEG": ((2, 2, 3), 2, True, None),
    "GHZ": ((2, 2, 2), 2, True, False),
    "W": ((2, 2, 2), 1, True, True),
    "B3": ((2, 2, 1), 1, True, True),
    "B2": ((2, 1, 2), 0, True, True),
    "B1": ((1, 2, 2), 0, True, True),
    "SEP": ((1, 1, 1), 0, True, True),
}


@pytest.mark.parametrize("name", list(TABLE))
def test_representatives_reproduce_classification_table(name):
    ranks, rtr, det223_zero, det222_zero = TABLE[name]
    label = ec.ClassLabel.parse(name)
    got, report = ec.classify(rep(label))
    assert got == label
    assert report.local_ranks == ranks
    assert report.rank_rtr == rtr
    if det223_zero is None:
        assert report.det223 is None
    else:
        assert (report.margins["det223"] <= 0) == det223_zero
    if det222_zero is None:
        assert report.det222 is None
    else:
        assert (report.margins["det222"] <= 0) == det222_zero


def test_classify_three_term_ghz_pattern():
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 1): 1})
    assert ec.classify(psi)[0] == ec.ClassLabel.GHZ


def test_classify_scale_invariant(gen):
    psi = ec.make_state((2, 2, 3), {(0, 0, 0): 3, (0, 1, 1): 2, (1, 1, 2): 5})
    assert ec.classify(psi)[0] == ec.classify(psi.normalize())[0]


@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
def test_classify_invariant_under_random_sl(label, gen):
    psi = rep(label)
    for _ in range(100):
        op = random_invertible_op(psi.dims, gen)
        assert ec.classify(ec.apply_local(op, psi))[0] == label


@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
def test_min_clare_dim_is_the_clare_rank(label):
    # A class needs at least as many Clare levels as Clare's local rank;
    # B1 and B2 have r3 = 2, so neither exists at n = 1.
    psi = ec.representative(label, 4)
    assert label.min_clare_dim == ec.local_ranks(psi)[2]


def test_illegal_signature_rejected():
    with pytest.raises(SignatureError, match=r"1, 2, 1"):
        raise SignatureError((1, 2, 1))


def test_cross_check_raises_ambiguity():
    with pytest.raises(AmbiguityError) as err:
        _cross_check((2, 2, 2), ec.ClassLabel.GHZ, 1)
    assert err.value.det_vote == ec.ClassLabel.GHZ
    assert err.value.rank_vote == ec.ClassLabel.W
    with pytest.raises(AmbiguityError):
        _cross_check((2, 2, 3), ec.ClassLabel.C223_DEG, 3)


def test_rank_vote_lookup():
    assert _rank_vote((2, 2, 2), 2) == ec.ClassLabel.GHZ
    assert _rank_vote((2, 2, 3), 2) == ec.ClassLabel.C223_DEG
    assert _rank_vote((2, 2, 2), 0) is None
    for label, rank in ec.EXPECTED_RANK_RTR.items():
        assert _rank_vote(label.rank_signature, rank) == label
    for signature in ((1, 1, 1), (2, 2, 1), (2, 2, 4)):
        for rank in range(5):
            assert _rank_vote(signature, rank) is None


def test_grades():
    assert ec.grade("GEN224") == 5
    assert ec.grade("C223_GEN") == ec.grade("C223_DEG") == 4
    assert ec.grade("GHZ") == ec.grade("W") == 3
    assert ec.grade("B1") == ec.grade("B2") == ec.grade("B3") == 2
    assert ec.grade("separable") == 1


def test_hasse_edge_set_exact():
    L = ec.ClassLabel
    expected = {
        (L.GEN224, L.C223_GEN), (L.GEN224, L.C223_DEG),
        (L.C223_GEN, L.GHZ), (L.C223_GEN, L.W),
        (L.C223_DEG, L.GHZ), (L.C223_DEG, L.W),
        (L.GHZ, L.B1), (L.GHZ, L.B2), (L.GHZ, L.B3),
        (L.W, L.B1), (L.W, L.B2), (L.W, L.B3),
        (L.B1, L.SEP), (L.B2, L.SEP), (L.B3, L.SEP),
    }
    assert set(ec.hasse_edges()) == expected
    assert len(ec.hasse_edges()) == len(expected)


def test_no_edge_between_ghz_and_w():
    L = ec.ClassLabel
    edges = set(ec.hasse_edges())
    assert (L.GHZ, L.W) not in edges and (L.W, L.GHZ) not in edges
    assert not ec.reachable(L.GHZ, L.W)
    assert not ec.reachable(L.W, L.GHZ)
    assert not ec.reachable(L.C223_GEN, L.C223_DEG)
    assert not ec.reachable(L.C223_DEG, L.C223_GEN)


def test_every_edge_witness_lands_in_target():
    order = partial_order()
    for (a, b) in ec.hasse_edges():
        witness = order.witnesses[(a, b)]
        assert not witness.all_invertible
        out = ec.apply_local(witness, rep(a))
        assert ec.classify(out)[0] == b


def test_edges_respect_rank_dominance():
    for a, b in ec.hasse_edges():
        assert all(
            ra >= rb for ra, rb in zip(a.rank_signature, b.rank_signature)
        ) or a.rank_signature[2] >= b.rank_signature[2]
        assert a.grade == b.grade + 1


def test_reachability_examples():
    assert ec.reachable("GEN224", "B3")
    assert ec.reachable("W", "B1")
    assert ec.reachable("GEN224", "separable")
    assert ec.reachable("GHZ", "GHZ")
    assert not ec.reachable("B1", "B2")
    assert not ec.reachable("W", "GEN224")


def test_witness_map_spec_edges():
    L = ec.ClassLabel
    order = partial_order()
    w = order.witnesses[(L.C223_DEG, L.GHZ)]
    assert np.allclose(w.factors[2], [[1, 0, 0], [0, 1, 1]])
    w = order.witnesses[(L.C223_GEN, L.W)]
    assert np.allclose(w.factors[2], [[1, 0, 0], [0, 1, 0]])
    w = order.witnesses[(L.GHZ, L.B3)]
    assert np.allclose(w.factors[2], [[1, 1], [0, 0]])


def test_witness_chain_matches_map():
    for a in ALL_LABELS:
        for b in ALL_LABELS:
            chain = ec.witness_chain(a, b)
            if a != b and ec.reachable(a, b):
                assert chain[0] == a and chain[-1] == b
                assert len(chain) == a.grade - b.grade + 1
                for x, y in zip(chain, chain[1:]):
                    assert (x, y) in ec.hasse_edges()
            else:
                assert chain is None


def test_witness_map_all_reachable_pairs():
    for a in ALL_LABELS:
        for b in ALL_LABELS:
            if a == b:
                assert ec.witness_map(a, b) is None
            elif ec.reachable(a, b):
                w = ec.witness_map(a, b)
                assert w is not None
                assert not w.all_invertible
                out = ec.apply_local(w, rep(a))
                assert ec.classify(out)[0] == b
            else:
                assert ec.witness_map(a, b) is None


def test_longest_chain_has_five_nodes():
    order = partial_order()
    best = {}

    def depth(node):
        if node not in best:
            succ = order.successors(node)
            best[node] = 1 + max((depth(s) for s in succ), default=0)
        return best[node]

    assert max(depth(label) for label in ALL_LABELS) == 5


def test_noninvertible_never_ascends(gen):
    for _ in range(500):
        label = ALL_LABELS[int(gen.integers(0, len(ALL_LABELS)))]
        n = natural_n(label)
        psi = ec.apply_local(random_invertible_op((2, 2, n), gen), rep(label))
        op = random_noninvertible_op((2, 2, n), gen)
        try:
            out = ec.apply_local(op, psi)
        except ec.AnnihilationError:
            continue
        got, report = ec.classify(out)
        assert got.grade <= label.grade
        before = ec.classify(psi)[1].local_ranks
        assert all(a <= b for a, b in zip(report.local_ranks, before))


def test_ghz_cannot_reach_w_operationally(gen):
    # A non-full-rank factor forces some local rank to one, so no
    # noninvertible operation sends a GHZ-class state to the W class.
    ghz = rep("GHZ")
    for _ in range(500):
        psi = ec.apply_local(random_invertible_op((2, 2, 2), gen), ghz)
        op = random_noninvertible_op((2, 2, 2), gen)
        try:
            out = ec.apply_local(op, psi)
        except ec.AnnihilationError:
            continue
        got, report = ec.classify(out)
        assert 1 in report.local_ranks
        assert got != ec.ClassLabel.W


@pytest.mark.parametrize("n,count", [(2, 6), (3, 8), (4, 9)])
def test_class_count_by_clare_dimension(n, count):
    observed = set()
    for label in ALL_LABELS:
        if n >= label.min_clare_dim:
            got, _ = ec.classify(ec.representative(label, n))
            assert got == label
            observed.add(got)
    assert len(observed) == count


@pytest.mark.parametrize("n,top", [(2, "GHZ"), (3, "C223_GEN"), (4, "GEN224")])
def test_random_states_land_on_top_of_their_format(n, top, gen):
    # Gaussian draws are generic: they always hit the format's top class.
    top = ec.ClassLabel.parse(top)
    for _ in range(500):
        assert ec.classify(ec.random_state((2, 2, n), gen))[0] == top


def test_classify_matches_format_compression(gen):
    # Beyond n = 4 nothing new happens: compressing Clare support first
    # gives the same label.
    for _ in range(50):
        n = int(gen.integers(5, 9))
        psi = ec.random_state((2, 2, n), gen)
        direct = ec.classify(psi)[0]
        compressed = compress_clare(psi, 4)
        assert ec.classify(compressed)[0] == direct
        assert direct == ec.ClassLabel.GEN224


def test_classify_n1_states():
    bell_n1 = ec.make_state((2, 2, 1), {(0, 0, 0): 1, (1, 1, 0): 1}).normalize()
    assert ec.classify(bell_n1)[0] == ec.ClassLabel.B3
    sep_n1 = ec.make_state((2, 2, 1), {(0, 0, 0): 1})
    assert ec.classify(sep_n1)[0] == ec.ClassLabel.SEP


# ---------------------------------------------------------------------------
# the documented domain: rank boundaries, Clare dimension, scale


@pytest.mark.parametrize("eps", np.logspace(-8, -3, 16))
def test_b3_plus_small_w_is_w(eps):
    # The singular-value and density routes to the local ranks must agree
    # across the band where s/s0 is small but above the rank threshold.
    b3, w = rep("B3"), rep("W")
    psi = ec.StateTensor((2, 2, 2), b3.amplitudes + eps * w.amplitudes)
    assert ec.classify(psi)[0] == ec.ClassLabel.W


@pytest.mark.parametrize("n", [9, 16])
@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
def test_large_clare_dimension(label, n):
    got, report = ec.classify(ec.representative(label, n))
    assert got == label
    assert report.local_ranks == label.rank_signature


@pytest.mark.parametrize("scale", [1e-300, 1e300])
@pytest.mark.parametrize("name", ["GHZ", "C223_GEN"])
def test_classify_at_the_ends_of_the_float_range(name, scale):
    psi = rep(name)
    scaled = ec.StateTensor(psi.dims, psi.amplitudes * scale)
    got, report = ec.classify(scaled)
    assert got == ec.ClassLabel.parse(name)
    assert report.norm == pytest.approx(scale)
