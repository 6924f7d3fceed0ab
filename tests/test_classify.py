"""Decision procedure, cross-checks, and the conversion partial order."""

import dataclasses
import importlib
import itertools
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import entclass as ec
from entclass import cli, labels
from entclass.classify import partial_order
from entclass.errors import AmbiguityError
from entclass.numerics import ZERO_FLOOR

from conftest import (
    ALL_LABELS,
    EDGE_SCALES,
    compress_clare,
    mantissa,
    natural_n,
    pattern,
    random_invertible_op,
    random_noninvertible_op,
    rep,
    times_two_to,
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
        assert ec.DEFAULT_POLICY.nonzero("det223", report.distances["det223"]) != det223_zero
    if det222_zero is None:
        assert report.det222 is None
    else:
        assert ec.DEFAULT_POLICY.nonzero("det222", report.distances["det222"]) != det222_zero


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
    assert label.min_clare_dim == ec.invariant_report(psi).local_ranks[2]


def test_illegal_signature_rejected(monkeypatch):
    # A signature no 2x2xn state has is an unresolved decision, not a label:
    # the error carries the smallest kept singular value and the band.
    report = ec.InvariantReport(
        (1, 2, 1), 0, (), None, None, 1.0, ec.DEFAULT_POLICY, {"local_ranks": 0.25}
    )
    module = importlib.import_module("entclass.classify")
    monkeypatch.setattr(module, "invariant_report", lambda psi, policy: report)
    with pytest.raises(AmbiguityError, match=r"signature \(1, 2, 1\)") as err:
        ec.classify(rep("GHZ"))
    assert (err.value.distance, err.value.band) == (0.25, (ZERO_FLOOR, 1e-13))


W_PATTERN = {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}
C223_DEG_PATTERN = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 2): 1}


@pytest.mark.parametrize(
    "quantity,dims,entries,distance",
    [
        ("local rank r1", (2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 5e-14}, 5e-14),
        ("det222", (2, 2, 2), {**W_PATTERN, (1, 1, 1): 5e-14}, 5e-14 / math.sqrt(3)),
        ("det223", (2, 2, 3), {**C223_DEG_PATTERN, (1, 0, 1): 5e-14}, 5e-14 / math.sqrt(3)),
    ],
)
def test_unresolved_decision_carries_its_numbers(quantity, dims, entries, distance):
    # A distance between the zero floor and the tolerance is unresolved; the
    # error names the decision and carries its distance and the band.
    with pytest.raises(AmbiguityError) as err:
        ec.classify(ec.make_state(dims, entries))
    assert (err.value.quantity, err.value.band) == (quantity, (ZERO_FLOOR, 1e-13))
    assert err.value.distance == pytest.approx(distance, rel=1e-6)
    assert f"distance {err.value.distance:.3g}, unresolved band (1.42e-14, 1e-13]" in str(err.value)


@pytest.mark.parametrize("label,key", [("W", "det222"), ("C223_DEG", "det223"), ("B1", "det222")])
def test_exact_degenerate_states_decide_zero(label, key):
    # |Det| / ||grad Det|| is at most the zero floor and never NaN. B1's
    # form A = F^T S F vanishes, so its det222 distance is 0/0, counted as 0.
    got, report = ec.classify(rep(label))
    assert got.name == label
    assert 0.0 <= report.distances[key] <= ZERO_FLOOR
    assert not ec.DEFAULT_POLICY.nonzero(key, report.distances[key])
    if label == "B1":
        assert report.distances[key] == 0.0


#: What ``classify`` does on each synthetic report; see ``decision_rule_table``.
DECISION_RULE = json.loads(Path(__file__).with_name("decision_rule_table.json").read_text())


def decision_rule_table(monkeypatch) -> dict[str, str]:
    """What ``classify`` returns or raises for each synthetic report.

    Every signature in {1,2} x {1,2} x {1,...,4}, plus a few no 2x2xn state
    has, crossed with determinant distances at and beside both band edges
    (the zero floor 64 eps and the tolerance 1e-13), 0 and 1e-3. A report
    carries the distances ``invariant_report`` would: det222 (with a det223
    of 0) when r3 <= 2, det223 when r3 = 3, so reading the wrong one
    changes the row.
    """
    signatures = list(itertools.product((1, 2), (1, 2), (1, 2, 3, 4)))
    signatures += [(0, 0, 0), (2, 2, 0), (2, 2, 5), (3, 2, 2)]
    # ``entclass.classify`` is the function; the module is imported by name.
    module = importlib.import_module("entclass.classify")
    table = {}
    tau = ec.DEFAULT_POLICY.distance_eps
    edges = (ZERO_FLOOR, math.nextafter(ZERO_FLOOR, 1), tau, math.nextafter(tau, 1))
    for signature, det in itertools.product(signatures, (0.0, *edges, 1e-3)):
        distances = {"local_ranks": 0.5}
        if signature[2] <= 2:
            distances.update(det222=det, det223=0.0)
        elif signature[2] == 3:
            distances["det223"] = det
        report = ec.InvariantReport(
            signature, 0, (), None, None, 1.0, ec.DEFAULT_POLICY, distances
        )
        monkeypatch.setattr(module, "invariant_report", lambda psi, policy: report)
        try:
            label, got = ec.classify(rep("GHZ"))
            assert got is report
            outcome = f"label {label.name}"
        except AmbiguityError as err:
            fields = (err.quantity, err.distance, err.band)
            outcome = f"AmbiguityError {fields!r}: {err}"
        table[f"{signature} det={det!r}"] = outcome
    return table


def test_decision_rule_matches_parent_table(monkeypatch):
    # Every label and every error of the decision tree; a rewrite of the
    # rule keeps them all, and a deliberate change regenerates the table
    # and says so.
    got = decision_rule_table(monkeypatch)
    assert sorted(got) == sorted(DECISION_RULE)
    assert {k: v for k, v in got.items() if DECISION_RULE[k] != v} == {}


def test_grades():
    assert ec.grade("GEN224") == 5
    assert ec.grade("C223_GEN") == ec.grade("C223_DEG") == 4
    assert ec.grade("GHZ") == ec.grade("W") == 3
    assert ec.grade("B1") == ec.grade("B2") == ec.grade("B3") == 2
    assert ec.grade("separable") == 1


def test_each_label_is_one_row():
    # Display name, rank signature and grade live in the member's own row.
    rows = {label.name: (label.value, label.rank_signature, label.grade) for label in ec.ClassLabel}
    assert rows == {
        "SEP": ("separable", (1, 1, 1), 1),
        "B1": ("B1", (1, 2, 2), 2),
        "B2": ("B2", (2, 1, 2), 2),
        "B3": ("B3", (2, 2, 1), 2),
        "W": ("W", (2, 2, 2), 3),
        "GHZ": ("GHZ", (2, 2, 2), 3),
        "C223_DEG": ("223-degenerate", (2, 2, 3), 4),
        "C223_GEN": ("223-generic", (2, 2, 3), 4),
        "GEN224": ("224-generic", (2, 2, 4), 5),
    }
    for label in ec.ClassLabel:
        assert ec.ClassLabel(label.value) is label
        assert pickle.loads(pickle.dumps(label)) is label
    assert not hasattr(labels, "_SIGNATURES") and not hasattr(labels, "_GRADES")


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


def test_shared_witnesses_are_read_only(capsys):
    order = partial_order()
    edge = (ec.ClassLabel.GHZ, ec.ClassLabel.B3)
    with pytest.raises(TypeError):
        order.witnesses[edge] = None
    with pytest.raises(AttributeError):
        order.witnesses.clear()
    assert len(order.witnesses) == len(order.edges)
    # Once a caller could empty the shared dict and break every later query.
    assert cli.run(["order", "--from", "224-generic", "--to", "B3"]) == 0
    assert '"reachable": true' in capsys.readouterr().out
    copy = pickle.loads(pickle.dumps(order))
    assert copy.edges == order.edges
    assert all(
        np.array_equal(m, n)
        for e in order.edges
        for m, n in zip(copy.witnesses[e].factors, order.witnesses[e].factors)
    )


def _rank_below(a, b) -> bool:
    """Whether b's signature differs from a's and no rank of b is higher."""
    sa, sb = a.rank_signature, b.rank_signature
    return sa != sb and all(rb <= ra for ra, rb in zip(sa, sb))


def test_edges_are_the_covering_relations_of_the_rank_order():
    # An edge drops one grade and covers: no class lies strictly between.
    covers = {
        (a, b)
        for a, b in itertools.permutations(ALL_LABELS, 2)
        if _rank_below(a, b) and not any(_rank_below(a, c) and _rank_below(c, b) for c in ALL_LABELS)
    }
    assert set(ec.hasse_edges()) == covers and len(ec.hasse_edges()) == len(covers) == 15
    assert all(a.grade == b.grade + 1 for a, b in ec.hasse_edges())


def test_reachable_is_the_transitive_closure_of_the_edges():
    # The depth-first search over the shipped edges that the rank rule
    # replaced, kept here as its reference on all 81 ordered pairs.
    def closure(source):
        seen, frontier = {source}, [source]
        while frontier:
            node = frontier.pop()
            for a, b in ec.hasse_edges():
                if a == node and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return seen

    for a in ALL_LABELS:
        reached = closure(a)
        for b in ALL_LABELS:
            assert ec.reachable(a, b) == (b in reached), (a, b)
            assert ec.reachable(a.display_name, b.name.lower()) == (b in reached)


def test_each_impossible_conversion_has_one_obstruction():
    # A local map raises no local rank (Dur-Vidal-Cirac 2000), and classes
    # sharing a signature are SLOCC-inequivalent (Miyake 2003): every "no"
    # is exactly one of the two.
    rises, shared = [], []
    for a, b in itertools.product(ALL_LABELS, repeat=2):
        if ec.reachable(a, b):
            continue
        rise = any(rb > ra for ra, rb in zip(a.rank_signature, b.rank_signature))
        same = a.rank_signature == b.rank_signature
        assert rise != same, (a, b)
        (rises if rise else shared).append((a.name, b.name))
    assert len(rises) == 37
    assert sorted(shared) == [("C223_DEG", "C223_GEN"), ("C223_GEN", "C223_DEG"), ("GHZ", "W"), ("W", "GHZ")]


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


#: Each reachable pair's composite witness as values: the class chain, each
#: factor's real and imaginary entries and the factors' invertible flags.
WITNESS_VALUES = json.loads(Path(__file__).with_name("witness_values.json").read_text())


def test_composite_witnesses_are_the_pinned_values():
    got = {}
    for a, b in itertools.product(ALL_LABELS, repeat=2):
        w = ec.witness_map(a, b)
        if w is not None:
            got[f"{a.name} -> {b.name}"] = {
                "chain": [c.name for c in ec.witness_chain(a, b)],
                "real": [m.real.tolist() for m in w.factors],
                "imag": [m.imag.tolist() for m in w.factors],
                "invertible": list(w.invertible),
            }
    assert len(got) == 31 and got == WITNESS_VALUES


@pytest.fixture
def cold_witnesses():
    """The classify module with its witness cache cleared, before and after."""
    module = importlib.import_module("entclass.classify")
    module._witness_search.cache_clear()
    yield module
    module._witness_search.cache_clear()


def test_witness_walk_classifies_each_composite_once(cold_witnesses, monkeypatch):
    # One apply_local and one classify per reachable pair: the walk checks
    # the composite once and classifies no intermediate state.
    calls = {"classify": 0, "apply_local": 0}
    for name in calls:
        real = getattr(cold_witnesses, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cold_witnesses, name, counting)
    found = [ec.witness_map(a, b) for a, b in itertools.product(ALL_LABELS, repeat=2)]
    assert sum(w is not None for w in found) == 31
    assert calls == {"classify": 31, "apply_local": 31}


def test_edge_witnesses_map_natural_dims_to_natural_dims():
    # Each edge witness takes its source's natural dims (2, 2, max(2, r3)) to
    # its target's, so the factors of a composite always chain.
    order = partial_order()
    for (a, b), witness in order.witnesses.items():
        dims_a, dims_b = ((2, 2, natural_n(x)) for x in (a, b))
        assert [m.shape for m in witness.factors] == list(zip(dims_b, dims_a)), (a, b)
        assert ec.apply_local(witness, rep(a)).dims == rep(b).dims


def test_witness_landing_elsewhere_raises(cold_witnesses, monkeypatch):
    # A table whose (GHZ, B1) entry is really (GHZ, B2)'s: the walk's one
    # check catches it rather than returning None for a reachable pair.
    L = ec.ClassLabel
    table = dict(partial_order().witnesses)
    table[(L.GHZ, L.B1)] = table[(L.GHZ, L.B2)]
    monkeypatch.setattr(cold_witnesses, "partial_order", lambda: ec.PartialOrder(table))
    assert ec.reachable(L.GHZ, L.B1)
    with pytest.raises(RuntimeError, match="^witness walk from GHZ landed in B2 instead of B1$"):
        ec.witness_map(L.GHZ, L.B1)


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


@pytest.mark.parametrize(
    "name,scale", [("GHZ", 1.5e308), ("GEN224", 1e308), ("GHZ", 1.5e308 + 1.5e308j)]
)
def test_classify_when_the_norm_overflows(name, scale):
    # The 2-norm is above the float range (inf); the report records it, and
    # every other field is that of the same pattern times the power-of-two
    # mantissa scale * 2**-e.
    dims, ones = rep(name).dims, pattern(name)
    got, report = ec.classify(ec.StateTensor(dims, ones * scale))
    assert got == ec.ClassLabel.parse(name)
    assert report.norm == math.inf
    unit = ec.classify(ec.StateTensor(dims, ones * mantissa(scale)[0]))[1]
    assert dataclasses.replace(report, norm=unit.norm) == unit


@pytest.mark.parametrize("scale", EDGE_SCALES)
@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
def test_classify_a_subnormal_or_overflowing_state(label, scale):
    # Every report field but the norm is that of pattern * m, where
    # pattern * scale == pattern * m * 2**e exactly.
    m, e = mantissa(scale)
    got, report = ec.classify(ec.StateTensor(rep(label).dims, pattern(label) * scale))
    unit = ec.classify(ec.StateTensor(rep(label).dims, pattern(label) * m))[1]
    assert got == label
    assert report.norm == pytest.approx(times_two_to(unit.norm, e), rel=1e-15, abs=5e-324)
    assert dataclasses.replace(report, norm=unit.norm) == unit


@pytest.mark.parametrize("k", [-1000, -500, -1, 1, 500, 1000, 1023])
def test_classify_is_invariant_under_powers_of_two(k):
    # SLOCC classes are projective, and scaling by 2**k is exact: the label
    # and every report field but the norm keep their bits.
    gen = ec.RandomSource(16).generator()
    states = [rep(label) for label in ALL_LABELS]
    states += [
        ec.apply_local(random_invertible_op(rep(label).dims, gen), rep(label)).normalize()
        for label in ALL_LABELS[::2]
    ]
    for psi in states:
        label, report = ec.classify(psi)
        got, scaled = ec.classify(ec.StateTensor(psi.dims, psi.amplitudes * 2.0**k))
        assert got == label
        assert dataclasses.replace(scaled, norm=report.norm) == report
