"""Acceptance suite: the package's exit criteria, one test per criterion.

Each criterion runs at its stated scale and tolerance and prints one
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 3's det223 half asserts the raw averaged-measure inequality over
random trials exactly as stated. That inequality is mathematically false
for the degree-6 invariant (see test_monotone.py::
test_det223_raw_average_can_increase for a deterministic counterexample
with the predicted violation ratio), so the test fails honestly rather
than being weakened; the degree-normalized form of the inequality, which
is a theorem, is verified alongside at the same scale and passes.
"""

import time

import numpy as np

import entclass as ec
from entclass.classify import partial_order
from entclass.cli import render, run, state_document

from conftest import (
    ALL_LABELS,
    natural_n,
    random_diagonal_pair,
    random_invertible_op,
    random_noninvertible_op,
    rep,
    uniform_block_state,
)

SEED = 20240
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


def report(number, description):
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_classification_table():
    start = time.perf_counter()
    for name, (ranks, rtr, det223_zero, det222_zero) in TABLE.items():
        label = ec.ClassLabel.parse(name)
        got, inv = ec.classify(rep(label))
        assert got == label, f"{name}: classified as {got}"
        assert inv.local_ranks == ranks, f"{name}: ranks {inv.local_ranks}"
        assert inv.rank_rtr == rtr, f"{name}: rank(RtR) {inv.rank_rtr}"
        if det223_zero is None:
            assert inv.det223 is None
        else:
            assert ec.DEFAULT_POLICY.nonzero("det223", inv.distances["det223"]) != det223_zero, name
        if det222_zero is None:
            assert inv.det222 is None
        else:
            assert ec.DEFAULT_POLICY.nonzero("det222", inv.distances["det222"]) != det222_zero, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"table reproduction took {elapsed:.2f}s"
    report(1, f"all nine representatives reproduce the table exactly ({elapsed:.3f}s)")


def test_criterion_2_slocc_invariance():
    start = time.perf_counter()
    mismatches = 0
    for label in ALL_LABELS:
        psi = rep(label)
        for t in range(1000):
            gen = ec.RandomSource(SEED + 1, t).generator()
            op = random_invertible_op(psi.dims, gen)
            got, _ = ec.classify(ec.apply_local(op, psi))
            if got != label:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0, f"{mismatches} label changes under invertible maps"
    assert elapsed < 30.0, f"9000 classifications took {elapsed:.1f}s"
    report(2, f"9000 dressed classifications, zero label changes ({elapsed:.1f}s)")


def _monotone_trials(measure, trials, seed):
    """Literal random-trial sweep through ``monotone_batch``; returns the
    trials ``check_monotone`` fails and the worst slack for both the raw and
    degree-normalized measures."""
    exponent = 2.0 / ec.MEASURES[measure][2]
    batch = ec.monotone_batch(measure, seed, range(trials))
    violations = [
        (t, slack, before)
        for t, slack, before, passed in zip(
            batch.trial.tolist(),
            batch.slack.tolist(),
            batch.before.tolist(),
            batch.passed.tolist(),
        )
        if not passed
    ]
    norm_before = batch.before**exponent
    norm_after = (batch.probabilities * batch.measure_after**exponent).sum(axis=1)
    norm_slack = norm_before - norm_after
    bad = np.flatnonzero(~(norm_slack >= -1e-9 * norm_before))
    assert bad.size == 0, (
        f"degree-normalized monotonicity violated at trial {batch.trial[bad[0]]}"
    )
    return violations, batch.slack.min(), norm_slack.min()


def test_criterion_3_monotone_det222():
    start = time.perf_counter()
    trials = 100_000
    violations, min_slack, min_norm = _monotone_trials("det222", trials, SEED + 2)
    assert not violations, f"{len(violations)} violations, first: {violations[:3]}"
    ghz = rep("GHZ")
    for party in range(3):
        chk = ec.check_monotone(
            ghz, ec.equality_case_povm(2, 2**-0.5, party=party), "det222"
        )
        assert abs(chk.slack) <= 1e-9, f"equality case slack {chk.slack}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        3,
        f"det222: {trials} trials, min slack {min_slack:.3e}, equality case exact; "
        f"degree-normalized min slack {min_norm:.3e} ({elapsed:.0f}s)",
    )


def test_criterion_3_monotone_det223():
    trials = 100_000
    violations, min_slack, min_norm = _monotone_trials("det223", trials, SEED + 3)
    # The degree-normalized inequality (asserted trial-by-trial above) held;
    # the raw degree-6 inequality is required here as stated.
    assert not violations, (
        f"raw |det223| averaged inequality violated in {len(violations)}/{trials} "
        f"trials (worst slack {min_slack:.3e}); first violations "
        f"(trial, slack, before) with seed {SEED + 3}: {violations[:5]}. "
        f"This is a genuine property of the degree-6 invariant, not roundoff: "
        f"see test_monotone.py::test_det223_raw_average_can_increase for the "
        f"deterministic counterexample. The degree-normalized form passed all "
        f"{trials} trials (min slack {min_norm:.3e})."
    )
    report(3, f"det223: {trials} trials, min slack {min_slack:.3e}")


def test_criterion_4_amgm_chain():
    trials = 10_000
    worst_gap = np.inf
    worst_majorant = -np.inf
    for t in range(trials):
        gen = ec.RandomSource(SEED + 4, t).generator()
        measure = "det222" if t % 2 == 0 else "det223"
        dims = ec.MEASURES[measure][1]
        party = int(gen.integers(0, 3))
        psi = uniform_block_state(dims, party, gen)
        pair = random_diagonal_pair(dims[party], party, gen)
        bounds = ec.amgm_bound_report(psi, pair, measure)
        assert bounds.reduced_sum <= bounds.majorant + 1e-9, f"trial {t}"
        assert bounds.majorant <= 1.0 + 1e-9, f"trial {t}"
        worst_gap = min(worst_gap, bounds.majorant - bounds.reduced_sum)
        worst_majorant = max(worst_majorant, bounds.majorant)
    report(
        4,
        f"{trials} diagonal-frame trials: reduced sum <= majorant <= 1 "
        f"(max majorant {worst_majorant:.12f})",
    )


def test_criterion_5_ckw_identity():
    start = time.perf_counter()
    ghz = ec.ckw_residual(rep("GHZ"))
    assert abs(ghz.c3_rest_sq - 1) < 1e-10 and abs(ghz.tangle - 1) < 1e-10
    assert abs(ghz.c13_sq) < 1e-10 and abs(ghz.c23_sq) < 1e-10
    w = ec.ckw_residual(rep("W"))
    assert abs(w.c3_rest_sq - 8 / 9) < 1e-10 and abs(w.tangle) < 1e-10
    assert abs(w.c13_sq - 4 / 9) < 1e-10 and abs(w.c23_sq - 4 / 9) < 1e-10
    worst = 0.0
    for t in range(10_000):
        gen = ec.RandomSource(SEED + 5, t).generator()
        res = ec.ckw_residual(ec.random_state((2, 2, 2), gen))
        worst = max(worst, abs(res.residual))
    assert worst < 1e-8, f"worst residual {worst:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"10000 random states, worst residual {worst:.2e} ({elapsed:.0f}s)")


def test_criterion_6_entanglement_swapping():
    branches = ec.entanglement_swap()
    assert len(branches) == 4
    for b in branches:
        assert abs(b.probability - 0.25) <= 1e-12, b.branch
        assert b.post_class == ec.ClassLabel.B3, b.branch
        conc = ec.concurrence(ec.reduced_density_pair(b.post_state, 0, 1))
        assert abs(conc - 1.0) <= 1e-10, b.branch
    report(6, "four branches at 1/4, all B3, post-measurement concurrence 1")


def test_criterion_7_partial_order_soundness():
    order = partial_order()
    expected_edges = {
        (a, b)
        for a, bs in {
            ec.ClassLabel.GEN224: (ec.ClassLabel.C223_GEN, ec.ClassLabel.C223_DEG),
            ec.ClassLabel.C223_GEN: (ec.ClassLabel.GHZ, ec.ClassLabel.W),
            ec.ClassLabel.C223_DEG: (ec.ClassLabel.GHZ, ec.ClassLabel.W),
            ec.ClassLabel.GHZ: (ec.ClassLabel.B1, ec.ClassLabel.B2, ec.ClassLabel.B3),
            ec.ClassLabel.W: (ec.ClassLabel.B1, ec.ClassLabel.B2, ec.ClassLabel.B3),
            ec.ClassLabel.B1: (ec.ClassLabel.SEP,),
            ec.ClassLabel.B2: (ec.ClassLabel.SEP,),
            ec.ClassLabel.B3: (ec.ClassLabel.SEP,),
        }.items()
        for b in bs
    }
    assert set(order.edges) == expected_edges
    for (a, b) in order.edges:
        witness = order.witnesses[(a, b)]
        assert not witness.all_invertible
        got, _ = ec.classify(ec.apply_local(witness, rep(a)))
        assert got == b, f"witness for {a}->{b} landed in {got}"

    # longest chain: five grades
    depths = {}

    def depth(node):
        if node not in depths:
            depths[node] = 1 + max(
                (depth(s) for s in order.successors(node)), default=0
            )
        return depths[node]

    assert max(depth(label) for label in ALL_LABELS) == 5

    # attainable class counts per Clare dimension
    for n, count in ((2, 6), (3, 8), (4, 9)):
        seen = set()
        for label in ALL_LABELS:
            if n >= label.min_clare_dim:
                got, _ = ec.classify(ec.representative(label, n))
                assert got == label
                seen.add(got)
        assert len(seen) == count, f"n={n}: {len(seen)} classes"

    # grade never increases under noninvertible maps
    ascents = 0
    for t in range(10_000):
        gen = ec.RandomSource(SEED + 7, t).generator()
        label = ALL_LABELS[t % len(ALL_LABELS)]
        dims = (2, 2, natural_n(label))
        psi = ec.apply_local(random_invertible_op(dims, gen), rep(label))
        op = random_noninvertible_op(dims, gen)
        try:
            out = ec.apply_local(op, psi)
        except ec.AnnihilationError:
            continue
        got, inv = ec.classify(out)
        if got.grade > label.grade:
            ascents += 1
        assert all(
            a <= b for a, b in zip(inv.local_ranks, label.rank_signature)
        ), f"trial {t}: ranks rose {label.rank_signature} -> {inv.local_ranks}"
    assert ascents == 0, f"{ascents} grade ascents"
    report(
        7,
        "15 witnessed edges, longest chain 5, class counts 6/8/9, "
        "no grade ascent in 10000 noninvertible trials",
    )


def test_criterion_8_dimension_counts():
    assert ec.nonlocal_dimension((2, 2, 2, 2), 0).raw == 3
    assert ec.nonlocal_dimension((2, 2, 4), 6).raw == 0
    report(8, "nonlocal parameter counts: (2,2,2,2)->3, (2,2,4)->0")


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    state_path = tmp_path / "ghz.json"
    state_path.write_text(render(state_document(rep("GHZ"))) + "\n")
    invocations = [
        ["classify", "--in", str(state_path)],
        ["invariants", "--in", str(state_path)],
        ["monotone", "--measure", "det222", "--trials", "200", "--seed", "7"],
        ["order", "--dump"],
        ["swap"],
        ["distill", "--target", "GHZ"],
        ["rep", "--class", "GEN224", "--n", "4"],
        ["dim", "--dims", "2,2,4"],
    ]
    for argv in invocations:
        outputs = []
        for _ in range(2):
            code = run(argv)
            outputs.append(capsys.readouterr().out)
            assert code == 0, argv
        assert outputs[0] == outputs[1], f"nondeterministic output for {argv}"
    with capsys.disabled():
        report(9, "byte-identical reports across repeated seeded invocations")
