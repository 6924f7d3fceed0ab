"""The invariant suite: ranks, the magic-basis form, hyperdeterminants,
concurrence, the three-tangle, monogamy residuals, dimension counts."""

import collections
import copy
import dataclasses
import hashlib
import importlib.util
import json
import math
import pickle
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import entclass as ec
from entclass import invariants, numerics
from entclass.errors import AmbiguityError, FormatError, NumericalInstabilityError

from conftest import ALL_LABELS, natural_n, random_invertible_op, rep

EPS = np.finfo(float).eps
SQ2 = math.sqrt(2.0)

#: The eight public InvariantReport fields, in order; the private flattening
#: the pair is computed from is not one of them.
REPORT_FIELDS = [f.name for f in dataclasses.fields(ec.InvariantReport) if not f.name.startswith("_")]

#: sha256 per generic-float report case; see ``invariant_report_digests``.
DIGESTS = json.loads(
    Path(__file__).with_name("invariant_report_digests.json").read_text()
)


# ---------------------------------------------------------------------------
# magic basis


def test_magic_basis_is_unitary():
    t = ec.MAGIC_BASIS
    assert np.abs(t @ t.conj().T - np.eye(4)).max() < 1e-15


def test_magic_basis_squares_to_spin_flip():
    assert ec.BILINEAR_SIGN in (-1, 1)
    assert np.abs(ec.MAGIC_BASIS.T @ ec.MAGIC_BASIS - ec.BILINEAR_SIGN * ec.SPIN_FLIP).max() < 1e-14


def test_magic_basis_makes_two_qubit_sl_orthogonal(gen):
    # Conjugating an SL2 x SL2 factor pair lands in complex orthogonal 4x4.
    t = ec.MAGIC_BASIS
    for _ in range(50):
        g = np.kron(ec.random_sl(2, gen), ec.random_sl(2, gen))
        o = t @ g @ t.conj().T
        assert np.abs(o.T @ o - np.eye(4)).max() < 1e-9


# ---------------------------------------------------------------------------
# local ranks


@pytest.mark.parametrize(
    "label,expected",
    [("GHZ", (2, 2, 2)), ("B1", (1, 2, 2)), ("GEN224", (2, 2, 4))],
)
def test_local_ranks_examples(label, expected):
    assert ec.invariant_report(rep(label)).local_ranks == expected


def conditioned_op(dims, cond, gen) -> ec.LocalOperation:
    """Factors U diag(1 ... 1/cond) V with Haar U and V: condition number cond."""
    return ec.LocalOperation(
        tuple(
            ec.random_unitary(k, gen)
            @ np.diag(np.logspace(0, -math.log10(cond), k))
            @ ec.random_unitary(k, gen)
            for k in dims
        )
    )


def closed_form_cases(family):
    gen = ec.RandomSource(77).generator()
    if family == "random":
        return [ec.random_state((2, 2, n), gen) for n in range(1, 17) for _ in range(5)]
    if family == "dressed":
        return [
            ec.apply_local(conditioned_op(rep(label).dims, cond, gen), rep(label))
            for cond in (1.0, 10.0, 1e3, 1e4)
            for label in ALL_LABELS
            for _ in range(5)
        ]
    if family == "b3_plus_w":
        b3, w = rep("B3").amplitudes, rep("W").amplitudes
        return [ec.StateTensor((2, 2, 2), b3 + eps * w) for eps in np.logspace(-3, -14, 12)]
    scaled = [rep(label) for label in ALL_LABELS]
    scaled += [ec.random_state((2, 2, n), gen) for n in (1, 3, 16)]
    return [
        ec.StateTensor(psi.dims, psi.amplitudes * scale)
        for psi in scaled
        for scale in (1e-300, 1e300)
    ]


@pytest.mark.parametrize("family", ["random", "dressed", "b3_plus_w", "scaled"])
def test_qubit_spectrum_matches_eigvalsh(family):
    # The closed-form density spectra (Alice's and Bob's, and Clare's at
    # n = 2) stay within the band delta = 16 eps lambda_0 that the rank
    # cross-check allows eigvalsh, on the matrices of the normalized state
    # the kernel builds.
    eps = np.finfo(float).eps
    clare_cases = 0
    for psi in closed_form_cases(family):
        amps = psi.amplitudes / psi.norm
        pair = np.concatenate((amps, amps.transpose(1, 0, 2)))
        pair = pair.reshape(2, 2, 2 * psi.dims[2])
        grams = list(pair @ pair.conj().transpose(0, 2, 1))
        if psi.dims[2] == 2:
            f = amps.reshape(4, 2)
            grams.append(f.T @ f.conj())
            clare_cases += 1
        for gram in grams:
            want = np.linalg.eigvalsh(gram)
            got = invariants._qubit_spectrum(gram.tolist())
            assert np.abs(np.subtract(got, want)).max() <= 16 * eps * want[-1]
    assert clare_cases > 0


@pytest.mark.parametrize(
    "label,spectrum,band",
    [("SEP", (0.5, 0.5), r"rank 1 outside the density band \[2, 2\]")],
)
def test_density_route_disagreement_raises(label, spectrum, band, monkeypatch):
    monkeypatch.setattr(invariants, "_qubit_spectrum", lambda gram: spectrum)
    with pytest.raises(NumericalInstabilityError, match="party 0: unfolding " + band):
        ec.invariant_report(rep(label))


def test_clare_density_route_disagreement_raises(monkeypatch):
    # B3 = |010> + |100> at n = 2: Alice and Bob have rank 2 and Clare rank
    # 1, so a flat spectrum is caught on Clare's closed-form route.
    monkeypatch.setattr(invariants, "_qubit_spectrum", lambda gram: (0.5, 0.5))
    band = r"party 2: unfolding rank 1 outside the density band \[2, 2\]"
    with pytest.raises(NumericalInstabilityError, match=band):
        ec.invariant_report(rep("B3"))


# ---------------------------------------------------------------------------
# rank of R^T R


@pytest.mark.parametrize(
    "label,expected",
    [("GEN224", 4), ("C223_GEN", 3), ("C223_DEG", 2), ("GHZ", 2), ("W", 1), ("B3", 1), ("B2", 0), ("B1", 0), ("SEP", 0)],
)
def test_rank_rtr_table_column(label, expected):
    assert ec.invariant_report(rep(label)).rank_rtr == expected


def test_rank_rtr_singular_values_descending(gen):
    for _ in range(50):
        s = ec.invariant_report(ec.random_state((2, 2, 4), gen)).singular_values_rtr
        assert all(a >= b for a, b in zip(s, s[1:]))


def test_rtr_route_disagreement_reports_its_numbers(monkeypatch):
    # A corrupted magic basis makes the two routes to R^T R differ; the
    # error names the deviation and the bound it broke.
    scaled = ec.MAGIC_BASIS * (1 + 1e-6)
    monkeypatch.setattr(invariants, "MAGIC_BASIS", scaled)
    psi = rep("GHZ")
    f = (psi.amplitudes / psi.norm).reshape(4, -1)
    r = scaled @ f
    flip = ec.BILINEAR_SIGN * (f.T @ ec.SPIN_FLIP @ f)
    deviation = np.abs(r.T @ r - flip).max()
    assert deviation > 1e-10
    report = ec.invariant_report(psi)
    with pytest.raises(NumericalInstabilityError) as err:
        report.singular_values_rtr
    assert f"max deviation {deviation:.3g}" in str(err.value)
    assert "bound 1e-10" in str(err.value)


def test_rtr_route_disagreement_surfaces_on_every_read(monkeypatch):
    # R^T R decides no class, so classify never builds it: the label stands,
    # and each read of the pair raises, since a failed read keeps nothing.
    monkeypatch.setattr(invariants, "MAGIC_BASIS", ec.MAGIC_BASIS * (1 + 1e-6))
    label, report = ec.classify(rep("GHZ"))
    assert label == ec.ClassLabel.GHZ
    messages = []
    for name in ("singular_values_rtr", "singular_values_rtr", "rank_rtr"):
        with pytest.raises(NumericalInstabilityError, match=r"max deviation .* the bound 1e-10$") as err:
            getattr(report, name)
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    assert "rank_rtr" not in vars(report) and "singular_values_rtr" not in vars(report)


#: sha256 of the reprs, one per line, of the reports on the dressed states of
#: ``dressed_reports(n)``, as printed when the pipeline computed the R^T R
#: pair up front, before any read.
EAGER_REPR_DIGESTS = {
    2: "d85ac9e73e91c1b2b8f8561de43c5759d9af5e2a159826e8cd9a928bb3c95bea",
    3: "7188abdde918fc330fbab63146bc9ad01ff2725b0e5c3b156bef0ec4d0160a42",
    4: "cc227bac98227935dcbf00fed9eee5621201c937be27712101487be0a50bc719",
    16: "2a24b97190a31a65513dfbc411b1570cc8ed6085b5a639f873863af73694a28b",
}


def dressed_reports(n):
    """The report of each class representative at Clare dimension n, dressed
    by random SL maps from stream 100 n + (the class's index)."""
    for c, label in enumerate(ALL_LABELS):
        if label.min_clare_dim <= n:
            psi = ec.representative(label, n)
            op = random_invertible_op(psi.dims, ec.RandomSource(28, 100 * n + c).generator())
            yield ec.invariant_report(ec.apply_local(op, psi))


@pytest.mark.parametrize("n", sorted(EAGER_REPR_DIGESTS))
def test_report_value_semantics_around_the_first_read(n, monkeypatch):
    # Each report object computes the pair once, on its first read; pickle
    # and copies of a read report carry it, while copies taken before that
    # read, and ``replace`` (init=False fields are not passed), compute their
    # own. Every copy is == and prints the repr of the up-front pipeline.
    calls = []
    rtr = invariants._rtr
    monkeypatch.setattr(invariants, "_rtr", lambda f: calls.append(1) or rtr(f))
    texts = []
    for report in dressed_reports(n):
        copies = [pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)]
        copies.append(dataclasses.replace(report))
        assert calls == []
        texts.append(repr(report))
        assert len(calls) == 1
        carried = [pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)]
        assert [repr(r) for r in carried] == [texts[-1]] * 3
        assert len(calls) == 1
        copies.append(dataclasses.replace(report))
        assert [repr(r) for r in copies] == [texts[-1]] * 5
        assert len(calls) == 6
        assert all(r == report for r in copies + carried) and report == report
        assert repr(report) == texts[-1] and len(calls) == 6
        calls.clear()
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == EAGER_REPR_DIGESTS[n]


def test_signed_reversal_is_the_spin_flip_product(gen):
    # BILINEAR_SIGN * SPIN_FLIP @ f is f's rows reversed times fixed signs.
    for n in range(1, 17):
        f = gen.standard_normal((4, n)) + 1j * gen.standard_normal((4, n))
        assert np.array_equal(f[::-1] * invariants._FLIP_SIGNS, ec.BILINEAR_SIGN * ec.SPIN_FLIP @ f)


# ---------------------------------------------------------------------------
# hyperdeterminants


def test_det222_ghz_quarter():
    assert ec.det222(rep("GHZ")) == pytest.approx(0.25)


def test_det222_w_vanishes():
    assert abs(ec.det222(rep("W"))) < 1e-15


def test_det222_three_term_pattern():
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 1): 1})
    assert ec.det222(psi) == pytest.approx(1.0)


def test_det223_generic_value():
    psi = ec.make_state(
        (2, 2, 3),
        {(0, 0, 0): 1, (0, 1, 1): 1 / SQ2, (1, 0, 1): 1 / SQ2, (1, 1, 2): 1},
    )
    assert ec.det223(psi) == pytest.approx(-0.5)


def test_det223_degenerate_vanishes():
    assert abs(ec.det223(rep("C223_DEG"))) < 1e-15


def test_det223_ghz_embedded_vanishes():
    psi = ec.make_state((2, 2, 3), {(0, 0, 0): 1, (1, 1, 1): 1})
    assert abs(ec.det223(psi)) < 1e-15


@pytest.mark.parametrize("measure,degree", [("det222", 4), ("det223", 6)])
def test_det_scale_covariance(measure, degree, gen):
    fn = {"det222": ec.det222, "det223": ec.det223}[measure]
    dims = ec.MEASURES[measure][1]
    for _ in range(25):
        psi = ec.random_state(dims, gen)
        c = complex(gen.standard_normal() + 1j * gen.standard_normal())
        scaled = ec.StateTensor(dims, c * psi.amplitudes)
        assert fn(scaled) == pytest.approx(c**degree * fn(psi), rel=1e-9)


@pytest.mark.parametrize("measure", ["det222", "det223"])
def test_det_sl_invariance(measure, gen):
    fn, dims, _ = ec.MEASURES[measure]
    for _ in range(1000):
        psi = ec.random_state(dims, gen)
        before = abs(fn(psi))
        out = ec.apply_local(random_invertible_op(dims, gen), psi)
        assert abs(fn(out)) == pytest.approx(before, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# det223 of a state embedded in a larger Clare space


def test_adjust_format_preserves_det223_modulus():
    pattern = {(0, 0, 0): 1, (0, 1, 1): 1 / SQ2, (1, 0, 1): 1 / SQ2, (1, 1, 2): 1}
    embedded = ec.make_state((2, 2, 4), pattern)
    report = ec.invariant_report(embedded)
    # The report normalizes; det223 has degree 6.
    assert abs(report.det223) * report.norm**6 == pytest.approx(0.5, abs=1e-12)
    # and the normalized representative agrees with its own n=3 embedding
    a1 = ec.invariant_report(ec.representative("C223_GEN", 4))
    assert abs(a1.det223) == pytest.approx(
        abs(ec.det223(ec.representative("C223_GEN", 3))), abs=1e-12
    )


# ---------------------------------------------------------------------------
# concurrence and tangles


def test_concurrence_bell_pair():
    v = np.array([1, 0, 0, 1], dtype=complex) / SQ2
    assert ec.concurrence(np.outer(v, v.conj())) == pytest.approx(1.0)


def test_concurrence_maximally_mixed():
    assert ec.concurrence(np.eye(4) / 4) == 0.0


def test_concurrence_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert ec.concurrence(rho) == 0.0


def test_concurrence_rejects_non_psd():
    rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(FormatError):
        ec.concurrence(rho)


def test_concurrence_agrees_with_purification_rtr(gen):
    # The concurrence spectrum of tr_3 |psi><psi| equals the singular values
    # of R^T R of the purification, so they give its concurrence.
    from entclass.invariants import SPIN_FLIP

    for _ in range(300):
        n = int(gen.integers(1, 17))
        psi = ec.random_state((2, 2, n), gen)
        rho = ec.reduced_density(psi, 0, 1)
        eigs, vecs = np.linalg.eigh(rho.entries)
        root = (vecs * np.sqrt(np.clip(eigs, 0, None))) @ vecs.conj().T
        s_conc = np.sort(
            np.linalg.svd(root @ SPIN_FLIP @ root.conj(), compute_uv=False)
        )[::-1]
        s_rtr = np.sort(ec.invariant_report(psi).singular_values_rtr)[::-1]
        m = min(4, len(s_rtr))
        padded = np.zeros(4)
        padded[:m] = s_rtr[:m]
        assert np.abs(s_conc - padded).max() < 1e-9
        lam = ec.invariant_report(psi).singular_values_rtr[:4] + (0.0,) * 3
        wootters = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert abs(wootters - ec.concurrence(rho)) < 64 * EPS


@pytest.mark.parametrize("label,expected", [("GHZ", 1.0), ("W", 0.0), ("B3", 0.0)])
def test_three_tangle_values(label, expected):
    assert ec.ckw_residual(rep(label)).tangle == pytest.approx(expected, abs=1e-12)


def test_ckw_ghz():
    r = ec.ckw_residual(rep("GHZ"))
    assert r.c3_rest_sq == pytest.approx(1.0, abs=1e-10)
    assert r.c13_sq == pytest.approx(0.0, abs=1e-10)
    assert r.c23_sq == pytest.approx(0.0, abs=1e-10)
    assert r.tangle == pytest.approx(1.0, abs=1e-10)
    assert abs(r.residual) < 1e-10


def test_ckw_w():
    r = ec.ckw_residual(rep("W"))
    assert r.c3_rest_sq == pytest.approx(8 / 9, abs=1e-10)
    assert r.c13_sq == pytest.approx(4 / 9, abs=1e-10)
    assert r.c23_sq == pytest.approx(4 / 9, abs=1e-10)
    assert r.tangle == pytest.approx(0.0, abs=1e-10)
    assert abs(r.residual) < 1e-10


def test_ckw_product_state():
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1})
    r = ec.ckw_residual(psi)
    assert all(abs(v) < 1e-12 for v in r)


def test_ckw_residual_random(gen):
    # The amplitude route agrees with the density route field by field.
    for _ in range(1000):
        psi = ec.random_state((2, 2, 2), gen)
        r = ec.ckw_residual(psi)
        density = (
            4 * np.linalg.det(ec.reduced_density(psi, 2).entries).real,
            ec.concurrence(ec.reduced_density(psi, 0, 2)) ** 2,
            ec.concurrence(ec.reduced_density(psi, 1, 2)) ** 2,
            4 * abs(ec.det222(psi)),
        )
        assert max(abs(a - b) for a, b in zip(r, density)) < 1e-12
        assert abs(r.residual) < 64 * EPS


def test_w_maximizes_pairwise_sum(gen):
    # Pairwise squared concurrences sum to at most 4/3, attained by W.
    w = rep("W")
    pairs = [(0, 1), (1, 2), (0, 2)]
    total_w = sum(ec.concurrence(ec.reduced_density(w, a, b)) ** 2 for a, b in pairs)
    assert total_w == pytest.approx(4 / 3, abs=1e-10)
    for _ in range(1000):
        psi = ec.random_state((2, 2, 2), gen)
        total = sum(
            ec.concurrence(ec.reduced_density(psi, a, b)) ** 2 for a, b in pairs
        )
        assert total <= 4 / 3 + 1e-6


# ---------------------------------------------------------------------------
# dimension count


def test_nonlocal_dimension_four_qubits():
    count = ec.nonlocal_dimension((2, 2, 2, 2), 0)
    assert count.raw == 3
    assert count.nonnegative == 3


def test_nonlocal_dimension_224():
    count = ec.nonlocal_dimension((2, 2, 4), ec.KNOWN_STABILIZER_DIMS[(2, 2, 4)])
    assert count.raw == 0


@pytest.mark.parametrize("k", [2, 3, 5])
def test_nonlocal_dimension_bipartite_generic(k):
    # The maximally entangled bipartite orbit has no moduli: the diagonal
    # special-linear stabilizer has dimension k^2 - 1.
    assert ec.nonlocal_dimension((k, k), k * k - 1).raw == 0


def test_dimension_count_derives_its_counts():
    count = ec.DimensionCount((2, 2), 0)
    assert (count.raw, count.nonnegative) == (-3, 0)
    assert ec.nonlocal_dimension((2, 2, 4), 6) == ec.DimensionCount((2, 2, 4), 6)


def test_nonlocal_dimension_rejects_negative_delta():
    with pytest.raises(ValueError):
        ec.nonlocal_dimension((2, 2), -1)


@pytest.mark.parametrize(
    "dims, delta",
    [((2, 2, 4.7), 6), ((2, 2, 4), 6.9), ((2, True, 2, 2), 0), ((2, "2", 2, 2), 0), ((2, 2), True), ((2, 2), "0")],
    ids=repr,
)
def test_nonlocal_dimension_rejects_non_integer_sizes(dims, delta):
    # int() once counted (2, 2, 4.7) with delta 6.9 as (2, 2, 4) with delta 6.
    with pytest.raises(FormatError, match="must be an integer, got"):
        ec.nonlocal_dimension(dims, delta)


def test_nonlocal_dimension_accepts_numpy_integers():
    count = ec.nonlocal_dimension((np.int64(2), 2, np.uint8(4)), np.int32(6))
    assert count == ec.nonlocal_dimension((2, 2, 4), 6)
    assert all(type(k) is int for k in count.dims) and type(count.delta) is int


# ---------------------------------------------------------------------------
# invariant report assembly


def test_report_det_fields_presence():
    assert ec.invariant_report(rep("GHZ")).det222 is not None
    assert ec.invariant_report(rep("GHZ")).det223 is not None
    r223 = ec.invariant_report(rep("C223_GEN"))
    assert r223.det222 is None and r223.det223 is not None
    r224 = ec.invariant_report(rep("GEN224"))
    assert r224.det222 is None and r224.det223 is None


def test_report_norm_records_original():
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    report = ec.invariant_report(psi)
    assert report.norm == pytest.approx(SQ2)
    assert report.local_ranks == (2, 2, 2)


def test_report_and_classify_require_2x2n_format():
    # _require_format is the one (2, 2, n) check on the invariant pipeline.
    psi = ec.make_state((2, 3, 2), {(0, 0, 0): 1})
    message = r"^expected dims \(2, 2, n\), got \(2, 3, 2\)$"
    with pytest.raises(FormatError, match=message):
        ec.invariant_report(psi)
    with pytest.raises(FormatError, match=message):
        ec.classify(psi)


#: Per-factor condition numbers of the dressing sweep, and README's bound.
CONDITIONS = (1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
STATED_BOUND = 1e4

#: Correct labels of 100 draws per condition number, measured on the same
#: draws with the rule that thresholded |Det| at 1e-10, took ranks relative
#: to each unfolding's largest singular value and voted with rank(R^T R).
#: No cell may fall below it.
SWEEP_FLOOR = {
    "SEP": (100, 100, 100, 100, 100, 100, 100),
    "B1": (100, 100, 100, 100, 100, 1, 0),
    "B2": (100, 100, 100, 100, 100, 2, 0),
    "B3": (100, 100, 100, 100, 100, 3, 0),
    "W": (100, 100, 100, 100, 99, 2, 0),
    "GHZ": (100, 100, 20, 0, 0, 0, 0),
    "C223_DEG": (100, 100, 100, 37, 0, 0, 0),
    "C223_GEN": (100, 100, 0, 0, 0, 0, 0),
    "GEN224": (100, 100, 100, 65, 0, 0, 0),
}


@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
def test_classify_at_the_stated_dressing_bound(label, gen):
    # The conditioning sweep: each factor U diag(1 ... 1/c) V, 100 draws per
    # c, counting correct, unresolved and wrong labels. Up to README's
    # bound no label is wrong and AmbiguityError is the only error; past it
    # a state may take a lower class's label, and no cell falls below the
    # floor. Any other error fails the test at every c.
    psi = rep(label)
    for cond, floor in zip(CONDITIONS, SWEEP_FLOOR[label.name]):
        counts = collections.Counter()
        for _ in range(100):
            dressed = ec.apply_local(conditioned_op(psi.dims, cond, gen), psi)
            try:
                counts["correct" if ec.classify(dressed)[0] == label else "wrong"] += 1
            except AmbiguityError:
                counts["unresolved"] += 1
        assert counts["correct"] >= floor, (cond, counts)
        if cond <= STATED_BOUND:
            assert counts["wrong"] == 0, (cond, counts)


def test_report_margins_positive_for_clean_states():
    report = ec.invariant_report(rep("GHZ"))
    assert report.distances["det222"] > 0.1
    assert report.distances["local_ranks"] > 1e-3
    assert report.singular_values_rtr[report.rank_rtr - 1] > 1e-3


@pytest.mark.parametrize(
    "label,name,corrupt",
    [("GHZ", "_det222", lambda x: x + 1e-9), ("C223_GEN", "_det223", lambda x: x * (1 + 1e-9))],
)
def test_det_route_disagreement_reports_its_numbers(label, name, corrupt, monkeypatch):
    # A corrupted literal polynomial no longer matches -det A (or -det A / 2)
    # on the same adjusted state; the like-with-like check names both.
    original = getattr(invariants, name)
    monkeypatch.setattr(invariants, name, lambda x: corrupt(original(x)))
    with pytest.raises(NumericalInstabilityError, match=rf"literal Det{name[4:]} .* above the bound 1.42e-14"):
        ec.invariant_report(rep(label))


def invariant_report_digests() -> dict[str, str]:
    """sha256 of the repr of the label and of every InvariantReport field.

    The cases are the nine representatives under 20 seeded random SL
    dressings each, at their natural Clare dimension and at n = 16, and
    each representative scaled by 1e-300 and by 1e300. Unlike the CLI
    digests, whose exact representatives have trivially exact spectra,
    these states exercise every rounding step of the invariant kernel.
    """
    cases = {}
    for c, label in enumerate(ALL_LABELS):
        for n in (natural_n(label), 16):
            psi = ec.representative(label, n)
            for i in range(20):
                gen = ec.RandomSource(9, 40 * c + (20 if n == 16 else 0) + i).generator()
                cases[f"{label.name} n={n} seed={i}"] = ec.apply_local(
                    random_invertible_op(psi.dims, gen), psi
                )
        for scale in (1e-300, 1e300):
            psi = rep(label)
            cases[f"{label.name} x{scale:g}"] = ec.StateTensor(
                psi.dims, psi.amplitudes * scale
            )
    digests = {}
    for key, psi in cases.items():
        label, report = ec.classify(psi)
        texts = [repr(label)]
        texts += [repr(getattr(report, name)) for name in REPORT_FIELDS]
        digests[key] = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return digests


def test_invariant_reports_match_parent_digests():
    # Kernel rewrites keep every report field bit for bit; a deliberate
    # change regenerates invariant_report_digests.json and says so.
    got = invariant_report_digests()
    assert sorted(got) == sorted(DIGESTS)
    assert [key for key in DIGESTS if got[key] != DIGESTS[key]] == []


# ---------------------------------------------------------------------------
# the kernel's direct LAPACK gufunc calls


def test_lapack_failure_raises_numpys_error():
    # sqrt(-1) sets the invalid flag, as a gufunc that did not converge does.
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        invariants._lapack(np.sqrt, np.array([-1.0]), signature="d->d")
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        invariants._lapack(np.sqrt, np.array([-1.0]), signature="d->d", fail=invariants._eig_failed)
    with pytest.raises(np.linalg.LinAlgError, match="^Incorrect argument found while performing QR"):
        invariants._lapack(np.sqrt, np.array([-1.0]), signature="d->d", fail=numerics._qr_failed)


def _failing_lapack(position, monkeypatch):
    """Patch ``invariants._lapack`` so that its ``position``-th call (1-based)
    runs the real gufunc and then sets the invalid flag, as a gufunc that did
    not converge does; returns the gufunc names called, in order."""
    lapack, names = invariants._lapack, []

    def counted(gufunc, *operands, **kwargs):
        names.append(gufunc.__name__)
        if len(names) == position:
            def failing(*args, signature):
                out = gufunc(*args, signature=signature)
                np.sqrt(np.array([-1.0]))
                return out
            return lapack(failing, *operands, **kwargs)
        return lapack(gufunc, *operands, **kwargs)

    monkeypatch.setattr(invariants, "_lapack", counted)
    return names


@pytest.mark.parametrize("position", [1, 2, 3])
def test_each_svd_of_the_block_raises_on_the_invalid_flag(position, monkeypatch):
    # The block's two SVDs fail the report; the R^T R SVD, third, fails the
    # first read of the pair.
    names = _failing_lapack(position, monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        report = ec.invariant_report(rep("GHZ"))
        assert position == 3
        report.singular_values_rtr
    assert names == ["svd_s", "svd", "svd"][:position]


def test_eigvalsh_keeps_its_own_failure_message(monkeypatch):
    names = _failing_lapack(3, monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        ec.invariant_report(ec.representative("C223_GEN", 3))
    assert names == ["svd_s", "svd", "eigvalsh_lo"]


def test_invalid_value_outside_the_block_is_no_lapack_error(monkeypatch):
    # Only the gufunc calls run under the failure callback: an invalid value
    # in the density band is numpy's own floating-point error.
    spectrum = invariants._qubit_spectrum

    def invalid(gram):
        np.sqrt(np.array([-1.0]))
        return spectrum(gram)

    monkeypatch.setattr(invariants, "_qubit_spectrum", invalid)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        ec.invariant_report(rep("GHZ"))


def _public_lapack(gufunc, a, signature="D->d", fail=None):
    """The np.linalg call that wraps each gufunc the kernel calls directly."""
    return {
        "svd_s": lambda: np.linalg.svd(a, full_matrices=False),
        "svd": lambda: np.linalg.svd(a, compute_uv=False),
        "eigvalsh_lo": lambda: np.linalg.eigvalsh(a),
        "det": lambda: np.linalg.det(a),
    }[gufunc.__name__]()


@pytest.mark.parametrize(
    "n, r3", [(n, r3) for n in range(1, 17) for r3 in range(1, 5) if r3 <= n]
)
def test_report_equals_the_public_linalg_route(n, r3, monkeypatch):
    gen = np.random.default_rng(1000 * n + r3)
    a = gen.normal(size=(4, r3)) + 1j * gen.normal(size=(4, r3))
    b = gen.normal(size=(r3, n)) + 1j * gen.normal(size=(r3, n))
    psi = ec.StateTensor((2, 2, n), (a @ b).reshape(2, 2, n))
    kernel = ec.invariant_report(psi)
    assert kernel.local_ranks[2] == r3
    assert len(REPORT_FIELDS) == 8
    expected = [repr(getattr(kernel, name)) for name in REPORT_FIELDS]  # read before the patch
    monkeypatch.setattr(invariants, "_lapack", _public_lapack)
    public = ec.invariant_report(psi)
    for name, text in zip(REPORT_FIELDS, expected):
        assert repr(getattr(public, name)) == text, name


@pytest.mark.parametrize("scale", [1.0, 1e120])
def test_det223_stack_equals_the_public_det(scale):
    # np.linalg.det sets no errstate: on real minors that overflow, det's
    # sign (+-1 + 0j) times inf sets the invalid flag, which must not raise
    # LinAlgError here.
    gen = np.random.default_rng(223)
    x = gen.normal(size=(64, 2, 2, 3)) + 1j * gen.normal(size=(64, 2, 2, 3))
    if scale != 1.0:
        x = scale * x.real + 0j
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.det(x.reshape(64, 4, 3)[..., invariants._DET223_ROWS, :])
        expected = d[:, 0] * d[:, 1] - d[:, 2] * d[:, 3]
        got = invariants._det223(x)
    assert scale == 1.0 or np.isnan(expected).any()
    assert np.array_equal(got, expected, equal_nan=True)


def test_missing_gufunc_fails_at_import(monkeypatch):
    # numpy 1.x names the reduced SVD gufuncs svd_m_s/svd_n_s; no fallback.
    old = types.ModuleType(_umath_linalg.__name__)
    for name in ("det", "eigvalsh_lo", "svd"):
        setattr(old, name, getattr(_umath_linalg, name))
    monkeypatch.setitem(sys.modules, _umath_linalg.__name__, old)
    spec = importlib.util.spec_from_file_location("entclass._probe", invariants.__file__)
    with pytest.raises(ImportError, match="'svd_s'"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
