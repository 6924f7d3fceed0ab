"""The invariant suite: ranks, the magic-basis form, hyperdeterminants,
concurrence, the three-tangle, monogamy residuals, dimension counts."""

import math

import numpy as np
import pytest

import entclass as ec
from entclass.errors import FormatError

from conftest import random_invertible_op, rep

SQ2 = math.sqrt(2.0)


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
    assert ec.local_ranks(rep(label)) == expected


def test_local_ranks_requires_normalization():
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    with pytest.raises(ec.NormalizationError):
        ec.local_ranks(psi)


# ---------------------------------------------------------------------------
# R matrix and rank of R^T R


def test_r_matrix_of_identity_flattening_is_magic_basis():
    psi = ec.make_state(
        (2, 2, 4), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 2): 1, (1, 1, 3): 1}
    )
    assert np.allclose(ec.r_matrix(psi), ec.MAGIC_BASIS)


def test_r_matrix_ghz_columns():
    psi = rep("GHZ")
    r = ec.r_matrix(psi)
    assert np.allclose(r[:, 0], ec.MAGIC_BASIS[:, 0] / SQ2)
    assert np.allclose(r[:, 1], ec.MAGIC_BASIS[:, 3] / SQ2)


def test_r_matrix_preserves_norm(gen):
    for _ in range(100):
        n = int(gen.integers(1, 8))
        psi = ec.random_state((2, 2, n), gen)
        assert abs(np.linalg.norm(ec.r_matrix(psi)) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "label,expected",
    [("GEN224", 4), ("C223_GEN", 3), ("C223_DEG", 2), ("GHZ", 2), ("W", 1), ("B3", 1), ("B2", 0), ("B1", 0), ("SEP", 0)],
)
def test_rank_rtr_table_column(label, expected):
    assert ec.rank_rtr(rep(label)).rank == expected


def test_rank_rtr_singular_values_descending(gen):
    for _ in range(50):
        res = ec.rank_rtr(ec.random_state((2, 2, 4), gen))
        assert all(a >= b for a, b in zip(res.singular_values, res.singular_values[1:]))


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
    # of R^T R of the purification.
    from entclass.invariants import SPIN_FLIP

    for _ in range(300):
        n = int(gen.integers(1, 9))
        psi = ec.random_state((2, 2, n), gen)
        rho = ec.reduced_density_pair(psi, 0, 1)
        eigs, vecs = np.linalg.eigh(rho.entries)
        root = (vecs * np.sqrt(np.clip(eigs, 0, None))) @ vecs.conj().T
        s_conc = np.sort(
            np.linalg.svd(root @ SPIN_FLIP @ root.conj(), compute_uv=False)
        )[::-1]
        s_rtr = np.sort(ec.rank_rtr(psi).singular_values)[::-1]
        m = min(4, len(s_rtr))
        padded = np.zeros(4)
        padded[:m] = s_rtr[:m]
        assert np.abs(s_conc - padded).max() < 1e-9


@pytest.mark.parametrize("label,expected", [("GHZ", 1.0), ("W", 0.0), ("B3", 0.0)])
def test_three_tangle_values(label, expected):
    assert ec.three_tangle(rep(label)) == pytest.approx(expected, abs=1e-12)


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
    for _ in range(1000):
        r = ec.ckw_residual(ec.random_state((2, 2, 2), gen))
        assert abs(r.residual) < 1e-8


def test_w_maximizes_pairwise_sum(gen):
    # Pairwise squared concurrences sum to at most 4/3, attained by W.
    w = rep("W")
    pairs = [(0, 1), (1, 2), (0, 2)]
    total_w = sum(ec.concurrence(ec.reduced_density_pair(w, a, b)) ** 2 for a, b in pairs)
    assert total_w == pytest.approx(4 / 3, abs=1e-10)
    for _ in range(1000):
        psi = ec.random_state((2, 2, 2), gen)
        total = sum(
            ec.concurrence(ec.reduced_density_pair(psi, a, b)) ** 2 for a, b in pairs
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


def test_report_margins_positive_for_clean_states():
    report = ec.invariant_report(rep("GHZ"))
    assert report.margins["det222"] > 0.1
    assert report.margins["local_ranks"] > 1e-3
    assert report.margins["rank_rtr"] > 1e-3
