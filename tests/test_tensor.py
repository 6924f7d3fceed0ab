"""State construction, local operations, flattening, partial traces."""

import math

import numpy as np
import pytest

import entclass as ec
from entclass.errors import (
    AnnihilationError,
    FormatError,
    NormalizationError,
    ZeroStateError,
)

from conftest import random_invertible_op, svd_rank


def test_make_state_ghz_unnormalized():
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    assert psi.norm**2 == pytest.approx(2.0)
    assert psi.amplitudes[0, 0, 0] == 1
    assert psi.amplitudes[1, 1, 1] == 1
    assert np.count_nonzero(psi.amplitudes) == 2


def test_make_state_product_basis_vector():
    psi = ec.make_state((2, 2), [((0, 0), 1)])
    assert psi.norm**2 == pytest.approx(1.0)


def test_make_state_duplicate_index_rejected():
    with pytest.raises(FormatError, match="duplicate"):
        ec.make_state((2, 2, 2), [((0, 0, 0), 1), ((0, 0, 0), 1)])


def test_make_state_index_out_of_range():
    with pytest.raises(FormatError, match="out of range"):
        ec.make_state((2, 2, 2), [((0, 0, 2), 1)])


def test_make_state_all_zero_rejected():
    with pytest.raises(ZeroStateError):
        ec.make_state((2, 2), [((0, 0), 0.0)])


def test_dims_cap_enforced():
    with pytest.raises(FormatError):
        ec.make_state((2, 2, 17), [((0, 0, 0), 1)])


def test_representative_gen224_amplitudes():
    psi = ec.representative("GEN224", 4)
    for idx in [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3)]:
        assert psi.amplitudes[idx] == pytest.approx(0.5)
    assert psi.is_normalized()


def test_representative_c223_gen_normalized():
    psi = ec.representative("C223_GEN", 3)
    scale = 1 / math.sqrt(3)
    assert psi.amplitudes[0, 0, 0] == pytest.approx(scale)
    assert psi.amplitudes[0, 1, 1] == pytest.approx(scale / math.sqrt(2))
    assert psi.amplitudes[1, 0, 1] == pytest.approx(scale / math.sqrt(2))
    assert psi.amplitudes[1, 1, 2] == pytest.approx(scale)


def test_representative_w_at_n2():
    psi = ec.representative("W", 2)
    scale = 1 / math.sqrt(3)
    for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
        assert psi.amplitudes[idx] == pytest.approx(scale)


@pytest.mark.parametrize("label,n", [("GEN224", 3), ("C223_GEN", 2), ("C223_DEG", 2)])
def test_representative_label_n_incompatible(label, n):
    with pytest.raises(FormatError):
        ec.representative(label, n)


def test_apply_local_identity_fixes_ghz():
    psi = ec.representative("GHZ", 2)
    out = ec.apply_local(ec.LocalOperation.identity((2, 2, 2)), psi)
    assert out.allclose(psi)


def test_apply_local_clare_level_merge():
    # 3 -> 2 map sending |0>->|0>, |1>->|1>, |2>->|1>
    psi = ec.make_state((2, 2, 3), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 2): 1})
    clare = np.array([[1, 0, 0], [0, 1, 1]], dtype=complex)
    out = ec.apply_local(ec.LocalOperation.single_party((2, 2, 3), 2, clare), psi)
    expected = ec.make_state((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 1): 1})
    assert out.allclose(expected)


def test_apply_local_projector_kills_branch():
    psi = ec.make_state((2, 2, 2), {(0, 0, 1): 1, (1, 0, 0): 1})
    keep0 = np.array([[1, 0], [0, 0]], dtype=complex)
    out = ec.apply_local(ec.LocalOperation.single_party((2, 2, 2), 0, keep0), psi)
    assert out.amplitudes[0, 0, 1] == 1
    assert np.count_nonzero(out.amplitudes) == 1


def test_apply_local_annihilation_is_an_error():
    psi = ec.make_state((2, 2, 2), {(1, 0, 0): 1})
    keep0 = np.array([[1, 0], [0, 0]], dtype=complex)
    with pytest.raises(AnnihilationError):
        ec.apply_local(ec.LocalOperation.single_party((2, 2, 2), 0, keep0), psi)


def test_apply_local_shape_mismatch():
    psi = ec.representative("GHZ", 2)
    bad = ec.LocalOperation(
        (np.eye(3, dtype=complex), np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    )
    with pytest.raises(FormatError):
        ec.apply_local(bad, psi)


def test_apply_local_unitary_preserves_norm(gen):
    for _ in range(200):
        n = int(gen.integers(2, 6))
        psi = ec.random_state((2, 2, n), gen)
        op = ec.LocalOperation(
            (ec.random_unitary(2, gen), ec.random_unitary(2, gen), ec.random_unitary(n, gen))
        )
        out = ec.apply_local(op, psi)
        assert abs(out.norm**2 - 1.0) < 1e-12


def test_flatten_two_bell_identity_pattern():
    psi = ec.two_bell()
    f = ec.flatten(psi)
    assert np.allclose(f, np.eye(4) / 2)


def test_flatten_ghz_two_entries():
    f = ec.flatten(ec.representative("GHZ", 2))
    expected = np.zeros((4, 2), dtype=complex)
    expected[0, 0] = expected[3, 1] = 1 / math.sqrt(2)
    assert np.allclose(f, expected)


def test_flatten_row_indexing():
    psi = ec.make_state((2, 2, 2), {(0, 1, 0): 1, (1, 0, 0): 1}).normalize()
    f = ec.flatten(psi)
    assert f[1, 0] == pytest.approx(1 / math.sqrt(2))
    assert f[2, 0] == pytest.approx(1 / math.sqrt(2))
    assert np.allclose(f[:, 1], 0)


def test_flatten_wrong_dims():
    with pytest.raises(FormatError):
        ec.flatten(ec.make_state((2, 3, 2), {(0, 0, 0): 1}))


def test_flatten_unflatten_roundtrip(gen):
    for _ in range(50):
        n = int(gen.integers(1, 9))
        m = gen.standard_normal((4, n)) + 1j * gen.standard_normal((4, n))
        assert np.allclose(ec.flatten(ec.unflatten(m)), m)


def test_reduced_density_ghz_alice():
    rho = ec.reduced_density(ec.representative("GHZ", 2), 0)
    assert np.allclose(rho.entries, np.diag([0.5, 0.5]))


def test_reduced_density_product_state():
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1})
    for party in range(3):
        rho = ec.reduced_density(psi, party)
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]))


def test_reduced_density_two_bell_clare():
    rho = ec.reduced_density(ec.two_bell(), 2)
    assert np.allclose(rho.entries, np.eye(4) / 4)


def test_reduced_density_rejects_unnormalized():
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    with pytest.raises(NormalizationError):
        ec.reduced_density(psi, 0)


def test_reduced_density_random_states_valid(gen):
    # Hermitian, unit trace, PSD for a broad random sample (validated in
    # the DensityMatrix constructor).
    for _ in range(1000):
        n = int(gen.integers(2, 6))
        psi = ec.random_state((2, 2, n), gen)
        party = int(gen.integers(0, 3))
        rho = ec.reduced_density(psi, party)
        assert abs(np.trace(rho.entries) - 1) < 1e-12
        assert np.abs(rho.entries - rho.entries.conj().T).max() < 1e-12


def test_bipartite_slice_rank_invariant_under_sl(gen):
    # Rank of every party-vs-rest coefficient matrix is unchanged by
    # invertible local operations.
    from entclass.tensor import _unfolding

    for _ in range(1000):
        n = int(gen.integers(2, 5))
        psi = ec.random_state((2, 2, n), gen)
        op = random_invertible_op((2, 2, n), gen)
        out = ec.apply_local(op, psi)
        for party in range(3):
            before = svd_rank(_unfolding(psi.amplitudes, party))
            after = svd_rank(_unfolding(out.amplitudes, party))
            assert before == after


def test_local_operation_invertibility_flags():
    op = ec.LocalOperation(
        (
            np.eye(2, dtype=complex),
            np.array([[1, 1], [0, 0]], dtype=complex),
            np.array([[1, 0, 0], [0, 1, 0]], dtype=complex),
        )
    )
    assert op.invertible == (True, False, False)
    assert not op.all_invertible


def test_zero_tensor_rejected():
    with pytest.raises(ZeroStateError):
        ec.StateTensor((2, 2), np.zeros((2, 2)))


def test_state_amplitudes_frozen():
    psi = ec.representative("GHZ", 2)
    with pytest.raises(ValueError):
        psi.amplitudes[0, 0, 0] = 9.9


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_norm_is_scale_free(scale):
    psi = ec.representative("GHZ", 2)
    scaled = ec.StateTensor(psi.dims, psi.amplitudes * scale)
    assert scaled.norm == pytest.approx(scale, rel=1e-14)
    assert scaled.normalize().allclose(psi, atol=1e-15)


@pytest.mark.parametrize(
    "check",
    [
        ec.local_ranks,
        ec.three_tangle,
        ec.ckw_residual,
        lambda psi: ec.reduced_density(psi, 0),
    ],
    ids=["local_ranks", "three_tangle", "ckw_residual", "reduced_density"],
)
def test_huge_norm_raises_normalization_error(check):
    # Squaring a norm of 1e300 overflows; the check must still report the
    # unnormalized state rather than an arithmetic error.
    psi = ec.representative("GHZ", 2)
    scaled = ec.StateTensor(psi.dims, psi.amplitudes * 1e300)
    with pytest.raises(NormalizationError, match="squared norm inf"):
        check(scaled)
