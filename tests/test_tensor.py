"""State construction, local operations, flattening, partial traces."""

import math
import pickle
import re

import numpy as np
import pytest

import entclass as ec
from entclass.classify import partial_order
from entclass.errors import (
    AnnihilationError,
    FormatError,
    NormalizationError,
    ZeroStateError,
)

from conftest import (
    ALL_LABELS,
    EDGE_SCALES,
    mantissa,
    pattern,
    random_invertible_op,
    svd_rank,
    times_two_to,
)
from entclass.tensor import _scaled_norm, _unit_and_norm


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


@pytest.mark.parametrize("bad", [0.7, 1.9, True, "1"], ids=repr)
def test_make_state_rejects_non_integer_indices(bad):
    # int() would truncate these to a valid index: 0.7 and 1.9 to 0 and 1.
    with pytest.raises(FormatError, match=f"must be an integer, got {bad!r}"):
        ec.make_state((2, 2, 2), {(0, 0, 0): 1, (1, bad, 1): 1})


def test_make_state_accepts_numpy_integer_indices():
    psi = ec.make_state((2, 2, 3), {(np.int64(1), np.int32(0), np.uint8(2)): 1j})
    assert psi.amplitudes[1, 0, 2] == 1j and np.count_nonzero(psi.amplitudes) == 1


def test_make_state_all_zero_rejected():
    with pytest.raises(ZeroStateError):
        ec.make_state((2, 2), [((0, 0), 0.0)])


@pytest.mark.parametrize("dims", [(2, 2, n) for n in range(1, 17)] + [(3,)], ids=str)
def test_make_state_is_the_filled_array_frozen(dims, gen):
    # make_state freezes the array it fills without building the state again:
    # the same bytes as the validating constructor, read-only, sharing no
    # memory with its input, with the checked dims tuple.
    values = gen.standard_normal(math.prod(dims)) + 1j * gen.standard_normal(math.prod(dims))
    values[::3] = 0
    values[1] = 1.0  # nonzero at every size
    psi = ec.make_state(dims, zip(np.ndindex(dims), values))
    want = ec.StateTensor(dims, values.reshape(dims))
    assert psi.amplitudes.tobytes() == want.amplitudes.tobytes()
    assert psi.amplitudes.shape == dims and psi.amplitudes.dtype == complex
    assert not psi.amplitudes.flags.writeable
    assert not np.shares_memory(psi.amplitudes, values)
    assert type(psi) is ec.StateTensor and psi.dims == dims and type(psi.dims) is tuple


@pytest.mark.parametrize(
    "value, error, message",
    [
        (math.inf, FormatError, "amplitudes contain non-finite entries"),
        (complex(0, -math.inf), FormatError, "amplitudes contain non-finite entries"),
        (math.nan, FormatError, "amplitudes contain non-finite entries"),
        (0.0, ZeroStateError, "the zero tensor is not a state"),
    ],
    ids=repr,
)
def test_make_state_rejects_non_finite_and_zero_amplitudes(value, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        ec.make_state((2, 2, 3), {(0, 0, 0): value, (1, 1, 2): 0})


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


@pytest.mark.parametrize("label", list(ec.ClassLabel), ids=lambda label: label.name)
def test_representative_defaults_to_smallest_n(label):
    n = max(2, label.min_clare_dim)
    assert ec.representative(label).dims == (2, 2, n)
    assert ec.representative(label).allclose(ec.representative(label, n), atol=0)


@pytest.mark.parametrize("label,n", [("GEN224", 3), ("C223_GEN", 2), ("C223_DEG", 2)])
def test_representative_label_n_incompatible(label, n):
    with pytest.raises(FormatError):
        ec.representative(label, n)


@pytest.mark.parametrize("bad", [3.7, 3.0, "3", True], ids=repr)
def test_representative_rejects_non_integer_n(bad):
    # int() made (2, 2, 3) of 3.7 and "3", and n = 1 of True.
    with pytest.raises(FormatError, match=f"^n must be an integer, got {bad!r}$"):
        ec.representative("W", bad)


def test_representative_accepts_numpy_integer_n():
    assert ec.representative("W", np.int64(3)).dims == (2, 2, 3)
    assert ec.representative("GHZ", np.uint8(2)).allclose(ec.representative("GHZ", 2), atol=0)


@pytest.mark.parametrize("party", [-1, -3, 3, 5])
def test_single_party_rejects_a_party_out_of_range(party):
    # -1 used to put the factor on Clare; 5 raised a bare IndexError.
    with pytest.raises(FormatError, match=f"^party {party} out of range for 3 parties$"):
        ec.LocalOperation.single_party((2, 2, 3), party, np.eye(3))


@pytest.mark.parametrize("bad", [2.0, 1.5, "2", True], ids=repr)
def test_single_party_rejects_a_non_integer_party(bad):
    with pytest.raises(FormatError, match=f"^party must be an integer, got {bad!r}$"):
        ec.LocalOperation.single_party((2, 2, 3), bad, np.eye(2))


@pytest.mark.parametrize("bad", [2.7, "2", True], ids=repr)
def test_local_operation_dims_must_be_integers(bad):
    message = f"^a party dimension must be an integer, got {bad!r}$"
    with pytest.raises(FormatError, match=message):
        ec.LocalOperation.identity((2, bad, 3))
    with pytest.raises(FormatError, match=message):
        ec.LocalOperation.single_party((2, bad, 3), 0, np.eye(2))


def test_local_operation_accepts_numpy_integers():
    dims = (np.int64(2), np.int32(2), np.uint8(3))
    op = ec.LocalOperation.single_party(dims, np.int64(2), np.ones((3, 3)))
    assert [m.shape for m in op.factors] == [(2, 2), (2, 2), (3, 3)]
    assert op.factors[2].sum() == 9
    assert [m.shape for m in ec.LocalOperation.identity(dims).factors] == [(2, 2), (2, 2), (3, 3)]


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


ANNIHILATED = "^local operation annihilated the state$"


def test_apply_local_annihilation_is_an_error():
    psi = ec.make_state((2, 2, 2), {(1, 0, 0): 1})
    keep0 = np.array([[1, 0], [0, 0]], dtype=complex)
    with pytest.raises(AnnihilationError, match=ANNIHILATED):
        ec.apply_local(ec.LocalOperation.single_party((2, 2, 2), 0, keep0), psi)
    # A roundoff-sized output, nonzero but 1e-16 of ||psi|| ||M||, is annihilated too.
    psi = ec.StateTensor((2,), np.array([1.0, -(1.0 + 2.0**-52)]))
    ones = ec.LocalOperation((np.ones((1, 2)),))
    assert tensordot_reference(ones, psi).any()
    with pytest.raises(AnnihilationError, match=ANNIHILATED):
        ec.apply_local(ones, psi)


def tensordot_reference(operation, psi) -> np.ndarray:
    """The contraction ``apply_local`` makes, written with tensordot."""
    out = psi.amplitudes
    for axis, factor in enumerate(operation.factors):
        out = np.moveaxis(np.tensordot(factor, out, axes=(1, axis)), 0, axis)
    return out


def _complex_normal(gen, shape) -> np.ndarray:
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


@pytest.mark.parametrize(
    "dims",
    [(3,), (2, 3), (2, 3, 4), (2, 3, 2, 3), *((2, 2, n) for n in (1, 2, 3, 4, 16))],
)
def test_apply_local_matches_tensordot_bit_for_bit(dims, gen):
    for _ in range(20):
        psi = ec.StateTensor(dims, _complex_normal(gen, dims))
        factors = [_complex_normal(gen, (k, k)) for k in dims]
        ops = [ec.LocalOperation(factors)] + [
            ec.LocalOperation.single_party(dims, party, factors[party])
            for party in range(len(dims))
        ]
        if len(dims) == 3:  # Clare's rectangular maps: 3 x 4 and 1 x n
            clare = (3, dims[2]) if dims[2] == 4 else (1, dims[2])
            ops.append(ec.LocalOperation((*factors[:2], _complex_normal(gen, clare))))
        for op in ops:
            out = ec.apply_local(op, psi)
            expected = tensordot_reference(op, psi)
            assert out.dims == expected.shape
            assert out.amplitudes.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scale", [1e-200, 1e-300, 1e-310])
def test_apply_local_keeps_a_small_state(scale, gen):
    # Below about 1e-154 a plain sum of squares of the output underflows to
    # 0, which read as an annihilated state.
    psi = ec.StateTensor((2, 2, 2), pattern("GHZ") * scale)
    same = ec.apply_local(ec.LocalOperation.identity(psi.dims), psi)
    assert np.array_equal(same.amplitudes, psi.amplitudes)
    haar = ec.LocalOperation(tuple(ec.random_unitary(2, gen) for _ in range(3)))
    assert ec.apply_local(haar, psi).norm == pytest.approx(psi.norm, rel=1e-12)


def test_apply_local_keeps_a_large_state_under_a_large_factor():
    # ||psi|| * prod ||M_i|| is 2e310 here, above the float range, while the
    # output's norm is 1e300; a product of float norms read it as annihilated.
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1e300})
    op = ec.LocalOperation.single_party(psi.dims, 0, np.diag([1.0, 1e10]))
    assert ec.apply_local(op, psi).norm == 1e300


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
    psi = ec.representative(ec.ClassLabel.GEN224)
    f = psi.amplitudes.reshape(4, -1)
    assert np.allclose(f, np.eye(4) / 2)


def test_flatten_ghz_two_entries():
    f = ec.representative("GHZ", 2).amplitudes.reshape(4, -1)
    expected = np.zeros((4, 2), dtype=complex)
    expected[0, 0] = expected[3, 1] = 1 / math.sqrt(2)
    assert np.allclose(f, expected)


def test_flatten_row_indexing():
    psi = ec.make_state((2, 2, 2), {(0, 1, 0): 1, (1, 0, 0): 1}).normalize()
    f = psi.amplitudes.reshape(4, -1)
    assert f[1, 0] == pytest.approx(1 / math.sqrt(2))
    assert f[2, 0] == pytest.approx(1 / math.sqrt(2))
    assert np.allclose(f[:, 1], 0)


def test_reduced_density_ghz_alice():
    rho = ec.reduced_density(ec.representative("GHZ", 2), 0)
    assert np.allclose(rho.entries, np.diag([0.5, 0.5]))


def test_reduced_density_product_state():
    psi = ec.make_state((2, 2, 2), {(0, 0, 0): 1})
    for party in range(3):
        rho = ec.reduced_density(psi, party)
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]))


def test_reduced_density_two_bell_clare():
    rho = ec.reduced_density(ec.representative(ec.ClassLabel.GEN224), 2)
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


@pytest.mark.parametrize("bad", [True, 1.7, "2", np.array(1)], ids=repr)
def test_reduced_densities_reject_non_integer_parties(bad):
    # True once gave Bob's density, 1.7 a bare TypeError.
    psi = ec.representative("GHZ", 2)
    with pytest.raises(FormatError, match=f"^party must be an integer, got {re.escape(repr(bad))}$"):
        ec.reduced_density(psi, bad)
    for pair in ((bad, 2), (2, bad)):
        with pytest.raises(FormatError, match="^party must be an integer"):
            ec.reduced_density(psi, *pair)


@pytest.mark.parametrize("party", [-1, 3])
def test_reduced_densities_reject_a_party_out_of_range(party):
    psi = ec.representative("GHZ", 2)
    message = f"^party {party} out of range for 3 parties$"
    with pytest.raises(FormatError, match=message):
        ec.reduced_density(psi, party)
    with pytest.raises(FormatError, match=message):
        ec.reduced_density(psi, 0, party)
    with pytest.raises(FormatError, match="^the kept parties must differ$"):
        ec.reduced_density(psi, 1, 1)


def test_reduced_densities_accept_numpy_integer_parties():
    psi = ec.random_state((2, 2, 3), np.random.default_rng(3))
    one, pair = ec.reduced_density(psi, np.int64(2)), ec.reduced_density(psi, np.uint8(2), np.int32(0))
    assert (one.dim, pair.dim) == (3, 6)
    assert np.array_equal(one.entries, ec.reduced_density(psi, 2).entries)
    assert np.array_equal(pair.entries, ec.reduced_density(psi, 2, 0).entries)


def test_reduced_density_is_the_moved_axis_gram():
    # transpose((p, *rest)) is moveaxis(p, 0): the bits of the old body.
    psi = ec.random_state((2, 3, 4), np.random.default_rng(4))
    for party in range(3):
        a = np.moveaxis(psi.amplitudes, party, 0).reshape(psi.dims[party], -1)
        assert np.array_equal(ec.reduced_density(psi, party).entries, a @ a.conj().T)
    # Keeping every party traces nothing out: |psi><psi|.
    v = psi.amplitudes.ravel()
    assert np.allclose(ec.reduced_density(psi, 0, 1, 2).entries, np.outer(v, v.conj()), rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [2.9, True, "2", 2.0], ids=repr)
def test_density_matrix_rejects_a_non_integer_dim(bad):
    # int() once truncated 2.9 to 2.
    with pytest.raises(FormatError, match="^density matrix dimension must be an integer"):
        ec.DensityMatrix(bad, np.eye(2) / 2)
    assert ec.DensityMatrix(np.int64(2), np.eye(2) / 2).dim == 2


def test_bipartite_slice_rank_invariant_under_sl(gen):
    # Rank of every party-vs-rest coefficient matrix is unchanged by
    # invertible local operations.
    def unfolding(amplitudes, party):
        return np.moveaxis(amplitudes, party, 0).reshape(amplitudes.shape[party], -1)

    for _ in range(1000):
        n = int(gen.integers(2, 5))
        psi = ec.random_state((2, 2, n), gen)
        op = random_invertible_op((2, 2, n), gen)
        out = ec.apply_local(op, psi)
        for party in range(3):
            before = svd_rank(unfolding(psi.amplitudes, party))
            after = svd_rank(unfolding(out.amplitudes, party))
            assert before == after


def test_local_operation_invertibility_flags(monkeypatch):
    # The flags cost one SVD per square factor, paid on first read only:
    # dressing a state never reads them.
    svd, calls = np.linalg.svd, []

    def counted_svd(matrix, **kwargs):
        calls.append(matrix.shape)
        return svd(matrix, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    factors = (
        np.eye(2, dtype=complex),
        np.array([[1, 1], [0, 0]], dtype=complex),
        np.array([[1, 0, 0], [0, 1, 0]], dtype=complex),
        np.array([[2.5]]),
        np.array([[0.0]]),
        np.diag([1.0, 1e-12]),
    )
    op = ec.LocalOperation(factors)
    assert calls == []
    flags = op.invertible
    assert flags == (True, False, False, True, False, False)
    assert len(calls) == 5  # one per square factor; a rectangular one is False unseen
    assert op.invertible is flags and len(calls) == 5
    assert not all(op.invertible)
    assert repr(op) == (
        "LocalOperation(2x2, 2x2, 2x3, 1x1, 1x1, 2x2, "
        "invertible=(True, False, False, True, False, False))"
    )
    square = ec.LocalOperation(factors[:2] + factors[3:4])
    assert square.after(square).invertible == (True, False, True)
    # A pickle carries the flags if they were read, and computes them if not.
    for before in (op, ec.LocalOperation(factors)):
        assert pickle.loads(pickle.dumps(before)).invertible == flags
    order = partial_order()
    copy = pickle.loads(pickle.dumps(dict(order)))
    for edge in order:
        assert repr(copy[edge]) == repr(order[edge])
        assert not all(copy[edge].invertible)


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
    "name,scale", [("GHZ", 1.5e308), ("GEN224", 1e308), ("GHZ", 1.5e308 + 1.5e308j)]
)
def test_normalize_when_the_norm_overflows(name, scale):
    # Every amplitude is finite but the 2-norm exceeds the largest float64,
    # so it reads inf; dividing by it would give the zero tensor. At
    # 1.5e308 + 1.5e308j the modulus of each amplitude overflows too.
    psi = ec.representative(name)
    huge = ec.StateTensor(psi.dims, (psi.amplitudes != 0) * scale)
    assert huge.norm == math.inf
    phase = scale / scale.real / abs(scale / scale.real)
    assert huge.normalize().allclose(ec.StateTensor(psi.dims, psi.amplitudes * phase), atol=1e-15)


@pytest.mark.parametrize("dims", [(2, 2, n) for n in range(1, 17)] + [(3,)], ids=str)
def test_normalize_is_the_unit_array_frozen(dims, gen):
    # normalize() builds its result from _unit_and_norm's fresh array without
    # validating it again: the same bits as the validating constructor, read-only,
    # sharing no memory with the input, and with the input's dims tuple.
    for e in (-1074, -1060, -1022, -300, -1, 0, 1, 300, 1000, 1023):
        draw = gen.standard_normal(dims) + 1j * gen.standard_normal(dims)
        a = draw / np.abs(draw.view(float)).max() * 2.0**e  # largest part exactly 2**e
        psi = ec.StateTensor(dims, a)
        unit = psi.normalize()
        want = ec.StateTensor(dims, _unit_and_norm(psi.amplitudes)[0])
        assert unit.amplitudes.tobytes() == want.amplitudes.tobytes(), e
        assert not unit.amplitudes.flags.writeable
        assert not np.shares_memory(unit.amplitudes, psi.amplitudes)
        assert not np.shares_memory(unit.amplitudes, a)
        assert unit.dims is psi.dims and unit.amplitudes.shape == dims


@pytest.mark.parametrize("dims", [(2, 2, n) for n in range(1, 17)] + [(3,)], ids=str)
def test_scaled_norm_is_numpys_norm(dims, gen):
    # _scaled_norm sums the squares as np.linalg.norm does, bit for bit.
    for e in (-1074, -1060, -1022, -300, -1, 0, 1, 300, 1000, 1023):
        draw = gen.standard_normal(dims) + 1j * gen.standard_normal(dims)
        a = draw / np.abs(draw.view(float)).max() * 2.0**e  # largest part exactly 2**e
        scaled, rest = _scaled_norm(a)[:2]
        assert type(rest) is float
        assert rest.hex() == float(np.linalg.norm(scaled)).hex(), e


@pytest.mark.parametrize("scale", EDGE_SCALES)
@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
def test_norm_and_normalize_at_the_ends_of_the_float_range(label, scale):
    # pattern * scale is exactly pattern * m times 2**e: its norm is that
    # state's times 2**e (inf above the float range), and it normalizes to
    # the same bits, a subnormal largest part too.
    m, e = mantissa(scale)
    psi = ec.StateTensor(pattern(label).shape, pattern(label) * scale)
    unit = ec.StateTensor(psi.dims, pattern(label) * m)
    assert psi.norm == pytest.approx(times_two_to(unit.norm, e), rel=1e-15, abs=5e-324)
    assert np.array_equal(psi.normalize().amplitudes, unit.normalize().amplitudes)
    phase = m / abs(m)
    expected = pattern(label) * phase / math.sqrt(np.count_nonzero(pattern(label)))
    assert psi.normalize().allclose(ec.StateTensor(psi.dims, expected), atol=1e-15)
    assert repr(psi).endswith(f"norm={psi.norm:.6g})")


@pytest.mark.parametrize(
    "check",
    [
        lambda psi: ec.ckw_residual(psi).tangle,
        ec.ckw_residual,
        lambda psi: ec.reduced_density(psi, 0),
    ],
    ids=["three_tangle", "ckw_residual", "reduced_density"],
)
def test_huge_norm_raises_normalization_error(check):
    # Squaring a norm of 1e300 overflows; the check must still report the
    # unnormalized state rather than an arithmetic error.
    psi = ec.representative("GHZ", 2)
    scaled = ec.StateTensor(psi.dims, psi.amplitudes * 1e300)
    with pytest.raises(NormalizationError, match="squared norm inf"):
        check(scaled)
