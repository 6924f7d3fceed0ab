"""Tolerance policy, rank decisions, random samplers."""

import re

import numpy as np
import pytest

import entclass as ec
from entclass.numerics import _haar, _substreams

from conftest import svd_rank


def test_policy_defaults_and_validation():
    # One settable tolerance, in (64 eps, 1e-8].
    assert vars(ec.TolerancePolicy()) == {"distance_eps": 1e-13}
    assert ec.TolerancePolicy(1e-8).distance_eps == 1e-8
    for bad in (0.0, 64 * np.finfo(float).eps, 1.1e-8, 1e-3):
        with pytest.raises(ValueError, match="distance_eps must lie in"):
            ec.TolerancePolicy(distance_eps=bad)


def test_numerical_rank_outer_product(gen):
    u = ec.random_state((5,), gen).amplitudes
    v = ec.random_state((7,), gen).amplitudes
    assert svd_rank(np.outer(u, v.conj())) == 1


def test_numerical_rank_c223_deg_flattening():
    psi = ec.representative("C223_DEG", 3)
    assert svd_rank(psi.amplitudes.reshape(4, -1)) == 3


def test_numerical_rank_unitary_invariance(gen):
    for _ in range(1000):
        p = int(gen.integers(2, 8))
        q = int(gen.integers(2, 8))
        r = int(gen.integers(1, min(p, q) + 1))
        a = gen.standard_normal((p, r)) + 1j * gen.standard_normal((p, r))
        b = gen.standard_normal((r, q)) + 1j * gen.standard_normal((r, q))
        m = a @ b
        rank = svd_rank(m)
        rotated = ec.random_unitary(p, gen) @ m @ ec.random_unitary(q, gen)
        assert svd_rank(rotated) == rank


def test_random_sl_unit_determinant(gen):
    for k in (2, 3, 4, 8):
        m = ec.random_sl(k, gen)
        assert abs(np.linalg.det(m) - 1.0) < 1e-10


@pytest.mark.parametrize(
    "draw, low",
    [
        (lambda k: ec.random_sl(k, ec.RandomSource(1)), 2),
        (lambda k: ec.random_unitary(k, ec.RandomSource(1)), 1),
        (lambda k: ec.random_povm_pair(k, ec.RandomSource(1)), 2),
        (lambda k: ec.equality_case_povm(k, 0.5), 2),
    ],
    ids=["random_sl", "random_unitary", "random_povm_pair", "equality_case_povm"],
)
def test_matrix_constructors_share_one_k_range(draw, low):
    # Every constructor takes k from low up to the per-party cap MAX_LEVELS.
    draw(low)
    draw(ec.MAX_LEVELS)
    with pytest.raises(ec.FormatError, match=f"requires k >= {low}, got {low - 1}"):
        draw(low - 1)
    with pytest.raises(ec.FormatError, match="k=17 exceeds cap 16"):
        draw(ec.MAX_LEVELS + 1)


def _reference_sl(k, gen):
    # random_sl with its determinant from np.linalg.det.
    while True:
        m = (gen.standard_normal((k, k)) + 1j * gen.standard_normal((k, k))) / np.sqrt(2)
        det = complex(np.linalg.det(m))
        if abs(det) >= 1e-12:
            return m * det ** (-1.0 / k)


def test_random_sl_equals_the_public_det_route():
    for seed in (0, 7, 2**64 - 1):
        for k in (2, 3, 4, 16):
            got = ec.random_sl(k, ec.RandomSource(seed, k))
            assert got.tobytes() == _reference_sl(k, ec.RandomSource(seed, k).generator()).tobytes()


def test_random_sl_distinct_seeds_differ():
    a = ec.random_sl(2, ec.RandomSource(1))
    b = ec.random_sl(2, ec.RandomSource(2))
    assert not np.allclose(a, b)


def test_random_sl_group_closure(gen):
    m = ec.random_sl(3, gen) @ ec.random_sl(3, gen)
    assert abs(np.linalg.det(m) - 1.0) < 1e-9


def test_random_sl_names_the_largest_determinant(monkeypatch):
    monkeypatch.setattr(ec.numerics, "_lapack", lambda gufunc, m, signature: np.zeros((), complex))
    message = r"^could not draw a nonsingular matrix in 100 attempts: largest \|det\| 0 < 1e-12$"
    with pytest.raises(RuntimeError, match=message):
        ec.random_sl(2, ec.RandomSource(1))


def _failing_lapack(position, monkeypatch):
    """Patch ``numerics._lapack`` so that its ``position``-th call (1-based)
    runs the real gufunc and then sets the invalid flag, as a gufunc that did
    not converge does; returns the gufunc names called, in order."""
    lapack, names = ec.numerics._lapack, []

    def counted(gufunc, *operands, **kwargs):
        names.append(gufunc.__name__)
        out = lapack(gufunc, *operands, **kwargs)
        if len(names) == position:
            np.sqrt(np.array([-1.0]))
        return out

    monkeypatch.setattr(ec.numerics, "_lapack", counted)
    return names


@pytest.mark.parametrize("position", [1, 2])
@pytest.mark.parametrize(
    "draw",
    [lambda: ec.random_unitary(3, ec.RandomSource(1)), lambda: ec.monte_carlo("det222", 4, seed=1)],
    ids=["random_unitary", "monte_carlo"],
)
def test_each_qr_of_the_haar_block_raises_on_the_invalid_flag(draw, position, monkeypatch):
    names = _failing_lapack(position, monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="^Incorrect argument found while performing QR factorization$"):
        draw()
    assert names == ["qr_r_raw", "qr_reduced"][:position]


def test_invalid_flag_in_random_sls_det_is_no_lapack_error(monkeypatch):
    # det runs in the caller's errstate, as np.linalg.det does.
    expected = ec.random_sl(2, ec.RandomSource(1))
    names = _failing_lapack(1, monkeypatch)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        ec.random_sl(2, ec.RandomSource(1))
    with np.errstate(invalid="ignore"):
        assert ec.random_sl(2, ec.RandomSource(1)).tobytes() == expected.tobytes()
    assert names == ["det", "det"]


def test_random_unitary_scalar_case(gen):
    u = ec.random_unitary(1, gen)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_random_unitary_orthonormal_and_unimodular(gen):
    for k in (2, 3, 4, 7):
        u = ec.random_unitary(k, gen)
        assert np.abs(u.conj().T @ u - np.eye(k)).max() < 1e-10
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_random_state_reproducible():
    a = ec.random_state((2, 2, 4), ec.RandomSource(99, 5))
    b = ec.random_state((2, 2, 4), ec.RandomSource(99, 5))
    assert a.allclose(b)
    c = ec.random_state((2, 2, 4), ec.RandomSource(99, 6))
    assert not a.allclose(c)


@pytest.mark.parametrize("dims", [(2, 0, 2), (2, -1, 2), (2, 2, 17), ()])
def test_random_state_checks_dims_before_drawing(dims):
    # A zero dimension once redrew zero normals forever: their squared norm
    # never exceeds the floor. Every bad size now fails before any draw.
    gen = ec.RandomSource(1).generator()
    with pytest.raises(ec.FormatError, match="dims"):
        ec.random_state(dims, gen)
    assert gen.standard_normal() == ec.RandomSource(1).generator().standard_normal()


@pytest.mark.parametrize("size", [2.7, 2.0, np.float64(2.0), True, "3"])
def test_sizes_must_be_integers(size):
    # int() once read 2.7 as 2 and True as 1 in dims; a float k failed
    # inside numpy, and a string k in a comparison, both with TypeError.
    dims, message = (2, size, 2), re.escape(f"dimension must be an integer, got {size!r}")
    for build in (
        lambda: ec.StateTensor(dims, np.ones(4)),
        lambda: ec.make_state(dims, {(0, 0, 0): 1}),
        lambda: ec.random_state(dims, ec.RandomSource(1)),
    ):
        with pytest.raises(ec.FormatError, match=message):
            build()
    for name in ("random_sl", "random_unitary", "random_povm_pair"):
        with pytest.raises(ec.FormatError, match=re.escape(f"{name}'s k must be an integer, got {size!r}")):
            getattr(ec, name)(size, ec.RandomSource(1))
    with pytest.raises(ec.FormatError, match="k must be an integer"):
        ec.equality_case_povm(size, 0.5)
    # numpy integers are integers.
    assert ec.random_state((2, np.int64(2), 2), ec.RandomSource(1)).dims == (2, 2, 2)
    assert ec.random_sl(np.int32(2), ec.RandomSource(1)).shape == (2, 2)


def test_random_source_substream():
    with pytest.raises(ValueError):
        ec.RandomSource(-1)
    numpy_ints = ec.RandomSource(np.uint64(3), np.int32(2)).generator()
    assert numpy_ints.integers(2**62) == ec.RandomSource(3, 2).generator().integers(2**62)


@pytest.mark.parametrize("value", [1.5, 1.0, np.float64(2.0), True, False, "3", np.array(3.0)])
def test_random_source_rejects_non_integral_keys(value):
    # Each of these used to key the stream of the integer int() makes of it.
    for args in ((value,), (0, value)):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {value!r}")):
            ec.RandomSource(*args)
    with pytest.raises(ValueError, match="seed must be an integer"):
        ec.monte_carlo("det222", 12, value)
    with pytest.raises(ValueError, match="stream must be an integer"):
        ec.monotone_trial("det222", 1, value)


KEYS = (0, 2**63, 2**64 - 1)


def _plain_state(gen) -> dict:
    state = gen.bit_generator.state
    return {
        **state,
        "state": {name: value.tolist() for name, value in state["state"].items()},
        "buffer": state["buffer"].tolist(),
    }


@pytest.mark.parametrize("seed", KEYS)
@pytest.mark.parametrize("stream", KEYS)
def test_generator_starts_as_a_keyed_philox(seed, stream):
    got = ec.RandomSource(seed, stream).generator()
    keyed = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    assert _plain_state(got) == _plain_state(keyed)
    assert _stream_draws(got) == _stream_draws(keyed)
    assert _plain_state(got) == _plain_state(keyed)


def test_generators_read_no_os_entropy(monkeypatch):
    def no_entropy(bits):
        raise AssertionError("OS entropy read")

    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    with pytest.raises(AssertionError, match="OS entropy read"):
        np.random.Philox(key=[1, 2])  # the patch reaches numpy's constructor
    draws = _stream_draws(ec.RandomSource(5, 9).generator())
    assert [_stream_draws(gen) for gen in _substreams(5, [9, 9])] == [draws, draws]


def test_generators_share_no_spawn_state():
    # spawn raises, as on Generator(Philox(key=...)): a shared seed sequence
    # that spawned would couple the children of every generator.
    a, b = ec.RandomSource(1).generator(), ec.RandomSource(2).generator()
    keyed = np.random.Generator(np.random.Philox(key=[1, 0]))
    for gen in (a, b, keyed):
        with pytest.raises(TypeError, match="does not implement spawning"):
            gen.spawn(1)
    assert _stream_draws(a) == _stream_draws(ec.RandomSource(1).generator())


def _stream_draws(gen) -> tuple:
    # Ends on integers(0, 3), which leaves half of a 64-bit draw in Philox's
    # 32-bit buffer, so the next rekey has that buffer to clear.
    return (gen.standard_normal(5).tobytes(), gen.random(3).tobytes(), int(gen.integers(0, 3)))


def test_substreams_rekey_as_fresh_generators():
    streams = [2**63, 1, 0, 2**64 - 1, 1, 2**63, np.uint64(2**64 - 1), np.int64(7), 0]
    for seed in (0, 5, 2**64 - 1):
        buffered = 0
        for stream, gen in zip(streams, _substreams(seed, streams)):
            assert _stream_draws(gen) == _stream_draws(ec.RandomSource(seed, stream).generator())
            buffered += gen.bit_generator.state["has_uint32"]
        assert buffered  # some rekey came right after a half-used 64-bit draw


@pytest.mark.parametrize(
    "stream, message",
    [(1.5, "stream must be an integer"), (-1, "64-bit"), (2**64, "64-bit"), (np.int64(-3), "64-bit")],
)
def test_substreams_reject_streams_outside_the_key_range(stream, message):
    with pytest.raises(ValueError, match=message):
        ec.monotone_batch("det222", 1, [0, 2**64 - 1, stream])


def _reference_haar(normals):
    # The phase fix written out: a diagonal entry below 1e-300 takes phase 1.
    z = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def test_haar_zero_column_and_common_path_match_the_formula(gen):
    for k in (1, 2, 3, 4):
        common = gen.standard_normal((5, 2, k, k))
        tiny = common.copy()
        tiny[1, :, :, 0] = 0.0  # a zero first column: r[0, 0] is 0
        tiny[3, :, :, k - 1] = 0.0  # a zero last column
        r = np.linalg.qr(tiny[:, 0] + 1j * tiny[:, 1])[1]
        assert (np.abs(np.diagonal(r, axis1=-2, axis2=-1)) < 1e-300).sum() == 2
        for normals in (common, tiny):
            u = _haar(normals)
            assert u.tobytes() == _reference_haar(normals).tobytes()
            assert np.isfinite(u).all()
            assert np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(k)).max() < 1e-12


def test_haar_follows_np_linalg_qr_on_nan_input():
    # np.linalg.qr reports no error on NaN input (numpy 2.4.6), nor does _haar:
    # both return the same bits.
    normals = np.ones((4, 2, 3, 3))
    normals[1, 0, 1, 2] = np.nan
    normals[3] = np.nan
    with np.errstate(invalid="ignore"):  # the phase fix divides NaN by NaN
        u, reference = _haar(normals), _reference_haar(normals)
    assert np.isnan(u[1]).any() and np.isnan(u[3]).all() and np.isfinite(u[[0, 2]]).all()
    assert u.tobytes() == reference.tobytes()


def test_random_state_bipartite_schmidt_rank(gen):
    for _ in range(200):
        psi = ec.random_state((2, 2), gen)
        assert svd_rank(psi.amplitudes.reshape(2, 2)) == 2


def test_random_state_lands_in_generic_class():
    hits = 0
    trials = 1000
    for t in range(trials):
        psi = ec.random_state((2, 2, 4), ec.RandomSource(31, t))
        if ec.classify(psi)[0] == ec.ClassLabel.GEN224:
            hits += 1
    assert hits >= 999
