"""The one-SVD invariant pipeline: its call budget, and equivalence with the
route it replaced: one rank per unfolding and the determinants on a state
whose Clare support is rotated onto her first levels."""

import sys

import numpy as np
import pytest

import entclass as ec
from entclass.invariants import MAGIC_BASIS

from conftest import ALL_LABELS, compress_clare, natural_n, svd_rank

POLICY = ec.DEFAULT_POLICY


@pytest.fixture
def counted(monkeypatch):
    """Count the kernel's LAPACK gufunc calls at ``invariants._lapack``, by
    gufunc name, the np.linalg wrappers the kernel no longer calls, and
    apply_local calls through any binding, and np.errstate entries."""
    counts = dict.fromkeys(["svd_s", "svd", "eigvalsh_lo", "det", "apply_local", "errstate"], 0)
    counts.update({f"np.linalg.{name}": 0 for name in ("svd", "eigvalsh", "eigh", "det")})

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    lapack = ec.invariants._lapack

    def counting_lapack(gufunc, *args, **kwargs):
        counts[gufunc.__name__] += 1
        return lapack(gufunc, *args, **kwargs)

    monkeypatch.setattr(ec.invariants, "_lapack", counting_lapack)

    class CountingErrstate(np.errstate):
        def __enter__(self):
            counts["errstate"] += 1
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", CountingErrstate)
    for name in ("svd", "eigvalsh", "eigh", "det"):
        monkeypatch.setattr(np.linalg, name, counting(f"np.linalg.{name}", getattr(np.linalg, name)))
    original = ec.tensor.apply_local
    wrapped = counting("apply_local", original)
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "apply_local", None)
        if name.startswith("entclass") and bound is original:
            monkeypatch.setattr(module, "apply_local", wrapped)
    return counts


@pytest.mark.parametrize("n", [None, 4])
@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
def test_classify_call_budget(label, n, counted):
    psi = ec.representative(label, natural_n(label) if n is None else n)
    got, report = ec.classify(psi)
    assert got == label
    assert (counted["svd_s"], counted["svd"]) == (1, 1)
    assert counted["eigvalsh_lo"] == (psi.dims[2] != 2)  # Clare's 2x2 density is closed form
    assert counted["errstate"] == 1 + counted["eigvalsh_lo"]  # the SVD block's, eigvalsh's own
    assert counted["det"] == (label.rank_signature[2] == 3)  # the stacked det223 minors
    assert counted["np.linalg.svd"] == counted["np.linalg.eigvalsh"] == counted["np.linalg.det"] == 0
    assert counted["apply_local"] == 0
    # The first read of the R^T R pair adds its one SVD under its own
    # errstate; later reads add nothing.
    before = dict(counted)
    report.singular_values_rtr
    assert counted == dict(before, svd=2, errstate=before["errstate"] + 1)
    report.rank_rtr, report.singular_values_rtr
    assert counted == dict(before, svd=2, errstate=before["errstate"] + 1)


def test_ckw_residual_call_budget(counted, gen):
    # The monogamy terms come from the amplitudes on Python numbers: no
    # LAPACK call, no np.linalg call (a DensityMatrix's check makes one) and
    # no errstate.
    states = [ec.representative(label, 2) for label in ("GHZ", "W")]
    states += [ec.random_state((2, 2, 2), gen) for _ in range(5)]
    before = dict(counted)
    for psi in states:
        ec.ckw_residual(psi)
    assert counted == before


def dressed_states(count_per_class, seed, max_cond=10.0):
    """Class representatives under random SL local maps, the shape of
    acceptance criterion 2, each factor's condition number at most max_cond."""
    for c, label in enumerate(ALL_LABELS):
        psi = ec.representative(label, natural_n(label))
        for i in range(count_per_class):
            gen = ec.RandomSource(seed, c * count_per_class + i).generator()
            while True:
                factors = tuple(ec.random_sl(k, gen) for k in psi.dims)
                if max(np.linalg.cond(f) for f in factors) <= max_cond:
                    break
            yield label, ec.apply_local(ec.LocalOperation(factors), psi)


def det_distance(psi):
    """|Det| / ||grad Det|| of a 2x2xr state, r = 2 or 3, from A = F^T S F
    with S = BILINEAR_SIGN * SPIN_FLIP, the adjugate by cofactors and the
    gradient 2 S F adj(A) as matrices."""
    f = psi.amplitudes.reshape(4, -1)
    s = ec.BILINEAR_SIGN * ec.SPIN_FLIP
    a = f.T @ s @ f
    r = len(a)
    adj = np.array([
        [(-1) ** (i + j) * np.linalg.det(np.delete(np.delete(a, j, 0), i, 1)) for j in range(r)]
        for i in range(r)
    ])
    grad = np.linalg.norm(2 * s @ f @ adj)
    return abs(np.linalg.det(a)) / grad if grad else 0.0


def reference_invariants(psi):
    """Ranks, rank(R^T R) and hyperdeterminants by a route apart from the
    one-SVD pipeline: one SVD per unfolding, R^T R from the magic basis, and
    the determinants and their distances on the state with Clare's support
    compressed to 2 or 3 levels."""
    psi = psi.normalize()
    ranks = tuple(
        svd_rank(np.moveaxis(psi.amplitudes, p, 0).reshape(k, -1), POLICY)
        for p, k in enumerate(psi.dims)
    )
    f = psi.amplitudes.reshape(4, -1)
    r = MAGIC_BASIS @ f
    svals = np.linalg.svd(r.T @ r, compute_uv=False)
    rank_rtr = int(np.count_nonzero(svals > POLICY.distance_eps))
    det222 = ec.det222(compress_clare(psi, 2)) if ranks[2] <= 2 else None
    det223 = ec.det223(compress_clare(psi, 3)) if ranks[2] <= 3 else None
    if ranks == (2, 2, 2):
        generic = det_distance(compress_clare(psi, 2)) > POLICY.distance_eps
        label = ec.ClassLabel.GHZ if generic else ec.ClassLabel.W
    elif ranks == (2, 2, 3):
        generic = det_distance(compress_clare(psi, 3)) > POLICY.distance_eps
        label = ec.ClassLabel.C223_GEN if generic else ec.ClassLabel.C223_DEG
    else:
        label = next(lab for lab in ALL_LABELS if lab.rank_signature == ranks)
    return label, ranks, rank_rtr, det222, det223


def test_pipeline_matches_reference_route():
    for expected, psi in dressed_states(40, seed=303):
        label, report = ec.classify(psi)
        ref_label, ranks, rank_rtr, det222, det223 = reference_invariants(psi)
        assert label == ref_label == expected
        assert report.local_ranks == ranks
        assert report.rank_rtr == rank_rtr
        for got, want in ((report.det222, det222), (report.det223, det223)):
            assert (got is None) == (want is None)
            if want is not None:
                assert abs(abs(got) - abs(want)) <= 1e-12
