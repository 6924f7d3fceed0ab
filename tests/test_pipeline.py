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
    """Count np.linalg.svd calls and apply_local calls through any binding."""
    counts = {"svd": 0, "apply_local": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
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
    assert ec.classify(psi)[0] == label
    assert counted["svd"] <= 4
    assert counted["apply_local"] == 0


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


def reference_invariants(psi):
    """Ranks, rank(R^T R) and hyperdeterminants the way the library computed
    them before the one-SVD pipeline: one thresholded SVD per unfolding,
    R^T R from the magic basis, and the determinants on the state with
    Clare's support compressed to 2 or 3 levels."""
    psi = psi.normalize()
    ranks = tuple(
        svd_rank(np.moveaxis(psi.amplitudes, p, 0).reshape(k, -1), POLICY)
        for p, k in enumerate(psi.dims)
    )
    f = ec.flatten(psi)
    r = MAGIC_BASIS @ f
    svals = np.linalg.svd(r.T @ r, compute_uv=False)
    thr = POLICY.rank_threshold(float(np.linalg.norm(f)) ** 2, f.shape[1])
    rank_rtr = int(np.count_nonzero(svals > thr))
    det222 = ec.det222(compress_clare(psi, 2)) if ranks[2] <= 2 else None
    det223 = ec.det223(compress_clare(psi, 3)) if ranks[2] <= 3 else None
    if ranks == (2, 2, 2):
        generic = abs(det222) > POLICY.det_threshold(1.0, 4)
        label = ec.ClassLabel.GHZ if generic else ec.ClassLabel.W
    elif ranks == (2, 2, 3):
        generic = abs(det223) > POLICY.det_threshold(1.0, 6)
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
