"""The nine-class decision procedure and the conversion partial order.

Classification is a decision tree: local ranks pin seven classes, and the
``_DET_DECIDED`` table splits each of the two rank-degenerate signatures by
one hyperdeterminant. Every branch is decided by the policy's one rule on a
distance of the normalized state from the class boundary (a singular value
for a rank, |Det| / ||grad Det|| for a hyperdeterminant). A distance float64
cannot resolve, or a rank signature no 2x2xn state has, raises
``AmbiguityError`` rather than silently picking a side.

The partial order of classes under noninvertible local maps is one rank
rule: a class converts to another exactly when no local rank rises and the
signature changes. A local map cannot raise a local rank (Dür, Vidal and
Cirac, PRA 62, 062314, 2000), and two classes that share a signature, W and
GHZ or 223-degenerate and 223-generic, are SLOCC-inequivalent (Miyake, PRA 67,
012108, 2003). Each covering edge ships one executable witness: a concrete
rank-dropping operation sending the upper class representative into the
lower class. A longer conversion needs no search: from each class it takes
the first covering edge whose lower class still reaches the target, composes
those edge witnesses, and checks the composite once, by classifying its
action on the source representative.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from .errors import AmbiguityError
from .invariants import InvariantReport, invariant_report
from .labels import ClassLabel
from .numerics import DEFAULT_POLICY, ZERO_FLOOR, TolerancePolicy
from .tensor import LocalOperation, StateTensor, apply_local, representative

#: Each signature the ranks leave open: the hyperdeterminant that splits it,
#: the class when its distance is nonzero and the class when it is zero.
_DET_DECIDED = {
    (2, 2, 2): ("det222", ClassLabel.GHZ, ClassLabel.W),
    (2, 2, 3): ("det223", ClassLabel.C223_GEN, ClassLabel.C223_DEG),
}

#: Signatures that pin the class by ranks alone.
_RANK_ONLY = {
    label.rank_signature: label for label in ClassLabel if label.rank_signature not in _DET_DECIDED
}


def classify(
    psi: StateTensor, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[ClassLabel, InvariantReport]:
    """Map a (2, 2, n) pure state to its class and full invariant report.

    The report's distances record how far the state is from each boundary
    decided, so callers can see fragile classifications. There is no
    "unknown" label: an unresolved decision raises ``AmbiguityError``.
    """
    report = invariant_report(psi, policy)
    signature = report.local_ranks
    if signature in _RANK_ONLY:
        return _RANK_ONLY[signature], report
    if signature not in _DET_DECIDED:
        illegal = f"local-rank signature {signature}, which no 2x2xn state has"
        band = (ZERO_FLOOR, policy.distance_eps)
        raise AmbiguityError(illegal, report.distances["local_ranks"], band)
    key, generic, degenerate = _DET_DECIDED[signature]
    return (generic if policy.nonzero(key, report.distances[key]) else degenerate), report


def _eye(k: int = 2) -> np.ndarray:
    return np.eye(k, dtype=complex)


def _op(m1, m2, m3) -> LocalOperation:
    return LocalOperation((np.asarray(m1, complex), np.asarray(m2, complex), np.asarray(m3, complex)))


_PLUS_ROW = np.array([[1, 1], [0, 0]], dtype=complex)  # rank-1: |0><0| + |0><1|
_KEEP0 = np.array([[1, 0], [0, 0]], dtype=complex)  # rank-1 projector |0><0|


def _edge_witnesses() -> dict[tuple[ClassLabel, ClassLabel], LocalOperation]:
    """One concrete noninvertible operation per covering relation.

    Each witness maps the representative of its source class (at the source's
    natural Clare dimension) into the target class; every entry is verified
    by the test suite via the classifier.
    """
    L = ClassLabel
    return {
        # Clare merges two of her four levels, keeping the rank-3 overlap.
        (L.GEN224, L.C223_GEN): _op(_eye(), _eye(), [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]),
        # Clare drops one level outright: the degenerate rank-3 pattern.
        (L.GEN224, L.C223_DEG): _op(_eye(), _eye(), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        # Keeping Clare levels {0, 2} leaves the two-term maximal pattern.
        (L.C223_GEN, L.GHZ): _op(_eye(), _eye(), [[1, 0, 0], [0, 0, 1]]),
        # Keeping Clare levels {0, 1} leaves a vanishing-determinant pattern.
        (L.C223_GEN, L.W): _op(_eye(), _eye(), [[1, 0, 0], [0, 1, 0]]),
        # Merging Clare levels {1, 2} creates the two-term maximal pattern.
        (L.C223_DEG, L.GHZ): _op(_eye(), _eye(), [[1, 0, 0], [0, 1, 1]]),
        # Folding level 2 onto level 0 keeps ranks (2,2,2) with zero invariant.
        (L.C223_DEG, L.W): _op(_eye(), _eye(), [[1, 0, 1], [0, 1, 0]]),
        # An x-basis filter on one party leaves the other two in a Bell pair.
        (L.GHZ, L.B1): _op(_PLUS_ROW, _eye(), _eye()),
        (L.GHZ, L.B2): _op(_eye(), _PLUS_ROW, _eye()),
        (L.GHZ, L.B3): _op(_eye(), _eye(), _PLUS_ROW),
        # A computational-basis filter does the same for the W pattern.
        (L.W, L.B1): _op(_KEEP0, _eye(), _eye()),
        (L.W, L.B2): _op(_eye(), _KEEP0, _eye()),
        (L.W, L.B3): _op(_eye(), _eye(), _KEEP0),
        # Projecting the entangled pair of a biseparable state separates it.
        (L.B1, L.SEP): _op(_eye(), _KEEP0, _eye()),
        (L.B2, L.SEP): _op(_KEEP0, _eye(), _eye()),
        (L.B3, L.SEP): _op(_KEEP0, _eye(), _eye()),
    }


@functools.lru_cache(maxsize=1)
def partial_order() -> Mapping[tuple[ClassLabel, ClassLabel], LocalOperation]:
    """The covering edges of the conversion order, higher class first, each
    with its witness, in the table's order. One read-only mapping is shared."""
    return MappingProxyType(_edge_witnesses())


def reachable(source: ClassLabel | str, target: ClassLabel | str) -> bool:
    """Whether ``source`` converts to ``target`` by (possibly noninvertible)
    local operations: every class reaches itself, and another class exactly
    when its signature differs and none of its local ranks is higher."""
    source, target = ClassLabel.parse(source), ClassLabel.parse(target)
    a, b = source.rank_signature, target.rank_signature
    return source == target or (a != b and all(rb <= ra for ra, rb in zip(a, b)))


@functools.lru_cache(maxsize=None)
def _witness_search(source: ClassLabel, target: ClassLabel) -> tuple[LocalOperation, tuple[ClassLabel, ...]]:
    """Composite witness plus the class chain it walks, for two distinct
    classes with ``reachable(source, target)``. Every class that still reaches
    the target leads to it, so each step takes the first such successor."""
    order = partial_order()
    path = (source,)
    while path[-1] != target:
        node = path[-1]
        step = next((b for a, b in order if a == node and reachable(b, target)), None)
        if step is None:
            raise RuntimeError(f"witness walk from {source} to {target} stalled at {node}")
        path += (step,)
    # Last edge first: the products group as (w_cd . w_bc) . w_ab.
    steps = reversed([order[edge] for edge in zip(path, path[1:])])
    composite = functools.reduce(LocalOperation.after, steps)
    label = classify(apply_local(composite, representative(source)))[0]
    if label != target:
        raise RuntimeError(f"witness walk from {source} landed in {label} instead of {target}")
    return composite, path


def witness_map(
    source: ClassLabel | str, target: ClassLabel | str
) -> tuple[LocalOperation, tuple[ClassLabel, ...]] | None:
    """A concrete noninvertible operation realizing source -> target, with
    the class chain it walks, endpoints included: ``(operation, chain)``.

    For covering edges the operation is the catalog entry; for longer
    conversions, the edge witnesses along the chain composed. Either is
    checked once, by classifying its action on the source representative.
    Returns None when the conversion is impossible (including source == target).
    """
    source, target = ClassLabel.parse(source), ClassLabel.parse(target)
    if source == target or not reachable(source, target):
        return None
    return _witness_search(source, target)
