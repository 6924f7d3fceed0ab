"""The nine-class decision procedure and the conversion partial order.

Classification is a decision tree: local ranks pin seven classes, and the
``_DET_DECIDED`` table splits each of the two rank-degenerate signatures by
one hyperdeterminant. Every branch is decided by the policy's one rule on a
distance of the normalized state from the class boundary (a singular value
for a rank, |Det| / ||grad Det|| for a hyperdeterminant). A distance float64
cannot resolve, or a rank signature no 2x2xn state has, raises
``AmbiguityError`` rather than silently picking a side.

The partial order of classes under noninvertible local maps is shipped as
an explicit edge list with one executable witness per edge: a concrete
rank-dropping operation sending the upper class representative into the
lower class. Longer conversions compose edge witnesses.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
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


def grade(label: ClassLabel | str) -> int:
    """Position in the partial order: 1 (separable) up to 5 (generic 2x2x4)."""
    return ClassLabel.parse(label).grade


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


@dataclass(frozen=True)
class PartialOrder:
    """The conversion DAG on ``tuple(ClassLabel)``: covering edges, witnesses.

    ``witnesses`` is read-only: ``partial_order()`` shares one instance.
    """

    edges: tuple[tuple[ClassLabel, ClassLabel], ...]
    witnesses: Mapping[tuple[ClassLabel, ClassLabel], LocalOperation]

    def __post_init__(self):
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))

    def __reduce__(self):
        # A mapping proxy does not pickle; rebuild the order from a dict.
        return PartialOrder, (self.edges, dict(self.witnesses))

    def successors(self, label: ClassLabel) -> tuple[ClassLabel, ...]:
        return tuple(b for a, b in self.edges if a == label)

    def is_reachable(self, source: ClassLabel, target: ClassLabel) -> bool:
        if source == target:
            return True
        frontier = [source]
        seen = set()
        while frontier:
            node = frontier.pop()
            for nxt in self.successors(node):
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False


@functools.lru_cache(maxsize=1)
def partial_order() -> PartialOrder:
    witnesses = _edge_witnesses()
    return PartialOrder(edges=tuple(witnesses.keys()), witnesses=witnesses)


def hasse_edges() -> list[tuple[ClassLabel, ClassLabel]]:
    """All covering relations of the partial order, higher class first."""
    return list(partial_order().edges)


def reachable(source: ClassLabel | str, target: ClassLabel | str) -> bool:
    """Whether ``source`` converts to ``target`` by (possibly noninvertible)
    local operations; every class reaches itself."""
    return partial_order().is_reachable(ClassLabel.parse(source), ClassLabel.parse(target))


@functools.lru_cache(maxsize=None)
def _witness_search(
    source: ClassLabel, target: ClassLabel
) -> tuple[LocalOperation, tuple[ClassLabel, ...]] | None:
    """Composite witness plus the class chain it walks, or None."""
    order = partial_order()
    start = representative(source)

    def search(state, node):
        for nxt in order.successors(node):
            if not order.is_reachable(nxt, target):
                continue
            step = order.witnesses[(node, nxt)]
            if any(m.shape[1] != k for m, k in zip(step.factors, state.dims)):
                continue
            moved = apply_local(step, state)
            if nxt == target:
                if classify(moved)[0] == target:
                    return step, (node, nxt)
                continue
            tail = search(moved, nxt)
            if tail is not None:
                tail_op, tail_path = tail
                return tail_op.after(step), (node,) + tail_path
        return None

    found = search(start, source)
    if found is not None:
        operation, path = found
        final_label = classify(apply_local(operation, start))[0]
        if final_label != target:
            raise RuntimeError(
                f"witness search landed in {final_label} instead of {target}"
            )
    return found


def _witness(
    source: ClassLabel | str, target: ClassLabel | str
) -> tuple[LocalOperation, tuple[ClassLabel, ...]] | None:
    """The search result for a conversion between two distinct classes, or
    None where there is none (including source == target)."""
    source, target = ClassLabel.parse(source), ClassLabel.parse(target)
    if source == target or not reachable(source, target):
        return None
    return _witness_search(source, target)


def witness_map(
    source: ClassLabel | str, target: ClassLabel | str
) -> LocalOperation | None:
    """A concrete noninvertible operation realizing source -> target.

    For covering edges this is the catalog entry; for longer conversions,
    edge witnesses are composed along a path and the composite is verified
    by classifying its action on the source representative. Returns None
    when the conversion is impossible (including source == target).
    """
    found = _witness(source, target)
    return None if found is None else found[0]


def witness_chain(
    source: ClassLabel | str, target: ClassLabel | str
) -> tuple[ClassLabel, ...] | None:
    """The class chain walked by witness_map's composition, endpoints included."""
    found = _witness(source, target)
    return None if found is None else found[1]
