"""The nine-class decision procedure and the conversion partial order.

Classification is a decision tree: local ranks split the easy cases, and
the two rank-degenerate signatures are resolved by a hyperdeterminant test
with the rank of R^T R as an independent cross-check. The determinant test
is primary (polynomial evaluation is better conditioned near boundaries
than rank thresholding); a disagreement between the two raises, carrying
both votes, rather than silently picking a side.

The partial order of classes under noninvertible local maps is shipped as
an explicit edge list with one executable witness per edge: a concrete
rank-dropping operation sending the upper class representative into the
lower class. Longer conversions compose edge witnesses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguityError, SignatureError
from .invariants import InvariantReport, invariant_report
from .labels import ClassLabel
from .numerics import DEFAULT_POLICY, TolerancePolicy
from .tensor import LocalOperation, StateTensor, apply_local, representative

#: Signatures that pin the class by ranks alone.
_RANK_ONLY = {
    label.rank_signature: label
    for label in (ClassLabel.SEP, ClassLabel.B1, ClassLabel.B2, ClassLabel.B3)
}

LEGAL_SIGNATURES = frozenset(label.rank_signature for label in ClassLabel)

#: rank(R^T R) expected for each determinant-decided class.
EXPECTED_RANK_RTR = {
    ClassLabel.GHZ: 2,
    ClassLabel.W: 1,
    ClassLabel.C223_GEN: 3,
    ClassLabel.C223_DEG: 2,
}


def _rank_vote(signature: tuple[int, int, int], rank_rtr: int) -> ClassLabel | None:
    """The class the R^T R rank alone would assign within a signature."""
    for label, rank in EXPECTED_RANK_RTR.items():
        if label.rank_signature == signature and rank == rank_rtr:
            return label
    return None


def _cross_check(
    signature: tuple[int, int, int], det_vote: ClassLabel, rank_rtr: int
) -> None:
    if rank_rtr != EXPECTED_RANK_RTR[det_vote]:
        raise AmbiguityError(
            signature, det_vote, _rank_vote(signature, rank_rtr), rank_rtr
        )


def classify(
    psi: StateTensor, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[ClassLabel, InvariantReport]:
    """Map a (2, 2, n) pure state to its class and full invariant report.

    Near-boundary states are decided by the policy thresholds; the report's
    margins record how close each decision was, so callers can detect
    fragile classifications. There is no "unknown" label.
    """
    report = invariant_report(psi, policy)
    signature = report.local_ranks
    if signature not in LEGAL_SIGNATURES:
        raise SignatureError(signature)

    if signature in _RANK_ONLY:
        return _RANK_ONLY[signature], report

    if signature == (2, 2, 4):
        return ClassLabel.GEN224, report

    if signature == (2, 2, 2):
        label = ClassLabel.GHZ if report.margins["det222"] > 0 else ClassLabel.W
    else:
        label = (
            ClassLabel.C223_GEN
            if report.margins["det223"] > 0
            else ClassLabel.C223_DEG
        )
    _cross_check(signature, label, report.rank_rtr)
    return label, report


def grade(label: ClassLabel | str) -> int:
    """Position in the partial order: 1 (separable) up to 5 (generic 2x2x4)."""
    return ClassLabel.parse(label).grade


#: Smallest Clare dimension at which each class representative lives.
_NATURAL_N = {
    label: max(2, label.min_clare_dim) for label in ClassLabel
}


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
    """The conversion DAG: nodes, covering edges, and the witness catalog."""

    nodes: tuple[ClassLabel, ...]
    edges: tuple[tuple[ClassLabel, ClassLabel], ...]
    witnesses: dict[tuple[ClassLabel, ClassLabel], LocalOperation]

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
    return PartialOrder(
        nodes=tuple(ClassLabel),
        edges=tuple(witnesses.keys()),
        witnesses=witnesses,
    )


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
    start = representative(source, _NATURAL_N[source])

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


def witness_map(
    source: ClassLabel | str, target: ClassLabel | str
) -> LocalOperation | None:
    """A concrete noninvertible operation realizing source -> target.

    For covering edges this is the catalog entry; for longer conversions,
    edge witnesses are composed along a path and the composite is verified
    by classifying its action on the source representative. Returns None
    when the conversion is impossible (including source == target).
    """
    source = ClassLabel.parse(source)
    target = ClassLabel.parse(target)
    if source == target or not reachable(source, target):
        return None
    found = _witness_search(source, target)
    return None if found is None else found[0]


def witness_chain(
    source: ClassLabel | str, target: ClassLabel | str
) -> tuple[ClassLabel, ...] | None:
    """The class chain walked by witness_map's composition, endpoints included."""
    source = ClassLabel.parse(source)
    target = ClassLabel.parse(target)
    if source == target or not reachable(source, target):
        return None
    found = _witness_search(source, target)
    return None if found is None else found[1]
