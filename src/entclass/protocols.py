"""Executable LOCC protocol demonstrations on the two-Bell-pair state.

The two-Bell-pair state (Alice and Bob each share a Bell pair with one of
Clare's two qubits) is the representative of the generic 2x2x4 class and
the most powerful resource in this setting: Clare alone can steer it into
any class below. Two protocols are realized here and replayed through the
classifier: entanglement swapping (a Bell measurement on Clare's two
qubits leaves Alice and Bob maximally entangled, the flow into B3) and
probabilistic distillation of the GHZ, W, and Bell classes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classify import classify
from .errors import FormatError
from .labels import ClassLabel
from .tensor import LocalOperation, StateTensor, apply_local, representative

_SQRT2 = math.sqrt(2.0)

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Bell basis on Clare's two qubits, index c = 2*c1 + c2. Any local-unitary
#: equivalent convention passes the same checks.
BELL_VECTORS: tuple[tuple[str, np.ndarray], ...] = (
    ("phi+", np.array([1, 0, 0, 1], dtype=complex) / _SQRT2),
    ("phi-", np.array([1, 0, 0, -1], dtype=complex) / _SQRT2),
    ("psi+", np.array([0, 1, 1, 0], dtype=complex) / _SQRT2),
    ("psi-", np.array([0, 1, -1, 0], dtype=complex) / _SQRT2),
)


@dataclass(frozen=True)
class ProtocolOutcome:
    """One branch of a protocol: its weight, post-state, and class.

    ``recovery`` holds the local unitaries (if any) that rotate the branch
    to the canonical target form; branch probabilities of a complete
    protocol sum to one.
    """

    branch: str
    probability: float
    post_state: StateTensor
    post_class: ClassLabel
    recovery: LocalOperation | None = None


def _clare_branch(
    base: StateTensor, name: str, element: np.ndarray, recovery: tuple | None
) -> ProtocolOutcome:
    """Apply Clare's measurement element to ``base`` and classify the branch;
    ``recovery`` holds the factors of the branch's recovery, if any."""
    raw = apply_local(LocalOperation((_I2, _I2, element)), base)
    post = raw.normalize()
    label, _ = classify(post)
    recovery = None if recovery is None else LocalOperation(recovery)
    return ProtocolOutcome(name, raw.norm**2, post, label, recovery)


#: Clare-side maps (4 -> 2 levels) steering the two-Bell state downward.
#: Rows are scaled so each map is a valid measurement element (operator
#: norm <= 1); the success probability is the squared norm it leaves.
_GHZ_ELEMENT = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex)
_GHZ_COMPLEMENT = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex)
_W_ELEMENT = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=complex) / _SQRT2

#: Every branch of Clare's measurements: name -> (element, recovery factors).
#: A Bell branch's recovery rotates its Alice-Bob pair back to
#: (|00> + |11>)/sqrt(2); Bob's bit flip recovers the flipped GHZ copy.
_BRANCHES: dict[str, tuple] = {
    **{
        name: (np.outer(vector, vector.conj()), (alice, bob, _I4))
        for (name, vector), (alice, bob) in zip(
            BELL_VECTORS, ((_I2, _I2), (_Z, _I2), (_I2, _X), (_Z, _X))
        )
    },
    "ghz-direct": (_GHZ_ELEMENT, None),
    "ghz-flipped": (_GHZ_COMPLEMENT, (_I2, _X, _I2)),
    "w-direct": (_W_ELEMENT, None),
}

#: The reported branch of each distillation target.
_DISTILL_BRANCHES = {"GHZ": "ghz-direct", "W": "w-direct", "BELL_AB": "phi+"}


@functools.cache
def _branch(name: str) -> ProtocolOutcome:
    """Branch ``name`` of the two-Bell state, computed once per process. It
    depends on no input, and the outcome is frozen with read-only arrays, so
    every caller shares it."""
    return _clare_branch(representative(ClassLabel.GEN224), name, *_BRANCHES[name])


def entanglement_swap() -> list[ProtocolOutcome]:
    """Clare measures her two qubits in the Bell basis.

    Each of the four branches occurs with probability 1/4 and leaves Alice
    and Bob in the matching Bell pair (class B3, unit concurrence); the
    branch recovery rotates that pair to the canonical form.
    """
    return [_branch(name) for name, _ in BELL_VECTORS]


def distill_ghz_branches() -> list[ProtocolOutcome]:
    """The complete two-outcome Clare measurement whose every branch is GHZ.

    Both branches succeed: the first lands on the canonical GHZ state, the
    second on a basis-flipped copy that Bob's bit flip recovers, so the
    two-Bell state creates the GHZ class with probability 1.
    """
    return [_branch("ghz-direct"), _branch("ghz-flipped")]


def _distill_key(target: ClassLabel | str) -> str:
    """The key of a distillation target in ``_DISTILL_BRANCHES``: case,
    surrounding space and '-' for '_' do not matter (the CLI parses with it)."""
    return str(target).strip().upper().replace("-", "_")


def distill_from_generic(target: ClassLabel | str) -> ProtocolOutcome:
    """One successful branch converting the two-Bell state into ``target``.

    Targets: GHZ (probability 1/2 for the reported branch; the complementary
    branch also lands in the GHZ class, see distill_ghz_branches), W
    (probability 3/8), or BELL_AB (one entanglement-swapping branch,
    probability 1/4, class B3).
    """
    key = _distill_key(target)
    if key not in _DISTILL_BRANCHES:
        raise FormatError(f"unknown distillation target {target!r}")
    return _branch(_DISTILL_BRANCHES[key])
