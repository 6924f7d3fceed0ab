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
#: equivalent convention passes the same checks; the recovery entries below
#: rotate each branch's Alice-Bob pair back to (|00> + |11>)/sqrt(2).
BELL_VECTORS: tuple[tuple[str, np.ndarray], ...] = (
    ("phi+", np.array([1, 0, 0, 1], dtype=complex) / _SQRT2),
    ("phi-", np.array([1, 0, 0, -1], dtype=complex) / _SQRT2),
    ("psi+", np.array([0, 1, 1, 0], dtype=complex) / _SQRT2),
    ("psi-", np.array([0, 1, -1, 0], dtype=complex) / _SQRT2),
)

_BELL_RECOVERY: dict[str, tuple[np.ndarray, np.ndarray]] = {
    "phi+": (_I2, _I2),
    "phi-": (_Z, _I2),
    "psi+": (_I2, _X),
    "psi-": (_Z, _X),
}


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


def two_bell() -> StateTensor:
    """Two Bell pairs over three parties, Clare holding one qubit of each.

    Clare's index is c = 2*c1 + c2, so the amplitudes sit at
    (a, b, 2a + b) with value 1/2: the generic 2x2x4 class representative.
    """
    return representative(ClassLabel.GEN224)


def _clare_branch(
    base: StateTensor, name: str, element: np.ndarray, recovery: tuple | None
) -> ProtocolOutcome:
    """Apply Clare's measurement element to ``base`` and classify the branch;
    ``recovery`` holds the factors of the branch's recovery, if any."""
    raw = apply_local(LocalOperation((_I2, _I2, element)), base)
    post = raw.normalize()
    label, _ = classify(post)
    if recovery is not None:
        recovery = LocalOperation(recovery)
    return ProtocolOutcome(name, raw.norm**2, post, label, recovery)


def _bell_branch(name: str, vector: np.ndarray) -> tuple:
    """Clare's Bell-measurement branch ``name``: its element and recovery factors."""
    return name, np.outer(vector, vector.conj()), (*_BELL_RECOVERY[name], _I4)


def entanglement_swap() -> list[ProtocolOutcome]:
    """Clare measures her two qubits in the Bell basis.

    Each of the four branches occurs with probability 1/4 and leaves Alice
    and Bob in the matching Bell pair (class B3, unit concurrence); the
    branch recovery rotates that pair to the canonical form.
    """
    base = two_bell()
    return [_clare_branch(base, *_bell_branch(*bell)) for bell in BELL_VECTORS]


#: Clare-side maps (4 -> 2 levels) steering the two-Bell state downward.
#: Rows are scaled so each map is a valid measurement element (operator
#: norm <= 1); the success probability is the squared norm it leaves.
_GHZ_ELEMENT = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex)
_GHZ_COMPLEMENT = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex)
_W_ELEMENT = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=complex) / _SQRT2


#: The two branches of the GHZ measurement: name, element, recovery factors.
_GHZ_BRANCHES = (
    ("ghz-direct", _GHZ_ELEMENT, None),
    ("ghz-flipped", _GHZ_COMPLEMENT, (_I2, _X, _I2)),
)

#: The reported branch of each distillation target: name, element, recovery.
_DISTILL_BRANCHES = {
    "GHZ": _GHZ_BRANCHES[0],
    "W": ("w-direct", _W_ELEMENT, None),
    "BELL_AB": _bell_branch(*BELL_VECTORS[0]),
}


def distill_ghz_branches() -> list[ProtocolOutcome]:
    """The complete two-outcome Clare measurement whose every branch is GHZ.

    Both branches succeed: the first lands on the canonical GHZ state, the
    second on a basis-flipped copy that Bob's bit flip recovers, so the
    two-Bell state creates the GHZ class with probability 1.
    """
    base = two_bell()
    return [_clare_branch(base, *branch) for branch in _GHZ_BRANCHES]


def distill_from_generic(target: ClassLabel | str) -> ProtocolOutcome:
    """One successful branch converting the two-Bell state into ``target``.

    Targets: GHZ (probability 1/2 for the reported branch; the complementary
    branch also lands in the GHZ class, see distill_ghz_branches), W
    (probability 3/8), or BELL_AB (one entanglement-swapping branch,
    probability 1/4, class B3). Only the reported branch is computed.
    """
    key = str(target).strip().upper().replace("-", "_")
    if key not in _DISTILL_BRANCHES:
        raise FormatError(f"unknown distillation target {target!r}")
    return _clare_branch(two_bell(), *_DISTILL_BRANCHES[key])
