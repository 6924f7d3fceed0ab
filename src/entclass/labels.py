"""The nine SLOCC classes of 2x2xn pure states.

Each label carries its stable serialized name, the local-rank signature of
its members, and its grade in the noninvertible-conversion partial order
(1 = separable bottom, 5 = generic 2x2x4 top). The biseparable label Bi is
the class in which party i is unentangled from the remaining (entangled)
pair, so B3 has Clare separable and signature (2, 2, 1).
"""

from __future__ import annotations

import enum


class ClassLabel(enum.Enum):
    SEP = "separable"
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    W = "W"
    GHZ = "GHZ"
    C223_DEG = "223-degenerate"
    C223_GEN = "223-generic"
    GEN224 = "224-generic"

    @property
    def display_name(self) -> str:
        return self.value

    @property
    def rank_signature(self) -> tuple[int, int, int]:
        return _SIGNATURES[self]

    @property
    def grade(self) -> int:
        return _GRADES[self]

    @property
    def min_clare_dim(self) -> int:
        """Smallest Clare dimension n for which the class is nonempty: the
        Clare rank r3 of its signature."""
        return self.rank_signature[2]

    @classmethod
    def parse(cls, text: str) -> "ClassLabel":
        """Accept either the enum name (GEN224) or the display name (224-generic)."""
        if isinstance(text, cls):
            return text
        key = str(text).strip()
        for label in cls:
            if key.upper() == label.name or key.lower() == label.value.lower():
                return label
        raise ValueError(f"unknown class label {text!r}")

    def __str__(self) -> str:
        return self.value


_SIGNATURES = {
    ClassLabel.SEP: (1, 1, 1),
    ClassLabel.B1: (1, 2, 2),
    ClassLabel.B2: (2, 1, 2),
    ClassLabel.B3: (2, 2, 1),
    ClassLabel.W: (2, 2, 2),
    ClassLabel.GHZ: (2, 2, 2),
    ClassLabel.C223_DEG: (2, 2, 3),
    ClassLabel.C223_GEN: (2, 2, 3),
    ClassLabel.GEN224: (2, 2, 4),
}

_GRADES = {
    ClassLabel.SEP: 1,
    ClassLabel.B1: 2,
    ClassLabel.B2: 2,
    ClassLabel.B3: 2,
    ClassLabel.W: 3,
    ClassLabel.GHZ: 3,
    ClassLabel.C223_DEG: 4,
    ClassLabel.C223_GEN: 4,
    ClassLabel.GEN224: 5,
}
