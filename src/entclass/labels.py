"""The nine SLOCC classes of 2x2xn pure states.

Each label is one row: its stable serialized name (the enum value), the
local-rank signature of its members, and its grade in the conversion partial
order (1 = separable bottom, 5 = generic 2x2x4 top). The biseparable label
Bi is the class in which party i is unentangled from the remaining
(entangled) pair, so B3 has Clare separable and signature (2, 2, 1).
"""

from __future__ import annotations

import enum


class ClassLabel(enum.Enum):
    SEP = "separable", (1, 1, 1), 1
    B1 = "B1", (1, 2, 2), 2
    B2 = "B2", (2, 1, 2), 2
    B3 = "B3", (2, 2, 1), 2
    W = "W", (2, 2, 2), 3
    GHZ = "GHZ", (2, 2, 2), 3
    C223_DEG = "223-degenerate", (2, 2, 3), 4
    C223_GEN = "223-generic", (2, 2, 3), 4
    GEN224 = "224-generic", (2, 2, 4), 5

    def __new__(cls, name: str, rank_signature: tuple[int, int, int], grade: int):
        label = object.__new__(cls)
        label._value_ = name
        label.rank_signature = rank_signature
        label.grade = grade
        return label

    @property
    def display_name(self) -> str:
        return self.value

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

