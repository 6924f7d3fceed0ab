"""Exception types shared across the package."""


class EntclassError(Exception):
    """Base class for all package-specific errors."""


class FormatError(EntclassError, ValueError):
    """A tensor, matrix, or operation has the wrong dimensions for the call."""


class ZeroStateError(EntclassError, ValueError):
    """An all-zero amplitude set was supplied where a state is required."""


class AnnihilationError(ZeroStateError):
    """A local operation mapped the state to zero (a vanishing branch)."""


class NormalizationError(EntclassError, ValueError):
    """An operation requiring a unit-norm state received an unnormalized one."""


class NumericalInstabilityError(EntclassError, ArithmeticError):
    """Two independent computation routes for the same quantity disagree."""


class AmbiguityError(EntclassError):
    """A class-boundary decision float64 cannot resolve: ``quantity``'s ``distance``
    d lies in ``band`` = (zero floor, tolerance]. A local-rank signature no 2x2xn
    state has raises it too, with the smallest kept singular value as d."""

    def __init__(self, quantity, distance, band):
        self.quantity, self.distance, self.band = quantity, distance, tuple(band)
        super().__init__(
            f"unresolved decision on {quantity}: distance {distance:.3g}, "
            f"unresolved band ({self.band[0]:.3g}, {self.band[1]:.3g}]"
        )


class ProofChainError(EntclassError, ArithmeticError):
    """A step of the averaged-measure inequality chain failed beyond tolerance."""


class StateFileError(EntclassError, ValueError):
    """A state file could not be parsed; the message carries field context."""
