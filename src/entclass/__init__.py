"""entclass: SLOCC classification and entanglement invariants for 2x2xn pure states.

A pure state of two qubits plus one n-level system falls into one of nine
classes under stochastic local operations; this package computes the full
invariant suite that separates them (local ranks, the rank of the magic-basis
bilinear form, the 2x2x2 and 2x2x3 hyperdeterminants, concurrence and the
three-tangle), classifies states, exposes the five-graded conversion order
with executable witnesses, verifies the averaged-measure inequality by
seeded measurement trials, and replays entanglement swapping and
distillation protocols through the classifier.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .classify import (
    PartialOrder,
    classify,
    grade,
    hasse_edges,
    partial_order,
    reachable,
    witness_chain,
    witness_map,
)
from .errors import (
    AmbiguityError,
    AnnihilationError,
    EntclassError,
    FormatError,
    NormalizationError,
    NumericalInstabilityError,
    ProofChainError,
    StateFileError,
    ZeroStateError,
)
from .invariants import (
    BILINEAR_SIGN,
    KNOWN_STABILIZER_DIMS,
    MAGIC_BASIS,
    SPIN_FLIP,
    CkwReport,
    DimensionCount,
    InvariantReport,
    ckw_residual,
    concurrence,
    det222,
    det223,
    invariant_report,
    nonlocal_dimension,
    three_tangle,
)
from .labels import ClassLabel
from .monotone import (
    MEASURES,
    AmgmBounds,
    MonotoneBatch,
    MonotoneCheck,
    MonteCarloSummary,
    Outcome,
    PovmPair,
    amgm_bound_report,
    apply_povm,
    check_monotone,
    equality_case_povm,
    monotone_batch,
    monotone_trial,
    monte_carlo,
    random_povm_pair,
)
from .numerics import (
    DEFAULT_POLICY,
    RandomSource,
    TolerancePolicy,
    random_sl,
    random_state,
    random_unitary,
)
from .protocols import (
    BELL_VECTORS,
    ProtocolOutcome,
    distill_from_generic,
    distill_ghz_branches,
    entanglement_swap,
    two_bell,
)
from .tensor import (
    MAX_LEVELS,
    DensityMatrix,
    LocalOperation,
    StateTensor,
    apply_local,
    make_state,
    reduced_density,
    reduced_density_pair,
    representative,
)

#: Every public name imported above; submodules are not exports.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
