"""Exact cycles of finitely additive measures for Markov chains on the line.

Measures are rational combinations of five generator kinds: atoms, one-sided
limit germs, and masses at plus/minus infinity.  Markov kernels (finite
stochastic matrices or piecewise polynomial maps) push these measures forward
and pull piecewise polynomial functions back, all in exact rational
arithmetic.  On top sit cycles of measures, their classification and
decomposition, the cyclic-subclass structure of finite chains, and the
correspondence between cycles of sets and cycles of measures.
"""

from .chainspec import ChainSpec, Diagnostic, bundled_chain_names, load, load_bundled, loads
from .cycles import (
    Cycle,
    CycleKind,
    DecomposedCycle,
    canonical_rotation,
    canonical_seeds,
    classify_cycle,
    cycle_equal,
    cycle_sum,
    decompose_cycle,
    enumerate_cycles,
    find_cycle_from,
    linearly_independent,
    measure_rank,
    verify_cycle,
)
from .errors import (
    AmbiguousPiece,
    GermOutsideSpace,
    InvariantViolation,
    IrrationalBreakpointPreimage,
    IrrationalCriticalPoint,
    IrrationalRootBoundary,
    KernelValidationError,
    MeasureChainError,
    NoRepresentableInvariant,
    NonAtomicGenerator,
    NonConstantTail,
    NotACycle,
    NotCountablyAdditive,
    NotDisjoint,
    NotFiniteChain,
    NotSingular,
    PeriodMismatch,
    PointEscapesSpace,
    RangeViolation,
    SpecValidationError,
)
from .functions import PiecewisePolyFunction, integrate
from .kernels import DeterministicKernel, Kernel, StochasticKernel
from .measures import (
    Generator,
    GeneratorKind,
    Measure,
    is_disjoint,
    is_singular,
    join,
    meet,
)
from .polynomials import Polynomial
from .rationals import decimal_string, format_rational, parse_rational
from .sets import Interval, Point, SetExpr
from .state_cycles import (
    RecurrentClassInfo,
    StateCycle,
    UnitIntegralReport,
    find_cyclic_classes,
    measures_from_state_cycle,
    state_cycle_equal,
    state_cycle_from_measures,
    transient_states,
    unit_integral_check,
    verify_state_cycle,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousPiece",
    "ChainSpec",
    "Cycle",
    "CycleKind",
    "DecomposedCycle",
    "DeterministicKernel",
    "Diagnostic",
    "Generator",
    "GeneratorKind",
    "GermOutsideSpace",
    "Interval",
    "InvariantViolation",
    "IrrationalBreakpointPreimage",
    "IrrationalCriticalPoint",
    "IrrationalRootBoundary",
    "Kernel",
    "KernelValidationError",
    "Measure",
    "MeasureChainError",
    "NoRepresentableInvariant",
    "NonAtomicGenerator",
    "NonConstantTail",
    "NotACycle",
    "NotCountablyAdditive",
    "NotDisjoint",
    "NotFiniteChain",
    "NotSingular",
    "PeriodMismatch",
    "PiecewisePolyFunction",
    "Point",
    "PointEscapesSpace",
    "Polynomial",
    "RangeViolation",
    "RecurrentClassInfo",
    "SetExpr",
    "SpecValidationError",
    "StateCycle",
    "StochasticKernel",
    "UnitIntegralReport",
    "bundled_chain_names",
    "canonical_rotation",
    "canonical_seeds",
    "classify_cycle",
    "cycle_equal",
    "cycle_sum",
    "decimal_string",
    "decompose_cycle",
    "enumerate_cycles",
    "find_cycle_from",
    "find_cyclic_classes",
    "format_rational",
    "integrate",
    "is_disjoint",
    "is_singular",
    "join",
    "linearly_independent",
    "load",
    "load_bundled",
    "loads",
    "measure_rank",
    "measures_from_state_cycle",
    "meet",
    "parse_rational",
    "state_cycle_equal",
    "state_cycle_from_measures",
    "transient_states",
    "unit_integral_check",
    "verify_cycle",
    "verify_state_cycle",
    "__version__",
]
