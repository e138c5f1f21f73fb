"""Exception types shared across the package."""

from __future__ import annotations


class MeasureChainError(Exception):
    """Base class for all package-specific errors."""


class PointEscapesSpace(MeasureChainError):
    """A point transition source or target is not covered by the phase space."""


class GermOutsideSpace(MeasureChainError):
    """An image germ would sit where the phase space has no one-sided neighborhood."""


class AmbiguousPiece(MeasureChainError):
    """No single kernel piece contains the one-sided neighborhood of a germ."""


class NonAtomicGenerator(MeasureChainError):
    """Finite stochastic kernels act on atomic measures only."""


class IrrationalCriticalPoint(MeasureChainError):
    """A piece polynomial has an irrational critical point inside the piece."""


class IrrationalBreakpointPreimage(MeasureChainError):
    """A breakpoint preimage under a kernel polynomial is irrational."""


class IrrationalRootBoundary(MeasureChainError):
    """The boundary of {f = 1} contains an irrational point."""


class NonConstantTail(MeasureChainError):
    """An infinity generator was integrated against a non-constant tail."""


class RangeViolation(MeasureChainError):
    """A function leaves the range required by the operation."""


class PeriodMismatch(MeasureChainError):
    """Cycle arithmetic requires equal periods."""


class NotACycle(MeasureChainError):
    """The given measures are not cyclically permuted by the kernel."""


class InvariantViolation(MeasureChainError):
    """An internal theorem-backed invariant failed; indicates a bug."""


class NotFiniteChain(MeasureChainError):
    """The operation is defined for finite stochastic kernels only."""


class KernelValidationError(MeasureChainError, ValueError):
    """Construction-time problem with a kernel or a piecewise function, tagged
    with a diagnostic code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


class NoRepresentableInvariant(MeasureChainError):
    """No listed cycle, nor a returning boundary germ or atom, starts in the first set."""


class NotSingular(MeasureChainError):
    """The state cycle's sets are not pairwise disjoint."""


class NotCountablyAdditive(MeasureChainError):
    """The operation requires purely atomic coordinates."""


class NotDisjoint(MeasureChainError):
    """The operation requires pairwise disjoint measures."""


class SpecValidationError(MeasureChainError):
    """A chain spec file failed structural validation."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(f"{d.code} at {d.where}: {d.message}" for d in self.diagnostics)
        super().__init__(lines or "invalid chain spec")
