"""Piecewise-polynomial observables and exact integration against measures."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import KernelValidationError, NonConstantTail, PointEscapesSpace, RangeViolation
from .measures import Measure
from .polynomials import Polynomial, polynomial_image
from .sets import Component, Partition, SetExpr, format_component

_NO_PIECE = {
    "atom": "{} is not in the phase space",
    "right_limit": "no piece contains a right neighborhood of {}",
    "left_limit": "no piece contains a left neighborhood of {}",
    "plus_infinity": "the phase space is bounded above",
    "minus_infinity": "the phase space is bounded below",
}


@dataclass(frozen=True)
class PiecewisePolyFunction:
    """A function given by one polynomial per piece; pieces partition the space.

    The pieces are kept in line order.  Boundedness on an unbounded space is
    the caller's contract: integrate() rejects non-constant tails when an
    infinity generator actually probes them.
    """

    space: SetExpr
    pieces: tuple[tuple[Component, Polynomial], ...]
    # raised when no piece holds a germ or a tail; a missing point always
    # raises PointEscapesSpace
    _no_germ_piece = PointEscapesSpace

    def __post_init__(self):
        partition = Partition(comp for comp, _ in self.pieces)
        overlap = partition.first_overlap()
        if overlap is not None:
            raise KernelValidationError(
                "PieceOverlap", f"pieces overlap at {format_component(overlap)}"
            )
        if partition.union() != self.space:
            raise KernelValidationError("PieceGap", "pieces must partition the space exactly")
        object.__setattr__(self, "pieces", tuple(self.pieces[i] for i in partition.order))
        object.__setattr__(self, "_partition", partition)

    @staticmethod
    def build(space: SetExpr, pieces: Iterable[tuple[Component, Polynomial]]) -> "PiecewisePolyFunction":
        return PiecewisePolyFunction(space, tuple(pieces))

    @staticmethod
    def constant(space: SetExpr, value) -> "PiecewisePolyFunction":
        poly = Polynomial.constant(value)
        return PiecewisePolyFunction(space, tuple((comp, poly) for comp in space.components))

    # -- pointwise and one-sided values --------------------------------------

    def piece(self, kind: str, x: Optional[Fraction] = None) -> tuple[Component, Polynomial]:
        """The piece holding the generator `kind` (a GeneratorKind value) at x."""
        i = self._partition.find(kind, x)
        if i is None:
            error = PointEscapesSpace if kind == "atom" else self._no_germ_piece
            raise error(_NO_PIECE[kind].format(x))
        return self.pieces[i]

    def _value(self, kind: str, x: Optional[Fraction] = None) -> Fraction:
        """Value, one-sided limit or (constant) tail value the generator reads."""
        comp, poly = self.piece(kind, x)
        if x is not None:
            return poly(x)
        if not poly.is_constant():
            raise NonConstantTail(f"non-constant tail {poly} on {format_component(comp)}")
        return poly(Fraction(0))

    def value_at(self, x: Fraction) -> Fraction:
        return self._value("atom", x)

    def right_limit_at(self, x: Fraction) -> Fraction:
        return self._value("right_limit", x)

    def left_limit_at(self, x: Fraction) -> Fraction:
        return self._value("left_limit", x)

    def plus_tail_value(self) -> Fraction:
        return self._value("plus_infinity")

    def minus_tail_value(self) -> Fraction:
        return self._value("minus_infinity")

    # -- exact range ----------------------------------------------------------

    def image(self, D: Optional[SetExpr] = None) -> SetExpr:
        """Exact image of D, the whole space by default: each piece
        polynomial's image over the piece's overlap with D."""
        comps = []
        for comp, poly in self.pieces:
            for sub in (comp,) if D is None else (SetExpr((comp,)) & D).components:
                comps.extend(polynomial_image(poly, sub))
        return SetExpr.from_components(comps)

    def check_range(self, lo, hi) -> None:
        """Exact check that lo <= f <= hi everywhere; raises RangeViolation."""
        bounds = SetExpr.interval(lo, hi, True, True)
        img = self.image()
        if not img.is_subset(bounds):
            raise RangeViolation(f"function range {img} leaves [{lo}, {hi}]")

    def __str__(self) -> str:
        return "; ".join(f"{format_component(comp)}: {poly}" for comp, poly in self.pieces)


def integrate(f: PiecewisePolyFunction, mu: Measure) -> Fraction:
    """Exact integral of f against the measure.

    Atoms read point values, germs read one-sided limits, infinity masses read
    constant tail values (NonConstantTail otherwise).
    """
    total = Fraction(0)
    for gen, coeff in mu.terms:
        total += coeff * f._value(gen.kind.value, gen.location)
    return total
