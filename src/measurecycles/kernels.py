"""Markov transition kernels and their action on measures and observables.

Two kernel variants share one interface:

* ``DeterministicKernel``: a piecewise-polynomial self-map of the phase
  space, so a ``PiecewisePolyFunction`` whose pieces partition the space; each
  piece polynomial's exact image must stay inside the space (so every point
  genuinely transitions).
* ``StochasticKernel``: a finite chain, rational states with a row-stochastic
  rational matrix.

``push_measure`` is the pushforward on measures (one body for both, summing
the images ``push_generator`` gives), ``transition_prob`` a pushed atom read
on a set, ``pull_function`` the composition action on observables;
``integrate(pull_function(f), mu) == integrate(f, push_measure(mu))`` holds
exactly.

A map pushes each generator once: ``DeterministicKernel.push_generator``
keeps its images in a dict that lives and dies with the kernel instance.  The
kernel is frozen, so a stored image is what a recomputation would give; a
push that raises is not stored, and raises again on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    AmbiguousPiece,
    GermOutsideSpace,
    IrrationalBreakpointPreimage,
    KernelValidationError,
    NonAtomicGenerator,
    PointEscapesSpace,
)
from .functions import PiecewisePolyFunction
from .measures import Generator, GeneratorKind, Measure
from .polynomials import (
    Polynomial,
    _first_nonzero_derivative,
    _interior_probe,
    _sign_at_infinity,
    interior_rational_roots,
    polynomial_image,
    split_interval,
)
from .sets import Component, Point, SetExpr, format_component


def _push_measure(kernel: Kernel, mu: Measure) -> Measure:
    """Pushforward of a measure: one pass over its generators' images, or
    the one image itself when mu is a unit generator."""
    if len(mu.terms) == 1 and mu.terms[0][1] == 1:
        return kernel.push_generator(mu.terms[0][0])
    return Measure.from_terms(
        (g, coeff * c) for gen, coeff in mu.terms for g, c in kernel.push_generator(gen).terms
    )


def _transition_prob(kernel: Kernel, x: Fraction, E: SetExpr) -> Fraction:
    """p(x, E) = (delta_x P)(E), the pushed atom read on E; PointEscapesSpace
    when x is not a point of the space (on a finite chain, not a state)."""
    return kernel.push_generator(Generator(GeneratorKind.ATOM, x)).evaluate(E)


_ONE = Fraction(1)


def _unit(kind: GeneratorKind, location: Optional[Fraction] = None) -> Measure:
    """The measure 1*kind(location), already in canonical form."""
    return Measure(((Generator(kind, location), _ONE),))


@dataclass(frozen=True)
class DeterministicKernel(PiecewisePolyFunction):
    """A piecewise-polynomial self-map: a piecewise-polynomial function on its
    space whose pieces each map into the space."""

    _no_germ_piece = AmbiguousPiece

    def __post_init__(self):
        super().__post_init__()
        images = []
        for comp, poly in self.pieces:
            image = SetExpr.from_components(polynomial_image(poly, comp))
            if not image.is_subset(self.space):
                raise KernelValidationError(
                    "ImageOutsideSpace",
                    f"piece {format_component(comp)} maps onto {image}, which leaves the space",
                )
            images.append(image)
        object.__setattr__(self, "_images", tuple(images))
        object.__setattr__(self, "_pushed", {})

    # -- transitions ------------------------------------------------------------

    def map_point(self, x: Fraction) -> Fraction:
        _, poly = self.piece("atom", x)
        y = poly(x)
        if not self.space.contains_point(y):
            raise PointEscapesSpace(f"{x} maps to {y}, which is outside the space")
        return y

    def _germ(self, side: GeneratorKind, location: Fraction) -> Measure:
        if not self.space.contains(side.value, location):
            where = "right" if side is GeneratorKind.RIGHT_LIMIT else "left"
            raise GermOutsideSpace(f"no {where} neighborhood of {location} in the space")
        return _unit(side, location)

    def _push_finite_germ(self, gen: Generator) -> Measure:
        x = gen.location
        from_right = gen.kind is GeneratorKind.RIGHT_LIMIT
        _, poly = self.piece(gen.kind.value, x)
        limit = poly(x)
        if poly.is_constant():
            return _unit(GeneratorKind.ATOM, limit)
        order, value = _first_nonzero_derivative(poly, x)
        # Mass approaches from t = x + s (right germ) or t = x - s (left germ),
        # s -> 0+; the image sits on the side of poly(x) given by the sign of
        # the leading Taylor term.
        effective = value if from_right or order % 2 == 0 else -value
        side = GeneratorKind.RIGHT_LIMIT if effective > 0 else GeneratorKind.LEFT_LIMIT
        return self._germ(side, limit)

    def _push_infinity(self, gen: Generator) -> Measure:
        at_plus = gen.kind is GeneratorKind.PLUS_INFINITY
        _, poly = self.piece(gen.kind.value)
        if poly.is_constant():
            return _unit(GeneratorKind.ATOM, poly(Fraction(0)))
        if _sign_at_infinity(poly, at_plus) > 0:
            if not self.space.contains_plus_tail():
                raise GermOutsideSpace("the image escapes to +infinity outside the space")
            return _unit(GeneratorKind.PLUS_INFINITY)
        if not self.space.contains_minus_tail():
            raise GermOutsideSpace("the image escapes to -infinity outside the space")
        return _unit(GeneratorKind.MINUS_INFINITY)

    def push_generator(self, gen: Generator) -> Measure:
        pushed = self._pushed.get(gen)
        if pushed is None:
            pushed = self._pushed[gen] = self._push_generator(gen)
        return pushed

    def _push_generator(self, gen: Generator) -> Measure:
        kind = gen.kind
        if kind is GeneratorKind.ATOM:
            return _unit(kind, self.map_point(gen.location))
        if kind in (GeneratorKind.RIGHT_LIMIT, GeneratorKind.LEFT_LIMIT):
            return self._push_finite_germ(gen)
        return self._push_infinity(gen)

    push_measure = _push_measure
    transition_prob = _transition_prob

    # -- action on observables -----------------------------------------------------

    def _compose_on_piece(self, comp: Component, poly: Polynomial, image: SetExpr, f: PiecewisePolyFunction):
        if isinstance(comp, Point):
            yield comp, Polynomial.constant(f.value_at(poly(comp.value)))
            return
        cuts: set[Fraction] = set()
        # poly takes the value b inside comp only if b lies in the piece's
        # image, so a breakpoint outside it needs no root isolation: it can
        # give neither a cut nor an irrational preimage.
        for b in filter(image.contains_point, f._partition.cuts):
            shifted = poly - Polynomial.constant(b)
            if shifted.is_zero():
                continue  # poly identically b: no crossing to cut at
            what = f"breakpoint {b} has an irrational preimage"
            cuts.update(interior_rational_roots(shifted, comp, IrrationalBreakpointPreimage, what))
        points, gaps = split_interval(comp, sorted(cuts))
        for pt in points:
            yield pt, Polynomial.constant(f.value_at(poly(pt.value)))
        for gap in gaps:
            _, fpoly = f.piece("atom", poly(_interior_probe(gap)))
            yield gap, fpoly.compose(poly)

    def pull_function(self, f: PiecewisePolyFunction) -> PiecewisePolyFunction:
        pieces = []
        for (comp, poly), image in zip(self.pieces, self._images):
            pieces.extend(self._compose_on_piece(comp, poly, image, f))
        return PiecewisePolyFunction(self.space, tuple(pieces))


@dataclass(frozen=True)
class StochasticKernel:
    states: tuple[Fraction, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.states:
            raise KernelValidationError("NoStates", "a finite chain needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise KernelValidationError("DuplicateState", "states must be pairwise distinct")
        if len(self.matrix) != len(self.states):
            raise KernelValidationError(
                "MatrixShape", "the matrix needs one row per state"
            )
        for i, row in enumerate(self.matrix):
            if len(row) != len(self.states):
                raise KernelValidationError(
                    "MatrixShape", f"row {i} needs one entry per state"
                )
            if any(p < 0 or p > 1 for p in row):
                raise KernelValidationError(
                    "RowNotStochastic", f"row {i} has entries outside [0, 1]"
                )
            total = sum(row, Fraction(0))
            if total != 1:
                raise KernelValidationError(
                    "RowNotStochastic", f"row {i} sums to {total}, not 1"
                )

    @property
    def space(self) -> SetExpr:
        return SetExpr.from_components(Point(s) for s in self.states)

    def state_index(self, x: Fraction) -> int:
        try:
            return self.states.index(x)
        except ValueError:
            raise PointEscapesSpace(f"{x} is not a state") from None

    def image(self, D: SetExpr) -> SetExpr:
        """The states that the states of D reach in one step."""
        rows = (row for s, row in zip(self.states, self.matrix) if D.contains_point(s))
        return SetExpr.from_components(Point(t) for r in rows for t, p in zip(self.states, r) if p)

    def push_generator(self, gen: Generator) -> Measure:
        if gen.kind is not GeneratorKind.ATOM:
            raise NonAtomicGenerator(
                f"finite chains act on atoms only, got {gen.kind.value}"
            )
        row = self.matrix[self.state_index(gen.location)]
        return Measure.from_terms(
            (Generator(GeneratorKind.ATOM, s), p)
            for s, p in zip(self.states, row)
            if p != 0
        )

    push_measure = _push_measure
    transition_prob = _transition_prob

    def pull_function(self, f: PiecewisePolyFunction) -> PiecewisePolyFunction:
        values = {s: f.value_at(s) for s in self.states}
        pieces = []
        for s, row in zip(self.states, self.matrix):
            out = sum((p * values[t] for t, p in zip(self.states, row)), Fraction(0))
            pieces.append((Point(s), Polynomial.constant(out)))
        return PiecewisePolyFunction(self.space, tuple(pieces))


Kernel = DeterministicKernel | StochasticKernel
