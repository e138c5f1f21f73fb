"""Finitely additive measures spanned by atoms, one-sided germs, and masses at infinity.

A measure here is a finite rational combination of five unit generators:

* ``atom(x)``           is the countably additive point mass at x;
* ``right_limit(x)``    is unit mass "just right of x": E gets 1 iff E contains
  some (x, x+eps);
* ``left_limit(x)``     is the mirror germ on (x-eps, x);
* ``plus_infinity``     is unit mass beyond every bound: 1 iff E contains some
  (a, +inf);
* ``minus_infinity``    is the mirror at the other end.

Atoms are the countably additive part; everything else is purely finitely
additive.  Distinct generators are pairwise singular, which is what makes the
lattice operations coefficientwise.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .rationals import format_rational, parse_rational
from .sets import Interval, Point, SetExpr


class GeneratorKind(Enum):
    ATOM = "atom"
    RIGHT_LIMIT = "right_limit"
    LEFT_LIMIT = "left_limit"
    PLUS_INFINITY = "plus_infinity"
    MINUS_INFINITY = "minus_infinity"

    @property
    def rank(self) -> int:
        return _KIND_RANK[self]

    @property
    def has_location(self) -> bool:
        return self in (
            GeneratorKind.ATOM,
            GeneratorKind.RIGHT_LIMIT,
            GeneratorKind.LEFT_LIMIT,
        )

    @property
    def is_countably_additive(self) -> bool:
        return self is GeneratorKind.ATOM


_KIND_RANK = {
    GeneratorKind.ATOM: 0,
    GeneratorKind.RIGHT_LIMIT: 1,
    GeneratorKind.LEFT_LIMIT: 2,
    GeneratorKind.PLUS_INFINITY: 3,
    GeneratorKind.MINUS_INFINITY: 4,
}


@dataclass(frozen=True)
class Generator:
    kind: GeneratorKind
    location: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind.has_location:
            if self.location is None:
                raise ValueError(f"{self.kind.value} needs a location")
        elif self.location is not None:
            raise ValueError(f"{self.kind.value} carries no location")

    def sort_key(self):
        loc = self.location if self.location is not None else Fraction(0)
        return (self.kind.rank, loc)

    def indicator(self, E: SetExpr) -> Fraction:
        """Unit-generator value on the set: always exactly 0 or 1."""
        return Fraction(1) if E.contains(self.kind.value, self.location) else Fraction(0)

    def __str__(self) -> str:
        if self.kind.has_location:
            return f"{self.kind.value}({format_rational(self.location)})"
        return self.kind.value


def _atom(x) -> Generator:
    return Generator(GeneratorKind.ATOM, parse_rational(x))


def _right(x) -> Generator:
    return Generator(GeneratorKind.RIGHT_LIMIT, parse_rational(x))


def _left(x) -> Generator:
    return Generator(GeneratorKind.LEFT_LIMIT, parse_rational(x))


@dataclass(frozen=True)
class Measure:
    """Canonical form: terms sorted by generator, zero coefficients dropped."""

    terms: tuple[tuple[Generator, Fraction], ...] = ()

    # Searches hash a measure at every dict or set lookup, and each
    # Fraction.__hash__ costs a modular inverse: hash once.  Pickles leave the
    # cache out, since enum hashes differ between processes.
    @cached_property
    def _hash(self) -> int:
        return hash(self.terms)

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {"terms": self.terms}

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Generator, Fraction]]) -> "Measure":
        acc: dict[Generator, Fraction] = {}
        for gen, coeff in pairs:
            acc[gen] = acc.get(gen, Fraction(0)) + coeff
        terms = tuple(
            (g, c) for g, c in sorted(acc.items(), key=lambda t: t[0].sort_key()) if c != 0
        )
        return Measure(terms)

    @staticmethod
    def zero() -> "Measure":
        return Measure(())

    @staticmethod
    def dirac(x, coeff=1) -> "Measure":
        return Measure.from_terms([(_atom(x), parse_rational(coeff))])

    @staticmethod
    def right_germ(x, coeff=1) -> "Measure":
        return Measure.from_terms([(_right(x), parse_rational(coeff))])

    @staticmethod
    def left_germ(x, coeff=1) -> "Measure":
        return Measure.from_terms([(_left(x), parse_rational(coeff))])

    @staticmethod
    def at_plus_infinity(coeff=1) -> "Measure":
        return Measure.from_terms([(Generator(GeneratorKind.PLUS_INFINITY), parse_rational(coeff))])

    @staticmethod
    def at_minus_infinity(coeff=1) -> "Measure":
        return Measure.from_terms([(Generator(GeneratorKind.MINUS_INFINITY), parse_rational(coeff))])

    # -- basic structure ----------------------------------------------------

    def coefficient(self, gen: Generator) -> Fraction:
        for g, c in self.terms:
            if g == gen:
                return c
        return Fraction(0)

    def generators(self) -> tuple[Generator, ...]:
        return tuple(g for g, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_nonnegative(self) -> bool:
        return all(c > 0 for _, c in self.terms)

    def is_probability(self) -> bool:
        return self.is_nonnegative() and self.total_mass() == 1

    def is_purely_atomic(self) -> bool:
        return all(g.kind is GeneratorKind.ATOM for g, _ in self.terms)

    def atom_support(self) -> list[Fraction]:
        return [g.location for g, _ in self.terms if g.kind is GeneratorKind.ATOM]

    # -- evaluation and size -------------------------------------------------

    def evaluate(self, E: SetExpr) -> Fraction:
        return sum((c * g.indicator(E) for g, c in self.terms), Fraction(0))

    def total_mass(self) -> Fraction:
        return sum((c for _, c in self.terms), Fraction(0))

    def norm(self) -> Fraction:
        """Total variation: sum of absolute coefficients (generators are singular)."""
        return sum((abs(c) for _, c in self.terms), Fraction(0))

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "Measure") -> "Measure":
        return Measure.from_terms(list(self.terms) + list(other.terms))

    def __neg__(self) -> "Measure":
        return Measure(tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other: "Measure") -> "Measure":
        return self + (-other)

    def __mul__(self, scalar) -> "Measure":
        s = parse_rational(scalar)
        if s == 0:
            return Measure.zero()
        return Measure(tuple((g, c * s) for g, c in self.terms))

    __rmul__ = __mul__

    def normalize(self) -> "Measure":
        if self.is_zero():
            raise ValueError("cannot normalize the zero measure")
        if not self.is_nonnegative():
            raise ValueError("normalize expects a nonnegative measure")
        return self * (1 / self.norm())

    # -- decompositions --------------------------------------------------------

    def split(self) -> tuple["Measure", "Measure"]:
        """(countably additive part, purely finitely additive part)."""
        ca = tuple((g, c) for g, c in self.terms if g.kind.is_countably_additive)
        pfa = tuple((g, c) for g, c in self.terms if not g.kind.is_countably_additive)
        return Measure(ca), Measure(pfa)

    def jordan(self) -> tuple["Measure", "Measure"]:
        """(positive part, negative part), coefficientwise."""
        pos = tuple((g, c) for g, c in self.terms if c > 0)
        neg = tuple((g, -c) for g, c in self.terms if c < 0)
        return Measure(pos), Measure(neg)

    def restrict(self, E: SetExpr) -> "Measure":
        """Restriction mu(E ∩ ·): keeps the generators living inside E."""
        return Measure(tuple((g, c) for g, c in self.terms if g.indicator(E) == 1))

    # -- serialization ----------------------------------------------------------

    def to_json_obj(self) -> dict:
        terms = []
        for g, c in self.terms:
            item = {"kind": g.kind.value}
            if g.location is not None:
                item["location"] = format_rational(g.location)
            item["coefficient"] = format_rational(c)
            terms.append(item)
        return {"terms": terms}

    @staticmethod
    def from_json_obj(obj) -> "Measure":
        if not isinstance(obj, dict) or "terms" not in obj or not isinstance(obj["terms"], list):
            raise ValueError(f"measure must be an object with a 'terms' list: {obj!r}")
        pairs = []
        for item in obj["terms"]:
            if not isinstance(item, dict) or "kind" not in item or "coefficient" not in item:
                raise ValueError(f"measure term needs 'kind' and 'coefficient': {item!r}")
            try:
                kind = GeneratorKind(item["kind"])
            except ValueError:
                raise ValueError(f"unknown generator kind: {item['kind']!r}") from None
            location = None
            if kind.has_location:
                if "location" not in item:
                    raise ValueError(f"{kind.value} term needs a location: {item!r}")
                location = parse_rational(item["location"])
            elif "location" in item:
                raise ValueError(f"{kind.value} term carries no location: {item!r}")
            pairs.append((Generator(kind, location), parse_rational(item["coefficient"])))
        return Measure.from_terms(pairs)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{format_rational(c)}*{g}" for g, c in self.terms)


# -- lattice structure ------------------------------------------------------


def _require_nonnegative(*measures: Measure) -> None:
    for m in measures:
        if not m.is_nonnegative():
            raise ValueError(
                "lattice operations expect nonnegative measures; split signed input "
                "with jordan() first"
            )


def meet(a: Measure, b: Measure) -> Measure:
    """Greatest lower bound; coefficientwise minimum over the generator basis."""
    _require_nonnegative(a, b)
    shared = [g for g, _ in a.terms if b.coefficient(g) != 0]
    return Measure.from_terms((g, min(a.coefficient(g), b.coefficient(g))) for g in shared)


def join(a: Measure, b: Measure) -> Measure:
    """Least upper bound: a + b - meet(a, b), i.e. the coefficientwise maximum."""
    _require_nonnegative(a, b)
    gens = {g for g, _ in a.terms} | {g for g, _ in b.terms}
    return Measure.from_terms((g, max(a.coefficient(g), b.coefficient(g))) for g in gens)


def is_disjoint(a: Measure, b: Measure) -> bool:
    """meet == 0: no shared generator."""
    _require_nonnegative(a, b)
    return meet(a, b).is_zero()


def _finite_locations(*measures: Measure) -> list[Fraction]:
    locs = {
        g.location for m in measures for g, _ in m.terms if g.location is not None
    }
    return sorted(locs)


def _witness_radius(locations: list[Fraction]) -> Fraction:
    if len(locations) < 2:
        return Fraction(1)
    gap = min(b - a for a, b in zip(locations, locations[1:]))
    return gap / 3


def _carrier(gen: Generator, radius: Fraction, lo_bound: Fraction, hi_bound: Fraction):
    kind = gen.kind
    if kind is GeneratorKind.ATOM:
        return Point(gen.location)
    if kind is GeneratorKind.RIGHT_LIMIT:
        return Interval(gen.location, gen.location + radius)
    if kind is GeneratorKind.LEFT_LIMIT:
        return Interval(gen.location - radius, gen.location)
    if kind is GeneratorKind.PLUS_INFINITY:
        return Interval(hi_bound, None)
    return Interval(None, lo_bound)


def is_singular(a: Measure, b: Measure) -> tuple[bool, Optional[tuple[SetExpr, SetExpr]]]:
    """Disjointness certificate: (True, (D_a, D_b)) with D_a ∩ D_b = ∅,
    mu_a(D_a) = ||mu_a|| and mu_b(D_b) = ||mu_b||, or (False, None).

    The carrier radius is a third of the minimum gap between distinct finite
    generator locations (1 when fewer than two locations exist).
    """
    _require_nonnegative(a, b)
    if not is_disjoint(a, b):
        return False, None
    locations = _finite_locations(a, b)
    radius = _witness_radius(locations)
    lo_bound = (locations[0] if locations else Fraction(0)) - radius - 1
    hi_bound = (locations[-1] if locations else Fraction(0)) + radius + 1
    witness_a = SetExpr.from_components(
        _carrier(g, radius, lo_bound, hi_bound) for g, _ in a.terms
    )
    witness_b = SetExpr.from_components(
        _carrier(g, radius, lo_bound, hi_bound) for g, _ in b.terms
    )
    return True, (witness_a, witness_b)
