"""A map's kernel pushes each generator once: its stored images equal those
of a fresh kernel, failures are not stored, and the store neither changes the
kernel's value nor keeps it alive."""

import random
import weakref
from fractions import Fraction

import pytest

from measurecycles import (
    Cycle,
    DeterministicKernel,
    Generator,
    GeneratorKind,
    Interval,
    Measure,
    Polynomial,
    SetExpr,
    decompose_cycle,
    enumerate_cycles,
)
from measurecycles.errors import AmbiguousPiece, GermOutsideSpace, MeasureChainError, PointEscapesSpace
from support import conveyor_kernel

F = Fraction
LOCATED = [GeneratorKind.ATOM, GeneratorKind.RIGHT_LIMIT, GeneratorKind.LEFT_LIMIT]


def random_generator(rng, n):
    """A generator near or on the pieces [i, i + 1) of a conveyor on [0, n)."""
    kind = rng.choice(LOCATED + [GeneratorKind.PLUS_INFINITY])
    if kind is GeneratorKind.PLUS_INFINITY:
        return Generator(kind)
    x = F(rng.randint(-1, n)) if rng.random() < 0.4 else F(rng.randint(-4, 4 * n + 4), rng.randint(1, 4))
    return Generator(kind, x)


def push_or_error(kernel, gen):
    try:
        return kernel.push_generator(gen)
    except MeasureChainError as e:
        return type(e)


def test_pushes_after_pushing_equal_those_of_a_fresh_kernel():
    rng = random.Random(20)
    for _ in range(40):
        k = conveyor_kernel(rng, 6)
        gens = [random_generator(rng, len(k.pieces)) for _ in range(30)]
        first = [push_or_error(k, g) for g in gens]
        again = [push_or_error(k, g) for g in reversed(gens)][::-1]
        fresh = DeterministicKernel(k.space, k.pieces)
        assert fresh == k
        assert first == again == [push_or_error(fresh, g) for g in gens]
        assert any(isinstance(m, Measure) for m in first)


def five_piece_conveyor():
    """[i, i + 1) -> (i + 1) mod 5 + (x - i)/2 on [0, 5)."""
    pieces = tuple(
        (Interval(F(i), F(i + 1), True, False), Polynomial.of(F((i + 1) % 5) - F(i, 2), F(1, 2)))
        for i in range(5)
    )
    return DeterministicKernel(SetExpr.interval(0, 5, True, False), pieces)


@pytest.mark.parametrize(
    "gen, error",
    [
        (Generator(GeneratorKind.ATOM, F(5)), PointEscapesSpace),
        (Generator(GeneratorKind.ATOM, F(-1, 3)), PointEscapesSpace),
        (Generator(GeneratorKind.LEFT_LIMIT, F(0)), AmbiguousPiece),
        (Generator(GeneratorKind.PLUS_INFINITY), AmbiguousPiece),
    ],
)
def test_a_failing_push_raises_on_every_call_and_is_not_stored(gen, error):
    k = five_piece_conveyor()
    for _ in range(3):
        with pytest.raises(error):
            k.push_generator(gen)
    assert gen not in k._pushed


def test_an_image_germ_outside_the_space_raises_on_every_call_and_is_not_stored():
    # a validated kernel's germs always land in its space, so the space is
    # narrowed after construction to reach GermOutsideSpace
    k = five_piece_conveyor()
    object.__setattr__(k, "space", SetExpr.interval(0, 1, True, False))
    gen = Generator(GeneratorKind.RIGHT_LIMIT, F(1))
    for _ in range(3):
        with pytest.raises(GermOutsideSpace):
            k.push_generator(gen)
    assert gen not in k._pushed
    assert k.push_generator(Generator(GeneratorKind.RIGHT_LIMIT, F(4))) == Measure.right_germ(0)


def test_pushes_change_neither_equality_hash_nor_text():
    k, fresh = five_piece_conveyor(), five_piece_conveyor()
    before = (hash(k), str(k), repr(k))
    enumerate_cycles(k, 5)
    assert k._pushed
    assert k == fresh and (hash(k), str(k), repr(k)) == before == (hash(fresh), str(fresh), repr(fresh))


def test_a_kernel_that_has_pushed_is_freed_by_del():
    k = five_piece_conveyor()
    enumerate_cycles(k, 5)
    assert k._pushed
    ref = weakref.ref(k)
    del k
    assert ref() is None


def test_each_atom_is_mapped_once_per_kernel(monkeypatch):
    calls = []
    map_point = DeterministicKernel.map_point
    monkeypatch.setattr(DeterministicKernel, "map_point", lambda self, x: calls.append(x) or map_point(self, x))
    k = five_piece_conveyor()
    cycles = enumerate_cycles(k, 5)
    mixed = Cycle(k, tuple(Measure.dirac(i, F(2, 3)) + Measure.right_germ(i, F(1, 3)) for i in range(5)))
    split = decompose_cycle(mixed)
    assert [c.coords for c in cycles] == [split.ca.normalize().coords, split.pfa.normalize().coords]
    assert calls and len(calls) == len(set(calls))
