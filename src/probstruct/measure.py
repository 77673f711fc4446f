"""Exact finite probability spaces over named worlds.

Worlds are named points; sets of worlds are bitmasks.  A measure is given by
rational weights on the blocks of a basis partition and extends additively to
every union of blocks.  Sets outside that algebra are *not measurable* (a
distinct condition from having inner measure 0), and ``inner_measure``
provides the standard approximation from below.

All values are ``fractions.Fraction``; nothing is ever rounded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import NotMeasurableError, ValidationError

MAX_WORLDS = 64

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RATIONAL_RE = re.compile(r"-?\d+(?:/[1-9]\d*)?\Z")

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: an integer or ``p/q`` with positive ``q``."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValidationError(f"invalid rational literal {text!r}")
    try:
        return Fraction(text)
    except ValueError:  # past the interpreter's limit on digits per integer
        raise ValidationError(f"rational literal too long ({len(text)} characters)") from None


def format_rational(value: Fraction) -> str:
    """Canonical text for a rational: lowest terms, ``p/q`` or an integer."""
    return str(Fraction(value))


@dataclass(frozen=True)
class SampleSpace:
    """An ordered, finite set of distinct world names."""

    worlds: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "worlds", tuple(self.worlds))
        if not 1 <= len(self.worlds) <= MAX_WORLDS:
            raise ValidationError(
                f"a sample space needs between 1 and {MAX_WORLDS} worlds, "
                f"got {len(self.worlds)}"
            )
        seen = set()
        for name in self.worlds:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ValidationError(f"invalid world name {name!r}")
            if name in seen:
                raise ValidationError(f"duplicate world name {name!r}")
            seen.add(name)

    @property
    def size(self) -> int:
        return len(self.worlds)

    @property
    def full_bits(self) -> int:
        return (1 << len(self.worlds)) - 1

    def index(self, name: str) -> int:
        try:
            return self.worlds.index(name)
        except ValueError:
            raise ValidationError(f"unknown world name {name!r}") from None

    def subset(self, names: Iterable[str]) -> WorldSet:
        bits = 0
        for name in names:
            bits |= 1 << self.index(name)
        return WorldSet(self, bits)

    def everything(self) -> WorldSet:
        return WorldSet(self, self.full_bits)

    def nothing(self) -> WorldSet:
        return WorldSet(self, 0)


@dataclass(frozen=True)
class WorldSet:
    """A subset of a sample space, stored as a bitmask in world order."""

    space: SampleSpace
    bits: int

    def __post_init__(self):
        if not isinstance(self.bits, int) or not 0 <= self.bits <= self.space.full_bits:
            raise ValidationError(f"world bitmask {self.bits!r} out of range")

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def names(self) -> tuple[str, ...]:
        return tuple(
            name for i, name in enumerate(self.space.worlds) if (self.bits >> i) & 1
        )

    def issubset(self, other: WorldSet) -> bool:
        _check_space(self, other)
        return self.bits & ~other.bits == 0

    def __invert__(self) -> WorldSet:
        return WorldSet(self.space, self.space.full_bits ^ self.bits)

    def __and__(self, other: WorldSet) -> WorldSet:
        _check_space(self, other)
        return WorldSet(self.space, self.bits & other.bits)

    def __or__(self, other: WorldSet) -> WorldSet:
        _check_space(self, other)
        return WorldSet(self.space, self.bits | other.bits)

    def __str__(self) -> str:
        return "{" + ", ".join(self.names()) + "}"


def _check_space(a, b) -> None:
    if a.space != b.space:
        raise ValidationError("world sets belong to different sample spaces")


@dataclass(frozen=True)
class SetAlgebra:
    """A finite algebra of world sets, held by its basis partition.

    Members are exactly the unions of basis blocks.
    """

    space: SampleSpace
    basis: tuple[WorldSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        covered = 0
        for block in self.basis:
            if block.space != self.space:
                raise ValidationError("basis block belongs to a different sample space")
            if block.is_empty:
                raise ValidationError("basis blocks must be nonempty")
            if covered & block.bits:
                raise ValidationError(f"basis blocks overlap: {block} intersects earlier blocks")
            covered |= block.bits
        if covered != self.space.full_bits:
            raise ValidationError("basis blocks do not cover every world")

    def member(self, x: WorldSet) -> bool:
        _check_space(self, x)
        covered = 0
        for block in self.basis:
            if block.bits & ~x.bits == 0:
                covered |= block.bits
        return covered == x.bits


def discrete_algebra(space: SampleSpace) -> SetAlgebra:
    """The algebra of all subsets: basis blocks are the singletons."""
    return SetAlgebra(space, tuple(WorldSet(space, 1 << i) for i in range(space.size)))


@dataclass(frozen=True)
class MeasureFn:
    """Rational weights on the blocks of a basis, in basis order.

    Whether the weights are nonnegative and sum to 1 is checked by
    ``structures.validate`` rather than here, so that hand-written documents
    surface as validation reports instead of construction failures.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))


@dataclass(frozen=True)
class ProbabilitySpace:
    """A sample space, an algebra of measurable sets, and a measure."""

    space: SampleSpace
    algebra: SetAlgebra
    mu: MeasureFn

    def __post_init__(self):
        if self.algebra.space != self.space:
            raise ValidationError("algebra is over a different sample space")
        if len(self.mu.weights) != len(self.algebra.basis):
            raise ValidationError(
                f"measure has {len(self.mu.weights)} weights for "
                f"{len(self.algebra.basis)} basis blocks"
            )


def _covered(ps: ProbabilitySpace, x: WorldSet) -> tuple[int, Fraction]:
    """The union of the basis blocks inside ``x``, and their total weight."""
    _check_space(ps.algebra, x)
    covered = 0
    total = ZERO
    for block, w in zip(ps.algebra.basis, ps.mu.weights):
        if block.bits & ~x.bits == 0:
            covered |= block.bits
            total += w
    return covered, total


def measure(ps: ProbabilitySpace, x: WorldSet) -> Fraction:
    """Measure of ``x``; raises NotMeasurableError if ``x`` is not a member."""
    covered, total = _covered(ps, x)
    if covered != x.bits:
        raise NotMeasurableError(f"{x} is not measurable")
    return total


def inner_measure(ps: ProbabilitySpace, a: WorldSet) -> Fraction:
    """Measure of the largest member contained in ``a``.

    Defined for every subset of the sample space; equals ``measure`` on
    members.
    """
    return _covered(ps, a)[1]
