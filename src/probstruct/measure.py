"""Exact finite probability spaces over named worlds.

Worlds are named points; sets of worlds are bitmasks.  A measure is given by
rational weights on the blocks of a basis partition and extends additively to
every union of blocks.  Sets outside that algebra are *not measurable* (a
distinct condition from having inner measure 0), and ``inner_measure``
provides the standard approximation from below.

Weights are kept as integers over one denominator and answers are
``fractions.Fraction``: nothing is ever rounded.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

from .errors import NotMeasurableError, ValidationError
from .value import Partition, Value, as_tuple, check_names, require_type, set_bits, setfield

MAX_WORLDS = 64

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?\Z", re.ASCII)  # int() reads any Unicode digit

ZERO = Fraction(0)
ONE = Fraction(1)


def _ratio(text: str) -> tuple[int, int]:
    """A rational literal's numerator and positive denominator, in lowest terms."""
    match = _RATIONAL_RE.match(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValidationError(f"invalid rational literal {text!r}")
    try:
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError:  # past the interpreter's limit on digits per integer
        raise ValidationError(f"rational literal too long ({len(text)} characters)") from None
    common = math.gcd(num, den)
    return num // common, den // common


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: an integer or ``p/q`` with positive ``q``, in ASCII digits."""
    return Fraction(*_ratio(text))


def format_rational(value: Fraction) -> str:
    """Canonical text for a rational: lowest terms, ``p/q`` or an integer."""
    value = as_fraction(value)
    return _ratio_text(value.numerator, value.denominator)


def _ratio_text(num: int, den: int) -> str:
    """The text of the reduced pair ``num/den``: ``p/q``, or an integer when ``den`` is 1."""
    try:
        return f"{num}/{den}" if den != 1 else str(num)
    except ValueError:  # an integer past the interpreter's limit on digits
        raise ValidationError("rational too long to write out (past the digit limit)") from None


def as_fraction(value) -> Fraction:
    """``value`` as a ``Fraction``; ``ValidationError`` if it is no rational."""
    if value.__class__ is Fraction:
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"not a rational number: {value!r}") from None


class SampleSpace(Value):
    """An ordered, finite set of distinct world names; ``full_bits`` is the
    bitmask of every world."""

    _fields = ("worlds",)
    __slots__ = _fields + ("full_bits", "_bits")

    def __init__(self, worlds: Iterable[str]):
        setfield(self, "worlds", check_names(worlds, MAX_WORLDS, "a sample space", "world"))
        setfield(self, "full_bits", (1 << len(self.worlds)) - 1)
        setfield(self, "_bits", {name: 1 << i for i, name in enumerate(self.worlds)})  # name -> bit

    @property
    def size(self) -> int:
        return len(self.worlds)

    def index(self, name: str) -> int:
        try:
            return self._bits[name].bit_length() - 1
        except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
            raise ValidationError(f"unknown world name {name!r}") from None

    def subset(self, names: Iterable[str]) -> WorldSet:
        bits = 0
        for name in as_tuple(names, "worlds"):
            bits |= 1 << self.index(name)
        return WorldSet(self, bits)

    def everything(self) -> WorldSet:
        return WorldSet(self, self.full_bits)

    def nothing(self) -> WorldSet:
        return WorldSet(self, 0)


class WorldSet(Value):
    """A subset of a sample space, stored as a bitmask in world order."""

    _fields = ("space", "bits")
    __slots__ = _fields

    def __init__(self, space: SampleSpace, bits: int):
        if not isinstance(space, SampleSpace):
            raise ValidationError(
                f"world set space must be SampleSpace, got {type(space).__name__}"
            )
        if not isinstance(bits, int) or not 0 <= bits <= space.full_bits:
            raise ValidationError(f"world bitmask {bits!r} out of range")
        setfield(self, "space", space)
        setfield(self, "bits", bits)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def names(self) -> tuple[str, ...]:
        """Names of the member worlds, in world order."""
        return tuple(map(self.space.worlds.__getitem__, set_bits(self.bits)))

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
    require_type(b, WorldSet, "world set")
    if a.space != b.space:
        raise ValidationError("world sets belong to different sample spaces")


class SetAlgebra(Partition):
    """A finite algebra of world sets, held by its basis partition.

    Members are exactly the unions of basis blocks.
    """

    _fields = ("space", "basis")
    __slots__ = ("space",)
    _element, _full, _check_element = WorldSet, attrgetter("full_bits"), staticmethod(_check_space)
    _noun, _overlap = "world", "basis blocks overlap: {} intersects earlier blocks"

    def __init__(self, space: SampleSpace, basis: Iterable[WorldSet]):
        require_type(space, SampleSpace, "algebra space")
        self._fill(space, basis, ValidationError, "sample space")


def discrete_algebra(space: SampleSpace) -> SetAlgebra:
    """The algebra of all subsets: basis blocks are the singletons."""
    require_type(space, SampleSpace, "algebra space")
    return SetAlgebra._of(space, tuple(1 << i for i in range(space.size)))


class MeasureFn(Value):
    """Rational weights on the blocks of a basis, in basis order, stored as their reduced
    ``(num, den)`` pairs (``_of(ratios)`` takes them unchecked) and kept as integer numerators
    ``nums`` over their least common denominator ``den``; ``weights`` is built from the pairs on
    each read, and ``docio.to_json`` does not read it: it writes the pairs themselves.
    Equality and hash go by ``(nums, den)``, ``repr`` and pickling by ``weights``.
    Whether they are nonnegative and sum to 1 is left to ``weight_problems``, which
    ``structures.validate`` calls, so that hand-written documents surface as
    validation reports instead of construction failures.
    """

    _fields = ("weights",)
    __slots__ = ("nums", "den", "_ratios")
    _key = attrgetter("nums", "den")  # equality and hash by the normal form

    def __init__(self, weights: Iterable):
        weights = map(as_fraction, as_tuple(weights, "measure weights"))
        self._set(tuple((w.numerator, w.denominator) for w in weights))

    def _set(self, ratios: tuple) -> MeasureFn:
        den = math.lcm(*(d for _, d in ratios))  # reduced pairs: gcd(den, *nums) is 1
        setfield(self, "nums", tuple(n * (den // d) for n, d in ratios))
        setfield(self, "den", den)
        setfield(self, "_ratios", ratios)
        return self

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d in self._ratios)  # at most one per world: built on each read

    def weight_problems(self) -> list[str]:
        """Why the weights are not a probability distribution; empty if they are."""
        problems = [f"measure weight {format_rational(Fraction(n, self.den))} of block {i} is negative"
                    for i, n in enumerate(self.nums) if n < 0]
        if sum(self.nums) != self.den:
            total = Fraction(sum(self.nums), self.den)
            try:
                problems.append(f"measure weights sum to {format_rational(total)}, expected 1")
            except ValidationError:
                problems.append("measure weights do not sum to 1 (the sum is too long to write out)")
        return problems


class ProbabilitySpace(Value):
    """A sample space, an algebra of measurable sets, and a measure."""

    _fields = ("space", "algebra", "mu")
    __slots__ = _fields

    def __init__(self, space: SampleSpace, algebra: SetAlgebra, mu: MeasureFn):
        require_type(algebra, SetAlgebra, "probability space algebra")
        require_type(mu, MeasureFn, "probability space measure")
        if algebra.space != space:
            raise ValidationError("algebra is over a different sample space")
        if len(mu.nums) != len(algebra.masks):
            raise ValidationError(f"measure has {len(mu.nums)} weights for {len(algebra.masks)} basis blocks")
        setfield(self, "space", space)
        setfield(self, "algebra", algebra)
        setfield(self, "mu", mu)


def _covered(ps: ProbabilitySpace, x: WorldSet) -> tuple[int, Fraction]:
    """The union of the basis blocks inside ``x``, and their total weight."""
    require_type(ps, ProbabilitySpace, "probability space")
    _check_space(ps.algebra, x)
    covered = total = 0
    for block, n in zip(ps.algebra.masks, ps.mu.nums):
        if block & ~x.bits == 0:
            covered |= block
            total += n
    return covered, Fraction(total, ps.mu.den)


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
