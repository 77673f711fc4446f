"""The base class of the package's immutable value types, and the name checks and bit
operations that formulas and world sets share."""

from __future__ import annotations

from functools import reduce
from operator import attrgetter, or_

from .errors import ValidationError

# How an ``__init__`` stores a field, past the ``__setattr__`` that refuses it.
setfield = object.__setattr__


def require_type(value, cls, what: str) -> None:
    """Raise ``ValidationError`` unless ``value`` is an instance of ``cls``.

    Every such refusal calls it but those of ``Formula``, ``WorldSet`` and
    ``Masked._keep``, run for every formula, world set or basis block: they
    make the same check inline, with the same wording, to save the call.
    """
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be {cls.__name__}, got {type(value).__name__}")


def as_tuple(items, what: str) -> tuple:
    """``items`` as a tuple; ``ValidationError`` if they cannot be iterated."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{what} must be iterable, got {type(items).__name__}") from None


def check_names(names, limit: int, owner: str, noun: str, reserved=()) -> tuple:
    """``names`` as a tuple of 1 to ``limit`` distinct identifiers, none ``reserved``."""
    names = as_tuple(names, noun + "s")
    if not 1 <= len(names) <= limit:
        raise ValidationError(f"{owner} needs between 1 and {limit} {noun}s, got {len(names)}")
    seen = set()
    for name in names:
        if not isinstance(name, str) or not (name.isascii() and name.isidentifier()):
            raise ValidationError(f"invalid {noun} name {name!r}")
        if name in reserved:
            raise ValidationError(f"{noun} name {name!r} is reserved")
        if name in seen:
            raise ValidationError(f"duplicate {noun} name {name!r}")
        seen.add(name)
    return names


def safe_repr(value) -> str:
    """``repr(value)``, with an integer past the digit limit as ``2^k`` (a power of two) or in hex,
    alone, as a ``Fraction``'s numerator or denominator, or inside a tuple."""
    try:
        return repr(value)
    except ValueError:
        if value.__class__ is int:
            return f"2^{value.bit_length() - 1}" if value & (value - 1) == 0 else hex(value)
        if value.__class__ is tuple:
            return "(" + ", ".join(map(safe_repr, value)) + ("," if len(value) == 1 else "") + ")"
        if not hasattr(value, "denominator"):  # a Fraction, named without importing fractions
            raise
        return f"{type(value).__name__}({safe_repr(value.numerator)}, {safe_repr(value.denominator)})"


def low_bit(mask: int) -> int:
    """The lowest set bit of ``mask``; sorting blocks by it gives canonical basis order."""
    return mask & -mask


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    positions = []
    while mask:
        positions.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return positions


def partition_faults(masks: list[int], full: int):
    """Where ``masks`` fail to partition ``full``: ``(i, shared)`` for each mask ``i`` that is
    empty or meets those before it on the bits ``shared``, then ``(None, missing)`` for the bits
    of ``full`` in no mask.  A partition (nonempty masks whose sum is their OR) skips the walk."""
    if all(masks) and sum(masks) == full == reduce(or_, masks, 0):
        return
    covered = 0
    for i, mask in enumerate(masks):
        if not mask or covered & mask:
            yield i, covered & mask
        covered |= mask
    if covered != full:
        yield None, full ^ covered


class Value:
    """An immutable value with the fields named in ``_fields``.

    Fields live in ``__slots__``; assigning or deleting an attribute raises
    ``AttributeError``.  Equality and hash go by ``_key``, the fields or the
    normal form a class names; ``repr`` and pickling go by the fields, and
    values of different classes never compare equal.  Each subclass writes
    its own ``__init__``, which checks its arguments and stores the fields
    with ``setfield``.  A class that stores them through its own ``_set``
    is built unchecked by ``_of``, from the arguments ``_set`` takes.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = vars(cls).get("_key", attrgetter(*cls._fields))  # a class may name its own key

    @classmethod
    def _of(cls, *stored):
        """The value ``_set`` makes of ``stored``, unchecked: for values already in stored form."""
        return object.__new__(cls)._set(*stored)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={safe_repr(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Masked(Value):
    """An owner and the bitmasks ``masks`` of the ``_element`` values (keyed by
    owner and mask) that its second field names: ``Partition``'s blocks or an
    ``IncidenceMap``'s images.  The masks are the one stored form, whatever values
    were given (``_of(owner, masks)`` takes them unchecked): ``property(Masked._built)``
    builds the values from them when first read, one for every empty mask, and keeps
    them outside the fields.  Equality and hash go by the owner and the masks; ``repr``
    and pickling go by the values, as when the values themselves were kept."""

    __slots__ = ("masks", "_values")
    _fields = ("owner", "values")  # each subclass names its own

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = attrgetter(cls._fields[0], "masks")

    def _set(self, owner, masks: tuple):
        setfield(self, self._fields[0], owner)
        setfield(self, "masks", masks)
        return self

    def _keep(self, owner, values: tuple, noun: str, mismatch: type, different: str):
        """``self`` with the masks of ``values``, if each is an ``_element`` (else
        ``ValidationError`` naming ``noun``) of ``owner`` (else ``mismatch(different)``)."""
        element, masks = self._element, []
        for value in values:
            if not isinstance(value, element):
                raise ValidationError(f"{noun} must be {element.__name__}, got {type(value).__name__}")
            value_owner, mask = value._key(value)
            if value_owner is not owner and value_owner != owner:  # most share one owner
                raise mismatch(different)
            masks.append(mask)
        return self._set(owner, tuple(masks))

    def _built(self) -> tuple:
        if not hasattr(self, "_values"):  # built when first read, then kept outside the fields
            owner, element = getattr(self, self._fields[0]), self._element
            empty = element(owner, 0) if 0 in self.masks else None  # one for every empty mask
            setfield(self, "_values", tuple(element(owner, mask) if mask else empty for mask in self.masks))
        return self._values


class Partition(Masked):
    """Nonempty blocks that partition the bits of an owner, kept as the bitmasks
    ``masks``: the one type under ``FormulaAlgebra`` (of a language's atoms) and
    ``SetAlgebra`` (of a sample space's worlds), built as ``View(owner, basis)``.

    A view names its owner first in ``_fields``, checks the owner in its
    ``__init__`` and hands the blocks to ``_fill``.  It sets ``_element`` (the
    block type), ``_full`` (the owner's mask of every bit), ``_check_element``
    (what ``member`` refuses) and the words of the partition faults.
    """

    __slots__ = ()
    _fields = ("owner", "basis")  # each view names its owner
    basis = property(Masked._built)

    def _fill(self, owner, basis, mismatch: type, where: str) -> None:
        """Keep the masks of ``basis``, if they are blocks of ``owner`` (else
        ``mismatch``, naming ``where``) that partition its bits."""
        different = f"basis block belongs to a different {where}"
        self._keep(owner, as_tuple(basis, "basis blocks"), "basis block", mismatch, different)._check()

    def _check(self):
        """``self``, if its masks partition its owner's bits; else ``ValidationError`` for the first fault."""
        owner = getattr(self, self._fields[0])
        for i, shared in partition_faults(self.masks, self._full(owner)):
            if i is None:  # each branch raises
                raise ValidationError(f"basis blocks do not cover every {self._noun}")
            if not shared:
                raise ValidationError("basis blocks must be nonempty")
            raise ValidationError(self._overlap.format(self._element(owner, self.masks[i])))
        return self

    def member(self, x) -> bool:
        """True iff ``x`` is a union of basis blocks: each lies inside it or misses it."""
        self._check_element(self, x)
        mask = x._key(x)[1]
        return all(block & mask in (0, block) for block in self.masks)

