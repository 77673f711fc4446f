"""The base class of the package's immutable value types."""

from __future__ import annotations

from operator import attrgetter

from .errors import ValidationError

# How an ``__init__`` stores a field, past the ``__setattr__`` that refuses it.
setfield = object.__setattr__


def require_type(value, cls, what: str) -> None:
    """Raise ``ValidationError`` unless ``value`` is an instance of ``cls``.

    Constructors run for every formula, world set or basis block make the
    same check inline, with the same wording, to save the call.
    """
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be {cls.__name__}, got {type(value).__name__}")


def as_tuple(items, what: str) -> tuple:
    """``items`` as a tuple; ``ValidationError`` if they cannot be iterated."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{what} must be iterable, got {type(items).__name__}") from None


class Value:
    """An immutable value with the fields named in ``_fields``.

    Fields live in ``__slots__``; assigning or deleting an attribute raises
    ``AttributeError``.  Equality, hash, ``repr`` and pickling go by the
    fields, and values of different classes never compare equal.  Each
    subclass writes its own ``__init__``, which checks its arguments and
    stores the fields with ``setfield``.  The classes compared in hot loops
    write their own ``__eq__``, ``__ne__`` and ``__hash__`` as well.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = attrgetter(*cls._fields)

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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
