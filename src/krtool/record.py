"""Record types, compared and printed as dataclasses are, with no code made
at import: ``dataclasses`` (and ``inspect`` with it) cost most of a start.

A record class lists its fields in ``__slots__`` and sets them in its own
``__init__``.  Two records are equal when they are of one class and their
fields are equal, and the repr is ``Name(field=value, ...)``.  A slot named
``_...`` is a cache, not a field; a class with any other slot that is not
a field names its fields in ``_fields``.  A record is not hashable; a
``FrozenRecord`` is immutable and hashes as the tuple of its fields.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" not in vars(cls):
            cls._fields = tuple(n for n in cls.__slots__ if n[0] != "_")
        if cls._fields:
            # the field tuple (a record has two fields or more) and the slot
            # setters, in C: some records are compared and built often
            cls._values = property(attrgetter(*cls._fields))
            cls._setters = tuple(getattr(cls, n).__set__ for n in cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"


class FrozenRecord(Record):
    """A subclass's ``__init__`` sets the fields through this one, in order
    (or through the slot descriptors); assigning or deleting an attribute
    raises ``dataclasses.FrozenInstanceError``."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)

    def __hash__(self) -> int:
        return hash(self._values)

    def __reduce__(self) -> tuple:
        # copies and pickles rebuild through the constructor, since the
        # default slot restore would assign through the guard below
        return type(self), self._values

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # only to raise it
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
