"""Record types, compared and printed as dataclasses are, with no code made
at import: ``dataclasses`` (and ``inspect`` with it) cost most of a start.

A record lists its fields in ``__slots__``; ``Record``'s constructor sets
them, by position or by keyword, each exactly once, and a class writes its
own ``__init__`` only to check values, give a default or fill a cache.
Records of one class are equal when their fields are, and the repr is
``Name(field=value, ...)``.  A slot named ``_...`` is a cache, not a field;
a class with another slot that is not a field names its fields in
``_fields``.  A ``FrozenRecord`` is immutable and hashes as its field
tuple; any other record is not hashable.
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

    def __init__(self, *values: object, **named: object) -> None:
        setters = self._setters
        if named or len(values) != len(setters):
            values = self._arrange(values, named)
        for put, value in zip(setters, values):
            put(self, value)

    def _arrange(self, values: tuple, named: dict) -> tuple:
        """``values``, then the fields after them from ``named``; a
        ``TypeError`` naming the class and its fields if they do not fit."""
        fields, rest = self._fields, self._fields[len(values):]
        stray = [n for n in named if n not in rest]
        missing = [n for n in rest if n not in named]
        if len(values) > len(fields):
            problem = f"{len(values)} values for {len(fields)} fields"
        elif stray:
            problem = (f"field {stray[0]!r} given twice" if stray[0] in fields
                       else f"no field {stray[0]!r}")
        elif missing:
            problem = f"missing field {missing[0]!r}"
        else:
            return values + tuple(named[n] for n in rest)
        raise TypeError(
            f"{type(self).__qualname__}({', '.join(fields)}): {problem}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"


class FrozenRecord(Record):
    """Immutable: constructors set fields through the slot setters, and any
    other assignment or deletion raises ``dataclasses.FrozenInstanceError``."""

    __slots__ = ()

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
