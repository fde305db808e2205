"""Record types: the shared constructor takes every field once, by position
or by keyword, the immutable values hash and print as their fields and
refuse bad input, and caches stay out of a record's equality and repr."""

import copy
import pickle

import pytest

from krtool.coeff import CoeffMonomial
from krtool.gf2 import F2Matrix
from krtool.graded import GradedSpace, OperatorPair, Subquotient, Window
from krtool.record import Record
from krtool.towers import Summand, XTowerSpec

from conftest import record_classes

SUMMANDS = (Summand("free", 0), Summand("cyclic", 1, 2))
# the record types built by ``Record``'s constructor, not one of their own
SHARED = [c for c in record_classes() if c.__init__ is Record.__init__
          and c._fields]

# each immutable value type: its field names, one value of each, its repr,
# and bad fields with the message of the ``ValueError`` they raise
VALUE_TYPES = [
    (Window, ("m_lo", "m_hi", "k_lo", "k_hi"), (-2, 3, -1, 1),
     "Window(m_lo=-2, m_hi=3, k_lo=-1, k_hi=1)",
     [((3, 2, 0, 0), "empty window bounds"),
      ((0, 0, 1, 0), "empty window bounds")]),
    (CoeffMonomial, ("cone", "e1", "e2"), ("-", 2, 0),
     "CoeffMonomial(cone='-', e1=2, e2=0)",
     [(("*", 0, 0), "cone must be '+' or '-'"),
      (("+", -1, 0), "negative exponents"),
      (("-", 0, -1), "negative exponents")]),
    (OperatorPair, ("name", "on_source", "on_target"), ("q0", "q0 of M", "q0 of N"),
     "OperatorPair(name='q0', on_source='q0 of M', on_target='q0 of N')", []),
    (Summand, ("kind", "shift", "order"), ("cyclic", 4, 2),
     "Summand(kind='cyclic', shift=4, order=2)",
     [(("torsion", 0, 1), "summand kind must be cyclic or free"),
      (("cyclic", 0, 0), "cyclic summand needs a positive order")]),
    (XTowerSpec, ("xdeg", "summands"), (3, SUMMANDS),
     f"XTowerSpec(xdeg=3, summands={SUMMANDS!r})", []),
]


@pytest.mark.parametrize("cls, names, fields, text, bad", VALUE_TYPES,
                         ids=[case[0].__name__ for case in VALUE_TYPES])
def test_value_types_are_immutable_values(cls, names, fields, text, bad):
    a = cls(*fields)
    twin = cls(**dict(zip(names, fields)))
    assert a == twin and a is not twin and hash(a) == hash(twin) == hash(fields)
    assert a != fields and tuple(getattr(a, n) for n in names) == fields
    assert repr(a) == text
    assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, n) for n in names) == fields
    for args, message in bad:
        with pytest.raises(ValueError) as err:
            cls(*args)
        assert str(err.value) == message


def test_caches_stay_out_of_equality_and_repr():
    w = Window(0, 1, 0, 0)
    space = GradedSpace(w, {(0, 0): ["x", "y"]})
    nums = {(0, 0): F2Matrix.from_rows([0b01, 0b11], 2)}
    read = Subquotient(space, nums, {})
    fresh = Subquotient(space, nums, {})
    text = repr(fresh)
    assert read.dim((0, 0)) == 2
    assert read == fresh and repr(read) == text
    assert read != Subquotient(space, {}, {})
    with pytest.raises(TypeError):
        hash(read)


@pytest.mark.parametrize("cls", SHARED, ids=[c.__qualname__ for c in SHARED])
def test_the_shared_constructor_takes_each_field_once(cls):
    names = cls._fields
    values = tuple(f"<{n}>" for n in names)
    a = cls(*values)
    for twin in (cls(**dict(zip(names, values))),
                 cls(values[0], **dict(zip(names[1:], values[1:])))):
        assert twin == a and repr(twin) == repr(a)
    assert tuple(getattr(a, n) for n in names) == values
    for args, named in [(values[:-1], {}),              # too few
                        (values + ("extra",), {}),      # too many
                        (values, {"unknown": 0}),       # no such field
                        (values, {names[0]: 0})]:       # given twice
        with pytest.raises(TypeError) as err:
            cls(*args, **named)
        assert str(err.value).startswith(f"{cls.__qualname__}({', '.join(names)})")


def test_the_shared_constructor_names_what_does_not_fit():
    w = Window(0, 0, 0, 0)
    head = "OperatorPair(name, on_source, on_target): "
    for args, named, problem in [
            (("q0",), {}, "missing field 'on_source'"),
            (("q0", w, w, w), {}, "4 values for 3 fields"),
            (("q0", w), {"on_target": w, "on_sauce": w}, "no field 'on_sauce'"),
            (("q0", w), {"on_source": w}, "field 'on_source' given twice")]:
        with pytest.raises(TypeError) as err:
            OperatorPair(*args, **named)
        assert str(err.value) == head + problem
