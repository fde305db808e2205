"""Construction budgets: how many matrices and eliminations a fixed piece of
work builds, counted by wrapping the two constructors.

The bounds sit a little above the counts of the current code, so a change
that rebuilds a matrix or an elimination inside a loop fails here before it
shows in a timing.  The counts do not depend on the string hash seed.  The
shared zero and identity matrices are built on their first use in a
process, so a count may come out a few lower when an earlier test has built
them already.
"""

import pytest

from krtool import gf2, verify
from krtool.a1 import std_pn
from krtool.emod import h01
from krtool.graded import Window
from krtool.rfun import apply_r, required_top

# (F2Matrix, Echelon) constructions: the bound, and the count of the code
# before each kernel, image and constant matrix was built once
TOWERS_BUDGET = (8_300, 11_400)        # was 41,164 and 24,303
H01_BUDGET = (100, 255)                # was 697 and 283


@pytest.fixture
def constructions(monkeypatch):
    """Counts of ``F2Matrix`` and ``Echelon`` constructions, by class name."""
    counts = {"F2Matrix": 0, "Echelon": 0}
    for cls in (gf2.F2Matrix, gf2.Echelon):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_towers_suite_construction_budget(constructions):
    ok, detail = verify._suite_towers()
    assert ok, detail
    got = (constructions["F2Matrix"], constructions["Echelon"])
    assert all(n <= bound for n, bound in zip(got, TOWERS_BUDGET)), got


def test_h01_construction_budget(constructions):
    w = Window(-10, 10, -5, 5)
    m = apply_r(std_pn(0, -11, required_top(w)), w).emod
    constructions.update(F2Matrix=0, Echelon=0)
    res = h01(m)
    got = (constructions["F2Matrix"], constructions["Echelon"])
    assert res.dims()
    assert all(n <= bound for n, bound in zip(got, H01_BUDGET)), got
