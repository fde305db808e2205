"""Construction budgets: how many matrices and eliminations a fixed piece of
work builds, counted by wrapping the two constructors, and how many module
rows it reads and rows it eliminates.

The bounds sit a little above the counts of the current code, so a change
that rebuilds a matrix or an elimination inside a loop fails here before it
shows in a timing.  The counts do not depend on the string hash seed.  The
shared zero and identity matrices are built on their first use in a
process, and they keep their rank, kernel and row basis as every matrix
does, so a count may come out a few lower when an earlier test has built
or eliminated them already.
"""

import pytest

from krtool import gf2, rfun, verify
from krtool.a1 import std_bv, std_pn
from krtool.emod import h01, rel_ext
from krtool.graded import Window
from krtool.kr import chart, compute_f1
from krtool.rfun import apply_r, required_top

# (F2Matrix, Echelon) constructions: the bound, and the counts of the code
# before each kernel, image and constant matrix was built once, and before
# a matrix kept its kernel and row basis for every map that shares it
TOWERS_BUDGET = (7_500, 8_100)         # was 41,164 and 24,303; then 8,133
                                       # and 11,194
H01_BUDGET = (100, 255)                # was 697 and 283
# Echelon constructions of three rel_ext slots on one h01: 252 before a
# counted degree kept its count, 84 after
REL_EXT_BUDGET = 90
# module rows read by the two differentials of a rank-2 extension: 3,881
# before the blocks carried by ``a`` were copied from the twist below, 937
# after
MODULE_ROW_BUDGET = 1_000
# rows eliminated by the rank-2 ``compute_f1``: 7,524 before one
# elimination followed each m column, 3,144 after
F1_ROW_BUDGET = 3_300


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


def test_rel_ext_slots_count_each_degree_once(constructions):
    """Three slots read the dimensions of one ``h01``; each numerator
    degree is eliminated for its count once."""
    w = Window(-10, 10, -5, 5)
    m = apply_r(std_pn(0, -11, required_top(w)), w).emod
    hom = h01(m)
    constructions.update(F2Matrix=0, Echelon=0)
    slots = [rel_ext(m, n, hom) for n in (1, 2, 3)]
    assert slots[0] and len(hom.sub.numerators) == 84
    assert constructions["Echelon"] <= REL_EXT_BUDGET, constructions


def test_extension_reads_module_rows_within_budget(monkeypatch):
    """The blocks ``a`` carries from the twist below read no module rows."""
    reads = [0]
    real = rfun._module_rows

    def counting(m):
        def counted(rows):
            def read(d):
                reads[0] += 1
                return rows(d)
            return read
        return {op: counted(rows) for op, rows in real(m).items()}

    monkeypatch.setattr(rfun, "_module_rows", counting)
    w = Window(-16, 16, -8, 8)
    apply_r(std_bv(2, 1, required_top(w)), w)
    assert reads[0] <= MODULE_ROW_BUDGET, reads[0]


def test_f1_eliminates_rows_within_budget(monkeypatch):
    """A ``q1`` block that begins with the block one twist below extends
    its elimination by the other rows only."""
    rows = [0]
    real = gf2.Echelon.extend

    def counting(self, new):
        new = list(new)
        rows[0] += len(new)
        return real(self, new)

    w = Window(-16, 16, -8, 8)
    chart.cache_clear()
    chart(2, w).extension
    monkeypatch.setattr(gf2.Echelon, "extend", counting)
    f1 = compute_f1(2, w)
    chart.cache_clear()
    assert (len(f1), sum(f1.values())) == (211, 4525)
    assert rows[0] <= F1_ROW_BUDGET, rows[0]
