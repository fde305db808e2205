"""Construction budgets: how many matrices and eliminations a fixed piece of
work builds, counted by wrapping the two constructors, how many module
rows it reads and rows it eliminates, how many basis names it formats and
measures, how many times it reads a module degree's names, how many Borel
models it builds, and how many exactness checks and intersections the
towers suite runs.

The bounds sit a little above the counts of the current code, so a change
that rebuilds a matrix or an elimination inside a loop fails here before it
shows in a timing.  The counts do not depend on the string hash seed.  The
shared zero and identity matrices are built on their first use in a
process, and they keep their rank, kernel and row basis as every matrix
does, so a count may come out a few lower when an earlier test has built
or eliminated them already.
"""

import pytest

from krtool import closedform, gf2, graded, rfun, towers, verify
from krtool.a1 import A1Module, std_bv, std_pn
from krtool.emod import h01, rel_ext
from krtool.graded import NameRuns, Window
from krtool.kr import (
    assemble_kr,
    chart,
    compute_f1,
    compute_f2,
    cross_check_hv,
)
from krtool.rfun import apply_r, required_top

# (F2Matrix, Echelon) constructions: the bound, and the counts of the code
# before each kernel, image and constant matrix was built once, before a
# matrix kept its kernel and row basis for every map that shares it, before
# a subquotient's ``dim`` read its degree's one elimination, and before a
# composite multiplied, ``detect`` tested and a subquotient solved each
# distinct pair of matrices once, and before ``validate_tower`` multiplied
# and ``Filtration.f0`` intersected each distinct pair once
TOWERS_BUDGET = (2_330, 3_240)         # was 41,164 and 24,303; then 8,133
                                       # and 11,194; then 7,360 and 7,896;
                                       # then 7,360 and 6,645; then 2,867
                                       # and 3,678; 2,247 and 3,156 since
# ``gf2.homology`` calls of the suite's ``validate_tower``: 22,671 while
# it checked every degree, 704 since it checks each distinct (into, out,
# dimension) once per tower
TOWER_HOMOLOGY_BUDGET = 720
# ``intersect_row_spaces`` calls of the suite's ``Filtration.f0``: 897
# while it met ``ker_e`` with the image at every degree, 380 since, one per
# distinct (kernel, image) pair of a tower
TOWER_INTERSECT_BUDGET = 400
# ``BorelClosedForm`` constructions of the borel-detect suite: 6 while its
# periodicity check built each rank's model again, 3 since
BOREL_MODEL_BUDGET = 3
H01_BUDGET = (100, 255)                # was 697 and 283
# Echelon constructions of three rel_ext slots on one h01: 252 before a
# counted degree kept its count, 84 after
REL_EXT_BUDGET = 90
# module rows read by the two differentials of a rank-2 extension: 3,881
# before the blocks carried by ``a`` were copied from the twist below, 937
# after
MODULE_ROW_BUDGET = 1_000
# rows eliminated by the rank-2 ``compute_f1``: 7,524 before one
# elimination followed each m column, 3,144 before the negative cone was
# read off its bottom elimination, 1,848 after
F1_ROW_BUDGET = 1_950
# rows eliminated by the rank-2 ``h01(...).dims()``: 15,121 before the
# walk up each m column and the counts taken from it, 3,971 after
H01_ROW_BUDGET = 4_150
# rank -> (window, bound) for the rows eliminated by ``compute_f2``: 925
# (rank 3) and 35,848 (rank 4) while the chart split the free summands off
# with ``reduce``, 83 and 3,875 since it counts them by the rank of theta
F2_ROW_BUDGETS = {3: (Window(-8, 8, -4, 4), 90),
                  4: (Window(-14, 14, -7, 7), 4_100)}
# ``A1Module.names`` calls of one rank-2 ``apply_r`` on m +-20, k +-10:
# 4,551 while the layout walk looked the names up for every monomial at
# every m, 30 (one per module degree) since; ``NameRuns.__len__`` calls of
# the same extension: 3,517 while ``GradedSpace.dim`` and the block shape
# checks measured a basis on every read, 437 (one per degree) since
# basis names a chart (``assemble_kr`` and ``cross_check_hv``) formats
# from ``NameRuns``: 26,950 at rank 2 on m +-20, k +-10 and 4,124 at rank 3
# on m +-8, k +-4 while ``GradedSpace`` read every basis for repeats, none
# since
CHART_NAME_BUDGET = 0


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


def test_validate_tower_counts_each_distinct_check_once(monkeypatch):
    """The exactness checks of one tower repeat the same three blocks from
    degree to degree; each distinct triple is counted once."""
    calls, inside = [0], [False]

    def counting(into, out, dim):
        calls[0] += inside[0]
        return gf2.homology(into, out, dim)

    def validating(t):
        inside[0] = True
        try:
            return towers.validate_tower(t)
        finally:
            inside[0] = False

    for module in (towers, graded):
        monkeypatch.setattr(module, "homology", counting)
    monkeypatch.setattr(verify, "validate_tower", validating)
    ok, detail = verify._suite_towers()
    assert ok, detail
    assert 0 < calls[0] <= TOWER_HOMOLOGY_BUDGET, calls[0]


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


# the rank-2 chart whose row counts are pinned
RANK2_WINDOW = Window(-16, 16, -8, 8)


def counting_rows(monkeypatch):
    """The count, in a one-element list, of the rows ``Echelon.extend``
    inserts from now on."""
    rows = [0]
    real = gf2.Echelon.extend

    def counting(self, new):
        new = list(new)
        rows[0] += len(new)
        return real(self, new)

    monkeypatch.setattr(gf2.Echelon, "extend", counting)
    return rows


@pytest.fixture
def eliminated_rows(monkeypatch):
    """The rows ``Echelon.extend`` inserts once the rank-2 chart has built
    its extension."""
    chart.cache_clear()
    chart(2, RANK2_WINDOW).extension
    yield counting_rows(monkeypatch)
    chart.cache_clear()


def test_f1_eliminates_rows_within_budget(eliminated_rows):
    """A ``q1`` block that begins with the block one twist below extends
    its elimination by the other rows only, and one cut and masked from it
    is read off the elimination below."""
    f1 = compute_f1(2, RANK2_WINDOW)
    assert (len(f1), sum(f1.values())) == (211, 4525)
    assert eliminated_rows[0] <= F1_ROW_BUDGET, eliminated_rows[0]


def test_h01_eliminates_rows_within_budget(eliminated_rows):
    """``h01`` extends each degree's three eliminations by the new rows up
    the positive cone, reads ``Ker q0`` off the elimination below in the
    negative cone, and counts the dimensions as it goes."""
    dims = h01(chart(2, RANK2_WINDOW).extension.emod).dims()
    assert (len(dims), sum(dims.values())) == (68, 172)
    assert eliminated_rows[0] <= H01_ROW_BUDGET, eliminated_rows[0]


@pytest.mark.parametrize("n, gens", [(3, 17), (4, 821)])
def test_f2_eliminates_rows_within_budget(monkeypatch, n, gens):
    """The chart's free part eliminates theta's rows once per degree and
    builds no complement."""
    w, bound = F2_ROW_BUDGETS[n]
    chart.cache_clear()
    chart(n, w).module
    rows = counting_rows(monkeypatch)
    f2 = compute_f2(n, w)
    chart.cache_clear()
    assert sum(f2.gens.values()) == gens
    assert rows[0] <= bound, rows[0]


@pytest.mark.parametrize("n, w", [(2, Window(-20, 20, -10, 10)),
                                  (3, Window(-8, 8, -4, 4))])
def test_charts_format_no_run_name(monkeypatch, n, w):
    """A chart reads its extension's blocks by position and keeps its
    bases unchecked, so it formats none of their names."""
    formatted = [0]
    real_iter, real_item = NameRuns.__iter__, NameRuns.__getitem__

    def counting_iter(self):
        for name in real_iter(self):
            formatted[0] += 1
            yield name

    def counting_item(self, i):
        formatted[0] += 1
        return real_item(self, i)

    monkeypatch.setattr(NameRuns, "__iter__", counting_iter)
    monkeypatch.setattr(NameRuns, "__getitem__", counting_item)
    chart.cache_clear()
    assemble_kr(n, w)
    assert cross_check_hv(n, w).ok
    chart.cache_clear()
    assert formatted[0] <= CHART_NAME_BUDGET, formatted[0]


def test_towers_suite_intersects_each_distinct_pair_once(monkeypatch):
    """``Filtration.f0`` meets the same kernel and image at many degrees
    of a tower; each distinct pair of them is intersected once."""
    calls, pairs, held = [0], [set()], []
    real_build, real_meet = towers.build_x_tower, towers.intersect_row_spaces

    def building(*args):
        pairs.append(set())            # pairs are counted tower by tower
        return real_build(*args)

    def meeting(a, b):
        calls[0] += 1
        held.append((a, b))            # kept alive, so ids stay unique
        pairs[-1].add((id(a), id(b)))
        return real_meet(a, b)

    monkeypatch.setattr(verify, "build_x_tower", building)
    monkeypatch.setattr(towers, "intersect_row_spaces", meeting)
    ok, detail = verify._suite_towers()
    assert ok, detail
    distinct = sum(len(p) for p in pairs)
    assert 0 < calls[0] <= distinct, (calls[0], distinct)
    assert calls[0] <= TOWER_INTERSECT_BUDGET, calls[0]


def test_borel_detect_builds_each_model_once(monkeypatch):
    built = [0]
    real = closedform.BorelClosedForm.__init__

    def counting(self, *args):
        built[0] += 1
        real(self, *args)

    monkeypatch.setattr(closedform.BorelClosedForm, "__init__", counting)
    ok, detail = verify._suite_borel_detect()
    assert ok, detail
    assert built[0] == BOREL_MODEL_BUDGET, built[0]


def test_extension_reads_each_module_degree_and_basis_once(monkeypatch):
    """The layout walk reads each module degree's names once, and the
    extension's space measures each run basis once, when it is built;
    every later size is read from the records."""
    w = Window(-20, 20, -10, 10)
    m = std_bv(2, 1, required_top(w))
    names, lengths = [0], [0]
    real_names, real_len = A1Module.names, NameRuns.__len__

    def reading(self, d):
        names[0] += 1
        return real_names(self, d)

    def measuring(self):
        lengths[0] += 1
        return real_len(self)

    monkeypatch.setattr(A1Module, "names", reading)
    monkeypatch.setattr(NameRuns, "__len__", measuring)
    rm = apply_r(m, w)
    space = rm.emod.space
    assert space.total_dim() == 26950
    assert 0 < names[0] <= len(m.degrees()), names[0]
    assert 0 < lengths[0] <= len(space.degrees()), lengths[0]
