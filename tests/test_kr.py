"""Pipeline pieces and the assembled report."""

import hashlib
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtool import a1, cli, closedform, kr
from krtool.gf2 import F2Matrix
from krtool.graded import GradedMap, Window, add_deg
from krtool.kr import (
    assemble_kr,
    bv_module,
    chart,
    compute_f1,
    compute_f2,
    cross_check_hv,
    detection_h1_borel,
)
from krtool.rfun import apply_r


def test_f1_rank_one_contains_expected_class():
    w = Window(-6, 8, -3, 3)
    f1 = compute_f1(1, w)
    # the second differential on the bottom class lands at (3, 1)
    assert f1.get((3, 1), 0) >= 1
    total = sum(f1.values())
    rm = apply_r(bv_module(1, w), w)
    ranks = sum(rm.emod.q1.rank_at((d[0] - 2, d[1] - 1))
                for d in w.degrees() if w.contains((d[0] - 2, d[1] - 1)))
    assert total == ranks


def test_f2_rank_one_empty():
    w = Window(-8, 8, -4, 4)
    f2 = compute_f2(1, w)
    assert f2.gens == {}


def test_f2_rank_two_generators():
    w = Window(-10, 14, -5, 5)
    f2 = compute_f2(2, w)
    assert f2.gens, "tensor square has free summands"
    assert min(f2.gens) >= 2
    # free part accounts exactly for the dimension excess of the group
    # cohomology over its reduced companion pieces
    from krtool.a1 import std_pn
    bv = bv_module(2, w)
    p2 = std_pn(2, 0, bv.complete_hi)
    for d in range(1, f2.certified_hi + 1):
        free_dim = sum(n * mult for g, n in f2.gens.items() for wd, mult in
                       ((0, 1), (1, 1), (2, 1), (3, 2), (4, 1), (5, 1), (6, 1))
                       if d - g == wd)
        assert bv.dim(d) == 2 * (1 if d >= 1 else 0) + p2.dim(d) + free_dim, d
    cls = f2.dims("top", w)
    comp = f2.dims("companion", w)
    for (m, k), v in cls.items():
        assert comp.get((m - 1, k - 1), 0) == v


def test_detection_h1_borel_small():
    w = Window(-12, 12, -6, 6)
    for n in (1, 2):
        rep = detection_h1_borel(n, w)
        assert rep.certified, rep.detail
        assert rep.unconstrained_dim > 0


def test_detection_h1_borel_ranks_solutions_on_the_interior(monkeypatch):
    # Stand-in solutions, each one entry: two rows of one interior block and
    # a second interior block, which must land in different bits, and one
    # block outside the interior, which must not count.
    w = Window(-12, 12, -6, 6)
    space = closedform.borel_hv_closed(2, w).space
    region = w.shrink(0, 3, 2, 2)
    used = [d for d in space.degrees() if space.dim(add_deg(d, (3, 2)))]
    inside = [d for d in used if region.contains(d)]
    outside = [d for d in used if not region.contains(d)]
    assert space.dim(inside[0]) >= 2 and outside

    def one_entry(d, i):
        rows = [0] * space.dim(d)
        rows[i] = 1
        return GradedMap(space, space, (3, 2), {d: F2Matrix.from_rows(
            rows, space.dim(add_deg(d, (3, 2))))})

    sols = [one_entry(inside[0], 0), one_entry(inside[0], 1),
            one_entry(inside[-1], 0), one_entry(outside[0], 0)]
    monkeypatch.setattr(kr, "hom_space", lambda *args: sols)
    rep = detection_h1_borel(2, w)
    assert (rep.certified, rep.constrained_dim) == (False, 3)
    assert rep.unconstrained_dim == sum(
        space.dim(d) * space.dim(add_deg(d, (3, 2))) for d in region.degrees())


def test_detection_h1_borel_refuses_a_window_without_an_interior(
        monkeypatch):
    """Two twists come off each end; on k 0..3 nothing is left, which is
    reported before the hom space is solved."""
    monkeypatch.setattr(kr, "hom_space", None)
    with pytest.raises(ValueError) as err:
        detection_h1_borel(1, Window(-4, 4, 0, 3))
    assert str(err.value) == "window too small for an interior region"


def test_cross_check_rank_one():
    w = Window(-10, 10, -5, 5)
    rep = cross_check_hv(1, w)
    assert rep.ok, rep.detail()


def test_cross_check_rank_three_within_budget():
    start = time.perf_counter()
    rep = cross_check_hv(3, Window(-14, 14, -7, 7))
    seconds = time.perf_counter() - start
    assert rep.ok, rep.detail()
    assert len(rep.region) == 325
    assert seconds < 3, f"cross-check took {seconds:.1f}s"


def test_cross_check_rank_four_within_budget():
    start = time.perf_counter()
    rep = cross_check_hv(4, Window(-12, 12, -6, 6))
    seconds = time.perf_counter() - start
    assert rep.ok, rep.detail()
    assert len(rep.region) == 231
    assert seconds < 4, f"cross-check took {seconds:.1f}s"


def test_assemble_kr_rank_one():
    w = Window(-10, 10, -5, 5)
    rep = assemble_kr(1, w, max_layer=3)
    assert rep.layer_periodicity_ok()
    assert rep.doubling_ok()
    tsv = rep.to_tsv()
    assert tsv.startswith("m\tk\tdim\tpart")
    # layer zero equals the closed-form non-free pattern
    from krtool.closedform import hv_closed_dims
    assert rep.layers[0] == hv_closed_dims(1, w)


def test_assemble_kr_rank_two_doubling_and_totals():
    w = Window(-10, 12, -5, 5)
    rep = assemble_kr(2, w, max_layer=2)
    assert rep.layer_periodicity_ok()
    assert rep.doubling_ok()


def test_assemble_kr_refuses_a_negative_layer_count():
    with pytest.raises(ValueError, match="layer count -1"):
        assemble_kr(1, Window(-4, 4, -2, 2), max_layer=-1)
    assert len(assemble_kr(1, Window(-4, 4, -2, 2), max_layer=0).layers) == 1


def test_assemble_kr_torsion_annotations_bounded():
    w = Window(-10, 12, -5, 5)
    rep = assemble_kr(2, w, max_layer=2)
    for notes in rep.annotations.values():
        for note in notes:
            if "torsion" in note:
                assert "order 1" in note or "order 2" in note


def _counted(monkeypatch, name):
    calls = []
    real = getattr(kr, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kr, name, wrapper)
    return calls


def test_chart_builds_extension_and_free_part_once(monkeypatch):
    """One chart builds its module, its extension and its free-generator
    count once each, and never splits the free summands off."""
    chart.cache_clear()
    applied = _counted(monkeypatch, "apply_r")
    counted = _counted(monkeypatch, "free_generators")
    built = _counted(monkeypatch, "bv_module")
    split = []
    monkeypatch.setattr(a1, "reduce", lambda *args: split.append(args))
    assert not hasattr(kr, "reduce")
    w = Window(-8, 8, -4, 4)
    assemble_kr(2, w)
    assert cross_check_hv(2, w).ok
    assert compute_f2(2, w).gens == {4: 2, 6: 1}
    assert (len(applied), len(counted), len(built), len(split)) == (1, 1, 1, 0)


def test_chart_for_another_window_evicts_the_previous_one():
    w, other = Window(-6, 6, -3, 3), Window(-6, 8, -3, 3)
    first = chart(1, w)
    assert chart(1, w) is first
    second = chart(1, other)
    assert second is not first
    assert chart.cache_info().currsize == 1
    assert chart(1, w) is not first


def test_results_do_not_alias_the_chart():
    w = Window(-10, 14, -5, 5)
    f2 = compute_f2(2, w)
    gens = dict(f2.gens)
    f2.gens[99] = 1
    f2.gens[4] = -99
    assert compute_f2(2, w).gens == gens
    f1 = compute_f1(2, w)
    want = dict(f1)
    f1.clear()
    assert compute_f1(2, w) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cleared_chart_gives_the_same_results(n):
    for w in (Window(-6, 6, -3, 3), Window(-4, 8, -2, 3)):
        tsv = assemble_kr(n, w).to_tsv()
        cc = cross_check_hv(n, w)
        chart.cache_clear()
        assert cross_check_hv(n, w) == cc
        chart.cache_clear()
        assert assemble_kr(n, w).to_tsv() == tsv


@pytest.mark.parametrize("n", [1, 2, 3])
def test_f1_from_stored_blocks_matches_the_window_scan(n):
    """The ranks read off the stored ``q1`` blocks equal, in the same order,
    a scan of every window degree whose ``(2,1)``-predecessor lies in it."""
    for w in (Window(-6, 6, -3, 3), Window(-4, 9, -1, 4)):
        q1 = apply_r(kr.bv_module(n, w), w).emod.q1
        want = {}
        for d in w.degrees():
            src = (d[0] - 2, d[1] - 1)
            if w.contains(src) and q1.rank_at(src):
                want[d] = q1.rank_at(src)
        got = compute_f1(n, w)
        assert list(got.items()) == list(want.items())


@st.composite
def chart_windows(draw):
    """Small windows reaching degree 4 at least, some wholly in one cone."""
    k_lo = draw(st.integers(-6, 4))
    m_lo = draw(st.integers(-4, 4))
    return Window(m_lo, draw(st.integers(max(m_lo, 4), m_lo + 8)), k_lo,
                  draw(st.integers(k_lo, k_lo + 4)))


@given(st.integers(1, 3), chart_windows())
@settings(max_examples=40, deadline=None)
def test_f1_column_elimination_matches_the_block_ranks(n, w):
    """The ranks ``compute_f1`` reads off one elimination per m column equal
    the rank of each stored ``q1`` block eliminated on its own."""
    q1 = chart(n, w).extension.emod.q1
    want = {(d[0] + 2, d[1] + 1): q1.block(d).rank for d in q1.blocks}
    assert compute_f1(n, w) == want


@given(st.lists(st.integers(-12, 20), max_size=12))
@settings(max_examples=100, deadline=None)
def test_free_class_dims_match_one_loop_per_offset(gens):
    """The three class counts of ``F2Part`` against a loop per offset."""
    w = Window(-6, 14, -3, 3)
    part = kr.F2Part(dict(Counter(gens)), float("inf"))
    assert kr.FREE_CLASS_OFFSETS == {
        "top": (6, 0), "companion": (5, -1), "partner": (3, -2)}
    for which, offset in kr.FREE_CLASS_OFFSETS.items():
        want: dict = {}
        for g in gens:
            d = (g + offset[0], offset[1])
            if w.contains(d):
                want[d] = want.get(d, 0) + 1
        assert part.dims(which, w) == want


# sha256 of ``compute kr-table --bv N --layers 3 --window -14 14 -7 7``
KR_TABLE_SHA256 = {
    2: "53b1fea271ade32048468878b7036bae00b84d5bac737ebd4e5df986e975b12e",
    3: "95d68c152e8a66f4c85483ffba456bf7af0a486d6f33930b243769a911d202bd",
    4: "02adfceca512a0cb118deae54c6457a08b896b14c3579164e039b951a0929c5e",
}


@pytest.mark.parametrize("n", sorted(KR_TABLE_SHA256))
def test_kr_table_prints_the_pinned_bytes(n, capsys):
    argv = ["compute", "kr-table", "--bv", str(n), "--layers", "3",
            "--window", "-14", "14", "-7", "7"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == KR_TABLE_SHA256[n]
