"""Closed-form dimension models against the socle and loop oracles."""

from math import comb

from krtool.a1 import loop_power, socle_dims, std_pn
from krtool.closedform import (
    _class_name,
    _euler_height,
    borel_hv_closed,
    borel_pn_dim,
    h01_pn_dim,
    hp_dim,
    hv_closed_dims,
    soc_has,
)
from krtool.gf2 import F2Matrix
from krtool.graded import (
    Degree,
    GradedMap,
    GradedSpace,
    Window,
    add_deg,
    shift_mismatch,
)

from conftest import by_name


def test_soc_patterns_match_module_tables():
    for n in range(0, 5):
        table = socle_dims(std_pn(n, -2, 30))
        for d in range(-1, 22):
            assert (table.get(d, 0) == 1) == soc_has(n, d), (n, d)


def test_soc_periodicity():
    for n in range(-6, 7):
        for d in range(-20, 21):
            assert soc_has(n, d) == soc_has(n + 4, d + 8)


def test_hp_dim_examples():
    assert hp_dim((0, 0)) == 1
    assert hp_dim((8, 0)) == 1
    assert hp_dim((1, 1)) == 1
    assert hp_dim((0, 1)) == 1      # the Euler class line
    # the naive monomial reading would also place a class here; the
    # brute-force comparison rules it out
    assert hp_dim((4, 1)) == 0
    assert hp_dim((-1, 3)) == 1     # the orientation-twisted Euler class


def test_h01_pn_twist_zero_is_socle():
    for n in range(0, 5):
        for m in range(-2, 20):
            assert h01_pn_dim(n, (m, 0)) == (1 if soc_has(n, m) else 0)


def test_h01_pn_minus_one_twist_empty():
    for n in range(0, 5):
        for m in range(-16, 17):
            assert h01_pn_dim(n, (m, -1)) == 0


def test_h01_pn_positive_twist_is_loop_socle():
    # twist t slice equals the socle of the t-fold inverse loop, shifted
    n = 0
    base = std_pn(0, -2, 30)
    for t in (1, 2):
        looped = loop_power(base, -t)
        soc = socle_dims(looped)
        for m in range(-6, 12):
            expect = soc.get(m - 2 * t, 0)
            assert h01_pn_dim(n, (m, t)) == expect, (t, m)


def test_truncation_complementarity():
    w = Window(-12, 12, -6, 6)
    for n in range(0, 4):
        for d in w.degrees():
            # positive and negative parts never meet: twist -1 separates
            if d[1] >= 0:
                assert h01_pn_dim(n, d) == borel_pn_dim(n, d)


def test_hv_closed_binomials():
    w = Window(-8, 8, -4, 4)
    for n in (1, 2, 3):
        dims = hv_closed_dims(n, w)
        for d in w.degrees():
            expect = sum(comb(n, i) * h01_pn_dim(i, d) for i in range(1, n + 1))
            assert dims.get(d, 0) == expect


def test_borel_periodicity():
    w = Window(-12, 12, -8, 8)
    b = borel_hv_closed(2, w)
    dims = b.dims()
    assert shift_mismatch(dims, dims, (-4, 4), w) is None
    # a class removed from one end of a translation pair is found there
    d = next(d for d in sorted(dims) if w.contains(add_deg(d, (-4, 4))))
    del dims[d]
    assert shift_mismatch(dims, dims, (-4, 4), w) == d


def test_borel_matches_truncation_on_positive_twists():
    w = Window(-10, 10, 0, 6)
    for n in range(1, 4):
        for d in w.degrees():
            assert borel_pn_dim(n, d) == h01_pn_dim(n, d)


def test_borel_euler_action_squares_and_heights():
    w = Window(-12, 12, -6, 6)
    b = borel_hv_closed(1, w)
    a3 = b.act_a.compose(b.act_a).compose(b.act_a)
    assert a3.is_zero()
    a2 = b.act_a.compose(b.act_a)
    assert not a2.is_zero()


def test_borel_euler_action_per_class_model():
    # injective on tower classes below the top, zero on the lattice
    w = Window(-12, 12, -6, 6)
    b = borel_hv_closed(2, w)
    inner = Window(-8, 8, -4, 4)
    for d in b.space.degrees():
        if not inner.contains(d):
            continue
        blk = b.act_a.block(d)
        for i, name in enumerate(b.space.names(d)):
            row = blk.rows[i] if blk.nrows else 0
            kind = name.split(":", 1)[1][0]
            if kind == "v" or ":e2" in name:
                assert row == 0, name
            else:
                assert row != 0, name


def _ref_borel(n: int, w: Window) -> tuple[GradedSpace, GradedMap]:
    """The Borel model and its Euler action as built before the Euler
    partners were recorded with the basis: each partner is found by
    splitting the tag off every target name at the next twist."""
    basis: dict[Degree, list[str]] = {}
    for i in range(1, n + 1):
        for c in range(comb(n, i)):
            tag = f"b{i}c{c}:"
            for d in w.degrees():
                if borel_pn_dim(i, d):
                    basis.setdefault(d, []).append(tag + _class_name(i, d))
    space = GradedSpace(w, basis)

    def height_of(name, d):
        tag = name.split(":", 1)[0]
        i = int(tag.split("c")[0][1:])
        return _euler_height(i, d)

    blocks: dict[Degree, F2Matrix] = {}
    for d in space.degrees():
        td = add_deg(d, (0, 1))
        rows = []
        for name in space.names(d):
            h = height_of(name, d)
            bits = 0
            if h is not None and h < 2:
                tag = name.split(":", 1)[0]
                for j, tn in enumerate(space.names(td)):
                    if tn.split(":", 1)[0] == tag \
                            and height_of(tn, td) == h + 1:
                        bits = 1 << j
                        break
            rows.append(bits)
        blocks[d] = F2Matrix.from_rows(rows, space.dim(td))
    return space, GradedMap(space, space, (0, 1), blocks)


def test_borel_model_matches_name_keyed_reference():
    for n, w in ((1, Window(-12, 12, -6, 6)), (2, Window(-12, 12, -8, 8)),
                 (3, Window(-9, 7, -5, 3)), (4, Window(-8, 8, -4, 4)),
                 (5, Window(-6, 10, -3, 5)), (6, Window(-4, 8, -2, 4))):
        b = borel_hv_closed(n, w)
        space, act_a = _ref_borel(n, w)
        assert by_name(b.act_a) == by_name(act_a), n
        assert by_name(b.space) == by_name(space), n
    # with comb(6, 2) = 15 copies the tags reach two digits
    src, tgt = b.space.names((2, 2)), b.space.names((2, 3))
    assert b.act_a.block((2, 2)).rows[src.index("b2c10:e0(2,2)")] == \
        1 << tgt.index("b2c10:e1(2,3)")
