"""Relative homological algebra over the exterior pair."""

import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from krtool import rfun
from krtool.a1 import (
    A1Map,
    A1Module,
    direct_sum_a1,
    proj_cover_and_loop,
    std_a1,
    std_bv,
    std_f,
    std_p,
    std_pn,
    suspend,
    tensor_a1,
)
from krtool.emod import (
    Q0_SHIFT,
    Q1_SHIFT,
    EModule,
    TateComplex,
    _h01_region,
    _lambda1_tensor,
    dual_e,
    find_lambda0_splitting,
    h01,
    h01_dual_dims,
    kerker_space,
    les_h01,
    margolis,
    rel_ext,
    rel_ext_tate,
    tate_complex,
    validate,
)
from krtool.gf2 import F2Matrix, common_kernel, rank, row_basis
from krtool.graded import (
    Degree,
    GradedMap,
    GradedSpace,
    NameRuns,
    Subquotient,
    Window,
    add_deg,
    homology_at,
    identity_map,
    sub_deg,
)
from krtool.io import module_file_to_e, parse_module_file
from krtool.kr import bv_module
from krtool.rfun import apply_r, check_sec_r, required_top

from conftest import by_name


def trivial_emodule(w):
    s = GradedSpace(w, {(0, 0): ["i"]})
    return EModule(s, GradedMap(s, s, (1, 0)), GradedMap(s, s, (2, 1)), w)


def free_e(w):
    """Free rank-one module over the exterior pair: 1, q0, q1, q0q1."""
    s = GradedSpace(w, {(0, 0): ["1"], (1, 0): ["q0"],
                        (2, 1): ["q1"], (3, 1): ["q0q1"]})

    def mk(shift, images):
        blocks = {}
        for d in s.degrees():
            td = (d[0] + shift[0], d[1] + shift[1])
            rows = []
            for n in s.names(d):
                bits = 0
                for t in images.get(n, ()):
                    if t in s.names(td):
                        bits |= 1 << s.index(td, t)
                rows.append(bits)
            blocks[d] = F2Matrix.from_rows(rows, s.dim(td))
        return GradedMap(s, s, shift, blocks)

    q0 = mk((1, 0), {"1": ("q0",), "q1": ("q0q1",)})
    q1 = mk((2, 1), {"1": ("q1",), "q0": ("q0q1",)})
    return EModule(s, q0, q1, w)


def test_free_module_h01_vanishes():
    w = Window(-4, 6, -3, 3)
    e = free_e(w)
    assert validate(e) == []
    assert h01(e).dims() == {}


def test_trivial_module_h01():
    w = Window(-4, 4, -3, 3)
    f = trivial_emodule(w)
    assert h01(f).dims() == {(0, 0): 1}


def test_rel_projective_yes_no():
    # projective for the relative theory iff the q1 homology vanishes
    w = Window(-4, 6, -3, 3)
    assert margolis(free_e(w), "q1") == {}
    assert margolis(trivial_emodule(w), "q1") == {(0, 0): 1}
    assert margolis(trivial_emodule(w), "q0") == {(0, 0): 1}


def test_tate_terms_on_an_extension_read_the_eagerly_formatted_names():
    m = apply_r(std_bv(2, 1, 9), Window(-6, 6, -3, 3)).emod
    term = tate_complex(m, -2, 0).terms[-1]
    want = {}
    for d in term.space.window.degrees():
        names = tuple([f"u-1|{x}" for x in m.space.names(add_deg(d, (2, 1)))]
                      + [f"v-1|{x}" for x in m.space.names(d)])
        if names:
            want[d] = names
    assert term.space.degrees() == sorted(want)
    for d, names in want.items():
        got = term.space.names(d)
        assert isinstance(got, NameRuns)
        assert tuple(got) == names and got == names and names == got


def test_lambda1_tensor_is_projective():
    w = Window(-6, 8, -3, 4)
    rm = apply_r(std_pn(1, 0, 14), w)
    lam = _lambda1_tensor(rm.emod, (0, 0), 0)
    assert margolis(lam, "q1") == {}
    assert h01(lam).dims() == {}  # relative projectives are acyclic


def tate_exactness_report(t: TateComplex, region: Window) -> list[str]:
    """Image = kernel at the inner slots, degreewise on ``region``."""
    problems = []
    slots = sorted(t.terms)
    for i in slots[1:-1]:
        for d in region.degrees():
            if not (t.terms[i].trusted(d)
                    and t.terms[i + 1].trusted(d)
                    and t.terms[i - 1].trusted(d)):
                continue
            into = t.diffs.get(i + 1)
            ker = t.diffs[i].kernel_at(d)
            if (into.rank_at(d) if into is not None else 0) != ker.nrows:
                problems.append(f"slot {i} not exact at {d}")
    return problems


def test_tate_complex_of_trivial_module():
    w = Window(-8, 8, -4, 4)
    f = trivial_emodule(w)
    t = tate_complex(f, -2, 2)
    for i, term in t.terms.items():
        assert margolis(term, "q1") == {}, f"term {i}"
    inner = Window(-4, 4, -2, 2)
    assert tate_exactness_report(t, inner) == []


def test_a_tate_term_without_a_complete_degree_trusts_none():
    """Slot 2 over an extension on m -2..2, k -1..0: at (-2, -1) its two
    blocks come from (-6, -3) and (-8, -4), and at every degree from
    outside the extension's complete window, so no degree is trusted; the
    dual and the Tate slots accept such a term."""
    m = apply_r(std_a1(), Window(-2, 2, -1, 0)).emod
    term = tate_complex(m, 2, 2).terms[2]
    assert term.complete is None and term.trusted_window() is None
    assert not any(term.trusted(d) for d in term.space.window.degrees())
    assert dual_e(term).complete is None and kerker_space(term).dims() == {}
    t = tate_complex(m, -2, 0)
    assert t.terms[-2].complete is None and rel_ext_tate(m, 1, t) == {}


def test_rel_ext_of_trivial_module():
    w = Window(-6, 8, -3, 4)
    f = trivial_emodule(w)
    assert rel_ext(f, 0) == {(0, 0): 1}
    assert rel_ext(f, 1) == {(2, 1): 1}
    assert rel_ext(f, 2) == {(4, 2): 1}
    assert rel_ext_tate(f, 1) == {(2, 1): 1}
    assert rel_ext_tate(f, 2) == {(4, 2): 1}


def test_rel_ext_refuses_a_negative_slot():
    with pytest.raises(ValueError, match="slot -1"):
        rel_ext(trivial_emodule(Window(-6, 8, -3, 4)), -1)


@pytest.mark.parametrize("route", [rel_ext, rel_ext_tate])
def test_both_routes_refuse_a_negative_slot_alike(route):
    with pytest.raises(ValueError) as err:
        route(trivial_emodule(Window(-6, 8, -3, 4)), -1)
    assert str(err.value) == "extension slot -1 is negative"


@pytest.mark.parametrize("n, missing", [(3, [-4]), (0, [1])])
def test_rel_ext_tate_refuses_a_complex_without_its_slots(n, missing):
    """Slot n reads the Tate slots -n-1..-n+1; a given complex that lacks
    one is refused with the slots it lacks and those it holds."""
    m = free_e(Window(-10, 10, -5, 5))
    t = tate_complex(m, -3, 0)
    with pytest.raises(ValueError) as err:
        rel_ext_tate(m, n, t)
    assert str(err.value) == (
        f"extension slot {n} needs Tate slots {missing} that the complex "
        f"lacks; it holds slots [-3, -2, -1, 0]")


def test_rel_ext_tate_refuses_an_induced_map_that_fails(monkeypatch):
    # a failed induced map is an error, not a zero map
    monkeypatch.setattr(Subquotient, "induced", lambda self, mp, dst, d: None)
    with pytest.raises(ValueError, match=r"leaves the kernel intersection "
                                         r"at \(-?\d+, -?\d+\)$"):
        rel_ext_tate(trivial_emodule(Window(-6, 8, -3, 4)), 1)


def test_rel_ext_tate_matches_shifted_h01():
    w = Window(-10, 10, -5, 5)
    for base in (std_pn(0, -11, 16), std_a1()):
        m = apply_r(base, w).emod
        for n in (1, 2):
            direct = rel_ext(m, n)
            indep = rel_ext_tate(m, n)
            common = [d for d in direct
                      if w.shrink(4, 4, 2, 2) and w.shrink(4, 4, 2, 2).contains(d)]
            for d in common:
                assert direct.get(d, 0) == indep.get(d, 0), (n, d)


def test_rel_ext_recursion():
    w = Window(-10, 10, -5, 5)
    m = apply_r(std_pn(0, -11, 16), w).emod
    r1, r2, r3 = rel_ext(m, 1), rel_ext(m, 2), rel_ext(m, 3)
    for d, v in r1.items():
        assert r2.get((d[0] + 2, d[1] + 1), 0) == v
    for d, v in r2.items():
        assert r3.get((d[0] + 2, d[1] + 1), 0) == v


def test_rel_ext_zero_slot_is_kernel_intersection():
    w = Window(-8, 8, -4, 4)
    m = apply_r(std_f(), w).emod
    kk = rel_ext(m, 0)
    assert kk.get((0, 0), 0) == 1


def test_h01_additive():
    from krtool.a1 import direct_sum_a1
    w = Window(-8, 8, -4, 4)
    a = std_pn(1, 0, 14)
    b = std_pn(2, 0, 14)
    s = direct_sum_a1([a, b], ["u.", "v."])
    hs = h01(apply_r(s, w).emod).dims()
    ha = h01(apply_r(a, w).emod).dims()
    hb = h01(apply_r(b, w).emod).dims()
    for d in set(hs) | set(ha) | set(hb):
        assert hs.get(d, 0) == ha.get(d, 0) + hb.get(d, 0)


def test_h01_dual_relation_for_acyclic_module():
    # for modules with vanishing first-differential homology the
    # coinvariants homology is a single suspension away
    w = Window(-9, 9, -4, 4)
    m = apply_r(std_p(1, 14), w).emod
    hd = h01_dual_dims(m)
    hh = h01(m).dims()
    inner = Window(-5, 5, -2, 2)
    for d in inner.degrees():
        assert hh.get(d, 0) == hd.get((d[0] - 1, d[1]), 0), d


def test_les_h01_cover_sequence():
    p1 = std_p(1, 20)
    res = proj_cover_and_loop(p1)
    f = A1Map(res.loop, res.cover, res.loop_rows)
    g = A1Map(res.cover, p1, res.epi_blocks)
    w = Window(-8, 10, -4, 4)
    out = check_sec_r(f, g, w)
    assert out.ok, out.detail
    assert out.les is not None and out.les.slots_checked > 0


def test_sec_r_refuses_maps_that_do_not_compose():
    res = proj_cover_and_loop(std_p(1, 20))
    f = A1Map(res.loop, res.cover, res.loop_rows)
    g = A1Map(res.cover, std_p(1, 20), res.epi_blocks)
    out = check_sec_r(g, f, Window(-8, 10, -4, 4))
    assert (out.ok, out.detail, out.les) == (False, "maps not composable",
                                             None)


def test_sec_r_refuses_a_window_without_an_interior(monkeypatch):
    """Two degrees and one twist come off each end of the window; on m 0..3
    nothing is left, which is reported before any extension is built."""
    p1 = std_p(1, 20)
    res = proj_cover_and_loop(p1)
    f = A1Map(res.loop, res.cover, res.loop_rows)
    g = A1Map(res.cover, p1, res.epi_blocks)
    monkeypatch.setattr(rfun, "apply_r", None)
    out = check_sec_r(f, g, Window(0, 3, -1, 0))
    assert (out.ok, out.detail, out.les) == (
        False, "window too small for the sequence check", None)


def test_les_h01_split_sequence():
    from krtool.a1 import direct_sum_a1
    a = std_pn(1, 0, 14)
    b = std_pn(2, 0, 14)
    s = direct_sum_a1([a, b], ["u.", "v."])
    fb: dict[int, F2Matrix] = {}
    gb: dict[int, F2Matrix] = {}
    for d in s.degrees():
        rows_f = []
        for n in a.names(d):
            rows_f.append(1 << s.names(d).index("u." + n))
        fb[d] = F2Matrix.from_rows(rows_f, s.dim(d))
        rows_g = []
        for n in s.names(d):
            if n.startswith("v."):
                rows_g.append(1 << b.names(d).index(n[2:]))
            else:
                rows_g.append(0)
        gb[d] = F2Matrix.from_rows(rows_g, b.dim(d))
    f = A1Map(a, s, fb)
    g = A1Map(s, b, gb)
    out = check_sec_r(f, g, Window(-8, 10, -4, 4))
    assert out.ok, out.detail


def test_lambda0_splitting_commutes_where_quotient_vanishes():
    # B: b0 -> b1 under q0, C: c0 alone, g: b0 -> c0.  The only candidate
    # s(c0) = b0 has q0 s(c0) = b1 while s(q0 c0) = 0, so no section exists
    # even though C is zero in degree (1, 0).
    w = Window(-2, 3, -1, 1)
    b = GradedSpace(w, {(0, 0): ["b0"], (1, 0): ["b1"]})
    c = GradedSpace(w, {(0, 0): ["c0"]})
    q0_b = GradedMap(b, b, (1, 0), {(0, 0): F2Matrix.identity(1)})
    g = GradedMap(b, c, (0, 0), {(0, 0): F2Matrix.identity(1)})
    assert find_lambda0_splitting(g, w, q0_b, GradedMap(c, c, (1, 0))) is None
    # with the q0 action removed, the identity section exists
    split = find_lambda0_splitting(g, w, GradedMap(b, b, (1, 0)),
                                   GradedMap(c, c, (1, 0)))
    assert split is not None and split.compose(g) == identity_map(c)


def test_sec_r_cover_of_trivial_module_has_no_sq1_section():
    # a section would send the generator to 1 in the free module, but
    # Sq1 of 1 is nonzero while Sq1 of the generator is zero
    from krtool.rfun import _sq1_section
    res = proj_cover_and_loop(std_f(0))
    assert _sq1_section(A1Map(res.cover, std_f(0), res.epi_blocks)) is None
    # the module exact in every degree, and the same module known on
    # [-20, 20] only
    for base in (std_f(0), A1Module({0: ("i0",)}, {}, {}, 0, 0, -20, 20)):
        res = proj_cover_and_loop(base)
        f = A1Map(res.loop, res.cover, res.loop_rows)
        g = A1Map(res.cover, base, res.epi_blocks)
        out = check_sec_r(f, g, Window(-6, 8, -3, 3))
        assert not out.ok
        assert "no sq1-linear section" in out.detail


def test_sec_r_rejects_non_split():
    # the nontrivial extension of the trivial module by its suspension
    # is not split over the first generator
    basis = {0: ("u",), 1: ("v",)}
    sq1 = {0: F2Matrix.from_rows([1], 1)}
    lam = A1Module(basis, sq1, {}, 0, 1, -math.inf, math.inf)
    f = A1Map(std_f(1), lam, {1: F2Matrix.from_rows([1], 1)})
    g = A1Map(lam, std_f(0), {0: F2Matrix.from_rows([1], 1)})
    out = check_sec_r(f, g, Window(-6, 6, -3, 3))
    assert not out.ok
    assert "no sq1-linear section" in out.detail


def test_sec_r_names_the_base_degree_of_a_non_complex():
    # f includes F as the first summand of F + F and g projects onto that
    # summand: the ranks add up to the middle dimension, but g . f is the
    # identity
    from krtool.a1 import direct_sum_a1
    b = direct_sum_a1([std_f(0), std_f(0)], ["u.", "v."])
    f = A1Map(std_f(0), b, {0: F2Matrix.from_rows([0b01], 2)})
    g = A1Map(b, std_f(0), {0: F2Matrix.from_rows([1, 0], 1)})
    out = check_sec_r(f, g, Window(-6, 6, -3, 3))
    assert not out.ok and out.les is None
    assert out.detail == "not short exact at degree 0"


def test_sec_r_names_the_map_that_does_not_commute():
    # Sq1 joins the two classes of ``joined`` and not those of ``apart``,
    # so the identity between them commutes in neither direction
    basis = {0: ["u"], 1: ["v"]}
    joined = A1Module(basis, {0: F2Matrix.identity(1)}, {}, 0, 1,
                      -math.inf, math.inf)
    apart = A1Module(basis, {}, {}, 0, 1, -math.inf, math.inf)
    ident = {d: F2Matrix.identity(1) for d in (0, 1)}
    for name, f, g in (
            ("f", A1Map(joined, apart, ident), A1Map(apart, apart, ident)),
            ("g", A1Map(apart, apart, ident), A1Map(apart, joined, ident))):
        out = check_sec_r(f, g, Window(-6, 6, -3, 3))
        assert not out.ok and out.les is None
        assert out.detail == \
            f"map {name} does not commute with Sq1 at degree 0"


def test_a1_map_rejects_block_of_wrong_shape():
    # std_f(1) is zero in degree 0, so a map into it has a 1x0 block there
    with pytest.raises(ValueError, match="block shape mismatch at 0"):
        A1Map(std_f(0), std_f(1), {0: F2Matrix.from_rows([1], 1)})
    A1Map(std_f(0), std_f(1), {0: F2Matrix.zero(1, 0)})


def test_les_trivial_shapes():
    # identical ends with zero quotient: every connecting map vanishes
    w = Window(-6, 8, -3, 3)
    rm = apply_r(std_pn(1, 0, 14), w).emod
    nothing = GradedSpace(w, {})
    empty = EModule(nothing, GradedMap(nothing, nothing, (1, 0)),
                    GradedMap(nothing, nothing, (2, 1)), w)
    from krtool.graded import identity_map
    out = les_h01(rm, rm, empty, identity_map(rm.space),
                  GradedMap(rm.space, empty.space, (0, 0)),
                  Window(-4, 4, -2, 2))
    assert out.ok, out.detail


def test_tate_slot_zero_is_unshifted_homology():
    w = Window(-10, 10, -5, 5)
    m = apply_r(std_p(1, 16), w).emod
    slot0 = rel_ext_tate(m, 0)
    hom = h01(m).dims()
    inner = Window(-5, 5, -2, 2)
    for d in inner.degrees():
        assert slot0.get(d, 0) == hom.get(d, 0), d


def test_dual_e_validates():
    w = Window(-8, 8, -4, 4)
    m = apply_r(std_pn(1, 0, 14), w).emod
    d = dual_e(m)
    assert validate(d) == []


def test_dual_e_transposes_onto_the_dual_names():
    # "x0^" sorts before "x^": a dual that sorted its names but transposed
    # by position would send y^ to x0^
    text = ("kind e\nwindow 0 1 0 0\ngen x 0 0\ngen x0 0 0\ngen y 1 0\n"
            "q0 x = y\n")
    d = dual_e(module_file_to_e(parse_module_file(text)))
    assert by_name(d.q0)[(-1, 0)] == {"y^": frozenset({"x^"})}
    assert by_name(d.space) == {(0, 0): {"x^", "x0^"}, (-1, 0): {"y^"}}


def test_margolis_refuses_an_unknown_differential():
    m = apply_r(std_a1(), Window(-2, 2, -1, 1)).emod
    assert margolis(m, "q1") == {}
    with pytest.raises(ValueError, match="unknown differential 'q2'"):
        margolis(m, "q2")


def test_margolis_refuses_a_differential_whose_square_is_not_zero():
    # q0 q0 sends x0 to x2, so the homology at (1, 0) has no dimension
    w = Window(0, 2, 0, 0)
    sp = GradedSpace(w, {(0, 0): ["x0"], (1, 0): ["x1"], (2, 0): ["x2"]})
    one = F2Matrix.identity(1)
    m = EModule(sp, GradedMap(sp, sp, Q0_SHIFT, {(0, 0): one, (1, 0): one}),
                GradedMap(sp, sp, Q1_SHIFT), w)
    with pytest.raises(ValueError, match=r"^q0 q0 = 0 fails at \(0, 0\)$"):
        margolis(m, "q0")


# -- name-keyed reference for the Tate complex ---------------------------------
# The terms and differentials as they were built before their blocks were
# placed by offset: each image vector's name is formatted, split and looked
# up in the target space.

def _ref_lambda1_tensor(m: EModule, susp: Degree, tag: int) -> EModule:
    w = m.space.window
    basis: dict[Degree, list[str]] = {}
    for d in m.space.degrees():
        for n in m.space.names(d):
            d0 = add_deg(d, susp)
            d1 = add_deg(d0, Q1_SHIFT)
            if w.contains(d0):
                basis.setdefault(d0, []).append(f"u{tag}|{n}")
            if w.contains(d1):
                basis.setdefault(d1, []).append(f"v{tag}|{n}")
    space = GradedSpace(w, basis)

    def build(shift, rule) -> GradedMap:
        blocks: dict[Degree, F2Matrix] = {}
        for d in space.degrees():
            td = add_deg(d, shift)
            rows = []
            for name in space.names(d):
                lam, base = name.split("|", 1)
                rows.append(rule(d, td, lam, base))
            blocks[d] = F2Matrix.from_rows(rows, space.dim(td))
        return GradedMap(space, space, shift, blocks)

    def expand(td, lam, src_deg, bits) -> int:
        out = 0
        names = m.space.names(src_deg)
        for i in range(len(names)):
            if (bits >> i) & 1:
                nm = f"{lam}|{names[i]}"
                if nm in space.names(td):
                    out |= 1 << space.index(td, nm)
        return out

    def q0_rule(d, td, lam, base) -> int:
        off = susp if lam.startswith("u") else add_deg(susp, Q1_SHIFT)
        sd = sub_deg(d, off)
        bits = m.q0.apply(sd, 1 << m.space.index(sd, base))
        return expand(td, lam, add_deg(sd, Q0_SHIFT), bits)

    def q1_rule(d, td, lam, base) -> int:
        off = susp if lam.startswith("u") else add_deg(susp, Q1_SHIFT)
        sd = sub_deg(d, off)
        bits = m.q1.apply(sd, 1 << m.space.index(sd, base))
        out = expand(td, lam, add_deg(sd, Q1_SHIFT), bits)
        if lam.startswith("u"):
            nm = f"v{lam[1:]}|{base}"
            if nm in space.names(td):
                out ^= 1 << space.index(td, nm)
        return out

    comp = m.complete.shift(susp).intersect(
        m.complete.shift(add_deg(susp, Q1_SHIFT)))
    comp = comp and comp.intersect(w)
    return EModule(space, build(Q0_SHIFT, q0_rule), build(Q1_SHIFT, q1_rule),
                   comp)


def _ref_tate_complex(m: EModule, lo: int, hi: int) -> TateComplex:
    terms = {i: _ref_lambda1_tensor(m, (2 * i, i), i) for i in range(lo, hi + 1)}
    diffs: dict[int, GradedMap] = {}
    for i in range(lo + 1, hi + 1):
        src, tgt = terms[i], terms[i - 1]
        blocks: dict[Degree, F2Matrix] = {}
        for d in src.space.degrees():
            rows = []
            for name in src.space.names(d):
                lam, base = name.split("|", 1)
                bits = 0
                if lam.startswith("u"):
                    nm = f"v{i - 1}|{base}"
                    if nm in tgt.space.names(d):
                        bits = 1 << tgt.space.index(d, nm)
                rows.append(bits)
            blocks[d] = F2Matrix.from_rows(rows, tgt.space.dim(d))
        diffs[i] = GradedMap(src.space, tgt.space, (0, 0), blocks)
    return TateComplex(terms, diffs)


def _same_emodule(a: EModule, b: EModule) -> bool:
    return (a.space.window == b.space.window
            and by_name(a.space) == by_name(b.space)
            and by_name(a.q0) == by_name(b.q0)
            and by_name(a.q1) == by_name(b.q1) and a.complete == b.complete)


def test_tate_complex_matches_name_keyed_reference():
    small = Window(-8, 8, -4, 4)
    wide = Window(-10, 10, -5, 5)
    modules = [trivial_emodule(small), free_e(small),
               apply_r(std_pn(1, 0, 14), Window(-6, 8, -3, 4)).emod,
               apply_r(std_a1(), wide).emod, apply_r(std_p(1, 16), wide).emod]
    for m in modules:
        for susp, tag in (((0, 0), 0), ((3, 1), 7), ((-4, -2), -2),
                          ((30, 15), 1)):
            assert _same_emodule(_lambda1_tensor(m, susp, tag),
                                 _ref_lambda1_tensor(m, susp, tag)), susp
        for lo, hi in ((-2, 2), (-3, -1), (0, 1), (4, 5)):
            got, want = tate_complex(m, lo, hi), _ref_tate_complex(m, lo, hi)
            assert got.diffs.keys() == want.diffs.keys()
            assert all(by_name(got.diffs[i]) == by_name(want.diffs[i])
                       for i in got.diffs), (lo, hi)
            assert all(_same_emodule(got.terms[i], want.terms[i])
                       for i in range(lo, hi + 1)), (lo, hi)


# -- reference route for the kernel-intersection homology -----------------------
# ``h01`` as it was computed before one elimination per degree served both
# the numerator and the next degree's denominator: the common kernel of the
# two blocks side by side, and q1 of a second elimination of the q0 kernel
# at the (2,1)-predecessor.  ``back`` is where the denominator is read from.

def _ref_h01(m: EModule, back: Degree = Q1_SHIFT) -> Subquotient:
    nums: dict[Degree, F2Matrix] = {}
    dens: dict[Degree, F2Matrix] = {}
    for d in _h01_region(m):
        if m.dim(d) == 0:
            continue
        nums[d] = common_kernel(m.q0.block(d), m.q1.block(d))
        prev = sub_deg(d, back)
        dens[d] = row_basis(m.q0.kernel_at(prev).mul(m.q1.block(prev)))
    return Subquotient(m.space, nums, dens)


def _ref_dims(sub: Subquotient) -> dict[Degree, int]:
    out = {}
    for d, num in sub.numerators.items():
        den = sub.denominators[d]
        n = rank(F2Matrix.from_rows(num.rows + den.rows, num.ncols)) - rank(den)
        if n:
            out[d] = n
    return out


def _same_h01(got: Subquotient, want: Subquotient) -> bool:
    return (got.numerators == want.numerators
            and got.denominators == want.denominators
            and got.dims() == _ref_dims(want)
            and all(got.reps(d) == want.reps(d) for d in want.numerators))


@st.composite
def small_extensions(draw):
    """The extension of a sum, tensor or suspension of standard modules on a
    small window, or its dual."""
    k_lo = draw(st.integers(-4, 3))
    m_lo = draw(st.integers(-6, 4))
    # wide enough for degrees with both (2,1)-neighbours inside
    w = Window(m_lo, m_lo + draw(st.integers(6, 12)),
               k_lo, k_lo + draw(st.integers(3, 5)))
    hi = required_top(w) + 12

    def leaf():
        which = draw(st.sampled_from(["f", "a1", "p", "pn"]))
        if which == "f":
            return std_f(draw(st.integers(-3, 3)))
        if which == "a1":
            return std_a1(draw(st.integers(-6, 2)))
        if which == "p":
            return std_p(1, hi)
        return std_pn(draw(st.integers(0, 3)), -8, hi)

    m = leaf()
    for _ in range(draw(st.integers(0, 2))):
        shape = draw(st.sampled_from(["suspend", "sum", "tensor"]))
        if shape == "suspend":
            m = suspend(m, draw(st.integers(-3, 3)))
        elif shape == "sum":
            m = direct_sum_a1([m, leaf()], ["u.", "v."])
        elif m.bottom() is not None:    # tensor_a1 rejects the zero module
            m = tensor_a1(m, leaf(), hi=hi)
    assume(m.complete_hi >= required_top(w))
    e = apply_r(m, w).emod
    return dual_e(e) if draw(st.booleans()) else e


@settings(max_examples=80, deadline=None)
@given(small_extensions())
def test_h01_matches_two_elimination_reference(m):
    got = h01(m)
    assert got.region == _h01_region(m)
    assert _same_h01(got.sub, _ref_h01(m))


def _flipped(m: EModule, which: str, d: Degree, i: int, j: int) -> EModule:
    """``m`` with entry ``(i, j)`` of its ``which`` block at ``d`` flipped.
    The result need not be a complex; ``h01`` and the reference are defined
    for any two maps."""
    mp = getattr(m, which)
    rows = list(mp.block(d).rows)
    rows[i] ^= 1 << j
    blocks = {**mp.blocks, d: F2Matrix.from_rows(rows, mp.block(d).ncols)}
    maps = {"q0": m.q0, "q1": m.q1,
            which: GradedMap(mp.source, mp.target, mp.shift, blocks)}
    return EModule(m.space, maps["q0"], maps["q1"], m.complete)


@st.composite
def flipped_extensions(draw):
    """A small extension with one entry of ``q0`` or ``q1`` flipped, half
    the time in the rows a block shares with the block one twist below, so
    that the blocks of ``q0`` keep the shape ``a`` gives them while those of
    ``q1`` lose it, or the other way round."""
    m = draw(small_extensions())
    which = draw(st.sampled_from(["q0", "q1"]))
    mp = getattr(m, which)
    assume(mp.blocks)

    def shared(d):
        below = mp.blocks.get((d[0], d[1] - 1))
        return below is not None and (
            mp.blocks[d].rows[:below.nrows] == below.rows)

    carried = [d for d in sorted(mp.blocks) if shared(d)]
    if carried and draw(st.booleans()):
        d = draw(st.sampled_from(carried))
        i = draw(st.integers(0, mp.blocks[(d[0], d[1] - 1)].nrows - 1))
    else:
        d = draw(st.sampled_from(sorted(mp.blocks)))
        i = draw(st.integers(0, mp.blocks[d].nrows - 1))
    j = draw(st.integers(0, mp.blocks[d].ncols - 1))
    return _flipped(m, which, d, i, j)


@settings(max_examples=80, deadline=None)
@given(flipped_extensions())
def test_h01_matches_two_elimination_reference_with_a_flipped_entry(m):
    got = h01(m)
    assert got.region == _h01_region(m)
    assert _same_h01(got.sub, _ref_h01(m))


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_extensions(), flipped_extensions()))
def test_block_ranks_match_a_fresh_elimination_of_each_block(m):
    """``GradedMap.ranks``, one elimination per m column and cone, against
    each stored block eliminated on its own, in window order."""
    for mp in (m.q0, m.q1):
        want = [(add_deg(d, mp.shift), mp.blocks[d].rank)
                for d in sorted(mp.blocks)]
        assert list(mp.ranks().items()) == want


def test_h01_reference_comparison_sees_a_misplaced_denominator():
    w = Window(-10, 10, -5, 5)
    for m in (apply_r(std_p(1, 20), w).emod, apply_r(std_a1(), w).emod):
        got = h01(m).sub
        assert _same_h01(got, _ref_h01(m))
        for back in ((0, 0), (4, 2), (1, 0)):
            assert not _same_h01(got, _ref_h01(m, back)), back


def test_induced_map_of_the_identity_is_the_identity():
    w = Window(-10, 10, -5, 5)
    m = apply_r(std_p(1, 16), w).emod
    h = h01(m).sub
    nothing = Subquotient(m.space, {}, {})
    ident = identity_map(m.space)
    classes = [d for d in h.numerators if h.dim(d)]
    assert classes
    for d in classes:
        assert h.induced(ident, h, d) == F2Matrix.identity(h.dim(d))
        # a representative's image outside the target's span has no matrix
        assert h.induced(ident, nothing, d) is None
        assert nothing.induced(ident, h, d) == F2Matrix(0, h.dim(d), ())


def test_h01_rank_three_within_budget():
    w = Window(-14, 14, -7, 7)
    m = apply_r(bv_module(3, w), w).emod
    start = time.perf_counter()
    dims = h01(m).dims()
    seconds = time.perf_counter() - start
    assert sum(dims.values()) > 0
    assert seconds < 1, f"h01 took {seconds:.2f}s"


# -- trusted regions as rectangles -------------------------------------------------

@st.composite
def windows(draw):
    m_lo, k_lo = draw(st.integers(-8, 8)), draw(st.integers(-4, 4))
    return Window(m_lo, m_lo + draw(st.integers(0, 10)),
                  k_lo, k_lo + draw(st.integers(0, 6)))


def _scan(m: EModule, shifts) -> list[Degree]:
    """The trusted degrees with every shift of them trusted, one by one."""
    return [d for d in m.complete.degrees()
            if m.trusted(*(add_deg(d, s) for s in shifts))]


@settings(max_examples=300, deadline=None)
@given(windows(), st.lists(st.tuples(st.integers(-5, 5), st.integers(-3, 3)),
                           max_size=4))
def test_trusted_window_matches_a_per_degree_scan(complete, shifts):
    nothing = GradedSpace(complete, {})
    m = EModule(nothing, GradedMap(nothing, nothing, Q0_SHIFT),
                GradedMap(nothing, nothing, Q1_SHIFT), complete)
    w = m.trusted_window(*shifts)
    assert (list(w.degrees()) if w else []) == _scan(m, shifts)
    assert _h01_region(m) == _scan(
        m, [Q0_SHIFT, Q1_SHIFT, (-Q1_SHIFT[0], -Q1_SHIFT[1])])


@settings(max_examples=30, deadline=None)
@given(small_extensions())
def test_rectangle_scans_match_per_degree_scans(m):
    populated = [d for d in _scan(m, [Q0_SHIFT, Q1_SHIFT]) if m.dim(d)]
    kk = kerker_space(m)
    assert list(kk.numerators) == populated
    assert all(kk.numerators[d] == common_kernel(m.q0.block(d), m.q1.block(d))
               for d in populated)
    for which, mp in (("q0", m.q0), ("q1", m.q1)):
        want = {}
        for d in _scan(m, [mp.shift, (-mp.shift[0], -mp.shift[1])]):
            if m.dim(d):
                h = homology_at(mp, mp, d)
                if h:
                    want[d] = h
        assert margolis(m, which) == want


@settings(max_examples=20, deadline=None)
@given(small_extensions())
def test_slots_share_one_homology_and_one_tate_complex(m):
    hom = h01(m)
    assert all(rel_ext(m, n, hom) == rel_ext(m, n) for n in (1, 2, 3))
    t = tate_complex(m, -3, 0)
    for n in (1, 2):
        assert rel_ext_tate(m, n, t) == rel_ext_tate(m, n)
    # the bottom term is read only for its dimensions and trusted degrees
    assert callable(t.terms[-3]._q0) and callable(t.terms[-3]._q1)
