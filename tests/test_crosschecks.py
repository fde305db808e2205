"""Deeper consistency checks tying independent computation routes
together: quotient versus direct construction, duality of the homology,
and the loop-collapse isomorphisms behind the induction machinery."""

from krtool.a1 import proj_cover_and_loop, reduce, std_a1, std_p, std_pn
from krtool.emod import h01, h01_dual_dims, rel_ext
from krtool.graded import Window, add_deg
from krtool.rfun import apply_r, cone_part, mod_a


def test_mod_a_matches_quotient_of_positive_cone():
    """Deleting the Euler-divisible lines of the positive cone and
    projecting the differentials reproduces the directly built quotient."""
    m = std_pn(1, 0, 16)
    w = Window(-6, 8, -2, 5)
    rplus = cone_part(apply_r(m, w), "+")
    fm = mod_a(m, w)
    sp, fsp = rplus.space, fm.space

    def project(vec, deg):
        out = 0
        for i, name in enumerate(sp.names(deg)):
            if (vec >> i) & 1 and name in fsp.names(deg):
                out |= 1 << fsp.index(deg, name)
        return out

    for mp_plus, mp_f in ((rplus.q0, fm.q0), (rplus.q1, fm.q1)):
        for d in fsp.degrees():
            td = add_deg(d, mp_plus.shift)
            if not w.contains(td):
                continue
            for name in fsp.names(d):
                lift = 1 << sp.index(d, name)
                expected = project(mp_plus.apply(d, lift), td)
                got = mp_f.apply(d, 1 << fsp.index(d, name))
                # translate through the shared names
                gotn = {fsp.names(td)[j] for j in range(fsp.dim(td))
                        if (got >> j) & 1}
                expn = {fsp.names(td)[j] for j in range(fsp.dim(td))
                        if (expected >> j) & 1}
                assert gotn == expn, (name, d)


def test_h01_duality_square():
    """Dual of the homology equals the coinvariants homology of the dual,
    degreewise, for an extended companion."""
    w = Window(-9, 9, -4, 4)
    m = apply_r(std_pn(1, 0, 26), w).emod
    lhs = h01(m).dims()                      # then dualize: reflect degrees
    rhs = h01_dual_dims(m)                   # computed through the dual
    inner = Window(-5, 5, -2, 2)
    # the coinvariants functor of the dual is the reflected dual of the
    # kernel functor; comparing through the definition used in the code:
    # h01_dual_dims(M) at d equals h01(dual M) at -d, so the square
    # commutes iff h01(dual(dual M)) = h01(M); check the involution route
    from krtool.emod import dual_e
    back = h01(dual_e(dual_e(m))).dims()
    for d in inner.degrees():
        assert lhs.get(d, 0) == back.get(d, 0), d
    # and the suspension relation for a q0-acyclic module
    for d in inner.degrees():
        assert lhs.get(d, 0) == rhs.get((d[0] - 1, d[1]), 0), d


def test_loop_collapse_isomorphisms():
    """The four-term sequences of the cover split: away from the two
    exceptional twists, the homology of the loop is the homology of the
    module shifted one diagonal step."""
    p1 = std_p(1, 24)
    res = proj_cover_and_loop(p1)
    w = Window(-10, 12, -5, 5)
    h_m = h01(apply_r(p1, w).emod).dims()
    loop_red = reduce(res.loop).module
    h_l = h01(apply_r(loop_red, w).emod).dims()
    inner = Window(-6, 8, -3, 3)
    for (m, k) in inner.degrees():
        if k in (-2, -1):
            continue
        # twist k of the module meets twist k+1 of the loop, shifted by 2
        got = h_l.get((m + 2, k + 1), 0)
        if k + 1 in (-2, -1) or not inner.contains((m + 2, k + 1)):
            continue
        assert h_m.get((m, k), 0) == got, (m, k)


def test_free_cover_homology_matches_loop_homology_in_integer_twist():
    """At twist zero the loop and the cover have the same homology: the
    collapse that drives the induction on companions."""
    p1 = std_p(1, 24)
    res = proj_cover_and_loop(p1)
    w = Window(-8, 12, -4, 4)
    h_f = h01(apply_r(res.cover, w).emod).dims()
    h_l = h01(apply_r(reduce(res.loop).module, w).emod).dims()
    for m in range(-4, 9):
        assert h_f.get((m, 0), 0) == h_l.get((m, 0), 0), m


def test_reduce_refuses_narrow_window():
    import pytest
    from krtool.a1 import A1Module
    narrow = A1Module({0: ("u",)}, {}, {}, 0, 3, 0, 3)
    with pytest.raises(ValueError, match="window too narrow"):
        reduce(narrow)


def test_h01_region_no_boundary_leakage():
    w = Window(-10, 10, -5, 5)
    hom = h01(apply_r(std_a1(), w).emod)
    for d in hom.dims():
        assert w.shrink(2, 2, 1, 1).contains(d)


def test_rel_ext_additive():
    from krtool.a1 import direct_sum_a1
    w = Window(-8, 8, -4, 4)
    a = std_pn(0, -9, 14)
    b = std_pn(2, 0, 14)
    s = direct_sum_a1([a, b], ["u.", "v."])
    for n in (0, 1):
        es = rel_ext(apply_r(s, w).emod, n)
        ea = rel_ext(apply_r(a, w).emod, n)
        eb = rel_ext(apply_r(b, w).emod, n)
        for d in set(es) | set(ea) | set(eb):
            if Window(-4, 4, -2, 2).contains(d):
                assert es.get(d, 0) == ea.get(d, 0) + eb.get(d, 0), (n, d)
