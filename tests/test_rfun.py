"""The coefficient extension functor: structure validation, the two-class
computation for the free module, cone behavior, duality, Bockstein."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtool import cli, rfun
from krtool import coeff as cf
from krtool.a1 import (
    direct_sum_a1,
    std_a1,
    std_bv,
    std_f,
    std_p,
    std_pn,
    suspend,
    tensor_a1,
)
from krtool.closedform import h01_pn_dim
from krtool.coeff import A, CoeffMonomial, S, multiply, q0_coeff, q1_coeff
from krtool.emod import h01, is_rel_projective, validate
from krtool.gf2 import F2Matrix
from krtool.graded import GradedMap, GradedSpace, Window, add_deg
from krtool.kr import chart, cross_check_hv
from krtool.rfun import (
    A1Map,
    apply_r,
    bockstein_d1,
    check_cone_separation,
    cone_part,
    lift_map,
    mod_a,
    psi_duality,
    required_top,
)


def test_r_of_trivial_module_is_coefficient_ring():
    w = Window(-6, 6, -5, 5)
    rm = apply_r(std_f(), w)
    from krtool.coeff import CoeffRing
    ring = CoeffRing(w)
    assert rm.emod.space.dims() == ring.space.dims()
    assert validate(rm.emod) == []


def test_r_structure_validates_on_projective_module():
    w = Window(-8, 8, -4, 4)
    rm = apply_r(std_p(1, 14), w)
    assert validate(rm.emod) == []
    assert check_cone_separation(rm)


def test_q1_on_bottom_class_of_p():
    w = Window(-4, 8, -3, 3)
    rm = apply_r(std_p(1, 14), w)
    sp = rm.emod.space
    d = (1, 0)
    i = sp.index(d, "1|x1")
    img = rm.emod.q1.apply(d, 1 << i)
    assert sp.vector_name((3, 1), img) == "s1|x4"


def test_h01_of_free_module_two_classes():
    w = Window(-12, 12, -6, 6)
    rm = apply_r(std_a1(), w)
    hom = h01(rm.emod)
    dims = hom.dims()
    assert dims == {(6, 0): 1, (3, -2): 1}


def test_h01_cone_parts_of_free_module():
    w = Window(-10, 10, -5, 5)
    rm = apply_r(std_a1(), w)
    plus = cone_part(rm, "+")
    minus = cone_part(rm, "-")
    assert h01(plus).dims() == {(6, 0): 1}
    assert h01(minus).dims() == {(3, -2): 1}
    assert validate(plus) == []
    assert validate(minus) == []


def test_rel_projective_examples():
    w = Window(-8, 8, -4, 4)
    rm = apply_r(std_f(), w)
    ok, witness = is_rel_projective(rm.emod)
    assert not ok and witness is not None  # the ring itself is not
    from krtool.emod import _lambda1_tensor
    lam = _lambda1_tensor(rm.emod, (0, 0), 0)
    ok2, _ = is_rel_projective(lam)
    assert ok2


def test_h01_r_matches_closed_form_small_windows():
    w = Window(-10, 10, -5, 5)
    for n in range(0, 3):
        m = std_pn(n, w.m_lo - 1, 16)
        rm = apply_r(m, w)
        hom = h01(rm.emod)
        dims = hom.dims()
        for d in hom.region:
            assert dims.get(d, 0) == h01_pn_dim(n, d), (n, d)


def test_mod_a_quotient_structure():
    w = Window(-8, 8, 0, 5)
    fm = mod_a(std_a1(), w)
    assert validate(fm) == []
    hom = h01(fm)
    dims = hom.dims()
    # kernel intersection of the free module in the zero twist, no towers
    expected = {(4, 0): 1, (6, 0): 1}
    for d in hom.region:
        assert dims.get(d, 0) == expected.get(d, 0), d


def test_bockstein_d1_on_free_module():
    w = Window(-8, 10, 0, 6)
    b = bockstein_d1(std_a1(), w)
    assert b.squares_to_zero()
    kd = b.kernel_dims()
    # the kernel of the first differential retains only the top class
    assert kd.get((6, 0), 0) == 1
    assert kd.get((4, 0), 0) == 0


def test_bockstein_kernel_computes_positive_cone_homology():
    # when both slices of the mod-a homology are square-acyclic, the
    # kernel of the first differential is the positive-cone homology and
    # the Euler class acts by zero on it
    w = Window(-8, 10, -2, 6)
    rm = apply_r(std_a1(), w)
    plus = cone_part(rm, "+")
    hp = h01(plus)
    b = bockstein_d1(std_a1(), w)
    kd = b.kernel_dims()
    for d in hp.region:
        if d[1] >= 0 and d in b.homology.region \
                and (d[0] + 2, d[1]) in b.homology.region:
            assert kd.get(d, 0) == hp.dims().get(d, 0), d
    # Euler-action triviality on the surviving class
    reps = hp.sub.reps((6, 0))
    img = plus.act_a.apply((6, 0), reps.rows[0])
    assert hp.sub.express((6, 1), img) in (0, None)


def test_bockstein_rejects_non_acyclic():
    w = Window(-6, 6, 0, 4)
    with pytest.raises(ValueError):
        bockstein_d1(std_f(), w)


def test_psi_duality_trivial_and_free():
    w = Window(-8, 8, -4, 4)
    cert = psi_duality(std_f(), w)
    assert cert.ok, cert.detail
    cert = psi_duality(std_a1(), w)
    assert cert.ok, cert.detail


def test_psi_duality_projective_clipped():
    w = Window(-9, 9, -4, 4)
    cert = psi_duality(std_p(1, 26), w)
    assert cert.ok, cert.detail


def test_r_additivity_of_h01():
    from krtool.a1 import direct_sum_a1
    w = Window(-8, 8, -4, 4)
    m1 = std_pn(1, 0, 14)
    m2 = std_f()
    s = direct_sum_a1([m1, m2], ["u.", "v."])
    hs = h01(apply_r(s, w).emod).dims()
    h1 = h01(apply_r(m1, w).emod).dims()
    h2 = h01(apply_r(m2, w).emod).dims()
    keys = set(hs) | set(h1) | set(h2)
    for d in keys:
        assert hs.get(d, 0) == h1.get(d, 0) + h2.get(d, 0), d


def test_apply_r_dead_window_is_empty():
    # the twist -1 column of the coefficient ring is empty, so a window
    # confined to it produces the empty module rather than an error
    w = Window(-4, 4, -1, -1)
    rm = apply_r(std_f(), w)
    assert rm.emod.space.total_dim() == 0


def test_apply_r_refuses_thin_base():
    w = Window(-8, 8, -4, 4)
    with pytest.raises(ValueError, match="rebuild the module"):
        apply_r(std_p(1, 6), w)


def test_q0_acyclic_base_gives_q0_acyclic_extension():
    from krtool.emod import q0_acyclic_on
    w = Window(-8, 8, -4, 4)
    rm = apply_r(std_p(1, 14), w)
    inner = Window(-6, 6, -3, 3)
    assert q0_acyclic_on(rm.emod, inner)


def test_apply_r_rank_two_large_window_within_budget():
    # the large rank-2 window: 53.5k basis vectors
    m = std_bv(2, 1, 36)
    w = Window(-24, 24, -12, 12)
    start = time.perf_counter()
    rm = apply_r(m, w)
    seconds = time.perf_counter() - start
    assert rm.emod.space.total_dim() == 53534
    assert seconds < 1, f"apply_r took {seconds:.2f}s"


# -- the block builders against a name-keyed reference -------------------------------
#
# The reference builds every row by formatting the name ``mono|x`` of each
# image vector and looking it up in the extension's basis.


def _ref_decompose(name):
    mono, x = name.split("|", 1)
    return CoeffMonomial.parse(mono), x


def _ref_build(space, shift, row_of):
    blocks = {}
    for d in space.degrees():
        td = add_deg(d, shift)
        rows = []
        for name in space.names(d):
            bits = 0
            for tname in row_of(d, name):
                if space.has(td, tname):
                    bits ^= 1 << space.index(td, tname)
            rows.append(bits)
        blocks[d] = F2Matrix.from_rows(rows, space.dim(td))
    return GradedMap(space, space, shift, blocks)


def _ref_names(m, mono, xd, bits):
    if mono is None:
        return []
    names = m.names(xd)
    return [f"{mono.name()}|{names[i]}" for i in range(len(names))
            if (bits >> i) & 1]


def _ref_apply_r(m, w):
    basis = {}
    for mm in range(w.m_lo, w.m_hi + 1):
        for k in range(w.k_lo, w.k_hi + 1):
            for mono in cf.monomials_with_twist(k, -math.inf, math.inf):
                for xn in m.names(mm - mono.degree()[0]):
                    basis.setdefault((mm, k), []).append(f"{mono.name()}|{xn}")
    space = GradedSpace(w, basis)

    def by(rule):
        def row_of(d, name):
            mono, xn = _ref_decompose(name)
            xd = d[0] - mono.degree()[0]
            out = []
            for tmono, txd, tbits in rule(mono, xd, 1 << m.index(xd, xn)):
                out += _ref_names(m, tmono, txd, tbits)
            return out
        return row_of

    def q1_rule(mono, xd, xb):
        q0m = q0_coeff(mono)
        return [(q1_coeff(mono), xd, xb),
                (multiply(A, q0m) if q0m else None, xd + 1, m.apply_sq1(xd, xb)),
                (multiply(A, mono), xd + 2, m.apply_sq2(xd, xb)),
                (multiply(S, mono), xd + 3, m.apply_q1(xd, xb))]

    return space, {
        "q0": _ref_build(space, (1, 0), by(lambda mono, xd, xb: [
            (q0_coeff(mono), xd, xb), (mono, xd + 1, m.apply_sq1(xd, xb))])),
        "q1": _ref_build(space, (2, 1), by(q1_rule)),
        "act_a": _ref_build(space, (0, 1), by(
            lambda mono, xd, xb: [(multiply(A, mono), xd, xb)])),
        "act_s": _ref_build(space, (-1, 1), by(
            lambda mono, xd, xb: [(multiply(S, mono), xd, xb)])),
    }


def _ref_mod_a(m, w):
    basis = {}
    for mm in range(w.m_lo, w.m_hi + 1):
        for k in range(max(0, w.k_lo), w.k_hi + 1):
            mono = CoeffMonomial("+", 0, k)
            for xn in m.names(mm + k):
                basis.setdefault((mm, k), []).append(f"{mono.name()}|{xn}")
    space = GradedSpace(w, basis)

    def by(rule):
        def row_of(d, name):
            mono, xn = _ref_decompose(name)
            xd = d[0] + mono.e2
            tn, txd, txb = rule(mono.e2, xd, 1 << m.index(xd, xn))
            return _ref_names(m, CoeffMonomial("+", 0, tn), txd, txb)
        return row_of

    return space, {
        "q0": _ref_build(space, (1, 0), by(
            lambda n, xd, xb: (n, xd + 1, m.apply_sq1(xd, xb)))),
        "q1": _ref_build(space, (2, 1), by(
            lambda n, xd, xb: (n + 1, xd + 3, m.apply_q1(xd, xb)))),
        "act_s": _ref_build(space, (-1, 1), by(
            lambda n, xd, xb: (n + 1, xd, xb))),
    }


def _ref_lift_map(f, ssp, tsp):
    blocks = {}
    for d in ssp.degrees():
        rows = []
        for name in ssp.names(d):
            mono, xn = _ref_decompose(name)
            xd = d[0] - mono.degree()[0]
            img = f.apply(xd, 1 << f.source.index(xd, xn))
            bits = 0
            for i, tn in enumerate(f.target.names(xd)):
                nm = f"{mono.name()}|{tn}"
                if (img >> i) & 1 and tsp.has(d, nm):
                    bits ^= 1 << tsp.index(d, nm)
            rows.append(bits)
        blocks[d] = F2Matrix.from_rows(rows, tsp.dim(d))
    return GradedMap(ssp, tsp, (0, 0), blocks)


@st.composite
def windows(draw):
    """Small windows; some reach twist -2 and below, some reach the twists
    >= 10 where exponents have two digits, so that names such as ``a1.s9``
    and ``a10`` share a degree."""
    k_lo = draw(st.integers(-6, 10))
    k_hi = draw(st.integers(k_lo, min(k_lo + 3, 12)))
    m_lo = draw(st.integers(-4, 8))
    m_hi = draw(st.integers(m_lo, m_lo + 6))
    return Window(m_lo, m_hi, k_lo, k_hi)


@st.composite
def base_modules(draw, top):
    """Direct sums, tensors and suspensions of the standard modules, exact
    through degree ``top``."""
    hi = top + 4

    def leaf():
        which = draw(st.sampled_from(["f", "a1", "p", "pn"]))
        if which == "f":
            return std_f(draw(st.integers(-3, 3)))
        if which == "a1":
            return std_a1(draw(st.integers(-6, 2)))
        if which == "p":
            return std_p(1, max(hi, 1))
        return std_pn(draw(st.integers(0, 3)), -8, max(hi, 8))

    m = leaf()
    shape = draw(st.sampled_from(["leaf", "suspend", "sum", "tensor"]))
    if shape == "suspend":
        m = suspend(m, draw(st.integers(-3, 3)))
    elif shape == "sum":
        m = direct_sum_a1([m, leaf()], ["u.", "v."])
    elif shape == "tensor":
        other = draw(st.sampled_from([std_f(0), std_a1(), std_p(1, max(hi, 1))]))
        m = tensor_a1(m, other, hi=hi + 6)
    return m


def _same_maps(got, want):
    for name, ref in want.items():
        mp = getattr(got, name)
        assert mp.shift == ref.shift, name
        assert mp.blocks == ref.blocks, name


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_block_builders_match_name_keyed_reference(data):
    w = data.draw(windows())
    m = data.draw(base_modules(required_top(w)))
    if m.complete_hi < required_top(w):
        with pytest.raises(ValueError, match="rebuild the module"):
            apply_r(m, w)
        return
    rm = apply_r(m, w)
    space, maps = _ref_apply_r(m, w)
    assert rm.emod.space.basis == space.basis
    _same_maps(rm.emod, maps)

    fm = mod_a(m, w)
    space, maps = _ref_mod_a(m, w)
    assert fm.space.basis == space.basis
    assert fm.act_a is None
    _same_maps(fm, maps)

    # a random degree-zero map into a second module, extended
    n = data.draw(base_modules(required_top(w)))
    if n.complete_hi < required_top(w):
        return
    blocks = {}
    for d in m.degrees():
        if n.dim(d):
            rows = data.draw(st.lists(st.integers(0, (1 << n.dim(d)) - 1),
                                      min_size=m.dim(d), max_size=m.dim(d)))
            blocks[d] = F2Matrix.from_rows(rows, n.dim(d))
    f = A1Map(m, n, blocks)
    rn = apply_r(n, w)
    got = lift_map(f, rm, rn)
    want = _ref_lift_map(f, rm.emod.space, rn.emod.space)
    assert got.shift == want.shift and got.blocks == want.blocks


def _counted_builds(monkeypatch):
    """The shifts of the maps ``rfun._build`` makes from now on."""
    shifts = []
    real = rfun._build

    def counted(src, dst, shift, rule):
        shifts.append(shift)
        return real(src, dst, shift, rule)

    monkeypatch.setattr(rfun, "_build", counted)
    return shifts


def test_charts_build_only_the_two_differentials(monkeypatch, capsys):
    chart.cache_clear()
    shifts = _counted_builds(monkeypatch)
    w = Window(-8, 8, -4, 4)
    assert cli.main(["compute", "kr-table", "--bv", "2", "--layers", "3",
                     "--window", "-8", "8", "-4", "4"]) == 0
    assert capsys.readouterr().out
    assert cross_check_hv(2, w).ok
    assert shifts == [(1, 0), (2, 1)]
    chart.cache_clear()


def test_actions_are_built_once_on_first_read(monkeypatch):
    shifts = _counted_builds(monkeypatch)
    w = Window(-6, 8, -3, 3)
    em = apply_r(std_bv(2, 1, required_top(w)), w).emod
    assert shifts == [(1, 0), (2, 1)]
    a = em.act_a
    assert em.act_a is a and a.shift == (0, 1) and shifts[2:] == [(0, 1)]
    # validation reads both actions many times; only ``s`` is still to build
    assert validate(em) == []
    assert em.act_s is em.act_s and shifts[2:] == [(0, 1), (-1, 1)]
    fm = mod_a(std_p(1, required_top(w)), w)
    assert fm.act_a is None and fm.act_s is fm.act_s
    plus = cone_part(apply_r(std_p(1, required_top(w)), w), "+")
    assert plus.act_a is plus.act_a


def test_build_runs_each_rule_once_per_monomial(monkeypatch):
    calls = []
    real = rfun._build

    def counted(src, dst, shift, rule):
        seen = []
        calls.append((shift, seen))

        def once(mono):
            seen.append(mono)
            return rule(mono)
        return real(src, dst, shift, once)

    monkeypatch.setattr(rfun, "_build", counted)
    w = Window(-8, 8, -4, 4)
    rm = apply_r(std_bv(2, 1, required_top(w)), w)
    assert rm.emod.act_a.shift == (0, 1) and rm.emod.act_s.shift == (-1, 1)
    assert [shift for shift, _ in calls] == [(1, 0), (2, 1), (0, 1), (-1, 1)]
    for shift, seen in calls:
        # each monomial of a source degree whose target degree is populated
        want = {mono for d, entries in rm.layout.items()
                if add_deg(d, shift) in rm.layout for mono, _, _ in entries}
        assert sorted(seen, key=str) == sorted(want, key=str), shift
    rf = apply_r(std_f(0), w)
    del calls[:]
    lift_map(A1Map(std_f(0), std_f(0), {0: F2Matrix.identity(1)}), rf, rf)
    (shift, seen), = calls
    assert shift == (0, 0) and len(seen) == len(set(seen)) > 1
