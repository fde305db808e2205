"""The coefficient extension functor: structure validation, the two-class
computation for the free module, cone behavior, duality, Bockstein."""

import math
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtool import cli, rfun
from krtool import coeff as cf
from krtool.a1 import (
    A1Map,
    A1Module,
    direct_sum_a1,
    dual_a1,
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
from krtool.emod import EModule, h01, margolis, tate_complex, validate
from krtool.gf2 import F2Matrix
from krtool.graded import (
    GradedMap,
    GradedSpace,
    NameRuns,
    Window,
    add_deg,
    dual_space,
)
from krtool.io import module_file_to_a1, parse_module_file
from krtool.kr import chart, cross_check_hv
from krtool.rfun import (
    apply_r,
    bockstein_d1,
    cone_crossing,
    cone_part,
    lift_map,
    mod_a,
    psi_duality,
    required_bottom,
    required_top,
)

from conftest import apply_element, by_name, image_names


def test_r_of_trivial_module_is_coefficient_ring():
    # a^j s^n sits at (-n, j + n) and a^-j sigma^(n+2) at (n + 2, -n - 2 - j),
    # one monomial per degree
    w = Window(-6, 6, -5, 5)
    rm = apply_r(std_f(), w)
    picture = {(m, k): 1 for m, k in w.degrees()
               if (m <= 0 and k >= -m) or (m >= 2 and k <= -m)}
    assert rm.emod.space.dims() == picture
    assert validate(rm.emod) == []


def test_r_structure_validates_on_projective_module():
    w = Window(-8, 8, -4, 4)
    rm = apply_r(std_p(1, 14), w)
    assert validate(rm.emod) == []
    assert cone_crossing(rm) is None


def test_q1_on_bottom_class_of_p():
    w = Window(-4, 8, -3, 3)
    rm = apply_r(std_p(1, 14), w)
    sp = rm.emod.space
    d = (1, 0)
    i = sp.index(d, "1|x1")
    img = rm.emod.q1.apply(d, 1 << i)
    assert image_names(sp.names((3, 1)), img) == {"s1|x4"}


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


def test_cone_part_refuses_an_unknown_cone():
    rm = apply_r(std_a1(), Window(-2, 2, -1, 1))
    for which in ("plus", "+-", ""):
        msg = re.escape(f"unknown cone {which!r}")
        with pytest.raises(ValueError, match=msg):
            cone_part(rm, which)


def test_rel_projective_examples():
    w = Window(-8, 8, -4, 4)
    rm = apply_r(std_f(), w)
    assert margolis(rm.emod, "q1")  # the ring itself is not
    from krtool.emod import _lambda1_tensor
    lam = _lambda1_tensor(rm.emod, (0, 0), 0)
    assert margolis(lam, "q1") == {}


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
    w = Window(-8, 10, -2, 6)
    b = bockstein_d1(apply_r(std_a1(), w))
    assert b.nonzero_square() is None
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
    b = bockstein_d1(rm)
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
    w = Window(-6, 6, -2, 4)
    with pytest.raises(ValueError, match="not q0-acyclic"):
        bockstein_d1(apply_r(std_f(), w))
    with pytest.raises(ValueError, match="must reach twist -2"):
        bockstein_d1(apply_r(std_a1(), Window(-6, 6, -1, 4)))


def test_bockstein_names_the_witness_of_a_base_that_is_not_acyclic():
    with pytest.raises(ValueError) as err:
        bockstein_d1(apply_r(std_f(), Window(-4, 4, -2, 2)))
    assert str(err.value) == "base module is not q0-acyclic (witness 0)"


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
    w = Window(-8, 8, -4, 4)
    rm = apply_r(std_p(1, 14), w)
    assert margolis(rm.emod, "q0") == {}


def test_apply_r_rank_two_large_window_within_budget():
    # the large rank-2 window: 53.5k basis vectors
    m = std_bv(2, 1, 36)
    w = Window(-24, 24, -12, 12)
    start = time.perf_counter()
    rm = apply_r(m, w)
    seconds = time.perf_counter() - start
    assert rm.emod.space.total_dim() == 53534
    assert seconds < 1, f"apply_r took {seconds:.2f}s"


def _eager_extension_names(m, w):
    """The extension's names formatted when it is built, one string per
    basis vector: the monomials of each twist in order, each followed by
    the module's names at the complementary degree."""
    basis = {}
    for mm, k in w.degrees():
        names = tuple(mono.name() + "|" + x
                      for mono in cf.monomials_with_twist(k)
                      for x in m.names(mm - mono.degree()[0]))
        if names:
            basis[(mm, k)] = names
    return basis


def test_extension_names_read_back_as_when_formatted_eagerly():
    m, w = std_bv(2, 1, 9), Window(-6, 6, -3, 3)
    rm = apply_r(m, w)
    space, want = rm.emod.space, _eager_extension_names(m, w)
    assert space.degrees() == sorted(want)
    for d, names in want.items():
        got = space.names(d)
        assert isinstance(got, NameRuns)
        assert tuple(got) == names and got == names and names == got
        assert [got[i] for i in range(-len(got), len(got))] == list(names * 2)
    # the same names in tuples make the same space, dual and cone summands
    eager = GradedSpace(w, want)
    assert space == eager and eager == space
    assert dual_space(space) == dual_space(eager)
    for which, keep in (("+", lambda k: k >= 0), ("-", lambda k: k < 0)):
        assert cone_part(rm, which).space == GradedSpace(
            w, {d: ns for d, ns in want.items() if keep(d[1])}), which


def test_extension_holds_no_string_per_basis_vector():
    """The names are runs over the module's names: formatted eagerly, the
    26,950 names of the rank-2 chart window took 2.1 of 4.1 MB."""
    m, w = std_bv(2, 1, 30), Window(-20, 20, -10, 10)
    tracemalloc.start()
    try:
        rm = apply_r(m, w)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rm.emod.space.total_dim() == 26950
    assert held < 3.0e6, f"the extension holds {held / 1e6:.2f} MB"


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
                if tname in space.names(td):
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
            for mono in cf.monomials_with_twist(k):
                for xn in m.names(mm - mono.degree()[0]):
                    basis.setdefault((mm, k), []).append(f"{mono.name()}|{xn}")
    space = GradedSpace(w, basis)

    def by(rule):
        def row_of(d, name):
            mono, xn = _ref_decompose(name)
            xd = d[0] - mono.degree()[0]
            out = []
            for tmono, txd, tbits in rule(mono, xd, 1 << m.names(xd).index(xn)):
                out += _ref_names(m, tmono, txd, tbits)
            return out
        return row_of

    def q1_rule(mono, xd, xb):
        q0m = q0_coeff(mono)
        return [(q1_coeff(mono), xd, xb),
                (multiply(A, q0m) if q0m else None, xd + 1, m.apply_sq1(xd, xb)),
                (multiply(A, mono), xd + 2, m.apply_sq2(xd, xb)),
                (multiply(S, mono), xd + 3, apply_element(m, "Q1", xd, xb))]

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
            tn, txd, txb = rule(mono.e2, xd, 1 << m.names(xd).index(xn))
            return _ref_names(m, CoeffMonomial("+", 0, tn), txd, txb)
        return row_of

    return space, {
        "q0": _ref_build(space, (1, 0), by(
            lambda n, xd, xb: (n, xd + 1, m.apply_sq1(xd, xb)))),
        "q1": _ref_build(space, (2, 1), by(
            lambda n, xd, xb: (n + 1, xd + 3, apply_element(m, "Q1", xd, xb)))),
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
            img = f.block(xd).vec_mul(1 << f.source.names(xd).index(xn))
            bits = 0
            for i, tn in enumerate(f.target.names(xd)):
                nm = f"{mono.name()}|{tn}"
                if (img >> i) & 1 and nm in tsp.names(d):
                    bits ^= 1 << tsp.index(d, nm)
            rows.append(bits)
        blocks[d] = F2Matrix.from_rows(rows, tsp.dim(d))
    return GradedMap(ssp, tsp, (0, 0), blocks)


@st.composite
def windows(draw):
    """Small windows; some reach twist -2 and below, some reach the twists
    >= 10 where exponents have two digits, so that names such as ``a1.s9``
    and ``a10`` share a degree.  Some lie wholly in one cone, with twists
    >= 1 or <= -3, so that a build starts a cone at a twist whose column
    below is outside the window."""
    side = draw(st.sampled_from(["both", "+", "-"]))
    k_lo = draw(st.integers(*{"both": (-6, 10), "+": (1, 10),
                              "-": (-9, -3)}[side]))
    k_hi = draw(st.integers(k_lo, min(k_lo + 3, -3 if side == "-" else 12)))
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
        assert by_name(mp) == by_name(ref), name


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
    assert by_name(rm.emod.space) == by_name(space)
    _same_maps(rm.emod, maps)

    fm = mod_a(m, w)
    space, maps = _ref_mod_a(m, w)
    assert by_name(fm.space) == by_name(space)
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
    assert got.shift == want.shift and by_name(got) == by_name(want)


def _ref_carries(layout):
    """The carries read back from a layout, degree by degree: the leading
    blocks at the module degrees and offsets of the blocks one twist below,
    where ``a`` kills the other blocks below and divides none of the other
    blocks here."""
    out = {}
    for d, here in layout.items():
        below = layout.get((d[0], d[1] - 1))
        if below is None or any(
                (xd, off) != (hxd, hoff)
                for (_, xd, off), (_, hxd, hoff) in zip(below, here)):
            continue
        n = min(len(below), len(here))
        if (not any(multiply(A, mono) for mono, _, _ in below[n:])
                and not any(mono.cone == "-" or mono.e1
                            for mono, _, _ in here[n:])):
            out[d] = n
    return out


@pytest.mark.parametrize("w", [Window(-9, 9, -5, 4), Window(-4, 6, -3, 0),
                               Window(-6, 8, -7, -2), Window(-6, 3, 1, 6)],
                         ids=["both", "to-twist-0", "negative", "positive"])
def test_the_layout_walk_carries_what_the_layout_comparison_finds(
        monkeypatch, w):
    """The carries ``apply_r`` and ``mod_a`` decide per twist equal those
    read back from their layouts degree by degree; ``mod_a``, with one
    monomial ``s^k`` per twist, has none."""
    built = []
    real = rfun._build

    def recording(src, dst, shift, rule):
        built.append(src)
        return real(src, dst, shift, rule)

    monkeypatch.setattr(rfun, "_build", recording)
    lo, hi = required_bottom(w), required_top(w)
    for m in [std_f(), std_a1(), *(std_pn(n, lo, hi) for n in range(4)),
              std_bv(2, lo, hi)]:
        rm = apply_r(m, w)
        assert rm.ext.carries == _ref_carries(rm.ext.layout)
        assert any(rm.ext.carries.values()) == (w.k_lo < w.k_hi)
        built.clear()
        mod_a(m, w)
        for ext in built:
            assert ext.carries == _ref_carries(ext.layout) == {}


@st.composite
def named_modules(draw):
    """Modules with zero actions whose names hold ``|`` and pieces of
    monomial and Tate names: read from a module file, where each name is
    one generator, or built directly, where a name may recur in other
    degrees."""
    names = st.text("|1asAS.2uv", min_size=1, max_size=4).filter(
        lambda n: n != "0")
    if draw(st.booleans()):
        gens = draw(st.lists(names, min_size=1, max_size=6, unique=True))
        lines = ["kind a1", "window -20 30 0 0"] + [
            f"gen {n} {draw(st.integers(-3, 3))}" for n in gens]
        return module_file_to_a1(parse_module_file("\n".join(lines)))
    basis = {d: draw(st.lists(names, max_size=3, unique=True))
             for d in range(-3, 4)}
    return A1Module(basis, {}, {}, -20, 30, -20, 30)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_and_tate_bases_name_each_vector_once(data):
    """The bases that ``apply_r``, ``mod_a`` and the Tate terms build from
    runs are kept unchecked; their names are distinct, for modules whose
    own names hold ``|`` and, under the Tate terms over a space, recur
    from degree to degree."""
    w = data.draw(windows())
    m = data.draw(named_modules() | base_modules(required_top(w)))
    if m.complete_hi < required_top(w):
        return
    rm = apply_r(m, w)
    small = Window(0, 4, 0, 2)
    sp = GradedSpace(small, {d: data.draw(st.lists(
        st.sampled_from(["x", "u0|x", "v0|x", "1|x"]), max_size=2,
        unique=True)) for d in small.degrees()})
    flat = EModule(sp, GradedMap(sp, sp, (1, 0)), GradedMap(sp, sp, (2, 1)),
                   small)
    spaces = [rm.emod.space, mod_a(m, w).space]
    for em in (rm.emod, flat):
        spaces += [t.space for t in tate_complex(em, -2, 2).terms.values()]
    for sp in spaces:
        for d in sp.degrees():
            names = list(sp.names(d))
            assert len(set(names)) == len(names), d


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
        def built(d):
            return d in rm.ext.layout and add_deg(d, shift) in rm.ext.layout

        # exactly the monomials of blocks not derived from the twist below:
        # where the degree one twist below is built, every block but the
        # new s^k one is ``a`` times a block there
        want = {mono for d, entries in rm.ext.layout.items()
                if built(d)
                for mono, _, _ in entries
                if not built((d[0], d[1] - 1))
                or (mono.cone == "+" and not mono.e1)}
        every = {mono for d, entries in rm.ext.layout.items()
                 if built(d) for mono, _, _ in entries}
        assert sorted(seen, key=str) == sorted(want, key=str), shift
        assert len(want) < len(every), shift
    # the mod-a layout has one monomial per twist, which is not ``a`` times
    # the one below, so every block runs the rule
    del calls[:]
    fm = mod_a(std_bv(2, 1, required_top(w)), Window(-8, 8, 0, 4))
    for shift, seen in calls:
        want = {CoeffMonomial("+", 0, d[1]) for d in fm.space.basis
                if fm.space.dim(add_deg(d, shift))}
        assert sorted(seen, key=str) == sorted(want, key=str), shift
    rf = apply_r(std_f(0), w)
    del calls[:]
    lift_map(A1Map(std_f(0), std_f(0), {0: F2Matrix.identity(1)}), rf, rf)
    (shift, seen), = calls
    assert shift == (0, 0) and len(seen) == len(set(seen)) > 1


# -- the duality and cone checks against name-keyed references --------------------
#
# The references read the structure off the basis names: the monomial
# before ``|``, the dual marker ``^`` after it, and the cone from the first
# letter of the monomial.  They call ``rfun.apply_r`` at call time, so a
# patched builder reaches both sides of a comparison.


def _ref_psi_duality(m, w):
    lhs = rfun.apply_r(dual_a1(m), w)
    wref = Window(2 - w.m_hi, 2 - w.m_lo, -2 - w.k_hi, -2 - w.k_lo)
    rhs = rfun.apply_r(m, wref)
    rsp = rhs.emod.space

    def reflect(d):
        return (2 - d[0], -2 - d[1])

    def pair_name(name):
        mono, xdual = _ref_decompose(name)
        xplain = xdual[:-1] if xdual.endswith("^") else xdual
        return f"{cf.duality_w(mono).name()}|{xplain}"

    checked = 0
    for d in w.degrees():
        lnames = lhs.emod.space.names(d)
        if sorted(pair_name(n) for n in lnames) != sorted(rsp.names(reflect(d))):
            return False, f"pairing bijection fails at {d}", checked
        checked += 1
    for shift, lmap, rmap in (((1, 0), lhs.emod.q0, rhs.emod.q0),
                              ((2, 1), lhs.emod.q1, rhs.emod.q1)):
        for d in w.degrees():
            td = add_deg(d, shift)
            if not w.contains(td):
                continue
            tnames = lhs.emod.space.names(td)
            for i, n in enumerate(lhs.emod.space.names(d)):
                v = lmap.apply(d, 1 << i)
                lhs_set = {pair_name(tn) for j, tn in enumerate(tnames)
                           if (v >> j) & 1}
                ydeg = reflect(d)
                zdeg = (ydeg[0] - shift[0], ydeg[1] - shift[1])
                blk = rmap.block(zdeg)
                yi = rsp.index(ydeg, pair_name(n))
                rhs_set = {zn for zi, zn in enumerate(rsp.names(zdeg))
                           if blk.rows[zi] >> yi & 1}
                if lhs_set != rhs_set:
                    return False, (f"commutation with shift {shift} fails "
                                   f"at {d} on {n}"), checked
    return True, ("bijection commuting with both differentials on "
                  f"{checked} degrees"), checked


def _ref_cone_separation(rm):
    def cone_of_name(name):
        return "-" if name[0] in "AS" else "+"

    sp = rm.emod.space
    for mp in (rm.emod.q0, rm.emod.q1):
        for d, blk in mp.blocks.items():
            tnames = sp.names(add_deg(d, mp.shift))
            for i, n in enumerate(sp.names(d)):
                for j, tn in enumerate(tnames):
                    if blk.rows[i] >> j & 1 and cone_of_name(tn) != cone_of_name(n):
                        return False
    return True


DUALITY_SUITE = [(std_f(), Window(-8, 8, -4, 4)),
                 (std_a1(), Window(-10, 10, -5, 5)),
                 (std_p(1, 26), Window(-9, 9, -4, 4))]
# "x" < "xA" but "xA^" < "x^": the pairing permutes the dual basis
SWAPPED = A1Module({0: ["x", "xA"], 1: ["y"]},
                   {0: F2Matrix.from_rows([1, 0], 1)}, {}, 0, 1,
                   -math.inf, math.inf)


def _report(cert):
    return cert.ok, cert.detail, cert.checked_degrees


@pytest.mark.parametrize("m,w", DUALITY_SUITE + [(SWAPPED, Window(-6, 6, -3, 3))],
                         ids=["F", "A1", "P", "swapped"])
def test_psi_duality_matches_name_keyed_reference(m, w):
    got = _report(psi_duality(m, w))
    assert got == _ref_psi_duality(m, w)
    assert got[0]


def _marked_twice(m):
    """``m`` with ``^^`` appended to every name: the same module."""
    return A1Module({d: [n + "^^" for n in ns] for d, ns in m.basis.items()},
                    m.sq1, m.sq2, m.lo, m.hi, m.complete_lo, m.complete_hi)


@pytest.mark.parametrize("m", [dual_a1(std_p(1, 26)), dual_a1(std_a1()),
                               _marked_twice(std_a1())],
                         ids=["dual-P", "dual-A1", "A1-marked-twice"])
def test_psi_duality_holds_on_modules_named_as_duals(m):
    """Base names ending in ``^`` pair with their duals: the name-keyed
    version stripped the marker from the wrong side and reported a
    failed bijection here.  Names ending in ``^^`` lose one marker in the
    dual, so the dual names are paired as ``dual_a1`` made them."""
    cert = psi_duality(m, Window(-9, 9, -4, 4))
    assert _report(cert) == (
        True, "bijection commuting with both differentials on 171 degrees", 171)


def _flip(rm, which, d, i, j):
    """``rm`` with entry (i, j) of the ``which`` block at ``d`` flipped."""
    em = rm.emod
    mp = getattr(em, which)
    blk = mp.block(d)
    rows = list(blk.rows)
    rows[i] ^= 1 << j
    flipped = GradedMap(mp.source, mp.target, mp.shift,
                        {**mp.blocks, d: F2Matrix.from_rows(rows, blk.ncols)})
    maps = {"q0": em.q0, "q1": em.q1, which: flipped}
    return rfun.RModule(rm.base, EModule(em.space, maps["q0"], maps["q1"],
                                         em.complete), rm.ext)


def test_psi_duality_matches_reference_with_one_flipped_bit(monkeypatch):
    """One entry of ``q0`` or ``q1`` flipped in either extension that the
    check builds: both versions give the same report, and every flip is
    caught."""
    import random
    real = rfun.apply_r
    rng = random.Random(20261018)
    caught = 0
    for trial in range(60):
        m, w = DUALITY_SUITE[trial % 3]
        side, which = rng.randrange(2), rng.choice(["q0", "q1"])
        calls = []

        def patched(base, win):
            rm = real(base, win)
            calls.append(rm)
            if len(calls) % 2 != side:
                return rm
            mp = getattr(rm.emod, which)
            sp = rm.emod.space
            degs = [d for d in sp.degrees() if sp.dim(add_deg(d, mp.shift))]
            d = rng.choice(degs)
            return _flip(rm, which, d, rng.randrange(sp.dim(d)),
                         rng.randrange(sp.dim(add_deg(d, mp.shift))))

        monkeypatch.setattr(rfun, "apply_r", patched)
        state = rng.getstate()
        got = _report(psi_duality(m, w))
        rng.setstate(state)          # the reference sees the same flip
        assert got == _ref_psi_duality(m, w), trial
        caught += not got[0]
    assert caught == 60


def test_psi_duality_reports_an_unpaired_basis_like_the_reference(monkeypatch):
    real = rfun.apply_r
    calls = []

    def patched(base, win):
        calls.append(base)
        # the right side built on a suspension: no block pairs off
        return real(suspend(base, 1) if len(calls) % 2 == 0 else base, win)

    monkeypatch.setattr(rfun, "apply_r", patched)
    for m, w in DUALITY_SUITE:
        got = _report(psi_duality(m, w))
        assert not got[0] and "pairing bijection fails" in got[1]
        assert got == _ref_psi_duality(m, w)


@pytest.mark.parametrize("m,w", DUALITY_SUITE + [
    (std_bv(2, 1, 14), Window(-6, 10, -3, 3)),
    (dual_a1(std_p(1, 20)), Window(-10, 4, -5, 2))],
    ids=["F", "A1", "P", "BV2", "dual-P"])
def test_cone_separation_matches_name_keyed_reference(m, w):
    rm = apply_r(m, w)
    assert cone_crossing(rm) is None and _ref_cone_separation(rm) is True


def test_cone_separation_catches_a_crossing_entry():
    """A hand-made extension whose differential sends a positive-cone
    block into a negative-cone block."""
    base = A1Module({0: ["x"], 1: ["y"]}, {}, {}, 0, 1, 0, 1)
    plus, minus = CoeffMonomial("+", 0, 0), CoeffMonomial("-", 1, 0)
    w = Window(0, 1, 0, 0)
    space = GradedSpace(w, {(0, 0): ["1|x"], (1, 0): ["A1.S2|y"]})
    q0 = GradedMap(space, space, (1, 0), {(0, 0): F2Matrix.from_rows([1], 1)})
    ext = rfun.Extension(
        space, {(0, 0): [(plus, 0, 0)], (1, 0): [(minus, 1, 0)]},
        {plus: 0, minus: 1}, {(0, 0): {0: 0}, (1, 0): {1: 0}}, {})
    rm = rfun.RModule(base, EModule(space, q0, GradedMap(space, space, (2, 1)),
                                    w), ext)
    assert cone_crossing(rm) == (0, 0) and _ref_cone_separation(rm) is False
