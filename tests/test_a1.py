"""Module layer over the Sq1/Sq2 algebra: standard modules, duality,
reduction, covers and loops, checked against direct evaluation oracles."""

import math
import time
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtool import a1
from krtool.a1 import (
    A1_SQ1,
    A1_SQ2,
    A1_OPS,
    A1_WORDS,
    A1Map,
    A1Module,
    ReduceResult,
    _submodule,
    direct_sum_a1,
    dual_a1,
    free_generators,
    generator_degrees,
    is_reduced,
    loop_power,
    margolis,
    proj_cover_and_loop,
    reduce,
    socle_dims,
    stable_evidence,
    std_a1,
    std_bv,
    std_f,
    std_p,
    std_pn,
    suspend,
    tensor_a1,
    Violation,
    validate,
)
from krtool.gf2 import Echelon, F2Matrix, left_kernel_basis, rank, row_basis
from krtool.graded import (
    GradedMap,
    GradedSpace,
    OperatorPair,
    Window,
    hom_space,
    identity_map,
)

from conftest import ELEMENTS, apply_element, by_name, flip_sq2_at_2


def total_square_sq(i, s):
    """Coefficient of Sq^i on the s-th power class, from the squaring rule."""
    return comb(s, i) % 2


def test_std_a1_shape():
    m = std_a1()
    assert m.total_dim() == 8
    assert [m.dim(d) for d in range(7)] == [1, 1, 1, 2, 1, 1, 1]
    assert validate(m) == []


def test_std_a1_margolis_vanish():
    m = std_a1()
    assert margolis(m, "q0") == {}
    assert margolis(m, "q1") == {}


def test_margolis_refuses_an_unknown_operation():
    with pytest.raises(ValueError, match="unknown operation 'Q1'"):
        margolis(std_a1(), "Q1")


def test_margolis_refuses_an_operation_whose_square_is_not_zero():
    # Sq1 Sq1 sends x0 to x2, so the homology at degree 1 has no dimension
    one = F2Matrix.identity(1)
    m = A1Module({0: ["x0"], 1: ["x1"], 2: ["x2"]}, {0: one, 1: one}, {},
                 0, 2, -math.inf, math.inf)
    with pytest.raises(ValueError, match=r"^Sq1 Sq1 = 0 fails at degree 0$"):
        margolis(m, "q0")


def test_std_f_and_unit():
    f = std_f()
    assert f.total_dim() == 1 and validate(f) == []
    p = std_p(1, 12)
    t = tensor_a1(f, p)
    assert t.dims() == p.dims()


def test_std_p_actions_match_squaring_oracle():
    p = std_p(1, 20)
    assert validate(p) == []
    for s in range(1, 15):
        i = p.names(s).index(f"x{s}")
        sq1 = p.apply_sq1(s, 1 << i)
        sq2 = p.apply_sq2(s, 1 << i)
        assert (sq1 != 0) == (total_square_sq(1, s) == 1)
        assert (sq2 != 0) == (total_square_sq(2, s) == 1)
    assert p.apply_sq1(1, 1) != 0          # bottom class maps to the square
    assert p.apply_sq2(1, 1) == 0
    assert p.apply_sq2(2, 1) != 0


def test_std_p_corrupted_table_fails_validation():
    import krtool.a1 as a1mod
    from krtool.gf2 import F2Matrix

    p = std_p(1, 12)
    # fake arrow out of the degree-4 class breaks the square-one relation
    sq1 = dict(p.sq1)
    sq1[4] = F2Matrix.from_rows([1], 1)
    broken = a1mod.A1Module(p.basis, sq1, p.sq2, p.lo, p.hi,
                            p.complete_lo, p.complete_hi)
    bad = validate(broken)
    assert any(v.degree == 3 and v.relation.startswith("Sq1") for v in bad)
    # zeroing the square on the degree-2 class, by contrast, still
    # satisfies both relations (the result is a different module)
    sq2 = dict(p.sq2)
    del sq2[2]
    still_ok = a1mod.A1Module(p.basis, p.sq1, sq2, p.lo, p.hi,
                              p.complete_lo, p.complete_hi)
    assert validate(still_ok) == []


def test_std_pn_tables_validate():
    for n in range(-2, 7):
        m = std_pn(n, -30, 26)
        assert validate(m) == [], f"companion {n}"


def test_std_pn_is_periodic_by_eight_in_fours():
    """The companion four steps on is the companion moved up by eight,
    block for block, with the same range of exactness."""
    for i in range(6):
        got, moved = std_pn(i + 4, 6, 34), suspend(std_pn(i, -2, 26), 8)
        assert got.dims() == moved.dims(), i
        assert (got.sq1, got.sq2) == (moved.sq1, moved.sq2), i
        assert (got.lo, got.hi, got.complete_lo, got.complete_hi) == \
            (moved.lo, moved.hi, moved.complete_lo, moved.complete_hi), i


def test_std_pn2_named_classes():
    m = std_pn(2, 0, 20)
    i = m.names(2).index("y2")
    assert m.vector_name(3, m.apply_sq1(2, 1 << i)) == "y3"
    j = m.names(3).index("x3")
    assert m.vector_name(4, m.apply_sq1(3, 1 << j)) == "x4"
    # the degree-4 class supports the square into the degree-6 named class
    k = m.names(4).index("x4")
    assert m.vector_name(6, m.apply_sq2(4, 1 << k)) == "y6"


def test_socles_match_patterns():
    w = 24
    assert socle_dims(std_pn(0, -2, w)) == {d: 1 for d in range(0, w - 1, 4)}
    assert socle_dims(std_pn(1, 0, w)) == {d: 1 for d in range(4, w - 1, 4)}
    s2 = socle_dims(std_pn(2, 0, w))
    assert s2 == {6: 1, **{d: 1 for d in range(8, w - 1, 4)}}
    s3 = socle_dims(std_pn(3, 0, w))
    assert s3 == {7: 1, **{d: 1 for d in range(8, w - 1, 4)}}


def test_socle_std_a1_top_class():
    assert socle_dims(std_a1()) == {6: 1}


def test_socle_window_stability():
    small = socle_dims(std_pn(2, 0, 20))
    large = socle_dims(std_pn(2, 0, 28))
    for d in range(0, 19):
        assert small.get(d, 0) == large.get(d, 0)


def test_dual_a1_involution_and_shape():
    m = std_pn(2, 0, 14)
    dd = dual_a1(dual_a1(m))
    assert dd.basis == m.basis
    d = dual_a1(std_a1())
    assert [d.dim(i) for i in range(-6, 1)] == [1, 1, 1, 2, 1, 1, 1]
    assert validate(d) == []


def test_dual_a1_of_free_is_shifted_free():
    d = dual_a1(std_a1())
    s = std_a1(-6)
    assert d.dims() == s.dims()
    for which in ("q0", "q1"):
        assert margolis(d, which) == {}


def test_dual_f_fixed():
    d = dual_a1(std_f())
    assert d.dims() == {0: 1}


def test_margolis_p_acyclic():
    p = std_p(1, 20)
    assert margolis(p, "q0") == {}


def test_margolis_f():
    assert margolis(std_f(), "q0") == {0: 1}


def test_suspension_keeps_unbounded_range():
    m = suspend(std_f(0), -3)
    assert (m.complete_lo, m.complete_hi) == (-math.inf, math.inf)
    assert m.trusted_degrees(6) == [-3]


def test_tensor_with_negatively_suspended_factor_is_exact_everywhere():
    for t in (-1, 1):
        m = tensor_a1(suspend(std_a1(), t), std_a1())
        assert m.complete_hi == math.inf, t
        assert validate(m) == []


def test_trusted_degrees_respect_the_complete_range():
    p = std_p(1, 12)
    assert p.trusted_degrees() == list(range(1, 13))
    assert p.trusted_degrees(6) == list(range(1, 7))
    assert reduce(p).certified_hi == 6
    assert reduce(std_a1()).certified_hi == math.inf


def test_tensor_validates_and_margolis_matches_companion():
    p = std_p(1, 20)
    pp = tensor_a1(p, p)
    assert validate(pp) == []
    p2 = std_pn(2, 0, pp.complete_hi)
    ma = margolis(pp, "q1")
    mb = margolis(p2, "q1")
    for d in range(2, 14):
        assert ma.get(d, 0) == mb.get(d, 0), f"degree {d}"


def test_reduce_free_module():
    r = reduce(std_a1())
    assert r.module.total_dim() == 0
    assert r.free_gens == [0]


def test_reduce_p_untouched():
    p = std_p(1, 20)
    r = reduce(p)
    assert r.free_gens == []
    assert r.module.dims() == p.dims()
    assert is_reduced(p)


def test_reduce_idempotent_on_tensor_square():
    pp = tensor_a1(std_p(1, 18), std_p(1, 18))
    r = reduce(pp)
    again = reduce(r.module)
    assert again.free_gens == []
    # reduced part matches the second companion on the certified range
    p2 = std_pn(2, 0, 24)
    for d in range(2, r.certified_hi + 1):
        assert r.module.dim(d) == p2.dim(d), f"degree {d}"


def test_reduce_rank_three_within_budget():
    start = time.perf_counter()
    r = reduce(std_bv(3, 1, 14))
    seconds = time.perf_counter() - start
    assert r.free_gens == [4] * 8 + [5] * 3 + [6] * 6 + [7] * 3 + [8] * 15
    assert seconds < 1, f"reduce took {seconds:.1f}s"


def test_reduce_rank_three_large_window_within_budget():
    start = time.perf_counter()
    r = reduce(std_bv(3, 1, 21))
    seconds = time.perf_counter() - start
    assert len(r.free_gens) == 140
    assert seconds < 2, f"reduce took {seconds:.1f}s"


def test_reduce_rejects_nonzero_top_operation_on_a_non_free_module(
        monkeypatch):
    # Sq2 Sq2 Sq2 is nonzero on the bottom class, but Sq2 Sq2 is not
    # Sq1 Sq2 Sq1 there: the classes do not form a free module
    m = A1Module({0: ["g"], 2: ["a"], 4: ["b"], 6: ["c"]}, {},
                 {d: F2Matrix.from_rows([1], 1) for d in (0, 2, 4)},
                 0, 6, -math.inf, math.inf)
    with pytest.raises(ValueError, match="not a module over the algebra: "
                                         "Sq2 Sq2 = Sq1 Sq2 Sq1 fails at "
                                         "degree 0 on g"):
        reduce(m)
    # past the relation check, the split's own guard still refuses it
    monkeypatch.setattr(a1, "validate", lambda m: [])
    with pytest.raises(RuntimeError, match="generators in degree 0 are "
                                           "dependent"):
        reduce(m)


@pytest.mark.parametrize("split", [
    free_generators,
    reduce,
    lambda m: stable_evidence(tensor_a1(std_p(1, 26), std_p(1, 26)), m),
    lambda m: loop_power(m, 4),
], ids=["free_generators", "reduce", "stable_evidence", "loop_power"])
def test_splits_name_the_broken_relation_of_a_flipped_companion(split):
    witness = "Sq2 Sq2 = Sq1 Sq2 Sq1 fails at degree 2 on y2"
    m = flip_sq2_at_2(std_pn(2, 0, 26))
    assert str(validate(m)[0]) == witness
    with pytest.raises(ValueError, match=f"not a module over the algebra: "
                                         f"{witness}"):
        split(m)


# -- the per-summand retraction route, kept as the reference for ``reduce`` --

def _ref_cyclic_span(m, d0, bits):
    """Row basis of the submodule generated by one vector of degree d0."""
    vecs = {d0: [bits]}
    spans = {d0: Echelon(vecs[d0])}
    frontier = [(d0, bits)]
    while frontier:
        d, v = frontier.pop()
        for reach in (1, 2):
            img = m.apply_sq1(d, v) if reach == 1 else m.apply_sq2(d, v)
            if img and spans.setdefault(d + reach, Echelon()).add(img):
                vecs.setdefault(d + reach, []).append(img)
                frontier.append((d + reach, img))
    return {d: row_basis(F2Matrix.from_rows(v, m.dim(d)))
            for d, v in vecs.items()}


def _ref_retraction_kernel(m, cyc):
    """Kernel of a module retraction onto the free cyclic summand ``cyc``."""
    sub = _submodule(m, cyc, "c")
    space, sub_space = m.space(), sub.space()
    inclusion = GradedMap(sub_space, space, (0, 0),
                          {(d, 0): b for d, b in cyc.items()})
    ops = [OperatorPair("sq1", m.sq1_map(), sub.sq1_map()),
           OperatorPair("sq2", m.sq2_map(), sub.sq2_map())]
    retraction = hom_space(space, sub_space, (0, 0), ops,
                           Window(m.complete_lo, m.complete_hi, 0, 0),
                           unit=(inclusion, identity_map(sub_space)))
    assert retraction is not None, "summand not split"
    return {d: left_kernel_basis(retraction.block((d, 0))) if d in cyc
            else F2Matrix.identity(m.dim(d)) for d in m.degrees()}


def reference_reduce(m):
    """Split one cyclic summand at a time: the first basis vector in
    canonical order not killed by Sq2 Sq2 Sq2 generates it, a retraction
    solve splits it off, and the scan restarts on the complement."""
    certified_hi = m.complete_hi - 6
    if certified_hi < m.complete_lo and m.total_dim():
        raise ValueError("window too narrow to certify reduction")
    cur, gens = m, []
    progress = True
    while progress:
        progress = False
        for d in cur.trusted_degrees(6):
            hit = next((1 << i for i in range(cur.dim(d))
                        if apply_element(cur, "theta", d, 1 << i)), None)
            if hit is None:
                continue
            cyc = _ref_cyclic_span(cur, d, hit)
            assert sum(b.nrows for b in cyc.values()) == 8
            cur = _submodule(cur, _ref_retraction_kernel(cur, cyc), "r")
            gens.append(d)
            progress = True
            break
    return ReduceResult(cur, sorted(gens), certified_hi)


@st.composite
def leaf_modules(draw, hi):
    """A standard module, suspended at random where it has a shift."""
    which = draw(st.sampled_from(["f", "a1", "p", "pn"]))
    if which == "f":
        return std_f(draw(st.integers(-3, 3)))
    if which == "a1":
        return std_a1(draw(st.integers(-6, 4)))
    if which == "p":
        return std_p(1, hi)
    return std_pn(draw(st.integers(-1, 4)), -8, hi)


@st.composite
def composite_modules(draw, duals=False):
    """Direct sums, tensors and suspensions (and duals, if asked for) of
    the standard modules."""
    hi = draw(st.integers(8, 16))
    shapes = ["suspend", "sum", "tensor"] + (["dual"] if duals else [])
    m = draw(leaf_modules(hi))
    for _ in range(draw(st.integers(0, 2))):
        shape = draw(st.sampled_from(shapes))
        if shape == "suspend":
            m = suspend(m, draw(st.integers(-3, 3)))
        elif shape == "dual":
            m = dual_a1(m)
        elif shape == "sum":
            m = direct_sum_a1([m, draw(leaf_modules(hi))], ["u.", "v."])
        # tensor_a1 rejects the zero module and factors cut off below
        elif m.bottom() is not None and m.is_complete_below():
            m = tensor_a1(m, draw(leaf_modules(hi)), hi=hi)
    return m


@settings(max_examples=100, deadline=None)
@given(composite_modules())
def test_reduce_matches_per_summand_retraction_reference(m):
    try:
        want = reference_reduce(m)
    except ValueError:
        with pytest.raises(ValueError, match="window too narrow"):
            reduce(m)
        return
    got = reduce(m)
    assert got.free_gens == want.free_gens
    assert got.certified_hi == want.certified_hi
    assert got.module.basis == want.module.basis
    for which in ("q0", "q1"):
        assert margolis(got.module, which) == margolis(want.module, which)
    assert is_reduced(got.module) and is_reduced(want.module)
    assert validate(got.module) == []
    # reduction is idempotent: a module without free summands comes back as is
    assert reduce(got.module).module is got.module


# -- the free generators counted by the rank of theta, against two oracles --

@st.composite
def summed_modules(draw):
    """Direct sums of suspended free modules, loop companions, companions
    tensored with ``P`` and group cohomologies of rank at most 3, all cut
    at one random top degree."""
    hi = draw(st.integers(8, 18))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        which = draw(st.sampled_from(["a1", "pn", "pn*p", "bv"]))
        if which == "a1":
            parts.append(std_a1(draw(st.integers(-6, 10))))
        elif which == "pn":
            parts.append(std_pn(draw(st.integers(-1, 4)), -8, hi))
        elif which == "pn*p":
            parts.append(tensor_a1(std_pn(draw(st.integers(0, 3)), -8, hi),
                                   std_p(1, hi), hi=hi))
        else:
            parts.append(std_bv(draw(st.integers(1, 3)), 1, hi))
    return direct_sum_a1(parts, [f"s{j}." for j in range(len(parts))])


@settings(max_examples=100, deadline=None)
@given(summed_modules())
def test_free_generators_match_the_constructive_split(m):
    red = reduce(m)
    assert free_generators(m) == (Counter(red.free_gens), red.certified_hi)


@pytest.mark.parametrize("n, total", [(1, 0), (2, 15), (3, 140), (4, 821)])
def test_free_generators_match_the_poincare_series_quotient(n, total):
    """The group cohomology is the sum of C(n, i) copies of each companion
    P_i and a free module (Brown-Ossa), so the series of the free
    generators is the excess of its series over the companions' divided by
    the series of the free rank-one module: exact through ``hi``, with no
    negative coefficient, and equal to the count through ``certified_hi``."""
    hi = 21
    bv = std_bv(n, 1, hi)
    companions = [std_pn(i, 1, hi) for i in range(1, n + 1)]
    free_series = Counter(d for _, d in A1_WORDS)
    quotient: dict[int, int] = {}
    for d in range(1, hi + 1):
        excess = bv.dim(d) - sum(comb(n, i) * p.dim(d)
                                 for i, p in enumerate(companions, 1))
        quotient[d] = excess - sum(free_series[j] * quotient.get(d - j, 0)
                                   for j in range(1, 7))
    assert min(quotient.values()) >= 0, quotient
    gens, certified_hi = free_generators(bv)
    assert certified_hi == hi - 6
    assert gens == {d: q for d, q in quotient.items()
                    if q and d <= certified_hi}
    assert sum(gens.values()) == total


def test_free_generators_name_the_first_broken_relation():
    p = std_p(1, 14)
    # Sq2 on the bottom class, which P does not have: then Sq2 Sq2 x1 = x5
    # while Sq1 Sq2 Sq1 x1 = 0
    sq2 = dict(p.sq2)
    sq2[1] = F2Matrix.from_rows([1], 1)
    broken = A1Module(p.basis, p.sq1, sq2, p.lo, p.hi,
                      p.complete_lo, p.complete_hi)
    witness = "Sq2 Sq2 = Sq1 Sq2 Sq1 fails at degree 1 on x1"
    assert str(validate(broken)[0]) == witness
    with pytest.raises(ValueError, match=witness):
        free_generators(broken)


def test_free_generators_refuse_a_window_too_narrow_to_certify():
    # P cut at 8 and a dual P complete from 3 up: complete on 3..8, one
    # degree short of theta's reach
    p = std_p(1, 8)
    narrow = direct_sum_a1([p, suspend(dual_a1(p), 11)], ["p.", "d."])
    assert (narrow.complete_lo, narrow.complete_hi) == (3, 8)
    assert validate(narrow) == []
    for split in (free_generators, reduce):
        with pytest.raises(ValueError, match="window too narrow"):
            split(narrow)
    wide = direct_sum_a1([p, suspend(dual_a1(p), 10)], ["p.", "d."])
    assert free_generators(wide) == (Counter(reduce(wide).free_gens), 2)


# -- the per-vector evaluation, kept as the reference for ``op`` and ``validate``


def ref_validate(m):
    """``validate`` as it was before ``A1Module.op``: each relation's defect
    applied to one basis vector at a time."""
    def sq1sq1(d, v):
        return m.apply_sq1(d + 1, m.apply_sq1(d, v))

    def adem(d, v):
        return (m.apply_sq2(d + 2, m.apply_sq2(d, v))
                ^ m.apply_sq1(d + 3, m.apply_sq2(d + 1, m.apply_sq1(d, v))))

    out = [Violation(relation, d, name)
           for relation, reach, defect in (("Sq1 Sq1 = 0", 2, sq1sq1),
                                           ("Sq2 Sq2 = Sq1 Sq2 Sq1", 4, adem))
           for d in m.trusted_degrees(reach)
           for i, name in enumerate(m.names(d)) if defect(d, 1 << i)]
    return sorted(out, key=lambda v: v.degree)


@st.composite
def modules_maybe_broken(draw):
    """A composite module with duals, or one with a single bit of a Sq1 or
    Sq2 block flipped, which usually breaks a relation."""
    m = draw(composite_modules(duals=True))
    spots = [(reach, d) for d in m.degrees() for reach in (1, 2)
             if m.dim(d + reach)]
    if not spots or not draw(st.booleans()):
        return m
    reach, d = draw(st.sampled_from(spots))
    i = draw(st.integers(0, m.dim(d) - 1))
    j = draw(st.integers(0, m.dim(d + reach) - 1))
    blocks = {1: dict(m.sq1), 2: dict(m.sq2)}
    blk = m.sq1_block(d) if reach == 1 else m.sq2_block(d)
    rows = list(blk.rows)
    rows[i] ^= 1 << j
    blocks[reach][d] = F2Matrix.from_rows(rows, blk.ncols)
    return A1Module(m.basis, blocks[1], blocks[2], m.lo, m.hi,
                    m.complete_lo, m.complete_hi)


@settings(max_examples=100, deadline=None)
@given(modules_maybe_broken())
def test_op_matches_the_per_vector_reference(m):
    assert list(A1_OPS) == list(ELEMENTS)
    for name in A1_OPS:
        first = ELEMENTS[name].split(" + ")[0].split()
        reach = sum({"Sq1": 1, "Sq2": 2}.get(f, 0) for f in first)
        for d in range(min(m.degrees(), default=0) - 1,
                       max(m.degrees(), default=0) + 2):
            got = m.op(name, d)
            assert (got.nrows, got.ncols) == (m.dim(d), m.dim(d + reach))
            assert list(got.rows) == [apply_element(m, name, d, 1 << i)
                                      for i in range(m.dim(d))], (name, d)


@settings(max_examples=100, deadline=None)
@given(modules_maybe_broken())
def test_validate_matches_the_per_vector_reference(m):
    assert validate(m) == ref_validate(m)


# -- the name-keyed builders, kept as the reference for the block builders --

def _ref_module(basis, images1, images2, lo, hi, c_lo, c_hi):
    """Look every action target up by name."""
    names = {d: tuple(ns) for d, ns in basis.items() if ns}
    where = {d: {n: i for i, n in enumerate(ns)} for d, ns in names.items()}

    def blocks(images, reach):
        out = {}
        for d, ns in names.items():
            tgt = where.get(d + reach, {})
            rows = []
            for n in ns:
                bits = 0
                for t in images.get((d, n), ()):
                    bits ^= 1 << tgt[t]
                rows.append(bits)
            out[d] = F2Matrix.from_rows(rows, len(tgt))
        return out

    return A1Module(names, blocks(images1, 1), blocks(images2, 2),
                    lo, hi, c_lo, c_hi)


def _ref_named(m, d, bits, rename):
    return tuple(rename(n) for j, n in enumerate(m.names(d)) if (bits >> j) & 1)


def _ref_copy(m, t, rename, basis, im1, im2):
    """Add ``m`` shifted by ``t`` and renamed to the name-level tables."""
    for d in m.degrees():
        for i, n in enumerate(m.names(d)):
            name = rename(n)
            basis.setdefault(d + t, []).append(name)
            im1[d + t, name] = _ref_named(m, d + 1, m.apply_sq1(d, 1 << i), rename)
            im2[d + t, name] = _ref_named(m, d + 2, m.apply_sq2(d, 1 << i), rename)


def ref_suspend(m, t):
    if t == 0:
        return m
    basis, im1, im2 = {}, {}, {}
    _ref_copy(m, t, lambda n: f"{n}@{t}", basis, im1, im2)
    return _ref_module(basis, im1, im2, m.lo + t, m.hi + t,
                       m.complete_lo + t, m.complete_hi + t)


def ref_direct_sum(mods, tags):
    basis, im1, im2 = {}, {}, {}
    for tag, m in zip(tags, mods):
        _ref_copy(m, 0, lambda n, tag=tag: tag + n, basis, im1, im2)
    return _ref_module(basis, im1, im2, min(m.lo for m in mods),
                       max(m.hi for m in mods),
                       max(m.complete_lo for m in mods),
                       min(m.complete_hi for m in mods))


def ref_tensor(a, b, hi=None):
    """Every pair name and its Cartan images, cancelling repeated names."""
    if not (a.is_complete_below() and b.is_complete_below()):
        raise ValueError("tensor factors must be complete at the bottom")
    ab, bb = a.bottom(), b.bottom()
    if ab is None or bb is None:
        raise ValueError("tensor with the zero module")
    exact_hi = min(a.complete_hi + bb, b.complete_hi + ab)
    top = max(a.degrees()) + max(b.degrees())
    hi = hi if hi is not None else min(exact_hi, top)

    def pairs(da, va, db, vb):
        return [x + "*" + y for x in _ref_named(a, da, va, str)
                for y in _ref_named(b, db, vb, str)]

    def cancel(names):
        return tuple(n for n in dict.fromkeys(names) if names.count(n) % 2)

    basis, im1, im2 = {}, {}, {}
    for da in a.degrees():
        for db in b.degrees():
            d = da + db
            if d > hi:
                continue
            for i, x in enumerate(a.names(da)):
                for j, y in enumerate(b.names(db)):
                    name, u, v = x + "*" + y, 1 << i, 1 << j
                    basis.setdefault(d, []).append(name)
                    a1, b1 = a.apply_sq1(da, u), b.apply_sq1(db, v)
                    if d + 1 <= hi:
                        im1[d, name] = cancel(pairs(da + 1, a1, db, v)
                                              + pairs(da, u, db + 1, b1))
                    if d + 2 <= hi:
                        im2[d, name] = cancel(
                            pairs(da + 2, a.apply_sq2(da, u), db, v)
                            + pairs(da + 1, a1, db + 1, b1)
                            + pairs(da, u, db + 2, b.apply_sq2(db, v)))
    c_hi = min(exact_hi, hi if hi < top else math.inf)
    return _ref_module(basis, im1, im2, ab + bb, hi, -math.inf, c_hi)


def ref_dual(m):
    def nm(n):
        return n[:-1] if n.endswith("^") else n + "^"

    basis, im1, im2 = {}, {}, {}
    for d in m.degrees():
        basis[-d] = [nm(n) for n in m.names(d)]
    for d in m.degrees():
        for reach, im in ((1, im1), (2, im2)):
            blk = m.sq1_block(d) if reach == 1 else m.sq2_block(d)
            for j, tn in enumerate(m.names(d + reach)):
                im[-d - reach, nm(tn)] = tuple(
                    nm(sn) for i, sn in enumerate(m.names(d))
                    if blk.rows[i] >> j & 1)
    return _ref_module(basis, im1, im2, -m.hi, -m.lo,
                       -m.complete_hi, -m.complete_lo)


def ref_std_bv(n, lo, hi):
    p = std_p(lo, hi)
    powers = {1: p}
    for i in range(2, n + 1):
        powers[i] = ref_tensor(powers[i - 1], p, hi=hi)
    parts = [(f"B{i}c{c}.", powers[i]) for i in range(1, n + 1)
             for c in range(comb(n, i))]
    return ref_direct_sum([m for _, m in parts], [t for t, _ in parts])


def assert_same_module(got, want):
    assert by_name(got) == by_name(want)
    assert ((got.lo, got.hi, got.complete_lo, got.complete_hi)
            == (want.lo, want.hi, want.complete_lo, want.complete_hi))


@settings(max_examples=80, deadline=None)
@given(composite_modules(duals=True), st.data())
def test_block_builders_match_name_keyed_reference(m, data):
    hi = data.draw(st.integers(8, 16))
    other = data.draw(leaf_modules(hi))
    t = data.draw(st.integers(-3, 3))
    assert_same_module(suspend(m, t), ref_suspend(m, t))
    assert_same_module(dual_a1(m), ref_dual(m))
    assert_same_module(direct_sum_a1([m, other], ["u.", "v."]),
                       ref_direct_sum([m, other], ["u.", "v."]))
    top = data.draw(st.one_of(st.none(), st.just(hi)))
    for a, b in ((m, other), (other, m)):
        try:
            want = ref_tensor(a, b, hi=top)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                tensor_a1(a, b, hi=top)
        else:
            assert_same_module(tensor_a1(a, b, hi=top), want)


@settings(max_examples=20, deadline=None)
@given(st.lists(leaf_modules(12), min_size=11, max_size=13))
def test_direct_sum_of_many_summands_matches_reference(mods):
    tags = [f"s{i}." for i in range(len(mods))]
    assert_same_module(direct_sum_a1(mods, tags), ref_direct_sum(mods, tags))


def test_builders_keep_names_in_build_order():
    w = Window(0, 0, 0, 0)
    assert GradedSpace(w, {(0, 0): ["b", "a"]}).names((0, 0)) == ("b", "a")
    total = direct_sum_a1([std_a1(), std_a1()], ["z.", "a."])
    for d in range(7):
        assert total.names(d) == tuple(t + n for t in ("z.", "a.")
                                       for n in std_a1().names(d)), d
    # the renamed names would sort the other way round: "x10@t" before
    # "x1@t" and "x10^" before "x1^"
    m = A1Module({0: ["w"], 1: ["x1", "x10"], 2: ["y"], 3: ["z"]},
                 {0: F2Matrix.from_rows([0b10], 2),
                  1: F2Matrix.from_rows([1, 0], 1)},
                 {0: F2Matrix.from_rows([1], 1),
                  1: F2Matrix.from_rows([0, 1], 1)},
                 0, 3, -math.inf, math.inf)
    assert suspend(m, 2).names(3) == ("x1@2", "x10@2")
    assert dual_a1(m).names(-1) == ("x1^", "x10^")
    p = std_p(1, 16)
    for mod in (m, p, direct_sum_a1([p, m], ["", "q"])):
        for t in (-9, 1, 12):
            assert_same_module(suspend(mod, t), ref_suspend(mod, t))
            assert_same_module(dual_a1(suspend(mod, t)),
                               ref_dual(ref_suspend(mod, t)))
        assert_same_module(dual_a1(mod), ref_dual(mod))
        assert_same_module(dual_a1(dual_a1(mod)), mod)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_std_bv_matches_name_keyed_reference(n):
    assert_same_module(std_bv(n, 1, 21), ref_std_bv(n, 1, 21))


def test_std_bv_rank_four_within_budget():
    start = time.process_time()
    m = std_bv(4, 1, 21)
    seconds = time.process_time() - start
    assert m.total_dim() == sum(comb(d + 3, 3) for d in range(1, 22))
    assert seconds < 0.5, f"std_bv took {seconds:.2f}s"


def test_suspended_free_module_matches_its_name_table():
    # the cover's epimorphism reads the word back from the name "tag.word@t"
    for t in (-6, 0, 3):
        def nm(w):
            return w if t == 0 else f"{w}@{t}"

        basis, im1, im2 = {}, {}, {}
        for w, d in A1_WORDS:
            basis.setdefault(d + t, []).append(nm(w))
            im1[d + t, nm(w)] = tuple(nm(x) for x in A1_SQ1[w])
            im2[d + t, nm(w)] = tuple(nm(x) for x in A1_SQ2[w])
        assert_same_module(std_a1(t), _ref_module(basis, im1, im2, t, t + 6,
                                                  -math.inf, math.inf))


def test_direct_sum_refuses_a_repeated_tag_or_a_tag_count_mismatch():
    with pytest.raises(ValueError, match="repeated tag 'a.'"):
        direct_sum_a1([std_a1(), std_a1()], ["a.", "a."])
    with pytest.raises(ValueError, match="1 tags for 2 summands"):
        direct_sum_a1([std_a1(), std_a1()], ["a."])
    with pytest.raises(ValueError, match="3 tags for 2 summands"):
        direct_sum_a1([std_a1(), std_a1()], ["a.", "b.", "c."])
    assert direct_sum_a1([std_a1(), std_a1()], ["a.", "b."]).total_dim() == 16


def test_block_builders_refuse_a_repeated_name():
    # tags "a" and "ab" give "ab" + "x" twice: the sum is refused, not merged
    one = A1Module({0: ["bx"]}, {}, {}, 0, 0, -math.inf, math.inf)
    other = A1Module({0: ["x"]}, {}, {}, 0, 0, -math.inf, math.inf)
    with pytest.raises(ValueError, match="basis at 0 repeats a name"):
        direct_sum_a1([one, other], ["a", "ab"])


def test_submodule_rejects_span_not_closed_under_sq1():
    m = std_a1()
    rows = {2: F2Matrix.from_rows([1 << m.names(2).index("Sq2")], 1),
            3: F2Matrix.from_rows([1 << m.names(3).index("Q1")], 2)}
    # Sq1 Sq2 is not in the span of Q1 at degree 3
    with pytest.raises(ValueError, match="degree 2 not closed under Sq1: "
                                         "the image of Sq2 "):
        _submodule(m, rows, "s")
    # where Sq1 from degree 2 is not trusted, the image is written as zero
    cut = A1Module(m.basis, m.sq1, m.sq2, m.lo, m.hi, -math.inf, 2)
    sub = _submodule(cut, rows, "s")
    assert sub.sq1_block(2).is_zero()


def test_validate_reduced_tensor_square():
    pp = tensor_a1(std_p(1, 16), std_p(1, 16))
    r = reduce(pp)
    assert validate(r.module) == []


def test_cover_of_trivial_module():
    res = proj_cover_and_loop(std_f())
    assert res.cover.dims() == std_a1().dims()
    loop_dims = [res.loop.dim(d) for d in range(0, 7)]
    assert loop_dims == [0, 1, 1, 2, 1, 1, 1]
    # composite of inclusion then epi vanishes
    for d in res.loop.degrees():
        rows = res.loop_rows[d]
        for v in rows.rows:
            assert res.epi_blocks[d].vec_mul(v) == 0


def test_cover_generators_of_p():
    p = std_p(1, 24)
    res = proj_cover_and_loop(p)
    gens = sorted(res.gen_reps)
    assert gens[:4] == [1, 3, 7, 11]


def test_loop_of_p1_matches_suspended_p2():
    p = std_p(1, 24)
    res = proj_cover_and_loop(p)
    lred = reduce(res.loop)
    assert lred.free_gens == []
    target = suspend(std_pn(2, 0, 23), 1)
    for d in range(3, 18):
        assert lred.module.dim(d) == target.dim(d), f"degree {d}"


def test_loop_power_roundtrip():
    p2 = std_pn(2, 0, 26)
    up = loop_power(p2, 1)
    back = loop_power(up, -1)
    rep = stable_evidence(back, p2)
    assert rep.consistent, rep.detail


def test_loop_power_negative_periodicity():
    # one negative loop of the zeroth companion is the third companion
    # shifted by one step of the eightfold periodicity minus one loop
    m = loop_power(std_pn(0, -2, 26), -1)
    target = suspend(std_pn(3, 0, 34), -9)
    lo = max(min(m.degrees()), min(target.degrees()))
    hi = min(m.complete_hi, target.complete_hi) - 8
    assert hi - lo > 6
    for d in range(lo, hi + 1):
        assert m.dim(d) == target.dim(d), f"degree {d}"


def test_stable_evidence_tensor_square_vs_companion():
    pp = tensor_a1(std_p(1, 24), std_p(1, 24))
    rep = stable_evidence(pp, std_pn(2, 0, 25))
    assert rep.consistent, rep.detail


def test_stable_evidence_distinguishes_companions():
    rep = stable_evidence(std_pn(1, 0, 24), std_pn(2, 0, 24))
    assert not rep.consistent


def test_bv_dimension_series():
    for n in (1, 2, 3):
        bv = std_bv(n, 1, 14)
        for d in range(1, 13):
            assert bv.dim(d) == comb(d + n - 1, n - 1), (n, d)
        assert validate(bv) == []


def test_iso_search_finds_dual_of_free():
    from krtool.a1 import iso_search
    d = dual_a1(std_a1())
    s = std_a1(-6)
    found = iso_search(d, s, -6, 0)
    assert found is not None
    # and it rejects genuinely different modules
    assert iso_search(std_pn(1, 0, 12), std_pn(2, 0, 12), 2, 8) is None


def test_iso_search_over_budget_raises_and_does_not_answer(monkeypatch):
    pp = reduce(tensor_a1(std_p(1, 24), std_p(1, 24))).module
    p2 = reduce(std_pn(2, 0, 25)).module
    assert a1.iso_search(pp, p2, 2, 19) is not None  # three basis maps
    monkeypatch.setattr(a1, "ISO_SEARCH_BUDGET", 4)
    with pytest.raises(ValueError, match=r"3 commuting basis maps give 8 "
                                         r"sums, over ISO_SEARCH_BUDGET \(4\)"):
        a1.iso_search(pp, p2, 2, 19)


def test_iso_search_names_where_the_map_found_fails_to_commute(monkeypatch):
    # Sq1 joins the two classes of ``a`` and not those of ``b``, so the
    # identity, which a broken solver hands back, is invertible and fails
    # Sq1 at degree 0
    a = A1Module({0: ["u"], 1: ["v"]}, {0: F2Matrix.identity(1)}, {},
                 0, 1, -math.inf, math.inf)
    b = A1Module({0: ["u"], 1: ["v"]}, {}, {}, 0, 1, -math.inf, math.inf)
    ident = GradedMap(a.space(), b.space(), (0, 0),
                      {(d, 0): F2Matrix.identity(1) for d in (0, 1)})
    monkeypatch.setattr(a1, "hom_space", lambda *args: [ident])
    with pytest.raises(RuntimeError, match="iso_search: the map found fails "
                                           "Sq1 at degree 0"):
        a1.iso_search(a, b, 0, 1)


def test_stable_evidence_names_the_range_without_an_isomorphism():
    # P and a sum of trivial modules, one in each degree 1..24: the same
    # dimensions, but a map from P to the sum commutes with Sq1 only if it
    # kills x2 = Sq1 x1, so none is invertible
    p = std_p(1, 24)
    trivial = direct_sum_a1([std_f(d) for d in range(1, 25)],
                            [f"f{d}." for d in range(1, 25)])
    rep = stable_evidence(p, trivial)
    assert rep.detail == "no isomorphism on degrees [1,18]"


def test_stable_evidence_names_the_range_it_decided_on():
    rep = stable_evidence(tensor_a1(std_p(1, 24), std_p(1, 24)),
                          std_pn(2, 0, 25))
    assert rep.detail == "isomorphic on degrees [2,19]"
    rep = stable_evidence(std_pn(1, 0, 24), std_pn(2, 0, 24))
    assert rep.detail == "reduced dimensions differ at degree 1: 1 vs 0"
    # the duals are cut off below at -20 and -24: the range starts at -20
    rep = stable_evidence(dual_a1(std_p(1, 20)), dual_a1(std_p(1, 24)))
    assert rep.detail == "isomorphic on degrees [-20,-1]"
    # free modules reduce to zero, and the zero map is the isomorphism
    rep = stable_evidence(std_a1(), std_a1(3))
    assert rep.detail == "isomorphic on degrees [0,9]"


def test_loop_power_four_is_twelve_fold_suspension():
    p = std_p(1, 26)
    four = loop_power(p, 4)
    rep = stable_evidence(four, suspend(std_p(1, 14), 12))
    assert rep.consistent, rep.detail


# -- the cover's epimorphism against a name-keyed reference ------------------------

COVERED = {"P": lambda: std_p(1, 24),
           **{f"P{n}": (lambda n=n: std_pn(n, -2, 24)) for n in range(4)},
           # 33 summands, so tags of two digits
           "BV2": lambda: reduce(std_bv(2, 1, 20)).module}


def _ref_epi_rows(m, res, d):
    """The epimorphism rows at ``d`` read by splitting each cover name
    ``g<j>.<word>@<degree>`` into its summand and its word."""
    reps = [(g, v) for g in sorted(res.gen_reps) for v in res.gen_reps[g].rows]
    rows = []
    for name in res.cover.names(d):
        tag, word = name.split(".", 1)
        gd, rep = reps[int(tag[1:])]
        rows.append(apply_element(m, word.split("@", 1)[0], gd, rep))
    return rows


@pytest.mark.parametrize("name", list(COVERED))
def test_generators_complete_the_image_of_sq1_and_sq2(name):
    m = COVERED[name]()
    gens = generator_degrees(m)
    checked = [d for d in m.trusted_degrees() if m.incoming_ok(d, 2)]
    assert set(gens) <= set(checked)
    for d in checked:
        img = m.sq1_block(d - 1).rows + m.sq2_block(d - 2).rows
        reps = gens[d].rows if d in gens else ()
        n = m.dim(d)
        assert len(reps) == n - rank(F2Matrix.from_rows(img, n)), d
        assert rank(F2Matrix.from_rows(reps + img, n)) == n, d


@pytest.mark.parametrize("name", list(COVERED))
def test_cover_lists_summands_in_order_and_its_epimorphism_matches_names(name):
    m = COVERED[name]()
    res = proj_cover_and_loop(m)
    for d in res.cover.degrees():
        names = res.cover.names(d)
        summands = [int(n.split(".", 1)[0][1:]) for n in names]
        assert summands == sorted(summands), (d, names)
        assert list(res.epi_blocks[d].rows) == _ref_epi_rows(m, res, d), d
        assert res.epi_blocks[d].ncols == m.dim(d)
    # the epimorphism commutes with both operations, its kernel is the loop
    assert A1Map(res.cover, m, res.epi_blocks).commute_failure() is None
    assert validate(res.loop) == []
    for d, rows in res.loop_rows.items():
        assert all(res.epi_blocks[d].vec_mul(v) == 0 for v in rows.rows)

