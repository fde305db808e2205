"""Graded spaces and maps: duality and operator-commuting
map solving."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtool import graded
from krtool.a1 import A1Module, std_a1
from krtool.gf2 import (
    Echelon,
    F2Matrix,
    homology,
    left_kernel_basis,
    rank,
    row_basis,
)
from krtool.graded import (
    GradedMap,
    GradedSpace,
    NameRuns,
    OperatorPair,
    Subquotient,
    Window,
    add_deg,
    dual_space,
    hom_space,
    homology_at,
    identity_map,
    pair_map,
    sub_deg,
)

from conftest import image_names


def line(window, d, name="e"):
    return GradedSpace(window, {d: [name]})


def test_dual_space_involution_and_reversal():
    s = std_a1().space()
    d = dual_space(s)
    assert [d.dim((-i, 0)) for i in range(7)] == [1, 1, 1, 2, 1, 1, 1]
    dd = dual_space(d)
    assert dd.basis == s.basis


def test_hom_space_unconstrained_dimension():
    w = Window(0, 4, 0, 0)
    a = GradedSpace(w, {(0, 0): ["x"], (1, 0): ["y", "z"]})
    b = GradedSpace(w, {(0, 0): ["p", "q"], (1, 0): ["r"]})
    sols = hom_space(a, b, (0, 0), [], w)
    expected = a.dim((0, 0)) * b.dim((0, 0)) + a.dim((1, 0)) * b.dim((1, 0))
    assert len(sols) == expected


def test_hom_space_identity_only():
    w = Window(0, 0, 0, 0)
    a = line(w, (0, 0))
    sols = hom_space(a, a, (0, 0), [], w)
    assert len(sols) == 1
    assert sols[0].block((0, 0)).rows == (1,)


def test_hom_space_empty_target():
    w = Window(0, 2, 0, 0)
    a = line(w, (0, 0))
    b = GradedSpace(w, {})
    assert hom_space(a, b, (0, 0), [], w) == []


def test_hom_space_with_operator_constraint():
    # two-step string with a nilpotent operator: equivariance forces the
    # two diagonal entries equal, leaving only multiples of the identity
    w = Window(0, 1, 0, 0)
    s = GradedSpace(w, {(0, 0): ["u"], (1, 0): ["v"]})
    op = GradedMap(s, s, (1, 0), {(0, 0): F2Matrix.from_rows([1], 1)})
    sols = hom_space(s, s, (0, 0), [OperatorPair("N", op, op)], w)
    assert len(sols) == 1
    assert sols[0] == identity_map(s)
    free = hom_space(s, s, (0, 0), [], w)
    assert len(free) == 2


def count_solver_calls(monkeypatch):
    """Count the calls ``hom_space`` makes to ``solve`` and
    ``kernel_basis``, by name."""
    calls = {"solve": 0, "kernel_basis": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(graded, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(graded, name, counted)
    return calls


def test_hom_space_solves_one_system_in_unit_mode(monkeypatch):
    # a (1, 0) operator links no two twists: the problem is still one system
    w = Window(0, 2, 0, 2)
    s = GradedSpace(w, {d: [f"u{d[0]}{d[1]}"] for d in w.degrees()})
    step = GradedMap(s, s, (1, 0), {d: F2Matrix.identity(1)
                                    for d in s.degrees() if d[0] < 2})
    calls = count_solver_calls(monkeypatch)
    found = hom_space(s, s, (0, 0), [OperatorPair("step", step, step)], w,
                      unit=(identity_map(s), identity_map(s)))
    assert found == identity_map(s)
    assert calls == {"solve": 1, "kernel_basis": 0}


def test_hom_space_solves_one_system_in_basis_mode(monkeypatch):
    # no operator links two degrees: the problem is still one system
    w = Window(0, 4, 0, 0)
    s = GradedSpace(w, {d: [f"v{d[0]}"] for d in w.degrees()})
    calls = count_solver_calls(monkeypatch)
    sols = hom_space(s, s, (0, 0), [], w)
    # one map per free variable, in variable order
    assert [list(phi.blocks) for phi in sols] == [[d] for d in w.degrees()]
    assert calls == {"solve": 0, "kernel_basis": 1}


# -- brute-force check of the solver on tiny problems ------------------------

TINY = Window(-1, 4, 0, 0)


def tiny_dims(draw, n, choices=(2, 1, 0)):
    return draw(st.lists(st.sampled_from(choices), min_size=n, max_size=n))


def tiny_space(dims, tag):
    return GradedSpace(TINY, {(d, 0): [f"{tag}{d}_{i}" for i in range(n)]
                              for d, n in enumerate(dims)})


def random_map(draw, src, tgt, shift):
    blocks = {}
    for d in src.degrees():
        ncols = tgt.dim(add_deg(d, shift))
        blocks[d] = F2Matrix.from_rows(
            [draw(st.integers(0, (1 << ncols) - 1)) for _ in range(src.dim(d))],
            ncols)
    return GradedMap(src, tgt, shift, blocks)


@st.composite
def hom_problems(draw):
    # planted: target = source with the same operators, so the identity
    # commutes and satisfies the unit condition (identity, identity)
    planted = draw(st.booleans())
    shift = (0, 0) if planted else (draw(st.sampled_from([0, 1])), 0)
    # three source degrees and target dimensions of at most 2: at most
    # 3 * 2 * 2 = 12 map variables
    source = tiny_space(tiny_dims(draw, 3, (2, 1)), "s")
    target = source if planted else tiny_space(tiny_dims(draw, 4), "t")
    lo = draw(st.integers(-1, 1))
    region = Window(lo, draw(st.integers(max(lo + 1, 2), 3)), 0, 0)
    ops = []
    for reach in draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2)):
        on_source = random_map(draw, source, source, (reach, 0))
        on_target = (on_source if planted
                     else random_map(draw, target, target, (reach, 0)))
        ops.append(OperatorPair(f"op{reach}", on_source, on_target))
    form = "planted" if planted else draw(
        st.sampled_from(["section", "retraction", "general"]))
    if form == "planted":
        before, after = identity_map(source), identity_map(source)
    elif form == "section":
        before = identity_map(source)
        after = random_map(draw, target, source, (-shift[0], 0))
    elif form == "retraction" and shift == (0, 0):   # else the general form
        before = random_map(draw, target, source, (0, 0))
        after = identity_map(target)
    else:
        x = tiny_space(tiny_dims(draw, 3), "x")
        before = random_map(draw, x, source, (0, 0))
        after = random_map(draw, target, x, (-shift[0], 0))
    return source, target, shift, ops, region, (before, after)


def map_cells(source, target, shift, region):
    return [(d, i, j) for d in source.degrees() if region.contains(d)
            for i in range(source.dim(d))
            for j in range(target.dim(add_deg(d, shift)))]


def map_from_mask(source, target, shift, cells, mask):
    rows = {d: [0] * source.dim(d) for d in source.degrees()}
    for bit, (d, i, j) in enumerate(cells):
        if (mask >> bit) & 1:
            rows[d][i] |= 1 << j
    return GradedMap(source, target, shift, {
        d: F2Matrix.from_rows(r, target.dim(add_deg(d, shift)))
        for d, r in rows.items()})


def commutes(phi, ops, region):
    for op in ops:
        for d in phi.source.degrees():
            d2 = add_deg(d, op.on_source.shift)
            if region.contains(d) and region.contains(d2):
                lhs = op.on_source.block(d).mul(phi.block(d2))
                rhs = phi.block(d).mul(op.on_target.block(add_deg(d, phi.shift)))
                if lhs != rhs:
                    return False
    return True


def is_unit(phi, before, after, region):
    return all(before.block(d).mul(phi.block(d)).mul(
                   after.block(add_deg(d, phi.shift)))
               == F2Matrix.identity(before.source.dim(d))
               for d in before.source.degrees() if region.contains(d))


@settings(max_examples=100, deadline=None)
@given(hom_problems())
def test_hom_space_matches_enumeration(problem):
    source, target, shift, ops, region, (before, after) = problem
    cells = map_cells(source, target, shift, region)
    assert len(cells) <= 12
    n_commuting = 0
    unit_exists = False
    for mask in range(1 << len(cells)):
        phi = map_from_mask(source, target, shift, cells, mask)
        if commutes(phi, ops, region):
            n_commuting += 1
            unit_exists = unit_exists or is_unit(phi, before, after, region)

    basis = hom_space(source, target, shift, ops, region)
    assert all(commutes(phi, ops, region) for phi in basis)
    coords = [sum((phi.block(d).rows[i] >> j & 1) << bit
                  for bit, (d, i, j) in enumerate(cells)) for phi in basis]
    assert rank(F2Matrix.from_rows(coords, len(cells))) == len(basis)
    assert 1 << len(basis) == n_commuting

    found = hom_space(source, target, shift, ops, region, unit=(before, after))
    assert (found is not None) == unit_exists
    if found is not None:
        assert commutes(found, ops, region)
        assert is_unit(found, before, after, region)
        assert all(region.contains(d) for d in found.blocks)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5),
       st.sampled_from([(0, 0), (1, 0), (2, 1), (-1, 1)]))
def test_missing_block_answers_as_the_zero_block(n_src, n_tgt, shift):
    w = Window(-4, 4, -4, 4)
    d = (0, 0)
    td = add_deg(d, shift)
    basis = {}
    if n_src:
        basis[d] = [f"s{i}" for i in range(n_src)]
    if n_tgt:
        basis[td] = basis.get(td, []) + [f"t{i}" for i in range(n_tgt)]
    sp = GradedSpace(w, basis)
    zero = F2Matrix.zero(sp.dim(d), sp.dim(td))
    for mp in (GradedMap(sp, sp, shift, {}), GradedMap(sp, sp, shift, {d: zero})):
        assert d not in mp.blocks
        assert mp.kernel_at(d) == left_kernel_basis(zero)
        assert mp.image_at(td) == row_basis(zero)
        assert mp.rank_at(d) == rank(zero) == 0
        assert mp.apply(d, (1 << sp.dim(d)) - 1) == 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rank_at_is_the_rank_of_the_block(data):
    src = tiny_space(tiny_dims(data.draw, 5, (3, 2, 1, 0)), "s")
    tgt = tiny_space(tiny_dims(data.draw, 5, (3, 2, 1, 0)), "t")
    shift = data.draw(st.sampled_from([(0, 0), (1, 0), (2, 0), (-1, 0)]))
    mp = random_map(data.draw, src, tgt, shift)
    # drop some blocks, so that they are missing rather than zero
    dropped = data.draw(st.sets(st.sampled_from(sorted(TINY.degrees()))))
    mp = GradedMap(src, tgt, shift,
                   {d: b for d, b in mp.blocks.items() if d not in dropped})
    for d in list(TINY.degrees()) + [(-3, 0), (9, 0), (0, 2)]:
        assert mp.rank_at(d) == rank(mp.block(d)), d


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_and_image_are_eliminated_once_per_degree(data):
    src = tiny_space(tiny_dims(data.draw, 5, (3, 2, 1, 0)), "s")
    tgt = tiny_space(tiny_dims(data.draw, 5, (3, 2, 1, 0)), "t")
    shift = data.draw(st.sampled_from([(0, 0), (1, 0), (2, 0), (-1, 0)]))
    mp = random_map(data.draw, src, tgt, shift)
    for d in list(TINY.degrees()) + [(-3, 0), (9, 0)]:
        kernel, image = mp.kernel_at(d), mp.image_at(d)
        assert kernel == left_kernel_basis(mp.block(d)), d
        assert image == row_basis(mp.block(sub_deg(d, shift))), d
        assert mp.kernel_at(d) is kernel and mp.image_at(d) is image


def test_maps_sharing_a_block_share_its_kernel_and_image(monkeypatch):
    """The answers are kept on the block, so a second map over the same
    block eliminates nothing and returns the same objects."""
    built = [0]
    real = Echelon.__init__

    def counting(self, *args):
        built[0] += 1
        real(self, *args)

    w = Window(-2, 2, -2, 2)
    sp = GradedSpace(w, {(0, 0): ["a", "b", "c"], (1, 0): ["x", "y"]})
    block = F2Matrix.from_rows([0b01, 0b11, 0b10], 2)
    first, second = (GradedMap(sp, sp, (1, 0), {(0, 0): block})
                     for _ in range(2))
    monkeypatch.setattr(Echelon, "__init__", counting)
    kernels = [mp.kernel_at((0, 0)) for mp in (first, second)]
    assert built[0] == 1
    images = [mp.image_at((1, 0)) for mp in (first, second)]
    assert built[0] == 2
    assert kernels[0] is kernels[1] and images[0] is images[1]
    assert kernels[0] == F2Matrix.from_rows([0b111], 3)
    assert images[0] == F2Matrix.identity(2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_homology_at_reads_a_missing_block_as_the_zero_block(data):
    spaces = [tiny_space(tiny_dims(data.draw, 5, (3, 2, 1, 0)), tag)
              for tag in "abc"]
    shifts = [data.draw(st.sampled_from([(0, 0), (1, 0), (-1, 0)]))
              for _ in range(2)]
    maps = []
    for src, tgt, shift in zip(spaces, spaces[1:], shifts):
        mp = random_map(data.draw, src, tgt, shift)
        kept = data.draw(st.sets(st.sampled_from(sorted(mp.blocks) or [(0, 0)])))
        maps.append(GradedMap(src, tgt, shift,
                              {d: b for d, b in mp.blocks.items() if d in kept}))
    f, g = maps
    for d in list(TINY.degrees()) + [(-3, 0), (9, 0)]:
        want = homology(f.block(sub_deg(d, f.shift)), g.block(d),
                        g.source.dim(d))
        assert homology_at(f, g, d) == want, d


def _span(rows):
    """Every vector in the span of ``rows``, by enumerating their sums."""
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.data())
def test_subquotient_dim_is_the_rank_the_numerator_adds(ncols, data):
    d = (0, 0)
    sp = GradedSpace(TINY, {d: [f"e{i}" for i in range(ncols)]})
    vector = st.integers(0, (1 << ncols) - 1)
    num = F2Matrix.from_rows(data.draw(st.lists(vector, max_size=6)), ncols)
    # denominator rows are sums of numerator rows or any vector at all
    inside = st.integers(0, (1 << num.nrows) - 1).map(num.vec_mul)
    den = data.draw(st.none() | st.lists(inside | vector, max_size=6).map(
        lambda rows: F2Matrix.from_rows(rows, ncols)))
    den_rows = () if den is None else den.rows
    sub = Subquotient(sp, {d: num}, {} if den is None else {d: den})
    want = (rank(F2Matrix.from_rows(num.rows + den_rows, ncols))
            - rank(F2Matrix.from_rows(den_rows, ncols)))
    assert sub.dim(d) == want
    assert sub.dims() == ({d: want} if want else {})
    assert sub.dim((1, 0)) == 0
    reps = sub.reps(d)
    assert reps.nrows == sub.dim(d) == want
    # a vector has coordinates exactly when it lies in span(num + den), and
    # then the representatives they pick differ from it by a denominator
    both, below = _span(num.rows + den_rows), _span(den_rows)
    for v in range(1 << ncols):
        c = sub.express(d, v)
        assert (c is None) == (v not in both), v
        if c is not None:
            assert c >> reps.nrows == 0 and v ^ reps.vec_mul(c) in below, v


def test_subquotient_dim_counts_past_a_denominator_outside_the_numerator():
    d = (0, 0)
    sp = GradedSpace(TINY, {d: ["e0", "e1", "e2"]})

    def dim(num, den):
        return Subquotient(sp, {d: F2Matrix.from_rows(num, 3)},
                           {d: F2Matrix.from_rows(den, 3)}).dim(d)

    # rank(num + den) - rank(den), with den outside num in each case
    assert dim([0b001], [0b010]) == 1
    assert dim([0b001], [0b001, 0b010]) == 0
    assert dim([0b011, 0b100], [0b110]) == 3 - 1


def counting_echelons(monkeypatch):
    """The count, in a one-element list, of the ``Echelon`` constructions
    from now on."""
    built = [0]
    real = Echelon.__init__

    def counting(self, *args):
        built[0] += 1
        real(self, *args)

    monkeypatch.setattr(Echelon, "__init__", counting)
    return built


def test_subquotient_eliminates_each_degree_once(monkeypatch):
    """``dim`` read first builds the one elimination of its degree, which
    ``reps`` and ``express`` read after it; a degree with no numerator
    reads 0 and builds none."""
    degs = [(0, 0), (1, 0), (2, 0)]
    sp = GradedSpace(TINY, {d: ["e0", "e1", "e2"] for d in degs})
    table = {(0, 0): ([0b011, 0b100], [0b110]), (1, 0): ([0b001], []),
             (2, 0): ([0b111, 0b110], [0b001])}
    sub = Subquotient(
        sp, {d: F2Matrix.from_rows(num, 3) for d, (num, _) in table.items()},
        {d: F2Matrix.from_rows(den, 3) for d, (_, den) in table.items()})
    built = counting_echelons(monkeypatch)
    assert [sub.dim(d) for d in degs] == [2, 1, 1]
    assert sub.dim((3, 0)) == 0 and built[0] == len(degs)
    for d in degs:
        assert sub.reps(d).nrows == sub.dim(d)
        assert sub.express(d, 0b001) is not None
    assert built[0] == len(degs)


def test_subquotient_solves_each_distinct_pair_once(monkeypatch):
    """Degrees whose tables hold the same numerator and denominator share
    one elimination, and each reads as a subquotient of its own degree
    alone does."""
    degs = [(m, 0) for m in range(6)]
    sp = GradedSpace(TINY, {d: ["e0", "e1", "e2"] for d in degs[:5]})
    a = F2Matrix.from_rows([0b011, 0b100], 3)
    b = F2Matrix.from_rows([0b110], 3)
    c = F2Matrix.from_rows([0b001], 3)
    nums = dict(zip(degs, [a, a, c, a, c]))
    dens = dict(zip(degs, [b, b, b, c]))
    # (a, b), (c, b), (a, c) and (c, none), and one more for the degree
    # that has neither
    pairs = {(id(nums[d]), id(dens.get(d))) for d in nums}
    sub = Subquotient(sp, nums, dens)
    built = counting_echelons(monkeypatch)
    for d in degs:
        sub.reps(d)
    assert built[0] == len(pairs) + 1 == 5
    monkeypatch.undo()
    for d in degs:
        alone = Subquotient(sp, {d: nums[d]} if d in nums else {},
                            {d: dens[d]} if d in dens else {})
        assert sub.dim(d) == alone.dim(d), d
        assert sub.reps(d) == alone.reps(d), d
        for v in range(8):
            assert sub.express(d, v) == alone.express(d, v), (d, v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subquotient_reads_agree_in_any_order(data):
    """In any order of ``dim``, ``dims``, ``reps`` and ``express``, each
    dimension is the rank the numerator adds to the denominator, it counts
    the representatives, and each degree is eliminated at most once."""
    degs = [(m, 0) for m in range(4)]
    sp = GradedSpace(TINY, {d: ["e0", "e1", "e2"] for d in degs})
    rows = st.lists(st.integers(0, 7), max_size=4).map(
        lambda r: F2Matrix.from_rows(r, 3))
    nums, dens = (data.draw(st.dictionaries(st.sampled_from(degs), rows))
                  for _ in range(2))
    empty = F2Matrix.from_rows([], 3)
    want, spans = {}, {}
    for d in degs:
        num, den = nums.get(d, empty).rows, dens.get(d, empty).rows
        want[d] = Echelon(num + den).rank - Echelon(den).rank
        spans[d] = _span(num + den)
    reads = data.draw(st.lists(st.tuples(
        st.sampled_from(["dim", "dims", "reps", "express"]),
        st.sampled_from(degs), st.integers(0, 7)), max_size=12))
    sub = Subquotient(sp, nums, dens)
    with pytest.MonkeyPatch.context() as mp:
        built = counting_echelons(mp)
        for op, d, v in reads:
            if op == "dim":
                assert sub.dim(d) == want[d]
            elif op == "dims":
                assert sub.dims() == {e: n for e, n in want.items() if n}
            elif op == "reps":
                assert sub.reps(d).nrows == want[d]
            else:
                c = sub.express(d, v)
                assert (c is None) == (v not in spans[d])
                assert c is None or c >> want[d] == 0
        for d in degs:
            assert sub.dim(d) == want[d]
            assert sub.reps(d).nrows == sub.dim(d)
    assert built[0] <= len(degs)


def test_name_lookups_build_their_tables_on_demand():
    w = Window(-3, 3, -2, 2)
    basis = {(0, 0): ["b", "a", "c"], (1, 1): ["x"], (2, 0): []}
    s = GradedSpace(w, basis)
    assert s.index((0, 0), "c") == 2 and s.index((1, 1), "x") == 0
    assert "a" in s.names((0, 0)) and "z" not in s.names((0, 0))
    for d, name in (((0, 0), "z"), ((2, 0), "a"), ((3, 3), "a")):
        assert name not in s.names(d)
        with pytest.raises(KeyError):
            s.index(d, name)
    # equality reads the bases, not which tables a lookup has built
    fresh = GradedSpace(w, basis)
    assert fresh == s and s == fresh
    assert s == GradedSpace(w, {(0, 0): ["b", "a", "c"], (1, 1): ["x"]})
    # the order of the names is the order of the coordinates
    assert s != GradedSpace(w, {(0, 0): ["a", "b", "c"], (1, 1): ["x"]})
    with pytest.raises(ValueError, match="duplicate names at"):
        GradedSpace(w, {(0, 0): ["a", "b", "a"]})

    with pytest.raises(ValueError, match="basis at 0 repeats a name"):
        A1Module({0: ["a", "a"]}, {}, {}, 0, 0, 0, 0)


def test_name_runs_read_as_the_tuple_of_their_names():
    runs = NameRuns([("a|", ("x", "y")), ("b|", ()), ("", ("z",))])
    names = ("a|x", "a|y", "z")
    assert len(runs) == 3 and list(runs) == list(names)
    assert runs == names and names == runs
    assert runs == NameRuns([("a", ("|x", "|y")), ("", ("z",))])
    assert runs != names[:2] and names[::-1] != runs
    assert [runs[i] for i in range(-3, 3)] == list(names * 2)
    for i in (3, -4):
        with pytest.raises(IndexError):
            runs[i]
    assert repr(runs) == repr(names)
    w = Window(0, 1, 0, 0)
    s = GradedSpace(w, {(0, 0): runs, (1, 0): NameRuns([("c|", ())])})
    assert s.names((0, 0)) is runs and s.degrees() == [(0, 0)]
    assert s == GradedSpace(w, {(0, 0): names})
    assert s.index((0, 0), "z") == 2
    assert image_names(s.names((0, 0)), 0b101) == {"a|x", "z"}
    assert dual_space(s) == dual_space(GradedSpace(w, {(0, 0): names}))


def test_small_values_carry_no_instance_dict():
    # tens of thousands of these are built per run; a field added without
    # a slot would bring back a dictionary per instance
    for obj in (F2Matrix.identity(2), Echelon([0b11, 0b01]),
                NameRuns([("a|", ("x",))])):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


# -- composition against the dense loop ----------------------------------------

def _ref_compose(f, g):
    """Composition as a product of full blocks, zero blocks included, at
    every source degree."""
    out = {}
    for d in f.source.degrees():
        mid = add_deg(d, f.shift)
        b1, b2 = f.block(d), g.block(mid)
        if b1.ncols != b2.nrows:
            raise ValueError("composition block mismatch")
        out[d] = b1.mul(b2)
    return GradedMap(f.source, g.target, add_deg(f.shift, g.shift), out)


def _drop_blocks(draw, mp):
    """``mp`` with some blocks left out, so that they are missing."""
    dropped = draw(st.sets(st.sampled_from(sorted(TINY.degrees()))))
    return GradedMap(mp.source, mp.target, mp.shift,
                     {d: b for d, b in mp.blocks.items() if d not in dropped})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compose_matches_the_dense_loop(data):
    shifts = st.sampled_from([(0, 0), (1, 0), (-1, 0), (2, 0)])
    dims = (3, 2, 1, 0)
    a = tiny_space(tiny_dims(data.draw, 5, dims), "a")
    b_dims = tiny_dims(data.draw, 5, dims)
    b = tiny_space(b_dims, "b")
    c = tiny_space(tiny_dims(data.draw, 5, dims), "c")
    s1, s2 = data.draw(shifts), data.draw(shifts)
    f = _drop_blocks(data.draw, random_map(data.draw, a, b, s1))
    # the second map starts from b, or from a space differing from b in
    # one degree, where the composition must refuse
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, 4))
        b_dims[at] = (b_dims[at] + 1) % 4
        b = tiny_space(b_dims, "b")
    g = _drop_blocks(data.draw, random_map(data.draw, b, c, s2))
    try:
        want = _ref_compose(f, g)
    except ValueError:
        with pytest.raises(ValueError, match="composition block mismatch"):
            f.compose(g)
        return
    got = f.compose(g)
    assert (got.source, got.target, got.shift) == \
        (want.source, want.target, want.shift)
    assert got.blocks == want.blocks


def test_compose_refuses_mismatched_middle_without_blocks():
    w = Window(0, 2, 0, 0)
    a = GradedSpace(w, {(0, 0): ["x"]})
    b = GradedSpace(w, {(1, 0): ["y"]})
    b2 = GradedSpace(w, {(1, 0): ["y", "z"]})
    f = GradedMap(a, b, (1, 0), {})
    g = GradedMap(b2, b2, (0, 0), {(1, 0): F2Matrix.identity(2)})
    with pytest.raises(ValueError, match="composition block mismatch"):
        f.compose(g)
    assert f.compose(GradedMap(b, b, (0, 0), {})).is_zero()


def test_pair_map_sums_its_targets_and_cancels_a_repeated_one():
    w = Window(0, 1, 0, 1)
    sp = GradedSpace(w, {(0, 0): ["a", "b", "c"], (0, 1): ["p", "q", "r"]})
    mp = pair_map(sp, (0, 1), [((0, 0), "a", ["p", "r"]),
                               ((0, 0), "b", ["q", "q"]),
                               ((0, 0), "c", ["q", "r", "q"])])
    assert mp.block((0, 0)).rows == (0b101, 0, 0b100)
    assert pair_map(sp, (0, 1), [((0, 0), "b", ["q", "q"])]).is_zero()
    assert pair_map(sp, (0, 1), [((0, 0), "a", ["q"])]) == GradedMap(
        sp, sp, (0, 1), {(0, 0): F2Matrix.from_rows([0b010, 0, 0], 3)})
