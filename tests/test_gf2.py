"""Bit-matrix layer, checked against exhaustive enumeration oracles."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtool import gf2
from krtool.gf2 import (
    Echelon,
    F2Matrix,
    common_kernel,
    homology,
    intersect_row_spaces,
    kernel_basis,
    left_kernel_basis,
    rank,
    row_basis,
    rref,
    solve,
)


def random_matrix(rng, nrows, ncols):
    return F2Matrix.from_rows([rng.getrandbits(ncols) for _ in range(nrows)],
                              ncols)


def combine(rows, mask):
    """Sum of the rows picked by the bits of ``mask``."""
    acc = 0
    while mask:
        i = (mask & -mask).bit_length() - 1
        acc ^= rows[i]
        mask &= mask - 1
    return acc


def column_scan_rref(m):
    """Reduced row echelon form by scanning columns left to right: the
    elimination ``rref`` used before it ran on ``Echelon``, kept as an
    independent oracle."""
    work = list(m.rows)
    pivots = []
    row = 0
    for col in range(m.ncols):
        sel = next((r for r in range(row, len(work)) if (work[r] >> col) & 1),
                   None)
        if sel is None:
            continue
        work[row], work[sel] = work[sel], work[row]
        for r in range(len(work)):
            if r != row and ((work[r] >> col) & 1):
                work[r] ^= work[row]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return F2Matrix(m.nrows, m.ncols, tuple(work)), tuple(pivots)


def span_vectors(m):
    """Every vector in the row span, by enumerating row combinations."""
    return {combine(m.rows, mask) for mask in range(1 << m.nrows)}


def test_rref_identity():
    ident = F2Matrix.identity(2)
    r, piv = rref(ident)
    assert r == ident and piv == (0, 1)


def test_rref_zero():
    z = F2Matrix.zero(3, 4)
    r, piv = rref(z)
    assert r == z and piv == ()


def test_rref_rank_matches_span_oracle():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, 4, 6)
        span = span_vectors(m)
        assert 1 << rank(m) == len(span)


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(rng, 5, 5)
        r1, _ = rref(m)
        r2, _ = rref(r1)
        assert r1 == r2


def test_kernel_identity_and_zero():
    assert kernel_basis(F2Matrix.identity(4)).nrows == 0
    assert kernel_basis(F2Matrix.zero(2, 3)).nrows == 3


def test_kernel_exhaustive_oracle():
    rng = random.Random(7)
    for _ in range(15):
        m = random_matrix(rng, 5, 7)
        ker = kernel_basis(m)
        assert ker.nrows == 7 - rank(m)
        # every vector of the returned span is annihilated
        for v in span_vectors(ker):
            assert all((bin(row & v).count("1") % 2) == 0 for row in m.rows)


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
        assert rank(m) + kernel_basis(m).nrows == m.ncols


def test_solve_identity_and_zero():
    ident = F2Matrix.identity(3)
    assert solve(ident, 0b101) == 0b101
    assert solve(F2Matrix.zero(3, 3), 0b010) is None


def test_solve_substitution_oracle():
    rng = random.Random(13)
    hits = 0
    for _ in range(40):
        m = random_matrix(rng, 4, 4)
        x0 = rng.getrandbits(4)
        b = 0
        for i, row in enumerate(m.rows):
            if bin(row & x0).count("1") % 2:
                b |= 1 << i
        x = solve(m, b)
        assert x is not None
        check = 0
        for i, row in enumerate(m.rows):
            if bin(row & x).count("1") % 2:
                check |= 1 << i
        assert check == b
        hits += 1
    assert hits == 40


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(F2Matrix.identity(2), 0b111)


def test_subquotient_trivial_cases():
    ident = F2Matrix.identity(3)
    assert Echelon().complete(ident.rows) == list(ident.rows)
    assert Echelon(ident.rows).complete(ident.rows) == []
    assert Echelon(ident.rows).complete(()) == []


def test_subquotient_coset_oracle():
    rng = random.Random(17)
    for _ in range(15):
        a = random_matrix(rng, 5, 6)
        coeffs = [rng.getrandbits(5) for _ in range(2)]
        brows = []
        for c in coeffs:
            acc = 0
            r = c
            while r:
                i = (r & -r).bit_length() - 1
                acc ^= a.rows[i]
                r &= r - 1
            brows.append(acc)
        b = F2Matrix.from_rows(brows, 6)
        span = Echelon(b.rows)
        reps = span.complete(a.rows)
        assert len(reps) == rank(a) - rank(b) == span.rank - rank(b)
        # cosets of span(b) inside span(a) are enumerated exactly once
        span_b = span_vectors(b)
        cosets = {min(v ^ w for w in span_b) for v in span_vectors(a)}
        assert len(cosets) == 1 << len(reps)
        # and the remainders reach each of them
        rep_span = span_vectors(F2Matrix.from_rows(reps, 6))
        assert {min(v ^ w for w in span_b) for v in rep_span} == cosets


def test_intersection_oracle():
    rng = random.Random(23)
    for _ in range(15):
        a = random_matrix(rng, 3, 6)
        b = random_matrix(rng, 3, 6)
        inter = intersect_row_spaces(a, b)
        expected = span_vectors(a) & span_vectors(b)
        assert 1 << inter.nrows == len(expected)
        for v in inter.rows:
            assert v in expected


@st.composite
def bases(draw, nrows=None, ncols=None):
    """Small matrices whose rows may be zero or sums of earlier rows."""
    if ncols is None:
        ncols = draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(0, 7)) if nrows is None else nrows):
        kind = draw(st.sampled_from(("random", "zero", "dependent")))
        if kind == "random":
            rows.append(draw(st.integers(0, (1 << ncols) - 1)))
        elif kind == "zero":
            rows.append(0)
        else:
            rows.append(combine(rows, draw(st.integers(0, (1 << len(rows)) - 1))))
    return F2Matrix.from_rows(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(bases(), st.data())
def test_echelon_matches_solve_and_enumeration(basis, data):
    ech = Echelon(basis.rows)
    assert rref(basis) == column_scan_rref(basis)
    assert left_kernel_basis(basis) == kernel_basis(basis.transpose())
    other = data.draw(bases(nrows=basis.nrows))
    both = common_kernel(basis, other)
    assert both == intersect_row_spaces(left_kernel_basis(basis),
                                        left_kernel_basis(other))
    # every row combination that both matrices send to zero, enumerated
    killed = {mask for mask in range(1 << basis.nrows)
              if combine(basis.rows, mask) == 0 == combine(other.rows, mask)}
    assert span_vectors(both) == killed
    assert both == row_basis(both) and 1 << both.nrows == len(killed)
    # rows that enlarge the span of the rows before them, found by enumeration
    independent = 0
    for i, r in enumerate(basis.rows):
        if r not in span_vectors(F2Matrix.from_rows(basis.rows[:i], basis.ncols)):
            independent |= 1 << i
    span = span_vectors(basis)
    canonical = Echelon(row_basis(basis).rows)
    for v in range(1 << basis.ncols):   # every vector, in and outside the span
        c = ech.coords(v)
        assert c == solve(basis.transpose(), v)
        assert (c is not None) == (v in span)
        assert (ech.remainder(v) == 0) == (v in span)
        assert ech.remainder(v) == canonical.remainder(v)
        if c is not None:
            # the one combination of the independent rows that gives v
            hits = [mask for mask in range(1 << basis.nrows)
                    if mask & ~independent == 0 and combine(basis.rows, mask) == v]
            assert hits == [c]
    grown = Echelon()
    for i, r in enumerate(basis.rows):
        assert grown.add(r) == bool((independent >> i) & 1)
    assert all(grown.coords(v) == ech.coords(v) for v in range(1 << basis.ncols))


@st.composite
def large_matrices(draw):
    """Matrices up to 40x40 mixing dense, sparse and permutation-like rows
    with rows that depend on earlier ones, so stored rows often carry bits
    at pivots found later."""
    ncols = draw(st.integers(1, 40))
    top = (1 << ncols) - 1
    bit = st.integers(0, ncols - 1)
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(("dense", "sparse", "permutation",
                                     "dependent")))
        if kind == "dense":
            rows.append(draw(st.integers(0, top)))
        elif kind == "sparse":
            rows.append(sum({1 << b for b in draw(st.lists(bit, max_size=3))}))
        elif kind == "permutation":
            rows.append(1 << draw(bit))
        else:
            rows.append(combine(rows, draw(st.integers(0, (1 << len(rows)) - 1))))
    return F2Matrix.from_rows(rows, ncols)


@settings(max_examples=150, deadline=None)
@given(large_matrices(), st.randoms(use_true_random=False), st.data())
def test_echelon_on_large_matrices(m, rng, data):
    assert rref(m) == column_scan_rref(m)
    assert left_kernel_basis(m) == kernel_basis(m.transpose())
    shuffled = list(m.rows)
    rng.shuffle(shuffled)
    ech, other = Echelon(m.rows), Echelon(shuffled)
    vectors = [rng.getrandbits(m.ncols) for _ in range(10)]
    vectors += [combine(m.rows, rng.getrandbits(m.nrows)) for _ in range(10)]
    for v in vectors:
        assert ech.remainder(v) == other.remainder(v)
        c = ech.coords(v)
        assert (c is None) == (ech.remainder(v) != 0)
        if c is not None:
            assert combine(m.rows, c) == v
    # reading the rref part way through leaves later answers unchanged
    cut = data.draw(st.integers(0, m.nrows))
    grown = Echelon(m.rows[:cut])
    grown.reduced_rows()
    for r in m.rows[cut:]:
        grown.add(r)
    assert grown.relations == ech.relations
    assert grown.reduced_rows() == ech.reduced_rows()
    assert all(grown.coords(v) == ech.coords(v) for v in vectors)


@settings(max_examples=150, deadline=None)
@given(large_matrices())
def test_echelon_rank_counts_the_rref_pivots(m):
    grown = Echelon()
    for i, r in enumerate(m.rows):
        grown.add(r)
        prefix = F2Matrix.from_rows(m.rows[: i + 1], m.ncols)
        assert grown.rank == len(rref(prefix)[1])
    assert grown.rank == rank(m) == len(rref(m)[1])
    grown.reduced_rows()
    assert grown.rank == rank(m)


@settings(max_examples=200, deadline=None)
@given(large_matrices(), st.data())
def test_homology_counts_kernel_modulo_image(out, data):
    dim = out.nrows
    # the reference: the left kernel of ``out`` and the span of ``into``
    ker = kernel_basis(out.transpose())
    combos = data.draw(st.lists(st.integers(0, (1 << ker.nrows) - 1),
                                max_size=8))
    into = F2Matrix.from_rows([combine(ker.rows, c) for c in combos], dim)
    assert homology(into, out, dim) == ker.nrows - row_basis(into).nrows
    # None is the zero map, on either side
    assert homology(None, out, dim) == ker.nrows
    assert homology(F2Matrix.zero(0, dim), out, dim) == ker.nrows
    assert homology(into, None, dim) == dim - row_basis(into).nrows
    assert homology(into, F2Matrix.zero(dim, 0), dim) == homology(into, None, dim)
    assert homology(None, None, dim) == dim
    # any rows: a row outside the kernel makes the composite nonzero
    rows = data.draw(st.lists(st.integers(0, (1 << dim) - 1), max_size=6))
    other = F2Matrix.from_rows(rows, dim)
    if other.mul(out).is_zero():
        assert homology(other, out, dim) == ker.nrows - row_basis(other).nrows
    else:
        assert homology(other, out, dim) is None
    # a shape that does not fit the dimension raises
    for bad in ((F2Matrix.zero(1, dim + 1), out), (into, F2Matrix.zero(dim + 1, 1)),
                (F2Matrix.zero(1, dim + 1), None), (None, F2Matrix.zero(dim + 1, 1))):
        with pytest.raises(ValueError, match="shape mismatch"):
            homology(*bad, dim)


def test_transpose_involution():
    rng = random.Random(29)
    m = random_matrix(rng, 4, 7)
    assert m.transpose().transpose() == m


class RefEchelon:
    """``Echelon`` as it was before its one insertion loop: each row goes
    through ``add`` on its own.  Kept as the reference that ``extend`` and
    the constructor must match answer for answer."""

    def __init__(self, rows=()):
        self._rows = {}
        self._pivots = 0
        self._cover = 0
        self._stale = False
        self._inserted = 0
        self.relations = []
        for r in rows:
            self.add(r)

    def _reduce(self, v):
        used = 0
        hits = v & self._pivots
        while hits:
            row, inputs = self._rows[hits & -hits]
            v ^= row
            used ^= inputs
            hits = v & self._pivots
        return v, used

    def add(self, v):
        w, used = self._reduce(v)
        used ^= 1 << self._inserted
        self._inserted += 1
        if not w:
            self.relations.append(used)
            return False
        low = w & -w
        if self._cover & low:
            self._stale = True
        self._cover |= w
        self._rows[low] = (w, used)
        self._pivots |= low
        return True

    @property
    def rank(self):
        return len(self._rows)

    def reduced_rows(self):
        rows = self._rows
        order = sorted(rows)
        if self._stale:
            self._cover = 0
            for low in reversed(order):
                row, inputs = rows[low]
                hits = (row ^ low) & self._pivots
                while hits:
                    h = hits & -hits
                    r, i = rows[h]
                    row ^= r
                    inputs ^= i
                    hits ^= h
                rows[low] = (row, inputs)
                self._cover |= row
            self._stale = False
        return [rows[low][0] for low in order]

    def remainder(self, v):
        return self._reduce(v)[0]

    def coords(self, v):
        w, used = self._reduce(v)
        return None if w else used


def _same_answers(got, want, vectors):
    assert got.relations == want.relations
    assert got.rank == want.rank
    for v in vectors:
        assert got.remainder(v) == want.remainder(v)
        assert got.coords(v) == want.coords(v)
    assert got.reduced_rows() == want.reduced_rows()


@settings(max_examples=200, deadline=None)
@given(large_matrices(), st.randoms(use_true_random=False), st.data())
def test_extend_matches_the_per_row_reference(m, rng, data):
    rows = list(m.rows)
    inside = [combine(rows, rng.getrandbits(m.nrows)) for _ in range(8)]
    vectors = inside + [rng.getrandbits(m.ncols) for _ in range(8)]
    ref = RefEchelon(rows)
    _same_answers(Echelon(rows), ref, vectors)
    _same_answers(Echelon(iter(rows)), ref, vectors)

    # a first part row by row, the rest in one call, the rref perhaps read
    # in between; then an empty call that changes nothing
    cut = data.draw(st.integers(0, m.nrows))
    read_between = data.draw(st.booleans())
    grown, ref = Echelon(), RefEchelon()
    for r in rows[:cut]:
        assert grown.add(r) == ref.add(r)
    if read_between:
        assert grown.reduced_rows() == ref.reduced_rows()
    assert grown.extend(rows[cut:]) == sum(ref.add(r) for r in rows[cut:])
    assert grown.extend(()) == 0
    _same_answers(grown, ref, vectors)
    # the same rows again add nothing and leave one relation each
    assert grown.extend(rows) == 0
    for r in rows:
        ref.add(r)
    _same_answers(grown, ref, vectors)


# -- the bit check on construction ---------------------------------------------

def _ref_bits_outside(rows, ncols):
    """The check as a loop over the rows: a row with a bit at or above
    ``ncols``, or a negative row (which has every high bit)."""
    mask = (1 << ncols) - 1
    return any(r & ~mask for r in rows)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 70), st.data())
def test_bit_check_rejects_what_the_row_loop_rejects(ncols, data):
    top = 1 << (ncols + 3)
    rows = data.draw(st.lists(st.one_of(st.integers(0, (1 << ncols) - 1),
                                        st.integers(-top, top)),
                              max_size=6))
    if _ref_bits_outside(rows, ncols):
        with pytest.raises(ValueError, match="bits outside declared columns"):
            F2Matrix.from_rows(rows, ncols)
    else:
        assert F2Matrix.from_rows(rows, ncols).rows == tuple(rows)


def test_bit_check_edge_cases():
    assert F2Matrix.from_rows([], 0).nrows == 0
    assert F2Matrix.from_rows([0, 0], 0).ncols == 0
    assert F2Matrix.from_rows([0b111], 3).rows == (0b111,)
    for rows, ncols in (([1], 0), ([0b1000], 3), ([0, -1], 3), ([-8], 64)):
        with pytest.raises(ValueError, match="bits outside declared columns"):
            F2Matrix.from_rows(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(bases(), st.data())
def test_intersection_spans_the_common_vectors(a, data):
    b = data.draw(bases(ncols=a.ncols))
    inter = intersect_row_spaces(a, b)
    assert inter.ncols == a.ncols
    assert span_vectors(inter) == span_vectors(a) & span_vectors(b)
    assert inter == row_basis(inter)
    # the recorded rank is that of an elimination: the rows are independent
    assert inter.rank == inter.nrows == len(column_scan_rref(inter)[1])


@settings(max_examples=300, deadline=None)
@given(bases())
def test_row_basis_is_the_nonzero_rref_rows(m):
    r, piv = column_scan_rref(m)
    basis = row_basis(m)
    assert basis == F2Matrix.from_rows(r.rows[:len(piv)], m.ncols)
    assert basis.rank == len(piv)


@given(st.integers(0, 6), st.integers(0, 6))
def test_constant_matrices_are_shared_values(nrows, ncols):
    zero, ident = F2Matrix.zero(nrows, ncols), F2Matrix.identity(ncols)
    assert zero is F2Matrix.zero(nrows, ncols)
    assert ident is F2Matrix.identity(ncols)
    assert F2Matrix.from_rows([], ncols) is F2Matrix.zero(0, ncols)
    fresh_zero = F2Matrix(nrows, ncols, (0,) * nrows)
    fresh_ident = F2Matrix(ncols, ncols, tuple(1 << i for i in range(ncols)))
    assert zero == fresh_zero and zero.rank == fresh_zero.rank == 0
    assert ident == fresh_ident and ident.rank == fresh_ident.rank == ncols
    for shared in (zero, ident):
        for name in ("nrows", "ncols", "rows", "_rank"):
            with pytest.raises(AttributeError):
                setattr(shared, name, 0)
            with pytest.raises(AttributeError):
                delattr(shared, name)
    assert zero == fresh_zero and ident == fresh_ident


# -- a matrix as a value ---------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(bases(), bases())
def test_matrix_is_an_immutable_value(a, b):
    key = (a.nrows, a.ncols, a.rows)
    twin = F2Matrix(a.nrows, a.ncols, tuple(a.rows))
    assert twin == a and hash(twin) == hash(a) == hash(key)
    assert (a == b) == (key == (b.nrows, b.ncols, b.rows))
    assert a != key
    assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == f"F2Matrix(nrows={a.nrows}, ncols={a.ncols}, rows={a.rows})"
    for name in ("nrows", "ncols", "rows"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.nrows, a.ncols, a.rows) == key


@settings(max_examples=300, deadline=None)
@given(bases(), st.data())
def test_matrix_rejects_a_wrong_shape(m, data):
    for nrows in (m.nrows + data.draw(st.integers(1, 3)), m.nrows - 1):
        with pytest.raises(ValueError, match="row count mismatch"):
            F2Matrix(nrows, m.ncols, m.rows)
    high = data.draw(st.integers(m.ncols, m.ncols + 8))
    bad = data.draw(st.one_of(
        st.integers(0, (1 << m.ncols) - 1).map(lambda r: r | 1 << high),
        st.integers(max_value=-1)))
    i = data.draw(st.integers(0, m.nrows))
    with pytest.raises(ValueError, match="bits outside declared columns"):
        F2Matrix(m.nrows + 1, m.ncols, m.rows[:i] + (bad,) + m.rows[i:])


@settings(max_examples=150, deadline=None)
@given(large_matrices())
def test_matrix_rank_is_eliminated_once(m):
    want = len(rref(m)[1])
    fresh = F2Matrix(m.nrows, m.ncols, m.rows)
    made = []

    class Counting(Echelon):
        __slots__ = ()

        def __init__(self, rows=()):
            made.append(rows)
            super().__init__(rows)

    gf2.Echelon = Counting
    try:
        assert fresh.rank == want and len(made) == 1
        assert fresh.rank == want and len(made) == 1
    finally:
        gf2.Echelon = Echelon


@settings(max_examples=150, deadline=None)
@given(large_matrices(), st.permutations(["rank", "kernel", "basis"] * 2))
def test_kept_answers_match_a_fresh_matrix_in_any_order(m, order):
    """Rank, left kernel and row basis are kept on the matrix; read twice
    each in any order, every answer is the one a fresh equal matrix gives."""
    reads = {"rank": lambda x: x.rank, "kernel": left_kernel_basis,
             "basis": row_basis}
    got = {}
    for name in order:
        answer = reads[name](m)
        assert got.setdefault(name, answer) == answer
        fresh = F2Matrix(m.nrows, m.ncols, m.rows)
        assert answer == reads[name](fresh), name
    assert got["kernel"] == kernel_basis(m.transpose())
    assert got["rank"] == got["basis"].nrows == m.nrows - got["kernel"].nrows
    for name in ("_kernel", "_row_basis"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    for twin in (copy.copy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and hash(twin) == hash(m)
        assert [reads[name](twin) for name in order] == [got[n] for n in order]
