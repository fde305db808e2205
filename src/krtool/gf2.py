"""Bit-packed linear algebra over the two-element field.

A matrix row is a Python integer used as a bit vector (bit ``j`` is column
``j``), so every row operation is a single big-int XOR.  A matrix is an
immutable value that keeps its rank, its left kernel and its row basis:
each is eliminated on its first read, by ``rank``, ``left_kernel_basis``
or ``row_basis``, and then kept on the matrix, so every map or tower that
shares the matrix shares the answers too; the functions are pure.
Pivoting is always leftmost, so results are deterministic and
reproducible byte for byte.  Being immutable, the zero and identity
matrices, and with them the empty matrix of each width, are built once per
shape and shared.

Every elimination runs through ``Echelon``, whose one insertion loop,
``extend``, takes rows in order and keeps them semi-reduced: a new row is
reduced against the stored ones, which are left as they are.  The
constructor and ``add`` run that loop too.  ``rref`` sorts its rows after
one back-substitution, ``row_basis`` is those rows without the padding,
left kernels are the relations it records, and ``solve`` reads
coordinates from it; none of these answers depends on how far the stored
rows are reduced.  A basis made of rows known to be independent keeps its
rank, so no count eliminates it again.  It eliminates a list of rows once
and then answers membership and coordinate questions for any number of
vectors, each by clearing the pivots the vector reaches.  Loops that solve
many right-hand sides against one fixed basis build one ``Echelon`` for
it.  A count needs no back-substitution: ``Echelon.rank`` is the number of
stored rows, and the rank a second list of rows adds to a span is what
``extend`` returns for them.  One elimination can serve several
answers at once: ``intersect_row_spaces`` eliminates the rows ``(a | a)``
and ``(b | 0)`` once and reads the intersection off the rref rows with a
pivot in the second half, and the kernel-intersection homology eliminates
the rows of ``Ker q0 . q1`` once per degree and reads the numerator off
its relations (``combine`` applies them to the rows of ``Ker q0``) and the
next degree's denominator off its echelon rows.  A subquotient's
representatives, coordinates and dimension come from one completed
elimination: ``complete`` inserts the numerator rows' nonzero remainders
into an ``Echelon`` of the denominator rows; they are the representatives,
their count is the dimension, and a vector's input coordinates past the
denominator rows are its coordinates over them.

Every homology count and exactness check runs through ``homology``, which
checks that the composite vanishes before it subtracts the two ranks.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class F2Matrix:
    """Dense GF(2) matrix with rows packed into integers.

    An immutable value: equal and hashed by ``(nrows, ncols, rows)``, and
    assigning or deleting a field raises ``AttributeError``.  Its rank, its
    left kernel and its row basis are each eliminated on the first read
    (``rank``, ``left_kernel_basis``, ``row_basis``) and kept."""

    __slots__ = ("nrows", "ncols", "rows", "_rank", "_kernel", "_row_basis")

    def __init__(self, nrows: int, ncols: int, rows: tuple[int, ...]) -> None:
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        # a row is negative or has a bit at or above ``ncols``
        if rows and (max(rows) >> ncols or min(rows) < 0):
            raise ValueError("bits outside declared columns")
        # the slot setters bypass the guard below at the cost of a plain store
        _set_nrows(self, nrows)
        _set_ncols(self, ncols)
        _set_rows(self, rows)
        _set_rank(self, None)
        _set_kernel(self, None)
        _set_row_basis(self, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.nrows, self.ncols, self.rows)
                == (other.nrows, other.ncols, other.rows))

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return (f"F2Matrix(nrows={self.nrows!r}, ncols={self.ncols!r}, "
                f"rows={self.rows!r})")

    def __reduce__(self) -> tuple:
        # copies and pickles rebuild through the checked constructor, since
        # the default slot restore would assign through the guard
        return F2Matrix, (self.nrows, self.ncols, self.rows)

    @property
    def rank(self) -> int:
        """The dimension of the row span."""
        r = self._rank
        if r is None:
            r = Echelon(self.rows).rank
            _set_rank(self, r)
        return r

    # -- constructors ------------------------------------------------------

    # A zero matrix and an identity are built once per shape and shared, as
    # is the empty matrix of each width.

    @staticmethod
    def zero(nrows: int, ncols: int) -> "F2Matrix":
        got = _ZEROS.get((nrows, ncols))
        if got is None:
            got = _ZEROS[nrows, ncols] = F2Matrix(nrows, ncols, (0,) * nrows)
            _set_rank(got, 0)
        return got

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        got = _IDENTITIES.get(n)
        if got is None:
            got = _IDENTITIES[n] = _basis(tuple(1 << i for i in range(n)), n)
        return got

    @staticmethod
    def from_rows(rows: Sequence[int], ncols: int) -> "F2Matrix":
        if not rows:
            return F2Matrix.zero(0, ncols)
        return F2Matrix(len(rows), ncols, tuple(rows))

    # -- basic queries -----------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def is_zero(self) -> bool:
        return not any(self.rows)

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "F2Matrix":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= 1 << i
                r &= r - 1
        return F2Matrix(self.ncols, self.nrows, tuple(cols))

    def vec_mul(self, x: int) -> int:
        """Row vector times matrix: returns ``x . self`` as a bit vector."""
        return combine(self.rows, x)

    def mul(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in product")
        return F2Matrix(
            self.nrows, other.ncols, tuple(other.vec_mul(r) for r in self.rows)
        )

    def add(self, other: "F2Matrix") -> "F2Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in sum")
        return F2Matrix(
            self.nrows, self.ncols, tuple(a ^ b for a, b in zip(self.rows, other.rows))
        )


_set_nrows = F2Matrix.__dict__["nrows"].__set__
_set_ncols = F2Matrix.__dict__["ncols"].__set__
_set_rows = F2Matrix.__dict__["rows"].__set__
_set_rank = F2Matrix.__dict__["_rank"].__set__
_set_kernel = F2Matrix.__dict__["_kernel"].__set__
_set_row_basis = F2Matrix.__dict__["_row_basis"].__set__
_ZEROS: dict[tuple[int, int], F2Matrix] = {}
_IDENTITIES: dict[int, F2Matrix] = {}


def _basis(rows: Sequence[int], ncols: int) -> F2Matrix:
    """The matrix of the independent ``rows``, with its rank recorded rather
    than eliminated; without rows, the shared empty matrix."""
    if not rows:
        return F2Matrix.zero(0, ncols)
    out = F2Matrix(len(rows), ncols, tuple(rows))
    _set_rank(out, len(rows))
    return out


def combine(rows: Sequence[int], x: int) -> int:
    """The sum of the rows picked by the bits of ``x``: ``x`` times the
    matrix with those rows."""
    acc = 0
    while x:
        low = x & -x
        acc ^= rows[low.bit_length() - 1]
        x ^= low
    return acc


def _spread(bits: int, width: int) -> int:
    """Move bit ``p`` of ``bits`` to position ``p * width``.  For ``v`` of
    at most ``width`` bits, ``_spread(u, width) * v`` is the Kronecker
    product of the rows ``u`` and ``v``: bit ``p * width + q`` is set when
    bits ``p`` of ``u`` and ``q`` of ``v`` are (the shifted copies of ``v``
    do not overlap, so nothing carries)."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << ((low.bit_length() - 1) * width)
        bits ^= low
    return out


def rref(m: F2Matrix) -> tuple[F2Matrix, tuple[int, ...]]:
    """Reduced row echelon form; shape preserved, nonzero rows first."""
    rows = Echelon(m.rows).reduced_rows()
    pivots = tuple((r & -r).bit_length() - 1 for r in rows)
    rows += [0] * (m.nrows - len(rows))
    return F2Matrix(m.nrows, m.ncols, tuple(rows)), pivots


def rank(m: F2Matrix) -> int:
    return len(rref(m)[1])


def homology(into: Optional[F2Matrix], out: Optional[F2Matrix],
             dim: int) -> Optional[int]:
    """The dimension of ``Ker out / Im into`` at a space of dimension
    ``dim``, or None when ``into`` followed by ``out`` is not zero; zero
    means exact.  The rows of ``into`` are vectors of the space, ``out``
    has one row per basis vector of it, and None stands for a zero map.
    A shape that does not fit ``dim`` raises ``ValueError``."""
    if ((into is not None and into.ncols != dim)
            or (out is not None and out.nrows != dim)):
        raise ValueError(f"homology shape mismatch at dimension {dim}")
    h = dim
    if out is not None:
        if into is not None and any(map(out.vec_mul, into.rows)):
            return None
        h -= out.rank
    if into is not None:
        h -= into.rank
    return h


def row_basis(m: F2Matrix) -> F2Matrix:
    """Matrix whose rows are the nonzero rref rows (a canonical span basis),
    read off one elimination on the first call and kept on ``m``."""
    got = m._row_basis
    if got is None:
        got = _basis(Echelon(m.rows).reduced_rows(), m.ncols)
        _set_row_basis(m, got)
    return got


class Echelon:
    """The row span of a list of rows, eliminated once for many solves.

    Rows are inserted in order.  A row that enlarges the span is reduced
    against the stored rows, stored and keyed by its lowest set bit, its
    pivot; the stored rows are not touched.  So the stored rows are
    semi-reduced: each has no bit below its pivot and none at a pivot stored
    before it, but may have bits at pivots stored later.  Each records which
    input rows it sums.  ``reduced_rows`` back-substitutes once, from the
    highest pivot down, when some stored row has a bit at another one's
    pivot; fully reduced rows with distinct lowest bits are the unique
    leftmost-pivot reduced echelon form.

    Reducing a vector clears its lowest pivot bit until none is left, so the
    answers depend only on the span and the insertion order, not on how far
    the stored rows are reduced: ``remainder`` is the unique vector with no
    pivot bit congruent to the input; ``coords`` and the relations are sums
    over the input rows that enlarged the span, which are independent.  An
    input row that reduces to zero leaves a relation: itself plus the unique
    sum of the earlier rows that enlarged the span.  In insertion order, the
    relations are the left kernel basis of the input rows.
    """

    __slots__ = ("_rows", "_pivots", "_cover", "_stale", "_inserted",
                 "relations")

    def __init__(self, rows: Iterable[int] = ()) -> None:
        self._rows: dict[int, tuple[int, int]] = {}  # pivot bit -> (row, inputs)
        self._pivots = 0                               # union of the pivot bits
        self._cover = 0                                # union of the stored rows
        self._stale = False      # some stored row has a bit at another's pivot
        self._inserted = 0
        self.relations: list[int] = []
        self.extend(rows)

    def _reduce(self, v: int) -> tuple[int, int]:
        """``v`` with every pivot bit cleared, and the inputs it took."""
        used = 0
        pivots = self._pivots
        hits = v & pivots
        while hits:
            row, inputs = self._rows[hits & -hits]
            v ^= row
            used ^= inputs
            hits = v & pivots
        return v, used

    def extend(self, rows: Iterable[int]) -> int:
        """Insert the next input rows in order; the count of them that
        enlarged the span.  ``rows`` must not read this elimination while
        it is consumed."""
        table, relations = self._rows, self.relations
        pivots, cover, stale = self._pivots, self._cover, self._stale
        inserted, grew = self._inserted, 0
        for v in rows:
            used = 1 << inserted
            inserted += 1
            hits = v & pivots
            while hits:
                row, inputs = table[hits & -hits]
                v ^= row
                used ^= inputs
                hits = v & pivots
            if not v:
                relations.append(used)
                continue
            low = v & -v
            if cover & low:
                stale = True
            cover |= v
            table[low] = (v, used)
            pivots |= low
            grew += 1
        self._pivots, self._cover, self._stale = pivots, cover, stale
        self._inserted = inserted
        return grew

    def add(self, v: int) -> bool:
        """Insert the next input row; True when it enlarges the span."""
        return self.extend((v,)) == 1

    def complete(self, rows: Iterable[int]) -> list[int]:
        """Complete the span by ``rows`` in order: insert each row's nonzero
        remainder as the next input row and return those remainders.  They
        are a basis of the span ``rows`` add, modulo the span before."""
        out = []
        for v in rows:
            w = self.remainder(v)
            if w:
                self.add(w)
                out.append(w)
        return out

    @property
    def rank(self) -> int:
        """The dimension of the span: the count of stored rows."""
        return len(self._rows)

    def reduced_rows(self) -> list[int]:
        """The stored rows, fully reduced, sorted by pivot: the nonzero rref
        rows.  The reduction is kept, so later answers read it too."""
        rows = self._rows
        order = sorted(rows)
        if self._stale:
            self._cover = 0
            # the rows with higher pivots are fully reduced by now, so adding
            # one clears its pivot bit and sets no other pivot bit
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

    def remainder(self, v: int) -> int:
        """``v`` reduced modulo the span: zero exactly when ``v`` lies in it.
        It depends only on the span, not on the rows that span it."""
        return self._reduce(v)[0]

    def coords(self, v: int) -> Optional[int]:
        """Coefficients ``c`` over the input rows whose sum is ``v``, or None
        when ``v`` is outside the span.  Rows that did not enlarge the span
        when inserted get coefficient zero, so the coefficients are unique."""
        w, used = self._reduce(v)
        return None if w else used


def kernel_basis(m: F2Matrix) -> F2Matrix:
    """Rows form a basis of ``{v : m . v^T = 0}`` (right null space)."""
    r, piv = rref(m)
    pivset = set(piv)
    free = [j for j in range(m.ncols) if j not in pivset]
    out = []
    for f in free:
        v = 1 << f
        for i, p in enumerate(piv):
            if (r.rows[i] >> f) & 1:
                v |= 1 << p
        out.append(v)
    return F2Matrix(len(out), m.ncols, tuple(out))


def left_kernel_basis(m: F2Matrix) -> F2Matrix:
    """Rows v with ``v . m = 0``; the kernel for row-vector conventions.

    Equal to ``kernel_basis(m.transpose())``, found without transposing,
    by one elimination on the first call and kept on ``m``."""
    got = m._kernel
    if got is None:
        got = _basis(Echelon(m.rows).relations, m.nrows)
        _set_kernel(m, got)
    return got


def common_kernel(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Canonical basis of the rows v with ``v . a = 0`` and ``v . b = 0``:
    the left kernel of the side-by-side matrix ``[a | b]``."""
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    side = [x | (y << a.ncols) for x, y in zip(a.rows, b.rows)]
    return _basis(Echelon(Echelon(side).relations).reduced_rows(), a.nrows)


def solve(m: F2Matrix, b: int) -> Optional[int]:
    """One solution x of ``m . x^T = b`` (b packed over rows), or None.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    if b >> m.nrows:
        raise ValueError("right-hand side longer than row count")
    return Echelon(m.transpose().rows).coords(b)


def intersect_row_spaces(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Canonical basis of the intersection of two row spans (Zassenhaus),
    from one elimination of the rows ``(a | a)`` and ``(b | 0)``.  In its
    reduced echelon form the rows that vanish on the first half are those
    with a pivot in the second, so their second halves are already the
    reduced echelon basis of the intersection."""
    if a.ncols != b.ncols:
        raise ValueError("ambient dimension mismatch")
    n = a.ncols
    mask = (1 << n) - 1
    span = Echelon([r | (r << n) for r in a.rows] + list(b.rows))
    return _basis([r >> n for r in span.reduced_rows() if not r & mask], n)
