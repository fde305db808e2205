"""Bigraded vector spaces over GF(2) with truncation-window bookkeeping.

Degrees are pairs ``(m, k)``: ``m`` is the integer part, ``k`` the twist.
A ``GradedSpace`` holds named bases per degree inside a window, each in
the order its builder listed it: a ``NameRuns`` sequence is kept as given
and formats its names when read, and any other iterable of names is
checked for repeats and copied to a tuple; each degree's dimension is
counted once, when the space is built.  A ``GradedMap`` holds one bit
matrix per populated source degree, with rows indexed by the source basis
and columns by the target basis at the shifted degree.  A ``Subquotient``
eliminates each distinct (numerator, denominator, dimension) it reads at
most once, and ``GradedMap.compose`` multiplies each distinct pair of
blocks once.  Names are labels: nothing
sorts or parses them, so a dual keeps the positions it transposes.
Every operation records the subwindow on which its output is complete, so
downstream comparisons never read truncation artifacts.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .gf2 import (
    Column,
    Echelon,
    F2Matrix,
    _spread,
    homology,
    kernel_basis,
    left_kernel_basis,
    row_basis,
    solve,
)
from .record import FrozenRecord, Record

Degree = tuple[int, int]


class Window(FrozenRecord):
    """The degrees ``(m, k)`` with ``m_lo <= m <= m_hi`` and
    ``k_lo <= k <= k_hi``, none of them empty; an immutable value."""

    __slots__ = ("m_lo", "m_hi", "k_lo", "k_hi")

    def __init__(self, m_lo: int, m_hi: int, k_lo: int, k_hi: int) -> None:
        if m_lo > m_hi or k_lo > k_hi:
            raise ValueError("empty window bounds")
        super().__init__(m_lo, m_hi, k_lo, k_hi)

    def contains(self, d: Degree) -> bool:
        m, k = d
        return self.m_lo <= m <= self.m_hi and self.k_lo <= k <= self.k_hi

    def degrees(self) -> Iterator[Degree]:
        for m in range(self.m_lo, self.m_hi + 1):
            for k in range(self.k_lo, self.k_hi + 1):
                yield (m, k)

    def shrink(self, dm_lo: int = 0, dm_hi: int = 0, dk_lo: int = 0,
               dk_hi: int = 0) -> Optional["Window"]:
        m_lo, m_hi = self.m_lo + dm_lo, self.m_hi - dm_hi
        k_lo, k_hi = self.k_lo + dk_lo, self.k_hi - dk_hi
        if m_lo > m_hi or k_lo > k_hi:
            return None
        return Window(m_lo, m_hi, k_lo, k_hi)

    def intersect(self, other: "Window") -> Optional["Window"]:
        m_lo = max(self.m_lo, other.m_lo)
        m_hi = min(self.m_hi, other.m_hi)
        k_lo = max(self.k_lo, other.k_lo)
        k_hi = min(self.k_hi, other.k_hi)
        if m_lo > m_hi or k_lo > k_hi:
            return None
        return Window(m_lo, m_hi, k_lo, k_hi)

    def shift(self, d: Degree) -> "Window":
        return Window(self.m_lo + d[0], self.m_hi + d[0],
                      self.k_lo + d[1], self.k_hi + d[1])

    def negate(self) -> "Window":
        return Window(-self.m_hi, -self.m_lo, -self.k_hi, -self.k_lo)


def add_deg(a: Degree, b: Degree) -> Degree:
    return (a[0] + b[0], a[1] + b[1])


def sub_deg(a: Degree, b: Degree) -> Degree:
    return (a[0] - b[0], a[1] - b[1])


def neg_deg(a: Degree) -> Degree:
    return (-a[0], -a[1])


def degrees_where(keep: Callable[[Any], bool], *degree_sets: Iterable
                  ) -> list:
    """The degrees found in any of the collections, such as bases or
    degreewise tables, that ``keep`` accepts (for instance
    ``Window.contains`` or an interval test), each once and sorted: in
    window order for bidegrees, ascending for integer degrees.  ``keep``
    reads each distinct degree once."""
    return sorted(d for d in set().union(*degree_sets) if keep(d))


def shift_mismatch(a: dict[Degree, int], b: dict[Degree, int], shift: Degree,
                   w: Window) -> Optional[Degree]:
    """The first degree ``d``, in window order, with ``d`` and ``d + shift``
    in ``w`` where the table ``a`` at ``d`` differs from ``b`` at
    ``d + shift`` (an absent degree counts 0), or None when ``b`` is ``a``
    moved by ``shift`` on ``w``."""
    for d in degrees_where(
            lambda d: w.contains(d) and w.contains(add_deg(d, shift)),
            a, [sub_deg(e, shift) for e in b]):
        if a.get(d, 0) != b.get(add_deg(d, shift), 0):
            return d
    return None


class NameRuns(Sequence[str]):
    """A read-only sequence of names made of consecutive runs, each the
    names ``prefix + name`` for ``name`` in a base sequence of names.

    Only the runs are stored: a name is formatted when it is indexed or
    iterated, so a large basis built from a few shared base sequences holds
    no string of its own.  It compares equal, in both directions, to the
    tuple of its names and to any ``NameRuns`` with the same names.

    Its two builders make distinct names, so nothing checks: each run's
    base names are one degree's of a module or space, distinct already; in
    the coefficient extension the prefix ``mono|`` ends at a name's first
    ``|``, as no monomial's name holds one; the Tate terms' prefixes
    ``u{i}|`` and ``v{i}|`` differ in their first character.
    """

    __slots__ = ("runs", "_len")

    def __init__(self, runs: Iterable[tuple[str, Sequence[str]]]):
        kept, size = [], 0
        for prefix, names in runs:
            n = len(names)
            if n:
                kept.append((prefix, names))
                size += n
        self.runs, self._len = tuple(kept), size

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[str]:
        for prefix, names in self.runs:
            for n in names:
                yield prefix + n

    def __getitem__(self, i: int) -> str:
        if i < 0:
            i += self._len
        if 0 <= i < self._len:
            for prefix, names in self.runs:
                if i < len(names):
                    return prefix + names[i]
                i -= len(names)
        raise IndexError("name index out of range")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, NameRuns)):
            return NotImplemented
        return len(other) == self._len and all(
            a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))


class GradedSpace:
    """Finite bigraded space with named bases.  Each degree's names are
    kept in the order given, which is the order of the coordinates every
    block over this space uses; a name may occur once per degree.  A
    ``NameRuns`` is kept as given and unread, and any other iterable is
    copied to a tuple and refused if a name repeats.  Each degree's
    dimension is counted once, when the space is built, and kept in
    ``sizes``: ``dim`` is one lookup, and a ``NameRuns`` basis is measured
    once."""

    def __init__(self, window: Window,
                 basis: dict[Degree, Iterable[str]] | None = None):
        self.window = window
        self.basis: dict[Degree, Sequence[str]] = {}
        # degree -> dimension, for the populated degrees; only read
        self.sizes: dict[Degree, int] = {}
        if basis:
            for d, names in basis.items():
                if type(names) is not NameRuns:
                    names = tuple(names)
                    if len(set(names)) != len(names):
                        raise ValueError(f"duplicate names at {d}")
                n = len(names)
                if not n:
                    continue
                if not window.contains(d):
                    raise ValueError(f"degree {d} outside window")
                self.basis[d] = names
                self.sizes[d] = n
        # name -> position, built per degree on its first lookup
        self._index: dict[Degree, dict[str, int]] = {}

    def dim(self, d: Degree) -> int:
        return self.sizes.get(d, 0)

    def names(self, d: Degree) -> Sequence[str]:
        return self.basis.get(d, ())

    def index(self, d: Degree, name: str) -> int:
        got = self._index.get(d)
        if got is None:
            got = self._index[d] = {n: i for i, n in enumerate(self.basis[d])}
        return got[name]

    def degrees(self) -> list[Degree]:
        return sorted(self.basis)

    def total_dim(self) -> int:
        return sum(self.sizes.values())

    def dims(self) -> dict[Degree, int]:
        return dict(self.sizes)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedSpace)
                and self.window == other.window and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"GradedSpace(dim={self.total_dim()}, window={self.window})"


def _dual_name(n: str) -> str:
    """The name of a dual basis vector: the dual marker ``^`` is added, or
    taken off (involutive except on names that end in ``^^``)."""
    return n[:-1] if n.endswith("^") else n + "^"


def dual_space(a: GradedSpace) -> GradedSpace:
    """Dual with negated grading and dual names (``_dual_name``)."""
    return GradedSpace(
        a.window.negate(),
        {neg_deg(d): tuple(_dual_name(n) for n in names)
         for d, names in a.basis.items()},
    )


class GradedMap:
    """Degree-shifting linear map given per source degree.

    Blocks map row vectors: ``image_bits = block.vec_mul(source_bits)``.
    Missing blocks are zero.  Blocks whose shifted target degree falls
    outside the target window are not stored.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, shift: Degree,
                 blocks: dict[Degree, F2Matrix] | None = None):
        self.source = source
        self.target = target
        self.shift = shift
        self.blocks: dict[Degree, F2Matrix] = {}
        sizes, widths = source.sizes, target.sizes
        dm, dk = shift
        for d, m in (blocks or {}).items():
            if (m.nrows != sizes.get(d, 0)
                    or m.ncols != widths.get((d[0] + dm, d[1] + dk), 0)):
                raise ValueError(f"block shape mismatch at {d}")
            if any(m.rows):
                self.blocks[d] = m

    def block(self, d: Degree) -> F2Matrix:
        got = self.blocks.get(d)
        if got is not None:
            return got
        return F2Matrix.zero(self.source.dim(d),
                             self.target.dim(add_deg(d, self.shift)))

    def apply(self, d: Degree, bits: int) -> int:
        got = self.blocks.get(d)
        return 0 if got is None else got.vec_mul(bits)

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedMap):
            return False
        if (self.shift != other.shift or self.source != other.source
                or self.target != other.target):
            return False
        degs = set(self.blocks) | set(other.blocks)
        return all(self.block(d) == other.block(d) for d in degs)

    def compose(self, then: "GradedMap") -> "GradedMap":
        """self followed by ``then`` (shifts add).  The middle dimensions
        must agree at every source degree, as they do when the two maps
        share their middle space; only stored block pairs are
        multiplied, since a missing block is zero, and each distinct pair
        of block matrices once: degrees that share both blocks share the
        product."""
        out: dict[Degree, F2Matrix] = {}
        products: dict[tuple[int, int], F2Matrix] = {}
        same = self.target is then.source
        for d in self.source.basis:
            mid = add_deg(d, self.shift)
            if not same and self.target.dim(mid) != then.source.dim(mid):
                raise ValueError("composition block mismatch")
            b1, b2 = self.blocks.get(d), then.blocks.get(mid)
            if b1 is not None and b2 is not None:
                pair = (id(b1), id(b2))
                got = products.get(pair)
                if got is None:
                    got = products[pair] = b1.mul(b2)
                out[d] = got
        return GradedMap(self.source, then.target,
                         add_deg(self.shift, then.shift), out)

    def add(self, other: "GradedMap") -> "GradedMap":
        if self.shift != other.shift:
            raise ValueError("cannot add maps of different shifts")
        out: dict[Degree, F2Matrix] = {}
        for d in set(self.blocks) | set(other.blocks):
            out[d] = self.block(d).add(other.block(d))
        return GradedMap(self.source, self.target, self.shift, out)

    def dual(self, source_dual: GradedSpace, target_dual: GradedSpace) -> "GradedMap":
        """Transpose map on the dual spaces, same shift."""
        out: dict[Degree, F2Matrix] = {}
        for d, m in self.blocks.items():
            td = add_deg(d, self.shift)
            out[neg_deg(td)] = m.transpose()
        return GradedMap(target_dual, source_dual, self.shift, out)

    # A block keeps its own kernel and row basis (``gf2``), so maps that
    # share a block share those answers; a missing block is the shared zero
    # block of its shape.

    def kernel_at(self, d: Degree) -> F2Matrix:
        """Rows spanning the kernel at source degree ``d``."""
        return left_kernel_basis(self.block(d))

    def image_at(self, d: Degree) -> F2Matrix:
        """Rows spanning the image inside target degree ``d``, in rref."""
        return row_basis(self.block(sub_deg(d, self.shift)))

    def rank_at(self, d: Degree) -> int:
        got = self.blocks.get(d)
        return 0 if got is None else got.rank

    def ranks(self) -> dict[Degree, int]:
        """The rank of every stored block, keyed by its target degree, in
        window order: one ``Column`` takes the blocks in source order, so up
        each m column, and reads each rank off its elimination."""
        col = Column()
        out: dict[Degree, int] = {}
        for d in sorted(self.blocks):
            blk = self.blocks[d]
            col.take(blk.rows, blk.ncols)
            out[add_deg(d, self.shift)] = col.rank
        return out


def homology_at(f: GradedMap, g: GradedMap, d: Degree) -> Optional[int]:
    """``homology`` at degree ``d`` of the space that ``f`` maps into and
    ``g`` maps out of: the dimension of ``Ker g / Im f`` there, or None when
    ``f`` followed by ``g`` is not zero.  A missing block is passed as a
    zero map, so no zero block is built."""
    return homology(f.blocks.get(sub_deg(d, f.shift)), g.blocks.get(d),
                    g.source.dim(d))


def identity_map(space: GradedSpace) -> GradedMap:
    return GradedMap(space, space, (0, 0),
                     {d: F2Matrix.identity(space.dim(d))
                      for d in space.degrees()})


def pair_map(space: GradedSpace, shift: Degree,
             pairs: Iterable[tuple[Degree, str, Iterable[str]]]) -> GradedMap:
    """The endomorphism of degree ``shift`` sending the basis vector ``a``
    at ``d`` to the sum of the basis vectors ``bs`` at ``d + shift`` for
    each ``(d, a, bs)`` and every other basis vector to zero.  Targets add
    over GF(2), so a repeated target cancels."""
    rows: dict[Degree, list[int]] = {}
    for d, a, bs in pairs:
        td = add_deg(d, shift)
        bits = 0
        for b in bs:
            bits ^= 1 << space.index(td, b)
        rows.setdefault(d, [0] * space.dim(d))[space.index(d, a)] ^= bits
    return GradedMap(space, space, shift, {
        d: F2Matrix.from_rows(r, space.dim(add_deg(d, shift)))
        for d, r in rows.items()})


# -- subquotient helpers -----------------------------------------------------

class Subquotient(Record):
    """Numerator/denominator row bases per degree in an ambient space.

    A degree's representatives, coordinates and dimension come from one
    completed elimination (``Echelon.complete``), built on the first read
    there and kept, so the numerator and denominator tables must not change
    after the first read of a degree.  Degrees whose tables hold the same
    numerator and denominator matrices, and whose ambient dimensions agree,
    share one elimination: each distinct (numerator, denominator,
    dimension) is solved once, and every degree keeps its own entry.  A
    builder that has counted some dimensions already passes them as
    ``counted``, which ``dim`` reads in place of an elimination and nothing
    writes.
    """

    __slots__ = ("ambient", "numerators", "denominators", "counted",
                 "_solved", "_shared")
    _fields = ("ambient", "numerators", "denominators")

    def __init__(self, ambient: GradedSpace, numerators: dict[Degree, F2Matrix],
                 denominators: dict[Degree, F2Matrix],
                 counted: Optional[dict[Degree, int]] = None) -> None:
        self.ambient, self.numerators = ambient, numerators
        self.denominators = denominators
        # degree -> dimension, as the builder counted it; only read
        self.counted = {} if counted is None else counted
        # degree -> (representatives, their elimination, count of denominator rows)
        self._solved: dict[Degree, tuple[F2Matrix, Echelon, int]] = {}
        # (id of the numerator, id of the denominator, ambient dimension) -> the
        # entry of every degree that reads them; the tables hold both matrices
        self._shared: dict[tuple[int, int, int], tuple[F2Matrix, Echelon, int]] = {}

    def _solver(self, d: Degree) -> tuple[F2Matrix, Echelon, int]:
        got = self._solved.get(d)
        if got is None:
            num = self.numerators.get(d)
            den = self.denominators.get(d)
            dim = self.ambient.dim(d)
            got = self._shared.get((id(num), id(den), dim))
            if got is None:
                den_rows = den.rows if den is not None else ()
                span = Echelon(den_rows)
                reps = span.complete(num.rows if num is not None else ())
                got = self._shared[id(num), id(den), dim] = (
                    F2Matrix.from_rows(reps, dim), span, len(den_rows))
            self._solved[d] = got
        return got

    def reps(self, d: Degree) -> F2Matrix:
        return self._solver(d)[0]

    def dim(self, d: Degree) -> int:
        """rank(num + den) - rank(den): the rank the numerator rows add to
        the eliminated denominator, which need not lie in the numerator.
        The builder's count where it gave one, else the count of ``reps``;
        0, with no elimination, where no numerator is given."""
        if d in self.counted:
            return self.counted[d]
        return self._solver(d)[0].nrows if d in self.numerators else 0

    def dims(self) -> dict[Degree, int]:
        """The nonzero dimensions."""
        return {d: n for d in self.numerators if (n := self.dim(d))}

    def express(self, d: Degree, vec: int) -> Optional[int]:
        """Coordinates of an ambient vector in the rep basis, mod denominator."""
        _, span, skip = self._solver(d)
        c = span.coords(vec)
        return None if c is None else c >> skip

    def induced(self, mp: GradedMap, dst: "Subquotient",
                d: Degree) -> Optional[F2Matrix]:
        """The matrix of ``mp`` from this subquotient at ``d`` to ``dst`` at
        ``d + mp.shift``, in the two rep bases, or None when the image of
        some representative is not in ``dst``'s numerator plus denominator."""
        td = add_deg(d, mp.shift)
        rows = []
        for v in self.reps(d).rows:
            c = dst.express(td, mp.apply(d, v))
            if c is None:
                return None
            rows.append(c)
        return F2Matrix.from_rows(rows, dst.dim(td))


# -- solver for operator-commuting graded maps -------------------------------

class OperatorPair(FrozenRecord):
    """An operator present on both source and target of a hom problem; an
    immutable value."""

    __slots__ = ("name", "on_source", "on_target")

    def __init__(self, name: str, on_source: GradedMap,
                 on_target: GradedMap) -> None:
        super().__init__(name, on_source, on_target)


def hom_space(source: GradedSpace, target: GradedSpace, shift: Degree,
              operators: list[OperatorPair], region: Window,
              unit: Optional[tuple[GradedMap, GradedMap]] = None,
              ) -> list[GradedMap] | Optional[GradedMap]:
    """Maps ``phi: source -> target`` of the given degree shift that commute
    with every named operator, solved on ``region`` only.

    Without ``unit`` the result is a basis of all such maps.  With
    ``unit=(before, after)``, maps ``before: X -> source`` and
    ``after: target -> X`` whose shifts add up with ``shift`` to zero, the
    result is one map with ``before . phi . after`` the identity of ``X`` at
    every region degree, free coordinates set to zero, or None when no such
    map exists.  A section of ``g`` passes ``(identity, g)``; a retraction
    onto a subspace passes ``(inclusion, identity)``.

    A map variable exists at each region degree where both the source and
    the shifted target are nonzero; everywhere else the map is the zero
    matrix.  Variables are ordered by degree, then source row, then target
    column.  Commutation is imposed at every source degree whose operator
    image stays inside the region, so truncated data is never trusted.
    The whole problem is one linear system over all variables, passed once
    to ``solve`` with ``unit`` and once to ``kernel_basis`` without.  The
    basis maps come back ordered by the free variable each one sets to 1,
    so by that variable's degree, source row and target column.
    """
    def tdim(d: Degree) -> int:
        return target.dim(add_deg(d, shift))

    offset: dict[Degree, int] = {}   # degree -> its first map variable
    nvars = 0
    for d in source.degrees():
        if region.contains(d) and tdim(d):
            offset[d] = nvars
            nvars += source.dim(d) * tdim(d)
    eqs: list[int] = []
    rhs = 0

    for op in operators:
        for d in source.degrees():
            d2 = add_deg(d, op.on_source.shift)
            if not (region.contains(d) and region.contains(d2)):
                continue
            off1, off2 = offset.get(d), offset.get(d2)
            if off1 is None and off2 is None:
                continue
            # phi_d2 at row p, column j is bit off2 + p*ct + j, and phi_d at
            # row i, column q is bit off1 + i*cs + q: one equation per (i, j)
            # reads (a . phi_d2)[i, j] = (phi_d . b)[i, j].
            a = op.on_source.block(d)
            bt = op.on_target.block(add_deg(d, shift)).transpose().rows
            cs, ct = tdim(d), tdim(d2)
            for i in range(source.dim(d)):
                spread = _spread(a.rows[i], ct) if off2 is not None else 0
                for j in range(ct):
                    row = spread << (off2 + j) if off2 is not None else 0
                    if off1 is not None:
                        row ^= bt[j] << (off1 + i * cs)
                    if row:
                        eqs.append(row)

    if unit is not None:
        before, after = unit
        if add_deg(add_deg(before.shift, shift), after.shift) != (0, 0):
            raise ValueError("unit maps must compose to degree zero")
        for d in before.source.degrees():
            if not region.contains(d):
                continue
            e = add_deg(d, before.shift)
            off = offset.get(e)
            if off is None:
                return None            # phi vanishes here, so no identity
            b = before.block(d)
            after_cols = after.block(add_deg(e, shift)).transpose().rows
            cs = tdim(e)
            for x in range(b.nrows):
                spread = _spread(b.rows[x], cs)
                for y, col in enumerate(after_cols):
                    if x == y:
                        rhs |= 1 << len(eqs)
                    eqs.append((spread * col) << off)

    def as_map(sol: int) -> GradedMap:
        blocks = {}
        for d, off in offset.items():
            cs = tdim(d)
            mask = (1 << cs) - 1
            blocks[d] = F2Matrix.from_rows(
                [(sol >> (off + i * cs)) & mask for i in range(source.dim(d))], cs)
        return GradedMap(source, target, shift, blocks)

    system = F2Matrix.from_rows(eqs, nvars)
    if unit is None:
        return [as_map(sol) for sol in kernel_basis(system).rows]
    sol = solve(system, rhs)
    return None if sol is None else as_map(sol)
