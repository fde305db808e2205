"""Bigraded vector spaces over GF(2) with truncation-window bookkeeping.

Degrees are pairs ``(m, k)``: ``m`` is the integer part, ``k`` the twist.
A ``GradedSpace`` holds named bases per degree inside a window, each in
the order its builder listed it: a ``NameRuns`` sequence is kept as given
and formats its names when they are read, and any other iterable of names
is copied to a tuple.  A ``GradedMap`` holds one bit matrix per
populated source degree, with rows indexed by the source basis and columns
by the target basis at the shifted degree.  Names are labels: nothing
sorts or parses them, so a dual keeps the positions it transposes.
Every operation records the subwindow on which its output is complete, so
downstream comparisons never read truncation artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .gf2 import (
    Echelon,
    F2Matrix,
    _spread,
    homology,
    kernel_basis,
    left_kernel_basis,
    row_basis,
    solve,
)

Degree = tuple[int, int]


@dataclass(frozen=True)
class Window:
    m_lo: int
    m_hi: int
    k_lo: int
    k_hi: int

    def __post_init__(self) -> None:
        if self.m_lo > self.m_hi or self.k_lo > self.k_hi:
            raise ValueError("empty window bounds")

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
    window order for bidegrees, ascending for integer degrees."""
    return sorted({d for ds in degree_sets for d in ds if keep(d)})


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
    """

    __slots__ = ("runs", "_len")

    def __init__(self, runs: Iterable[tuple[str, Sequence[str]]]):
        self.runs = tuple((p, ns) for p, ns in runs if ns)
        self._len = sum(len(ns) for _, ns in self.runs)

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
    ``NameRuns`` is kept as given, and any other iterable is copied to a
    tuple."""

    def __init__(self, window: Window,
                 basis: dict[Degree, Iterable[str]] | None = None):
        self.window = window
        self.basis: dict[Degree, Sequence[str]] = {}
        if basis:
            for d, names in basis.items():
                if not isinstance(names, NameRuns):
                    names = tuple(names)
                if not names:
                    continue
                if not window.contains(d):
                    raise ValueError(f"degree {d} outside window")
                if len(set(names)) != len(names):
                    raise ValueError(f"duplicate names at {d}")
                self.basis[d] = names
        # name -> position, built per degree on its first lookup
        self._index: dict[Degree, dict[str, int]] = {}

    def dim(self, d: Degree) -> int:
        return len(self.basis.get(d, ()))

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
        return sum(len(v) for v in self.basis.values())

    def dims(self) -> dict[Degree, int]:
        return {d: len(v) for d, v in self.basis.items()}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedSpace)
                and self.window == other.window and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"GradedSpace(dim={self.total_dim()}, window={self.window})"


def _dual_name(n: str) -> str:
    """The name of a dual basis vector: the dual marker ``^`` is added, or
    taken off (involutive)."""
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
        sbasis, tbasis = source.basis, target.basis
        for d, m in (blocks or {}).items():
            if (m.nrows != len(sbasis.get(d, ()))
                    or m.ncols != len(tbasis.get(add_deg(d, shift), ()))):
                raise ValueError(f"block shape mismatch at {d}")
            if any(m.rows):
                self.blocks[d] = m

    def block(self, d: Degree) -> F2Matrix:
        td = add_deg(d, self.shift)
        got = self.blocks.get(d)
        if got is not None:
            return got
        return F2Matrix.zero(self.source.dim(d), self.target.dim(td))

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
        must agree at every source degree; only stored block pairs are
        multiplied, since a missing block is zero."""
        out: dict[Degree, F2Matrix] = {}
        for d in self.source.basis:
            mid = add_deg(d, self.shift)
            if self.target.dim(mid) != then.source.dim(mid):
                raise ValueError("composition block mismatch")
            b1, b2 = self.blocks.get(d), then.blocks.get(mid)
            if b1 is not None and b2 is not None:
                out[d] = b1.mul(b2)
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

@dataclass
class Subquotient:
    """Numerator/denominator row bases per degree in an ambient space.

    A degree's representatives, coordinates and dimension come from one
    completed elimination (``Echelon.complete``), built on the first
    ``reps`` or ``express`` there and kept; a degree only counted keeps its
    dimension.  So the numerator and denominator tables must not change
    after the first read of a degree.
    """

    ambient: GradedSpace
    numerators: dict[Degree, F2Matrix]
    denominators: dict[Degree, F2Matrix]
    # degree -> (representatives, their elimination, count of denominator rows)
    _solved: dict[Degree, tuple[F2Matrix, Echelon, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # degree -> dimension, counted without a kept elimination
    _counted: dict[Degree, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _solver(self, d: Degree) -> tuple[F2Matrix, Echelon, int]:
        got = self._solved.get(d)
        if got is None:
            num = self.numerators.get(d)
            den = self.denominators.get(d)
            den_rows = den.rows if den is not None else ()
            span = Echelon(den_rows)
            reps = span.complete(num.rows if num is not None else ())
            got = self._solved[d] = (
                F2Matrix.from_rows(reps, self.ambient.dim(d)), span,
                len(den_rows))
        return got

    def reps(self, d: Degree) -> F2Matrix:
        return self._solver(d)[0]

    def dim(self, d: Degree) -> int:
        """rank(num + den) - rank(den): the rank the numerator rows add to
        the eliminated denominator, which need not lie in the numerator.
        An unsolved degree is counted once, and only its count is kept."""
        got = self._solved.get(d)
        if got is not None:
            return got[0].nrows
        n = self._counted.get(d)
        if n is None:
            num = self.numerators.get(d)
            if num is None:
                return 0
            den = self.denominators.get(d)
            span = Echelon(den.rows if den is not None else ())
            n = self._counted[d] = span.extend(num.rows)
        return n

    def dims(self) -> dict[Degree, int]:
        """The nonzero dimensions."""
        out = {}
        for d in set(self.numerators):
            n = self.dim(d)
            if n:
                out[d] = n
        return out

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

@dataclass(frozen=True)
class OperatorPair:
    """An operator present on both source and target of a hom problem."""

    name: str
    on_source: GradedMap
    on_target: GradedMap


def _components(degrees: list[Degree], shifts: list[Degree]) -> list[list[Degree]]:
    parent = {d: d for d in degrees}

    def find(x: Degree) -> Degree:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degset = set(degrees)
    for d in degrees:
        for s in shifts:
            e = add_deg(d, s)
            if e in degset:
                ra, rb = find(d), find(e)
                if ra != rb:
                    parent[ra] = rb
    comps: dict[Degree, list[Degree]] = {}
    for d in degrees:
        comps.setdefault(find(d), []).append(d)
    return list(comps.values())


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
    The system splits into independent components along operator shifts;
    since elimination is leftmost-pivot, neither the split nor the order of
    the equations changes the answer.
    """
    def tdim(d: Degree) -> int:
        return target.dim(add_deg(d, shift))

    var_degrees = [d for d in source.degrees()
                   if region.contains(d) and tdim(d)]
    op_shifts = [op.on_source.shift for op in operators]
    comps = [sorted(c) for c in _components(
        var_degrees, op_shifts + [neg_deg(s) for s in op_shifts])]
    where: dict[Degree, tuple[int, int]] = {}   # degree -> (component, offset)
    nvars = [0] * len(comps)
    for c, comp in enumerate(comps):
        for d in comp:
            where[d] = (c, nvars[c])
            nvars[c] += source.dim(d) * tdim(d)
    eqs: list[list[int]] = [[] for _ in comps]
    rhs = [0] * len(comps)

    for op in operators:
        for d in source.degrees():
            d2 = add_deg(d, op.on_source.shift)
            if not (region.contains(d) and region.contains(d2)):
                continue
            at1, at2 = where.get(d), where.get(d2)
            if at1 is None and at2 is None:
                continue
            # phi_d2 at row p, column j is bit off2 + p*ct + j, and phi_d at
            # row i, column q is bit off1 + i*cs + q: one equation per (i, j)
            # reads (a . phi_d2)[i, j] = (phi_d . b)[i, j].
            c = (at1 if at1 is not None else at2)[0]
            a = op.on_source.block(d)
            bt = op.on_target.block(add_deg(d, shift)).transpose().rows
            cs, ct = tdim(d), tdim(d2)
            for i in range(source.dim(d)):
                spread = _spread(a.rows[i], ct) if at2 is not None else 0
                for j in range(ct):
                    row = spread << (at2[1] + j) if at2 is not None else 0
                    if at1 is not None:
                        row ^= bt[j] << (at1[1] + i * cs)
                    if row:
                        eqs[c].append(row)

    if unit is not None:
        before, after = unit
        if add_deg(add_deg(before.shift, shift), after.shift) != (0, 0):
            raise ValueError("unit maps must compose to degree zero")
        for d in before.source.degrees():
            if not region.contains(d):
                continue
            e = add_deg(d, before.shift)
            at = where.get(e)
            if at is None:
                return None            # phi vanishes here, so no identity
            c, off = at
            b = before.block(d)
            after_cols = after.block(add_deg(e, shift)).transpose().rows
            cs = tdim(e)
            for x in range(b.nrows):
                spread = _spread(b.rows[x], cs)
                for y, col in enumerate(after_cols):
                    if x == y:
                        rhs[c] |= 1 << len(eqs[c])
                    eqs[c].append((spread * col) << off)

    def unpack(comp: list[Degree], sol: int) -> dict[Degree, F2Matrix]:
        blocks = {}
        for d in comp:
            cs, off = tdim(d), where[d][1]
            mask = (1 << cs) - 1
            blocks[d] = F2Matrix.from_rows(
                [(sol >> (off + i * cs)) & mask for i in range(source.dim(d))], cs)
        return blocks

    if unit is not None:
        found: dict[Degree, F2Matrix] = {}
        for c, comp in enumerate(comps):
            sol = solve(F2Matrix.from_rows(eqs[c], nvars[c]), rhs[c])
            if sol is None:
                return None
            found.update(unpack(comp, sol))
        return GradedMap(source, target, shift, found)
    return [GradedMap(source, target, shift, unpack(comp, sol))
            for c, comp in enumerate(comps)
            for sol in kernel_basis(F2Matrix.from_rows(eqs[c], nvars[c])).rows]
