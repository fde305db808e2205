"""Modules over the 8-dimensional subalgebra generated by Sq1 and Sq2.

An ``A1Module`` is a finite window of a Z-graded module together with the
two generating operations.  The ``complete`` range records where the data
agrees with the untruncated module: the basis is exact on
``[complete_lo, complete_hi]`` and every action block whose source and
target both lie in that range is exact.  A bound of ``-math.inf`` or
``math.inf`` means exact in every degree in that direction.  Every
operation states where its output can be trusted, and degree loops run
over populated degrees only (``A1Module.trusted_degrees``).

Standard modules: the trivial module, the free rank-one module, the loop
companions ``P0..P3`` of the reduced projective-space module (period
eight under four loops), of which ``P = x F[x]`` is companion 1
(``std_p`` is ``std_pn(1, ...)``), and the reduced cohomology of
elementary abelian 2-groups assembled by tensoring copies of ``P``.

Modules are built from blocks: suspension re-keys the ``sq1``/``sq2``
blocks, the dual transposes them, the direct sum places them on the
diagonal and the tensor product writes the Cartan formula as Kronecker
products of rows.  Each degree's basis is listed in the order its builder
makes it, and that order is the coordinate order of every block; names
are labels that must be distinct within a degree.  Only the standard
diagrams and module files are name tables, which ``from_table`` turns
into blocks.

``A1_OPS`` is the one place that defines an operation: each element the
code evaluates (the basis words, Q1 among them, the top class theta and
the defects of the two relations) is a sum of application sequences of
Sq1 and Sq2 there, and ``A1Module.op`` evaluates one on a whole degree as
a product of the stored blocks.  ``validate``, the Margolis homologies,
``free_generators``, ``reduce``, the projective cover, module maps and the
coefficient extension all read ``op``.

Theta counts free summands of modules only, so its one entry,
``_certified_hi``, runs ``validate`` first, and ``free_generators``,
``reduce``, ``loop_power`` and ``stable_evidence`` name the first broken
relation.  ``A1Map.commute_failure`` is the one check that a map of
modules commutes with Sq1 and Sq2.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

from .gf2 import (
    Echelon,
    F2Matrix,
    _spread,
    common_kernel,
    homology,
    kernel_basis,
    left_kernel_basis,
)
from .graded import (
    GradedMap,
    GradedSpace,
    OperatorPair,
    Window,
    _dual_name,
    hom_space,
)
from .record import Record

# Basis words of the free rank-one module and their degrees.
A1_WORDS: tuple[tuple[str, int], ...] = (
    ("1", 0), ("Sq1", 1), ("Sq2", 2), ("Q1", 3),
    ("Sq1Sq2", 3), ("Q0Q1", 4), ("Q1Sq2", 5), ("Q0Q1Sq2", 6),
)
A1_SQ1: dict[str, tuple[str, ...]] = {
    "1": ("Sq1",), "Sq1": (), "Sq2": ("Sq1Sq2",), "Q1": ("Q0Q1",),
    "Sq1Sq2": (), "Q0Q1": (), "Q1Sq2": ("Q0Q1Sq2",), "Q0Q1Sq2": (),
}
A1_SQ2: dict[str, tuple[str, ...]] = {
    "1": ("Sq2",), "Sq1": ("Q1", "Sq1Sq2"), "Sq2": ("Q0Q1",),
    "Q1": ("Q1Sq2",), "Sq1Sq2": ("Q1Sq2",), "Q0Q1": ("Q0Q1Sq2",),
    "Q1Sq2": (), "Q0Q1Sq2": (),
}
# Every element the code evaluates, as a sum of application sequences of
# the generators (first entry acts first): the basis words of the free
# module, Q1 among them, the top class theta, which detects free summands,
# and the defects of the two relations, which vanish on a module.
A1_OPS: dict[str, tuple[tuple[int, ...], ...]] = {
    "1": ((),),
    "Sq1": ((1,),),
    "Sq2": ((2,),),
    "Sq1Sq2": ((2, 1),),
    "Q1": ((2, 1), (1, 2)),
    "Q0Q1": ((2, 1, 1), (1, 2, 1)),
    "Q1Sq2": ((2, 2, 1), (2, 1, 2)),
    "Q0Q1Sq2": ((2, 2, 1, 1), (2, 1, 2, 1)),
    "theta": ((2, 2, 2),),
    "Sq1 Sq1 = 0": ((1, 1),),
    "Sq2 Sq2 = Sq1 Sq2 Sq1": ((2, 2), (1, 2, 1)),
}


class A1Module:
    """Finite window of a graded module over the Sq1/Sq2 algebra."""

    def __init__(self, basis: dict[int, Iterable[str]],
                 sq1: dict[int, F2Matrix], sq2: dict[int, F2Matrix],
                 lo: int, hi: int, complete_lo: float, complete_hi: float):
        self.basis: dict[int, tuple[str, ...]] = {
            d: tuple(names) for d, names in basis.items() if tuple(names)
        }
        for d, names in self.basis.items():
            if len(set(names)) != len(names):
                raise ValueError(f"basis at {d} repeats a name")
        self.lo, self.hi = lo, hi
        self.complete_lo, self.complete_hi = complete_lo, complete_hi
        self.sq1 = {d: m for d, m in sq1.items() if not m.is_zero()}
        self.sq2 = {d: m for d, m in sq2.items() if not m.is_zero()}
        for d, m in self.sq1.items():
            if m.nrows != self.dim(d) or m.ncols != self.dim(d + 1):
                raise ValueError(f"sq1 block shape mismatch at {d}")
        for d, m in self.sq2.items():
            if m.nrows != self.dim(d) or m.ncols != self.dim(d + 2):
                raise ValueError(f"sq2 block shape mismatch at {d}")

    # -- access ----------------------------------------------------------

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def names(self, d: int) -> tuple[str, ...]:
        return self.basis.get(d, ())

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def dims(self) -> dict[int, int]:
        return {d: len(v) for d, v in self.basis.items()}

    def bottom(self) -> Optional[int]:
        ds = self.degrees()
        return ds[0] if ds else None

    def sq1_block(self, d: int) -> F2Matrix:
        return self.sq1.get(d) or F2Matrix.zero(self.dim(d), self.dim(d + 1))

    def sq2_block(self, d: int) -> F2Matrix:
        return self.sq2.get(d) or F2Matrix.zero(self.dim(d), self.dim(d + 2))

    def apply_sq1(self, d: int, bits: int) -> int:
        got = self.sq1.get(d)
        return 0 if got is None else got.vec_mul(bits)

    def apply_sq2(self, d: int, bits: int) -> int:
        got = self.sq2.get(d)
        return 0 if got is None else got.vec_mul(bits)

    def op(self, name: str, d: int) -> F2Matrix:
        """The element ``name`` of ``A1_OPS`` on degree d: row i is the image
        of basis vector i, the sum over the element's sequences of the
        products of the stored blocks they pass through.  A sequence that
        meets a block of zeros adds nothing."""
        seqs = A1_OPS[name]
        terms: list[Sequence[int]] = []
        for seq in seqs:
            rows: Optional[Sequence[int]] = None
            cd = d
            for step in seq:
                blk = (self.sq1 if step == 1 else self.sq2).get(cd)
                if blk is None:
                    break
                rows = blk.rows if rows is None else [blk.vec_mul(r) for r in rows]
                cd += step
            else:
                terms.append(F2Matrix.identity(self.dim(d)).rows
                             if rows is None else rows)
        ncols = self.dim(d + sum(seqs[0]))
        if not terms:
            return F2Matrix.zero(self.dim(d), ncols)
        rows = terms[0]
        for more in terms[1:]:
            rows = [a ^ b for a, b in zip(rows, more)]
        return F2Matrix(len(rows), ncols, tuple(rows))

    def vector_name(self, d: int, bits: int) -> str:
        names = self.names(d)
        return "+".join(n for i, n in enumerate(names) if (bits >> i) & 1) or "0"

    def is_complete_below(self) -> bool:
        """True when the untruncated module is known to vanish below the
        window (the exactness range extends strictly below it, for
        instance to ``-math.inf``)."""
        return self.complete_lo < self.lo or not self.basis

    def trusted_degrees(self, reach: int = 0) -> list[int]:
        """Populated degrees d with d and d + reach in the complete range,
        so that actions from d reaching ``reach`` up are exact."""
        return [d for d in self.degrees()
                if self.complete_lo <= d and d + reach <= self.complete_hi]

    def incoming_ok(self, d: int, reach: int) -> bool:
        """All actions landing in degree d from ``reach`` below are faithful."""
        return d - reach >= self.complete_lo or self.is_complete_below()

    # -- views -------------------------------------------------------------

    def space(self) -> GradedSpace:
        w = Window(min(self.lo, 0), max(self.hi, 0), 0, 0)
        return GradedSpace(w, {(d, 0): names for d, names in self.basis.items()})

    def sq1_map(self) -> GradedMap:
        s = self.space()
        return GradedMap(s, s, (1, 0), {(d, 0): m for d, m in self.sq1.items()})

    def sq2_map(self) -> GradedMap:
        s = self.space()
        return GradedMap(s, s, (2, 0), {(d, 0): m for d, m in self.sq2.items()})

    def __repr__(self) -> str:
        return (f"A1Module(dim={self.total_dim()}, window=[{self.lo},{self.hi}], "
                f"complete=[{self.complete_lo},{self.complete_hi}])")


def _assemble(names: dict[int, list[str]],
              sq1_rows: dict[int, Sequence[int]],
              sq2_rows: dict[int, Sequence[int]],
              lo: int, hi: int, c_lo: float, c_hi: float) -> A1Module:
    """Build a module from each degree's names and action rows: row ``i``
    of ``sq1_rows[d]`` is the image of ``names[d][i]``, with bit ``j`` for
    ``names[d + 1][j]`` (likewise for ``sq2_rows`` and ``d + 2``); a degree
    without rows acts by zero.  Names are never merged, so a repeated name
    raises ``ValueError``."""
    def blocks(rows_at: dict[int, Sequence[int]], reach: int
               ) -> dict[int, F2Matrix]:
        return {d: F2Matrix.from_rows(rows, len(names.get(d + reach, ())))
                for d, rows in rows_at.items()}

    return A1Module(names, blocks(sq1_rows, 1), blocks(sq2_rows, 2),
                    lo, hi, c_lo, c_hi)


def from_table(basis: dict[int, list[str]],
               images1: dict[tuple[int, str], Iterable[str]],
               images2: dict[tuple[int, str], Iterable[str]],
               lo: int, hi: int, c_lo: float, c_hi: float) -> A1Module:
    """Assemble a module from name-level tables: the names of each degree,
    in basis order, and under ``(d, name)`` the targets of Sq1 and Sq2
    (absent means zero).  Targets add over GF(2), so a repeated target
    cancels; targets outside the basis are clipped."""
    where = {d: {n: i for i, n in enumerate(ns)} for d, ns in basis.items()}

    def row(tgt: dict[str, int], targets: Iterable[str]) -> int:
        bits = 0
        for t in targets:
            if t in tgt:
                bits ^= 1 << tgt[t]
        return bits

    def rows(images: dict[tuple[int, str], Iterable[str]], reach: int
             ) -> dict[int, list[int]]:
        return {d: [row(where.get(d + reach, {}), images.get((d, n), ()))
                    for n in ns]
                for d, ns in basis.items()}

    return _assemble(basis, rows(images1, 1), rows(images2, 2), lo, hi, c_lo, c_hi)


# -- standard modules ---------------------------------------------------------

def std_f(shift: int = 0) -> A1Module:
    """The trivial one-dimensional module, optionally suspended."""
    return A1Module({shift: [f"i{shift}"]}, {}, {}, shift, shift,
                    -math.inf, math.inf)


def std_a1(shift: int = 0) -> A1Module:
    """The free rank-one module (dimension 8, degrees 0..6), suspended."""
    if shift:
        return suspend(std_a1(), shift)
    basis: dict[int, list[str]] = {}
    for w, d in A1_WORDS:
        basis.setdefault(d, []).append(w)
    return from_table(basis, {(d, w): A1_SQ1[w] for w, d in A1_WORDS},
                          {(d, w): A1_SQ2[w] for w, d in A1_WORDS},
                          0, 6, -math.inf, math.inf)


def std_p(lo: int, hi: int) -> A1Module:
    """Truncation of the reduced projective-space module x F[x]."""
    return std_pn(1, lo, hi)


def std_pn(n: int, lo: int, hi: int) -> A1Module:
    """Loop companions of the projective module, period eight in fours.

    Transcribes the standard diagrams for the residues 0..3; other indices
    are suspensions by eight per four steps.  On the generic classes x^s,
    Sq1 acts for s odd and Sq2 for s = 2, 3 mod 4.
    """
    r = n % 4
    s8 = 8 * ((n - r) // 4)
    basis: dict[int, list[str]] = {}
    im1: dict[tuple[int, str], tuple[str, ...]] = {}
    im2: dict[tuple[int, str], tuple[str, ...]] = {}

    def add(name: str, d: int, t1: tuple[str, ...], t2: tuple[str, ...]) -> None:
        d += s8
        if d <= hi:
            basis.setdefault(d, []).append(name)
            im1[d, name], im2[d, name] = t1, t2

    def x(s: int) -> str:
        return f"x{s + s8}"

    def y(s: int) -> str:
        return f"y{s + s8}"

    def generic(s_min: int, override2: dict[int, tuple[str, ...]]) -> None:
        for s in range(s_min, hi - s8 + 1):
            t1 = (x(s + 1),) if s % 2 else ()
            t2 = override2.get(s, (x(s + 2),) if s % 4 in (2, 3) else ())
            add(x(s), s, t1, t2)

    if r == 0:
        add(x(-1), -1, (x(0),), (x(1),))
        add(x(0), 0, (), ())
        generic(1, {})
    elif r == 1:
        generic(1, {})
    elif r == 2:
        add(y(2), 2, (y(3),), (x(4),))
        add(y(3), 3, (), (y(5),))
        add(y(5), 5, (y(6),), ())
        add(y(6), 6, (), ())
        generic(3, {4: (y(6),)})
    else:
        add(y(3), 3, (y(4),), (x(5),))
        add(y(4), 4, (), (y(6),))
        add(y(6), 6, (y(7),), ())
        add(y(7), 7, (), ())
        generic(5, {5: (y(7),)})

    if not basis:
        raise ValueError("window too small to contain any generator")
    return from_table(basis, im1, im2, min(lo, *basis), hi, -math.inf, hi)


def suspend(m: A1Module, t: int) -> A1Module:
    """Degree shift by ``t``: the blocks move up by ``t`` and each name is
    tagged ``@t`` to stay distinct."""
    if t == 0:
        return m
    return A1Module({d + t: [f"{n}@{t}" for n in ns] for d, ns in m.basis.items()},
                    {d + t: b for d, b in m.sq1.items()},
                    {d + t: b for d, b in m.sq2.items()},
                    m.lo + t, m.hi + t, m.complete_lo + t, m.complete_hi + t)


def direct_sum_a1(mods: list[A1Module], tags: list[str]) -> A1Module:
    """Block-diagonal sum: each summand's names get its tag, one distinct tag
    per summand, as a prefix, and its rows are shifted to the summand's
    offset in each target degree."""
    if not mods:
        raise ValueError("empty direct sum")
    if len(tags) != len(mods):
        raise ValueError(f"{len(tags)} tags for {len(mods)} summands")
    if len(set(tags)) < len(tags):
        repeated = next(t for i, t in enumerate(tags) if t in tags[:i])
        raise ValueError(f"repeated tag {repeated!r}")
    names: dict[int, list[str]] = {}
    sq1: dict[int, list[int]] = {}
    sq2: dict[int, list[int]] = {}
    for tag, m in zip(tags, mods):
        offset = {d: len(names.get(d, ())) for d in m.basis}
        for d, ns in m.basis.items():
            names.setdefault(d, []).extend(tag + n for n in ns)
            for rows, blocks, reach in ((sq1, m.sq1, 1), (sq2, m.sq2, 2)):
                b = blocks.get(d)
                shift = offset.get(d + reach, 0)
                rows.setdefault(d, []).extend(
                    [r << shift for r in b.rows] if b else [0] * len(ns))
    return _assemble(names, sq1, sq2,
                     min(m.lo for m in mods), max(m.hi for m in mods),
                     max(m.complete_lo for m in mods),
                     min(m.complete_hi for m in mods))


def tensor_a1(a: A1Module, b: A1Module, hi: Optional[int] = None) -> A1Module:
    """Tensor product with the diagonal action (Cartan rule).

    The names of degree ``d`` are ``x*y`` in blocks, one per degree pair
    ``(da, db)`` with ``da + db = d``, row-major in the two factors' bases.
    Sq1 = Sq1*1 + 1*Sq1 and Sq2 = Sq2*1 + Sq1*Sq1 + 1*Sq2, each term a
    Kronecker product of rows placed at its target block's offset.
    """
    if not (a.is_complete_below() and b.is_complete_below()):
        raise ValueError("tensor factors must be complete at the bottom")
    ab, bb = a.bottom(), b.bottom()
    if ab is None or bb is None:
        raise ValueError("tensor with the zero module")

    # degree d is exact when both factors are exact in every pair of
    # degrees summing to d; nothing is populated above ``top``
    exact_hi = min(a.complete_hi + bb, b.complete_hi + ab)
    top = max(a.degrees()) + max(b.degrees())
    hi = hi if hi is not None else min(exact_hi, top)
    names: dict[int, list[str]] = {}
    offset: dict[tuple[int, int], int] = {}
    for da in a.degrees():
        for db in b.degrees():
            if da + db <= hi:
                got = names.setdefault(da + db, [])
                offset[da, db] = len(got)
                got.extend(x + "*" + y for x in a.names(da) for y in b.names(db))

    sq1: dict[int, list[int]] = {}
    sq2: dict[int, list[int]] = {}
    for da, db in offset:
        d = da + db
        w0, w1, w2 = b.dim(db), b.dim(db + 1), b.dim(db + 2)
        a1, a2 = a.sq1_block(da).rows, a.sq2_block(da).rows
        b1, b2 = b.sq1_block(db).rows, b.sq2_block(db).rows
        # offsets of the target blocks; a missing block only meets zero rows
        o10, o01 = offset.get((da + 1, db), 0), offset.get((da, db + 1), 0)
        o20, o11, o02 = (offset.get((da + 2, db), 0), offset.get((da + 1, db + 1), 0),
                         offset.get((da, db + 2), 0))
        for i in range(a.dim(da)):
            if d + 1 <= hi:
                s10 = _spread(a1[i], w0) << o10
                sq1.setdefault(d, []).extend(
                    (s10 << j) ^ (b1[j] << (o01 + i * w1)) for j in range(w0))
            if d + 2 <= hi:
                s20 = _spread(a2[i], w0) << o20
                s11 = _spread(a1[i], w1)
                sq2.setdefault(d, []).extend(
                    (s20 << j) ^ ((s11 * b1[j]) << o11) ^ (b2[j] << (o02 + i * w2))
                    for j in range(w0))
    # a truncation at or above the top degree cuts nothing off
    c_hi = min(exact_hi, hi if hi < top else math.inf)
    return _assemble(names, sq1, sq2, ab + bb, hi, -math.inf, c_hi)


def dual_a1(m: A1Module) -> A1Module:
    """Linear dual: each block transposed onto the negated degrees (the dual
    of the block from d to d + r acts from -d - r to -d), with dual names."""
    return A1Module({-d: [_dual_name(n) for n in ns] for d, ns in m.basis.items()},
                    {-d - 1: b.transpose() for d, b in m.sq1.items()},
                    {-d - 2: b.transpose() for d, b in m.sq2.items()},
                    -m.hi, -m.lo, -m.complete_hi, -m.complete_lo)


# -- validation and homological functionals -----------------------------------

class Violation(Record):
    __slots__ = ("relation", "degree", "element")

    def __str__(self) -> str:
        return f"{self.relation} fails at degree {self.degree} on {self.element}"


def validate(m: A1Module) -> list[Violation]:
    """Check Sq1 Sq1 = 0 and Sq2 Sq2 = Sq1 Sq2 Sq1 on the trustable range:
    each basis vector with a nonzero row of a defect breaks its relation."""
    # ordered by degree, then relation, then basis element
    out = [Violation(relation, d, name)
           for relation in ("Sq1 Sq1 = 0", "Sq2 Sq2 = Sq1 Sq2 Sq1")
           for d in m.trusted_degrees(sum(A1_OPS[relation][0]))
           for name, row in zip(m.names(d), m.op(relation, d).rows) if row]
    return sorted(out, key=lambda v: v.degree)


def margolis(m: A1Module, which: str) -> dict[int, int]:
    """Degreewise Ker/Im dimensions for Sq1 (``q0``) or the degree-3
    derived operation (``q1``), on the trustable range.  Any other
    ``which``, or an operation whose square is not zero, raises
    ``ValueError``."""
    if which not in ("q0", "q1"):
        raise ValueError(f"unknown operation {which!r}: expected q0 or q1")
    op, reach = ("Sq1", 1) if which == "q0" else ("Q1", 3)
    block = cache(lambda d: m.op(op, d))  # out of d, and again into d + reach
    out: dict[int, int] = {}
    for d in m.trusted_degrees(reach):
        if not m.incoming_ok(d, reach):
            continue
        h = homology(block(d - reach), block(d), m.dim(d))
        if h is None:
            raise ValueError(f"{op} {op} = 0 fails at degree {d - reach}")
        if h:
            out[d] = h
    return out


def socle(m: A1Module) -> dict[int, F2Matrix]:
    """Degreewise basis of Ker Sq1 intersected with Ker Sq2."""
    out: dict[int, F2Matrix] = {}
    for d in m.trusted_degrees(2):
        inter = common_kernel(m.sq1_block(d), m.sq2_block(d))
        if inter.nrows:
            out[d] = inter
    return out


def socle_dims(m: A1Module) -> dict[int, int]:
    return {d: b.nrows for d, b in socle(m).items()}


# -- free-summand reduction -----------------------------------------------------

class ReduceResult(Record):
    # free_gens: the degrees of split-off free generators; certified_hi:
    # theta is known to vanish up to there
    __slots__ = ("module", "free_gens", "certified_hi")


def _submodule(m: A1Module, rows: dict[int, F2Matrix], prefix: str) -> A1Module:
    """Module structure on per-degree row spans.

    The spans must be closed under the action wherever the ambient data is
    trustable: an image outside the target span raises ``ValueError`` there
    and is written as zero elsewhere.
    """
    kept = {d: b for d, b in rows.items() if b.nrows}
    basis = {d: [f"{prefix}{d}_{i}" for i in range(b.nrows)]
             for d, b in kept.items()}
    spans = {d: Echelon(b.rows) for d, b in kept.items()}
    sq1: dict[int, F2Matrix] = {}
    sq2: dict[int, F2Matrix] = {}
    for d, b in kept.items():
        for reach, store, op in ((1, sq1, "Sq1"), (2, sq2, "Sq2")):
            tgt = spans.get(d + reach, Echelon())
            tdim = kept[d + reach].nrows if d + reach in kept else 0
            trusted = m.complete_lo <= d and d + reach <= m.complete_hi
            out_rows = []
            for v in b.rows:
                img = m.apply_sq1(d, v) if reach == 1 else m.apply_sq2(d, v)
                c = tgt.coords(img)
                if c is None and trusted:
                    raise ValueError(
                        f"span at degree {d} not closed under {op}: the image "
                        f"of {m.vector_name(d, v)} leaves the span at degree "
                        f"{d + reach}")
                out_rows.append(c or 0)
            store[d] = F2Matrix.from_rows(out_rows, tdim)
    return A1Module(basis, sq1, sq2, m.lo, m.hi, m.complete_lo, m.complete_hi)


def _certified_hi(m: A1Module) -> float:
    """The top degree whose free generators theta can see, ``complete_hi``
    less 6.  Theta counts free summands of modules only, so a broken
    relation raises ``ValueError`` naming ``validate``'s first witness
    (relation, degree, element), and so does a window with fewer than 7
    complete degrees."""
    bad = validate(m)
    if bad:
        raise ValueError(f"not a module over the algebra: {bad[0]}")
    certified_hi = m.complete_hi - 6
    if certified_hi < m.complete_lo and m.total_dim():
        raise ValueError(
            "window too narrow to certify reduction: need at least 7 complete "
            f"degrees, have [{m.complete_lo},{m.complete_hi}]")
    return certified_hi


def _theta_images(m: A1Module) -> Iterator[tuple[int, list[int]]]:
    """Each degree d with d + 6 in the complete range where theta is not
    zero, with the theta-images of the basis vectors of M_d that enlarge
    the span of the earlier ones, found by one elimination: a basis of
    theta(M_d), one image per free generator in degree d."""
    for d in m.trusted_degrees(6):
        theta = Echelon()
        images = [t for t in m.op("theta", d).rows if theta.add(t)]
        if images:
            yield d, images


def free_generators(m: A1Module) -> tuple[dict[int, int], float]:
    """How many generators of the free summands of ``m`` lie in each
    degree that has any, in degree order, and the degree ``certified_hi``
    through which the table is complete: ``reduce(m)``'s ``free_gens``
    counted and its ``certified_hi``, without building the complement.

    The algebra is Frobenius with socle spanned by theta = Sq2 Sq2 Sq2
    (see ``reduce``), so on a module the free summands generated in degree
    d number the rank of theta: M_d -> M_{d+6} (Margolis, *Spectra and the
    Steenrod Algebra*, 1983), which one elimination per degree counts.
    ``_certified_hi`` raises ``ValueError`` as it documents."""
    certified_hi = _certified_hi(m)
    return {d: len(images) for d, images in _theta_images(m)}, certified_hi


def reduce(m: A1Module) -> ReduceResult:
    """Split off every free summand in one pass over the trusted degrees.

    The algebra is a finite-dimensional Hopf algebra, hence Frobenius
    (Larson and Sweedler, Amer. J. Math. 91, 1969), with socle spanned by
    theta = Sq2 Sq2 Sq2.  So a vector g with theta g != 0 generates a free
    summand, and the free summands generated in degree d number the rank
    of theta: M_d -> M_{d+6} (Margolis, *Spectra and the Steenrod Algebra*,
    1983).  In each degree d with d + 6 in the complete range, the
    generators g_j are the basis vectors whose theta-images enlarge the
    span of the earlier ones, the elimination ``free_generators`` counts,
    the functionals phi_i on M_{d+6} satisfy phi_i(theta g_j) = delta_ij,
    and the complement N is
    N_x = {v in M_x : phi_i(a v) = 0 for every basis word a of degree
    d + 6 - x} (N_x = M_x in degrees nothing constrains).

    N is the kernel of the module map v -> (a -> phi_i(a v)) into
    suspended copies of the dual of A(1), so a submodule.  That map is
    injective on the socle theta F of F = A(1){g_j}, which every nonzero
    submodule of the free module F meets, so N meets F only in 0.  N is
    cut out by 8 functionals per generator, so dim N >= dim M - dim F and
    M = F + N is a direct sum.  ``_certified_hi`` raises ``ValueError`` as
    it documents; a codimension below 8 per generator, which a module
    cannot have, raises ``RuntimeError``.
    """
    certified_hi = _certified_hi(m)
    gens: list[int] = []
    constraints: dict[int, list[int]] = {}  # independent functionals on M_x
    spans: dict[int, Echelon] = {}
    dependent: list[int] = []               # generator degrees at fault
    for d, images in _theta_images(m):
        gens += [d] * len(images)
        # bit i of dual.coords(w) is phi_i(w): the coefficient of images[i]
        # over a basis of M_{d+6} completing the images with unit vectors
        top = m.dim(d + 6)
        dual = Echelon(images + [1 << k for k in range(top)])
        for word, wd in A1_WORDS:
            x = d + 6 - wd
            values = [dual.coords(r) for r in m.op(word, x).rows]
            pulled = F2Matrix.from_rows(values, len(images) + top).transpose()
            for row in pulled.rows[: len(images)]:
                if spans.setdefault(x, Echelon()).add(row):
                    constraints.setdefault(x, []).append(row)
                else:
                    dependent.append(d)
    if not gens:
        return ReduceResult(m, [], certified_hi)
    kept = {x: kernel_basis(F2Matrix.from_rows(constraints.get(x, []), m.dim(x)))
            for x in m.degrees()}
    codim = sum(m.dim(x) - b.nrows for x, b in kept.items())
    if codim != 8 * len(gens):
        raise RuntimeError(
            f"free summands not split: the constraints of the generators in "
            f"degree {dependent[0]} are dependent, so the complement has "
            f"codimension {codim}, not {8 * len(gens)}; the module breaks the "
            f"algebra's relations")
    return ReduceResult(_submodule(m, kept, "r"), gens, certified_hi)


def is_reduced(m: A1Module) -> bool:
    return next(_theta_images(m), None) is None


# -- projective covers and loops --------------------------------------------------

class CoverResult(Record):
    # gen_reps: generator degree -> chosen lift rows; loop_rows: the loop
    # basis in cover coordinates; epi_blocks: cover basis -> module coordinates
    __slots__ = ("cover", "gen_reps", "loop", "loop_rows", "epi_blocks")


def generator_degrees(m: A1Module) -> dict[int, F2Matrix]:
    """Representatives of M / (Sq1 M + Sq2 M), degreewise where trustable:
    the unit vectors that complete the image, reduced modulo it."""
    out: dict[int, F2Matrix] = {}
    for d in m.trusted_degrees():
        if not m.incoming_ok(d, 2):
            continue
        img = Echelon(m.sq1_block(d - 1).rows + m.sq2_block(d - 2).rows)
        n = m.dim(d)
        reps = img.complete(1 << i for i in range(n))
        if reps:
            out[d] = F2Matrix.from_rows(reps, n)
    return out


def proj_cover_and_loop(m: A1Module) -> CoverResult:
    """Minimal free cover and its kernel (the loop of the module).

    The cover has one free summand per generator, in the order of
    ``generator_degrees``, tagged ``g<j>.``, and every degree lists the
    summands in that order and each summand's words in the order of
    ``A1_WORDS``.  So the row of the epimorphism at the basis word ``a`` of
    summand ``j`` is ``a`` applied to the ``j``-th generator."""
    if not is_reduced(m):
        raise ValueError("module has free summands; call reduce first")
    gens = generator_degrees(m)
    reps = [(d, v) for d in sorted(gens) for v in gens[d].rows]
    if not reps:
        empty = A1Module({}, {}, {}, m.lo, m.hi, m.complete_lo, m.complete_hi)
        return CoverResult(empty, gens, empty, {}, {})
    big = direct_sum_a1([std_a1(d) for d, _ in reps],
                        [f"g{j}." for j in range(len(reps))])
    top_gen = max(d for d in gens)
    cover_hi = m.hi
    if m.complete_hi >= max(m.hi, top_gen + 6):
        cover_hi = max(m.hi, top_gen + 6)
    if m.complete_hi > cover_hi:
        cover_c_hi = m.complete_hi if top_gen + 6 <= cover_hi else cover_hi
    else:
        cover_c_hi = m.complete_hi
    cover_c_lo = m.complete_lo if m.is_complete_below() else m.complete_lo + 2
    cover = A1Module({d: n for d, n in big.basis.items() if d <= cover_hi},
                     {d: b for d, b in big.sq1.items() if d + 1 <= cover_hi},
                     {d: b for d, b in big.sq2.items() if d + 2 <= cover_hi},
                     m.lo, cover_hi, cover_c_lo, cover_c_hi)

    words = {(word, gd): m.op(word, gd) for gd in gens for word, _ in A1_WORDS}
    epi_blocks: dict[int, F2Matrix] = {}
    ker_rows: dict[int, F2Matrix] = {}
    for d in cover.degrees():
        rows = [words[word, gd].vec_mul(rep) for gd, rep in reps
                for word, wd in A1_WORDS if gd + wd == d]
        mat = F2Matrix.from_rows(rows, m.dim(d))
        epi_blocks[d] = mat
        ker_rows[d] = left_kernel_basis(mat)
    loop = _submodule(cover, ker_rows, "w")
    return CoverResult(cover, gens, loop, ker_rows, epi_blocks)


def loop_power(m: A1Module, n: int) -> A1Module:
    """Iterated reduced loops; negative powers via duality."""
    if n == 0:
        return reduce(m).module
    if n < 0:
        return dual_a1(loop_power(dual_a1(m), -n))
    cur = reduce(m).module
    for _ in range(n):
        cur = reduce(proj_cover_and_loop(cur).loop).module
    return cur


def std_bv(n: int, lo: int, hi: int) -> A1Module:
    """Reduced cohomology of the rank-n elementary abelian group:
    binomially many tensor powers of the projective module."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    p = std_p(lo, hi)
    powers: dict[int, A1Module] = {1: p}
    for i in range(2, n + 1):
        powers[i] = tensor_a1(powers[i - 1], p, hi=hi)
    parts = [(f"B{i}c{c}.", powers[i]) for i in range(1, n + 1)
             for c in range(math.comb(n, i))]
    return direct_sum_a1([m for _, m in parts], [tag for tag, _ in parts])


# -- module maps and stable comparison -------------------------------------------

class A1Map(Record):
    """A degree-preserving map: ``blocks[d]`` sends the basis of
    ``source`` at d to the basis of ``target`` at d, zero where absent."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: A1Module, target: A1Module,
                 blocks: dict[int, F2Matrix]) -> None:
        self.source, self.target, self.blocks = source, target, blocks
        for d, m in blocks.items():
            if m.nrows != source.dim(d) or m.ncols != target.dim(d):
                raise ValueError(f"block shape mismatch at {d}")

    def block(self, d: int) -> F2Matrix:
        return self.blocks.get(d) or F2Matrix.zero(self.source.dim(d),
                                                   self.target.dim(d))

    def commute_failure(self, lo: float = -math.inf, hi: float = math.inf
                        ) -> Optional[tuple[str, int]]:
        """The first operation (Sq1 before Sq2) and source degree where the
        map does not commute with it, or None, over the source's trusted
        degrees whose action stays in [lo, hi] and the target's complete
        range."""
        s, t = self.source, self.target
        lo, hi = max(lo, t.complete_lo), min(hi, t.complete_hi)
        for op, reach in (("Sq1", 1), ("Sq2", 2)):
            for d in s.trusted_degrees(reach):
                if lo <= d <= hi - reach and (
                        s.op(op, d).mul(self.block(d + reach))
                        != self.block(d).mul(t.op(op, d))):
                    return op, d
        return None


class EvidenceReport(Record):
    __slots__ = ("consistent", "detail")


# the most combinations of solution-basis maps ``iso_search`` tries
ISO_SEARCH_BUDGET = 4096


def iso_search(a: A1Module, b: A1Module, lo: int, hi: int
               ) -> Optional[dict[int, F2Matrix]]:
    """An isomorphism from ``a`` to ``b`` on degrees [lo, hi]: invertible
    blocks that commute with Sq1 and Sq2 wherever an action stays in range.
    Every sum of the ``hom_space`` basis is tried; a basis of k maps with
    2^k above ``ISO_SEARCH_BUDGET`` raises ``ValueError``, since a cut
    search decides nothing.  None means no isomorphism exists on the range.
    The map found is checked against both operations by
    ``A1Map.commute_failure``, and a failure raises ``RuntimeError``."""
    if any(a.dim(d) != b.dim(d) for d in range(lo, hi + 1)):
        return None
    region = Window(lo, hi, 0, 0)
    ops = [OperatorPair("sq1", a.sq1_map(), b.sq1_map()),
           OperatorPair("sq2", a.sq2_map(), b.sq2_map())]
    sols = hom_space(a.space(), b.space(), (0, 0), ops, region)
    if 1 << len(sols) > ISO_SEARCH_BUDGET:
        raise ValueError(
            f"iso_search on degrees [{lo},{hi}]: {len(sols)} commuting basis "
            f"maps give {1 << len(sols)} sums, over ISO_SEARCH_BUDGET "
            f"({ISO_SEARCH_BUDGET})")
    for mask in range(1 << len(sols)):
        blocks: dict[int, F2Matrix] = {}
        for d in range(lo, hi + 1):
            acc = F2Matrix.zero(a.dim(d), b.dim(d))
            for i, t in enumerate(sols):
                if (mask >> i) & 1:
                    acc = acc.add(t.block((d, 0)))
            if acc.rank != a.dim(d):
                break
            blocks[d] = acc
        else:
            failure = A1Map(a, b, blocks).commute_failure(lo, hi)
            if failure is not None:
                op, d = failure
                raise RuntimeError(f"iso_search: the map found fails {op} at "
                                   f"degree {d}")
            return blocks
    return None


def stable_evidence(a: A1Module, b: A1Module) -> EvidenceReport:
    """Whether ``a`` and ``b`` are stably isomorphic: one ``iso_search`` on
    the reduced modules from the lower bottom (raised to a cut-off module's
    ``complete_lo``) to the lower ``certified_hi``.  The detail names that
    range, or on failure the first degree where the dimensions differ.
    ``reduce`` and ``iso_search`` raise ``ValueError`` as they document."""
    ra, rb = reduce(a), reduce(b)
    ma, mb = ra.module, rb.module
    lo = int(max([min((m.bottom() for m in (ma, mb) if m.basis), default=0),
                  *(m.complete_lo for m in (ma, mb) if not m.is_complete_below())]))
    hi = int(min(ra.certified_hi, rb.certified_hi, max(ma.hi, mb.hi)))
    if iso_search(ma, mb, lo, hi) is not None:
        return EvidenceReport(True, f"isomorphic on degrees [{lo},{hi}]")
    d = next((d for d in range(lo, hi + 1) if ma.dim(d) != mb.dim(d)), None)
    return EvidenceReport(False, f"no isomorphism on degrees [{lo},{hi}]"
                          if d is None else f"reduced dimensions differ at "
                          f"degree {d}: {ma.dim(d)} vs {mb.dim(d)}")
