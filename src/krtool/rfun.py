"""Extension of scalars from Sq1/Sq2-modules to coefficient-equipped
modules over the exterior Milnor operations.

The underlying space is the coefficient ring tensored with the module;
the first differential is the coefficient differential plus Sq1, the
second follows the Cartan rule

    q1(h | x) = Q1(h) | x  +  a Q0(h) | Sq1 x  +  a h | Sq2 x  +  s h | Q1 x

with all coefficient products taken in the window model.  The positive
and negative cones never interact (the twist -1 column of the coefficient
ring is empty), which is validated rather than assumed.

Block layout.  The basis at each degree is a run of contiguous blocks,
one per monomial of its twist in the order the builder lists them, each
holding one module degree in module order.  The names are formatted from
the layout when they are read: the basis vector ``h | x`` reads as the
monomial's name, ``|`` and the module's name of ``x``, distinct by the
layout (see ``NameRuns``).  One walk over the monomials lays the blocks
out and records, once each, what the builds and checks read: a number for
each monomial and, per degree, the ``Layout`` of ``(monomial, module
degree, offset)``, the ``Offsets`` of the blocks keyed by their
monomials' numbers, and the carry (below); the space keeps each degree's
size.  The walk reads each module degree's names once.  Every operator
is built block by block: a build runs the coefficient rule at most once
per monomial, and numbers the rule's target monomials then; each term of
the rule names the module rows it takes, computed once per module degree,
and those rows are shifted to the offset the target degree records for
the term's monomial.  The checks read the records too: the cone split
takes each block's cone from its monomial, the duality pairing finds the
block paired with each block by its monomial's offset, and the Bockstein
finds the ``s^k`` block by its offset.  The names are labels only;
nothing splits them.

Multiplication by ``a``.  ``a`` keeps the module degree and the position
in a twist's monomial list: in the positive cone it sends the monomials
of twist k - 1 onto all those of twist k but the last, ``s^k``; in the
negative cone it sends those of twist k - 1 onto all those of twist k
and kills the last.  So at each m the blocks of twist k begin with ``a``
times the blocks one twist below, at the same module degrees and
offsets.  The layout walk decides this once per twist from the monomial
lists, and records at each m the carry: the number of blocks below that
``a`` does not kill.  Every rule the builder takes commutes with ``a``:
the terms of ``a h`` are ``a`` times the terms of ``h``, with the same
module rows, less those ``a`` kills (``q0``, ``q1``, the two actions and
every lifted module map do).  So a block ``a`` carries has exactly the
rows of the block one twist below, with the bits of the target blocks
``a`` kills cleared.  The builder walks the twists upwards and, at each
m, copies those rows: in the positive cone they are a row prefix, the
same ints, and only the ``s^k`` block runs the rule; in the negative cone
they are the rows below cut to this degree's dimension and masked to the
target width.  The first twist of each cone, a degree whose column below
was not built, and a twist ``a`` does not carry (``mod_a`` has one
monomial, ``s^k``, per twist) run the rule for every block.

The two differentials are built at once.  The coefficient actions by
``a`` and ``s`` are handed to ``EModule`` as builders and built on first
read: only the Bockstein, the cone split, validation and file output read
them, and no chart does.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Optional, Sequence

from . import coeff as cf
from .a1 import A1Map, A1Module, dual_a1, margolis
from .coeff import A, CoeffMonomial, S, multiply, q0_coeff, q1_coeff
from .emod import (
    EModule,
    H01Result,
    LesReport,
    find_lambda0_splitting,
    h01,
    les_h01,
)
from .gf2 import Echelon, F2Matrix, homology
from .graded import (
    Degree,
    GradedMap,
    GradedSpace,
    NameRuns,
    Window,
    _dual_name,
    add_deg,
    degrees_where,
)
from .record import Record

# (coefficient monomial, module degree, offset of its block) per degree
Layout = dict[Degree, list[tuple[CoeffMonomial, int, int]]]
# module rows: module degree -> one row per basis vector, empty when the
# operation vanishes there
Rows = Callable[[int], Sequence[int]]
# a block rule: monomial -> terms (target monomial or None, module rows)
BlockRule = Callable[[CoeffMonomial],
                     list[tuple[Optional[CoeffMonomial], Rows]]]
# degree -> how many of its leading blocks ``a`` carries from the twist below
Carries = dict[Degree, int]
# degree -> the offset of each block there, keyed by its monomial's number
Offsets = dict[Degree, dict[int, int]]


class Extension(Record):
    """The records of one layout walk: the space, a number for each
    monomial of the walk, and per degree the blocks, their offsets by
    monomial number and the carry."""

    __slots__ = ("space", "layout", "numbers", "offsets", "carries")

    def __init__(self, space: GradedSpace, layout: Layout,
                 numbers: dict[CoeffMonomial, int], offsets: Offsets,
                 carries: Carries) -> None:
        self.space, self.layout, self.numbers = space, layout, numbers
        self.offsets, self.carries = offsets, carries


class RModule(Record):
    __slots__ = ("base", "emod", "ext")

    def __init__(self, base: A1Module, emod: EModule, ext: Extension) -> None:
        self.base, self.emod, self.ext = base, emod, ext

    def space(self) -> GradedSpace:
        return self.emod.space


def required_top(w: Window) -> int:
    return w.m_hi + max(w.k_hi, 0)


def required_bottom(w: Window) -> int:
    return w.m_lo + min(w.k_lo, 0)


def _check_base_window(m: A1Module, w: Window) -> None:
    lo, hi = required_bottom(w), required_top(w)
    if m.complete_lo > lo or m.complete_hi < hi:
        raise ValueError(
            f"base module exact on [{m.complete_lo},{m.complete_hi}] but the "
            f"window requires [{lo},{hi}]; rebuild the module accordingly")


def _extension_basis(m: A1Module, w: Window,
                     monos: dict[int, list[CoeffMonomial]]) -> Extension:
    """The basis ``mono|x`` for the monomials of each twist (in ascending
    order), as runs over the module's names, and the walk's records.  No
    monomial's name holds ``|``, so the names are distinct.  Each module
    degree's names are read once.

    ``a`` carries the twist below onto twist k when ``a`` times its
    monomials, but for those ``a`` kills, which must come last, lead the
    monomials of k in order, and ``a`` divides none of the others.  ``a``
    has degree (0, 1), so at each m those leading monomials have blocks
    where their factors have blocks a twist below, at the same module
    degrees and offsets; the carry is their number."""
    names = {xd: m.names(xd) for xd in m.degrees()}
    numbers = {mono: i for i, mono in enumerate(
        mono for ms in monos.values() for mono in ms)}
    basis: dict[Degree, NameRuns] = {}
    layout: Layout = {}
    offsets: Offsets = {}
    carries: Carries = {}
    for k, ms in monos.items():
        images = [multiply(A, mono) for mono in monos.get(k - 1, ())]
        lead = images.index(None) if None in images else len(images)
        carried = (ms[:lead] == images[:lead] and not any(images[lead:])
                   and not any(mono.cone == "-" or mono.e1
                               for mono in ms[lead:]))
        tagged = [(mono.name() + "|", mono, numbers[mono], mono.degree()[0],
                   i < lead) for i, mono in enumerate(ms)]
        for mm in range(w.m_lo, w.m_hi + 1):
            runs: list[tuple[str, Sequence[str]]] = []
            blocks = []
            where: dict[int, int] = {}
            size = carry = 0
            for tag, mono, number, md, lead_block in tagged:
                xs = names.get(mm - md)
                if xs:
                    blocks.append((mono, mm - md, size))
                    where[number] = size
                    runs.append((tag, xs))
                    size += len(xs)
                    carry += lead_block
            if blocks:
                basis[(mm, k)] = NameRuns(runs)
                layout[(mm, k)] = blocks
                offsets[(mm, k)] = where
                if carried and (mm, k - 1) in layout:
                    carries[(mm, k)] = carry
    return Extension(GradedSpace(w, basis), layout, numbers, offsets, carries)


def _module_rows(m: A1Module) -> dict[str, Rows]:
    """``rows[op]``: the rows of ``m.op(op, d)`` at each degree ``d``, for
    ``op`` "1", "Sq1", "Sq2" or "Q1", computed once each and empty where
    ``op`` vanishes."""
    def table(op: str) -> Rows:
        @cache
        def rows(d: int) -> Sequence[int]:
            got = m.op(op, d).rows
            return got if any(got) else ()
        return rows
    return {op: table(op) for op in ("1", "Sq1", "Sq2", "Q1")}


def _build(src: Extension, dst: Extension, shift: Degree,
           rule: BlockRule) -> GradedMap:
    """The map sending row i of block (mono, xd) to the sum of the rows i
    at ``xd`` of the terms of ``rule(mono)``, each placed at the block of
    the term's monomial in the target degree; a monomial without a block
    there contributes nothing.  ``rule`` must commute with ``a``.

    The source degrees are walked in layout order, a twist at a time.
    Where the degree one twist below is built and both layouts carry it
    onto this one (their carries), the rows of the carried blocks are
    those one twist below, cut to the carried blocks and masked to the
    carried target blocks, and ``rule`` builds only the blocks past them.
    ``rule`` runs at most once per monomial.  Sizes, target offsets and
    carries are read from the two walks' records."""
    sizes, widths = src.space.sizes, dst.space.sizes
    dm, dk = shift
    # monomial -> its terms, each with the target monomial's number
    terms: dict[CoeffMonomial, list[tuple[Optional[int], Rows]]] = {}
    blocks: dict[Degree, F2Matrix] = {}
    for d, entries in src.layout.items():
        td = (d[0] + dm, d[1] + dk)
        offsets = dst.offsets.get(td)
        if offsets is None:
            continue
        dim, width = sizes[d], widths[td]
        rows, start = [0] * dim, 0
        prev = blocks.get((d[0], d[1] - 1))
        n, t = src.carries.get(d), dst.carries.get(td)
        if prev is not None and n is not None and t is not None:
            tentries = dst.layout[td]
            size = entries[n][2] if n < len(entries) else dim
            cut = tentries[t][2] if t < len(tentries) else width
            rows = list(prev.rows[:size])
            if cut < prev.ncols:
                rows = [r & ((1 << cut) - 1) for r in rows]
            rows += [0] * (dim - size)
            start = n
        for mono, xd, off in entries[start:]:
            got = terms.get(mono)
            if got is None:
                got = terms[mono] = [
                    (None if tmono is None else dst.numbers.get(tmono), take)
                    for tmono, take in rule(mono)]
            for number, take in got:
                toff = offsets.get(number)
                if toff is not None:
                    for i, r in enumerate(take(xd), off):
                        rows[i] ^= r << toff
        blocks[d] = F2Matrix.from_rows(rows, width)
    return GradedMap(src.space, dst.space, shift, blocks)


def _times(h: CoeffMonomial, rows: dict[str, Rows]) -> BlockRule:
    """Multiplication by ``h`` on the coefficients."""
    return lambda mono: [(multiply(h, mono), rows["1"])]


def apply_r(m: A1Module, w: Window) -> RModule:
    """Build the coefficient extension of ``m`` on the window ``w``; its
    actions by ``a`` and ``s`` are built when first read."""
    _check_base_window(m, w)
    ext = _extension_basis(m, w, {k: list(cf.monomials_with_twist(k))
                                  for k in range(w.k_lo, w.k_hi + 1)})
    rows = _module_rows(m)

    def q0_rule(mono):
        return [(q0_coeff(mono), rows["1"]), (mono, rows["Sq1"])]

    def q1_rule(mono):
        q0m = q0_coeff(mono)
        return [(q1_coeff(mono), rows["1"]),
                (multiply(A, q0m) if q0m else None, rows["Sq1"]),
                (multiply(A, mono), rows["Sq2"]),
                (multiply(S, mono), rows["Q1"])]

    em = EModule(ext.space, _build(ext, ext, (1, 0), q0_rule),
                 _build(ext, ext, (2, 1), q1_rule), w,
                 act_a=lambda: _build(ext, ext, (0, 1), _times(A, rows)),
                 act_s=lambda: _build(ext, ext, (-1, 1), _times(S, rows)),
                 s_compat_cartan=True)
    return RModule(m, em, ext)


def cone_crossing(rm: RModule) -> Optional[Degree]:
    """The source degree of a differential entry that crosses between the
    two cones (``q0`` searched first), or None when none does; each block's
    cone is that of its monomial in the layout."""
    def negative(d: Degree) -> int:
        """The mask of the negative-cone positions at ``d``."""
        return sum(((1 << rm.base.dim(xd)) - 1) << off
                   for mono, xd, off in rm.ext.layout.get(d, ())
                   if mono.cone == "-")

    for mp in (rm.emod.q0, rm.emod.q1):
        for d, blk in mp.blocks.items():
            src, tgt = negative(d), negative(add_deg(d, mp.shift))
            for i, r in enumerate(blk.rows):
                if r & tgt != (r if (src >> i) & 1 else 0):
                    return d
    return None


def cone_part(rm: RModule, which: str) -> EModule:
    """The positive (``which`` is ``"+"``) or negative (``"-"``) cone
    summand: the degrees of twist >= 0 or <= -2.  The twist -1 column is
    empty and no operator lowers the twist or raises it by more than one,
    so no stored block leaves a cone.  Any other ``which`` raises
    ``ValueError``."""
    if which not in ("+", "-"):
        raise ValueError(f"unknown cone {which!r}: expected + or -")
    plus = which == "+"
    em = rm.emod
    new = GradedSpace(em.space.window, {d: ns for d, ns in em.space.basis.items()
                                        if (d[1] >= 0) == plus})

    def cut(mp: Optional[GradedMap]) -> Optional[GradedMap]:
        if mp is None:
            return None
        return GradedMap(new, new, mp.shift, {d: b for d, b in mp.blocks.items()
                                              if (d[1] >= 0) == plus})

    return EModule(new, cut(em.q0), cut(em.q1), em.complete,
                   act_a=lambda: cut(em.act_a), act_s=lambda: cut(em.act_s),
                   s_compat_cartan=em.s_compat_cartan)


def mod_a(m: A1Module, w: Window) -> EModule:
    """The positive cone reduced modulo the Euler class.

    Carries the orientation-linear Sq1 as first differential and the
    orientation times the derived degree-3 operation as the second.
    """
    _check_base_window(m, w)
    ext = _extension_basis(m, w, {k: [CoeffMonomial("+", 0, k)]
                                  for k in range(max(0, w.k_lo), w.k_hi + 1)})
    rows = _module_rows(m)
    return EModule(
        ext.space,
        _build(ext, ext, (1, 0), lambda mono: [(mono, rows["Sq1"])]),
        _build(ext, ext, (2, 1),
               lambda mono: [(multiply(S, mono), rows["Q1"])]),
        w, act_s=lambda: _build(ext, ext, (-1, 1), _times(S, rows)))


# -- duality -----------------------------------------------------------------------

class PsiCertificate(Record):
    __slots__ = ("ok", "detail", "checked_degrees")

    def __init__(self, ok: bool, detail: str, checked_degrees: int) -> None:
        self.ok, self.detail, self.checked_degrees = ok, detail, checked_degrees


def psi_duality(m: A1Module, w: Window) -> PsiCertificate:
    """Explicit isomorphism between the extension of the dual and the
    shifted dual of the extension, checked to commute with both
    differentials degreewise.

    The left basis functional ``mono|x^`` at degree d pairs with the right
    basis vector ``duality_w(mono)|x`` at the reflected degree (2,-2) - d.
    The pairing is read from the two layouts, not from the names: the
    block of ``mono`` at module degree ``xd`` pairs with the block of
    ``duality_w(mono)`` at the reflected degree, whose module degree is
    ``-xd`` as the two monomials' first degrees sum to 2, permuted within
    by the dual module names once per module degree.  So it is a
    permutation matrix P(d), and a differential with left block L at d
    and right block R into the reflected degree commutes with it when
    ``L P(d + shift) = P(d) R^T``.
    """
    lhs = apply_r(dual_a1(m), w)
    wref = Window(2 - w.m_hi, 2 - w.m_lo, -2 - w.k_hi, -2 - w.k_lo)
    rhs = apply_r(m, wref)
    lsp, rsp = lhs.space(), rhs.space()

    def reflect(d: Degree) -> Degree:
        return (2 - d[0], -2 - d[1])

    @cache
    def module_pairing(xd: int) -> Optional[list[int]]:
        """Position at ``-xd`` of the right base paired with each basis
        vector of the left base at ``xd``, or None if some has no pair."""
        # keyed as ``dual_a1`` named the left base: "x^^" has dual "x^"
        where = {_dual_name(n): i for i, n in enumerate(rhs.base.names(-xd))}
        got = [where.get(n) for n in lhs.base.names(xd)]
        return None if None in got else got

    def pairing(d: Degree) -> Optional[F2Matrix]:
        """P(d), or None when the blocks at d and at the reflected degree
        do not pair off."""
        rd = reflect(d)
        at, numbers = rhs.ext.offsets.get(rd, {}), rhs.ext.numbers
        rows: list[int] = []
        for mono, xd, _ in lhs.ext.layout.get(d, ()):
            off = at.get(numbers.get(cf.duality_w(mono)))
            perm = module_pairing(xd)
            if off is None or perm is None:
                return None
            rows += [1 << (off + i) for i in perm]
        if len(rows) != rsp.dim(rd):
            return None
        return F2Matrix.from_rows(rows, len(rows))

    pair: dict[Degree, F2Matrix] = {}
    for d in w.degrees():
        got = pairing(d)
        if got is None:
            return PsiCertificate(False, f"pairing bijection fails at {d}",
                                  len(pair))
        pair[d] = got
    checked = len(pair)

    for shift, lmap, rmap in (((1, 0), lhs.emod.q0, rhs.emod.q0),
                              ((2, 1), lhs.emod.q1, rhs.emod.q1)):
        for d in w.degrees():
            td = add_deg(d, shift)
            if not w.contains(td) or not lsp.dim(d):
                continue
            # the dual differential pulls the functional of y back to those
            # of every z whose differential contains y
            left = lmap.block(d).mul(pair[td]).rows
            right = pair[d].mul(rmap.block(reflect(td)).transpose()).rows
            for i, (a, b) in enumerate(zip(left, right)):
                if a != b:
                    return PsiCertificate(
                        False, f"commutation with shift {shift} fails at {d} "
                               f"on {lsp.names(d)[i]}", checked)
    return PsiCertificate(True, "bijection commuting with both differentials "
                                f"on {checked} degrees", checked)


# -- Euler-class Bockstein ------------------------------------------------------------

class BocksteinD1(Record):
    # with a ``__dict__``, so that one report's method can be replaced
    __slots__ = ("homology", "d1", "__dict__")

    def __init__(self, homology: H01Result, d1: dict[Degree, F2Matrix]) -> None:
        self.homology, self.d1 = homology, d1

    def kernel_dims(self) -> dict[Degree, int]:
        out: dict[Degree, int] = {}
        for d in self.homology.region:
            k = homology(None, self.d1.get(d), self.homology.dim(d))
            if k:
                out[d] = k
        return out

    def nonzero_square(self) -> Optional[Degree]:
        """The first degree where d1 followed by d1 is not zero, or None."""
        for d, mat in sorted(self.d1.items()):
            nxt = self.d1.get(add_deg(d, (2, 0)))
            if nxt is not None and not mat.mul(nxt).is_zero():
                return d
        return None


def bockstein_d1(rm: RModule) -> BocksteinD1:
    """First differential of the Euler-class exact couple on the mod-a
    homology of the extension ``rm``, computed mechanically from lifts.

    The quotient vanishes in negative twists, so the homology reaches
    twist zero only when the extension's window reaches twist -2."""
    m, w = rm.base, rm.emod.complete
    mg = margolis(m, "q0")
    if mg:
        raise ValueError(f"base module is not q0-acyclic (witness {min(mg)})")
    if w.k_lo > -2:
        raise ValueError(f"the extension's window {w} must reach twist -2")
    fm = mod_a(m, w)
    hom = h01(fm)

    def unit_block(d: Degree) -> tuple[int, int]:
        """Offset and width of the block ``s^k|x`` at ``d``, whose lines
        are those of the quotient at ``d``; ``s^k`` has degree (-k, k)."""
        unit = rm.ext.numbers.get(CoeffMonomial("+", 0, d[1]))
        off = rm.ext.offsets.get(d, {}).get(unit)
        return (0, 0) if off is None else (off, m.dim(d[0] + d[1]))

    # every degree of twist >= 0 lies wholly in the positive cone, so the
    # extension's blocks there are those of the positive cone
    d1: dict[Degree, F2Matrix] = {}
    region = set(hom.region)
    for d in hom.region:
        reps = hom.sub.reps(d)
        if reps.nrows == 0:
            continue
        td = add_deg(d, (2, 0))
        if td not in region:
            continue
        # the Euler class acts from td to td + (0, 1)
        euler = Echelon(rm.emod.act_a.block(td).rows)
        lift_at = unit_block(d)[0]
        proj_at, width = unit_block(td)
        rows = []
        ok = True
        for v in reps.rows:
            # lift to the positive cone by the identity on monomial lines
            q1l = rm.emod.q1.apply(d, v << lift_at)
            # divide by the Euler class
            u = euler.coords(q1l)
            if u is None:
                ok = False
                break
            # reduce modulo the Euler class: keep exponent-zero lines
            c = hom.sub.express(td, (u >> proj_at) & ((1 << width) - 1))
            if c is None:
                ok = False
                break
            rows.append(c)
        if ok and rows:
            d1[d] = F2Matrix.from_rows(rows, hom.sub.dim(td))
    return BocksteinD1(hom, d1)


# -- short exact sequences through the extension --------------------------------------

def lift_map(f: A1Map, src: RModule, dst: RModule) -> GradedMap:
    """The extension applied to a degree-zero module map."""
    def rows(xd: int) -> Sequence[int]:
        blk = f.blocks.get(xd)
        return blk.rows if blk is not None else ()

    return _build(src.ext, dst.ext, (0, 0), lambda mono: [(mono, rows)])


class SecRResult(Record):
    __slots__ = ("ok", "detail", "les")

    def __init__(self, ok: bool, detail: str, les: Optional[LesReport]) -> None:
        self.ok, self.detail, self.les = ok, detail, les


def check_sec_r(f: A1Map, g: A1Map, w: Window) -> SecRResult:
    """Verify a short exact sequence of base modules split over the first
    exterior factor, extend it, and certify the induced long exact
    sequence degreewise on ``w`` less two degrees and one twist at each
    end.  A map that does not commute is named (``f`` or ``g``) with the
    operation and degree ``A1Map.commute_failure`` gives."""
    a, b, c = f.source, f.target, g.target
    if g.source is not b:
        return SecRResult(False, "maps not composable", None)
    for name, failure in (("f", f.commute_failure()),
                          ("g", g.commute_failure())):
        if failure is not None:
            op, d = failure
            return SecRResult(False, f"map {name} does not commute with {op} "
                                     f"at degree {d}", None)
    lo = max(a.complete_lo, b.complete_lo, c.complete_lo)
    hi = min(a.complete_hi, b.complete_hi, c.complete_hi)
    # a degree where all three modules vanish is trivially short exact
    for d in degrees_where(lambda d: lo <= d <= hi, a.basis, b.basis, c.basis):
        fd, gd = f.blocks.get(d), g.blocks.get(d)
        if (homology(None, fd, a.dim(d)) or homology(gd, None, c.dim(d))
                or homology(fd, gd, b.dim(d)) != 0):
            return SecRResult(False, f"not short exact at degree {d}", None)

    # splitness over the first factor: the quotient must be q0-free
    mg = margolis(c, "q0")
    if mg:
        split = _sq1_section(g)
        if split is None:
            return SecRResult(
                False, f"quotient not q0-acyclic (witness {min(mg)}) and no "
                       "sq1-linear section exists", None)

    region = w.shrink(2, 2, 1, 1)
    if region is None:
        return SecRResult(False, "window too small for the sequence check", None)
    ra, rb, rc = apply_r(a, w), apply_r(b, w), apply_r(c, w)
    rf, rg = lift_map(f, ra, rb), lift_map(g, rb, rc)
    rep = les_h01(ra.emod, rb.emod, rc.emod, rf, rg, region)
    return SecRResult(rep.ok, rep.detail, rep)


def _sq1_section(g: A1Map) -> Optional[GradedMap]:
    """Section of ``g`` commuting with Sq1 on the common complete range."""
    b, c = g.source, g.target
    lo = max(b.complete_lo, c.complete_lo)
    hi = min(b.complete_hi, c.complete_hi)
    g_map = GradedMap(b.space(), c.space(), (0, 0),
                      {(d, 0): blk for d, blk in g.blocks.items()})
    return find_lambda0_splitting(g_map, Window(lo, hi, 0, 0),
                                  b.sq1_map(), c.sq1_map())
