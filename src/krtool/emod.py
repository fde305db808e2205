"""Modules over the exterior algebra on the two equivariant Milnor
operations, with optional coefficient actions, and the relative
homological algebra that computes the kernel-intersection homology.

The two differentials have bidegrees (1,0) and (2,1).  Relative exactness
means degreewise exactness plus splitness over the subalgebra generated by
the first differential; projectives for that theory are exactly the
modules free over the second exterior factor, which for windowed modules
is detected by vanishing of the degree-(2,1) Margolis homology.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .gf2 import (
    Column,
    Echelon,
    F2Matrix,
    combine,
    common_kernel,
    homology,
)
from .graded import (
    Degree,
    GradedMap,
    GradedSpace,
    NameRuns,
    OperatorPair,
    Subquotient,
    Window,
    add_deg,
    degrees_where,
    dual_space,
    hom_space,
    homology_at,
    identity_map,
    neg_deg,
    sub_deg,
)
from .record import Record

Q0_SHIFT: Degree = (1, 0)
Q1_SHIFT: Degree = (2, 1)


# a differential, or a zero-argument function building it
Differential = Union[GradedMap, Callable[[], GradedMap]]
# a coefficient action, or a zero-argument function building it (or None)
Action = Union[GradedMap, Callable[[], Optional[GradedMap]], None]


def _differential(mp: GradedMap, shift: Degree) -> GradedMap:
    if mp.shift != shift:
        raise ValueError("differential shifts must be (1,0) and (2,1)")
    return mp


class EModule:
    """Bigraded module with commuting square-zero differentials.

    ``complete`` is the rectangle on which basis and blocks are exact, or
    None when no degree is.
    When the coefficient actions are present, ``q0 . act_s`` differs from
    ``act_s . q0`` by ``act_a`` and ``q1 . act_s`` from ``act_s . q1`` by
    ``act_a^2 . q0``; these relations are recorded and re-checked.

    Each action is given as a map, as None when absent, or as a function
    of no arguments that builds it: the coefficient extension reads the
    actions far less often than its differentials.  A differential may
    likewise be given as a function, so a Tate term read only for its
    dimensions never builds one.  A function is called when its attribute
    is first read, and its result is kept.
    """

    def __init__(self, space: GradedSpace, q0: Differential, q1: Differential,
                 complete: Optional[Window], act_a: Action = None,
                 act_s: Action = None, s_compat_cartan: bool = False):
        self._q0 = q0 if callable(q0) else _differential(q0, Q0_SHIFT)
        self._q1 = q1 if callable(q1) else _differential(q1, Q1_SHIFT)
        self.space = space
        self._act_a = act_a
        self._act_s = act_s
        self.s_compat_cartan = s_compat_cartan
        self.complete = complete

    @property
    def q0(self) -> GradedMap:
        if callable(self._q0):
            self._q0 = _differential(self._q0(), Q0_SHIFT)
        return self._q0

    @property
    def q1(self) -> GradedMap:
        if callable(self._q1):
            self._q1 = _differential(self._q1(), Q1_SHIFT)
        return self._q1

    @property
    def act_a(self) -> Optional[GradedMap]:
        if callable(self._act_a):
            self._act_a = self._act_a()
        return self._act_a

    @property
    def act_s(self) -> Optional[GradedMap]:
        if callable(self._act_s):
            self._act_s = self._act_s()
        return self._act_s

    def dim(self, d: Degree) -> int:
        return self.space.dim(d)

    def dims(self) -> dict[Degree, int]:
        return self.space.dims()

    def trusted(self, *degrees: Degree) -> bool:
        return all(self.complete and self.complete.contains(d) for d in degrees)

    def trusted_window(self, *shifts: Degree) -> Optional[Window]:
        """The trusted degrees ``d`` with every ``d + s`` trusted as well,
        as one rectangle: ``complete`` meets ``complete - s`` for each
        shift ``s``.  None when there is no such degree."""
        w = self.complete
        for s in shifts:
            w = w and w.intersect(self.complete.shift(neg_deg(s)))
        return w

    def __repr__(self) -> str:
        return f"EModule(dim={self.space.total_dim()}, complete={self.complete})"


class EViolation(Record):
    __slots__ = ("relation", "degree", "element")

    def __str__(self) -> str:
        return f"{self.relation} fails at {self.degree} on {self.element}"


def validate(m: EModule) -> list[EViolation]:
    out: list[EViolation] = []

    def check(rel: str, lhs: GradedMap, rhs: Optional[GradedMap],
              offsets: list[Degree]) -> None:
        for d in m.space.degrees():
            if not all(m.trusted(add_deg(d, o)) for o in offsets):
                continue
            if not all(m.space.window.contains(add_deg(d, o)) for o in offsets):
                continue
            a = lhs.block(d)
            b = rhs.block(d) if rhs is not None else F2Matrix.zero(a.nrows, a.ncols)
            if a != b:
                for i, name in enumerate(m.space.names(d)):
                    if a.rows[i] != b.rows[i]:
                        out.append(EViolation(rel, d, name))
                        break

    check("q0 q0 = 0", m.q0.compose(m.q0), None,
          [(0, 0), (1, 0), (2, 0)])
    check("q1 q1 = 0", m.q1.compose(m.q1), None,
          [(0, 0), (2, 1), (4, 2)])
    check("q0 q1 = q1 q0", m.q0.compose(m.q1), m.q1.compose(m.q0),
          [(0, 0), (1, 0), (2, 1), (3, 1)])
    if m.act_a is not None:
        check("q0 a = a q0", m.act_a.compose(m.q0), m.q0.compose(m.act_a),
              [(0, 0), (0, 1), (1, 0), (1, 1)])
        check("q1 a = a q1", m.act_a.compose(m.q1), m.q1.compose(m.act_a),
              [(0, 0), (0, 1), (2, 1), (2, 2)])
    # with no Euler action the Cartan relations are the plain ones
    if m.act_s is not None and m.s_compat_cartan and m.act_a is not None:
        lhs = m.act_s.compose(m.q0)
        rhs = m.q0.compose(m.act_s).add(m.act_a)
        check("q0 s = s q0 + a", lhs, rhs,
              [(0, 0), (-1, 1), (1, 0), (0, 1)])
        lhs = m.act_s.compose(m.q1)
        rhs = m.q1.compose(m.act_s).add(
            m.q0.compose(m.act_a).compose(m.act_a))
        check("q1 s = s q1 + a a q0", lhs, rhs,
              [(0, 0), (-1, 1), (2, 1), (1, 2), (1, 0), (1, 1)])
    elif m.act_s is not None:
        check("q0 s = s q0", m.act_s.compose(m.q0), m.q0.compose(m.act_s),
              [(0, 0), (-1, 1), (1, 0), (0, 1)])
        check("q1 s = s q1", m.act_s.compose(m.q1), m.q1.compose(m.act_s),
              [(0, 0), (-1, 1), (2, 1), (1, 2)])
    return out


# -- kernel-intersection homology ------------------------------------------------

class H01Result(Record):
    """The homology, its representative vectors, and where it is valid."""

    __slots__ = ("sub", "region")

    def dims(self) -> dict[Degree, int]:
        return self.sub.dims()

    def dim(self, d: Degree) -> int:
        return self.sub.dim(d)


def _h01_region(m: EModule) -> list[Degree]:
    w = m.trusted_window(Q0_SHIFT, Q1_SHIFT, neg_deg(Q1_SHIFT))
    return list(w.degrees()) if w else []


def h01(m: EModule) -> H01Result:
    """Degreewise (Ker q1 and Ker q0) modulo q1 of Ker q0.

    One walk visits the region's populated degrees and their
    ``(2,1)``-predecessors in window order, so up each m column, with three
    eliminations at each degree ``e``: the ``q0`` rows, whose relations are
    a basis ``K0`` of ``Ker q0``; the rows of ``K0 . q1``, whose echelon rows
    span q1 of ``Ker q0``, the denominator at ``e + (2,1)``; and their
    relations applied to ``K0``, which span the kernel intersection, the
    numerator at ``e``.  A ``Column`` follows the ``q0`` blocks: where the
    ``q0`` and the ``q1`` rows begin with those one degree down, as ``a``
    makes them in the positive cone, the three eliminations are extended by
    the new rows; where a ``q0`` block is the one below cut and masked, as
    in the negative cone, ``K0`` is read off the elimination below it.
    Only the live column's eliminations are kept.  A denominator is kept
    only until its degree is reached, and each dimension is counted from
    the walk: the numerator rows plus the rank the denominator rows add to
    them, less the denominator rows.  Only numerators and denominators
    become matrices.
    """
    region = _h01_region(m)
    wanted = {d for d in region if m.dim(d)}
    walk = sorted(wanted | {e for e in (sub_deg(d, Q1_SHIFT) for d in wanted)
                            if m.dim(e)})
    q0, q1 = m.q0, m.q1
    nums: dict[Degree, F2Matrix] = {}
    dens: dict[Degree, F2Matrix] = {}
    counts: dict[Degree, int] = {}
    pending: dict[Degree, list[int]] = {}   # denominators not yet reached
    col = Column()
    k0: list[int] = []
    image, kernel = Echelon(), Echelon()
    prev1: tuple[int, ...] = ()
    for e in walk:
        dim = m.dim(e)
        b0, rows1 = q0.block(e), q1.block(e).rows
        if col.take(b0.rows, b0.ncols) and rows1[:len(prev1)] == prev1:
            new = col.relations[len(k0):]
            k0 += new
            old = len(image.relations)
            image.extend([combine(rows1, v) for v in new])
            kernel.extend([combine(k0, r) for r in image.relations[old:]])
        else:
            # a copy, as k0 grows in place
            k0 = list(col.relations)
            image = Echelon([combine(rows1, v) for v in k0])
            kernel = Echelon([combine(k0, r) for r in image.relations])
        prev1 = rows1
        up = add_deg(e, Q1_SHIFT)
        if up in wanted:
            pending[up] = image.reduced_rows()
        if e in wanted:
            num, den = kernel.reduced_rows(), pending.pop(e, [])
            extra = [r for r in map(kernel.remainder, den) if r]
            counts[e] = (len(num) - len(den)
                         + (Echelon(extra).rank if extra else 0))
            nums[e] = F2Matrix.from_rows(num, dim)
            dens[e] = F2Matrix.from_rows(den, dim)
    return H01Result(Subquotient(m.space, nums, dens, counts), region)


def margolis(m: EModule, which: str) -> dict[Degree, int]:
    """Degreewise Ker/Im dimensions of the (1,0) differential (``q0``) or
    the (2,1) differential (``q1``), on the trusted degrees.  A module is
    projective for the relative theory iff its ``q1`` homology vanishes.
    Any other ``which``, or a differential whose square is not zero,
    raises ``ValueError``."""
    if which not in ("q0", "q1"):
        raise ValueError(f"unknown differential {which!r}: expected q0 or q1")
    mp = m.q0 if which == "q0" else m.q1
    out: dict[Degree, int] = {}
    w = m.trusted_window(mp.shift, neg_deg(mp.shift))
    for d in (degrees_where(w.contains, m.space.basis) if w else ()):
        h = homology_at(mp, mp, d)
        if h is None:
            raise ValueError(f"{which} {which} = 0 fails at "
                             f"{sub_deg(d, mp.shift)}")
        if h:
            out[d] = h
    return out


# -- functorial Tate complex ------------------------------------------------------

class TateComplex(Record):
    # terms[i] is the i-th suspension term, diffs[i]: terms[i] -> terms[i-1]
    __slots__ = ("terms", "diffs", "_kerker")

    def __init__(self, terms: dict[int, EModule],
                 diffs: dict[int, GradedMap]) -> None:
        self.terms, self.diffs = terms, diffs
        # slot -> kernel intersection of its term, built on first read
        self._kerker: dict[int, Subquotient] = {}

    def kerker(self, i: int) -> Subquotient:
        """``kerker_space`` of the term at slot ``i``, built once."""
        got = self._kerker.get(i)
        if got is None:
            got = self._kerker[i] = kerker_space(self.terms[i])
        return got


def _lambda1_tensor(m: EModule, susp: Degree, tag: int) -> EModule:
    """The free-over-Lambda1 module on ``m``, suspended by ``susp``.

    At each degree ``d`` the basis is the block ``u{tag}|x`` for ``x`` in
    ``m`` at ``d - susp`` followed by the block ``v{tag}|x`` for ``x`` at
    ``d - susp - (2,1)``, both blocks in the order of ``m``, so the ``v``
    block starts at offset ``m.dim(d - susp)``.  The names are runs over
    those of ``m``, formatted when read, and distinct since the prefixes
    differ in their first character.  Both differentials are those of
    ``m`` placed block by block; the second one adds the unit from ``u|x``
    to ``v|x``.  They are built when first read.  The term is complete
    where both blocks come from complete degrees of ``m``, if anywhere.
    """
    w = m.space.window
    vsusp = add_deg(susp, Q1_SHIFT)
    degrees = {add_deg(d, s) for d in m.space.degrees() for s in (susp, vsusp)}
    u, v = f"u{tag}|", f"v{tag}|"
    space = GradedSpace(w, {
        d: NameRuns(((u, m.space.names(sub_deg(d, susp))),
                     (v, m.space.names(sub_deg(d, vsusp)))))
        for d in degrees if w.contains(d)})

    def build(op: GradedMap, unit: bool) -> GradedMap:
        blocks: dict[Degree, F2Matrix] = {}
        for d in space.degrees():
            td = add_deg(d, op.shift)
            if not w.contains(td):
                continue
            u, off = sub_deg(d, susp), m.dim(sub_deg(td, susp))
            rows = list(op.block(u).rows)
            if unit:
                rows = [r ^ (1 << (off + i)) for i, r in enumerate(rows)]
            rows += [r << off for r in op.block(sub_deg(d, vsusp)).rows]
            blocks[d] = F2Matrix.from_rows(rows, space.dim(td))
        return GradedMap(space, space, op.shift, blocks)

    comp = m.complete and m.complete.shift(susp).intersect(
        m.complete.shift(vsusp))
    comp = comp and comp.intersect(w)
    return EModule(space, lambda: build(m.q0, False),
                   lambda: build(m.q1, True), comp)


def tate_complex(m: EModule, lo: int, hi: int) -> TateComplex:
    """Terms ``Sigma^{i(2,1)} (Lambda1 tensor m)`` with the multiplication
    differential, for slots lo..hi: the unit from slot ``i``'s ``u`` block
    to slot ``i-1``'s ``v`` block, at offset ``m.dim(d - (2i-2, i-1))``."""
    terms = {i: _lambda1_tensor(m, (2 * i, i), i) for i in range(lo, hi + 1)}
    diffs: dict[int, GradedMap] = {}
    for i in range(lo + 1, hi + 1):
        src, tgt = terms[i].space, terms[i - 1].space
        blocks: dict[Degree, F2Matrix] = {}
        for d in src.degrees():
            off = m.dim(sub_deg(d, (2 * i - 2, i - 1)))
            units = [1 << (off + r) for r in range(m.dim(sub_deg(d, (2 * i, i))))]
            blocks[d] = F2Matrix.from_rows(
                units + [0] * (src.dim(d) - len(units)), tgt.dim(d))
        diffs[i] = GradedMap(src, tgt, (0, 0), blocks)
    return TateComplex(terms, diffs)


def kerker_space(m: EModule) -> Subquotient:
    """Ker q0 intersected with Ker q1, degreewise, as a subquotient."""
    w = m.trusted_window(Q0_SHIFT, Q1_SHIFT)
    return Subquotient(m.space, {
        d: common_kernel(m.q0.block(d), m.q1.block(d))
        for d in (degrees_where(w.contains, m.space.basis) if w else ())}, {})


def rel_ext(m: EModule, n: int,
            hom: Optional[H01Result] = None) -> dict[Degree, int]:
    """Relative extension groups against the trivial module.

    Slot 0 is the plain kernel intersection; other slots are the
    kernel-intersection homology shifted by n times (2,1), which is also
    what the Tate route computes (see ``rel_ext_tate``).  ``hom``, when
    given, is ``h01(m)``, so that several slots share one homology.  A
    negative slot raises ``ValueError``.
    """
    if n < 0:
        raise ValueError(f"extension slot {n} is negative")
    if n == 0:
        return {d: v for d, v in kerker_space(m).dims().items() if v}
    h = h01(m) if hom is None else hom
    return {add_deg(d, (2 * n, n)): v for d, v in h.dims().items() if v}


def rel_ext_tate(m: EModule, n: int,
                 t: Optional[TateComplex] = None) -> dict[Degree, int]:
    """Same groups computed from the Tate complex, independently.

    The homology of the kernel-intersection functor applied to the Tate
    terms reproduces the shifted groups; the fixed suspension constant is
    calibrated on the trivial module.  The slots ``-n-1..-n+1`` are read
    from ``t``, when given a Tate complex of ``m`` that holds them, so that
    several slots share its terms; the bottom term is read only for its
    dimensions and trusted degrees.  A differential that leaves the kernel
    intersection, or two that do not compose to zero, raise ``ValueError``
    naming the degree.  A negative slot raises ``ValueError``, as it does
    in ``rel_ext``, and so does a given ``t`` that lacks one of the three
    slots, naming the missing slots and those ``t`` holds.
    """
    if n < 0:
        raise ValueError(f"extension slot {n} is negative")
    if t is None:
        t = tate_complex(m, -n - 1, -n + 1)
    missing = [i for i in range(-n - 1, -n + 2) if i not in t.terms]
    if missing:
        raise ValueError(f"extension slot {n} needs Tate slots {missing} "
                         f"that the complex lacks; it holds slots "
                         f"{sorted(t.terms)}")
    bottom, mid, top = t.terms[-n - 1], t.terms[-n], t.terms[-n + 1]
    down, up = t.diffs[-n], t.diffs[-n + 1]
    kk_mid, kk_up = t.kerker(-n), t.kerker(-n + 1)
    out: dict[Degree, int] = {}
    shift = (2 * (2 * n - 1), (2 * n - 1))
    w = mid.complete
    for term in (bottom, top):
        w = w and term.complete and w.intersect(term.complete)
    for d in (w.degrees() if w else ()):
        reps = kk_mid.reps(d)
        if reps.nrows == 0:
            continue
        into = kk_up.induced(up, kk_mid, d)
        if into is None:
            raise ValueError(f"Tate differential leaves the kernel "
                             f"intersection at {d}")
        h = homology(into, F2Matrix.from_rows(
            [down.apply(d, v) for v in reps.rows], bottom.dim(d)),
            reps.nrows)
        if h is None:
            raise ValueError(f"Tate differentials do not compose to zero at {d}")
        if h:
            out[add_deg(d, shift)] = h
    return out


# -- long exact sequence ------------------------------------------------------------

class LesReport(Record):
    __slots__ = ("ok", "detail", "slots_checked")


def find_lambda0_splitting(g: GradedMap, region: Window,
                           q0_b: GradedMap, q0_c: GradedMap) -> Optional[GradedMap]:
    """Section of ``g`` commuting with the (1,0) differential, if any."""
    return hom_space(g.target, g.source, (0, 0),
                     [OperatorPair("q0", q0_c, q0_b)], region,
                     unit=(identity_map(g.target), g))


def les_h01(a: EModule, b: EModule, c: EModule,
            f: GradedMap, g: GradedMap, region: Window) -> LesReport:
    """Certify the six-term-periodic long exact sequence in the
    kernel-intersection homology induced by a short exact sequence split
    over the first exterior factor."""
    # 1. degreewise short exactness: exact at a, at c and in the middle
    for d in region.degrees():
        fd, gd = f.blocks.get(d), g.blocks.get(d)
        if homology(None, fd, a.dim(d)):
            return LesReport(False, f"first map not injective at {d}", 0)
        if homology(gd, None, c.dim(d)):
            return LesReport(False, f"second map not surjective at {d}", 0)
        if homology(fd, gd, b.dim(d)) != 0:
            return LesReport(False, f"not exact in the middle at {d}", 0)

    # 2. splitness over the first factor
    split = find_lambda0_splitting(g, region, b.q0, c.q0)
    if split is None:
        return LesReport(False, "underlying sequence not split over the "
                                "first exterior factor", 0)

    ha, hb, hc = h01(a), h01(b), h01(c)

    def connecting(d: Degree) -> Optional[F2Matrix]:
        td = add_deg(d, Q1_SHIFT)
        f_span = Echelon(f.block(td).rows)
        rows = []
        for v in hc.sub.reps(d).rows:
            lift = split.apply(d, v)
            # pull back along f
            pre = f_span.coords(b.q1.apply(d, lift))
            if pre is None:
                return None
            cexp = ha.sub.express(td, pre)
            if cexp is None:
                return None
            rows.append(cexp)
        return F2Matrix.from_rows(rows, ha.sub.dim(td))

    slots = 0
    ra, rb, rc = set(ha.region), set(hb.region), set(hc.region)
    inner = [d for d in region.degrees()
             if d in ra and d in rb and d in rc
             and add_deg(d, Q1_SHIFT) in ra and sub_deg(d, Q1_SHIFT) in rc
             and region.contains(sub_deg(d, Q1_SHIFT))]
    ahead = set(inner)
    # the connecting map out of d, kept for d + (2,1) where it comes in
    kept: dict[Degree, F2Matrix] = {}
    for d in inner:
        mf = ha.sub.induced(f, hb.sub, d)
        mg = hb.sub.induced(g, hc.sub, d)
        dd = connecting(d)
        dprev = kept.pop(sub_deg(d, Q1_SHIFT), None)
        if dprev is None:
            dprev = connecting(sub_deg(d, Q1_SHIFT))
        if None in (mf, mg, dd, dprev):
            return LesReport(False, f"induced map failed at {d}", slots)
        if add_deg(d, Q1_SHIFT) in ahead:
            kept[d] = dd
        # exactness at h01(a), h01(b) and h01(c)
        for slot, into, out in (("first", dprev, mf), ("middle", mf, mg),
                                ("last", mg, dd)):
            if homology(into, out, out.nrows) != 0:
                return LesReport(False, f"not exact at {slot} slot, degree {d}",
                                 slots)
        slots += 3
    return LesReport(True, f"exact at {slots} slots", slots)


# -- duality ---------------------------------------------------------------------

def dual_e(m: EModule) -> EModule:
    """Linear dual with transposed differentials on the negated grading."""
    sp = dual_space(m.space)
    return EModule(sp, m.q0.dual(sp, sp), m.q1.dual(sp, sp),
                   m.complete and m.complete.negate())


def h01_dual_dims(m: EModule) -> dict[Degree, int]:
    """The left-derived coinvariants homology, via duality."""
    h = h01(dual_e(m))
    return {neg_deg(d): v for d, v in h.dims().items()}
