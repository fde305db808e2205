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

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .gf2 import (
    Echelon,
    F2Matrix,
    common_kernel,
    homology,
    row_basis,
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
    dual_space,
    hom_space,
    homology_at,
    identity_map,
    neg_deg,
    sub_deg,
)

Q0_SHIFT: Degree = (1, 0)
Q1_SHIFT: Degree = (2, 1)


# a coefficient action, or a zero-argument function building it (or None)
Action = Union[GradedMap, Callable[[], Optional[GradedMap]], None]


class EModule:
    """Bigraded module with commuting square-zero differentials.

    ``complete`` is the rectangle on which basis and blocks are exact.
    When the coefficient actions are present, ``q0 . act_s`` differs from
    ``act_s . q0`` by ``act_a`` and ``q1 . act_s`` from ``act_s . q1`` by
    ``act_a^2 . q0``; these relations are recorded and re-checked.

    Each action is given as a map, as None when absent, or as a function
    of no arguments that builds it: the coefficient extension reads the
    actions far less often than its differentials.  A function is called
    when its attribute is first read, and its result is kept.
    """

    def __init__(self, space: GradedSpace, q0: GradedMap, q1: GradedMap,
                 complete: Window, act_a: Action = None, act_s: Action = None,
                 s_compat_cartan: bool = False):
        if q0.shift != Q0_SHIFT or q1.shift != Q1_SHIFT:
            raise ValueError("differential shifts must be (1,0) and (2,1)")
        self.space = space
        self.q0 = q0
        self.q1 = q1
        self._act_a = act_a
        self._act_s = act_s
        self.s_compat_cartan = s_compat_cartan
        self.complete = complete

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
        return all(self.complete.contains(d) for d in degrees)

    def __repr__(self) -> str:
        return f"EModule(dim={self.space.total_dim()}, complete={self.complete})"


@dataclass
class EViolation:
    relation: str
    degree: Degree
    element: str

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

@dataclass
class H01Result:
    """The homology, its representative vectors, and where it is valid."""

    sub: Subquotient
    region: list[Degree]

    def dims(self) -> dict[Degree, int]:
        return self.sub.dims()

    def dim(self, d: Degree) -> int:
        return self.sub.dim(d)


def _h01_region(m: EModule) -> list[Degree]:
    out = []
    for d in m.complete.degrees():
        if m.trusted(add_deg(d, Q0_SHIFT), add_deg(d, Q1_SHIFT),
                     sub_deg(d, Q1_SHIFT)):
            out.append(d)
    return out


def _q1_on_q0_kernel(m: EModule, e: Degree) -> tuple[F2Matrix, Echelon]:
    """``Ker q0`` at ``e`` and the elimination of its rows times ``q1``."""
    k0 = m.q0.kernel_at(e)
    return k0, Echelon(k0.mul(m.q1.block(e)).rows)


def _q1_image(m: EModule, span: Echelon, e: Degree) -> F2Matrix:
    """q1 of ``Ker q0`` at ``e``, in rref, inside degree ``e + (2,1)``."""
    return F2Matrix.from_rows(span.reduced_rows(),
                              m.dim(add_deg(e, Q1_SHIFT)))


def h01(m: EModule) -> H01Result:
    """Degreewise (Ker q1 and Ker q0) modulo q1 of Ker q0.

    One pass eliminates each block once.  At a degree ``e`` the kernel
    ``K0`` of q0 is the relations of the q0 rows, and the rows of
    ``K0 . q1`` are eliminated once.  Their relations times ``K0`` span the
    kernel intersection at ``e``: the numerator, put in rref.  Their rref
    rows span q1 of ``Ker q0``: the denominator at ``e + (2,1)``, kept
    until that degree is reached and then dropped.  A degree whose
    ``(2,1)``-predecessor is not visited (outside the region, or zero)
    eliminates that predecessor for its denominator alone.
    """
    nums: dict[Degree, F2Matrix] = {}
    dens: dict[Degree, F2Matrix] = {}
    region = _h01_region(m)
    wanted = {d for d in region if m.dim(d)}
    pending: dict[Degree, F2Matrix] = {}   # denominators not yet reached
    for d in sorted(wanted):
        den = pending.pop(d, None)
        if den is None:
            prev = sub_deg(d, Q1_SHIFT)
            den = _q1_image(m, _q1_on_q0_kernel(m, prev)[1], prev)
        dens[d] = den
        k0, span = _q1_on_q0_kernel(m, d)
        nums[d] = row_basis(
            F2Matrix.from_rows(span.relations, k0.nrows).mul(k0))
        if add_deg(d, Q1_SHIFT) in wanted:
            pending[add_deg(d, Q1_SHIFT)] = _q1_image(m, span, d)
    return H01Result(Subquotient(m.space, nums, dens), region)


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
    for d in m.complete.degrees():
        if m.dim(d) == 0 or not m.trusted(add_deg(d, mp.shift),
                                          sub_deg(d, mp.shift)):
            continue
        h = homology_at(mp, mp, d)
        if h is None:
            raise ValueError(f"{which} {which} = 0 fails at "
                             f"{sub_deg(d, mp.shift)}")
        if h:
            out[d] = h
    return out


# -- functorial Tate complex ------------------------------------------------------

@dataclass
class TateComplex:
    terms: dict[int, EModule]          # slot i holds the i-th suspension term
    diffs: dict[int, GradedMap]        # diffs[i]: terms[i] -> terms[i-1]


def _lambda1_tensor(m: EModule, susp: Degree, tag: int) -> EModule:
    """The free-over-Lambda1 module on ``m``, suspended by ``susp``.

    At each degree ``d`` the basis is the block ``u{tag}|x`` for ``x`` in
    ``m`` at ``d - susp`` followed by the block ``v{tag}|x`` for ``x`` at
    ``d - susp - (2,1)``, both blocks in the order of ``m``, so the ``v``
    block starts at offset ``m.dim(d - susp)``.  The names are runs over
    those of ``m``, formatted when read.  Both differentials are those of
    ``m`` placed block by block; the second one adds the unit from ``u|x``
    to ``v|x``.
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

    comp = m.complete.shift(susp).intersect(m.complete.shift(vsusp))
    comp = comp and comp.intersect(w)
    if comp is None:
        comp = Window(w.m_lo, w.m_lo, w.k_lo, w.k_lo)
    return EModule(space, build(m.q0, False), build(m.q1, True), comp)


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
    nums: dict[Degree, F2Matrix] = {}
    for d in m.complete.degrees():
        if m.dim(d) == 0:
            continue
        if not m.trusted(add_deg(d, Q0_SHIFT), add_deg(d, Q1_SHIFT)):
            continue
        nums[d] = common_kernel(m.q0.block(d), m.q1.block(d))
    return Subquotient(m.space, nums, {})


def rel_ext(m: EModule, n: int) -> dict[Degree, int]:
    """Relative extension groups against the trivial module.

    Slot 0 is the plain kernel intersection; other slots are the
    kernel-intersection homology shifted by n times (2,1), which is also
    what the Tate route computes (see ``rel_ext_tate``).
    """
    if n == 0:
        return {d: v for d, v in kerker_space(m).dims().items() if v}
    h = h01(m)
    return {add_deg(d, (2 * n, n)): v for d, v in h.dims().items() if v}


def rel_ext_tate(m: EModule, n: int) -> dict[Degree, int]:
    """Same groups computed from the Tate complex, independently.

    The homology of the kernel-intersection functor applied to the Tate
    terms reproduces the shifted groups; the fixed suspension constant is
    calibrated on the trivial module.  A differential that leaves the
    kernel intersection, or two that do not compose to zero, raise
    ``ValueError`` naming the degree.
    """
    t = tate_complex(m, -n - 1, -n + 1)
    mid, down, up = t.terms[-n], t.diffs[-n], t.diffs[-n + 1]
    kk_mid = kerker_space(mid)
    kk_up = kerker_space(t.terms[-n + 1])
    out: dict[Degree, int] = {}
    shift = (2 * (2 * n - 1), (2 * n - 1))
    for d in mid.complete.degrees():
        if not (t.terms[-n - 1].trusted(d) and t.terms[-n + 1].trusted(d)):
            continue
        reps = kk_mid.reps(d)
        if reps.nrows == 0:
            continue
        into = kk_up.induced(up, kk_mid, d)
        if into is None:
            raise ValueError(f"Tate differential leaves the kernel "
                             f"intersection at {d}")
        h = homology(into, F2Matrix.from_rows(
            [down.apply(d, v) for v in reps.rows], t.terms[-n - 1].dim(d)),
            reps.nrows)
        if h is None:
            raise ValueError(f"Tate differentials do not compose to zero at {d}")
        if h:
            out[add_deg(d, shift)] = h
    return out


# -- long exact sequence ------------------------------------------------------------

@dataclass
class LesReport:
    ok: bool
    detail: str
    slots_checked: int


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
    inner = [d for d in region.degrees()
             if d in ha.region and d in hb.region and d in hc.region
             and add_deg(d, Q1_SHIFT) in ha.region
             and sub_deg(d, Q1_SHIFT) in hc.region
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
    return EModule(sp, m.q0.dual(sp, sp), m.q1.dual(sp, sp), m.complete.negate())


def h01_dual_dims(m: EModule) -> dict[Degree, int]:
    """The left-derived coinvariants homology, via duality."""
    h = h01(dual_e(m))
    return {neg_deg(d): v for d, v in h.dims().items()}
