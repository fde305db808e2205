"""End-to-end pipeline: torsion pieces, Borel height-1 detection, the
connecting map between the two free-part class families, and the assembled
report for the real connective theory of classifying spaces.

The report presents the associated graded of the Bott-class filtration:
its layers repeat the closed-form non-free pattern shifted one diagonal
step per layer, the image-of-q1 part carries torsion order one, and the
top-operation part is doubled by its Bott companion with torsion order at
most two.  Unfiltered action values beyond that are deliberately not
asserted.

Everything the report and its cross-check read about one (rank, window)
pair lives on one ``Chart``: the group cohomology module, its coefficient
extension and its free part, each built on first use and then kept.  The
free part is the count of free generators per degree, the rank of the top
class theta there (``a1.free_generators``, which names a broken relation
first); the chart never splits the free summands off (``a1.reduce``),
since it reads only where they start.
``chart(n, w)`` memoises the last chart asked for, one slot only, so
``compute kr-table`` followed by ``cross_check_hv`` on the same rank and
window builds each piece once, and a chart for another pair drops the
previous one as soon as it is created.  The functions below return fresh
containers, never the chart's own.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from typing import Optional

from . import closedform as cfm
from .a1 import A1Module, free_generators, std_bv
from .emod import h01
from .gf2 import F2Matrix, rank
from .graded import (
    Degree,
    OperatorPair,
    Window,
    add_deg,
    hom_space,
    shift_mismatch,
)
from .record import Record
from .rfun import RModule, apply_r, required_top


def bv_module(n: int, w: Window) -> A1Module:
    return std_bv(n, 1, required_top(w))


class Chart:
    """The rank-``n`` group cohomology on the window ``w``, its coefficient
    extension and its free part, each built once on first use."""

    def __init__(self, n: int, w: Window):
        self.n = n
        self.w = w

    @cached_property
    def module(self) -> A1Module:
        return bv_module(self.n, self.w)

    @cached_property
    def extension(self) -> RModule:
        return apply_r(self.module, self.w)

    @cached_property
    def free_part(self) -> F2Part:
        return F2Part(*free_generators(self.module))


@lru_cache(maxsize=1)
def chart(n: int, w: Window) -> Chart:
    """The chart of the rank and window, shared until another is asked for."""
    return Chart(n, w)


def compute_f1(n: int, w: Window) -> dict[Degree, int]:
    """Degreewise rank of the second differential on the extension, read
    off one elimination per m column and cone (``GradedMap.ranks``): in the
    positive cone a block extends the elimination of the block below it by
    its new rows, and in the negative cone each block is the block below it
    cut and masked, whose rank the elimination of the bottom block gives.
    Only the stored blocks are nonzero, and each maps between two degrees
    of the window."""
    return chart(n, w).extension.emod.q1.ranks()


# The classes a free generator of degree g contributes, at (g, 0) plus
# these offsets: its top class, the Bott companion of the top class, and
# the partner the connecting map sends to the top class.
FREE_CLASS_OFFSETS: dict[str, Degree] = {
    "top": (6, 0), "companion": (5, -1), "partner": (3, -2)}


def free_class(g: int, which: str) -> Degree:
    """The degree of the ``which`` class of a free generator of degree g."""
    return add_deg((g, 0), FREE_CLASS_OFFSETS[which])


class F2Part(Record):
    # gens: free generators per degree; certified_hi: every degree when math.inf
    __slots__ = ("gens", "certified_hi")

    def dims(self, which: str, w: Window) -> dict[Degree, int]:
        """How many ``which`` classes lie in each degree of ``w``."""
        got = {free_class(g, which): n for g, n in self.gens.items()}
        return {d: n for d, n in got.items() if w.contains(d)}


def compute_f2(n: int, w: Window) -> F2Part:
    """How many free generators the group cohomology has in each degree,
    unshifted: ``F2Part.dims`` shifts them to their classes."""
    part = chart(n, w).free_part
    return F2Part(dict(part.gens), part.certified_hi)


class BorelDetection(Record):
    # model: the Borel model the detection solved on, not compared or printed
    __slots__ = ("certified", "constrained_dim", "unconstrained_dim",
                 "region", "detail", "model")
    _fields = __slots__[:-1]

    def __init__(self, certified: bool, constrained_dim: int,
                 unconstrained_dim: int, region: Window, detail: str,
                 model: cfm.BorelClosedForm) -> None:
        self.certified, self.constrained_dim = certified, constrained_dim
        self.unconstrained_dim, self.region = unconstrained_dim, region
        self.detail, self.model = detail, model


def detection_h1_borel(n: int, w: Window) -> BorelDetection:
    """Zero-ness of the Euler-linear endomorphism space of degree (3,2)
    on the periodic Borel model, which the report carries.

    Solutions are computed on the full window and then restricted to an
    interior region where every Euler tower has its anchors in range, so
    truncation cannot fabricate or hide maps.
    """
    region = w.shrink(0, 3, 2, 2)
    if region is None:
        raise ValueError("window too small for an interior region")
    borel = cfm.BorelClosedForm(n, w)
    ops = [OperatorPair("a", borel.act_a, borel.act_a)]
    sols = hom_space(borel.space, borel.space, (3, 2), ops, w)

    # rank of the solution space restricted to interior variables: each
    # solution packed as the rows of its interior blocks, in window order
    rows = []
    for t in sols:
        bits, width = 0, 0
        for d in region.degrees():
            blk = t.block(d)
            for r in blk.rows:
                bits |= r << width
                width += blk.ncols
        rows.append(bits)
    unconstrained = sum(borel.space.dim(d) * borel.space.dim(add_deg(d, (3, 2)))
                        for d in region.degrees())
    restricted = rank(F2Matrix.from_rows(rows, unconstrained))
    return BorelDetection(
        restricted == 0, restricted, unconstrained, region,
        f"{len(sols)} window solutions, {restricted} surviving on the interior",
        borel)


class KRReport(Record):
    __slots__ = ("window", "rank", "f1", "f2_classes", "f2_companions",
                 "layers", "annotations")

    def layer_periodicity_failure(self) -> Optional[tuple[int, Degree]]:
        """The first layer ``j`` and degree ``d`` where layer ``j + 1`` at
        ``d + (1,1)`` differs from layer ``j`` at ``d``, or None when each
        layer is the one below it moved by (1,1) on the window."""
        for j in range(len(self.layers) - 1):
            d = shift_mismatch(self.layers[j], self.layers[j + 1], (1, 1),
                               self.window)
            if d is not None:
                return j, d
        return None

    def doubling_failure(self) -> Optional[Degree]:
        """The first degree ``d`` where the companions at ``d`` differ from
        the top classes at ``d + (1,1)``, or None."""
        return shift_mismatch(self.f2_companions, self.f2_classes, (1, 1),
                              self.window)

    def layer_periodicity_ok(self) -> bool:
        return self.layer_periodicity_failure() is None

    def doubling_ok(self) -> bool:
        return self.doubling_failure() is None

    def to_tsv(self) -> str:
        lines = ["m\tk\tdim\tpart\tnotes"]
        parts = [("f1", self.f1), ("f2", self.f2_classes),
                 ("f2v", self.f2_companions)]
        parts += [(f"layer{j}", layer) for j, layer in enumerate(self.layers)]
        for tag, dims in parts:
            for (m, k) in sorted(dims):
                notes = ";".join(self.annotations.get((m, k), []))
                lines.append(f"{m}\t{k}\t{dims[(m, k)]}\t{tag}\t{notes}")
        return "\n".join(lines) + "\n"


def assemble_kr(n: int, w: Window, max_layer: int = 3) -> KRReport:
    """Associated-graded report for the rank-n group on the window, with
    layers 0 to ``max_layer``, which must not be negative."""
    if max_layer < 0:
        raise ValueError(f"layer count {max_layer} is negative")
    f1 = compute_f1(n, w)
    f2 = compute_f2(n, w)
    # layer j is the closed form on w moved by (-j, -j), shifted back: each
    # is cut from one table over the union of those windows
    closed = cfm.hv_closed_dims(n, Window(w.m_lo - max_layer, w.m_hi,
                                          w.k_lo - max_layer, w.k_hi))
    layers = []
    for j in range(max_layer + 1):
        below = w.shift((-j, -j))
        layers.append({add_deg(d, (j, j)): v for d, v in closed.items()
                       if below.contains(d)})
    tops, companions = f2.dims("top", w), f2.dims("companion", w)
    annotations: dict[Degree, list[str]] = {}
    for d in f1:
        annotations.setdefault(d, []).append("v1-torsion order 1")
    for d in tops:
        annotations.setdefault(d, []).append("v1-torsion order 2: top class")
    for d in companions:
        annotations.setdefault(d, []).append("v1-torsion order 2: companion")
    for i in range(1, n + 1):
        for d in w.degrees():
            if d[1] >= 0 and cfm.h01_pn_dim(i, d) \
                    and cfm._euler_height(i, d) == 0:
                annotations.setdefault(d, []).append(
                    "base of an Euler tower of height 3")
    return KRReport(w, n, f1, tops, companions, layers, annotations)


class CrossCheckReport(Record):
    __slots__ = ("ok", "region", "mismatches", "brute")

    def detail(self) -> str:
        if self.ok:
            return f"exact agreement on {len(self.region)} bidegrees"
        head = ", ".join(f"{d}: brute {a} vs closed {b}"
                         for d, a, b in self.mismatches[:5])
        return f"{len(self.mismatches)} mismatches ({head} ...)"


def cross_check_hv(n: int, w: Window) -> CrossCheckReport:
    """Brute-force homology of the extension of the group cohomology
    against the closed form plus the free-part contribution."""
    hom = h01(chart(n, w).extension.emod)
    brute = hom.dims()
    f2 = compute_f2(n, w)
    closed = Counter(cfm.hv_closed_dims(n, w))
    closed.update(f2.dims("top", w))
    closed.update(f2.dims("partner", w))
    region = [d for d in hom.region
              if d[0] <= f2.certified_hi + 3 and w.contains(d)]
    mism = []
    for d in region:
        a, b = brute.get(d, 0), closed.get(d, 0)
        if a != b:
            mism.append((d, a, b))
    return CrossCheckReport(not mism, region, mism,
                            {d: brute.get(d, 0) for d in region})
