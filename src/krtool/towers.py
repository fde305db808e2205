"""Finite-data towers and the height detection framework.

A tower is a ladder of graded spaces with structure maps down the ladder,
compatible maps to a colimit space, and per-level cofiber data forming
long exact sequences.  Detection of height ``h`` at a level asks that the
kernel of the colimit comparison inject into the cokernel of ``h``
consecutive structure maps; for the multiplication-by-x towers built here
this is equivalent to all torsion orders being at most ``h``, which the
randomized tests exploit as an independent oracle.

In the synthetic towers each basis vector is keyed by its summand: ``i``
on the level spaces and the colimit, ``("g", i)`` or ``("q", i)`` on the
layers, and a key occurs at most once in each degree.  Each degree lists
its keys in the order the builder meets them, and the basis follows that
order.  Every structure map sends a key to the corresponding key of the
target degree where that key is present (``e`` and ``f`` send ``i`` to
``i``, ``c`` sends ``i`` to ``("q", i)``, ``delta`` sends ``("g", i)`` to
``i``), so its matrix is read off the key positions.

Within one tower a space keeps its keys as one tuple per degree, each
distinct key tuple gets one tuple of names and each distinct (source
keys, target keys, key translation) one block, and equal blocks are one
matrix.  The checks do each distinct piece of work once per call, keyed
by the ids of the matrices the maps hold, so every witness is still the
first failing level and degree.  Nothing is shared between towers.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import Optional

from .gf2 import Echelon, F2Matrix, homology, intersect_row_spaces
from .graded import (
    Degree,
    GradedMap,
    GradedSpace,
    Subquotient,
    Window,
    add_deg,
    degrees_where,
    sub_deg,
)
from .record import FrozenRecord, Record


class TowerLevel(Record):
    """Level n: the space k_n, the layer C_n, and the maps e: k_n -> k_{n-1},
    f: k_n -> K, c: k_n -> C_n and delta: C_n -> k_{n+1} of degree (1,0)."""

    __slots__ = ("space", "layer", "e", "f", "c", "delta")


class TowerData(Record):
    # region: the degrees where the data is complete
    __slots__ = ("levels", "colimit", "level_lo", "level_hi", "region")

    def theta(self, n: int) -> Optional[GradedMap]:
        """Composite of the boundary with the next projection; degree (1,0)."""
        if n + 1 > self.level_hi:
            return None
        dn = self.levels[n].delta
        if dn is None:
            return None
        return dn.compose(self.levels[n + 1].c)


class TowerWitness(Record):
    __slots__ = ("level", "degree", "relation")

    def __str__(self) -> str:
        return f"level {self.level} degree {self.degree}: {self.relation}"


def validate_tower(t: TowerData) -> list[TowerWitness]:
    """Check the tower identity and the three exactness statements."""
    out: list[TowerWitness] = []
    # the colimit maps commute where e_n followed by f_{n-1} is f_n; the
    # blocks repeat from degree to degree, so each distinct pair of them is
    # multiplied once, and a zero product is no block, as in ``compose``
    products: dict[tuple[int, int], Optional[F2Matrix]] = {}
    for n in range(t.level_lo + 1, t.level_hi + 1):
        e, f, f_prev = t.levels[n].e, t.levels[n].f, t.levels[n - 1].f
        if e.target is not f_prev.source:
            for d in e.source.basis:
                mid = add_deg(d, e.shift)
                if e.target.dim(mid) != f_prev.source.dim(mid):
                    raise ValueError("composition block mismatch")
        for d in degrees_where(t.region.contains, e.blocks, f.blocks):
            b1, b2 = e.blocks.get(d), f_prev.blocks.get(add_deg(d, e.shift))
            through = None
            if b1 is not None and b2 is not None:
                key = (id(b1), id(b2))
                if key not in products:
                    got = b1.mul(b2)
                    products[key] = got if any(got.rows) else None
                through = products[key]
            # zero blocks are never stored, so stored blocks compare as blocks
            if through != f.blocks.get(d):
                out.append(TowerWitness(n, d, "colimit maps do not commute"))
                break
    # where all three compared spaces are empty every span below is empty,
    # so only populated degrees can fail; the blocks repeat from degree to
    # degree, so each distinct (into, out, dimension) is counted once
    counted: dict[tuple[int, int, int], bool] = {}

    def exact(into: Optional[F2Matrix], out_of: Optional[F2Matrix],
              dim: int) -> bool:
        key = (id(into), id(out_of), dim)
        got = counted.get(key)
        if got is None:
            got = counted[key] = homology(into, out_of, dim) == 0
        return got

    # the checks at d read d + (1, 0) too, so both lie in the region
    inner = t.region.shrink(0, 1)
    for n in range(t.level_lo, t.level_hi) if inner else ():
        lev, above = t.levels[n], t.levels[n + 1]
        # e_{n+1} and c_n keep degrees, delta_n raises them by (1, 0)
        e, c, delta = above.e.blocks, lev.c.blocks, lev.delta.blocks
        space, layer, up = lev.space.sizes, lev.layer.sizes, above.space.sizes
        below = [sub_deg(d, (1, 0)) for d in up]
        for d in degrees_where(inner.contains, space, layer, below):
            d1 = (d[0] + 1, d[1])
            # exactness at k_n: image of e_{n+1} = kernel of c_n
            if not exact(e.get(d), c.get(d), space.get(d, 0)):
                out.append(TowerWitness(n, d, "not exact at the level space"))
                break
            # exactness at C_n: image of c_n = kernel of delta_n
            if not exact(c.get(d), delta.get(d), layer.get(d, 0)):
                out.append(TowerWitness(n, d, "not exact at the layer"))
                break
            # exactness at k_{n+1}: image of delta_n = kernel of e_{n+1}
            if not exact(delta.get(d), e.get(d1), up.get(d1, 0)):
                out.append(TowerWitness(n, d, "not exact at the next level"))
                break
    return out


class Filtration:
    """The colimit kernel of one level and its three-step filtration.

    Each piece is a table over the region's degrees of the level space
    ``k_n``, built on first read, so a caller pays only for what it reads:

    - ``t_n``: the kernel of the colimit map ``f_n``;
    - ``ker_e``: the kernel of the structure map ``e_n``;
    - ``f0``: ``ker_e`` meet the image of ``e_{n+1}``;
    - ``f2``: the subquotient ``t_n / ker_e``.
    """

    def __init__(self, lev: TowerLevel, above: TowerLevel,
                 degrees: list[Degree]):
        self._lev, self._above, self._degrees = lev, above, degrees

    @cached_property
    def t_n(self) -> dict[Degree, F2Matrix]:
        return {d: self._lev.f.kernel_at(d) for d in self._degrees}

    @cached_property
    def ker_e(self) -> dict[Degree, F2Matrix]:
        return {d: self._lev.e.kernel_at(d) for d in self._degrees}

    @cached_property
    def f0(self) -> dict[Degree, F2Matrix]:
        # a kernel and an image are kept on their blocks, which repeat from
        # degree to degree, so each distinct pair of them meets once
        image = self._above.e.image_at
        met: dict[tuple[int, int], F2Matrix] = {}
        out: dict[Degree, F2Matrix] = {}
        for d, ke in self.ker_e.items():
            im = image(d)
            key = (id(ke), id(im))
            got = met.get(key)
            if got is None:
                got = met[key] = intersect_row_spaces(ke, im)
            out[d] = got
        return out

    @cached_property
    def f2(self) -> Subquotient:
        return Subquotient(self._lev.space, self.t_n, self.ker_e)


def filtration(t: TowerData, n: int) -> Filtration:
    """Colimit kernel and its three-step filtration at level ``n``, which
    needs the levels ``n - 1`` and ``n + 1``; the pieces are built when
    first read."""
    if not (t.level_lo + 1 <= n <= t.level_hi - 1):
        raise ValueError(f"level {n} lacks neighbors in [{t.level_lo},{t.level_hi}]")
    lev = t.levels[n]
    return Filtration(lev, t.levels[n + 1],
                      degrees_where(t.region.contains, lev.space.basis))


class DetectReport(Record):
    __slots__ = ("holds", "height", "level", "witness")


def detect(t: TowerData, h: int, n: int) -> DetectReport:
    """Injectivity of the colimit kernel into the h-fold cokernel."""
    if not (t.level_lo + 1 <= n and n + h <= t.level_hi):
        raise ValueError("level out of range for this height")
    lev = t.levels[n]
    comp = t.levels[n + h].e
    for step in range(h - 1, 0, -1):
        comp = comp.compose(t.levels[n + step].e)
    # a kernel and an image are kept on their blocks, which repeat from
    # degree to degree, so each distinct pair of them is tested once
    apart: set[tuple[int, int]] = set()
    for d in degrees_where(t.region.contains, lev.space.basis):
        tn = lev.f.kernel_at(d)
        if tn.nrows == 0:
            continue
        img = comp.image_at(d)
        if (id(tn), id(img)) in apart:
            continue
        # the two row bases are independent, so they meet exactly when the
        # image adds fewer dimensions to the kernel than it has rows
        if Echelon(tn.rows).extend(img.rows) < img.nrows:
            return DetectReport(False, h, n, d)
        apart.add((id(tn), id(img)))
    return DetectReport(True, h, n, None)


class ChainComplexReport(Record):
    __slots__ = ("ok", "detail", "homology_dims", "phi_quotient_dims",
                 "first_injective")


def chain_complex_at(t: TowerData, n: int) -> ChainComplexReport:
    """The two-step complex through the layer homology at level ``n`` and
    the certified isomorphism of its middle homology with the colimit
    filtration quotient."""
    if not (t.level_lo + 1 <= n - 1 and n + 2 <= t.level_hi):
        raise ValueError("levels out of range for the chain complex")
    lev, nxt = t.levels[n], t.levels[n + 1]
    th_n = t.theta(n)
    th_prev = t.theta(n - 1)
    # the first map reads F2 at level n, the second F0 at level n + 1
    f2 = filtration(t, n).f2
    f0_next = Subquotient(nxt.space, filtration(t, n + 1).f0, {})
    # every space read at d is empty unless d is one of these; the last set
    # keeps the degrees whose only data is the bottom step of the next level
    below = [sub_deg(d, (1, 0)) for d in nxt.space.basis]
    degrees = degrees_where(t.region.contains, lev.layer.basis, lev.space.basis,
                            t.colimit.basis, below)

    middle = Subquotient(lev.layer, {d: th_n.kernel_at(d) for d in degrees},
                         {d: th_prev.image_at(d) for d in degrees})

    hom_dims: dict[Degree, int] = {}
    phi_dims: dict[Degree, int] = {}
    detail = []
    injective = True
    for d in degrees:
        if not t.region.contains(add_deg(d, (1, 0))):
            continue
        # first map: F2 through the projection c_n into the middle
        first = f2.induced(lev.c, middle, d)
        if first is None:
            detail.append(f"projection does not land in the middle at {d}")
            continue
        if homology(None, first, first.nrows):
            # happens only when detection of height two fails
            injective = False
        # second map: the middle through the boundary into F0_{n+1}
        second = middle.induced(lev.delta, f0_next, d)
        if second is None:
            detail.append(f"boundary does not land in the bottom step at {d}")
            continue
        if homology(second, None, second.ncols):
            detail.append(f"second map not surjective at {d}")
        hom = homology(first, second, first.ncols)
        if hom is None:
            detail.append(f"composite nonzero at {d}")
            continue
        if hom:
            hom_dims[d] = hom
        # independent side: image filtration of the colimit comparison
        q = lev.f.rank_at(d) - nxt.f.rank_at(d)
        if q:
            phi_dims[d] = q
        if hom != q:
            detail.append(f"homology {hom} != filtration quotient {q} at {d}")
    return ChainComplexReport(not detail, "; ".join(detail) or "certified",
                              hom_dims, phi_dims, injective)


# -- synthetic multiplication towers ------------------------------------------

class Summand(FrozenRecord):
    """A ``"cyclic"`` summand of torsion ``order``, or a ``"free"`` one; an
    immutable value."""

    __slots__ = ("kind", "shift", "order")

    def __init__(self, kind: str, shift: int, order: int = 0) -> None:
        if kind not in ("cyclic", "free"):
            raise ValueError("summand kind must be cyclic or free")
        if kind == "cyclic" and order < 1:
            raise ValueError("cyclic summand needs a positive order")
        super().__init__(kind, shift, order)


class XTowerSpec(FrozenRecord):
    """A tower's x degree and its summands; an immutable value."""

    __slots__ = ("xdeg", "summands")

    def max_order(self) -> int:
        orders = [s.order for s in self.summands if s.kind == "cyclic"]
        return max(orders) if orders else 0

    def window(self, level_lo: int, level_hi: int) -> Window:
        """Window for the tower levels ``level_lo..level_hi``: from the lowest
        summand moved ``level_lo`` steps of x to the highest moved past the
        largest torsion order by ``level_hi + 6`` steps, plus a degree or two."""
        d, shifts = self.xdeg, [s.shift for s in self.summands]
        top = max(shifts) + ((self.max_order() or 1) + level_hi + 6) * d
        return Window(min(shifts) + level_lo * d - 1, top + 2, 0, 0)


# a space with its basis keys: one tuple of keys per degree, in basis order
Keyed = tuple[GradedSpace, dict[Degree, tuple]]


def _keyed_space(window: Window, keys: dict[Degree, list], name) -> Keyed:
    """The space with one basis vector ``name(key)`` per key, in the order
    of the keys; degrees with equal keys share one tuple of names."""
    kept = {dg: tuple(ks) for dg, ks in keys.items() if window.contains(dg)}
    names: dict[tuple, tuple[str, ...]] = {}
    for ks in kept.values():
        if ks not in names:
            names[ks] = tuple(name(k) for k in ks)
    return GradedSpace(window, {dg: names[ks]
                                for dg, ks in kept.items()}), kept


def _to_layer(i: int) -> tuple:
    """The layer key of level key ``i``: its bottom class."""
    return ("q", i)


def _boundary(k: tuple) -> Optional[int]:
    """The next level's key of layer key ``k``: summand ``i`` for the top
    class ``("g", i)``, none for a bottom class."""
    return k[1] if k[0] == "g" else None


def _key_map(src: Keyed, tgt: Keyed, shift: Degree, made: dict,
             to=lambda k: k) -> GradedMap:
    """The map sending the basis vector of each key ``k`` to that of
    ``to(k)`` in the shifted degree, or to zero where that key is absent.
    A block is read off the key positions once per distinct (source keys,
    target keys, ``to``), and ``made`` keeps those blocks, and the blocks
    by rows and width, so that equal blocks are one matrix (most blocks of
    a tower are small identities)."""
    (source, src_keys), (target, tgt_keys) = src, tgt
    blocks: dict[Degree, F2Matrix] = {}
    for dg, ks in src_keys.items():
        tks = tgt_keys.get(add_deg(dg, shift))
        if tks is None:
            continue
        try:
            got = made[ks, tks, to]
        except KeyError:
            got = made[ks, tks, to] = _key_block(ks, tks, to, made)
        if got is not None:
            blocks[dg] = got
    return GradedMap(source, target, shift, blocks)


def _key_block(ks: tuple, tks: tuple, to, made: dict) -> Optional[F2Matrix]:
    """The block sending key ``k`` of ``ks`` to ``to(k)`` of ``tks``, the
    one matrix ``made`` keeps for its rows and width, or None when zero."""
    pos = {k: p for p, k in enumerate(tks)}
    at = [pos.get(to(k)) for k in ks]
    rows = tuple(0 if t is None else 1 << t for t in at)
    if not any(rows):
        return None
    got = made.get((rows, len(tks)))
    if got is None:
        got = made[rows, len(tks)] = F2Matrix(len(rows), len(tks), rows)
    return got


def build_x_tower(spec: XTowerSpec, level_lo: int,
                  level_hi: int) -> TowerData:
    """The multiplication tower of a graded module over one variable, on
    the window ``spec.window(level_lo, level_hi)``."""
    d = spec.xdeg
    window = spec.window(level_lo, level_hi)

    def powers(prefix: str, n: int, span) -> Keyed:
        """Key ``i`` at each power ``x^j`` of summand ``i`` moved ``n``
        steps of x that lies in the window, for ``lo <= j < hi`` where
        ``span(summand)`` is ``(lo, hi)``; a bound may be infinite."""
        keys: dict[Degree, list] = {}
        for i, s in enumerate(spec.summands):
            at = s.shift + n * d          # the degree of x^0
            lo, hi = span(s)
            for j in range(max(lo, -((at - window.m_lo) // d)),
                           min(hi, (window.m_hi - at) // d + 1)):
                keys.setdefault((at + j * d, 0), []).append(i)
        return _keyed_space(window, keys, lambda i: f"{prefix}.{i}")

    def layer(n: int) -> Keyed:
        keys: dict[Degree, list] = {}
        for i, s in enumerate(spec.summands):
            keys.setdefault((s.shift + n * d, 0), []).append(("q", i))
            if s.kind == "cyclic":
                top = s.shift + (s.order + n) * d - 1
                keys.setdefault((top, 0), []).append(("g", i))
        return _keyed_space(window, keys,
                            lambda k: f"C{n}.{k[0]}.{k[1]}")

    # the colimit holds every power of the free summands, a level the
    # nonnegative powers below each summand's torsion order
    colim = powers("K", 0, lambda s: (-math.inf, math.inf)
                   if s.kind == "free" else (0, 0))
    spaces = {n: powers(f"L{n}", n, lambda s: (0, math.inf if s.kind == "free"
                                                else s.order))
              for n in range(level_lo, level_hi + 1)}
    made: dict = {}
    levels: dict[int, TowerLevel] = {}
    for n, sp in spaces.items():
        lay = layer(n)
        e = (_key_map(sp, spaces[n - 1], (0, 0), made) if n > level_lo
             else None)
        delta = (_key_map(lay, spaces[n + 1], (1, 0), made, _boundary)
                 if n < level_hi else None)
        levels[n] = TowerLevel(
            sp[0], lay[0], e, _key_map(sp, colim, (0, 0), made),
            _key_map(sp, lay, (0, 0), made, _to_layer), delta)
    return TowerData(levels, colim[0], level_lo, level_hi, window)


def random_x_tower_spec(rng: random.Random, max_summands: int = 4,
                        max_order: int = 3) -> XTowerSpec:
    n = rng.randint(1, max_summands)
    summands = []
    for _ in range(n):
        if rng.random() < 0.75:
            summands.append(Summand("cyclic", rng.randint(-2, 4),
                                    rng.randint(1, max_order)))
        else:
            summands.append(Summand("free", rng.randint(-2, 4)))
    return XTowerSpec(rng.choice([1, 2]), tuple(summands))


def oracle_detect(spec: XTowerSpec, h: int) -> bool:
    """Brute criterion: every torsion order is at most ``h``."""
    return spec.max_order() <= h
