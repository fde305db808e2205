"""Closed-form bigraded dimension models for the loop companions of the
projective module, their Borel periodicizations, and the assembled
non-free part for elementary abelian groups.

The positive-twist slice at twist ``t`` of the homology of the extended
companion ``P_n`` is the socle of ``P_(n-t)`` shifted by ``t``; the slice
at twist ``t <= -2`` is the socle of ``P_(n-t-1)`` shifted by ``t``; the
twist ``-1`` column vanishes.  Socle degree patterns are period eight in
fours:

    residue 0:  0, 4, 8, 12, ...        residue 2:  6, then 8, 12, 16, ...
    residue 1:  4, 8, 12, ...           residue 3:  7, then 8, 12, 16, ...

Multiplication by the Euler class runs up height-3 towers based at the
period classes (twist congruent to the companion index mod 4) and kills
everything else; the inverted fourth power of the orientation class acts
by the bidegree (-4,4) translation, which makes the Borel model fully
periodic.  The monomial picture is the lattice spanned by ``1`` and the
fourth power generator times powers of ``v`` and the periodicity class,
plus the three-element Euler clump per period; the naive reading that
also attaches Euler towers to the fourth-power generator fails the
brute-force comparison and is not used.
"""

from __future__ import annotations

from math import comb

from .graded import Degree, GradedSpace, Window, add_deg, pair_map


def soc_has(n: int, d: int) -> bool:
    """Whether the socle of the n-th companion meets degree ``d``."""
    r = n % 4
    dd = d - 8 * ((n - r) // 4)
    if r == 0:
        return dd >= 0 and dd % 4 == 0
    if r == 1:
        return dd >= 4 and dd % 4 == 0
    if r == 2:
        return dd == 6 or (dd >= 8 and dd % 4 == 0)
    return dd == 7 or (dd >= 8 and dd % 4 == 0)


def _class_name(n: int, d: Degree) -> str:
    m, k = d
    h = _euler_height(n, d)
    if h is not None:
        return f"e{h}({m},{k})"
    return f"v({m},{k})"


def _euler_height(n: int, d: Degree) -> int | None:
    """Height of ``d`` on its Euler tower, or None off the towers.

    Towers sit at first coordinate ``2n - t`` over base twists ``t``
    congruent to ``n`` mod 4, with heights 0, 1, 2.
    """
    m, k = d
    for h in (0, 1, 2):
        t = k - h
        if t % 4 == n % 4 and m == 2 * n - t:
            return h
    return None


def h01_pn_dim(n: int, d: Degree) -> int:
    """Closed-form dimension of the extension homology of companion n."""
    m, k = d
    if k >= 0:
        return 1 if soc_has(n - k, m - k) else 0
    if k == -1:
        return 0
    return 1 if soc_has(n - k - 1, m - k) else 0


def borel_pn_dim(n: int, d: Degree) -> int:
    """Fully periodic positive-pattern dimension (all twists)."""
    m, k = d
    return 1 if soc_has(n - k, m - k) else 0


def hp_dim(d: Degree) -> int:
    """Dimension of the periodic closed-form model at a bidegree."""
    return borel_pn_dim(0, d)


def hv_closed_dims(n: int, w: Window) -> dict[Degree, int]:
    out: dict[Degree, int] = {}
    for i in range(1, n + 1):
        mult = comb(n, i)
        for d in w.degrees():
            v = h01_pn_dim(i, d) * mult
            if v:
                out[d] = out.get(d, 0) + v
    return out


class BorelClosedForm:
    """The periodic Borel model with its Euler action."""

    def __init__(self, n: int, w: Window):
        self.window = w
        basis: dict[Degree, list[str]] = {}
        # (degree, class, [its partner one Euler step up the same tower])
        pairs: list[tuple[Degree, str, list[str]]] = []
        for i in range(1, n + 1):
            for c in range(comb(n, i)):
                tag = f"b{i}c{c}:"
                for d in w.degrees():
                    if not borel_pn_dim(i, d):
                        continue
                    name = tag + _class_name(i, d)
                    basis.setdefault(d, []).append(name)
                    up = add_deg(d, (0, 1))
                    if _euler_height(i, d) in (0, 1) and w.contains(up) \
                            and borel_pn_dim(i, up):
                        pairs.append((d, name, [tag + _class_name(i, up)]))
        self.space = GradedSpace(w, basis)
        self.act_a = pair_map(self.space, (0, 1), pairs)

    def dims(self) -> dict[Degree, int]:
        return self.space.dims()
