"""The bigraded fixed-point coefficient ring.

The positive cone is polynomial on the Euler class ``a`` (bidegree (0,1))
and the orientation class ``s = sigma^-1`` (bidegree (-1,1)).  The
negative cone is its linear dual under the pairing into the class of
``sigma^2``; its monomials are written ``a^-m sigma^(n+2)``.  The two
differentials act on the positive cone by the printed closed formulas and
on the negative cone by the transpose of the pairing, which is the only
degree-consistent extension.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator, Optional

from .graded import Degree
from .record import FrozenRecord


@total_ordering
class CoeffMonomial(FrozenRecord):
    """``(+, j, n)`` is ``a^j s^n``; ``(-, m, n)`` is ``a^-m sigma^(n+2)``.

    An immutable value, ordered as ``(cone, e1, e2)``.  The hash is that of
    ``(cone, e1, e2)``, computed once: monomials are dictionary keys
    wherever the extension is built."""

    __slots__ = ("cone", "e1", "e2", "_hash")

    def __init__(self, cone: str, e1: int, e2: int) -> None:
        if cone not in "+-":
            raise ValueError("cone must be '+' or '-'")
        if e1 < 0 or e2 < 0:
            raise ValueError("negative exponents")
        super().__init__(cone, e1, e2)
        # not a field, so equality, ordering and repr do not see it
        object.__setattr__(self, "_hash", hash((cone, e1, e2)))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "CoeffMonomial") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values < other._values

    def degree(self) -> Degree:
        if self.cone == "+":
            j, n = self.e1, self.e2
            return (-n, n + j)
        m, n = self.e1, self.e2
        return (n + 2, -(n + 2) - m)

    def name(self) -> str:
        if self.cone == "+":
            j, n = self.e1, self.e2
            parts = []
            if j:
                parts.append(f"a{j}")
            if n:
                parts.append(f"s{n}")
            return ".".join(parts) if parts else "1"
        m, n = self.e1, self.e2
        parts = []
        if m:
            parts.append(f"A{m}")
        parts.append(f"S{n + 2}")
        return ".".join(parts)

    @staticmethod
    def parse(text: str) -> "CoeffMonomial":
        if text == "1":
            return CoeffMonomial("+", 0, 0)
        j = n = m = s = 0
        neg = False
        for part in text.split("."):
            if part.startswith("a"):
                j = int(part[1:])
            elif part.startswith("s"):
                n = int(part[1:])
            elif part.startswith("A"):
                m = int(part[1:])
                neg = True
            elif part.startswith("S"):
                s = int(part[1:])
                neg = True
            else:
                raise ValueError(f"bad coefficient monomial {text!r}")
        if neg:
            return CoeffMonomial("-", m, s - 2)
        return CoeffMonomial("+", j, n)


A = CoeffMonomial("+", 1, 0)
S = CoeffMonomial("+", 0, 1)


def q0_coeff(x: CoeffMonomial) -> Optional[CoeffMonomial]:
    """First differential; degree (1,0)."""
    if x.cone == "+":
        j, n = x.e1, x.e2
        if n % 2 == 1:
            return CoeffMonomial("+", j + 1, n - 1)
        return None
    m, n = x.e1, x.e2
    if n % 2 == 0 and m >= 1:
        return CoeffMonomial("-", m - 1, n + 1)
    return None


def q1_coeff(x: CoeffMonomial) -> Optional[CoeffMonomial]:
    """Second differential; degree (2,1)."""
    if x.cone == "+":
        j, n = x.e1, x.e2
        if n % 4 in (2, 3):
            return CoeffMonomial("+", j + 3, n - 2)
        return None
    # the transpose of the positive-cone action, as the pairing forces: it
    # moves a^-m sigma^(n+2) by (2,1).  The alternative reading
    # a^(k+1) sigma^(-n+1) has the right first coordinate but the wrong
    # twist, so it is not a (2,1) map.
    m, n = x.e1, x.e2
    if n % 4 in (0, 1) and m >= 3:
        return CoeffMonomial("-", m - 3, n + 2)
    return None


def duality_w(x: CoeffMonomial) -> CoeffMonomial:
    """The pairing isomorphism; involutive on monomial names."""
    return CoeffMonomial("-" if x.cone == "+" else "+", x.e1, x.e2)


def multiply(h: CoeffMonomial, x: CoeffMonomial) -> Optional[CoeffMonomial]:
    """Product ``h . x`` with ``h`` in the positive cone; zero is ``None``.

    Products of two negative-cone monomials are zero in this model and
    raise instead of silently vanishing.
    """
    if h.cone != "+":
        raise ValueError("left factor must lie in the positive cone")
    if x.cone == "+":
        return CoeffMonomial("+", h.e1 + x.e1, h.e2 + x.e2)
    m, n = x.e1 - h.e1, x.e2 - h.e2
    if m < 0 or n < 0:
        return None
    return CoeffMonomial("-", m, n)


def monomials_with_twist(k: int) -> Iterator[CoeffMonomial]:
    """All monomials of twist ``k``; there are none in twist -1."""
    if k >= 0:
        for n in range(0, k + 1):
            yield CoeffMonomial("+", k - n, n)
    if k <= -2:
        for n in range(0, -k - 2 + 1):
            yield CoeffMonomial("-", -k - (n + 2), n)
