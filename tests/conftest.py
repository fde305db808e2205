import sys
from pathlib import Path

# allow running the suite from a fresh checkout without installing
src = Path(__file__).resolve().parent.parent / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))

from krtool.a1 import A1Module  # noqa: E402
from krtool.gf2 import F2Matrix  # noqa: E402
from krtool.graded import GradedMap, GradedSpace, add_deg  # noqa: E402


# The elements of the Sq1/Sq2 algebra the library evaluates, written as
# sums of composites (the rightmost factor acts first), independently of
# ``krtool.a1.A1_OPS``: the basis words of the free module, theta and the
# defects of the two relations.
ELEMENTS = {
    "1": "1",
    "Sq1": "Sq1",
    "Sq2": "Sq2",
    "Sq1Sq2": "Sq1 Sq2",
    "Q1": "Sq1 Sq2 + Sq2 Sq1",
    "Q0Q1": "Sq1 Sq1 Sq2 + Sq1 Sq2 Sq1",
    "Q1Sq2": "Sq1 Sq2 Sq2 + Sq2 Sq1 Sq2",
    "Q0Q1Sq2": "Sq1 Sq1 Sq2 Sq2 + Sq1 Sq2 Sq1 Sq2",
    "theta": "Sq2 Sq2 Sq2",
    "Sq1 Sq1 = 0": "Sq1 Sq1",
    "Sq2 Sq2 = Sq1 Sq2 Sq1": "Sq2 Sq2 + Sq1 Sq2 Sq1",
}


def flip_sq2_at_2(m):
    """``m`` with the entry (0, 0) of its Sq2 block at degree 2 flipped: on
    the second companion this breaks Sq2 Sq2 = Sq1 Sq2 Sq1 at degree 2 and
    nowhere below, while the reduced dimensions and both Margolis
    homologies still agree with those of the tensor square of P."""
    blk = m.sq2[2]
    sq2 = {**m.sq2, 2: F2Matrix(blk.nrows, blk.ncols,
                                (blk.rows[0] ^ 1,) + blk.rows[1:])}
    return A1Module(m.basis, m.sq1, sq2, m.lo, m.hi, m.complete_lo,
                    m.complete_hi)


def apply_element(m, name, d, bits):
    """The element ``ELEMENTS[name]`` on the vector ``bits`` of degree
    ``d`` of the module ``m``, one ``apply_sq1``/``apply_sq2`` at a time."""
    total = 0
    for term in ELEMENTS[name].split(" + "):
        vec, cd = bits, d
        for factor in reversed(term.split()):
            if factor == "Sq1":
                vec, cd = m.apply_sq1(cd, vec), cd + 1
            elif factor == "Sq2":
                vec, cd = m.apply_sq2(cd, vec), cd + 2
        total ^= vec
    return total


def image_names(names, bits):
    """The names of the basis vectors that the vector ``bits`` sums."""
    return frozenset(n for j, n in enumerate(names) if (bits >> j) & 1)


def by_name(x):
    """``x`` read by basis name, so that two objects read alike exactly
    when they agree up to the order of each degree's basis.

    An ``A1Module`` reads as {degree: {name: (Sq1 image, Sq2 image)}}, a
    ``GradedMap`` as {source degree: {name: image}}, each image the set of
    target names it hits, and a ``GradedSpace`` as {degree: set of names}.
    Names are unique within a degree, so comparing these is as strict as
    comparing blocks over one fixed order of the bases.
    """
    if isinstance(x, A1Module):
        return {d: {n: (image_names(x.names(d + 1), x.apply_sq1(d, 1 << i)),
                        image_names(x.names(d + 2), x.apply_sq2(d, 1 << i)))
                    for i, n in enumerate(ns)}
                for d, ns in x.basis.items()}
    if isinstance(x, GradedMap):
        return {d: {n: image_names(x.target.names(add_deg(d, x.shift)),
                                   x.apply(d, 1 << i))
                    for i, n in enumerate(ns)}
                for d, ns in x.source.basis.items()}
    if isinstance(x, GradedSpace):
        return {d: frozenset(ns) for d, ns in x.basis.items()}
    raise TypeError(f"cannot read {type(x).__name__} by name")
