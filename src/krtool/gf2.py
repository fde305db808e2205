"""Bit-packed linear algebra over the two-element field.

A matrix row is a Python integer used as a bit vector (bit ``j`` is column
``j``), so every row operation is a single big-int XOR.  All values are
immutable; all functions are pure.  Pivoting is always leftmost, so results
are deterministic and reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class F2Matrix:
    """Dense GF(2) matrix with rows packed into integers."""

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        mask = (1 << self.ncols) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("bits outside declared columns")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nrows: int, ncols: int) -> "F2Matrix":
        return F2Matrix(nrows, ncols, (0,) * nrows)

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_rows(rows: Sequence[int], ncols: int) -> "F2Matrix":
        return F2Matrix(len(rows), ncols, tuple(rows))

    @staticmethod
    def from_entries(entries: Sequence[Sequence[int]], ncols: int) -> "F2Matrix":
        rows = []
        for e in entries:
            r = 0
            for j, v in enumerate(e):
                if v & 1:
                    r |= 1 << j
            rows.append(r)
        return F2Matrix(len(rows), ncols, tuple(rows))

    # -- basic queries -----------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def row_list(self) -> list[int]:
        return list(self.rows)

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "F2Matrix":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= 1 << i
                r &= r - 1
        return F2Matrix(self.ncols, self.nrows, tuple(cols))

    def vec_mul(self, x: int) -> int:
        """Row vector times matrix: returns ``x . self`` as a bit vector."""
        acc = 0
        r = x
        while r:
            i = (r & -r).bit_length() - 1
            acc ^= self.rows[i]
            r &= r - 1
        return acc

    def mul(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in product")
        return F2Matrix(
            self.nrows, other.ncols, tuple(other.vec_mul(r) for r in self.rows)
        )

    def add(self, other: "F2Matrix") -> "F2Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in sum")
        return F2Matrix(
            self.nrows, self.ncols, tuple(a ^ b for a, b in zip(self.rows, other.rows))
        )

    def stack(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != other.ncols:
            raise ValueError("column mismatch in stack")
        return F2Matrix(self.nrows + other.nrows, self.ncols, self.rows + other.rows)


def rref(m: F2Matrix) -> tuple[F2Matrix, tuple[int, ...]]:
    """Reduced row echelon form; shape preserved, nonzero rows first."""
    work = list(m.rows)
    pivots: list[int] = []
    row = 0
    for col in range(m.ncols):
        sel = None
        for r in range(row, len(work)):
            if (work[r] >> col) & 1:
                sel = r
                break
        if sel is None:
            continue
        work[row], work[sel] = work[sel], work[row]
        for r in range(len(work)):
            if r != row and ((work[r] >> col) & 1):
                work[r] ^= work[row]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return F2Matrix(m.nrows, m.ncols, tuple(work)), tuple(pivots)


def rank(m: F2Matrix) -> int:
    return len(rref(m)[1])


def row_basis(m: F2Matrix) -> F2Matrix:
    """Matrix whose rows are the nonzero rref rows (a canonical span basis)."""
    r, piv = rref(m)
    return F2Matrix(len(piv), m.ncols, r.rows[: len(piv)])


def _reduce_vector(v: int, ech_rows: Sequence[int], pivots: Sequence[int]) -> int:
    for r, p in zip(ech_rows, pivots):
        if (v >> p) & 1:
            v ^= r
    return v


def span_contains(m: F2Matrix, v: int) -> bool:
    r, piv = rref(m)
    return _reduce_vector(v, r.rows[: len(piv)], piv) == 0


def kernel_basis(m: F2Matrix) -> F2Matrix:
    """Rows form a basis of ``{v : m . v^T = 0}`` (right null space)."""
    r, piv = rref(m)
    pivset = set(piv)
    free = [j for j in range(m.ncols) if j not in pivset]
    out = []
    for f in free:
        v = 1 << f
        for i, p in enumerate(piv):
            if (r.rows[i] >> f) & 1:
                v |= 1 << p
        out.append(v)
    return F2Matrix(len(out), m.ncols, tuple(out))


def left_kernel_basis(m: F2Matrix) -> F2Matrix:
    """Rows v with ``v . m = 0``; the kernel for row-vector conventions."""
    return kernel_basis(m.transpose())


def solve(m: F2Matrix, b: int) -> Optional[int]:
    """One solution x of ``m . x^T = b`` (b packed over rows), or None.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    if b >> m.nrows:
        raise ValueError("right-hand side longer than row count")
    aug = tuple(r | (((b >> i) & 1) << m.ncols) for i, r in enumerate(m.rows))
    r, piv = rref(F2Matrix(m.nrows, m.ncols + 1, aug))
    x = 0
    for i, p in enumerate(piv):
        if p == m.ncols:
            return None
        if (r.rows[i] >> m.ncols) & 1:
            x |= 1 << p
    return x


def solve_row(v: int, basis: F2Matrix) -> Optional[int]:
    """Coefficients c with ``v = c . basis`` (rows of basis), or None."""
    return solve(basis.transpose(), v)


def subquotient_basis(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Rows completing a basis of span(b) to span(a).

    Requires span(b) to be contained in span(a); raises otherwise.
    """
    if a.ncols != b.ncols:
        raise ValueError("ambient dimension mismatch")
    rb, pb = rref(b)
    for v in rb.rows[: len(pb)]:
        if not span_contains(a, v):
            raise ValueError("second span not contained in the first")
    acc_rows = list(rb.rows[: len(pb)])
    acc_piv = list(pb)
    out = []
    for v in a.rows:
        w = _reduce_vector(v, acc_rows, acc_piv)
        if w:
            out.append(w)
            acc_rows.append(w)
            acc_piv.append((w & -w).bit_length() - 1)
            order = sorted(range(len(acc_rows)), key=lambda i: acc_piv[i])
            acc_rows = [acc_rows[i] for i in order]
            acc_piv = [acc_piv[i] for i in order]
    return F2Matrix(len(out), a.ncols, tuple(out))


def intersect_row_spaces(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Basis of the intersection of two row spans (Zassenhaus)."""
    if a.ncols != b.ncols:
        raise ValueError("ambient dimension mismatch")
    n = a.ncols
    rows = [r | (r << n) for r in a.rows] + list(b.rows)
    r, piv = rref(F2Matrix(len(rows), 2 * n, tuple(rows)))
    mask = (1 << n) - 1
    out = [row >> n for row in r.rows[: len(piv)] if (row & mask) == 0 and row]
    return row_basis(F2Matrix(len(out), n, tuple(out)))
