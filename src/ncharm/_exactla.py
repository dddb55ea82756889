"""Exact linear algebra over the rationals.

Internal helpers: one sparse reduced-echelon elimination, SparseRref, and
on it the nullspace of the Laplacian coefficient systems and RowSpan, a
list of rows reduced once to give its rank and to express any number of
vectors over it; and the symmetric congruence diagonalization used by the
sum-of-squares construction.  Everything here works in Fraction
arithmetic and is deterministic: pivots are chosen in a fixed scan order,
never by magnitude, so identical inputs give identical outputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

__all__ = [
    "SparseRref",
    "sparse_nullspace",
    "RowSpan",
    "congruence_diagonalize",
    "is_psd_rational",
]

Row = dict  # column index -> nonzero Fraction

# The most entries the dense vectors of one nullspace may hold (free columns
# times columns); a larger nullspace is refused after elimination, before
# its vectors are built.  They cost about 0.3 us and 17 bytes an entry:
# harmonic_basis(45, 2), 4.1e6 entries, builds in 1.2 s and 79 MB, and
# harmonic_basis(64, 2), 2^24 - 4,096 entries, in 4.8 s and 274 MB.
MAX_NULLSPACE_ENTRIES = 1 << 24


def _subtract(dst: Row, factor: Fraction, src: Row) -> None:
    """dst -= factor * src in place, deleting the columns that reach zero."""
    for c, v in src.items():
        s = dst.get(c, 0) - factor * v
        if s:
            dst[c] = s
        else:
            dst.pop(c)


class SparseRref:
    """Incrementally built reduced row echelon form with sparse rows.

    Invariant: every stored pivot row is normalized (pivot entry 1),
    contains no other row's pivot column, and has its pivot as its largest
    column.  The first two make reducing an incoming row a single
    elimination pass per pivot column it touches.  The third survives
    insertion: a new row's columns all lie at or below its pivot, and an
    older row holds that column only below its own pivot, so subtracting
    a multiple of the new row leaves the older row's largest column alone.
    It is what makes sparse_nullspace canonical without a further
    reduction.
    """

    def __init__(self):
        self.pivots: dict[int, Row] = {}

    def reduce(self, row: Row) -> Row:
        """Return row reduced against the current pivot rows (a copy)."""
        row = {c: Fraction(v) for c, v in row.items() if v}
        for c in sorted(set(row) & set(self.pivots)):
            factor = row.get(c)
            if factor:
                _subtract(row, factor, self.pivots[c])
        return row

    def insert(self, row: Row) -> Optional[int]:
        """Reduce and insert a row; return its pivot column or None if zero."""
        row = self.reduce(row)
        if not row:
            return None
        lead = max(row)
        inv = 1 / row[lead]
        row = {c: v * inv for c, v in row.items()}
        for prow in self.pivots.values():
            factor = prow.get(lead)
            if factor:
                _subtract(prow, factor, row)
        self.pivots[lead] = row
        return lead


def sparse_nullspace(rows: Iterable[Row], ncols: int) -> list[list[Fraction]]:
    """Nullspace basis of the matrix given by sparse rows, as a canonical
    reduced-echelon list of dense coefficient vectors.

    One vector per free column f, in ascending f: e_f minus the f-entries
    of the pivot rows placed at their pivot columns.  A pivot row holds f
    only when f lies below its pivot, so f is the vector's first nonzero
    column, with entry 1, and no other free column appears in it.  The
    vectors are therefore the unique reduced row echelon form of the
    nullspace, with the free columns as its pivot columns.
    """
    rref = SparseRref()
    for row in rows:
        rref.insert(row)
    free_cols = [c for c in range(ncols) if c not in rref.pivots]
    if len(free_cols) * ncols > MAX_NULLSPACE_ENTRIES:
        raise ValueError(
            f"a nullspace of {len(free_cols)} vectors over {ncols} columns exceeds "
            f"MAX_NULLSPACE_ENTRIES = {MAX_NULLSPACE_ENTRIES} entries"
        )
    vectors = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, prow in rref.pivots.items():
            coeff = prow.get(f)
            if coeff:
                v[c] = -coeff
        vectors.append(v)
    return vectors


class RowSpan:
    """The span of a list of rows, reduced once to express any number of
    targets over the rows; rank is the rank of the rows.

    [rows | I] is reduced with its columns numbered from the right, so that
    SparseRref's largest-column pivot is the leftmost nonzero column and
    the result is the unique reduced row echelon form of [rows | I].
    """

    def __init__(self, rows: Sequence[Sequence[Fraction]], ncols: int):
        self.ncols, self.k = ncols, len(rows)
        self.last = last = ncols + self.k - 1
        self.rref = SparseRref()
        for i, row in enumerate(rows):
            flipped = {last - j: v for j, v in enumerate(row) if v}
            flipped[last - ncols - i] = 1
            self.rref.insert(flipped)
        self.rank = sum(last - lead < ncols for lead in self.rref.pivots)

    def express(self, target: Sequence[Fraction]) -> Optional[list[Fraction]]:
        """Coefficients c with sum_i c[i]*rows[i] == target, or None.

        With linearly dependent rows the returned particular solution is
        the one the reduced form determines: target[c] times the identity
        part of the row pivoting at c, summed over the pivot columns c of
        rows.  It is linear in target.
        """
        last, ncols = self.last, self.ncols
        residual = [Fraction(v) for v in target]
        combo = [Fraction(0)] * self.k
        for lead, prow in self.rref.pivots.items():
            c = last - lead
            # No other row holds column c, so residual[c] is still target[c].
            if c >= ncols or not residual[c]:
                continue
            a = residual[c]
            for col, v in prow.items():
                j = last - col
                if j < ncols:
                    residual[j] -= a * v
                else:
                    combo[j - ncols] += a * v
        if any(residual):
            return None
        return combo


def congruence_diagonalize(mat: Sequence[Sequence[Fraction]]):
    """Diagonalize a symmetric rational matrix by congruence: M = N D N^T.

    Returns (N, D) with N an invertible rational matrix (list of rows) and
    D the list of diagonal pivots.  Pivoting scans the diagonal in index
    order; when the whole remaining diagonal is zero but some off-diagonal
    entry is not, the rank-two transform (add row/col j to row/col i) is
    applied first.  Signs of D give the inertia (Sylvester), so M is
    positive semidefinite iff every pivot is nonnegative.
    """
    n = len(mat)
    A = [[Fraction(v) for v in row] for row in mat]
    for i in range(n):
        for j in range(i + 1, n):
            if A[i][j] != A[j][i]:
                raise ValueError("congruence_diagonalize requires a symmetric matrix")
    N = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def add_col(dst, src, f):
        # N[:,dst] += f * N[:,src]
        for r in range(n):
            N[r][dst] += f * N[r][src]

    for k in range(n):
        pivot = next((p for p in range(k, n) if A[p][p]), None)
        if pivot is None:
            pair = next(
                (
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if A[i][j]
                ),
                None,
            )
            if pair is None:
                break
            i, j = pair
            for c in range(n):
                A[i][c] += A[j][c]
            for r in range(n):
                A[r][i] += A[r][j]
            # M = N' A' N'^T with N'[:,j] -= N[:,i]
            add_col(j, i, Fraction(-1))
            pivot = i
        if pivot != k:
            A[k], A[pivot] = A[pivot], A[k]
            for r in range(n):
                A[r][k], A[r][pivot] = A[r][pivot], A[r][k]
            for r in range(n):
                N[r][k], N[r][pivot] = N[r][pivot], N[r][k]
        d = A[k][k]
        for r in range(k + 1, n):
            if not A[r][k]:
                continue
            f = A[r][k] / d
            for c in range(n):
                A[r][c] -= f * A[k][c]
            for c in range(n):
                A[c][r] -= f * A[c][k]
            add_col(k, r, f)
    D = [A[i][i] for i in range(n)]
    return N, D


def is_psd_rational(mat: Sequence[Sequence[Fraction]]) -> bool:
    """Exact positive semidefiniteness of a symmetric rational matrix."""
    _, D = congruence_diagonalize(mat)
    return all(d >= 0 for d in D)
