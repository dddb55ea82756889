"""Border-vector / middle-matrix form of polynomials quadratic in h.

A symmetric polynomial q whose every word contains exactly two h letters
factors uniquely as q = sum_ij m_i^T h Z_ij h m_j, where the m_i are the
distinct x-words flanking the h's and the Z_ij are polynomials in x alone.
Border entry i stands for h*m_i; the border is sorted in canonical word
order so the representation is canonical.  Positivity of the evaluated
block matrix Z(X) certifies positivity of q(X)[H] for every H, and a zero
diagonal entry facing a nonzero off-diagonal entry rules positivity out
(the zeroes screen).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

from .ncpoly import H_LETTER, EvalPlan, MatrixPoint, Poly, Word, word_key

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MiddleMatrixRep",
    "extract",
    "reconstruct",
    "zeroes_violation",
    "evaluate_middle",
]

_H = bytes([H_LETTER])


@dataclass(frozen=True)
class MiddleMatrixRep:
    g: int
    border: tuple          # distinct x-words m_i, canonical order
    Z: tuple               # N x N tuple of tuples of Poly

    @property
    def size(self) -> int:
        return len(self.border)

    @cached_property
    def _cells(self) -> tuple:
        """Rows, columns and the compiled plan of the nonzero cells, built
        once per representation."""
        import numpy as np

        N = self.size
        cells = [(i, j) for i in range(N) for j in range(N) if self.Z[i][j]]
        rows = np.array([i for i, _ in cells], dtype=np.intp)
        cols = np.array([j for _, j in cells], dtype=np.intp)
        return rows, cols, EvalPlan([self.Z[i][j]._terms for i, j in cells])


def extract(q: Poly) -> MiddleMatrixRep:
    """Middle-matrix representation of a symmetric, pure-quadratic-in-h q.

    Each word must contain exactly two h letters and q must equal its
    transpose; violations raise ValueError.  reconstruct(extract(q)) == q
    exactly, and Z_ij^T == Z_ji entrywise.
    """
    if not q.is_symmetric():
        raise ValueError("extract requires a symmetric polynomial")
    splits = []
    for w, c in q._terms.items():
        first = w.find(H_LETTER)
        second = w.find(H_LETTER, first + 1)
        if first < 0 or second < 0 or w.find(H_LETTER, second + 1) >= 0:
            raise ValueError(
                "every word must contain exactly two h letters; "
                f"offending word {w!r}"
            )
        left, mid, right = w[:first], w[first + 1 : second], w[second + 1 :]
        splits.append((left[::-1], mid, right, c))
    border = sorted({m for s in splits for m in (s[0], s[2])}, key=word_key)
    index = {m: i for i, m in enumerate(border)}
    n = len(border)
    cells: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for mi, mid, mj, c in splits:
        # A word has one (left, mid, right) split, so no cell entry repeats.
        cells[index[mi]][index[mj]][mid] = c
    Z = tuple(tuple(Poly._raw(q.g, cell) for cell in row) for row in cells)
    return MiddleMatrixRep(g=q.g, border=tuple(border), Z=Z)


def reconstruct(rep: MiddleMatrixRep) -> Poly:
    """The polynomial sum_ij m_i^T h Z_ij h m_j."""
    out: dict[Word, Fraction] = {}
    for i, mi in enumerate(rep.border):
        prefix = mi[::-1] + _H
        for j, mj in enumerate(rep.border):
            suffix = _H + mj
            for mid, c in rep.Z[i][j]._terms.items():
                w = prefix + mid + suffix
                s = out.get(w, 0) + c
                if s:
                    out[w] = s
                else:
                    del out[w]
    return Poly._raw(rep.g, out)


def zeroes_violation(rep: MiddleMatrixRep) -> Optional[tuple[int, int]]:
    """First (i, j) with Z_ii the zero polynomial but Z_ij nonzero.

    Scanned in canonical border order; such a pair certifies that the
    reconstructed polynomial cannot be matrix positive.  None when absent.
    """
    n = rep.size
    for i in range(n):
        if rep.Z[i][i].is_zero():
            for j in range(n):
                if j != i and not rep.Z[i][j].is_zero():
                    return (i, j)
    return None


def evaluate_middle(rep: MiddleMatrixRep, X: Sequence[np.ndarray]) -> np.ndarray:
    """Block evaluation of Z at X: block (i, j) is Z_ij(X).

    The middle words of every nonzero cell share one plan, compiled once
    per representation, and each cell sums its own terms in its own order.
    Returns the (N*n) x (N*n) matrix symmetrized by averaging with its
    transpose to remove floating point skew.
    """
    import numpy as np

    point = MatrixPoint(X=tuple(X))
    n = point.n
    N = rep.size
    rows, cols, plan = rep._cells
    M = np.zeros((N, n, N, n))
    M[rows, :, cols, :] = plan.run([None, *point.X])
    M = M.reshape(N * n, N * n)
    return (M + M.T) / 2.0
