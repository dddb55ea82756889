"""Border-vector / middle-matrix form of polynomials quadratic in h.

A symmetric polynomial q whose every word contains exactly two h letters
factors uniquely as q = sum_ij m_i^T h Z_ij h m_j, where the m_i are the
distinct x-words flanking the h's and the Z_ij are polynomials in x alone.
Border entry i stands for h*m_i; the border is sorted in canonical word
order so the representation is canonical.  Positivity of the evaluated
block matrix Z(X) certifies positivity of q(X)[H] for every H, and a zero
diagonal entry facing a nonzero off-diagonal entry rules positivity out
(the zeroes screen).

A middle matrix is sparse: the representation stores its cell terms
(i, j, mid, c), one per word of q, and the N x N grid of Poly cells, Z, is
a view built only when read, where Z_ij^T == Z_ji holds entrywise.

The middle matrix of a Laplacian has one construction,
extract(laplacian(p)), and evaluate_middle evaluates it: the point check of
positivity.subharmonic_at_point takes Z(X) from there.  Each cell sums its
terms in canonical order of their middle words, so Z(X) does not depend on
the order in which the Laplacian expands.  This module imports nothing from
calculus, so no second expansion of the Laplacian lives beside extract.
The float code of evaluate_middle lives in _evalplan, loaded when a
representation is first evaluated, so building one loads no numpy.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

from ._record import record
from .ncpoly import H_LETTER, MatrixPoint, Poly, _sum_terms, render_word, word_key

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

@record
class MiddleMatrixRep:
    g: int
    border: tuple          # distinct x-words m_i, canonical order
    cells: tuple           # (i, j, mid, c), by cell row-major, then canonical mid

    @property
    def size(self) -> int:
        return len(self.border)

    @cached_property
    def Z(self) -> tuple:
        """The N x N grid of Poly cells, built when first read."""
        grid: list[list[dict]] = [[{} for _ in self.border] for _ in self.border]
        for i, j, mid, c in self.cells:
            grid[i][j][mid] = c
        return tuple(tuple(Poly._raw(self.g, cell) for cell in row) for row in grid)

    @cached_property
    def _cells(self) -> tuple:
        """The cell terms compiled for float evaluation, as
        _evalplan._evaluate_cells takes them; built once per representation."""
        from ._evalplan import _cell_table

        return _cell_table(self.cells)


def extract(q: Poly) -> MiddleMatrixRep:
    """Middle-matrix representation of a symmetric, pure-quadratic-in-h q.

    Each word must contain exactly two h letters and q must equal its
    transpose; violations raise ValueError.  Every term m_i^T h mid h m_j
    -> c of q becomes the cell term (i, j, mid, c); the terms are sorted by
    cell, row-major, and within a cell in canonical order of mid.
    reconstruct(extract(q)) == q exactly, and Z_ij^T == Z_ji entrywise.
    """
    if not q.is_symmetric():
        raise ValueError("extract requires a symmetric polynomial")
    splits = []
    for w, c in q._terms.items():
        try:
            left, mid, right = w.split(_H)
        except ValueError:
            raise ValueError(
                "every word must contain exactly two h letters; "
                f"offending word {render_word(w)}"
            ) from None
        splits.append((left[::-1], mid, right, c))
    border = sorted({m for mi, _, mj, _ in splits for m in (mi, mj)}, key=word_key)
    index = {m: i for i, m in enumerate(border)}
    # A word has one (left, mid, right) split, so no key repeats.
    cells = sorted(((index[mi], index[mj], mid, c) for mi, mid, mj, c in splits),
                   key=lambda t: (t[0], t[1], word_key(t[2])))
    return MiddleMatrixRep(g=q.g, border=tuple(border), cells=tuple(cells))


def reconstruct(rep: MiddleMatrixRep) -> Poly:
    """The polynomial sum_ij m_i^T h Z_ij h m_j."""
    prefixes = [m[::-1] + _H for m in rep.border]
    suffixes = [_H + m for m in rep.border]
    return Poly._raw(rep.g, _sum_terms(
        (prefixes[i] + mid + suffixes[j], c) for i, j, mid, c in rep.cells))


def zeroes_violation(rep: MiddleMatrixRep) -> Optional[tuple[int, int]]:
    """First (i, j) with Z_ii the zero polynomial but Z_ij nonzero.

    Scanned in canonical border order; such a pair certifies that the
    reconstructed polynomial cannot be matrix positive.  None when absent.
    """
    # The cells are sorted row-major: the first term off a zero diagonal wins.
    diagonal = {i for i, j, _, _ in rep.cells if i == j}
    return next(((i, j) for i, j, _, _ in rep.cells if i not in diagonal), None)


def evaluate_middle(rep: MiddleMatrixRep, X: Sequence[np.ndarray]) -> np.ndarray:
    """Block evaluation of Z at X: block (i, j) is Z_ij(X).

    The terms of every cell and the prefix levels of their middle words are
    compiled once per representation (rep._cells).  Returns the (N*n) x
    (N*n) matrix averaged with its transpose (see _evalplan._evaluate_cells).
    """
    from ._evalplan import _evaluate_cells

    point = MatrixPoint(X=tuple(X))
    return _evaluate_cells(rep.size, *rep._cells, point.X)

