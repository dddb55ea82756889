"""Harmonic polynomials: generators in two variables and exact bases in any.

For g = 2 the space of homogeneous harmonics is generated by the real and
imaginary parts of (x1 + i*x2)^d, produced here by the real two-term
recursion (no complex arithmetic).  For arbitrary (g, d) the harmonics are
computed exactly as the nullspace of the coefficient matrix of the
Laplacian: columns are the g^d degree-d words in x, rows are the degree-d
words with exactly two h letters, and the entry at (row, col) is the
coefficient of the row word in the Laplacian of the column word.  Both
routes exist for g = 2 and are cross-checked in the test suite rather than
one replacing the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Optional

from ._exactla import sparse_nullspace
from .ncpoly import H_LETTER, Poly, Word, check_num_vars, word_key
from .calculus import laplacian

__all__ = [
    "gamma_power_parts",
    "enumerate_words",
    "LaplacianSystem",
    "laplacian_coefficient_matrix",
    "HarmonicBasis",
    "harmonic_basis",
    "express_in_basis",
    "check_independence_property",
]


@lru_cache(maxsize=None)
def gamma_power_parts(d: int) -> tuple[Poly, Poly]:
    """Real and imaginary part of the d-th power of x1 + i*x2 (g = 2).

    re_1 = x1, im_1 = x2, and then
    re_d = x1*re_{d-1} - x2*im_{d-1},  im_d = x1*im_{d-1} + x2*re_{d-1}.
    Both parts are symmetric, homogeneous of degree d, and carry 2^(d-1)
    words with coefficients +-1.
    """
    if d < 1:
        raise ValueError("gamma powers need d >= 1")
    x1 = Poly.variable(2, 1)
    x2 = Poly.variable(2, 2)
    if d == 1:
        return x1, x2
    re_prev, im_prev = gamma_power_parts(d - 1)
    return x1 * re_prev - x2 * im_prev, x1 * im_prev + x2 * re_prev


def enumerate_words(g: int, d: int) -> list[Word]:
    """All degree-d words in x1..xg, ascending canonical order."""
    return [bytes(w) for w in product(range(1, g + 1), repeat=d)]


@dataclass(frozen=True)
class LaplacianSystem:
    """Coefficient matrix of the Laplacian on degree-d words.

    rows[i] maps column index -> Fraction and is aligned with row_words[i];
    zero rows are kept so the indexing covers every two-h word.
    """

    g: int
    d: int
    col_words: tuple
    row_words: tuple
    rows: tuple

    def dense(self) -> list[list[Fraction]]:
        n = len(self.col_words)
        return [
            [row.get(j, Fraction(0)) for j in range(n)] for row in self.rows
        ]


def _two_h_words(g: int, d: int) -> list[Word]:
    """Degree-d words containing exactly two h letters, canonical order."""
    if d < 2:
        return []
    out = []
    for pa, pb in combinations(range(d), 2):
        for fill in product(range(1, g + 1), repeat=d - 2):
            letters = list(fill[: pa]) + [H_LETTER] + list(
                fill[pa : pb - 1]
            ) + [H_LETTER] + list(fill[pb - 1 :])
            out.append(bytes(letters))
    out.sort(key=word_key)
    return out


def laplacian_coefficient_matrix(g: int, d: int) -> LaplacianSystem:
    """Exact coefficient matrix whose nullspace is the degree-d harmonics."""
    if g < 1 or d < 1:
        raise ValueError("need g >= 1 and d >= 1")
    check_num_vars(g)
    col_words = enumerate_words(g, d)
    row_words = _two_h_words(g, d)
    row_index = {w: i for i, w in enumerate(row_words)}
    rows: list[dict] = [{} for _ in row_words]
    for j, w in enumerate(col_words):
        lap = laplacian(Poly.monomial(g, w))
        for rw, c in lap._terms.items():
            rows[row_index[rw]][j] = c
    return LaplacianSystem(
        g=g,
        d=d,
        col_words=tuple(col_words),
        row_words=tuple(row_words),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class HarmonicBasis:
    """Reduced-echelon basis of the homogeneous harmonics for (g, d).

    word_index is the ascending canonical enumeration of degree-d x-words;
    coeff_rows holds the coefficient vector of each element over it and is
    in reduced row echelon form with pivot columns pivot_cols.
    """

    g: int
    d: int
    elements: tuple
    word_index: tuple
    coeff_rows: tuple
    pivot_cols: tuple

    @property
    def dimension(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=None)
def harmonic_basis(g: int, d: int) -> HarmonicBasis:
    """Exact basis of homogeneous degree-d harmonics in g variables."""
    system = laplacian_coefficient_matrix(g, d)
    ncols = len(system.col_words)
    vectors = sparse_nullspace((r for r in system.rows if r), ncols)
    elements = []
    for vec in vectors:
        p = Poly(g, {w: c for w, c in zip(system.col_words, vec) if c})
        if not laplacian(p).is_zero():
            raise AssertionError("nullspace element failed exact harmonicity")
        elements.append(p)
    return HarmonicBasis(
        g=g,
        d=d,
        elements=tuple(elements),
        word_index=system.col_words,
        coeff_rows=tuple(tuple(row) for row in vectors),
        # Each vector's first nonzero entry is a 1 at its free column.
        pivot_cols=tuple(vec.index(1) for vec in vectors),
    )


def _vectorize(p: Poly, basis: HarmonicBasis) -> list[Fraction]:
    index = {w: i for i, w in enumerate(basis.word_index)}
    vec = [Fraction(0)] * len(basis.word_index)
    for w, c in p._terms.items():
        if w not in index:
            raise ValueError(
                f"word {w!r} does not belong to the degree-{basis.d} enumeration"
            )
        vec[index[w]] = c
    return vec


def express_in_basis(p: Poly, basis: HarmonicBasis) -> Optional[list[Fraction]]:
    """Exact coordinates of p in the basis, or None when p is outside the span.

    p must be homogeneous of degree basis.d in basis.g variables (the zero
    polynomial is allowed and yields the zero vector).
    """
    if p.g != basis.g:
        raise ValueError(f"num_vars mismatch: {p.g} vs basis {basis.g}")
    if not p.is_homogeneous(basis.d) and not p.is_zero():
        raise ValueError(f"polynomial is not homogeneous of degree {basis.d}")
    vec = _vectorize(p, basis)
    coords = [vec[c] for c in basis.pivot_cols]
    # Residual check: subtract the combination and demand exact zero.
    residual = list(vec)
    for coeff, row in zip(coords, basis.coeff_rows):
        if coeff:
            for j, v in enumerate(row):
                if v:
                    residual[j] -= coeff * v
    if any(residual):
        return None
    return coords


def check_independence_property(basis: HarmonicBasis) -> Optional[list[Word]]:
    """A word per element occurring in no other element, if that exists.

    Greedy over the canonical word order; for a reduced-echelon basis the
    pivot words always qualify.  Returns None when some element has no
    private word.
    """
    word_sets = [set(p._terms) for p in basis.elements]
    chosen = []
    for i, words in enumerate(word_sets):
        others = set()
        for j, other in enumerate(word_sets):
            if j != i:
                others |= other
        private = sorted(words - others, key=word_key)
        if not private:
            return None
        chosen.append(private[0])
    return chosen
