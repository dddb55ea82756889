"""Shared generators and independent oracles for the test suite.

The oracles deliberately re-derive results through a different mechanism
than the library (subset expansion instead of pair replacement, dense
textbook elimination instead of sparse echelon tracking) so the two can
check each other.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from ncharm import H_LETTER, MatrixPoint, Poly


def random_word(rnd: random.Random, g: int, length: int) -> bytes:
    return bytes(rnd.randint(1, g) for _ in range(length))


def random_poly(
    rnd: random.Random,
    g: int,
    max_degree: int,
    max_terms: int = 5,
    with_h: bool = False,
) -> Poly:
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        length = rnd.randint(0, max_degree)
        letters = [rnd.randint(1, g) for _ in range(length)]
        if with_h and length:
            for k in range(length):
                if rnd.random() < 0.25:
                    letters[k] = 0
        coeff = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
        w = bytes(letters)
        terms[w] = terms.get(w, Fraction(0)) + coeff
    return Poly(g, terms)


def random_homogeneous(
    rnd: random.Random, g: int, degree: int, max_terms: int = 6
) -> Poly:
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        w = random_word(rnd, g, degree)
        terms[w] = terms.get(w, Fraction(0)) + Fraction(
            rnd.randint(-6, 6), rnd.randint(1, 4)
        )
    return Poly(g, terms)


def random_symmetric_homogeneous(
    rnd: random.Random, g: int, degree: int, max_terms: int = 6
) -> Poly:
    p = random_homogeneous(rnd, g, degree, max_terms)
    return p + p.transpose()


def random_two_h_symmetric(rnd: random.Random, g: int, max_x_degree: int = 4) -> Poly:
    """A symmetric polynomial whose every word has exactly two h letters."""
    terms = {}
    for _ in range(rnd.randint(1, 6)):
        xlen = rnd.randint(0, max_x_degree)
        letters = [rnd.randint(1, g) for _ in range(xlen)]
        pa = rnd.randint(0, xlen)
        pb = rnd.randint(pa, xlen)
        w = bytes(letters[:pa] + [0] + letters[pa:pb] + [0] + letters[pb:])
        terms[w] = terms.get(w, Fraction(0)) + Fraction(
            rnd.randint(-5, 5), rnd.randint(1, 3)
        )
    p = Poly(g, terms)
    return p + p.transpose()


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def mul_oracle(p: Poly, q: Poly) -> Poly:
    """Word-concatenation product computed independently of Poly.__mul__."""
    acc: dict[bytes, Fraction] = {}
    for w1, c1 in list(p.terms()):
        for w2, c2 in list(q.terms()):
            w = bytes(list(w1) + list(w2))
            acc[w] = acc.get(w, Fraction(0)) + c1 * c2
    return Poly(p.g, acc)


def laplacian_oracle(p: Poly) -> Poly:
    """Second t-derivative route: for each variable, substitute x_i + t*h,
    expand over subsets of replaced occurrences, and keep twice the t^2
    coefficient."""
    acc: dict[bytes, Fraction] = {}
    for w, c in p.terms():
        for i in range(1, p.g + 1):
            spots = [k for k, letter in enumerate(w) if letter == i]
            for pair in combinations(spots, 2):
                repl = bytearray(w)
                repl[pair[0]] = 0
                repl[pair[1]] = 0
                key = bytes(repl)
                acc[key] = acc.get(key, Fraction(0)) + 2 * c
    return Poly(p.g, acc)


def laplacian_fraction_reference(p: Poly) -> Poly:
    """The Laplacian accumulated one Fraction add per pair of positions.

    This is the library's former loop, kept because its dict order is the
    term order that laplacian() must reproduce: a sum that reaches zero is
    deleted and, if a later pair adds to it again, reinserted at the end.
    """
    out: dict[bytes, Fraction] = {}
    h = bytes([H_LETTER])
    for w, c in p._terms.items():
        positions: dict[int, list[int]] = {}
        for pos, letter in enumerate(w):
            positions.setdefault(letter, []).append(pos)
        for occ in positions.values():
            for a, b in combinations(occ, 2):
                new = w[:a] + h + w[a + 1 : b] + h + w[b + 1 :]
                s = out.get(new, 0) + 2 * c
                if s:
                    out[new] = s
                else:
                    del out[new]
    return Poly._raw(p.g, out)


def evaluate_oracle(p: Poly, pt: MatrixPoint) -> np.ndarray:
    """Word-by-word evaluation: each word multiplied out from the identity,
    letter by letter, and summed in term order.  The compiled plan must
    equal it byte for byte."""
    n = pt.n
    acc = np.zeros((n, n))
    eye = np.eye(n)
    for w, c in p._terms.items():
        M = eye
        for letter in w:
            M = M @ (pt.H if letter == H_LETTER else pt.X[letter - 1])
        acc = acc + float(c) * M
    return acc


def rank_oracle(rows) -> int:
    """Textbook dense Gaussian elimination rank over Fractions."""
    rows = [[Fraction(v) for v in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][c]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def nullity_oracle(rows, ncols: int) -> int:
    dense = [list(r) for r in rows]
    if not dense:
        return ncols
    return ncols - rank_oracle(dense)


def poly_matrix(polys, words=None):
    """Stack coefficient vectors of polynomials over a shared word list."""
    if words is None:
        words = sorted({w for p in polys for w, _ in p.terms()})
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for p in polys:
        vec = [Fraction(0)] * len(words)
        for w, c in p.terms():
            vec[index[w]] = c
        rows.append(vec)
    return rows, words


def spans_equal(polys_a, polys_b) -> bool:
    """Exact span equality via three rank computations."""
    words = sorted(
        {w for p in list(polys_a) + list(polys_b) for w, _ in p.terms()}
    )
    rows_a, _ = poly_matrix(polys_a, words)
    rows_b, _ = poly_matrix(polys_b, words)
    ra = rank_oracle(rows_a)
    rb = rank_oracle(rows_b)
    rab = rank_oracle(rows_a + rows_b)
    return ra == rb == rab
