"""Directional derivative and Laplacian for free noncommutative polynomials.

The directional derivative of p in x_i along h replaces one occurrence of
x_i by h, summed over all occurrences and all words; it equals
d/dt p(..., x_i + t*h, ...) at t = 0.  The Laplacian composes two such
derivatives per variable and sums over variables; each resulting word
carries exactly two h letters.

The Laplacian is computed by direct double replacement: for every word and
every pair of distinct occurrences of the same variable, replace both
occurrences by h and add twice the word's coefficient, the factor 2 of the
second t-derivative, with no symbolic expansion.  Each contribution is
keyed by an integer code of its output word: a leading 1 byte, then one
byte per letter, so the code of a replacement is the word's code less the
two letters' shifted values (h is letter 0, and a letter below 256 fills
one byte).  Coefficients are summed by ncpoly._sum_terms, as integer
numerators over one common denominator, and each surviving code is decoded
to its word once.

Collapsing to commuting variables turns each word into its letter-count
exponent vector; under that collapse the free Laplacian becomes h^2 times
the classical Laplacian, which commutative_laplacian computes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .ncpoly import H_LETTER, Poly, _derived, _sum_terms

__all__ = [
    "directional_derivative",
    "laplacian",
    "CommPoly",
    "commutative_collapse",
    "commutative_laplacian",
]

# The most letters the Laplacian may expand to; it refuses larger output
# before expanding.  Expansion runs at about 100 ns a letter: Re gam^16
# (31,457,280 letters) takes 1.9 s, and (Re gam^8)^2 (15,728,640 letters,
# 524,288 words out) 1.6 s and 110 MB, so one at the cap takes seconds.
MAX_LAPLACIAN_LETTERS = 1 << 26


def _require_h_free(p: Poly, op: str) -> None:
    if p.contains_h:
        raise ValueError(f"{op} is defined only for polynomials without h")


def directional_derivative(p: Poly, i: int) -> Poly:
    """Derivative of p in x_i along h: replace one x_i per term by h.

    p must not contain h and i must lie in 1..p.g.  The result is linear
    in h and preserves homogeneous degree.
    """
    if not 1 <= i <= p.g:
        raise ValueError(f"variable index {i} out of range 1..{p.g}")
    _require_h_free(p, "directional_derivative")
    h = bytes([H_LETTER])
    return Poly._raw(p.g, _sum_terms(
        (w[:pos] + h + w[pos + 1 :], c)
        for w, c in p._terms.items()
        for pos, letter in enumerate(w)
        if letter == i
    ))


def _laplacian_letters(p: Poly) -> int:
    """The letters of Lap(p) before like terms combine: each word yields
    one word of its length per pair of equal letters."""
    return sum(
        len(w) * sum(k * (k - 1) // 2 for k in map(w.count, set(w)))
        for w in p._terms
    )


def _check_laplacian_letters(p: Poly) -> None:
    """Refuse p, with ValueError, when its Laplacian expands to more than
    MAX_LAPLACIAN_LETTERS letters."""
    # With n the longest length, a word yields at most C(n, 2) words of n
    # letters; past that bound, count, once per p.
    n = max(map(len, p._terms), default=0)
    if len(p._terms) * n * n * (n - 1) // 2 > MAX_LAPLACIAN_LETTERS:
        letters = _derived(p, _laplacian_letters)
        if letters > MAX_LAPLACIAN_LETTERS:
            raise ValueError(
                f"Laplacian expansion to {letters} letters exceeds "
                f"MAX_LAPLACIAN_LETTERS = {MAX_LAPLACIAN_LETTERS}"
            )


def _laplacian_terms(p: Poly) -> dict:
    """The terms of Lap(p), word -> coefficient, in their order.

    Each contribution is keyed by the integer code of its output word:
    int.from_bytes(b"\\x01" + w) less the shifted values of the two
    replaced letters, since h is letter 0.  The leading 1 keeps words of
    different lengths, and words that start with h, apart.  Contributions
    are summed by _sum_terms as integer numerators over the least common
    denominator L of the coefficients, and each distinct value builds its
    Fraction once.  A running sum is zero exactly when the Fraction sum
    would be, so the terms and their order are those of a Fraction sum.
    """
    _require_h_free(p, "laplacian")
    _check_laplacian_letters(p)
    L = math.lcm(*(c.denominator for c in p._terms.values()))

    def contributions():
        for w, c in p._terms.items():
            # The shifted value of each letter, grouped by letter in order
            # of first appearance; a letter is below 256, so it owns one byte.
            shifted: dict[int, list[int]] = {}
            shift = 8 * len(w)
            for letter in w:
                shift -= 8
                shifted.setdefault(letter, []).append(letter << shift)
            code = int.from_bytes(b"\x01" + w, "big")
            c2 = 2 * c.numerator * (L // c.denominator)
            for values in shifted.values():
                for va, vb in combinations(values, 2):
                    yield code - va - vb, c2

    out = _sum_terms(contributions())
    # One Fraction per distinct value: equal coefficients are one object,
    # which is_symmetric compares by identity first.
    shared = {v: Fraction(v, L) for v in set(out.values())}
    return {
        k.to_bytes((k.bit_length() + 7) >> 3, "big")[1:]: shared[v]
        for k, v in out.items()
    }


def laplacian(p: Poly) -> Poly:
    """Sum over variables of the twice-iterated directional derivative: the
    second t-derivative of p(..., x_i + t*h, ...) at 0 summed over i.  Every
    word of the result contains exactly two h letters."""
    return Poly._raw(p.g, _laplacian_terms(p))


class CommPoly:
    """Commutative polynomial keyed by exponent vectors (e_1..e_g, e_h)."""

    __slots__ = ("g", "_terms")

    def __init__(self, g: int, terms: Optional[dict] = None):
        self.g = g
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                exps = tuple(exps)
                if len(exps) != g + 1 or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps} for g={g}")
                if c:
                    clean[exps] = c
        self._terms = clean

    @classmethod
    def zero(cls, g: int) -> "CommPoly":
        return cls(g)

    @classmethod
    def _raw(cls, g: int, terms: dict) -> "CommPoly":
        """Internal constructor skipping validation; terms must be clean."""
        cp = cls.__new__(cls)
        cp.g = g
        cp._terms = terms
        return cp

    def terms(self):
        for exps in sorted(self._terms):
            yield exps, self._terms[exps]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommPoly):
            return NotImplemented
        return self.g == other.g and self._terms == other._terms

    def __hash__(self):
        return hash((self.g, frozenset(self._terms.items())))

    def times_h_power(self, k: int) -> "CommPoly":
        """Multiply by h^k by bumping the trailing exponent."""
        return CommPoly(
            self.g,
            {exps[:-1] + (exps[-1] + k,): c for exps, c in self._terms.items()},
        )

    def render(self) -> str:
        if not self._terms:
            return "0"
        names = [f"x{i}" for i in range(1, self.g + 1)] + ["h"]
        parts = []
        for exps, c in self.terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            ]
            body = "*".join(factors) if factors else None
            mag = abs(c)
            if body is None:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            parts.append(("-" if c < 0 else "+", chunk))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, chunk in parts[1:]:
            text += f" {sign} {chunk}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"CommPoly(g={self.g}, {self.render()!r})"

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"coeff": f"{c.numerator}/{c.denominator}", "exponents": list(exps)}
                for exps, c in self.terms()
            ]
        }


def commutative_collapse(p: Poly) -> CommPoly:
    """Send each word to its exponent vector; coinciding vectors merge."""
    return CommPoly._raw(p.g, _sum_terms(
        (tuple(w.count(i) for i in range(1, p.g + 1)) + (w.count(H_LETTER),), c)
        for w, c in p._terms.items()
    ))


def commutative_laplacian(cp: CommPoly) -> CommPoly:
    """Classical Laplacian: sum of second partials in the g x-variables.

    The input must not involve h (trailing exponent zero everywhere).
    """
    if any(exps[-1] for exps in cp._terms):
        raise ValueError("commutative_laplacian input must be h-free")
    return CommPoly._raw(cp.g, _sum_terms(
        (exps[:i] + (e - 2,) + exps[i + 1 :], c * e * (e - 1))
        for exps, c in cp._terms.items()
        for i, e in enumerate(exps[:-1])
        if e >= 2
    ))
