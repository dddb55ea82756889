"""Directional derivative and Laplacian for free noncommutative polynomials.

The directional derivative of p in x_i along h replaces one occurrence of
x_i by h, summed over all occurrences and all words; it equals
d/dt p(..., x_i + t*h, ...) at t = 0.  The Laplacian composes two such
derivatives per variable and sums over variables; each resulting word
carries exactly two h letters.

The Laplacian is computed by direct double replacement: for every word and
every ordered pair of distinct occurrences of the same variable, replace
both occurrences by h.  Summing ordered pairs yields the factor 2 of the
second t-derivative automatically, with no symbolic expansion.

Collapsing to commuting variables turns each word into its letter-count
exponent vector; under that collapse the free Laplacian becomes h^2 times
the classical Laplacian, which commutative_laplacian computes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .ncpoly import H_LETTER, Poly, Word

__all__ = [
    "directional_derivative",
    "laplacian",
    "CommPoly",
    "commutative_collapse",
    "commutative_laplacian",
]


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
    out: dict[Word, Fraction] = {}
    h = bytes([H_LETTER])
    for w, c in p._terms.items():
        start = 0
        while True:
            pos = w.find(i, start)
            if pos < 0:
                break
            new = w[:pos] + h + w[pos + 1 :]
            s = out.get(new, 0) + c
            if s:
                out[new] = s
            else:
                del out[new]
            start = pos + 1
    return Poly._raw(p.g, out)


def laplacian(p: Poly) -> Poly:
    """Sum over variables of the twice-iterated directional derivative.

    Every word of the result contains exactly two h letters.  Equals the
    sum over i of the second t-derivative of p(..., x_i + t*h, ...) at 0.

    Contributions are summed as integer numerators over the least common
    denominator L of the coefficients, and each output word builds its
    Fraction once.  A running sum is zero exactly when the Fraction sum
    would be, so terms are deleted and reinserted, and the result ordered,
    as a Fraction accumulation would leave them.
    """
    _require_h_free(p, "laplacian")
    L = math.lcm(*(c.denominator for c in p._terms.values()))
    out: dict[Word, int] = {}
    h = bytes([H_LETTER])
    for w, c in p._terms.items():
        positions: dict[int, list[int]] = {}
        for pos, letter in enumerate(w):
            positions.setdefault(letter, []).append(pos)
        c2 = 2 * c.numerator * (L // c.denominator)
        for occ in positions.values():
            if len(occ) < 2:
                continue
            for a in range(len(occ)):
                pa = occ[a]
                head = w[:pa] + h
                for b in range(a + 1, len(occ)):
                    pb = occ[b]
                    new = head + w[pa + 1 : pb] + h + w[pb + 1 :]
                    s = out.get(new, 0) + c2
                    if s:
                        out[new] = s
                    else:
                        del out[new]
    return Poly._raw(p.g, {w: Fraction(v, L) for w, v in out.items()})


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
    out: dict[tuple, Fraction] = {}
    for w, c in p._terms.items():
        exps = tuple(w.count(i) for i in range(1, p.g + 1)) + (w.count(H_LETTER),)
        s = out.get(exps, 0) + c
        if s:
            out[exps] = s
        else:
            del out[exps]
    cp = CommPoly.__new__(CommPoly)
    cp.g = p.g
    cp._terms = out
    return cp


def commutative_laplacian(cp: CommPoly) -> CommPoly:
    """Classical Laplacian: sum of second partials in the g x-variables.

    The input must not involve h (trailing exponent zero everywhere).
    """
    out: dict[tuple, Fraction] = {}
    for exps, c in cp._terms.items():
        if exps[-1] != 0:
            raise ValueError("commutative_laplacian input must be h-free")
        for i in range(cp.g):
            e = exps[i]
            if e < 2:
                continue
            new = exps[:i] + (e - 2,) + exps[i + 1 :]
            s = out.get(new, 0) + c * e * (e - 1)
            if s:
                out[new] = s
            else:
                del out[new]
    result = CommPoly.__new__(CommPoly)
    result.g = cp.g
    result._terms = out
    return result
