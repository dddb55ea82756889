"""Exact arithmetic for polynomials in free noncommuting symmetric variables.

A polynomial lives in the free algebra on g symmetric variables x1..xg plus
one extra symbol h (the "direction" letter used by the calculus module).
Monomials are words over that alphabet and coefficients are exact rationals,
so every algebraic identity in this package is checked exactly; floating
point enters only when a polynomial is evaluated at a tuple of matrices.

Representation choices:

  * a letter is a small integer: 0 encodes h, i in 1..g encodes x_i
  * a word is a ``bytes`` object of letters (fast to hash, slice, reverse)
  * a Poly maps words to ``fractions.Fraction`` coefficients, zero terms
    are never stored, and the empty word is the multiplicative identity

The canonical word order is graded lexicographic with x1 < x2 < ... < xg < h,
ties in degree broken letter by letter from the left.  Text rendering lists
terms leading term first (descending canonical order); JSON serialization and
border/word enumerations use ascending canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "H_LETTER",
    "Word",
    "EMPTY_WORD",
    "word",
    "word_key",
    "transpose_word",
    "render_word",
    "Poly",
    "ParseError",
    "parse",
    "DegreeProfile",
    "degree_profile",
    "MatrixPoint",
    "symmetrize",
    "EvalPlan",
    "evaluate",
]

# Letter code for the direction symbol h.  Variables x_i use code i (1-based).
H_LETTER = 0

Word = bytes
EMPTY_WORD: Word = b""

ScalarLike = Union[int, Fraction]

# h sorts after every variable: remap letter 0 to 255 before comparing.
_ORDER_TABLE = bytes([255] + list(range(1, 256)))

# x255 would share h's sort key, so the word order is total only below it.
MAX_VARS = 254

# The most letters (terms times longest word) that one product or power in
# parsed text may expand to; the parser refuses larger input before
# expanding it.  A product of k two-term factors reaches it at k = 13.
MAX_PARSE_LETTERS = 1 << 16

# The most '(' and 'T(' levels parsed text may nest: each level takes three
# frames of the recursive descent, well inside Python's recursion limit.
MAX_PARSE_DEPTH = 100


def check_num_vars(g: int) -> None:
    """Reject a variable count outside 0..MAX_VARS."""
    if g < 0:
        raise ValueError("num_vars must be nonnegative")
    if g > MAX_VARS:
        raise ValueError(f"num_vars must be at most {MAX_VARS}, got {g}")


def word(*letters: int) -> Word:
    """Build a word from letter codes (0 for h, i for x_i)."""
    return bytes(letters)


def word_key(w: Word):
    """Sort key realizing the canonical order: degree first, then letters."""
    return (len(w), w.translate(_ORDER_TABLE))


def transpose_word(w: Word) -> Word:
    return w[::-1]


def render_word(w: Word) -> str:
    """Render a word as '*'-joined letters with exponents for repeated runs."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        name = "h" if w[i] == H_LETTER else f"x{w[i]}"
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return "*".join(parts)


def _validate_word(w: Word, g: int) -> None:
    for letter in w:
        if letter > g:
            raise ValueError(
                f"letter x{letter} in word {render_word(w)} exceeds num_vars={g}"
            )


class Poly:
    """A polynomial over the free algebra: finite map from words to rationals.

    Instances are immutable by convention; every operation returns a fresh
    Poly and never mutates its operands, so values can be shared freely.
    """

    __slots__ = ("g", "_terms")

    def __init__(self, g: int, terms: Optional[dict] = None):
        check_num_vars(g)
        self.g = g
        clean: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    w = bytes(w)
                    _validate_word(w, g)
                    clean[w] = c
        self._terms = clean

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, g: int) -> "Poly":
        return cls(g)

    @classmethod
    def constant(cls, g: int, c: ScalarLike) -> "Poly":
        return cls(g, {EMPTY_WORD: Fraction(c)})

    @classmethod
    def variable(cls, g: int, i: int) -> "Poly":
        if not 1 <= i <= g:
            raise ValueError(f"variable index {i} out of range 1..{g}")
        return cls(g, {bytes([i]): Fraction(1)})

    @classmethod
    def direction(cls, g: int) -> "Poly":
        """The polynomial h."""
        return cls(g, {bytes([H_LETTER]): Fraction(1)})

    @classmethod
    def monomial(cls, g: int, w: Word, c: ScalarLike = 1) -> "Poly":
        return cls(g, {bytes(w): Fraction(c)})

    # ----- inspection ---------------------------------------------------

    def coefficient(self, w: Word) -> Fraction:
        return self._terms.get(bytes(w), Fraction(0))

    def terms(self) -> Iterator[tuple[Word, Fraction]]:
        """Iterate (word, coefficient) pairs in ascending canonical order."""
        for w in sorted(self._terms, key=word_key):
            yield w, self._terms[w]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def contains_h(self) -> bool:
        return any(H_LETTER in w for w in self._terms)

    def total_degree(self) -> int:
        """Maximum word length, 0 for the zero polynomial."""
        return max((len(w) for w in self._terms), default=0)

    def homogeneous_degree(self) -> Optional[int]:
        """The common word length, or None if mixed.  Zero counts as any
        degree and reports 0."""
        lengths = {len(w) for w in self._terms}
        if not lengths:
            return 0
        if len(lengths) == 1:
            return lengths.pop()
        return None

    def is_homogeneous(self, d: Optional[int] = None) -> bool:
        if not self._terms:
            return True
        hd = self.homogeneous_degree()
        if hd is None:
            return False
        return d is None or hd == d

    def is_symmetric(self) -> bool:
        """True iff p equals its transpose, exactly."""
        # Coefficients are normalised, so equal ones have equal numerators
        # and denominators; comparing those skips Fraction.__eq__.
        for w, c in self._terms.items():
            d = self._terms.get(w[::-1])
            if d is not c and (d is None or d.numerator != c.numerator
                               or d.denominator != c.denominator):
                return False
        return True

    # ----- algebra ------------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.g != other.g:
            raise ValueError(f"num_vars mismatch: {self.g} vs {other.g}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.g, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return self._raw(self.g, out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.g, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.g, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: ScalarLike) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero(self.g)
        return self._raw(self.g, {w: c * v for w, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        out: dict[Word, Fraction] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    del out[w]
        return self._raw(self.g, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = Poly.constant(self.g, 1)
        for _ in range(n):
            result = result * self
        return result

    def transpose(self) -> "Poly":
        """Reverse every word; an involutive anti-automorphism."""
        return self._raw(self.g, {w[::-1]: c for w, c in self._terms.items()})

    @property
    def T(self) -> "Poly":
        return self.transpose()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.g, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.g == other.g and self._terms == other._terms

    def __hash__(self):
        return hash((self.g, frozenset(self._terms.items())))

    @classmethod
    def _raw(cls, g: int, terms: dict) -> "Poly":
        """Internal constructor skipping validation; terms must be clean."""
        p = cls.__new__(cls)
        p.g = g
        p._terms = terms
        return p

    # ----- rendering / serialization -------------------------------------

    def render(self) -> str:
        """Canonical text form, leading (largest) term first."""
        if not self._terms:
            return "0"
        parts = []
        for w in sorted(self._terms, key=word_key, reverse=True):
            c = self._terms[w]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if not w:
                body = _render_fraction(mag)
            elif mag == 1:
                body = render_word(w)
            else:
                body = f"{_render_fraction(mag)}*{render_word(w)}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly(g={self.g}, {self.render()!r})"

    def to_json_obj(self) -> dict:
        """The canonical JSON form: h encoded as 0, x_i as i, terms sorted."""
        return {
            "g": self.g,
            "terms": [
                {"coeff": f"{c.numerator}/{c.denominator}", "word": list(w)}
                for w, c in self.terms()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Poly":
        g = int(obj["g"])
        terms: dict[Word, Fraction] = {}
        for entry in obj["terms"]:
            num, den = entry["coeff"].split("/")
            w = bytes(entry["word"])
            terms[w] = terms.get(w, Fraction(0)) + Fraction(int(num), int(den))
        return cls(g, terms)


def _render_fraction(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or validation error in polynomial text, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Parser:
    """Recursive descent parser for the polynomial grammar:

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := coeff ('*' factor)* | factor ('*' factor)*
        factor := var ('^' nat)? | '(' expr ')' | 'T(' expr ')'
        var    := 'x' nat | 'h'
        coeff  := nat ('/' nat)?

    A leading sign on the first term is accepted so canonical renderings
    round trip.  The '*' between factors is mandatory ("x12" is x twelve).
    """

    def __init__(self, text: str, g: int):
        self.text = text
        self.g = g
        self.pos = 0
        self.depth = 0

    def parse(self) -> Poly:
        p = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return p

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _nat(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start : self.pos])

    def _expr(self) -> Poly:
        sign = 1
        ch = self._peek()
        if ch in "+-":
            self.pos += 1
            sign = -1 if ch == "-" else 1
        p = self._term().scale(sign)
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                p = p + self._term()
            elif ch == "-":
                self.pos += 1
                p = p - self._term()
            else:
                return p

    def _term(self) -> Poly:
        ch = self._peek()
        if ch.isdigit():
            num = self._nat()
            if self._peek() == "/":
                self.pos += 1
                den_pos = self.pos
                den = self._nat()
                if den == 0:
                    raise ParseError("zero denominator", den_pos)
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            p = Poly.constant(self.g, coeff)
        else:
            p = self._factor()
        while self._peek() == "*":
            self.pos += 1
            start = self.pos
            f = self._factor()
            self._check_expansion(
                len(p) * len(f) * (p.total_degree() + f.total_degree()), start
            )
            p = p * f
        return p

    def _check_expansion(self, letters: int, position: int) -> None:
        if letters > MAX_PARSE_LETTERS:
            raise ParseError(
                f"expansion to {letters} letters exceeds "
                f"MAX_PARSE_LETTERS = {MAX_PARSE_LETTERS}",
                position,
            )

    def _factor(self) -> Poly:
        ch = self._peek()
        transpose = self.text.startswith("T(", self.pos)
        if ch == "(" or transpose:
            if self.depth == MAX_PARSE_DEPTH:
                raise ParseError(
                    f"nesting exceeds MAX_PARSE_DEPTH = {MAX_PARSE_DEPTH}", self.pos
                )
            self.depth += 1
            self.pos += 2 if transpose else 1
            p = self._expr()
            self._expect(")")
            self.depth -= 1
            return p.transpose() if transpose else p
        if ch == "h":
            self.pos += 1
            letter = H_LETTER
        elif ch == "x":
            var_pos = self.pos
            self.pos += 1
            idx = self._nat()
            if not 1 <= idx <= self.g:
                raise ParseError(
                    f"variable index x{idx} out of range 1..{self.g}", var_pos
                )
            letter = idx
        else:
            raise ParseError("expected a variable, 'h', '(' or 'T('", self.pos)
        power = 1
        if self._peek() == "^":
            self.pos += 1
            start = self.pos
            power = self._nat()
            self._check_expansion(power, start)
        return Poly.monomial(self.g, bytes([letter]) * power)


def parse(text: str, num_vars: int) -> Poly:
    """Parse polynomial text over x1..x{num_vars} and h.

    Raises ParseError (with character position) on malformed input or a
    variable index exceeding num_vars.
    """
    check_num_vars(num_vars)
    return _Parser(text, num_vars).parse()


# ---------------------------------------------------------------------------
# Degree profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeProfile:
    total_degree: int
    h_degree_per_word: dict
    homogeneous_degree: Optional[int]
    symmetric: bool


def degree_profile(p: Poly) -> DegreeProfile:
    """Report p's total degree, the number of h letters in each word (in
    ascending canonical order), its common degree (None if mixed) and
    whether it equals its transpose."""
    h_counts = {w: w.count(H_LETTER) for w, _ in p.terms()}
    return DegreeProfile(
        total_degree=p.total_degree(),
        h_degree_per_word=h_counts,
        homogeneous_degree=p.homogeneous_degree(),
        symmetric=p.is_symmetric(),
    )


# ---------------------------------------------------------------------------
# Matrix evaluation
# ---------------------------------------------------------------------------


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle into the lower one."""
    import numpy as np

    M = np.asarray(M, dtype=float)
    return np.triu(M) + np.triu(M, 1).T


@dataclass(frozen=True)
class MatrixPoint:
    """A tuple of real symmetric matrices for x1..xg, optionally one for h."""

    X: tuple
    H: Optional[np.ndarray] = None

    def __post_init__(self):
        import numpy as np

        X = tuple(np.asarray(M, dtype=float) for M in self.X)
        object.__setattr__(self, "X", X)
        if not X:
            raise ValueError("at least one matrix is required")
        n = X[0].shape[0]
        mats = list(X) + ([self.H] if self.H is not None else [])
        for M in mats:
            M = np.asarray(M, dtype=float)
            if M.shape != (n, n):
                raise ValueError("all matrices must share one square shape")
            if not np.isfinite(M).all():
                raise ValueError("matrix entries must be finite numbers")
            if not (M == M.T).all():
                raise ValueError("matrices must be exactly symmetric; "
                                 "use symmetrize() when building them")
        if self.H is not None:
            object.__setattr__(self, "H", np.asarray(self.H, dtype=float))

    @property
    def n(self) -> int:
        return self.X[0].shape[0]


def _float_coefficient(c: Fraction) -> float:
    try:
        return c.numerator / c.denominator  # float(c), without its dispatch
    except OverflowError:
        raise ValueError(
            f"coefficient {_render_fraction(c)} is outside the double range"
        ) from None


# Bytes of node products and term tables that one EvalPlan.run holds at
# once, besides its inputs and its result.
_RUN_BYTES = 8 << 20


class EvalPlan:
    """One compiled float evaluation of one or more groups of terms.

    The words of every group share one prefix trie whose nodes are numbered
    by depth.  Node 0 is the root and stands for the identity; node k
    stands for product[parent[k]] @ M[letter[k]], so a prefix common to
    many words is multiplied once, and each depth is one stacked matmul.
    A group's value is acc = acc + c * product[node] summed in the group's
    term order from acc = +0.0, as one sequential np.add.accumulate over a
    table padded with 0.0 * identity (a sum started at +0.0 is never -0.0,
    so adding +0.0 leaves it alone).  This equals, byte for byte,
    multiplying out each word from the identity, letter by letter.  Groups
    share a table with groups of similar length, so padding at most
    doubles it.

    A run holds at most _RUN_BYTES of products and tables: it evaluates a
    stack in slices along its sample axis, and when one sample of the whole
    plan does not fit, it splits the terms, in order, into chunks whose
    nodes fit, carrying each group's running sum from chunk to chunk.
    """

    __slots__ = ("letters", "_starts", "_parent", "_slot", "_first", "_node",
                 "_coef", "_whole")

    def __init__(self, groups: Sequence[dict]):
        import numpy as np

        first = [0]
        for terms in groups:
            first.append(first[-1] + len(terms))
        # kids[d] numbers the nodes of depth d + 1 in order of appearance,
        # keyed by parent << 8 | letter, the parent numbered within depth d.
        # A repeated word adds no node, so each distinct word is walked
        # once, in order of first appearance.
        node_of = dict.fromkeys(chain.from_iterable(groups))
        kids: list[dict] = [{} for _ in range(max(map(len, node_of), default=0))]
        for w in node_of:
            node = 0
            for level, x in zip(kids, w):
                node = level.setdefault(node << 8 | x, len(level))
            node_of[w] = node
        # Nodes of depth d are numbered from starts[d]; node 0 is the root.
        starts = [0, 1]
        for level in kids:
            starts.append(starts[-1] + len(level))
        for w, k in node_of.items():
            node_of[w] = starts[len(w)] + k
        self.letters = tuple(sorted({key & 255 for level in kids for key in level}))
        slot = {x: i for i, x in enumerate(self.letters)}
        self._starts = starts
        self._parent = np.array([0] + [(key >> 8) + s for level, s in zip(kids, starts)
                                       for key in level], dtype=np.intp)
        self._slot = np.array([0] + [slot[key & 255] for level in kids for key in level],
                              dtype=np.intp)
        self._first = first
        self._node = [node_of[w] for terms in groups for w in terms]
        # Each coefficient object is converted once: terms often share one.
        floats = {id(c): c for terms in groups for c in terms.values()}
        for k, c in floats.items():
            floats[k] = _float_coefficient(c)
        self._coef = [floats[id(c)] for terms in groups for c in terms.values()]
        levels = [(a, b, self._parent[a:b], self._slot[a:b])
                  for a, b in zip(starts[1:-1], starts[2:])]
        self._whole = _Chunk(starts[-1], len(self.letters), levels,
                             self._tables(0, len(self._coef), self._node))

    @classmethod
    def of(cls, p: Poly) -> "EvalPlan":
        """The plan of one polynomial: a single group."""
        return cls([p._terms])

    def _tables(self, lo: int, hi: int, nodes: list) -> list:
        """Padded (groups, nodes, coefficients) tables of the terms
        lo..hi-1, whose nodes are given.  Band k holds the groups with
        2^(k-1) < terms <= 2^k."""
        import numpy as np

        first, coef = self._first, self._coef
        bands: dict[int, list] = {}
        for gi in range(len(first) - 1):
            a, b = max(first[gi], lo), min(first[gi + 1], hi)
            if a < b:
                bands.setdefault((b - a - 1).bit_length(), []).append((gi, a, b))
        tables = []
        for band in bands.values():
            width = max(b - a for _, a, b in band)
            ks = [nodes[a - lo : b - lo] + [0] * (width - b + a) for _, a, b in band]
            cs = [coef[a:b] + [0.0] * (width - b + a) for _, a, b in band]
            tables.append((np.array([gi for gi, _, _ in band], dtype=np.intp),
                           np.array(ks, dtype=np.intp),
                           np.array(cs)[:, :, None, None, None]))
        return tables

    def _chunk(self, lo: int, hi: int) -> "_Chunk":
        """The terms lo..hi-1 with the nodes their words pass through,
        renumbered in depth order."""
        import numpy as np

        starts, parent = self._starts, self._parent
        member = np.zeros(starts[-1], dtype=bool)
        member[0] = True
        member[self._node[lo:hi]] = True
        bounds = list(zip(starts[1:-1], starts[2:]))
        for a, b in reversed(bounds):
            member[parent[a:b][member[a:b]]] = True
        local = np.cumsum(member) - 1
        levels = []
        for a, b in bounds:
            sel = a + np.flatnonzero(member[a:b])
            if len(sel):
                k = int(local[sel[0]])
                levels.append((k, k + len(sel), local[parent[sel]], self._slot[sel]))
        nodes = local[self._node[lo:hi]].tolist()
        return _Chunk(int(local[-1]) + 1, len(self.letters), levels,
                      self._tables(lo, hi, nodes))

    def _split(self, lo: int, hi: int, room: int) -> list:
        """Chunks of the consecutive terms lo..hi-1, each costing at most
        room matrices per sample unless it is a single term."""
        chunk = self._chunk(lo, hi)
        if chunk.cost <= room or hi - lo == 1:
            return [chunk]
        mid = (lo + hi) // 2
        return self._split(lo, mid, room) + self._split(mid, hi, room)

    def run(self, mats: Sequence[Optional[np.ndarray]]) -> np.ndarray:
        """Evaluate every group, mats[0] standing for h and mats[i] for x_i.

        Each matrix is n x n or a stack of S of them, of shape (S, n, n);
        one n x n matrix stands for every sample of a stack.  Returns an
        array of shape (groups, S, n, n), or (groups, n, n) when no matrix
        is a stack.
        """
        import numpy as np

        if self.letters and self.letters[-1] >= len(mats):
            raise ValueError(f"point supplies {len(mats) - 1} matrices, poly uses more")
        if H_LETTER in self.letters and mats[H_LETTER] is None:
            raise ValueError("polynomial contains h but the point has no H matrix")
        shapes = {M.shape for M in mats if M is not None}
        shape = max(shapes, key=len)
        n = shape[-1]
        if len(shape) > 3 or shape[-2:] != (n, n) or not shapes <= {shape, shape[-2:]}:
            raise ValueError(f"matrices of shapes {sorted(shapes)} do not stack")
        count = shape[0] if len(shape) == 3 else 1
        acc = np.zeros((len(self._first) - 1, count, n, n))
        room = _RUN_BYTES // (8 * max(1, n * n))
        if self._whole.cost <= room:
            step, chunks = max(1, room // self._whole.cost), [self._whole]
        else:
            step, chunks = 1, self._split(0, len(self._coef), room)
        for s in range(0, count, step):
            part = acc[:, s : s + step]
            L = np.empty((len(self.letters),) + part.shape[1:])
            for i, x in enumerate(self.letters):
                M = mats[x]
                L[i] = M if M.ndim == 2 else M[s : s + step]
            for chunk in chunks:
                chunk.run(L, part)
        return acc if len(shape) == 3 else acc[:, 0]


class _Chunk:
    """Consecutive terms of a plan, ready to run: the levels of its nodes
    (first and end node, parent nodes and letter slots) and its padded
    term tables (groups, nodes, coefficients)."""

    __slots__ = ("cost", "_size", "_levels", "_tables")

    def __init__(self, size: int, letters: int, levels: list, tables: list):
        self._size = size
        self._levels = levels
        self._tables = tables
        # Matrices per sample held at once: the products and letters, then
        # either a level's gathered operands or a term table with its
        # gathered products and accumulate buffer.
        widest = max((hi - lo for lo, hi, _, _ in levels), default=0)
        self.cost = size + letters + max(
            [2 * widest] + [3 * ks.shape[0] * (1 + ks.shape[1]) for _, ks, _ in tables])

    def run(self, L: np.ndarray, acc: np.ndarray) -> None:
        """Add this chunk's terms at the letter stack L (letters, S, n, n)
        to the running sums acc (groups, S, n, n), in place."""
        import numpy as np

        P = np.empty((self._size,) + L.shape[1:])
        P[0] = np.eye(L.shape[-1])
        for lo, hi, parents, letters in self._levels:
            np.matmul(P[parents], L[letters], out=P[lo:hi])
        for groups, ks, cs in self._tables:
            T = np.empty((len(groups), 1 + ks.shape[1]) + L.shape[1:])
            T[:, 0] = acc[groups]
            np.multiply(cs, P[ks], out=T[:, 1:])
            np.add.accumulate(T, axis=1, out=T)
            acc[groups] = T[:, -1]


def evaluate(p: Poly, pt: MatrixPoint) -> np.ndarray:
    """Evaluate p at the point, the constant term contributing p(0)*I.

    Every matrix in pt must be n x n; the result is the n x n real matrix
    obtained by substituting pt.X[i-1] for x_i and pt.H for h.
    """
    return EvalPlan.of(p).run([pt.H, *pt.X])[0]
