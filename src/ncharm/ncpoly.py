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

from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from ._record import record

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


def _sum_terms(pairs, out: Optional[dict] = None) -> dict:
    """Sum (key, value) pairs, values nonzero, into out (a new dict by
    default) in order, and return it.

    A sum of zero deletes its key, so a later pair puts that key back at
    the end.  Every exact accumulation into a dict sums here, so this one
    rule sets the order of every accumulated term dict, and with it the
    order in which a float evaluation adds the terms.  A middle matrix's
    cells are not accumulated: extract lists them in canonical order.
    """
    if out is None:
        out = {}
    get = out.get
    for k, v in pairs:
        s = get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


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
    Data computed from the terms alone is kept on the Poly on first use, by
    _derived: is_symmetric, the EvalPlan, and, once the point check
    (positivity.subharmonic_at_point) has run on p, Lap(p).
    """

    __slots__ = ("g", "_terms", "_memo")

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
        self._memo = None

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
        return _derived(self, _symmetric)

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
        return self._raw(self.g, _sum_terms(other._terms.items(), dict(self._terms)))

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
        return self._raw(self.g, _sum_terms(
            (w1 + w2, c1 * c2)
            for w1, c1 in self._terms.items()
            for w2, c2 in other._terms.items()
        ))

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
        p._memo = None
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


def _symmetric(p: Poly) -> bool:
    # Coefficients are normalised, so equal ones have equal numerators and
    # denominators; comparing those skips Fraction.__eq__.
    for w, c in p._terms.items():
        d = p._terms.get(w[::-1])
        if d is not c and (d is None or d.numerator != c.numerator
                           or d.denominator != c.denominator):
            return False
    return True


def _derived(p: Poly, make):
    """make(p), computed on first use and kept on p.  make reads p's terms
    alone, which never change, so the value holds as long as p lives."""
    memo = p._memo
    if memo is None:
        memo = p._memo = {}
    if make not in memo:
        memo[make] = make(p)
    return memo[make]


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


@record
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


@record
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


def _float_coefficients(coefs: list) -> np.ndarray:
    """The coefficients as floats, in order.  Terms often share one
    coefficient object, so each distinct object is converted once, and the
    first one out of the double range is the one named."""
    import numpy as np

    floats = {id(c): c for c in coefs}
    for k, c in floats.items():
        floats[k] = _float_coefficient(c)
    return np.array([floats[id(c)] for c in coefs], dtype=float)


# Bytes of products and sum tables that one evaluation (EvalPlan.run or a
# middle-matrix block) holds at once, besides its inputs and its result.
_RUN_BYTES = 8 << 20


def _word_rows(words: list, slots: Optional[bytes]) -> np.ndarray:
    """The words as right-aligned rows of letter slots, at least one column
    wide: slots[x] is the slot of letter x (None: the letter itself), and a
    shorter word is led by slot 0, which stands for the identity."""
    import numpy as np

    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    depth = max(1, int(lengths.max(initial=0)))
    rows = np.zeros((len(words), depth), dtype=np.intp)
    rows[np.arange(depth) >= depth - lengths[:, None]] = np.frombuffer(
        b"".join(words).translate(slots), dtype=np.uint8)
    return rows


def _compile(rows: np.ndarray) -> tuple:
    """The prefix levels of right-aligned rows of letter slots: per column,
    the distinct prefixes that end there, each as the node of its prefix in
    the column before and its slot; and each row's node in the last column.
    Node 0 is the identity and the prefixes of column c are numbered after
    those of column c - 1, so a prefix that many rows share is one node."""
    import numpy as np

    order = np.lexsort(rows.T[::-1])
    C = rows.T.take(order, 1)
    # Sorted row r starts a new prefix at column c when it differs from
    # row r - 1 at a column up to c.
    first = np.ones(C.shape, dtype=bool)
    np.logical_or.accumulate(C[:, 1:] != C[:, :-1], axis=0, out=first[:, 1:])
    ends = first.sum(axis=1).cumsum()
    node = first.cumsum(axis=1)
    node[1:] += ends[:-1, None]
    prev = np.zeros_like(node)
    prev[1:] = node[:-1]
    parent, slot = prev[first], C[first]
    index = np.empty(len(order), dtype=np.intp)
    index[order] = node[-1]
    ends = ends.tolist()
    return [(parent[a:b], slot[a:b]) for a, b in zip([0] + ends, ends)], index


def _cost(levels: list, rows: int) -> int:
    """Matrices per sample that _products and a sum table of the rows hold
    at once: every node with the gathered operands of the widest level, or
    every node with the gathered word products, which then stay with the
    table."""
    sizes = [len(parent) for parent, _ in levels]
    nodes = 1 + sum(sizes)
    return max(nodes + 2 * max(sizes), nodes + rows, 2 * rows + 1)


def _chunks(rows: np.ndarray, levels: list, index: np.ndarray, room: int) -> tuple:
    """The samples per slice and the chunks (lo, hi, levels, index) of
    consecutive rows that a run evaluates with room matrices per sample.
    When one sample of all rows does not fit, the rows are halved, and each
    half again, until every chunk's _cost fits room or it is a single row;
    each chunk's levels are compiled here."""
    cost = _cost(levels, len(rows))
    if cost <= room:
        return room // cost, [(0, len(rows), levels, index)]
    chunks, parts = [], [(0, len(rows), levels, index)]
    while parts:
        lo, hi, levels, index = parts.pop()
        if hi - lo <= 1 or _cost(levels, hi - lo) <= room:
            chunks.append((lo, hi, levels, index))
        else:
            mid = (lo + hi) // 2
            parts += [(mid, hi, *_compile(rows[mid:hi])),
                      (lo, mid, *_compile(rows[lo:mid]))]
    return 1, chunks


def _products(levels: list, index: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The products of the compiled words in row order, the letter stack L
    of shape (slots, ..., n, n) holding the identity in slot 0.  Each level
    is one stacked matmul of its prefixes' products by their letters, from
    the identity; a word led by identity slots equals, byte for byte, the
    word multiplied out from the identity, since I @ I = I exactly."""
    import numpy as np

    P = np.empty((1 + sum(len(parent) for parent, _ in levels),) + L.shape[1:])
    P[0] = L[0]
    lo = 1
    for parent, slot in levels:
        hi = lo + len(parent)
        np.matmul(P.take(parent, 0), L.take(slot, 0), out=P[lo:hi])
        lo = hi
    return P.take(index, 0)


class EvalPlan:
    """One polynomial compiled for float evaluation.

    Its words are right-aligned rows of letter slots whose prefix levels
    are compiled once (_compile), so a prefix common to many words is
    multiplied once.  Each distinct coefficient object is converted to
    float once.  A run adds c * product to a running sum from +0.0 in term
    order, as one sequential np.add.accumulate over a table that starts
    with the running sum, which equals, byte for byte, multiplying out each
    word from the identity, letter by letter.

    A run holds at most _RUN_BYTES of products and tables: it evaluates a
    stack in slices along its sample axis, and when one sample of the whole
    plan does not fit, it evaluates the terms in consecutive chunks,
    carrying the running sum from chunk to chunk.
    """

    __slots__ = ("letters", "_rows", "_coef", "_levels", "_index")

    def __init__(self, p: Poly):
        words = list(p._terms)
        self.letters = tuple(sorted(set(chain.from_iterable(words))))
        slots = bytearray(256)
        for i, x in enumerate(self.letters, 1):
            slots[x] = i
        self._rows = _word_rows(words, bytes(slots))
        self._coef = _float_coefficients(list(p._terms.values()))
        self._levels, self._index = _compile(self._rows)

    def run(self, mats: Sequence[Optional[np.ndarray]]) -> np.ndarray:
        """Evaluate the polynomial, mats[0] standing for h and mats[i] for x_i.

        Each matrix is n x n or a stack of S of them, of shape (S, n, n);
        one n x n matrix stands for every sample of a stack.  Returns an
        array of shape (S, n, n), or (n, n) when no matrix is a stack.
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
        acc = np.zeros((shape[0] if len(shape) == 3 else 1, n, n))
        room = _RUN_BYTES // (8 * max(1, n * n)) - 1 - len(self.letters)
        step, chunks = _chunks(self._rows, self._levels, self._index, room)
        for s in range(0, len(acc), step):
            part = acc[s : s + step]
            L = np.empty((1 + len(self.letters),) + part.shape)
            L[0] = np.eye(n)
            for i, x in enumerate(self.letters, 1):
                M = mats[x]
                L[i] = M if M.ndim == 2 else M[s : s + step]
            for lo, hi, levels, index in chunks:
                P = _products(levels, index, L)
                T = np.empty((1 + len(P),) + part.shape)
                T[0] = part
                np.multiply(self._coef[lo:hi, None, None, None], P, out=T[1:])
                np.add.accumulate(T, axis=0, out=T)
                part[...] = T[-1]
                del P, T  # before the next products are made
        return acc if len(shape) == 3 else acc[0]


def evaluate(p: Poly, pt: MatrixPoint) -> np.ndarray:
    """Evaluate p at the point, the constant term contributing p(0)*I.

    Every matrix in pt must be n x n; the result is the n x n real matrix
    obtained by substituting pt.X[i-1] for x_i and pt.H for h.
    """
    return _derived(p, EvalPlan).run([pt.H, *pt.X])
