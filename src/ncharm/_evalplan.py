"""Float evaluation of polynomials at matrices: the one compiled plan.

A polynomial's words become right-aligned rows of letter slots whose
prefix levels are compiled once (_compile), so a prefix common to many
words is multiplied once; _products multiplies the levels out at a stack
of matrices.  EvalPlan adds the word products of a polynomial into one
running sum (ncpoly.evaluate and the sampler), and _evaluate_cells adds
the middle words of a middle-matrix representation into their blocks
(middlematrix.evaluate_middle).

This is the package's only float evaluation code and it imports numpy at
its top, so the exact modules load it, and numpy, only when they evaluate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .ncpoly import H_LETTER, Poly, _render_fraction


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


def _cell_table(cells: tuple) -> tuple:
    """The cell terms (i, j, mid, c) of a middle-matrix representation as
    _evaluate_cells takes them: block rows, block columns, float
    coefficients, middle words as rows of letters, and those words' prefix
    levels and index."""
    rows = _word_rows([t[2] for t in cells], None)
    return (np.array([t[0] for t in cells], dtype=np.intp),
            np.array([t[1] for t in cells], dtype=np.intp),
            _float_coefficients([t[3] for t in cells]), rows, *_compile(rows))


def _evaluate_cells(N: int, i, j, coef, rows, levels, index, X: tuple) -> np.ndarray:
    """The N x N block matrix of terms added into their cells, symmetrized.

    Term t adds coef[t] * P_t to block (i[t], j[t]), where P_t is the
    product at X of its middle word, rows[t], whose prefix levels and
    index are compiled by _compile.  Each block sums its terms in order
    from +0.0 by one np.add.at, which equals, byte for byte, evaluating the
    block's polynomial word by word.  The (N*n) x (N*n) result is averaged
    with its transpose to remove floating point skew.
    """
    n = X[0].shape[0]
    if rows.max(initial=0) > len(X):
        raise ValueError(f"point supplies {len(X)} matrices, poly uses more")
    L = np.empty((len(X) + 1, n, n))
    L[0] = np.eye(n)
    L[1:] = X
    M = np.zeros((N, N, n, n))
    room = _RUN_BYTES // (8 * max(1, n * n)) - len(L)
    for lo, hi, levels, index in _chunks(rows, levels, index, room)[1]:
        np.add.at(M, (i[lo:hi], j[lo:hi]),
                  coef[lo:hi, None, None] * _products(levels, index, L))
    M = M.transpose(0, 2, 1, 3).reshape(N * n, N * n)
    return (M + M.T) / 2.0
