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

from ncharm import H_LETTER, MatrixPoint, Poly, directional_derivative, harmonic_basis


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


def random_point(rnd: random.Random, g: int, n: int) -> tuple:
    """g exactly symmetric n x n matrices with entries in [-1, 1]."""
    mats = []
    for _ in range(g):
        M = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                M[i, j] = M[j, i] = rnd.uniform(-1.0, 1.0)
        mats.append(M)
    return tuple(mats)


def sweep_points() -> list:
    """The 32 (p, X) point checks of the benchmark's sweep workload
    (perfbench/workloads.py), rebuilt from the same recipe and seeds: even
    family members of degrees 4, 6 and 8 and strictly-inside degree-4
    members, each at one X of every size 1..4."""
    from ncharm.classify2 import Degree4Coeffs, degree4_family, degree4_inequalities
    from ncharm.harmonicspace import gamma_power_parts

    rnd = random.Random(2009)

    def rational():
        return Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))

    members = []
    for d in (2, 3, 4):
        re_d, _ = gamma_power_parts(d)
        re_2d, im_2d = gamma_power_parts(2 * d)
        for _ in range(2):
            c0 = Fraction(rnd.randint(1, 9), rnd.randint(1, 5))
            c1, c2 = rational(), rational()
            members.append((re_d * re_d).scale(c0) + re_2d.scale(c1) + im_2d.scale(c2))
    while len(members) < 8:
        B = Degree4Coeffs(*[rational() for _ in range(6)])
        if degree4_inequalities(B).kind == "StrictlyInside":
            members.append(degree4_family(B))
    rnd = random.Random(2010)
    points = []
    for p in members:
        for n in (1, 2, 3, 4):
            points.append((p, random_point(rnd, 2, n)))
    return points


def middle_rep_from_grid(g: int, border, Z):
    """A hand-built MiddleMatrixRep of the N x N grid Z of Poly cells.  Its
    cell terms list each cell's terms in that cell's own Poly order, which
    need not be canonical, so evaluate_middle sums each cell in the order
    listed."""
    from ncharm.middlematrix import MiddleMatrixRep

    return MiddleMatrixRep(g=g, border=tuple(border), cells=tuple(
        (i, j, mid, c) for i, row in enumerate(Z) for j, z in enumerate(row)
        for mid, c in z._terms.items()))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def zeroes_violation_oracle(rep):
    """zeroes_violation by a row-major scan of the grid rep.Z."""
    Z = rep.Z
    for i, row in enumerate(Z):
        if Z[i][i].is_zero():
            for j, z in enumerate(row):
                if j != i and not z.is_zero():
                    return (i, j)
    return None


def assert_point_check_matches(p: Poly, X):
    """The point check's Z(X), evaluate_middle(extract(laplacian(p)), X),
    against evaluate_middle_oracle of the middle matrix of
    laplacian_fraction_reference(p): the same shape and bytes.  Where Z(X) raises ValueError,
    subharmonic_at_point must raise the same.  Returns Z(X) or the error."""
    from ncharm import SampleConfig, subharmonic_at_point
    from ncharm.calculus import laplacian
    from ncharm.middlematrix import evaluate_middle, extract

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            got = evaluate_middle(extract(laplacian(p)), X)
        except ValueError as exc:
            try:
                subharmonic_at_point(p, X, SampleConfig())
            except ValueError as err:
                assert str(err) == str(exc)
                return exc
            raise AssertionError(f"expected ValueError: {exc}")
        want = evaluate_middle_oracle(extract(laplacian_fraction_reference(p)),
                                      MatrixPoint(X=tuple(X)))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    return got


def evaluate_middle_oracle(rep, pt: MatrixPoint) -> np.ndarray:
    """evaluate_middle by cells: each nonzero cell of the grid rep.Z
    evaluated by evaluate_oracle into its block, then the whole averaged
    with its transpose."""
    n = pt.n
    N = rep.size
    M = np.zeros((N * n, N * n))
    for i, row in enumerate(rep.Z):
        for j, z in enumerate(row):
            if not z.is_zero():
                M[i * n : (i + 1) * n, j * n : (j + 1) * n] = evaluate_oracle(z, pt)
    return (M + M.T) / 2.0


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


def ldl_pivots_oracle(M, tol: float):
    """Diagonally pivoted LDL^T by per-pivot numpy calls: the pivot is
    np.argmax of the remaining |diagonal| and the Schur update one
    np.outer on the np.ix_ block.  This is the library's former loop, kept
    because its pivots are the ones ldl_pivots must reproduce bit for bit."""
    from ncharm.positivity import _check_numeric_symmetry

    A = _check_numeric_symmetry(M).copy()
    active = list(range(A.shape[0]))
    pivots: list[float] = []
    psd = True
    while active:
        k_local = int(np.argmax([abs(A[k, k]) for k in active]))
        k = active[k_local]
        d = A[k, k]
        if abs(d) <= tol:
            # Whole remaining diagonal is numerically zero.
            sub = A[np.ix_(active, active)]
            off = sub - np.diag(np.diag(sub))
            if float(np.max(np.abs(off), initial=0.0)) > tol:
                psd = False
            pivots.extend(float(A[i, i]) for i in active)
            break
        pivots.append(float(d))
        if d < -tol:
            psd = False
        active.pop(k_local)
        if active:
            idx = np.array(active)
            col = A[idx, k]
            A[np.ix_(idx, idx)] -= np.outer(col, col) / d
    if any(p < -tol for p in pivots):
        psd = False
    return pivots, psd


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


def rref_oracle(mat):
    """Reduced row echelon form of a dense matrix by textbook Gauss-Jordan
    elimination with first-nonzero pivoting.

    Returns (rows, pivot_cols) with zero rows dropped.
    """
    rows = [[Fraction(v) for v in row] for row in mat]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivot_cols


def express_oracle(rows, target):
    """The particular solution of sum_i c[i]*rows[i] == target that the
    reduced row echelon form of [rows | I] determines, or None."""
    k = len(rows)
    if k == 0:
        return [] if not any(target) else None
    ncols = len(rows[0])
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(j == i)) for j in range(k)]
        for i, row in enumerate(rows)
    ]
    reduced, pivot_cols = rref_oracle(aug)
    residual = [Fraction(v) for v in target]
    combo = [Fraction(0)] * k
    for row, c in zip(reduced, pivot_cols):
        a = residual[c] if c < ncols else 0
        if not a:
            continue
        for j in range(ncols):
            residual[j] -= a * row[j]
        for j in range(k):
            combo[j] += a * row[ncols + j]
    if any(residual):
        return None
    return combo


def express_in_basis_oracle(p: Poly, basis):
    """Coordinates of p over an echelon harmonic basis by a residual solve:
    p's entries at the pivot columns, kept only if subtracting that
    combination leaves exactly zero."""
    index = {w: i for i, w in enumerate(basis.word_index)}
    vec = [Fraction(0)] * len(index)
    for w, c in p.terms():
        vec[index[w]] = c
    coords = [vec[c] for c in basis.pivot_cols]
    residual = list(vec)
    for coeff, row in zip(coords, basis.coeff_rows):
        for j, v in enumerate(row):
            residual[j] -= coeff * v
    return None if any(residual) else coords


def sandwich_identities_oracle(s):
    """The three sums that odd_sandwich_vanishing_check demands be zero,
    expanded one coefficient at a time:
    sum phi[m][i][j] gam_m h D_(i+1)(gam_j),
    sum phi[m][i][j] D_(i+1)(gam_m) h gam_j and
    sum phi[m][i][j] D_l(gam_m) x_(i+1) D_l(gam_j) over every l."""
    g, gam = s.g, s.basis.elements
    h = Poly.direction(g)
    sums = [Poly.zero(g) for _ in range(3)]
    for m, plane in enumerate(s.phi):
        for i, row in enumerate(plane):
            xi = Poly.variable(g, i + 1)
            for j, c in enumerate(row):
                if not c:
                    continue
                sums[0] = sums[0] + mul_oracle(
                    mul_oracle(gam[m], h), directional_derivative(gam[j], i + 1)
                ).scale(c)
                sums[1] = sums[1] + mul_oracle(
                    mul_oracle(directional_derivative(gam[m], i + 1), h), gam[j]
                ).scale(c)
                for ell in range(1, g + 1):
                    sums[2] = sums[2] + mul_oracle(
                        mul_oracle(directional_derivative(gam[m], ell), xi),
                        directional_derivative(gam[j], ell),
                    ).scale(c)
    return sums


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


def gram_oracle(p: Poly):
    """The Gram form of symmetric even-degree p by the two-step route.

    Over the echelon basis gamma of half degree, p = sum psi_ij gamma_i
    gamma_j has psi_ij equal to p's coefficient at the word pivot_i pivot_j,
    since each pivot word occurs in one basis element only.  The
    coordinates T[i] of every gamma_i^T over gamma come from express_oracle,
    so gamma_i = sum_a T[i][a] gamma_a^T and phi = T^T psi.

    Returns (vectors, phi, failing): vectors is the basis, failing lists,
    sorted, the leading words whose right neighbors at half degree are not
    harmonic, and phi is None when it is nonempty.
    """
    m = p.total_degree() // 2
    basis = harmonic_basis(p.g, m)
    vectors = basis.elements
    parts: dict[bytes, dict] = {}
    for w, c in p.terms():
        parts.setdefault(w[:m], {})[w[m:]] = c
    failing = sorted(
        t for t, terms in parts.items()
        if not laplacian_oracle(Poly(p.g, terms)).is_zero()
    )
    if failing:
        return vectors, None, failing
    pivots = [basis.word_index[c] for c in basis.pivot_cols]
    k = len(vectors)
    psi = [[p.coefficient(pivots[i] + pivots[j]) for j in range(k)] for i in range(k)]
    rebuilt = Poly.zero(p.g)
    for i in range(k):
        for j in range(k):
            rebuilt = rebuilt + mul_oracle(vectors[i], vectors[j]).scale(psi[i][j])
    assert rebuilt == p
    rows, _ = poly_matrix(vectors, basis.word_index)
    T = [
        express_oracle(rows, poly_matrix([el.transpose()], basis.word_index)[0][0])
        for el in vectors
    ]
    phi = [[sum(T[i][a] * psi[i][j] for i in range(k)) for j in range(k)]
           for a in range(k)]
    return vectors, phi, failing
