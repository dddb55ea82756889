"""Classification of homogeneous harmonic and subharmonic polynomials, g = 2.

The decision procedure follows the structure of the underlying theory:

  * harmonic inputs are recognized by an exact zero Laplacian;
  * odd degree with a nonzero Laplacian is never subharmonic, and a witness
    is found by a sign flip (the Laplacian of an odd polynomial is odd in x,
    so negating X negates it);
  * degree 2 reduces to the trace A1 + A2 of the quadratic part;
  * degree 4 reduces to membership in a six-parameter family (four forced
    coefficient relations) plus two exact rational inequalities on the
    aggregates G, Hh, Jj, K; a boundary member is certified by the exact
    squares of its Laplacian, read off the unique Gram matrix of Lap(p);
  * even degree >= 6 reduces to membership in the three-generator family
    c0*(Re gam^d)^2 + c1*Re gam^(2d) + c2*Im gam^(2d) with c0 >= 0.

The Gram machinery (neighbor split at half degree, expression over an
arranged spanning list of half-degree harmonics, congruence
diagonalization) works for any number of variables; only the closed-form
classification above is specific to two variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Optional, Sequence

from ._exactla import (
    MAX_NULLSPACE_ENTRIES,
    RowSpan,
    SparseRref,
    congruence_diagonalize,
    sparse_nullspace,
)
from .calculus import directional_derivative, laplacian
from .harmonicspace import (
    HarmonicBasis,
    _row_span,
    _vectorize,
    gamma_power_parts,
    harmonic_basis,
)
from .ncpoly import H_LETTER, EvalPlan, Poly, Word, render_word, word

if TYPE_CHECKING:
    from .positivity import SampleConfig, Witness

__all__ = [
    "NeighborDecomposition",
    "right_neighbor",
    "left_neighbor",
    "neighbor_harmonicity_check",
    "GramObstruction",
    "GramForm",
    "gram_from_neighbors",
    "SosDecomposition",
    "sos_decompose",
    "laplacian_sos_identity_check",
    "Degree4Coeffs",
    "Degree4Region",
    "degree4_inequalities",
    "degree4_family",
    "degree4_coefficients",
    "high_even_membership",
    "Verdict",
    "classify",
    "OddSandwich",
    "odd_sandwich",
    "odd_sandwich_vanishing_check",
]

# The most coefficients a sandwich table (k x g x k for odd_sandwich, the
# k x k Gram table for sos) may hold; a larger one is refused before the
# spanning list is reduced.  Timed per CLI process: odd-sandwich on
# x1*x2*x3 took 0.26 s at 64^3 entries and 2.9 s and 147 MB at 200^3; sos
# on x1*x2^2*x1, whose congruence grows as k^3, took 2.5 s and 56 MB at
# 476^2 (18 variables) and 10 s and 142 MB at 851^2 (24 variables).
MAX_SANDWICH_ENTRIES = 1 << 18


def _combine(g: int, pairs) -> Poly:
    """sum c*q over (coefficient, polynomial) pairs, accumulated in one
    dict in pair order and then term order: the terms and their order that
    repeated Poly.__add__ leaves.  A zero coefficient adds nothing and a
    coefficient of 1 is not multiplied."""
    out: dict[Word, Fraction] = {}
    for c, q in pairs:
        if not c:
            continue
        for w, v in q._terms.items():
            s = out.get(w, 0) + (v if c == 1 else c * v)
            if s:
                out[w] = s
            else:
                del out[w]
    return Poly._raw(g, out)


# ---------------------------------------------------------------------------
# Neighbor decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeighborDecomposition:
    """Exact split of p by its leading (or trailing) length-m words.

    side "right": p = sum_t x^t * parts[t] + remainder, with every t of
    length m; side "left" mirrors this with trailing words.  For
    homogeneous p of degree >= m the remainder is zero.
    """

    side: str
    m: int
    parts: dict
    remainder: Poly


def _neighbor(p: Poly, m: int, side: str) -> NeighborDecomposition:
    if p.contains_h:
        raise ValueError("neighbor decompositions are defined for h-free polynomials")
    if m < 1 or (not p.is_zero() and m > p.total_degree()):
        raise ValueError(f"split length {m} out of range for degree {p.total_degree()}")
    parts: dict[Word, dict] = {}
    remainder: dict[Word, Fraction] = {}
    for w, c in p._terms.items():
        if len(w) < m:
            remainder[w] = c
            continue
        if side == "right":
            t, rest = w[:m], w[m:]
        else:
            t, rest = w[len(w) - m :], w[: len(w) - m]
        parts.setdefault(t, {})[rest] = c
    return NeighborDecomposition(
        side=side,
        m=m,
        parts={t: Poly._raw(p.g, terms) for t, terms in parts.items()},
        remainder=Poly._raw(p.g, remainder),
    )


def right_neighbor(p: Poly, m: int) -> NeighborDecomposition:
    """Split p = sum over length-m words t of x^t * p_t, plus a remainder."""
    return _neighbor(p, m, "right")


def left_neighbor(p: Poly, m: int) -> NeighborDecomposition:
    """Split p = sum over length-m words t of p_t * x^t, plus a remainder."""
    return _neighbor(p, m, "left")


def neighbor_harmonicity_check(p: Poly, m: int) -> tuple[bool, list[Word]]:
    """True iff every right neighbor of p at length m is harmonic.

    Returns the list of leading words whose neighbors fail; a nonempty list
    rules out subharmonicity of homogeneous p when m is half its degree.
    """
    dec = right_neighbor(p, m)
    failing = [
        t for t, part in sorted(dec.parts.items()) if not laplacian(part).is_zero()
    ]
    return (not failing, failing)


# ---------------------------------------------------------------------------
# Gram form over an arranged harmonic spanning list
# ---------------------------------------------------------------------------


class GramObstruction(ValueError):
    """Raised when a right neighbor at half degree is not harmonic, which
    rules out subharmonicity exactly; carries the reason and the leading
    words of the failing neighbors."""

    def __init__(self, reason: str, failing: Sequence = ()):
        super().__init__(reason)
        self.reason = reason
        self.failing = list(failing)


@dataclass(frozen=True)
class GramForm:
    """p expressed as vec^T Phi vec over an arranged harmonic list.

    vectors lists s-elements (symmetric) first, then u-elements, then their
    transposes.  The exact identity is
    p = sum_ab phi[a][b] * vectors[a]^T * vectors[b], with phi symmetric.
    """

    vectors: tuple
    phi: tuple

    def reconstruct(self) -> Poly:
        vts = [v.transpose() for v in self.vectors]
        return _combine(self.vectors[0].g if self.vectors else 2, (
            (c, vt * vb) for vt, row in zip(vts, self.phi) for vb, c in zip(self.vectors, row) if c
        ))


def _arranged_harmonics(g: int, m: int):
    """The s/u/v arranged spanning list of degree-m harmonics.

    The symmetric subspace s is extracted exactly and completed by
    non-symmetric basis elements u paired with their transposes v.  For
    g = 2 that is s = (Re gam^m, Im gam^m), except that m = 2 keeps
    s = x1^2 - x2^2, u = x1*x2, v = x2*x1.
    """
    basis = harmonic_basis(g, m)
    if g == 2 and m == 2:
        x1 = Poly.variable(2, 1)
        x2 = Poly.variable(2, 2)
        s = [x1 * x1 - x2 * x2]
        u = [x1 * x2]
    else:
        s, u = _split_symmetric(basis)
    vectors = tuple(s + u + [q.transpose() for q in u])
    alpha, beta = len(s), len(u)
    perm = list(range(alpha)) + [alpha + beta + i for i in range(beta)] + [
        alpha + i for i in range(beta)
    ]
    return basis, vectors, tuple(perm)


def _split_symmetric(basis: HarmonicBasis):
    """Split a transpose-closed space into symmetric combos and a
    non-symmetric completion."""
    index = {w: i for i, w in enumerate(basis.word_index)}
    # c is a symmetric combination iff sum_i c_i (B_i - B_i^T) = 0: one
    # equation per word, over the k combination coefficients.
    combo_rows: list[dict] = [{} for _ in index]
    for i, el in enumerate(basis.elements):
        for w, c in el._terms.items():
            forward, backward = combo_rows[index[w]], combo_rows[index[w[::-1]]]
            forward[i] = forward.get(i, 0) + c
            backward[i] = backward.get(i, 0) - c
    s = [
        _combine(basis.g, zip(combo, basis.elements))
        for combo in sparse_nullspace(combo_rows, basis.dimension)
    ]
    tracker = SparseRref()
    for q in s:
        tracker.insert({index[w]: c for w, c in q._terms.items()})
    u = []
    for el in basis.elements:
        if tracker.insert({index[w]: c for w, c in el._terms.items()}) is not None:
            u.append(el)
    return s, u


def _require_table(k: int, slots: int, qualifier: str = "") -> None:
    """Refuse a k x slots x k sandwich table past MAX_SANDWICH_ENTRIES,
    before the spanning list is reduced."""
    if k * slots * k > MAX_SANDWICH_ENTRIES:
        raise ValueError(
            f"a sandwich table of {qualifier}{k} x {slots} x {k} coefficients exceeds "
            f"MAX_SANDWICH_ENTRIES = {MAX_SANDWICH_ENTRIES}"
        )


def _harmonic_dimension_floor(g: int, m: int) -> int:
    """A lower bound on the dimension of the degree-m harmonics in g
    variables, exact for m <= 2: the Laplacian maps the g^m words into the
    span of C(m, 2) * g^(m-2) words, so its rank is at most that."""
    return g**m if m < 2 else max(0, g**m - math.comb(m, 2) * g ** (m - 2))


def _require_basis_table(g: int, m: int, slots: int) -> None:
    """Refuse a k x slots x k table over the degree-m harmonics in g
    variables before their basis is built, from the floor of k.  A floor
    whose nullspace already exceeds MAX_NULLSPACE_ENTRIES is left to
    harmonic_basis, which refuses it before building the basis, so an
    input refused before this check keeps its message."""
    k = _harmonic_dimension_floor(g, m)
    if k * g**m <= MAX_NULLSPACE_ENTRIES:
        _require_table(k, slots, "" if m <= 2 else "at least ")


def _sandwich_coords(p: Poly, m: int, mid: int, span: RowSpan, index: dict) -> list:
    """Exact c[a][i][j] with p = sum c[a][i][j] v_a x_(i+1) v_j (mid 1) or
    p = sum c[a][0][j] v_a v_j (mid 0), where span holds the coefficient
    rows, over the degree-m words numbered by index, of a list v spanning
    the degree-m harmonics.

    p is split once at its leading words of length m + mid.  Each right
    neighbor p_lead is expressed as sum_j mu_j v_j, then each aggregated
    left factor sum_t mu_j(t x_i) x^t (sum_t mu_j(t) x^t when mid is 0).
    Raises GramObstruction with the leading words whose neighbors are not
    harmonic.  A harmonic p has harmonic neighbors, and the left factors of
    a symmetric or harmonic p are combinations of its harmonic left
    neighbors.
    """
    k, slots = span.k, p.g if mid else 1
    left: list[list[dict]] = [[{} for _ in range(slots)] for _ in range(k)]
    failing = []
    for lead, part in right_neighbor(p, m + mid).parts.items():
        mu = span.express(_vectorize(part, index))
        if mu is None:
            failing.append(lead)
            continue
        t, i = (lead[:-1], lead[-1] - 1) if mid else (lead, 0)
        for j, c in enumerate(mu):
            if c:
                left[j][i][t] = c
    if failing:
        if mid:
            raise AssertionError("a right neighbor of a harmonic is not harmonic")
        raise GramObstruction(
            "right neighbors at half degree are not all harmonic", sorted(failing)
        )
    coords = [[[Fraction(0)] * k for _ in range(slots)] for _ in range(k)]
    for j, factors in enumerate(left):
        for i, terms in enumerate(factors):
            if terms:
                mu = span.express(_vectorize(Poly(p.g, terms), index))
                if mu is None:
                    raise AssertionError("an aggregated left factor is not harmonic")
                for a, c in enumerate(mu):
                    coords[a][i][j] = c
    return coords


def gram_from_neighbors(p: Poly) -> GramForm:
    """Express symmetric homogeneous even-degree p over half-degree harmonics.

    The two-sided expansion p = sum_ab psi_ab v_a v_b runs directly over
    the arranged list v, whose rows are reduced once for every expression;
    v_a = v_perm(a)^T then gives the Gram matrix, symmetrized.  Every right
    neighbor of p at half degree must be harmonic; a failed neighbor is
    reported as a GramObstruction, which is an exact proof that p is not
    subharmonic.
    """
    if not p.is_symmetric():
        raise ValueError("gram_from_neighbors requires a symmetric polynomial")
    d = p.homogeneous_degree()
    if d is None or d % 2 or d < 2:
        raise ValueError("gram_from_neighbors requires homogeneous even degree >= 2")
    _require_basis_table(p.g, d // 2, 1)
    basis, vectors, perm = _arranged_harmonics(p.g, d // 2)
    _require_table(len(vectors), 1)
    span, index = _row_span(vectors, basis.word_index)
    if span.rank != basis.dimension:
        raise AssertionError("arranged list fails to span the harmonic basis")
    nv = len(vectors)
    coords = _sandwich_coords(p, basis.d, 0, span, index)
    phi = [
        [(coords[perm[a]][0][b] + coords[perm[b]][0][a]) / 2 for b in range(nv)]
        for a in range(nv)
    ]
    form = GramForm(vectors=vectors, phi=tuple(tuple(row) for row in phi))
    if form.reconstruct() != p:
        raise AssertionError("gram form failed exact reconstruction")
    return form


# ---------------------------------------------------------------------------
# Sums of squares of harmonics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SosDecomposition:
    """p = sum_i d_i * R_i^T * R_i with every R_i harmonic of half degree.

    The d_i stay rational rather than +-1: square roots would leave the
    rational field, and positive rescaling of R_i is immaterial.
    """

    g: int
    terms: tuple  # of (Fraction, Poly)

    def reconstruct(self) -> Poly:
        return _combine(self.g, ((d, r.transpose() * r) for d, r in self.terms))


def _squares(vectors: Sequence[Poly], gram, target: Poly) -> SosDecomposition:
    """target = sum_ab gram[a][b] vectors[a]^T vectors[b] as the squares
    R_i = sum_a N[a][i] vectors[a] with weights D[i], from one congruence
    gram = N D N^T, checked by exact reconstruction."""
    N, D = congruence_diagonalize([list(row) for row in gram])
    terms = []
    for i, weight in enumerate(D):
        r = _combine(target.g, zip((row[i] for row in N), vectors))
        if weight and not r.is_zero():
            terms.append((weight, r))
    dec = SosDecomposition(g=target.g, terms=tuple(terms))
    if dec.reconstruct() != target:
        raise AssertionError("sos decomposition failed exact reconstruction")
    return dec


def sos_decompose(p: Poly) -> SosDecomposition:
    """Congruence-diagonalize the Gram form of p into squares of harmonics."""
    form = gram_from_neighbors(p)
    dec = _squares(form.vectors, form.phi, p)
    for _, r in dec.terms:
        if not laplacian(r).is_zero():
            raise AssertionError("sos factor is not harmonic")
    return dec


def _laplacian_squares(p: Poly) -> SosDecomposition:
    """Lap(p), for symmetric p, as weighted squares of one-h half words.

    A word splits at its midpoint in one way only, so if every half holds
    one h, Lap(p) = sum G[u][v] u^T v has a unique Gram matrix G.  Lap(p)
    is then matrix positive iff G is PSD, that is iff every weight is
    positive (Helton, Ann. of Math. 156, 2002).  A word that does not split
    so raises ValueError.
    """
    lap = laplacian(p)
    halves = sorted({w[len(w) // 2 :] for w in lap._terms})
    index = {u: i for i, u in enumerate(halves)}
    gram = [[Fraction(0)] * len(halves) for _ in halves]
    for w, c in lap._terms.items():
        # Every word of Lap(p) holds two h letters.
        half = len(w) // 2
        if len(w) % 2 or w[:half].count(H_LETTER) != 1:
            raise ValueError(f"Laplacian word {render_word(w)} has an h-free half")
        gram[index[w[:half][::-1]]][index[w[half:]]] = c
    return _squares([Poly.monomial(p.g, u) for u in halves], gram, lap)


def laplacian_sos_identity_check(dec: SosDecomposition) -> bool:
    """Exact check of Lap(sum d_i R_i^T R_i) against the derivative form
    2 * sum_i d_i sum_j D[R_i, x_j]^T D[R_i, x_j]."""
    derivatives = [
        (d, directional_derivative(r, j)) for d, r in dec.terms for j in range(1, dec.g + 1)
    ]
    rhs = _combine(dec.g, ((2 * d, dr.transpose() * dr) for d, dr in derivatives))
    return laplacian(dec.reconstruct()) == rhs


# ---------------------------------------------------------------------------
# Degree 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Degree4Coeffs:
    """The six free coefficients of the symmetric degree-4 family."""

    b1: Fraction
    b2: Fraction
    b3: Fraction
    b4: Fraction
    b5: Fraction
    b6: Fraction

    def __post_init__(self):
        for name in ("b1", "b2", "b3", "b4", "b5", "b6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    # Aggregates recomputed on access so they can never drift from the b's.
    @property
    def G(self) -> Fraction:
        return self.b1 + self.b5

    @property
    def Hh(self) -> Fraction:
        return self.b1 + self.b6

    @property
    def Jj(self) -> Fraction:
        return self.b2 - self.b3

    @property
    def K(self) -> Fraction:
        return self.b1 + self.b4


@dataclass(frozen=True)
class Degree4Region:
    kind: str  # "StrictlyInside" | "Boundary" | "Violated"
    G: Fraction
    Hh: Fraction
    Jj: Fraction
    K: Fraction


def degree4_inequalities(B: Degree4Coeffs) -> Degree4Region:
    """Locate B against the exact inequalities Hh*G > Jj^2 + K^2, Hh > 0.

    StrictlyInside means both hold strictly; Boundary means equality in the
    product inequality with Hh >= 0 and G >= 0; anything else is Violated.
    """
    lhs = B.Hh * B.G
    rhs = B.Jj * B.Jj + B.K * B.K
    if lhs > rhs and B.Hh > 0:
        kind = "StrictlyInside"
    elif lhs == rhs and B.Hh >= 0 and B.G >= 0:
        kind = "Boundary"
    else:
        kind = "Violated"
    return Degree4Region(kind=kind, G=B.G, Hh=B.Hh, Jj=B.Jj, K=B.K)


def degree4_family(B: Degree4Coeffs) -> Poly:
    """The six-parameter symmetric degree-4 family spanned by the b-slots."""
    groups = [
        (B.b1, [(1, word(1, 1, 1, 1)), (-1, word(1, 1, 2, 2)),
                (-1, word(2, 2, 1, 1)), (1, word(2, 2, 2, 2))]),
        (B.b2, [(1, word(1, 1, 1, 2)), (1, word(2, 1, 1, 1)),
                (-1, word(2, 1, 2, 2)), (-1, word(2, 2, 1, 2))]),
        (B.b3, [(1, word(1, 1, 2, 1)), (1, word(1, 2, 1, 1)),
                (-1, word(1, 2, 2, 2)), (-1, word(2, 2, 2, 1))]),
        (B.b4, [(1, word(1, 2, 1, 2)), (1, word(2, 1, 2, 1))]),
        (B.b5, [(1, word(1, 2, 2, 1))]),
        (B.b6, [(1, word(2, 1, 1, 2))]),
    ]
    return _combine(2, (
        (sign * coeff, Poly.monomial(2, w)) for coeff, monos in groups for sign, w in monos
    ))


_DEG4_SLOTS = {
    "A1": word(1, 1, 1, 1),
    "A2": word(1, 1, 1, 2),
    "A3": word(1, 1, 2, 1),
    "A4": word(1, 1, 2, 2),
    "A5": word(1, 2, 1, 2),
    "A6": word(1, 2, 2, 1),
    "A7": word(1, 2, 2, 2),
    "A8": word(2, 1, 1, 2),
    "A9": word(2, 1, 2, 2),
    "A10": word(2, 2, 2, 2),
}


def degree4_coefficients(p: Poly) -> dict:
    """The ten orbit coefficients of a symmetric homogeneous degree-4 p."""
    if p.g != 2 or not p.is_symmetric() or not p.is_homogeneous(4):
        raise ValueError("expected a symmetric homogeneous degree-4 polynomial in 2 variables")
    return {name: p.coefficient(w) for name, w in _DEG4_SLOTS.items()}


# ---------------------------------------------------------------------------
# Even degree >= 6 membership
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _membership_generators(d: int):
    """The span of the generators (Re gam^d)^2, Re gam^(2d), Im gam^(2d)
    as coefficient rows, with an explicit rank-3 independence check, and
    the index of their words."""
    re_d, _ = gamma_power_parts(d)
    re_2d, im_2d = gamma_power_parts(2 * d)
    gens = [re_d * re_d, re_2d, im_2d]
    span, index = _row_span(gens, sorted({w for q in gens for w in q._terms}))
    if span.rank != 3:
        raise AssertionError(f"membership generators dependent at degree {2 * d}")
    return span, index


def high_even_membership(p: Poly) -> Optional[tuple]:
    """Exact (c0, c1, c2) with p = c0*(Re gam^d)^2 + c1*Re gam^(2d)
    + c2*Im gam^(2d), or None when p lies outside that family.

    Defined for symmetric homogeneous p of degree 2d with d > 2.
    """
    if p.g != 2:
        raise ValueError("membership is defined for two variables")
    deg = p.homogeneous_degree()
    if deg is None or deg % 2 or deg // 2 <= 2:
        raise ValueError("degree must be 2d with d > 2")
    d = deg // 2
    span, index = _membership_generators(d)
    if any(w not in index for w in p._terms):
        return None
    coeffs = span.express(_vectorize(p, index))
    if coeffs is None:
        return None
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# The classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Verdict:
    """A classification: Harmonic, PurelySubharmonicCertified,
    SubharmonicBoundaryCertified (sos holds the squares of Lap(p), not of
    p) or NotSubharmonic."""

    kind: str
    reason: str = ""
    membership: Optional[tuple] = None
    region: Optional[Degree4Region] = None
    sos: Optional[SosDecomposition] = None
    witness: Optional[Witness] = None


def _odd_witness(lap: Poly, cfg: SampleConfig) -> Optional[Witness]:
    """Witness search for odd total degree: the Laplacian is odd in x, so
    if a sampled point is positive, flipping the sign of X flips it."""
    import numpy as np

    from .positivity import Witness, _draw_stack, _drawn_witness, _search
    from .positivity import min_eigenvalue, sample_matrix_positive

    plan = EvalPlan.of(lap)
    stacks = [range(s, s + 1) for s in range(min(cfg.samples_per_size, 8))]
    for n in cfg.sizes:
        draw = partial(_draw_stack, cfg, lap.g, n, with_h=True)
        for s, drawn, eigs in _search(plan, stacks, draw):
            if eigs[0] < -cfg.tol:
                return _drawn_witness(n, s, drawn, lap.g, float(eigs[0]))
            if eigs[-1] > cfg.tol:
                X, H = drawn[: lap.g], drawn[lap.g]
                Xn = tuple(-Xi for Xi in X)
                with np.errstate(over="ignore", invalid="ignore"):
                    M = plan.run([H, *Xn])[0]
                me = min_eigenvalue(M)
                if me < -cfg.tol:
                    return Witness(n=n, X=Xn, H=H.copy(), min_eig=me, sample_index=s)
    return sample_matrix_positive(lap, cfg).witness


def classify(p: Poly, cfg: Optional[SampleConfig] = None) -> Verdict:
    """Full classification of a homogeneous polynomial in two variables.

    Certified verdicts carry machine-checkable certificates: an inequality
    record, membership coefficients, or, on the degree-4 boundary, exact
    squares summing to Lap(p).  Refutations carry a numeric witness or an
    exact algebraic obstruction.
    """
    import numpy as np

    from .positivity import SampleConfig, Witness, sample_matrix_positive

    if cfg is None:
        cfg = SampleConfig()
    if p.g != 2:
        raise ValueError("classification covers exactly two variables")
    if p.contains_h:
        raise ValueError("classification expects an h-free polynomial")
    d = p.homogeneous_degree()
    if d is None:
        raise ValueError("classification expects a homogeneous polynomial")
    if d > 2 and not p.is_symmetric():
        raise ValueError("degree > 2 classification requires a symmetric polynomial")

    lap = laplacian(p)
    if lap.is_zero():
        return Verdict(kind="Harmonic", reason="Laplacian is exactly zero")

    def refuted(reason: str, **certificate) -> Verdict:
        # An exact refutation, explained by a sampled witness.
        witness = sample_matrix_positive(lap, cfg).witness
        return Verdict(kind="NotSubharmonic", reason=reason, witness=witness,
                       **certificate)

    if d % 2 == 1:
        witness = _odd_witness(lap, cfg)
        return Verdict(
            kind="NotSubharmonic",
            reason="odd degree with nonzero Laplacian; positivity flips sign under X -> -X",
            witness=witness,
        )

    if d == 2:
        # Lap(a*x1^2 + b*x2^2 + ...) = 2*(a + b)*h^2.
        trace = p.coefficient(word(1, 1)) + p.coefficient(word(2, 2))
        if trace > 0:
            return Verdict(
                kind="PurelySubharmonicCertified",
                reason=f"Laplacian equals ({2 * trace})*h^2",
            )
        witness = Witness(
            n=1,
            X=(np.zeros((1, 1)), np.zeros((1, 1))),
            H=np.array([[1.0]]),
            min_eig=float(2 * trace),
            sample_index=0,
        )
        return Verdict(
            kind="NotSubharmonic",
            reason=f"Laplacian equals ({2 * trace})*h^2 with negative trace",
            witness=witness,
        )

    if d == 4:
        A = degree4_coefficients(p)
        forced = [
            ("A4 = -A1", A["A4"] == -A["A1"]),
            ("A10 = A1", A["A10"] == A["A1"]),
            ("A9 = -A2", A["A9"] == -A["A2"]),
            ("A7 = -A3", A["A7"] == -A["A3"]),
        ]
        broken = [name for name, ok in forced if not ok]
        if broken:
            return refuted("forced degree-4 coefficient relations fail: "
                           + ", ".join(broken))
        B = Degree4Coeffs(A["A1"], A["A2"], A["A3"], A["A5"], A["A6"], A["A8"])
        region = degree4_inequalities(B)
        if region.kind == "StrictlyInside":
            return Verdict(
                kind="PurelySubharmonicCertified",
                reason="degree-4 inequalities hold strictly",
                region=region,
            )
        if region.kind == "Boundary":
            # The boundary is the closure of the strict region, so Lap(p) is
            # matrix positive and its unique Gram matrix is PSD.
            dec = _laplacian_squares(p)
            if any(weight <= 0 for weight, _ in dec.terms):
                raise AssertionError("a boundary Laplacian has a negative square")
            return Verdict(
                kind="SubharmonicBoundaryCertified",
                reason="exact PSD Gram certificate on the inequality boundary",
                region=region,
                sos=dec,
            )
        return refuted("degree-4 inequalities violated", region=region)

    membership = high_even_membership(p)
    if membership is None:
        return refuted("outside the three-generator family for even degree >= 6")
    if membership[0] > 0:
        return Verdict(
            kind="PurelySubharmonicCertified",
            reason="member of the even-degree family with c0 > 0; "
            "the Laplacian is an exact sum of squares",
            membership=membership,
        )
    return refuted(
        "member of the even-degree family with c0 < 0; "
        "the Laplacian is a negative multiple of a sum of squares",
        membership=membership,
    )


# ---------------------------------------------------------------------------
# Odd-degree sandwich form of harmonics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OddSandwich:
    """p = sum_{m,i,j} phi[m][i][j] gamma_m x_{i+1} gamma_j over the
    harmonic basis of degree (d-1)/2."""

    g: int
    d: Optional[int]
    basis: Optional[HarmonicBasis]
    phi: tuple  # k x g x k nested tuple of Fractions

    def reconstruct(self) -> Poly:
        gam = self.basis.elements if self.basis else ()
        xs = [Poly.variable(self.g, i) for i in range(1, self.g + 1)]
        return _combine(self.g, (
            (c, gam[m] * xs[i] * gam[j])
            for m, plane in enumerate(self.phi)
            for i, row in enumerate(plane)
            for j, c in enumerate(row)
            if c
        ))


def odd_sandwich(p: Poly) -> OddSandwich:
    """Exact sandwich coefficients of a harmonic p of odd degree >= 3.

    The two-sided expansion that gram_from_neighbors uses, with one middle
    letter: the right-neighbor split at (d-1)/2 + 1, then expression of
    the aggregated left factors over the same basis.  The reconstruction
    is verified exactly.  Raises ValueError when p is not harmonic.
    """
    if p.is_zero():
        return OddSandwich(g=p.g, d=None, basis=None, phi=())
    if p.contains_h:
        raise ValueError("odd_sandwich expects an h-free polynomial")
    d = p.homogeneous_degree()
    if d is None or d % 2 == 0 or d < 3:
        raise ValueError("odd_sandwich requires homogeneous odd degree >= 3")
    if not laplacian(p).is_zero():
        raise ValueError("odd_sandwich requires a harmonic polynomial")
    _require_basis_table(p.g, (d - 1) // 2, p.g)
    basis = harmonic_basis(p.g, (d - 1) // 2)
    _require_table(basis.dimension, p.g)
    phi = _sandwich_coords(p, basis.d, 1, *_row_span(basis.elements, basis.word_index))
    result = OddSandwich(
        g=p.g,
        d=d,
        basis=basis,
        phi=tuple(tuple(tuple(row) for row in plane) for plane in phi),
    )
    if result.reconstruct() != p:
        raise AssertionError("sandwich form failed exact reconstruction")
    return result


def odd_sandwich_vanishing_check(s: OddSandwich) -> bool:
    """Verify the three exact cancellation identities satisfied by the
    sandwich coefficients of a harmonic polynomial (grouped by how many h
    letters land in the right half of each term): sum_m gam_m h inner_m,
    sum_j outer_j h gam_j and sum_lij (sum_m phi[m][i][j] D_l(gam_m))
    x_(i+1) D_l(gam_j) vanish, with inner_m = sum_ij phi[m][i][j]
    D_(i+1)(gam_j) and outer_j = sum_mi phi[m][i][j] D_(i+1)(gam_m).
    Each D_l(gam_j) is taken once and the sums combine them linearly."""
    if s.basis is None:
        return True
    g, gam, phi = s.g, s.basis.elements, s.phi
    ks, gs = range(len(gam)), range(g)
    h = Poly.direction(g)
    xs = [Poly.variable(g, i + 1) for i in gs]
    dgam = [[directional_derivative(q, ell + 1) for q in gam] for ell in gs]
    inner = [_combine(g, ((phi[m][i][j], dgam[i][j]) for i in gs for j in ks)) for m in ks]
    outer = [_combine(g, ((phi[m][i][j], dgam[i][m]) for m in ks for i in gs)) for j in ks]
    first = _combine(g, ((1, gam[m] * h * inner[m]) for m in ks))
    second = _combine(g, ((1, outer[j] * h * gam[j]) for j in ks))
    third = _combine(g, (
        (1, _combine(g, ((phi[m][i][j], dgam[ell][m]) for m in ks)) * xs[i] * dgam[ell][j])
        for ell in gs for i in gs for j in ks
    ))
    return first.is_zero() and second.is_zero() and third.is_zero()
