"""Classification of homogeneous harmonic and subharmonic polynomials, g = 2.

The decision procedure follows the structure of the underlying theory:

  * harmonic inputs are recognized by an exact zero Laplacian;
  * odd degree with a nonzero Laplacian is never subharmonic, and a witness
    is found by a sign flip (the Laplacian of an odd polynomial is odd in x,
    so negating X negates it);
  * degree 2 reduces to the trace A1 + A2 of the quadratic part;
  * degree 4 reduces to membership in a six-parameter family (four forced
    coefficient relations) plus two exact rational inequalities on the
    aggregates G, Hh, Jj, K; boundary cases fall back to an exact PSD Gram
    certificate;
  * even degree >= 6 reduces to membership in the three-generator family
    c0*(Re gam^d)^2 + c1*Re gam^(2d) + c2*Im gam^(2d) with c0 >= 0.

The Gram machinery (neighbor split at half degree, expression over the
harmonic basis, congruence diagonalization) works for any number of
variables whose harmonic basis has the word-independence property; only
the closed-form classification above is specific to two variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

from ._exactla import (
    congruence_diagonalize,
    dense_rank,
    express_over_rows,
    is_psd_rational,
)
from .calculus import directional_derivative, laplacian
from .harmonicspace import (
    HarmonicBasis,
    check_independence_property,
    express_in_basis,
    gamma_power_parts,
    harmonic_basis,
)
from .ncpoly import EvalPlan, Poly, Word, word

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
    """Raised when the Gram construction is blocked; carries the exact
    algebraic reason (which itself rules out subharmonicity when it is a
    failed neighbor harmonicity)."""

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
        return _gram_reconstruct(self.vectors, self.phi)


def _gram_reconstruct(vectors: Sequence[Poly], matrix: Sequence[Sequence[Fraction]]) -> Poly:
    g = vectors[0].g if vectors else 2
    acc = Poly.zero(g)
    for a, va in enumerate(vectors):
        vat = va.transpose()
        for b, vb in enumerate(vectors):
            c = matrix[a][b]
            if c:
                acc = acc + (vat * vb).scale(c)
    return acc


def _vector_over_words(p: Poly, index: dict) -> list[Fraction]:
    vec = [Fraction(0)] * len(index)
    for w, c in p._terms.items():
        vec[index[w]] = c
    return vec


def _arranged_harmonics(g: int, m: int):
    """The s/u/v arranged spanning list of degree-m harmonics.

    For two variables: s = x1^2 - x2^2, u = x1*x2, v = x2*x1 at m = 2, and
    s = (Re gam^m, Im gam^m) with no u/v otherwise.  For general g the
    symmetric subspace is extracted exactly and completed by non-symmetric
    basis elements paired with their transposes.
    """
    basis = harmonic_basis(g, m)
    if check_independence_property(basis) is None:
        raise GramObstruction(
            f"harmonic basis for (g={g}, d={m}) lacks the independence property"
        )
    if g == 2 and m == 2:
        x1 = Poly.variable(2, 1)
        x2 = Poly.variable(2, 2)
        s = [x1 * x1 - x2 * x2]
        u = [x1 * x2]
    elif g == 2:
        re, im = gamma_power_parts(m)
        s = [re, im]
        u = []
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
    non-symmetric completion (general-g path)."""
    from ._exactla import SparseRref, sparse_nullspace

    index = {w: i for i, w in enumerate(basis.word_index)}
    k = len(basis.elements)
    n = len(basis.word_index)
    # c is a symmetric combination iff c * (B - B_reversed) = 0.
    rows = []
    for row, p in zip(basis.coeff_rows, basis.elements):
        diff = [Fraction(0)] * n
        for w, c in p._terms.items():
            diff[index[w]] += c
            diff[index[w[::-1]]] -= c
        rows.append(diff)
    # Nullspace over the k combination coefficients.
    combo_rows = [
        {i: rows[i][j] for i in range(k) if rows[i][j]} for j in range(n)
    ]
    combos = sparse_nullspace(combo_rows, k)
    s = []
    for combo in combos:
        q = Poly.zero(basis.g)
        for coeff, el in zip(combo, basis.elements):
            if coeff:
                q = q + el.scale(coeff)
        s.append(q)
    tracker = SparseRref()
    for q in s:
        tracker.insert({index[w]: c for w, c in q._terms.items()})
    u = []
    for el in basis.elements:
        if tracker.insert({index[w]: c for w, c in el._terms.items()}) is not None:
            u.append(el)
    return s, u


def gram_from_neighbors(p: Poly) -> GramForm:
    """Express symmetric homogeneous even-degree p over half-degree harmonics.

    Requires every right neighbor of p at half degree to be harmonic and
    the half-degree harmonic basis to satisfy the independence property;
    a failed neighbor is reported as a GramObstruction, which is an exact
    proof that p is not subharmonic.
    """
    if not p.is_symmetric():
        raise ValueError("gram_from_neighbors requires a symmetric polynomial")
    d = p.homogeneous_degree()
    if d is None or d % 2 or d < 2:
        raise ValueError("gram_from_neighbors requires homogeneous even degree >= 2")
    m = d // 2
    basis, vectors, perm = _arranged_harmonics(p.g, m)
    ok, failing = neighbor_harmonicity_check(p, m)
    if not ok:
        raise GramObstruction(
            "right neighbors at half degree are not all harmonic", failing
        )
    dec = right_neighbor(p, m)
    k = basis.dimension
    # p = sum_j pj * gamma_j with pj collecting the leading words.
    pj_terms: list[dict] = [dict() for _ in range(k)]
    for t, part in dec.parts.items():
        mu = express_in_basis(part, basis)
        if mu is None:
            raise AssertionError("harmonic neighbor escaped the harmonic basis")
        for j, coeff in enumerate(mu):
            if coeff:
                pj_terms[j][t] = coeff
    psi_cols = []
    for j in range(k):
        pj = Poly(p.g, pj_terms[j])
        coords = express_in_basis(pj, basis) if (pj.is_zero() or pj.is_homogeneous(m)) else None
        if coords is None:
            raise GramObstruction(
                "aggregated left factors are not harmonic; "
                "the polynomial admits no harmonic Gram form"
            )
        psi_cols.append(coords)
    # psi[i][j]: p = sum_ij psi_ij gamma_i gamma_j.
    psi = [[psi_cols[j][i] for j in range(k)] for i in range(k)]
    # Change coordinates from the echelon basis to the arranged list.
    words = sorted({w for v in vectors for w in v._terms} |
                   {w for el in basis.elements for w in el._terms})
    index = {w: i for i, w in enumerate(words)}
    vec_rows = [_vector_over_words(v, index) for v in vectors]
    C = []
    for el in basis.elements:
        coeffs = express_over_rows(vec_rows, _vector_over_words(el, index))
        if coeffs is None:
            raise AssertionError("arranged list fails to span the harmonic basis")
        C.append(coeffs)
    nv = len(vectors)
    ctpc = [
        [
            sum((C[i][a] * psi[i][j] * C[j][b] for i in range(k) for j in range(k)),
                Fraction(0))
            for b in range(nv)
        ]
        for a in range(nv)
    ]
    psi_raw = [[ctpc[perm[a]][b] for b in range(nv)] for a in range(nv)]
    phi = [
        [(psi_raw[a][b] + psi_raw[b][a]) / 2 for b in range(nv)] for a in range(nv)
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
        acc = Poly.zero(self.g)
        for d, r in self.terms:
            acc = acc + (r.transpose() * r).scale(d)
        return acc


def sos_decompose(p: Poly) -> SosDecomposition:
    """Congruence-diagonalize the Gram form of p into squares of harmonics."""
    form = gram_from_neighbors(p)
    N, D = congruence_diagonalize([list(row) for row in form.phi])
    terms = []
    nv = len(form.vectors)
    for i in range(nv):
        if not D[i]:
            continue
        r = Poly.zero(p.g)
        for a in range(nv):
            if N[a][i]:
                r = r + form.vectors[a].scale(N[a][i])
        if r.is_zero():
            continue
        terms.append((D[i], r))
    dec = SosDecomposition(g=p.g, terms=tuple(terms))
    if dec.reconstruct() != p:
        raise AssertionError("sos decomposition failed exact reconstruction")
    for _, r in terms:
        if not laplacian(r).is_zero():
            raise AssertionError("sos factor is not harmonic")
    return dec


def laplacian_sos_identity_check(dec: SosDecomposition) -> bool:
    """Exact check of Lap(sum d_i R_i^T R_i) against the derivative form
    2 * sum_i d_i sum_j D[R_i, x_j]^T D[R_i, x_j]."""
    lhs = laplacian(dec.reconstruct())
    rhs = Poly.zero(dec.g)
    for d, r in dec.terms:
        for j in range(1, dec.g + 1):
            dr = directional_derivative(r, j)
            rhs = rhs + (dr.transpose() * dr).scale(2 * d)
    return lhs == rhs


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
    p = Poly.zero(2)
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
    for coeff, monos in groups:
        if not coeff:
            continue
        for sign, w in monos:
            p = p + Poly.monomial(2, w, sign * coeff)
    return p


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
    """Generators (Re gam^d)^2, Re gam^(2d), Im gam^(2d) as coefficient
    rows, with an explicit rank-3 independence check."""
    re_d, _ = gamma_power_parts(d)
    re_2d, im_2d = gamma_power_parts(2 * d)
    gens = [re_d * re_d, re_2d, im_2d]
    words = sorted({w for q in gens for w in q._terms})
    index = {w: i for i, w in enumerate(words)}
    rows = [_vector_over_words(q, index) for q in gens]
    if dense_rank(rows) != 3:
        raise AssertionError(f"membership generators dependent at degree {2 * d}")
    return gens, rows, index


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
    gens, rows, index = _membership_generators(d)
    if any(w not in index for w in p._terms):
        return None
    coeffs = express_over_rows(rows, _vector_over_words(p, index))
    if coeffs is None:
        return None
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# The classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Verdict:
    kind: str
    reason: str = ""
    membership: Optional[tuple] = None
    region: Optional[Degree4Region] = None
    sos: Optional[SosDecomposition] = None
    witness: Optional[Witness] = None


def _negate_tuple(X):
    return tuple(-M for M in X)


def _odd_witness(lap: Poly, cfg: SampleConfig) -> Optional[Witness]:
    """Witness search for odd total degree: the Laplacian is odd in x, so
    if a sampled point is positive, flipping the sign of X flips it."""
    import numpy as np

    from .positivity import Witness, draw_point, min_eigenvalue, sample_matrix_positive

    g = lap.g
    plan = EvalPlan.of(lap)
    flip_tries = min(cfg.samples_per_size, 8)
    for n in cfg.sizes:
        for s in range(flip_tries):
            pt = draw_point(cfg, g, n, s, True)
            X, H = pt.X, pt.H
            M = plan.run([H, *X])[0]
            M = (M + M.T) / 2.0
            eigs = np.linalg.eigvalsh(M)
            if eigs[0] < -cfg.tol:
                return Witness(n=n, X=X, H=H, min_eig=float(eigs[0]), sample_index=s)
            if eigs[-1] > cfg.tol:
                Xn = _negate_tuple(X)
                me = min_eigenvalue(plan.run([H, *Xn])[0])
                if me < -cfg.tol:
                    return Witness(n=n, X=Xn, H=H, min_eig=me, sample_index=s)
    return sample_matrix_positive(lap, cfg).witness


def classify(p: Poly, cfg: Optional[SampleConfig] = None) -> Verdict:
    """Full classification of a homogeneous polynomial in two variables.

    Certified verdicts carry machine-checkable certificates (an inequality
    record, membership coefficients, or an exact PSD Gram form); refutations
    carry a numeric witness or an exact algebraic obstruction.
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
        if trace == 0:
            return Verdict(kind="Harmonic", reason="Laplacian is exactly zero")
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
            witness = sample_matrix_positive(lap, cfg).witness
            return Verdict(
                kind="NotSubharmonic",
                reason="forced degree-4 coefficient relations fail: " + ", ".join(broken),
                witness=witness,
            )
        B = Degree4Coeffs(A["A1"], A["A2"], A["A3"], A["A5"], A["A6"], A["A8"])
        region = degree4_inequalities(B)
        if region.kind == "StrictlyInside":
            return Verdict(
                kind="PurelySubharmonicCertified",
                reason="degree-4 inequalities hold strictly",
                region=region,
            )
        if region.kind == "Boundary":
            try:
                form = gram_from_neighbors(p)
                if is_psd_rational([list(row) for row in form.phi]):
                    return Verdict(
                        kind="SubharmonicBoundaryCertified",
                        reason="exact PSD Gram certificate on the inequality boundary",
                        region=region,
                        sos=sos_decompose(p),
                    )
            except GramObstruction as obstruction:
                verdict = sample_matrix_positive(lap, cfg)
                return Verdict(
                    kind="NotSubharmonic" if verdict.witness else "Unknown",
                    reason=obstruction.reason,
                    region=region,
                    witness=verdict.witness,
                )
            verdict = sample_matrix_positive(lap, cfg)
            return Verdict(
                kind="NotSubharmonic" if verdict.witness else "Unknown",
                reason="boundary point without a PSD Gram certificate",
                region=region,
                witness=verdict.witness,
            )
        witness = sample_matrix_positive(lap, cfg).witness
        return Verdict(
            kind="NotSubharmonic",
            reason="degree-4 inequalities violated",
            region=region,
            witness=witness,
        )

    membership = high_even_membership(p)
    if membership is None:
        witness = sample_matrix_positive(lap, cfg).witness
        return Verdict(
            kind="NotSubharmonic",
            reason="outside the three-generator family for even degree >= 6",
            witness=witness,
        )
    c0, c1, c2 = membership
    if c0 > 0:
        return Verdict(
            kind="PurelySubharmonicCertified",
            reason="member of the even-degree family with c0 > 0; "
            "the Laplacian is an exact sum of squares",
            membership=membership,
        )
    if c0 == 0:
        return Verdict(kind="Harmonic", membership=membership,
                       reason="member of the even-degree family with c0 = 0")
    witness = sample_matrix_positive(lap, cfg).witness
    return Verdict(
        kind="NotSubharmonic",
        reason="member of the even-degree family with c0 < 0; "
        "the Laplacian is a negative multiple of a sum of squares",
        membership=membership,
        witness=witness,
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
        acc = Poly.zero(self.g)
        if self.basis is None:
            return acc
        gam = self.basis.elements
        for m, plane in enumerate(self.phi):
            for i, row in enumerate(plane):
                xi = Poly.variable(self.g, i + 1)
                for j, c in enumerate(row):
                    if c:
                        acc = acc + (gam[m] * xi * gam[j]).scale(c)
        return acc


def odd_sandwich(p: Poly) -> OddSandwich:
    """Exact sandwich coefficients of a harmonic p of odd degree >= 3.

    Computed by the right-neighbor split at (d-1)/2 + 1 followed by
    expression of the aggregated left factors over the same basis; the
    reconstruction is verified exactly.  Raises ValueError when p is not
    harmonic and GramObstruction when the decomposition is infeasible.
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
    g = p.g
    m = (d - 1) // 2
    basis = harmonic_basis(g, m)
    if check_independence_property(basis) is None:
        raise GramObstruction(
            f"harmonic basis for (g={g}, d={m}) lacks the independence property"
        )
    k = basis.dimension
    dec = right_neighbor(p, m + 1)
    # mu[j] maps the leading word t*x_i to the j-th basis coordinate.
    pj_by_letter: list[list[dict]] = [
        [dict() for _ in range(g)] for _ in range(k)
    ]
    for lead, part in dec.parts.items():
        coords = express_in_basis(part, basis)
        if coords is None:
            raise GramObstruction(
                "a right neighbor at (d-1)/2 is not harmonic; no sandwich form"
            )
        t, letter = lead[:-1], lead[-1]
        for j, c in enumerate(coords):
            if c:
                pj_by_letter[j][letter - 1][t] = c
    phi = []
    for mdx in range(k):
        plane = []
        for i in range(g):
            plane.append([Fraction(0)] * k)
        phi.append(plane)
    for j in range(k):
        for i in range(g):
            q = Poly(g, pj_by_letter[j][i])
            if q.is_zero():
                continue
            coords = express_in_basis(q, basis)
            if coords is None:
                raise GramObstruction(
                    "an aggregated left factor is not harmonic; no sandwich form"
                )
            for mdx, c in enumerate(coords):
                phi[mdx][i][j] = c
    result = OddSandwich(
        g=g,
        d=d,
        basis=basis,
        phi=tuple(tuple(tuple(row) for row in plane) for plane in phi),
    )
    if result.reconstruct() != p:
        raise GramObstruction("sandwich form failed exact reconstruction")
    return result


def odd_sandwich_vanishing_check(s: OddSandwich) -> bool:
    """Verify the three exact cancellation identities satisfied by the
    sandwich coefficients of a harmonic polynomial (grouped by how many h
    letters land in the right half of each term)."""
    if s.basis is None:
        return True
    g, k = s.g, s.basis.dimension
    gam = s.basis.elements
    h = Poly.direction(g)
    zero = Poly.zero(g)

    first = zero
    for m in range(k):
        inner = zero
        for i in range(1, g + 1):
            q = zero
            for j in range(k):
                c = s.phi[m][i - 1][j]
                if c:
                    q = q + gam[j].scale(c)
            if not q.is_zero():
                inner = inner + directional_derivative(q, i)
        first = first + gam[m] * h * inner

    second = zero
    for j in range(k):
        outer = zero
        for i in range(1, g + 1):
            q = zero
            for m in range(k):
                c = s.phi[m][i - 1][j]
                if c:
                    q = q + gam[m].scale(c)
            if not q.is_zero():
                outer = outer + directional_derivative(q, i)
        second = second + outer * h * gam[j]

    third = zero
    for ell in range(1, g + 1):
        for i in range(1, g + 1):
            for j in range(k):
                q = zero
                for m in range(k):
                    c = s.phi[m][i - 1][j]
                    if c:
                        q = q + gam[m].scale(c)
                if q.is_zero():
                    continue
                third = third + directional_derivative(q, ell) * Poly.variable(
                    g, i
                ) * directional_derivative(gam[j], ell)

    return first.is_zero() and second.is_zero() and third.is_zero()
