"""Property tests: round trips and library results against the oracles.

Examples are derandomized and few, so the module runs in about a second
and gives the same cases on every run.
"""

import json
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncharm import (
    Degree4Coeffs,
    Poly,
    SampleConfig,
    classify,
    degree4_family,
    degree4_inequalities,
    laplacian,
    parse,
)
from ncharm._exactla import RowSpan
from ncharm.classify2 import _combine
from ncharm.cli import emit_json
from ncharm.middlematrix import extract, reconstruct
from ncharm.ncpoly import word, word_key

from _helpers import (
    assert_point_check_matches,
    express_oracle,
    laplacian_fraction_reference,
    laplacian_oracle,
    random_point,
    rank_oracle,
    sweep_points,
)

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)

fractions = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 6)
)


@st.composite
def polys(draw, with_h=True, max_len=4):
    g = draw(st.integers(1, 3))
    letters = st.integers(0 if with_h else 1, g)
    words = st.lists(letters, max_size=max_len).map(bytes)
    terms = draw(st.dictionaries(words, fractions, max_size=5))
    return Poly(g, terms)


@st.composite
def two_h_symmetric(draw):
    g = draw(st.integers(1, 3))
    xwords = st.lists(st.integers(1, g), max_size=2).map(bytes)
    terms = {}
    for left, mid, right, c in draw(
        st.lists(st.tuples(xwords, xwords, xwords, fractions), max_size=4)
    ):
        w = left + b"\0" + mid + b"\0" + right
        terms[w] = terms.get(w, 0) + c
    p = Poly(g, terms)
    return p + p.transpose()


@st.composite
def dependent_systems(draw):
    """Rows that are combinations of fewer base rows, and a target that is
    a combination of the rows or an arbitrary vector."""
    ncols = draw(st.integers(1, 5))
    vectors = st.lists(fractions, min_size=ncols, max_size=ncols)
    base = draw(st.lists(vectors, min_size=1, max_size=3))
    weights = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    rows = [
        [sum(w * b[j] for w, b in zip(ws, base)) for j in range(ncols)]
        for ws in draw(st.lists(weights, min_size=1, max_size=6))
    ]
    if draw(st.booleans()):
        cs = draw(st.lists(fractions, min_size=len(rows), max_size=len(rows)))
        target = [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(ncols)]
    else:
        target = draw(vectors)
    return rows, target


@st.composite
def weighted_polys(draw):
    """(g, [(c, q), ...]) over one g, with coefficients that include 0 and
    1 and terms that cancel and come back."""
    g = draw(st.integers(1, 3))
    words = st.lists(st.integers(0, g), max_size=3).map(bytes)
    shared = draw(st.lists(words, min_size=1, max_size=4))
    terms = st.dictionaries(st.sampled_from(shared) | words, fractions, max_size=4)
    coeffs = st.sampled_from([Fraction(0), Fraction(1), 1, -1]) | fractions
    pairs = draw(st.lists(st.tuples(coeffs, terms.map(lambda t: Poly(g, t))), max_size=6))
    return g, pairs


@bounded
@given(weighted_polys())
def test_combine_matches_repeated_add(case):
    g, pairs = case
    acc = Poly.zero(g)
    for c, q in pairs:
        acc = acc + q.scale(c)
    got = _combine(g, pairs)
    assert got == acc
    assert list(got._terms.items()) == list(acc._terms.items())


@bounded
@given(polys())
def test_parse_inverts_render(p):
    assert parse(p.render(), p.g) == p


@bounded
@given(polys())
def test_json_round_trip(p):
    assert Poly.from_json_obj(json.loads(emit_json(p.to_json_obj()))) == p


@bounded
@given(polys(with_h=False, max_len=5))
def test_laplacian_matches_oracle(p):
    assert laplacian(p) == laplacian_oracle(p)


@bounded
@given(two_h_symmetric())
def test_middle_matrix_round_trip(q):
    assert reconstruct(extract(q)) == q


@st.composite
def symmetric_h_free(draw):
    """q + q^T over g <= 4 letters.  q's words are l x m x r for one or
    two templates (l, m, r), each with up to four distinct letters x and
    coefficients +-1, so that the Laplacian word l h m h r sums terms that
    cancel and come back."""
    g = draw(st.integers(1, 4))
    piece = st.lists(st.integers(1, g), max_size=2).map(bytes)
    letters = st.lists(st.tuples(st.integers(1, g), st.sampled_from([1, -1])),
                       min_size=min(g, 3), max_size=4, unique_by=lambda t: t[0])
    terms = {}
    for left, mid, right in draw(st.lists(st.tuples(piece, piece, piece),
                                          min_size=1, max_size=2)):
        for x, c in draw(letters):
            w = left + bytes([x]) + mid + bytes([x]) + right
            terms[w] = terms.get(w, 0) + c
    q = Poly(g, terms)
    return q + q.transpose()


@bounded
# Lap words h*h*x2 and x2*h*h are deleted and inserted again.
@example(parse("x1^2*x2 - x2^3 + x3^2*x2 + x2*x1^2 + x2*x3^2", 3))
@given(symmetric_h_free())
def test_extract_of_laplacian_shares_one_fraction_per_value(p):
    lap = laplacian(p)
    rep = extract(lap)
    assert reconstruct(rep) == lap
    values = [c for row in rep.Z for z in row for c in z._terms.values()]
    assert len({id(c) for c in values}) == len(set(values))


def test_laplacian_and_extract_term_order_with_edge_letters():
    # Mixed lengths over x1, x2 and x254 (MAX_VARS), with repeats at both
    # ends so that Lap words start and end with h: the same term order as
    # the Fraction reference, and extract of both gives the same border and
    # the same cell term order.
    rnd = random.Random(30)
    for _ in range(100):
        terms = {}
        for _ in range(rnd.randint(1, 8)):
            w = bytes(rnd.choice([1, 2, 254]) for _ in range(rnd.randint(0, 6)))
            if w and rnd.random() < 0.5:
                w = w[:1] + w + w[-1:]
            terms[w] = terms.get(w, 0) + Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        q = Poly(254, terms)
        p = q + q.transpose()
        lap, ref = laplacian(p), laplacian_fraction_reference(p)
        assert list(lap._terms.items()) == list(ref._terms.items())
        got, want = extract(lap), extract(ref)
        assert (got.g, got.border) == (want.g, want.border)
        for got_row, want_row in zip(got.Z, want.Z):
            for z, w in zip(got_row, want_row):
                assert list(z._terms.items()) == list(w._terms.items())


# Lap words h*h*x2 and x2*h*h are deleted and inserted again.
@bounded
@example(parse("x1^2*x2 - x2^3 + x3^2*x2 + x2*x1^2 + x2*x3^2", 3), 2, 0)
@given(symmetric_h_free(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_point_check_equals_evaluate_middle(p, n, seed):
    assert_point_check_matches(p, random_point(random.Random(seed), p.g, n))


def test_point_check_with_edge_letters():
    # The words of test_laplacian_and_extract_term_order_with_edge_letters, up
    # to 8 letters over x1, x2 and x254.
    rnd = random.Random(30)
    X = random_point(rnd, 254, 2)
    for _ in range(100):
        terms = {}
        for _ in range(rnd.randint(1, 8)):
            w = bytes(rnd.choice([1, 2, 254]) for _ in range(rnd.randint(0, 6)))
            if w and rnd.random() < 0.5:
                w = w[:1] + w + w[-1:]
            terms[w] = terms.get(w, 0) + Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        q = Poly(254, terms)
        assert_point_check_matches(q + q.transpose(), X)


def test_point_check_codes_past_int64_cancelled_and_reinserted():
    # With u = x1*x2*x254*x1*x2, Lap word u*h^2*x2 cancels within u*x2^3 and
    # comes back from u*x254^2*x2, after u*h*x2*h: words of 8 letters over
    # x1, x2 and x254.
    u = (1, 2, 254, 1, 2)
    q = parse("x1*x2*x254*x1*x2*(x1^2*x2 - x2^3 + x254^2*x2)", 254)
    p = q + q.transpose()
    terms = list(laplacian(p)._terms)
    assert terms.index(word(*u, 0, 0, 2)) > terms.index(word(*u, 0, 2, 0))
    for n in (1, 2, 3):
        assert_point_check_matches(p, random_point(random.Random(39), 254, n))


def test_point_check_on_sweep_points():
    points = sweep_points()
    assert len(points) == 32
    for p, X in points:
        assert assert_point_check_matches(p, X).shape[0] > 0


# Lap word h*x4*h cancels and comes back after h*x5*h, in the same cell.
# The second is the reinsertion example of
# test_point_check_equals_evaluate_middle, and the third cancels and
# reinserts as in test_point_check_codes_past_int64_cancelled_and_reinserted,
# over three letters.
REINSERTED = [
    parse("x1*x4*x1 - x2*x4*x2 + x1*x5*x1 + x3*x4*x3", 5),
    parse("x1^2*x2 - x2^3 + x3^2*x2 + x2*x1^2 + x2*x3^2", 3),
    parse("x1*x2*x1*x2*(x1^2*x2 - x2^3 + x3^2*x2)"
          " + T(x1*x2*x1*x2*(x1^2*x2 - x2^3 + x3^2*x2))", 3),
]


def test_cells_list_terms_in_canonical_mid_order():
    rep = extract(parse("h*x2*h + h*x1*h", 2))
    assert list(rep.Z[0][0]._terms) == [word(1), word(2)]
    # Lap(x2^3 + x1^3) lists h*x2*h before h*x1*h, and REINSERTED[0]
    # lists h*x5*h before the reinserted h*x4*h.
    terms = list(laplacian(REINSERTED[0])._terms)
    assert terms.index(word(0, 4, 0)) > terms.index(word(0, 5, 0))
    for p in [parse("x2^3 + x1^3", 2), *REINSERTED]:
        for row in extract(laplacian(p)).Z:
            for z in row:
                assert list(z._terms) == sorted(z._terms, key=word_key)
        for n in (1, 2):
            assert_point_check_matches(p, random_point(random.Random(n), p.g, n))


@bounded
@given(dependent_systems())
def test_row_span_express_matches_oracle(system):
    rows, target = system
    span = RowSpan(rows, len(target))
    assert span.rank == rank_oracle(rows)
    assert span.express(target) == express_oracle(rows, target)


nonnegative = st.builds(Fraction, st.integers(0, 9), st.integers(1, 6))


@bounded
@example(Hh=Fraction(0), Jj=Fraction(1), K=Fraction(1), b1=Fraction(1),
         b2=Fraction(0), G0=Fraction(2))
@given(Hh=nonnegative, Jj=fractions, K=fractions, b1=fractions, b2=fractions,
       G0=nonnegative)
def test_degree4_boundary_is_certified(Hh, Jj, K, b1, b2, G0):
    # G = (Jj^2 + K^2) / Hh puts B on the boundary; Hh = 0 needs Jj = K = 0
    # and leaves any G = G0 >= 0.
    if Hh == 0:
        Jj = K = Fraction(0)
        G = G0
    else:
        G = (Jj * Jj + K * K) / Hh
    B = Degree4Coeffs(b1, b2, b2 - Jj, K - b1, G - b1, Hh - b1)
    assert degree4_inequalities(B).kind == "Boundary"
    p = degree4_family(B)
    v = classify(p, SampleConfig(seed=0))
    if laplacian(p).is_zero():
        assert v.kind == "Harmonic"
        return
    assert v.kind == "SubharmonicBoundaryCertified"
    assert v.sos.reconstruct() == laplacian(p)
    assert all(weight > 0 for weight, _ in v.sos.terms)
