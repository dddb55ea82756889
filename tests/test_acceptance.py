"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and budget is pinned here.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from ncharm import (
    Degree4Coeffs,
    MatrixPoint,
    MiddleMatrixRep,
    Poly,
    SampleConfig,
    classify,
    degree4_family,
    degree4_inequalities,
    directional_derivative,
    commutative_collapse,
    commutative_laplacian,
    evaluate,
    evaluate_middle,
    extract,
    gamma_power_parts,
    harmonic_basis,
    high_even_membership,
    laplacian,
    laplacian_sos_identity_check,
    ldl_pivots,
    min_eigenvalue,
    parse,
    reconstruct,
    sample_matrix_positive,
    sos_decompose,
    subharmonic_at_point,
    word,
)
from ncharm.cli import run
from ncharm.positivity import draw_symmetric, substream

from _helpers import (
    middle_rep_from_grid,
    random_poly,
    random_symmetric_homogeneous,
    random_two_h_symmetric,
    rank_oracle,
    poly_matrix,
    spans_equal,
)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number:02d} {label}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL"
    print(
        f"[{status}] criterion {number:02d} {label}: "
        f"{elapsed:.3f}s (budget {budget_seconds:g}s)"
    )
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded budget: {elapsed:.3f}s"
    )


def test_criterion_01_derivative_example():
    p = parse("x1^2*x2", 2)
    expected = parse("h*x1*x2 + x1*h*x2", 2)
    directional_derivative(p, 1)  # warm
    with criterion(1, "derivative worked example", 0.001):
        assert directional_derivative(p, 1) == expected


def test_criterion_02_gamma_powers_harmonic():
    with criterion(2, "gamma powers harmonic d=1..12", 1.0):
        for d in range(1, 13):
            re, im = gamma_power_parts(d)
            assert laplacian(re).is_zero()
            assert laplacian(im).is_zero()


def test_criterion_03_two_variable_dimensions():
    with criterion(3, "harmonic dimensions and spans g=2 d=2..8", 5.0):
        basis2 = harmonic_basis(2, 2)
        assert basis2.dimension == 3
        re2, im2 = gamma_power_parts(2)
        assert spans_equal(basis2.elements, [re2, im2, parse("x1*x2", 2)])
        for d in range(3, 9):
            basis = harmonic_basis(2, d)
            assert basis.dimension == 2
            assert spans_equal(basis.elements, gamma_power_parts(d))


def test_criterion_04_degree_three_basis():
    lemma = [
        parse("x2^3 - x1^2*x2 - x2*x1^2 - x1*x2*x1", 2),
        parse("-x1^3 + x1*x2^2 + x2^2*x1 + x2*x1*x2", 2),
    ]
    with criterion(4, "degree-3 basis span", 0.1):
        basis = harmonic_basis(2, 3)
        rows, _ = poly_matrix(list(basis.elements) + lemma)
        assert rank_oracle(rows) == 2
        assert spans_equal(basis.elements, lemma)


def test_criterion_05_middle_matrix_round_trip():
    worked = parse(
        "3*x1*h*x2^2*h*x1 + h*x1*x2*x1*h - h*x1*h*x2^2 - x2^2*h*x1*h"
        " + 5*x1*x2*h*x2*h*x2*x1",
        2,
    )
    with criterion(5, "middle-matrix round trips", 1.0):
        rep = extract(worked)
        assert rep.border == (b"", word(1), word(2, 1), word(2, 2))
        expected = {
            (0, 0): parse("x1*x2*x1", 2),
            (1, 1): parse("3*x2^2", 2),
            (2, 2): parse("5*x2", 2),
            (0, 3): parse("-x1", 2),
            (3, 0): parse("-x1", 2),
        }
        for i in range(4):
            for j in range(4):
                assert rep.Z[i][j] == expected.get((i, j), Poly.zero(2))
        assert reconstruct(rep) == worked
        rnd = random.Random(505)
        for _ in range(50):
            q = random_two_h_symmetric(rnd, 2)
            assert reconstruct(extract(q)) == q


def _general_degree4(A: dict) -> Poly:
    orbits = {
        "A1": [(1, 1, 1, 1)],
        "A2": [(1, 1, 1, 2), (2, 1, 1, 1)],
        "A3": [(1, 1, 2, 1), (1, 2, 1, 1)],
        "A4": [(1, 1, 2, 2), (2, 2, 1, 1)],
        "A5": [(1, 2, 1, 2), (2, 1, 2, 1)],
        "A6": [(1, 2, 2, 1)],
        "A7": [(1, 2, 2, 2), (2, 2, 2, 1)],
        "A8": [(2, 1, 1, 2)],
        "A9": [(2, 1, 2, 2), (2, 2, 1, 2)],
        "A10": [(2, 2, 2, 2)],
    }
    terms = {}
    for name, words in orbits.items():
        for w in words:
            terms[bytes(w)] = Fraction(A[name])
    return Poly(2, terms)


def _laplacian_table_doubled(A: dict) -> MiddleMatrixRep:
    """Twice the documented 7 x 7 middle matrix of the degree-4 Laplacian,
    as functions of the ten orbit coefficients."""
    def lin(*pairs):
        acc = Poly.zero(2)
        for coeff, text in pairs:
            acc = acc + parse(text, 2).scale(coeff)
        return acc.scale(2)

    a = {k: Fraction(v) for k, v in A.items()}
    border = [b"", word(1), word(2), word(1, 1), word(1, 2), word(2, 1),
              word(2, 2)]
    z = [[Poly.zero(2) for _ in range(7)] for _ in range(7)]
    z[0][0] = lin(
        (a["A1"] + a["A8"], "x1^2"),
        (a["A6"] + a["A10"], "x2^2"),
        (a["A3"] + a["A9"], "x1*x2 + x2*x1"),
    )
    z[0][1] = lin((a["A1"] + a["A5"], "x1"), (a["A3"] + a["A7"], "x2"))
    z[0][2] = lin((a["A2"] + a["A9"], "x1"), (a["A5"] + a["A10"], "x2"))
    z[0][3] = lin((a["A1"] + a["A4"], "1"))
    # The documented table lists its degree-2 border entries as m*h; read
    # as h times the transposed monomial, its (x1x2, x2x1) columns land on
    # this border's (x2x1, x1x2) slots, so the two constants swap.
    z[0][4] = lin((a["A2"] + a["A9"], "1"))
    z[0][5] = lin((a["A3"] + a["A7"], "1"))
    z[0][6] = lin((a["A4"] + a["A10"], "1"))
    z[1][1] = lin((a["A1"] + a["A6"], "1"))
    z[1][2] = lin((a["A2"] + a["A7"], "1"))
    z[2][2] = lin((a["A8"] + a["A10"], "1"))
    for i in range(7):
        for j in range(i):
            z[i][j] = z[j][i].transpose()
    return middle_rep_from_grid(2, border, z)


def test_criterion_06_degree4_middle_matrix_table():
    with criterion(6, "degree-4 Laplacian matches doubled table", 1.0):
        names = [f"A{k}" for k in range(1, 11)]
        for unit in names:
            A = {name: Fraction(int(name == unit)) for name in names}
            lap = laplacian(_general_degree4(A))
            expected = reconstruct(_laplacian_table_doubled(A))
            assert lap == expected
            assert extract(lap) == extract(expected)
        rnd = random.Random(606)
        A = {name: Fraction(rnd.randint(1, 9), rnd.randint(1, 4))
             for name in names}
        rep = extract(laplacian(_general_degree4(A)))
        table = _laplacian_table_doubled(A)
        assert rep.border == table.border
        for i in range(7):
            for j in range(7):
                assert rep.Z[i][j] == table.Z[i][j]


def _seeded_degree4_tuples(seed: int, want: str, count: int):
    rnd = random.Random(seed)
    found = []
    while len(found) < count:
        raw = [Fraction(rnd.randint(-10, 10), rnd.randint(1, 6))
               for _ in range(6)]
        scale = max(abs(v) for v in raw)
        if not scale:
            continue
        # Normalize to max |b_i| = 1 so the margin below is scale-free.
        B = Degree4Coeffs(*[v / scale for v in raw])
        region = degree4_inequalities(B)
        if want == "inside" and region.kind == "StrictlyInside":
            found.append(B)
        elif want == "violated" and region.kind == "Violated":
            margin = region.Jj ** 2 + region.K ** 2 - region.Hh * region.G
            if margin >= Fraction(1, 10):
                found.append(B)
    return found


def test_criterion_07_degree4_cone():
    with criterion(7, "degree-4 cone sampling both directions", 60.0):
        inside = _seeded_degree4_tuples(7001, "inside", 100)
        min_pivot = float("inf")
        for B in inside:
            rep = extract(laplacian(degree4_family(B)))
            for n in (1, 2, 3, 4):
                for s in range(200):
                    X = tuple(
                        draw_symmetric(substream(7002, n, s, slot), n, 1.0)
                        for slot in range(2)
                    )
                    pivots, psd = ldl_pivots(evaluate_middle(rep, X), 1e-9)
                    assert psd
                    min_pivot = min(min_pivot, min(pivots))
        assert min_pivot >= -1e-8

        violated = _seeded_degree4_tuples(7003, "violated", 100)
        cfg = SampleConfig(seed=7004)
        for B in violated:
            lap = laplacian(degree4_family(B))
            verdict = sample_matrix_positive(lap, cfg)
            assert verdict.kind == "Counterexample"
            w = verdict.witness
            again = min_eigenvalue(evaluate(lap, MatrixPoint(X=w.X, H=w.H)))
            assert abs(again - w.min_eig) <= 1e-10


def test_criterion_08_boundary_certificates():
    re2 = gamma_power_parts(2)[0]
    cases = [re2 * re2, parse("x1*x2^2*x1", 2)]
    cfg = SampleConfig(seed=808)
    with criterion(8, "boundary Gram certificates", 1.0):
        for p in cases:
            verdict = classify(p, cfg)
            assert verdict.kind == "SubharmonicBoundaryCertified"
            assert verdict.sos is not None
            dec = sos_decompose(p)
            assert dec.reconstruct() == p
            assert all(d > 0 for d, _ in dec.terms)
            assert laplacian_sos_identity_check(dec)


def test_criterion_09_high_even_classification():
    cfg = SampleConfig(seed=909)
    rnd = random.Random(909)
    with criterion(9, "even degree >= 6 classification", 5.0):
        for d in (3, 4, 5):
            re_d, _ = gamma_power_parts(d)
            re_2d, im_2d = gamma_power_parts(2 * d)
            for k in range(20):
                c0 = Fraction(rnd.randint(0, 6), rnd.randint(1, 3))
                if k % 5 == 0:
                    c0 = Fraction(0)
                c1 = Fraction(rnd.randint(-6, 6), rnd.randint(1, 3))
                c2 = Fraction(rnd.randint(-6, 6), rnd.randint(1, 3))
                p = (re_d * re_d).scale(c0) + re_2d.scale(c1) + im_2d.scale(c2)
                if p.is_zero():
                    continue
                verdict = classify(p, cfg)
                if c0 > 0:
                    assert verdict.kind == "PurelySubharmonicCertified"
                    assert verdict.membership == (c0, c1, c2)
                else:
                    assert verdict.kind == "Harmonic"
                    assert high_even_membership(p) == (c0, c1, c2)
                # Published identity between the two family presentations.
                im_d = gamma_power_parts(d)[1]
                assert p == (
                    (im_d * im_d).scale(c0)
                    + re_2d.scale(c0 + c1)
                    + im_2d.scale(c2)
                )


def test_criterion_10_odd_degree():
    cfg = SampleConfig(seed=1010)
    rnd = random.Random(1010)
    with criterion(10, "odd degree refutations with witnesses", 10.0):
        targets = [parse("x1^3", 2)]
        while len(targets) < 21:
            d = rnd.choice([3, 5, 7])
            p = random_symmetric_homogeneous(rnd, 2, d)
            if p.is_zero() or laplacian(p).is_zero():
                continue
            targets.append(p)
        for p in targets:
            verdict = classify(p, cfg)
            assert verdict.kind == "NotSubharmonic"
            w = verdict.witness
            assert w is not None
            lap = laplacian(p)
            again = min_eigenvalue(evaluate(lap, MatrixPoint(X=w.X, H=w.H)))
            assert abs(again - w.min_eig) <= 1e-10
            assert again < -cfg.tol


def test_criterion_11_degree3_region():
    family = parse("x1^3 - x1*x2^2 - x2^2*x1 + x2*x1*x2", 2)
    cfg = SampleConfig(seed=1111)
    with criterion(11, "cubic family pointwise region", 1.0):
        for n in (1, 2, 3):
            plus = subharmonic_at_point(
                family, (np.eye(n), np.zeros((n, n))), cfg
            )
            minus = subharmonic_at_point(
                family, (-np.eye(n), np.zeros((n, n))), cfg
            )
            assert plus.kind == "CertifiedAllH"
            assert minus.kind == "CounterexampleH"


def test_criterion_12_sos_pipeline():
    rnd = random.Random(1212)
    cfg = SampleConfig(seed=1212)
    with criterion(12, "sum-of-squares pipeline degree 6 and 8", 10.0):
        for d in (3, 4):
            re_d, _ = gamma_power_parts(d)
            re_2d, im_2d = gamma_power_parts(2 * d)
            for _ in range(10):
                c0 = Fraction(rnd.randint(1, 6), rnd.randint(1, 3))
                c1 = Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
                c2 = Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
                p = (re_d * re_d).scale(c0) + re_2d.scale(c1) + im_2d.scale(c2)
                assert classify(p, cfg).kind == "PurelySubharmonicCertified"
                dec = sos_decompose(p)
                assert dec.reconstruct() == p
                for coeff, r in dec.terms:
                    assert coeff != 0
                    assert laplacian(r).is_zero()
                assert laplacian_sos_identity_check(dec)


def test_criterion_13_collapse_identity():
    rnd = random.Random(1313)
    with criterion(13, "commutative collapse identity", 2.0):
        for _ in range(50):
            g = rnd.randint(1, 3)
            p = random_poly(rnd, g, 6)
            lhs = commutative_collapse(laplacian(p))
            rhs = commutative_laplacian(commutative_collapse(p)).times_h_power(2)
            assert lhs == rhs


def test_criterion_14_three_variable_growth():
    with criterion(14, "three-variable dimension growth", 60.0):
        dims = [harmonic_basis(3, d).dimension for d in range(1, 6)]
        assert dims[0] == 3
        assert dims[1] == 8
        g2 = {1: 2, 2: 3}
        for d in range(2, 6):
            g2_dim = g2.get(d, 2)
            assert dims[d - 1] > g2_dim
        for a, b in zip(dims, dims[1:]):
            assert b > a


def test_criterion_15_byte_determinism():
    family_text = "x1^3 - x1*x2^2 - x2^2*x1 + x2*x1*x2"
    commands = [
        ["sample", "--vars", "2", "--seed", "1515", "--sizes", "1,2,3,4",
         "--samples", "200", family_text],
        ["sample", "--vars", "2", "--seed", "1515", "--sizes", "1,2",
         "--samples", "50", "x1^2"],
        ["classify", "--vars", "2", "--json", "--seed", "1515", "x1^4"],
        ["classify", "--vars", "2", "--json", "--seed", "1515",
         "x1^2 + x2^2"],
    ]
    with criterion(15, "byte-identical JSON across runs", 30.0):
        first = [run(argv) for argv in commands]
        second = [run(argv) for argv in commands]
        assert first == second
