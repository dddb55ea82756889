import random
from fractions import Fraction

import pytest

from ncharm import (
    CommPoly,
    Poly,
    commutative_collapse,
    commutative_laplacian,
    directional_derivative,
    laplacian,
    parse,
    word,
)

from _helpers import laplacian_fraction_reference, laplacian_oracle, random_poly


x1 = Poly.variable(2, 1)
x2 = Poly.variable(2, 2)


class TestDirectionalDerivative:
    def test_worked_example(self):
        assert directional_derivative(parse("x1^2*x2", 2), 1) == parse(
            "h*x1*x2 + x1*h*x2", 2
        )

    def test_missing_variable(self):
        assert directional_derivative(x2, 1).is_zero()

    def test_single_occurrence(self):
        assert directional_derivative(parse("x1*x2*x1", 2), 2) == parse(
            "x1*h*x1", 2
        )

    def test_rejects_h(self):
        with pytest.raises(ValueError):
            directional_derivative(parse("h*x1", 2), 1)

    def test_index_range(self):
        with pytest.raises(ValueError):
            directional_derivative(x1, 3)
        with pytest.raises(ValueError):
            directional_derivative(x1, 0)

    def test_linearity_random(self):
        rnd = random.Random(21)
        for _ in range(50):
            p = random_poly(rnd, 2, 4)
            q = random_poly(rnd, 2, 4)
            a = Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
            b = Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
            i = rnd.randint(1, 2)
            assert directional_derivative(p.scale(a) + q.scale(b), i) == (
                directional_derivative(p, i).scale(a)
                + directional_derivative(q, i).scale(b)
            )

    def test_respects_transposes_random(self):
        rnd = random.Random(22)
        for _ in range(50):
            p = random_poly(rnd, 2, 4)
            i = rnd.randint(1, 2)
            assert directional_derivative(p.transpose(), i) == (
                directional_derivative(p, i).transpose()
            )

    def test_product_rule_random(self):
        rnd = random.Random(23)
        for _ in range(100):
            p = random_poly(rnd, 2, 3)
            q = random_poly(rnd, 2, 3)
            i = rnd.randint(1, 2)
            assert directional_derivative(p * q, i) == (
                directional_derivative(p, i) * q + p * directional_derivative(q, i)
            )


class TestLaplacian:
    def test_linear_is_harmonic(self):
        assert laplacian(x1).is_zero()

    def test_square(self):
        assert laplacian(x1 * x1) == parse("2*h^2", 2)

    def test_cube(self):
        assert laplacian(x1 ** 3) == parse(
            "2*h^2*x1 + 2*h*x1*h + 2*x1*h^2", 2
        )

    def test_rejects_h(self):
        with pytest.raises(ValueError):
            laplacian(parse("h^2", 2))

    def test_matches_oracle_random(self):
        rnd = random.Random(24)
        for _ in range(60):
            p = random_poly(rnd, 3, 5)
            assert laplacian(p) == laplacian_oracle(p)

    def test_term_order_matches_fraction_reference(self):
        # Mixed denominators up to 12 and up to 12 terms over 2 letters, so
        # many words take contributions that cancel and come back.
        rnd = random.Random(27)
        for _ in range(200):
            g = rnd.randint(1, 3)
            terms = {}
            for _ in range(rnd.randint(1, 12)):
                w = bytes(rnd.randint(1, g) for _ in range(rnd.randint(0, 7)))
                terms[w] = Fraction(rnd.randint(-9, 9), rnd.choice([1, 2, 3, 4, 7, 12]))
            p = Poly(g, terms)
            lap = laplacian(p)
            assert lap == laplacian_oracle(p)
            assert list(lap._terms.items()) == list(
                laplacian_fraction_reference(p)._terms.items()
            )

    def test_cancelled_term_is_reinserted_last(self):
        # h^2*x2 gets +1 from x1^2*x2, cancels against -x2^3, and comes back
        # from x3^2*x2 after x2*h^2, the last word of -x2^3.
        p = Poly(3, {
            word(1, 1, 2): Fraction(1, 2),
            word(2, 2, 2): Fraction(-1, 2),
            word(3, 3, 2): Fraction(1, 3),
            word(1, 3, 1): Fraction(2, 5),
        })
        assert list(laplacian(p)._terms.items()) == [
            (word(0, 2, 0), Fraction(-1)),
            (word(2, 0, 0), Fraction(-1)),
            (word(0, 0, 2), Fraction(2, 3)),
            (word(0, 3, 0), Fraction(4, 5)),
        ]

    def test_two_h_per_word(self):
        rnd = random.Random(25)
        for _ in range(40):
            p = random_poly(rnd, 2, 5)
            for w, _ in laplacian(p).terms():
                assert w.count(0) == 2

    def test_product_rule_random(self):
        rnd = random.Random(26)
        for _ in range(60):
            p = random_poly(rnd, 2, 3)
            q = random_poly(rnd, 2, 3)
            cross = Poly.zero(2)
            for i in (1, 2):
                cross = cross + directional_derivative(p, i) * directional_derivative(q, i)
            assert laplacian(p * q) == (
                laplacian(p) * q + p * laplacian(q) + cross.scale(2)
            )


class TestCollapse:
    def test_commutator(self):
        assert commutative_collapse(parse("x1*x2 - x2*x1", 2)).is_zero()

    def test_merging_example(self):
        p = parse("x1^2*x2*x1 + x1*x2*x1^2 + x1*x2 - x2*x1 + 7", 2)
        cp = commutative_collapse(p)
        assert dict(cp.terms()) == {
            (3, 1, 0): Fraction(2),
            (0, 0, 0): Fraction(7),
        }

    def test_h_word(self):
        cp = commutative_collapse(parse("h*x1*h", 2))
        assert dict(cp.terms()) == {(1, 0, 2): Fraction(1)}

    def test_commutative_laplacian_examples(self):
        assert dict(
            commutative_laplacian(commutative_collapse(x1 * x1)).terms()
        ) == {(0, 0, 0): Fraction(2)}
        assert dict(
            commutative_laplacian(
                commutative_collapse(x1 * x1 + x2 * x2)
            ).terms()
        ) == {(0, 0, 0): Fraction(4)}
        assert dict(
            commutative_laplacian(commutative_collapse(x1 ** 3 * x2)).terms()
        ) == {(1, 1, 0): Fraction(6)}

    def test_commutative_laplacian_rejects_h(self):
        with pytest.raises(ValueError):
            commutative_laplacian(CommPoly(2, {(0, 0, 1): Fraction(1)}))

    def test_collapse_identity_random(self):
        rnd = random.Random(27)
        for _ in range(50):
            g = rnd.randint(1, 3)
            p = random_poly(rnd, g, 6)
            lhs = commutative_collapse(laplacian(p))
            rhs = commutative_laplacian(commutative_collapse(p)).times_h_power(2)
            assert lhs == rhs
