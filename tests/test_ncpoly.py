import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ncharm import (
    MatrixPoint,
    ParseError,
    Poly,
    degree_profile,
    evaluate,
    parse,
    symmetrize,
    word,
)
from ncharm.cli import emit_json
from ncharm import ncpoly
from ncharm.harmonicspace import gamma_power_parts
from ncharm.ncpoly import EvalPlan

from _helpers import evaluate_oracle, mul_oracle, random_poly


x1 = Poly.variable(2, 1)
x2 = Poly.variable(2, 2)
h = Poly.direction(2)


class TestParse:
    def test_single_word(self):
        p = parse("x1^2*x2", 2)
        assert p == Poly.monomial(2, word(1, 1, 2))

    def test_constant_plus_powers(self):
        p = parse("3 + x1^2 + 5*x2^3", 2)
        assert p == Poly.constant(2, 3) + x1 * x1 + (x2 ** 3).scale(5)

    def test_commutator(self):
        p = parse("x1*x2 - x2*x1", 2)
        assert p.coefficient(word(1, 2)) == 1
        assert p.coefficient(word(2, 1)) == -1
        assert len(p) == 2

    def test_fraction_coefficients(self):
        p = parse("5/2*x1 - 1/3", 2)
        assert p.coefficient(word(1)) == Fraction(5, 2)
        assert p.coefficient(b"") == Fraction(-1, 3)

    def test_transpose_operator(self):
        assert parse("T(x1*x2)", 2) == parse("x2*x1", 2)
        assert parse("T(h*x1*x2)", 2) == parse("x2*x1*h", 2)

    def test_parentheses_and_products(self):
        assert parse("(x1 + x2)*(x1 - x2)", 2) == parse(
            "x1^2 - x1*x2 + x2*x1 - x2^2", 2
        )

    def test_multidigit_variable_index(self):
        p = parse("x12", 12)
        assert p == Poly.variable(12, 12)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse("x1 + * x2", 2)
        assert "position 5" in str(info.value)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError) as info:
            parse("x3", 2)
        assert "out of range" in str(info.value)

    def test_variable_count_cap(self):
        assert parse("x254^2", 254) == Poly.variable(254, 254) ** 2
        for g in (255, 300):
            with pytest.raises(ValueError, match="at most 254"):
                parse("x1", g)
            with pytest.raises(ValueError, match="at most 254"):
                Poly(g)

    def test_expansion_cap(self):
        limit = ncpoly.MAX_PARSE_LETTERS
        # Twelve two-term factors expand to 4096 words of 12 letters; the
        # thirteenth product would write 8192 * 13 letters.
        assert len(parse("*".join(["(x1+x2)"] * 12), 2)) == 4096
        with pytest.raises(ParseError, match="106496 letters exceeds MAX_PARSE_LETTERS"):
            parse("*".join(["(x1+x2)"] * 13), 2)
        assert parse(f"x1^{limit}", 2) == Poly.monomial(2, bytes([1]) * limit)
        with pytest.raises(ParseError, match=f"{limit + 1} letters"):
            parse(f"h^{limit + 1}", 2)
        assert parse("x1^0*h^2", 2) == parse("h^2", 2)

    def test_nesting_cap(self):
        depth = ncpoly.MAX_PARSE_DEPTH
        x1 = Poly.variable(2, 1)
        assert parse("(" * depth + "x1" + ")" * depth, 2) == x1
        assert parse("T(" * depth + "x1" + ")" * depth, 2) == x1
        with pytest.raises(ParseError, match="exceeds MAX_PARSE_DEPTH") as info:
            parse("(" * 2000 + "x1" + ")" * 2000, 2)
        assert info.value.position == depth
        # Levels count wherever they open: inside products and after T(.
        nested = "x2*(" * depth + "T(x1)" + ")" * depth
        with pytest.raises(ParseError) as info:
            parse(nested, 2)
        assert info.value.position == 4 * depth

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x1 x2", 2)

    def test_fuzz_never_crashes(self):
        rnd = random.Random(15)
        alphabet = "x12h*+-^/() T3"
        for _ in range(300):
            text = "".join(
                rnd.choice(alphabet) for _ in range(rnd.randint(1, 15))
            )
            try:
                parse(text, 2)
            except ParseError:
                pass


class TestArithmetic:
    def test_add_cancels(self):
        assert (x1 + (-x1)).is_zero()
        assert len(x1 - x1) == 0

    def test_scale_by_zero(self):
        assert (x1 * x2).scale(0).is_zero()

    def test_commutator_is_im_gamma_squared(self):
        # (x1 + i x2)^2 has imaginary part x1*x2 + x2*x1.
        assert x1 * x2 + x2 * x1 == gamma_power_parts(2)[1]

    def test_mul_simple(self):
        assert x1 * x2 == Poly.monomial(2, word(1, 2))

    def test_mul_expansion(self):
        lhs = (x1 + x2) * (x1 - x2)
        assert lhs == parse("x1^2 - x1*x2 + x2*x1 - x2^2", 2)

    def test_square_of_re_gamma2(self):
        re2 = gamma_power_parts(2)[0]
        expected = mul_oracle(re2, re2)
        assert re2 * re2 == expected
        assert expected == parse("x1^4 - x1^2*x2^2 - x2^2*x1^2 + x2^4", 2)

    def test_mismatched_num_vars(self):
        with pytest.raises(ValueError):
            Poly.variable(2, 1) + Poly.variable(3, 1)
        with pytest.raises(ValueError):
            Poly.variable(2, 1) * Poly.variable(3, 1)

    def test_mul_matches_oracle_random(self):
        rnd = random.Random(101)
        for _ in range(40):
            p = random_poly(rnd, 2, 3, with_h=True)
            q = random_poly(rnd, 2, 3, with_h=True)
            assert p * q == mul_oracle(p, q)


class TestTranspose:
    def test_examples(self):
        assert (x1 * x2).transpose() == x2 * x1
        palindrome = parse("x1^2*x2*x1 + x1*x2*x1^2", 2)
        assert palindrome.transpose() == palindrome
        assert parse("h*x1*x2", 2).transpose() == parse("x2*x1*h", 2)

    def test_involution_random(self):
        rnd = random.Random(7)
        for _ in range(100):
            p = random_poly(rnd, 3, 4, with_h=True)
            assert p.transpose().transpose() == p

    def test_anti_homomorphism_random(self):
        rnd = random.Random(8)
        for _ in range(60):
            p = random_poly(rnd, 2, 3, with_h=True)
            q = random_poly(rnd, 2, 3, with_h=True)
            assert (p * q).transpose() == q.transpose() * p.transpose()

    def test_ring_laws_random(self):
        rnd = random.Random(9)
        for _ in range(30):
            p = random_poly(rnd, 2, 3)
            q = random_poly(rnd, 2, 3)
            r = random_poly(rnd, 2, 3)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (p + q) * r == p * r + q * r


class TestEvaluate:
    def _point(self, rnd, n, with_h=False):
        mats = []
        for _ in range(3 if with_h else 2):
            A = np.array(
                [[rnd.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
            )
            mats.append(symmetrize(A))
        if with_h:
            return MatrixPoint(X=tuple(mats[:2]), H=mats[2])
        return MatrixPoint(X=tuple(mats))

    def test_constant_and_powers(self):
        rnd = random.Random(11)
        pt = self._point(rnd, 3)
        p = parse("3 + x1^2 + 5*x2^3", 2)
        X1, X2 = pt.X
        expected = 3 * np.eye(3) + X1 @ X1 + 5 * (X2 @ X2 @ X2)
        assert np.allclose(evaluate(p, pt), expected, atol=1e-12)

    def test_commutator_vanishes_on_diagonals(self):
        pt = MatrixPoint(X=(np.diag([1.0, 2.0]), np.diag([3.0, -1.0])))
        p = parse("x1*x2 - x2*x1", 2)
        assert np.allclose(evaluate(p, pt), np.zeros((2, 2)))

    def test_identity(self):
        pt = MatrixPoint(X=(np.eye(4), np.zeros((4, 4))))
        assert np.allclose(evaluate(x1, pt), np.eye(4))

    def test_transpose_compatibility_random(self):
        rnd = random.Random(12)
        for _ in range(50):
            p = random_poly(rnd, 2, 4, with_h=True)
            pt = self._point(rnd, rnd.randint(1, 4), with_h=True)
            lhs = evaluate(p.transpose(), pt)
            rhs = evaluate(p, pt).T
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def _plan_poly(self, rnd, g):
        """A random polynomial with a constant term, h letters and words
        that share prefixes."""
        stems = [bytes(rnd.randint(0, g) for _ in range(rnd.randint(1, 4)))
                 for _ in range(3)]
        terms = {b"": Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))}
        for _ in range(rnd.randint(1, 10)):
            tail = bytes(rnd.randint(0, g) for _ in range(rnd.randint(0, 4)))
            terms[rnd.choice(stems) + tail] = Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))
        return Poly(g, terms)

    def _random_point(self, rnd, g, n):
        def sym():
            A = np.array([[rnd.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
            # Signed zeros, which a product's sum can turn positive.
            return symmetrize(np.where(np.abs(A) < 0.2, -0.0, A))
        return MatrixPoint(X=tuple(sym() for _ in range(g)), H=sym())

    def test_bytes_equal_word_by_word_oracle(self):
        rnd = random.Random(13)
        for _ in range(200):
            g = rnd.randint(1, 3)
            p = self._plan_poly(rnd, g)
            pt = self._random_point(rnd, g, rnd.randint(1, 5))
            assert evaluate(p, pt).tobytes() == evaluate_oracle(p, pt).tobytes()

    def test_stack_slices_equal_single_points(self):
        rnd = random.Random(14)
        for _ in range(40):
            g = rnd.randint(1, 3)
            n = rnd.randint(1, 5)
            p = self._plan_poly(rnd, g)
            points = [self._random_point(rnd, g, n) for _ in range(rnd.randint(1, 9))]
            mats = [np.stack([pt.H for pt in points])]
            mats += [np.stack([pt.X[i] for pt in points]) for i in range(g)]
            stacked = EvalPlan.of(p).run(mats)[0]
            assert stacked.shape == (len(points), n, n)
            for value, pt in zip(stacked, points):
                assert value.tobytes() == evaluate(p, pt).tobytes()
            # A matrix shared by the whole stack broadcasts against it.
            shared = EvalPlan.of(p).run([mats[0], *points[0].X])[0]
            for value, H in zip(shared, mats[0]):
                one = MatrixPoint(X=points[0].X, H=H)
                assert value.tobytes() == evaluate(p, one).tobytes()

    def test_coefficient_beyond_double_range(self):
        p = Poly(2, {word(1): Fraction(10**310), word(2): Fraction(1, 3)})
        with pytest.raises(ValueError, match="coefficient 1000.* outside the double range"):
            EvalPlan.of(p)
        with pytest.raises(ValueError, match="outside the double range"):
            evaluate(p, MatrixPoint(X=(np.eye(2), np.eye(2))))

    def test_h_required(self):
        pt = MatrixPoint(X=(np.eye(2), np.eye(2)))
        with pytest.raises(ValueError):
            evaluate(h, pt)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            MatrixPoint(X=(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MatrixPoint(X=(np.eye(2), np.eye(3)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_rejected(self, bad):
        M = np.array([[1.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            MatrixPoint(X=(np.eye(2), M))
        with pytest.raises(ValueError, match="finite"):
            MatrixPoint(X=(np.eye(2), np.eye(2)), H=M)


class TestEvalPlanKernel:
    """The level-batched kernel against the word-by-word oracle, across its
    padded term tables, sample slices and term chunks."""

    def _sym(self, rnd, n, bound=2.0):
        A = np.array([[rnd.uniform(-bound, bound) for _ in range(n)] for _ in range(n)])
        return symmetrize(np.where(np.abs(A) < 0.2 * bound, -0.0, A))

    def _groups(self, rnd, g, lengths):
        polys = []
        for count in lengths:
            terms = {}
            while len(terms) < count:
                w = bytes(rnd.randint(0, g) for _ in range(rnd.randint(0, 6)))
                terms[w] = Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 7))
            polys.append(Poly(g, terms))
        return polys

    def _point(self, rnd, g, n):
        return MatrixPoint(X=tuple(self._sym(rnd, n) for _ in range(g)), H=self._sym(rnd, n))

    def test_unequal_groups_and_signed_zeros_equal_oracle(self):
        rnd = random.Random(41)
        for _ in range(30):
            g = rnd.randint(1, 3)
            polys = self._groups(rnd, g, [1, 40, 0, 2, 17, 1, 3, 9, 1, 5])
            pt = self._point(rnd, g, rnd.randint(1, 4))
            values = EvalPlan([p._terms for p in polys]).run([pt.H, *pt.X])
            assert values.shape == (len(polys), pt.n, pt.n)
            for value, p in zip(values, polys):
                assert value.tobytes() == evaluate_oracle(p, pt).tobytes()

    def test_stack_slices_and_term_chunks_equal_single_points(self, monkeypatch):
        rnd = random.Random(42)
        polys = self._groups(rnd, 2, [5, 30, 1, 12, 3])
        plan = EvalPlan([p._terms for p in polys])
        n, S = 2, 10
        points = [self._point(rnd, 2, n) for _ in range(S)]
        mats = [np.stack([pt.H for pt in points])]
        mats += [np.stack([pt.X[i] for pt in points]) for i in range(2)]
        runs = [plan.run(mats)]
        # Slices of 3 samples: 0-2, 3-5, 6-8 and 9.
        monkeypatch.setattr(ncpoly, "_RUN_BYTES", 8 * n * n * plan._whole.cost * 3)
        runs.append(plan.run(mats))
        # One sample at a time, the terms in chunks that split groups.
        room = plan._whole.cost // 3
        monkeypatch.setattr(ncpoly, "_RUN_BYTES", 8 * n * n * room)
        assert len(plan._split(0, len(plan._coef), room)) > 2
        runs.append(plan.run(mats))
        for s, pt in enumerate(points):
            for gi, p in enumerate(polys):
                want = evaluate_oracle(p, pt).tobytes()
                assert [r[gi, s].tobytes() for r in runs] == [want] * len(runs)

    def test_run_memory_is_bounded(self):
        rnd = random.Random(43)
        terms = {}
        while len(terms) < 1000:
            w = bytes(rnd.randint(1, 3) for _ in range(18))
            terms[w] = Fraction(rnd.randint(1, 9), rnd.randint(1, 5))
        plan = EvalPlan.of(Poly(3, terms))
        nodes = plan._starts[-1]
        S, n = 64, 3
        mats = [None] + [np.stack([self._sym(rnd, n, 1.0) for _ in range(S)])
                         for _ in range(3)]
        assert nodes >= 10_000
        # Every product of the plan at once would fill the budget 4 times.
        assert nodes * S * n * n * 8 > 4 * ncpoly._RUN_BYTES
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            plan.run(mats)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= ncpoly._RUN_BYTES


class TestDegreeProfile:
    def test_simple(self):
        prof = degree_profile(parse("x1^2*x2", 2))
        assert prof.total_degree == 3
        assert prof.homogeneous_degree == 3
        assert not prof.symmetric

    def test_h_count(self):
        prof = degree_profile(parse("h*x1*h", 2))
        assert prof.h_degree_per_word == {word(0, 1, 0): 2}

    def test_re_gamma4(self):
        re4 = gamma_power_parts(4)[0]
        prof = degree_profile(re4)
        assert prof.homogeneous_degree == 4
        assert prof.symmetric

    def test_inhomogeneous(self):
        prof = degree_profile(parse("x1 + x1^2", 2))
        assert prof.homogeneous_degree is None
        assert prof.total_degree == 2

    def test_zero(self):
        prof = degree_profile(Poly.zero(2))
        assert prof.total_degree == 0
        assert prof.homogeneous_degree == 0
        assert prof.symmetric


class TestRendering:
    def test_round_trip_random(self):
        rnd = random.Random(13)
        for _ in range(100):
            p = random_poly(rnd, 3, 4, with_h=True)
            text = p.render()
            assert parse(text, 3) == p
            # Canonical rendering is a parse/render fixed point.
            assert parse(text, 3).render() == text

    def test_zero(self):
        assert Poly.zero(2).render() == "0"
        assert parse("0", 2).is_zero()

    def test_exponent_compression(self):
        assert parse("x1*x1*x2", 2).render() == "x1^2*x2"


class TestJson:
    def test_schema_and_round_trip(self):
        p = parse("1/2*x1*h - x2^2", 2)
        obj = p.to_json_obj()
        assert obj["g"] == 2
        assert {"coeff": "1/2", "word": [1, 0]} in obj["terms"]
        assert Poly.from_json_obj(obj) == p

    def test_bit_exact_canonical(self):
        rnd = random.Random(14)
        for _ in range(25):
            p = random_poly(rnd, 2, 4, with_h=True)
            text = emit_json(p.to_json_obj())
            assert emit_json(p.to_json_obj()) == text
            assert Poly.from_json_obj(json.loads(text)) == p
