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
    laplacian,
    parse,
    symmetrize,
    word,
)
from ncharm.cli import emit_json
from ncharm import middlematrix, ncpoly
from ncharm.harmonicspace import gamma_power_parts
from ncharm.middlematrix import evaluate_middle, extract
from ncharm.ncpoly import EvalPlan

from _helpers import (
    evaluate_oracle,
    middle_rep_from_grid,
    mul_oracle,
    random_poly,
)


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

    def test_sum_terms_order(self):
        # A key whose sum reaches zero is deleted; a later pair re-inserts
        # it at the end.
        got = ncpoly._sum_terms([("a", 1), ("b", 2), ("a", -1), ("c", 3), ("a", 4)])
        assert list(got.items()) == [("b", 2), ("c", 3), ("a", 4)]
        # out is extended in place and returned.
        out = {"x": 1, "y": 2}
        assert ncpoly._sum_terms([("x", -1), ("z", 5), ("x", 7), ("y", 1)], out) is out
        assert list(out.items()) == [("y", 3), ("z", 5), ("x", 7)]
        assert ncpoly._sum_terms([]) == {}

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

    def test_is_symmetric_compares_values_not_objects(self):
        w, rw = word(1, 2, 2), word(2, 2, 1)
        # Equal values in distinct objects, as Poly._raw may hold them.
        assert Poly._raw(2, {w: Fraction(1, 2), rw: Fraction(2, 4)}).is_symmetric()
        assert not Poly._raw(2, {w: Fraction(1, 2), rw: Fraction(3, 2)}).is_symmetric()
        assert not Poly._raw(2, {w: Fraction(1, 2), rw: Fraction(1, 3)}).is_symmetric()
        assert not Poly._raw(2, {w: Fraction(1, 2)}).is_symmetric()
        rnd = random.Random(10)
        for _ in range(100):
            p = random_poly(rnd, 2, 4, with_h=True)
            for q in (p, p + p.transpose(), p - p.transpose()):
                assert q.is_symmetric() == (q == q.transpose())

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
            stacked = EvalPlan(p).run(mats)
            assert stacked.shape == (len(points), n, n)
            for value, pt in zip(stacked, points):
                assert value.tobytes() == evaluate(p, pt).tobytes()
            # A matrix shared by the whole stack broadcasts against it.
            shared = EvalPlan(p).run([mats[0], *points[0].X])
            for value, H in zip(shared, mats[0]):
                one = MatrixPoint(X=points[0].X, H=H)
                assert value.tobytes() == evaluate(p, one).tobytes()

    def test_coefficient_beyond_double_range(self):
        p = Poly(2, {word(1): Fraction(10**310), word(2): Fraction(1, 3)})
        with pytest.raises(ValueError, match="coefficient 1000.* outside the double range"):
            EvalPlan(p)
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
    """The shared kernel (prefix levels, one stacked matmul per level)
    against the word-by-word oracle: per cell through evaluate_middle, and
    across EvalPlan's sample slices and term chunks."""

    def _sym(self, rnd, n, bound=2.0):
        A = np.array([[rnd.uniform(-bound, bound) for _ in range(n)] for _ in range(n)])
        return symmetrize(np.where(np.abs(A) < 0.2 * bound, -0.0, A))

    def _groups(self, rnd, g, lengths, letters=None):
        letters = letters or range(0, g + 1)
        polys = []
        for count in lengths:
            terms = {}
            while len(terms) < count:
                w = bytes(rnd.choice(letters) for _ in range(rnd.randint(0, 6)))
                terms[w] = Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 7))
            polys.append(Poly(g, terms))
        return polys

    def _point(self, rnd, g, n):
        return MatrixPoint(X=tuple(self._sym(rnd, n) for _ in range(g)), H=self._sym(rnd, n))

    def test_unequal_groups_and_signed_zeros_equal_oracle(self, monkeypatch):
        # Cells of 0 to 40 terms, whose middle words repeat across cells,
        # at matrices with signed zeros; then the same with the terms in
        # chunks of one.
        rnd = random.Random(41)
        for _ in range(30):
            g = rnd.randint(2, 3)
            cells = self._groups(rnd, g, [1, 40, 0, 2, 17, 1, 3, 9, 1], range(1, g + 1))
            Z = tuple(tuple(cells[3 * i : 3 * i + 3]) for i in range(3))
            rep = middle_rep_from_grid(g, (b"", word(1), word(1, 1)), Z)
            pt = self._point(rnd, g, rnd.randint(1, 4))
            n = pt.n
            want = [[evaluate_oracle(z, pt) for z in row] for row in Z]
            got = [evaluate_middle(rep, pt.X)]
            monkeypatch.setattr(middlematrix, "_RUN_BYTES", 8 * n * n)
            got.append(evaluate_middle(rep, pt.X))
            monkeypatch.undo()
            for M in got:
                assert M.shape == (3 * n, 3 * n)
                for i in range(3):
                    for j in range(3):
                        block = M[i * n : (i + 1) * n, j * n : (j + 1) * n]
                        cell = (want[i][j] + want[j][i].T) / 2.0
                        assert block.tobytes() == cell.tobytes()

    def test_stack_slices_and_term_chunks_equal_single_points(self, monkeypatch):
        rnd = random.Random(42)
        p = self._groups(rnd, 2, [60])[0]
        plan = EvalPlan(p)
        n, S = 2, 10
        points = [self._point(rnd, 2, n) for _ in range(S)]
        mats = [np.stack([pt.H for pt in points])]
        mats += [np.stack([pt.X[i] for pt in points]) for i in range(2)]
        runs = [plan.run(mats)]
        cost = ncpoly._cost(plan._levels, len(plan._rows))
        letters = 1 + len(plan.letters)
        # Slices of 3 samples: 0-2, 3-5, 6-8 and 9.
        monkeypatch.setattr(ncpoly, "_RUN_BYTES", 8 * n * n * (3 * cost + letters))
        runs.append(plan.run(mats))
        # One sample at a time, the terms in chunks.
        room = cost // 3
        monkeypatch.setattr(ncpoly, "_RUN_BYTES", 8 * n * n * (room + letters))
        assert len(ncpoly._chunks(plan._rows, plan._levels, plan._index, room)[1]) > 2
        runs.append(plan.run(mats))
        for s, pt in enumerate(points):
            want = evaluate_oracle(p, pt).tobytes()
            assert [r[s].tobytes() for r in runs] == [want] * len(runs)

    def test_split_chunks_fit_their_room(self, monkeypatch):
        # At n = 64 a degree-8 Laplacian does not fit one run: its terms
        # are halved into consecutive chunks whose cost each fits the room,
        # and both EvalPlan.run and evaluate_middle equal an unsplit run.
        re4 = gamma_power_parts(4)[0]
        re8, im8 = gamma_power_parts(8)
        lap = laplacian(re4 * re4 + re8.scale(Fraction(-3, 2)) + im8.scale(Fraction(2, 5)))
        plan, rep = EvalPlan(lap), extract(lap)
        n = 64
        for rows, levels, index, room in (
            (plan._rows, plan._levels, plan._index,
             ncpoly._RUN_BYTES // (8 * n * n) - 1 - len(plan.letters)),
            (rep._cells[3], *rep._cells[4:], ncpoly._RUN_BYTES // (8 * n * n) - 3),
        ):
            step, chunks = ncpoly._chunks(rows, levels, index, room)
            assert step == 1 and len(chunks) > 1
            bounds = [(lo, hi) for lo, hi, _, _ in chunks]
            assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
            assert bounds[-1][1] == len(rows)
            assert all(ncpoly._cost(lv, hi - lo) <= room for lo, hi, lv, _ in chunks)
        pt = self._point(random.Random(45), 2, n)
        split = [plan.run([pt.H, *pt.X]), evaluate_middle(rep, pt.X)]
        monkeypatch.setattr(ncpoly, "_RUN_BYTES", 1 << 40)
        monkeypatch.setattr(middlematrix, "_RUN_BYTES", 1 << 40)
        whole = [plan.run([pt.H, *pt.X]), evaluate_middle(rep, pt.X)]
        assert [M.tobytes() for M in split] == [M.tobytes() for M in whole]

    @pytest.mark.parametrize("shapes", [
        [(2, 2), (3, 3)],
        [(2, 2, 2), (3, 2, 2)],
        [(2, 3), (2, 3)],
        [(1, 1, 2, 2), (2, 2)],
    ])
    def test_run_refuses_matrices_that_do_not_stack(self, shapes):
        plan = EvalPlan(parse("x1*x2 + x2*x1", 2))
        with pytest.raises(ValueError, match=r"matrices of shapes \[.*\] do not stack"):
            plan.run([None, *map(np.zeros, shapes)])

    def test_run_memory_is_bounded(self):
        rnd = random.Random(43)
        terms = {}
        while len(terms) < 1000:
            w = bytes(rnd.randint(1, 3) for _ in range(18))
            terms[w] = Fraction(rnd.randint(1, 9), rnd.randint(1, 5))
        plan = EvalPlan(Poly(3, terms))
        nodes = sum(len(parent) for parent, _ in plan._levels)
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


class TestEvalPlanCompile:
    """Each distinct coefficient object is converted to float once, by
    EvalPlan and by a middle-matrix representation's cells, and the values
    still equal the word-by-word oracle."""

    def _count(self, monkeypatch):
        calls = []

        def counting(c):
            calls.append(c)
            return float(c)

        monkeypatch.setattr(ncpoly, "_float_coefficient", counting)
        return calls

    def _objects(self, polys):
        return len({id(c) for p in polys for c in p._terms.values()})

    def test_repeated_words_shared_fraction_empty_words_and_h(self, monkeypatch):
        half, third = Fraction(1, 2), Fraction(-1, 3)
        pt = MatrixPoint(X=(np.diag([1.0, -2.0]), np.array([[0.5, -0.0], [-0.0, 3.0]])),
                         H=np.array([[0.0, 1.0], [1.0, -1.0]]))
        for terms in ({word(1, 2): half, b"": third, word(0, 1): half, word(2): third},
                      {b"": half}, {}):
            p = Poly._raw(2, terms)
            calls = self._count(monkeypatch)
            plan = EvalPlan(p)
            assert len(calls) == self._objects([p])
            assert plan.run([pt.H, *pt.X]).tobytes() == evaluate_oracle(p, pt).tobytes()

    def test_random_groups(self, monkeypatch):
        rnd = random.Random(44)
        shared = [Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 7)) for _ in range(4)]
        for _ in range(50):
            g = rnd.randint(1, 3)
            words = [bytes(rnd.randint(1, g) for _ in range(rnd.randint(0, 5)))
                     for _ in range(rnd.randint(1, 12))]
            cells = []
            for _ in range(4):
                terms = {}
                for w in rnd.sample(words, rnd.randint(0, len(words))):
                    terms[w] = rnd.choice(shared + [Fraction(rnd.randint(1, 5), 3)])
                cells.append(Poly._raw(g, terms))
            rep = middle_rep_from_grid(g, (b"", word(1)),
                                       ((cells[0], cells[1]), (cells[2], cells[3])))
            calls = self._count(monkeypatch)
            rep._cells
            assert len(calls) == self._objects(cells)
            calls = self._count(monkeypatch)
            EvalPlan(cells[1])
            assert len(calls) == self._objects(cells[1:2])

    def test_middle_matrix_cells(self, monkeypatch):
        # Cells of a middle matrix repeat their middle words, and the
        # Laplacian shares one Fraction per value across cells.
        q = parse("x1^2 + x2^2", 2)
        p = q * q * q
        rep = extract(laplacian(p))
        cells = [z for row in rep.Z for z in row if z]
        calls = self._count(monkeypatch)
        rep._cells
        assert len(calls) == self._objects(cells) < sum(map(len, cells))
        lap = laplacian(p)
        calls = self._count(monkeypatch)
        EvalPlan(lap)
        assert len(calls) == self._objects([lap]) < len(lap)


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
