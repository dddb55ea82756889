import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ncharm import (
    MatrixPoint,
    Poly,
    SampleConfig,
    evaluate_middle,
    extract,
    laplacian,
    parse,
    reconstruct,
    render_word,
    sample_matrix_positive,
    subharmonic_at_point,
    symmetrize,
    word,
    zeroes_violation,
)
from ncharm.cli import run
from ncharm._evalplan import _compile
from ncharm.ncpoly import word_key

from _helpers import (
    assert_point_check_matches,
    evaluate_middle_oracle,
    random_point,
    random_symmetric_homogeneous,
    random_two_h_symmetric,
    random_word,
    zeroes_violation_oracle,
)


WORKED_EXAMPLE = (
    "3*x1*h*x2^2*h*x1 + h*x1*x2*x1*h - h*x1*h*x2^2 - x2^2*h*x1*h"
    " + 5*x1*x2*h*x2*h*x2*x1"
)


class TestExtract:
    def test_worked_example(self):
        q = parse(WORKED_EXAMPLE, 2)
        rep = extract(q)
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
        assert reconstruct(rep) == q

    def test_h_squared(self):
        rep = extract(parse("h^2", 2))
        assert rep.border == (b"",)
        assert rep.Z[0][0] == Poly.constant(2, 1)

    def test_laplacian_of_x1_fourth(self):
        rep = extract(laplacian(parse("x1^4", 2)))
        assert rep.border == (b"", word(1), word(1, 1))
        expected = [
            ["2*x1^2", "2*x1", "2"],
            ["2*x1", "2", "0"],
            ["2", "0", "0"],
        ]
        for i in range(3):
            for j in range(3):
                assert rep.Z[i][j] == parse(expected[i][j], 2)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            extract(parse("h*x1*h*x2", 2))

    def test_rejects_wrong_h_count(self):
        with pytest.raises(ValueError):
            extract(parse("h*x1 + x1*h", 2))
        with pytest.raises(ValueError):
            extract(parse("h^2 + x1^2", 2))

    def test_round_trip_random(self):
        rnd = random.Random(31)
        for _ in range(50):
            q = random_two_h_symmetric(rnd, 2)
            rep = extract(q)
            assert reconstruct(rep) == q
            assert sorted(rep.border) == sorted(set(rep.border))
            assert extract(reconstruct(rep)) == rep

    def test_equality_and_hash_follow_the_fields(self):
        a, b = extract(parse(WORKED_EXAMPLE, 2)), extract(parse(WORKED_EXAMPLE, 2))
        a._cells  # the compiled plan is cached state, not a field
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != extract(parse("h*x1*h", 2)) and a != (a.g, a.border, a.Z)

    def test_scales_with_terms_not_cells(self):
        # p = q + q^T, q of 300 random 8-letter words over x1..x6: Lap(p)
        # has ~700 border words, so ~500,000 cells, of which a few thousand
        # hold terms.  A grid of cells takes ~69 MB of traced peak here; the
        # cell terms take ~1 MB.
        rnd = random.Random(2300)
        terms = {}
        for _ in range(300):
            w = random_word(rnd, 6, 8)
            terms[w] = terms.get(w, 0) + Fraction(rnd.randint(-5, 5) or 1, rnd.randint(1, 3))
        q = Poly(6, terms)
        lap = laplacian(q + q.transpose())
        tracemalloc.start()
        try:
            rep = extract(lap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.size > 600 and peak < 8 << 20
        assert reconstruct(rep) == lap
        code, out, _ = run(["middle-matrix", "--vars", "6"], lap.render())
        names = [render_word(bytes([0]) + m) for m in rep.border]
        want = ["border: " + ", ".join(names)] + [
            f"Z[{i + 1}][{j + 1}] = {z.render()}"
            for i, row in enumerate(rep.Z) for j, z in enumerate(row) if not z.is_zero()]
        assert code == 0 and out.splitlines() == want

    def test_cells_and_zeroes_scan_equal_the_grid(self):
        # The cell terms list exactly the grid's terms, by cell row-major,
        # then in canonical mid order, and zeroes_violation equals a
        # row-major scan of the grid.
        rnd = random.Random(2301)
        found = 0
        for k in range(400):
            q = random_two_h_symmetric(rnd, 1 + k % 3)
            rep = extract(q)
            grid = [(i, j, mid, c) for i, row in enumerate(rep.Z) for j, z in enumerate(row)
                    for mid, c in sorted(z._terms.items(), key=lambda t: word_key(t[0]))]
            assert list(rep.cells) == grid
            assert reconstruct(rep) == q
            violation = zeroes_violation(rep)
            assert violation == zeroes_violation_oracle(rep)
            found += violation is not None
        assert 0 < found < 400

    def test_middle_matrix_symmetry(self):
        rnd = random.Random(32)
        for _ in range(30):
            q = random_two_h_symmetric(rnd, 2)
            rep = extract(q)
            for i in range(rep.size):
                for j in range(rep.size):
                    assert rep.Z[i][j].transpose() == rep.Z[j][i]


class TestZeroesViolation:
    def test_degree4_general(self):
        # Any A1 + A4 != 0 forces a zero diagonal facing a nonzero entry.
        p = parse("x1^4", 2)
        rep = extract(laplacian(p))
        # For pure x1^4 the border has no x2 words; check the general case.
        general = parse(
            "x1^4 + x1^2*x2^2 + x2^2*x1^2 + x2^4 + x1*x2^2*x1 + x2*x1^2*x2", 2
        )
        rep = extract(laplacian(general))
        violation = zeroes_violation(rep)
        assert violation is not None
        i, j = violation
        assert rep.border[i] == word(1, 1)
        assert rep.border[j] == b""

    def test_diagonal_positive_constants(self):
        rep = extract(parse("h^2 + x1*h^2*x1", 2))
        assert zeroes_violation(rep) is None

    def test_zero_diagonal_pair(self):
        q = parse("h*x1*h*x1 + x1*h*x1*h", 2)
        rep = extract(q)
        assert rep.border == (b"", word(1))
        assert rep.Z[0][0].is_zero()
        assert rep.Z[0][1] == Poly.variable(2, 1)
        assert zeroes_violation(rep) == (0, 1)

    def test_violation_predicts_sampler_counterexample(self):
        cfg = SampleConfig(seed=2718)
        for text in ("x1^4", "x1^3*x2 + x2*x1^3", "x1^2*x2^2 + x2^2*x1^2"):
            lap = laplacian(parse(text, 2))
            rep = extract(lap)
            assert zeroes_violation(rep) is not None
            verdict = sample_matrix_positive(lap, cfg)
            assert verdict.kind == "Counterexample"


class TestEvaluateMiddle:
    def test_scalar_identity(self):
        rep = extract(parse("h^2", 2))
        X = (np.eye(3), np.zeros((3, 3)))
        assert np.allclose(evaluate_middle(rep, X), np.eye(3))

    def test_worked_example_at_ones(self):
        rep = extract(parse(WORKED_EXAMPLE, 2))
        X = (np.eye(1), np.eye(1))
        expected = np.array(
            [
                [1.0, 0.0, 0.0, -1.0],
                [0.0, 3.0, 0.0, 0.0],
                [0.0, 0.0, 5.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.allclose(evaluate_middle(rep, X), expected)

    def test_bytes_equal_per_cell_oracle(self):
        rnd = random.Random(35)
        for _ in range(30):
            g = rnd.randint(1, 3)
            if rnd.random() < 0.5:
                q = random_two_h_symmetric(rnd, g)
            else:
                q = laplacian(random_symmetric_homogeneous(rnd, g, rnd.randint(2, 6)))
            rep = extract(q)
            n = rnd.randint(1, 4)
            X = tuple(
                symmetrize(np.array([[rnd.uniform(-1, 1) for _ in range(n)]
                                     for _ in range(n)]))
                for _ in range(g)
            )
            want = evaluate_middle_oracle(rep, MatrixPoint(X=X))
            assert evaluate_middle(rep, X).tobytes() == want.tobytes()

    def test_plan_is_compiled_once_per_rep(self, monkeypatch):
        from ncharm import _evalplan

        compiled = []

        def counting_compile(rows):
            compiled.append(len(rows))
            return _compile(rows)

        monkeypatch.setattr(_evalplan, "_compile", counting_compile)
        rep = extract(laplacian(parse("x1^2*x2^2 + x2^2*x1^2 + x1^4", 2)))
        X = (np.diag([1.0, -2.0]), np.array([[0.5, 1.0], [1.0, 0.0]]))
        first = evaluate_middle(rep, X).tobytes()
        assert all(evaluate_middle(rep, X).tobytes() == first for _ in range(3))
        assert len(compiled) == 1

    def test_result_is_exactly_symmetric(self):
        rnd = random.Random(33)
        for _ in range(10):
            q = random_two_h_symmetric(rnd, 2)
            rep = extract(q)
            n = rnd.randint(1, 3)
            from ncharm import symmetrize

            X = tuple(
                symmetrize(np.array([[rnd.uniform(-1, 1) for _ in range(n)]
                                     for _ in range(n)]))
                for _ in range(2)
            )
            M = evaluate_middle(rep, X)
            assert np.array_equal(M, M.T)

    def test_psd_middle_matrix_bounds_every_direction(self):
        # Z(X) PSD forces q(X)[H] PSD for any H, checked by sampling.
        from ncharm import MatrixPoint, evaluate, min_eigenvalue, symmetrize
        from ncharm.positivity import draw_symmetric, ldl_pivots, substream

        rnd = random.Random(34)
        tol = 1e-9
        checked = 0
        while checked < 20:
            q = random_two_h_symmetric(rnd, 2)
            rep = extract(q)
            n = rnd.randint(1, 3)
            X = tuple(
                symmetrize(np.array([[rnd.uniform(-1, 1) for _ in range(n)]
                                     for _ in range(n)]))
                for _ in range(2)
            )
            _, psd = ldl_pivots(evaluate_middle(rep, X), tol)
            if not psd:
                continue
            checked += 1
            for s in range(50):
                H = draw_symmetric(substream(3434, n, s), n, 1.0)
                value = evaluate(q, MatrixPoint(X=X, H=H))
                assert min_eigenvalue(value) >= -tol


class TestEvaluateLaplacianMiddle:
    """The point check's Z(X), evaluate_middle(extract(laplacian(p)), X),
    against the Fraction-reference Laplacian's cells evaluated word by word:
    the same bytes, or a ValueError that subharmonic_at_point raises too."""

    X = (np.array([[0.5, -1.0], [-1.0, 2.0]]), np.array([[0.0, 0.25], [0.25, -3.0]]))

    @pytest.mark.parametrize("text", ["0", "3", "x1 + 2*x2", "x1*x2 + x2*x1",
                                      "x1^2 - x2^2", "20000000000000000000",
                                      "20000000000000000000*x1",
                                      "x1 + 1/10000000000000000000007"])
    def test_empty_laplacian(self, text):
        # Constant and linear terms have no pair of equal letters, and the
        # Laplacian of x1^2 - x2^2 cancels to zero, whatever the size of
        # the numerators.
        assert assert_point_check_matches(parse(text, 2), self.X).shape == (0, 0)

    def test_fewer_matrices_than_variables(self):
        err = assert_point_check_matches(parse("x1*x2*x1", 2), self.X[:1])
        assert str(err) == "point supplies 1 matrices, poly uses more"
        # x2 only flanks the h's, so no middle word needs its matrix.
        assert assert_point_check_matches(parse("x2*x1^2*x2", 2), self.X[:1]).shape == (4, 4)

    @pytest.mark.parametrize("X", [
        (),
        (np.array([[np.inf]]), np.eye(1)),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)),
        (np.eye(2), np.eye(3)),
    ])
    def test_rejected_points(self, X):
        assert isinstance(assert_point_check_matches(parse("x1^4 + x2^4", 2), X), ValueError)

    def test_empty_matrices(self):
        # At 0 x 0 matrices Z(X) is 0 x 0, whatever the border, and an
        # empty matrix is PSD.
        X = (np.zeros((0, 0)),) * 2
        for text in ("x1^2*x2^2 + x2^2*x1^2 + x1^4", "x1*x2*x1", "x1^2 - x2^2"):
            assert assert_point_check_matches(parse(text, 2), X).shape == (0, 0)
        p = parse("x1^2*x2^2 + x2^2*x1^2 + x1^4", 2)
        assert subharmonic_at_point(p, X, SampleConfig()).kind == "CertifiedAllH"

    def test_first_out_of_range_coefficient_in_cell_order(self):
        # Lap(p)'s first term comes from x1^4 and its first cell's from
        # x2*x1^2*x2: Z(X) and the point check name the first in cell order.
        big = 10 ** 309
        p = parse(f"{7 * big}*x1^4 + {big}*x2*x1^2*x2", 2)
        cells = extract(laplacian(p)).Z
        first = next(c for row in cells for z in row for c in z._terms.values())
        assert first != next(iter(laplacian(p)._terms.values()))
        err = assert_point_check_matches(p, self.X)
        assert str(err) == f"coefficient {first} is outside the double range"

    def test_entries_near_overflow(self):
        # The point of the LDL overflow example in test_positivity: Z(X)
        # reaches 6e240, and its LDL overflows.
        p = parse("x1^2*x2^2*x1^2 + x2^6 + x1^6", 2)
        X = ([[1e60, 1], [1, 1e-60]], [[1e-60, 1e60], [1e60, 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = assert_point_check_matches(p, X)
        assert 5e240 < np.abs(Z).max() < 7e240

    @pytest.mark.parametrize("k", [2 ** 62 + 1, 10 ** 40 + 7])
    def test_coefficients_past_int64(self, k):
        X = random_point(random.Random(37), 2, 3)
        assert_point_check_matches(parse(f"{k}*x1^3 + x2*x1^2*x2 - {k}*x2^4", 2), X)

    def test_numerators_past_2_53(self):
        # The coefficient 2*k/3 has a numerator past 2^53: rounding 2*k to a
        # double before dividing would land one ulp off the correctly
        # rounded 2*k/3.
        k = 25578818557822486
        assert float(2 * k) / 3 != 2 * k / 3
        X = random_point(random.Random(40), 2, 2)
        assert_point_check_matches(parse(f"{k}/3*x1^4 + x2^4", 2), X)

    def test_terms_cancelled_and_reinserted(self):
        # Lap words h*h*x2 and x2*h*h sum to zero and come back, with
        # 40-digit coefficients.
        X = random_point(random.Random(38), 3, 2)
        for c in (1, 10 ** 40 + 1):
            p = parse("x1^2*x2 - x2^3 + x3^2*x2 + x2*x1^2 + x2*x3^2", 3).scale(c)
            assert_point_check_matches(p, X)
