import random

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
    sample_matrix_positive,
    symmetrize,
    word,
    zeroes_violation,
)
from ncharm.ncpoly import EvalPlan

from _helpers import evaluate_oracle, random_symmetric_homogeneous, random_two_h_symmetric


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
            N = rep.size
            M = np.zeros((N * n, N * n))
            for i in range(N):
                for j in range(N):
                    if not rep.Z[i][j].is_zero():
                        M[i * n : (i + 1) * n, j * n : (j + 1) * n] = evaluate_oracle(
                            rep.Z[i][j], MatrixPoint(X=X)
                        )
            assert evaluate_middle(rep, X).tobytes() == ((M + M.T) / 2.0).tobytes()

    def test_plan_is_compiled_once_per_rep(self, monkeypatch):
        from ncharm import middlematrix

        compiled = []

        def counting_plan(groups):
            compiled.append(len(groups))
            return EvalPlan(groups)

        monkeypatch.setattr(middlematrix, "EvalPlan", counting_plan)
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
