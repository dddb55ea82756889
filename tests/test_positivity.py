import random

import numpy as np
import pytest

from ncharm import (
    MatrixPoint,
    Poly,
    SampleConfig,
    evaluate,
    laplacian,
    ldl_pivots,
    min_eigenvalue,
    parse,
    sample_matrix_positive,
    subharmonic_at_point,
    symmetrize,
)
from ncharm.positivity import SplitMix64, draw_symmetric, substream

from _helpers import random_symmetric_homogeneous


REGION_FAMILY = "x1^3 - x1*x2^2 - x2^2*x1 + x2*x1*x2"


class TestLdlPivots:
    def test_identity(self):
        pivots, psd = ldl_pivots(np.eye(3), 1e-9)
        assert psd
        assert pivots == [1.0, 1.0, 1.0]

    def test_zero_diagonal_block(self):
        pivots, psd = ldl_pivots(np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-9)
        assert not psd

    def test_worked_example_matrix(self):
        M = np.array(
            [
                [1.0, 0.0, 0.0, -1.0],
                [0.0, 3.0, 0.0, 0.0],
                [0.0, 0.0, 5.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
            ]
        )
        pivots, psd = ldl_pivots(M, 1e-9)
        assert not psd

    def test_negative_definite(self):
        pivots, psd = ldl_pivots(np.diag([2.0, -3.0]), 1e-9)
        assert not psd
        assert -3.0 in pivots

    def test_psd_rank_deficient(self):
        v = np.array([[1.0], [2.0], [0.0]])
        pivots, psd = ldl_pivots(v @ v.T, 1e-9)
        assert psd

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ldl_pivots(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-9)

    def test_consistency_with_min_eigenvalue(self):
        rnd = random.Random(41)
        tol = 1e-9
        for _ in range(50):
            n = rnd.randint(1, 6)
            A = np.array([[rnd.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            M = A @ A.T  # PSD by construction
            pivots, psd = ldl_pivots(M, tol)
            assert psd
            assert min_eigenvalue(M) >= -10 * tol

    def test_agrees_with_eigenvalues_on_indefinite_mix(self):
        rnd = random.Random(42)
        tol = 1e-9
        for _ in range(120):
            n = rnd.randint(1, 5)
            M = symmetrize(
                np.array([[rnd.uniform(-1, 1) for _ in range(n)]
                          for _ in range(n)])
            )
            _, psd = ldl_pivots(M, tol)
            me = min_eigenvalue(M)
            if psd:
                assert me >= -10 * tol
            if me >= tol:
                assert psd


class TestMinEigenvalue:
    def test_examples(self):
        assert min_eigenvalue(np.diag([2.0, -3.0])) == pytest.approx(-3.0, abs=1e-12)
        assert min_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
            -1.0, abs=1e-12
        )
        assert min_eigenvalue(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.array([[0.0, 2.0], [0.0, 0.0]]))


class TestSplitMix:
    def test_deterministic(self):
        a = [SplitMix64(42).next_u64() for _ in range(5)]
        b = [SplitMix64(42).next_u64() for _ in range(5)]
        assert a == b

    def test_substream_keying(self):
        assert substream(1, 2, 3).next_u64() == substream(1, 2, 3).next_u64()
        assert substream(1, 2, 3).next_u64() != substream(1, 3, 2).next_u64()

    def test_substream_pinned_values(self):
        assert substream(1, 2, 3).next_u64() == 1321962074176129191
        assert substream(0).next_u64() == 12035550249420947055
        assert substream(2009, 4, 1, 2).next_u64() == 6503644589192167711

    def test_draw_symmetric(self):
        M = draw_symmetric(substream(5, 3), 4, 1.0)
        assert np.array_equal(M, M.T)
        assert np.max(np.abs(M)) <= 1.0


class TestSampleMatrixPositive:
    def test_square_has_no_counterexample(self):
        verdict = sample_matrix_positive(parse("x1^2", 2), SampleConfig(seed=1))
        assert verdict.kind == "NoCounterexampleFound"
        assert verdict.min_eigenvalue_seen >= -1e-9

    def test_linear_fails_fast(self):
        verdict = sample_matrix_positive(
            Poly.variable(2, 1), SampleConfig(seed=1)
        )
        assert verdict.kind == "Counterexample"
        assert verdict.witness.n == 1

    def test_region_family_laplacian_fails(self):
        lap = laplacian(parse(REGION_FAMILY, 2))
        verdict = sample_matrix_positive(lap, SampleConfig(seed=1))
        assert verdict.kind == "Counterexample"

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sample_matrix_positive(parse("x1*x2", 2), SampleConfig(seed=1))

    def test_determinism(self):
        cfg = SampleConfig(seed=99)
        lap = laplacian(parse(REGION_FAMILY, 2))
        a = sample_matrix_positive(lap, cfg)
        b = sample_matrix_positive(lap, cfg)
        assert a.kind == b.kind
        assert a.samples_tested == b.samples_tested
        assert a.min_eigenvalue_seen == b.min_eigenvalue_seen
        assert a.witness.n == b.witness.n
        assert a.witness.sample_index == b.witness.sample_index
        for Ma, Mb in zip(a.witness.X, b.witness.X):
            assert np.array_equal(Ma, Mb)
        assert np.array_equal(a.witness.H, b.witness.H)

    def test_witness_soundness(self):
        lap = laplacian(parse(REGION_FAMILY, 2))
        verdict = sample_matrix_positive(lap, SampleConfig(seed=3))
        w = verdict.witness
        reproduced = min_eigenvalue(evaluate(lap, MatrixPoint(X=w.X, H=w.H)))
        assert abs(reproduced - w.min_eig) <= 1e-10


class TestSubharmonicAtPoint:
    def _random_X(self, rnd, n):
        return tuple(
            symmetrize(
                np.array([[rnd.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            )
            for _ in range(2)
        )

    def test_sandwich_square_certified_everywhere(self):
        rnd = random.Random(43)
        p = parse("x1*x2^2*x1", 2)
        cfg = SampleConfig(seed=4)
        for _ in range(10):
            X = self._random_X(rnd, rnd.randint(1, 3))
            assert subharmonic_at_point(p, X, cfg).kind == "CertifiedAllH"

    def test_region_family_sign(self):
        p = parse(REGION_FAMILY, 2)
        cfg = SampleConfig(seed=4)
        for n in (1, 2, 3):
            plus = subharmonic_at_point(p, (np.eye(n), np.zeros((n, n))), cfg)
            minus = subharmonic_at_point(p, (-np.eye(n), np.zeros((n, n))), cfg)
            assert plus.kind == "CertifiedAllH"
            assert minus.kind == "CounterexampleH"
            w = minus.witness
            lap = laplacian(p)
            reproduced = min_eigenvalue(evaluate(lap, MatrixPoint(X=w.X, H=w.H)))
            assert abs(reproduced - w.min_eig) <= 1e-10

    def test_square_certified(self):
        rnd = random.Random(44)
        cfg = SampleConfig(seed=5)
        p = parse("x1^2", 2)
        for _ in range(5):
            X = self._random_X(rnd, rnd.randint(1, 3))
            assert subharmonic_at_point(p, X, cfg).kind == "CertifiedAllH"

    def test_rejects_h_and_nonsymmetric(self):
        cfg = SampleConfig(seed=6)
        with pytest.raises(ValueError):
            subharmonic_at_point(parse("h^2", 2), (np.eye(2), np.eye(2)), cfg)
        with pytest.raises(ValueError):
            subharmonic_at_point(parse("x1*x2", 2), (np.eye(2), np.eye(2)), cfg)

    def test_certificate_implies_sampled_h_psd(self):
        # Sufficiency of the middle-matrix certificate, checked by sampling.
        rnd = random.Random(45)
        cfg = SampleConfig(seed=7)
        certified = 0
        trials = 0
        while certified < 50 and trials < 400:
            trials += 1
            deg = rnd.choice([2, 3])
            p = random_symmetric_homogeneous(rnd, 2, deg)
            if p.is_zero():
                continue
            n = rnd.randint(1, 3)
            X = self._random_X(rnd, n)
            verdict = subharmonic_at_point(p, X, cfg)
            if verdict.kind != "CertifiedAllH":
                continue
            certified += 1
            lap = laplacian(p)
            if lap.is_zero():
                continue
            for s in range(10):
                H = draw_symmetric(substream(777, n, s), n, 1.0)
                me = min_eigenvalue(evaluate(lap, MatrixPoint(X=X, H=H)))
                assert me >= -cfg.tol
        assert certified == 50
