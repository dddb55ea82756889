import random
from fractions import Fraction

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
from ncharm.positivity import (
    SplitMix64,
    _check_numeric_symmetry,
    draw_symmetric,
    substream,
)

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


class TestNonFinite:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_named_before_the_skew_test(self, bad):
        # inf - inf is nan, which passes a "skew > bound" test unnoticed and
        # warns on the way.
        M = np.array([[1.0, bad], [bad, 0.0]])
        message = f"must be finite numbers, found {bad}"
        with pytest.raises(ValueError, match=message):
            min_eigenvalue(M)
        with pytest.raises(ValueError, match=message):
            ldl_pivots(M, 1e-9)
        with pytest.raises(ValueError, match=message):
            _check_numeric_symmetry(np.stack([np.eye(2), M]), ndim=3)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_symmetrizing_overflow(self):
        M = np.array([[1.0, 1.5e308], [1.5e308, 1.0]])
        with pytest.raises(ValueError, match="found inf"):
            min_eigenvalue(M)

    def test_stack_checks_each_matrix(self):
        skewed = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            _check_numeric_symmetry(np.stack([np.eye(2), skewed]), ndim=3)
        with pytest.raises(ValueError, match="square"):
            _check_numeric_symmetry(np.eye(2), ndim=3)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_later_overflow_keeps_earlier_witness(self):
        # Sample 0 (x1 = -3.19, x2 = 0.34) is a hit; sample 1, drawn in the
        # same stack, has x2 = -7.93, so x2^400 overflows to inf.  The hit
        # wins, as when every sample was evaluated on its own.
        p = parse("x2^400 - x1^2", 2)
        cfg = SampleConfig(seed=131, sizes=(1, 2), samples_per_size=4, entry_range=10.0)
        verdict = sample_matrix_positive(p, cfg)
        w = verdict.witness
        assert (verdict.kind, verdict.samples_tested) == ("Counterexample", 1)
        assert (w.n, w.sample_index) == (1, 0)
        assert w.min_eig.hex() == verdict.min_eigenvalue_seen.hex() == "-0x1.45ce174a35c72p+3"
        assert [M.tobytes().hex() for M in w.X] == ["7a7cebd2d28609c0", "e024dbe893fbd53f"]
        # Without the earlier hit the overflow is refused by name.
        with pytest.raises(ValueError, match="found inf"):
            sample_matrix_positive(parse("x2^400 + x1^2", 2), cfg)


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


class TestSampleConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples_per_size", 0),
            ("samples_per_size", -3),
            ("h_samples", 0),
            ("tol", 0.0),
            ("tol", float("inf")),
            ("tol", float("nan")),
            ("entry_range", 0.0),
            ("entry_range", -1.0),
            ("entry_range", float("inf")),
            ("entry_range", float("nan")),
        ],
    )
    def test_rejects_out_of_domain(self, field, value):
        with pytest.raises(ValueError, match=field):
            SampleConfig(**{field: value})

    def test_smallest_valid_settings(self):
        cfg = SampleConfig(samples_per_size=1, h_samples=1, tol=1e-300, entry_range=1e-3)
        verdict = sample_matrix_positive(parse("x1^2", 2), cfg)
        assert verdict.samples_tested == len(cfg.sizes)


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

    # Captured from the per-point sampler before it evaluated stacks: the
    # first hit wins, and the counts stop at it.  (p, seed, n, sample,
    # samples_tested, min_eigenvalue_seen.hex()), sizes (1, 2, 3), 12
    # samples per size, so size 2 is split into samples 0-1, 2-5 and 6-11.
    @pytest.mark.parametrize(
        "case, seed, n, sample, tested, min_seen",
        [
            ("-x1^2", 0, 1, 0, 1, "-0x1.cea3a287801cfp-1"),
            ("commutator+1/8", 0, 2, 0, 13, "-0x1.83624cfe9bc9ap-1"),
            ("commutator+1", 1, 2, 5, 18, "-0x1.65c2087a1fb9cp-3"),
            ("commutator+1", 5, 2, 7, 20, "-0x1.b2a266a7bff70p-3"),
            ("x1^4 + x2^4 + x1*x2^2*x1", 3, None, None, 36, "0x1.ee825f35fea7cp-8"),
        ],
    )
    def test_pinned_witness_semantics(self, case, seed, n, sample, tested, min_seen):
        if case.startswith("commutator"):
            K = parse("x1*x2 - x2*x1", 2)
            p = K * K + parse("x1^4 + x2^4", 2).scale(Fraction(case[len("commutator+"):]))
        else:
            p = parse(case, 2)
        cfg = SampleConfig(seed=seed, sizes=(1, 2, 3), samples_per_size=12)
        verdict = sample_matrix_positive(p, cfg)
        assert verdict.samples_tested == tested
        assert verdict.min_eigenvalue_seen.hex() == min_seen
        if n is None:
            assert (verdict.kind, verdict.witness) == ("NoCounterexampleFound", None)
        else:
            w = verdict.witness
            assert (verdict.kind, w.n, w.sample_index) == ("Counterexample", n, sample)
            assert w.min_eig.hex() == min_seen

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

    # x1^3 at X1 = diag(1, -1/20): Z(X) is indefinite and only directions H
    # leaning on the small negative eigenvalue refute.  Values captured when
    # the direction search evaluated one H at a time.
    LATE_X = (np.diag([1.0, -0.05]), np.zeros((2, 2)))

    @pytest.mark.parametrize("seed, sample, min_eig, H", [
        (6, 2, "-0x1.07edeb120da6ep-2",
         "0ef481dd6ee7e83f802d18b6e475c03f802d18b6e475c03fa4c041415af1eebf"),
        (14, 7, "-0x1.7e7bbfffd6452p-2",
         "e2818347ee91e2bfecb2b3c3a68fd73fecb2b3c3a68fd73f229468b104e4e2bf"),
    ])
    def test_direction_hit_beyond_first_stack(self, seed, sample, min_eig, H):
        p = parse("x1^3", 2)
        verdict = subharmonic_at_point(p, self.LATE_X, SampleConfig(seed=seed, h_samples=20))
        w = verdict.witness
        assert (verdict.kind, w.n, w.sample_index) == ("CounterexampleH", 2, sample)
        assert (w.min_eig.hex(), w.H.tobytes().hex()) == (min_eig, H)
        point = MatrixPoint(X=w.X, H=w.H)
        assert min_eigenvalue(evaluate(laplacian(p), point)) == w.min_eig

    def test_unknown_after_every_direction(self):
        # Seed 14 first refutes at sample 7, one past seven directions.
        p = parse("x1^3", 2)
        verdict = subharmonic_at_point(p, self.LATE_X, SampleConfig(seed=14, h_samples=7))
        assert (verdict.kind, verdict.witness) == ("Unknown", None)
        # At n = 1, Lap(x1^3) = 6*x1*h^2 is positive at x1 = 1/2 although
        # its middle matrix is indefinite.
        X = (np.array([[0.5]]), np.zeros((1, 1)))
        assert subharmonic_at_point(p, X, SampleConfig(seed=0)).kind == "Unknown"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_direction_hit_wins_over_later_overflow(self):
        # Lap = -4*h^2.  With entries up to 2^511, sample 0 (|H| = 0.40 *
        # 2^511) is a hit and sample 1 (|H| = 0.92 * 2^511), drawn in the
        # same stack, overflows when symmetrized.  The hit wins, as when
        # every direction was evaluated on its own.
        p = parse("x1^2 - 3*x2^2", 2)
        X = (np.zeros((1, 1)), np.zeros((1, 1)))
        cfg = SampleConfig(seed=1, entry_range=2.0 ** 511)
        H1 = draw_symmetric(substream(1, 1, 1, 2), 1, 2.0 ** 511)
        with pytest.raises(ValueError, match="found -inf"):
            min_eigenvalue(evaluate(laplacian(p), MatrixPoint(X=X, H=H1)))
        w = subharmonic_at_point(p, X, cfg).witness
        assert (w.sample_index, w.min_eig.hex()) == (0, "-0x1.4310c24502966p+1021")
        assert w.H.tobytes().hex() == "a04fe4804a6bc9df"
        # When sample 0 overflows, the search refuses it by name.
        with pytest.raises(ValueError, match="found -inf"):
            subharmonic_at_point(p, X, SampleConfig(seed=7, entry_range=2.0 ** 511))
